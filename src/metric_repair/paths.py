"""All-pairs shortest paths on scaled integer weights.

Distances stay on the integer scale the graph stores (``integer_form()``):
``row(u)[v]`` is ``scale`` times the distance from ``u`` to ``v`` (None when
unreachable), so callers compare it with scaled edge weights exactly, and a
``Fraction`` is built only when ``dist()`` is read.  Two engines must agree:

* ``dense`` -- matrix relaxation (Floyd-Warshall) filling every row at once,
  through a vectorized numpy int64 loop on large instances whose distances
  fit comfortably in 64 bits and over Python ints otherwise.
* ``sparse`` -- priority-queue search (Dijkstra; weights are nonnegative),
  run for a source the first time its row is read.

``engine="auto"`` picks dense when ``m > n^2/4`` and sparse otherwise.

Path reconstruction is canonical and engine-independent: for each source the
predecessor tree is rebuilt from the exact distances, settling vertices in
``(distance, vertex id)`` order and always attaching a vertex to its smallest
already-settled predecessor.  Repeated runs therefore return identical paths.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .graphs import WeightedGraph

_NUMPY_MIN_N = 64
_INT64_SAFE = 2 ** 62


class ApspResult:
    """Scaled integer distances plus lazily built canonical predecessor trees.

    ``scale`` and ``intw`` are the ``(scale, {edge: int})`` pair the distances
    were computed from; rows the engine left unfilled are searched on first read.
    """

    __slots__ = ("scale", "intw", "_rows", "_adj", "_parents")

    def __init__(self, n: int, scale: int, intw: dict, rows: list | None = None):
        self.scale = scale
        self.intw = intw
        self._rows = rows or [None] * n
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), w in intw.items():
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))
        self._parents: dict[int, tuple[int | None, ...]] = {}

    def row(self, u: int) -> list[int | None]:
        """Scaled distances from ``u`` to every vertex (None when unreachable)."""
        if self._rows[u] is None:
            self._rows[u] = _dijkstra(self._adj, u)
        return self._rows[u]

    def dist(self, u: int, v: int) -> Fraction | None:
        """Shortest-path distance, or None when disconnected."""
        x = self.row(u)[v]
        if x is None:
            return None
        return Fraction(x) if self.scale == 1 else Fraction(x, self.scale)

    def parents(self, source: int) -> tuple[int | None, ...]:
        """Canonical shortest-path tree rooted at ``source``.

        ``parents(s)[v]`` is the predecessor of ``v`` on the canonical shortest
        path from ``s``; it is None for the source itself and for unreachable
        vertices.
        """
        if source not in self._parents:
            self._parents[source] = _canonical_parents(self._adj, self.row(source), source)
        return self._parents[source]

    def path(self, u: int, v: int) -> tuple[int, ...] | None:
        """One canonical shortest path from ``u`` to ``v`` (inclusive)."""
        if self.row(u)[v] is None:
            return None
        if u == v:
            return (u,)
        parents = self.parents(u)
        out = [v]
        while out[-1] != u:
            prev = parents[out[-1]]
            assert prev is not None
            out.append(prev)
        out.reverse()
        return tuple(out)


def apsp(g: WeightedGraph, engine: str = "auto") -> ApspResult:
    """All-pairs shortest paths of ``g``; results are cached per engine."""
    engine = _pick_engine(g.n, g.m, engine)
    cached = g._apsp_cache.get(engine)
    if cached is None:
        scale, intw = g.integer_form()
        cached = g._apsp_cache[engine] = _scaled_apsp(g.n, scale, intw, engine)
    return cached


def _scaled_apsp(n: int, scale: int, intw: dict[tuple[int, int], int],
                 engine: str = "auto") -> ApspResult:
    """Shortest paths on vertices ``0..n-1`` with scaled integer edge weights.

    The uncached kernel entry behind ``apsp``, for callers holding a one-off
    integer edge map.
    """
    if _pick_engine(n, len(intw), engine) == "sparse":
        return ApspResult(n, scale, intw)
    sentinel = max(intw.values(), default=0) * max(n, 1) + 1
    if sentinel < _INT64_SAFE and n >= _NUMPY_MIN_N:
        return ApspResult(n, scale, intw, _dense_int_numpy(n, intw, sentinel))
    return ApspResult(n, scale, intw, _dense_int_python(n, intw, sentinel))


def _pick_engine(n: int, m: int, engine: str) -> str:
    if engine == "auto":
        return "dense" if m > n * n / 4 else "sparse"
    if engine not in ("dense", "sparse"):
        raise ValueError(f"unknown engine {engine!r}")
    return engine


# -- dense engine -----------------------------------------------------------


def _dense_int_python(n: int, intw, sentinel: int) -> list[list[int | None]]:
    d = [[sentinel] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for (u, v), w in intw.items():
        if w < d[u][v]:
            d[u][v] = w
            d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik >= sentinel:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return _unreached_to_none(d, sentinel)


def _dense_int_numpy(n: int, intw, sentinel: int) -> list[list[int | None]]:
    import numpy as np

    d = np.full((n, n), sentinel, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for (u, v), w in intw.items():
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return _unreached_to_none(d.tolist(), sentinel)


def _unreached_to_none(rows: list[list[int]], sentinel: int) -> list[list[int | None]]:
    # Relaxation leaves every unreachable entry at exactly the sentinel.
    return [[None if x == sentinel else x for x in row] if sentinel in row else row
            for row in rows]


# -- sparse engine ----------------------------------------------------------


def _dijkstra(adj: list[list[tuple[int, int]]], source: int) -> list[int | None]:
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    done = [False] * len(adj)
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            alt = du + w
            if dist[v] is None or alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist


# -- canonical predecessor trees ---------------------------------------------


def _canonical_parents(adj: list[list[tuple[int, int]]], drow: list[int | None],
                       source: int) -> tuple[int | None, ...]:
    # Settle vertices one at a time.  A vertex becomes eligible once some
    # settled neighbor p satisfies dist[p] + w(p,v) == dist[v]; among eligible
    # vertices the smallest (dist, id) settles next, attached to its smallest
    # settled tight predecessor.  This stays acyclic even across zero-weight
    # plateaus, where a naive "smallest tight predecessor" rule can loop.
    # Candidates are maintained incrementally as vertices settle.
    n = len(adj)
    parent: list[int | None] = [None] * n
    settled = [False] * n
    candidate: list[int | None] = [None] * n

    def relax_from(p: int) -> None:
        dp = drow[p]
        for v, w in adj[p]:
            if settled[v] or drow[v] is None:
                continue
            if dp + w == drow[v]:
                if candidate[v] is None or p < candidate[v]:
                    candidate[v] = p

    settled[source] = True
    relax_from(source)
    remaining = {v for v in range(n) if drow[v] is not None and v != source}
    for _ in range(len(remaining)):
        best_v = min((v for v in remaining if candidate[v] is not None),
                     key=lambda v: (drow[v], v), default=None)
        assert best_v is not None, "reachable vertex without settled tight predecessor"
        parent[best_v] = candidate[best_v]
        settled[best_v] = True
        remaining.remove(best_v)
        relax_from(best_v)
    return tuple(parent)
