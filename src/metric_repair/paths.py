"""All-pairs shortest paths on scaled integer weights.

Distances stay on the integer scale the graph stores (``integer_form()``):
``row(u)[v]`` is ``scale`` times the distance from ``u`` to ``v`` (None when
unreachable), so callers compare it with scaled edge weights exactly, and a
``Fraction`` is built only when ``dist()`` is read.  Two engines must agree:

* ``dense`` -- matrix relaxation (Floyd-Warshall) filling every row at once.
  It runs when ``m > n^2/4``.  From ``_NUMPY_MIN_N`` (64) vertices, while
  the sentinel (the "unreached" value ``_sentinel``) stays below
  ``_INT64_SAFE`` (2^62), it is a vectorized numpy int64 loop; otherwise it
  is the lane kernel (below), on lanes for values up to the sentinel, which
  also fills the pairs with no edge.  Every value a relaxation forms is
  below ``2 * sentinel``.  With ``b`` the candidate row ``row_k + d(i, k)``
  in every lane and ``a`` row ``i``, the lanes where the guard-bit compare
  finds ``b < a`` take ``b``'s bits.  Reading ``d(i, k)`` from row ``k`` is
  exact because the matrix stays symmetric, and pivot ``k``'s row and
  column do not change while it runs (``d(k, k) = 0``, weights are
  nonnegative), so this is the full relaxation's result.
* ``sparse`` -- priority-queue search (Dijkstra; weights are nonnegative),
  run for a source the first time its row is read.  It runs otherwise.

Lanes.  The Floyd-Warshall kernel, ``detect``'s triangle test and
``approx``'s raising sweep share one layout.  Row ``i`` of an ``n``-vertex
matrix is one Python int whose lane ``x``, bits ``[x*L, (x+1)*L)``, holds
cell ``(i, x)``.  ``_lane_rows`` is the one place that builds such rows from
an edge map: 0 on the diagonal, a given fill where no edge exists, each row
packed from its highest lane down.  For values up to ``top``, ``_lanes``
takes the narrowest width ``L = bitlen(2 * top) + 1``: a sum of two values
stays below ``2^(L-1)``, so each lane's top bit is a free guard bit.  With
every lane of ``a`` and ``b`` at most ``2 * top``, ``((b | guard) - a) &
guard`` keeps the guard bit exactly where ``b >= a``, and no borrow crosses
a lane, since each lane computes ``2^(L-1) + b - a``, which lies in ``(0,
2^L)`` (Lamport's guard-bit compare, CACM 18(8), 1975).

Paths are canonical and engine-independent: they come from the search's
predecessor tree.  The search settles vertices in ``(distance, vertex id)``
order and attaches each one to its smallest already-settled tight
predecessor: a strict improvement resets the parent, a tie keeps the smaller
id.  This stays acyclic across zero-weight plateaus, and repeated runs return
identical paths.  Each source keeps one record, the distance and parent
arrays of the last search from it; a read the record cannot answer replaces
it with the full search, which also fills the row.  So a row the dense
engine filled gets its tree from one search the first time a tree or a path
from that source is read.  The adjacency lists the searches walk are built
by the first search, so a dense result read only through ``row``, ``dist``
and ``edge`` never builds them.

Callers that only ask whether each edge is a shortest path read ``edge(u,
v)``.  Where no filled row exists, one test answers most such reads with no
search.  Let ``low(x)`` be the weight of ``x``'s lightest arc, the head of its
weight-sorted list.  Any u-v path other than the edge itself has at least two
edges; its first touches ``u``, its last touches ``v``, and the two are
different edges, so with nonnegative weights it weighs at least ``low(u) +
low(v)``.  So ``w(u, v) <= low(u) + low(v)`` proves ``d(u, v) = w(u, v)``,
and ``edge`` returns the weight.  This certificate is tested before the
record is looked up, so a certified read runs no search, scans no list and
writes nothing to the record, and a source whose edges all pass never
searches.

Any other read searches from ``u`` only out to its reach, the largest term
``w(u, v) - low(v)`` over ``u``'s edges to larger ids (each term is at least
0, since ``(u, v)`` is one of ``v``'s edges).  A certified edge's term is at
most ``low(u)`` and a failing edge's term exceeds it, so the reach of a
source with a failing edge is the largest term over its failing edges.  The
search settles every vertex within the reach and then stops, the source
always included.  It is a prefix of the full search in ``(distance, id)``
pop order, and a vertex's distance and parent are fixed when it is popped,
so every settled vertex gets exactly the full search's distance and
canonical parent.  A failing edge's far end ``v`` that the search did not
settle is answered by one last hop: start from ``w(u, v)`` with parent
``u``, and walk ``v``'s weight-sorted list while an arc is no heavier than
the best so far, taking ``d(u, x) + w(x, v)`` from each settled ``x`` that
improves it, or ties it with a smaller id.  That is exact.  Any other u-v
path no heavier than ``w(u, v)`` enters ``v`` by an edge ``(x, v)``, ``x !=
u``, of weight at least ``low(v)``, so ``d(u, x) <= w(u, v) - low(v) <=
reach``: ``x`` is settled with its full distance, and the best is ``d(u,
v)``.  A tight predecessor with a zero-weight last edge would make
``low(v) = 0`` and the reach at least ``d(u, v)``, so the search would have
settled ``v``; every other tight predecessor is strictly nearer than
``v``, so the full search settles it before ``v`` and the smallest-id one
(``u`` included when the edge is tight) is the canonical parent.  The answer is stored in
the source's record, and ``path(u, v)`` walks the bounded tree from it.  A
stored target lies past the reach, so it is never a tight predecessor of
another target and its entry changes no later scan.  ``edge`` takes either
order of the ends, and answers a pair that is not an edge, and that the
search did not settle, from the full row.

A search scans only the arcs within its limit.  Each adjacency list is
sorted by weight, so a search leaves a list at its first arc that reaches
past the limit.  That is exact: such an arc can be neither an improvement
nor a tie (every distance the search sets is within the limit), and every
later arc in the list is heavier.  A full search's limit is ``_sentinel``,
longer than any simple path, so it never leaves a list early.  The order of
the arcs within a list changes no distance, no pop and no canonical parent.
``detect.broken_cycles`` walks the same lists.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .graphs import WeightedGraph

_NUMPY_MIN_N = 64
_INT64_SAFE = 2 ** 62


class ApspResult:
    """Scaled integer distances plus lazily built canonical predecessor trees.

    ``scale`` and ``intw`` are the ``(scale, {edge: int})`` pair the distances
    were computed from.  Each source keeps one search record, bounded by an
    edge read or full, and the weight-sorted adjacency lists are built by the
    first search (module docstring).
    """

    __slots__ = ("scale", "intw", "_rows", "_adj", "_bound", "_trees")

    def __init__(self, n: int, scale: int, intw: dict, rows: list | None = None):
        self.scale = scale
        self.intw = intw
        self._rows = rows or [None] * n
        self._adj: list[list[tuple[int, int]]] | None = None
        self._bound = 0
        self._trees: dict[int, tuple[list[int | None], list[int | None]]] = {}

    def _adjacency(self) -> list[list[tuple[int, int]]]:
        """``(scaled weight, neighbour)`` lists sorted by weight, built on first use.

        Ties keep ``intw``'s order.  ``detect.broken_cycles`` walks these
        lists too; no caller changes them.
        """
        if self._adj is None:
            n = len(self._rows)
            adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            for (u, v), w in sorted(self.intw.items(), key=itemgetter(1)):
                adj[u].append((w, v))
                adj[v].append((w, u))
            self._bound = _sentinel(n, self.intw)
            self._adj = adj
        return self._adj

    def _tree(self, u: int, limit: int | None = None) -> tuple[list, list]:
        """``u``'s record.  With a ``limit``, a new search out to it; without,
        the full search unless the record is that already: a full search's
        distances are ``u``'s row, which it fills.  Every search runs here."""
        record = self._trees.get(u)
        if limit is not None or record is None or record[0] is not self._rows[u]:
            adj = self._adjacency()
            record = self._trees[u] = _dijkstra(adj, u, self._bound if limit is None else limit)
            if limit is None:
                self._rows[u] = record[0]
        return record

    def edge(self, u: int, v: int) -> int | None:
        """Scaled distance between ``u`` and ``v``, read for an edge's ends.

        Reads a filled row.  Otherwise an edge no heavier than its ends'
        lightest arcs is its own distance, with no search; any other read
        takes the search from the smaller end out to its reach, run once per
        source, and answers an edge's far end past the reach by its last hop
        (module docstring).  A pair that is not an edge, and that the search
        did not settle, reads the full row.
        """
        if u > v:
            u, v = v, u
        row = self._rows[u]
        if row is None:
            adj = self._adjacency()
            w = self.intw.get((u, v))
            if w is not None and w <= adj[u][0][0] + adj[v][0][0]:
                return w  # the certificate, ahead of the record
            record = self._trees.get(u)
            if record is None:
                reach = 0  # a term is at most its arc's weight: walk down from the heaviest
                for w, x in reversed(adj[u]):
                    if w <= reach:
                        break
                    if x > u and w - adj[x][0][0] > reach:
                        reach = w - adj[x][0][0]
                record = self._tree(u, reach)
            row = record[0]
            if row[v] is None:
                return self._last_hop(u, v, record)
        return row[v]

    def _last_hop(self, u: int, v: int, record: tuple[list, list]) -> int | None:
        """``d(u, v)`` for a pair the search from ``u`` did not settle: an
        edge by its last hop, stored with its canonical parent in ``u``'s
        record; any other pair from the full row."""
        best = self.intw.get((u, v))
        if best is None:
            return self.row(u)[v]
        dist, parent = record
        via = u
        for w, x in self._adj[v]:  # u's own arc keeps via = u
            if w > best:
                break
            dx = dist[x]
            if dx is not None:
                alt = dx + w
                if alt < best or (alt == best and x < via):
                    best, via = alt, x
        dist[v], parent[v] = best, via
        return best

    def row(self, u: int) -> list[int | None]:
        """Scaled distances from ``u`` to every vertex (None when unreachable)."""
        if self._rows[u] is None:
            self._tree(u)
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
        return tuple(self._tree(source)[1])

    def path(self, u: int, v: int) -> tuple[int, ...] | None:
        """One canonical shortest path from ``u`` to ``v`` (inclusive)."""
        record = self._trees.get(u)
        if record is None or record[0][v] is None:  # only a full search answers
            record = self._tree(u)
            if record[0][v] is None:
                return None
        parents, out = record[1], [v]
        while out[-1] != u:
            out.append(parents[out[-1]])
        out.reverse()
        return tuple(out)


def apsp(g: WeightedGraph) -> ApspResult:
    """All-pairs shortest paths of ``g``, cached on the graph by engine name."""
    engine = "dense" if _is_dense(g.n, g.m) else "sparse"
    cached = g._apsp_cache.get(engine)
    if cached is None:
        scale, intw = g.integer_form()
        cached = g._apsp_cache[engine] = _scaled_apsp(g.n, scale, intw)
    return cached


def _scaled_apsp(n: int, scale: int, intw: dict[tuple[int, int], int]) -> ApspResult:
    """Shortest paths on vertices ``0..n-1`` with scaled integer edge weights.

    The uncached kernel entry behind ``apsp``, for callers holding a one-off
    integer edge map.
    """
    if not _is_dense(n, len(intw)):
        return ApspResult(n, scale, intw)
    kernel = _dense_int_numpy if _numpy_kernel_runs(n, intw) else _dense_int_lanes
    return ApspResult(n, scale, intw, kernel(n, intw, _sentinel(n, intw)))


def _numpy_kernel_runs(n: int, intw: dict[tuple[int, int], int]) -> bool:
    """Whether shortest paths on this edge map run the numpy kernel: the dense
    engine on a large instance whose distances fit comfortably in int64."""
    return (_is_dense(n, len(intw)) and n >= _NUMPY_MIN_N
            and _sentinel(n, intw) < _INT64_SAFE)


def _is_dense(n: int, m: int) -> bool:
    return m > n * n / 4


def _sentinel(n: int, intw) -> int:
    # Longer than any simple path: the dense kernels' "unreached" value.
    return max(intw.values(), default=0) * max(n, 1) + 1


# -- dense engine -----------------------------------------------------------


def _lanes(n: int, top: int) -> tuple[int, range, int, int]:
    """``n`` lanes for values up to ``top`` (module docstring): the width, the
    lanes' bit offsets, a 1 in every lane and every lane's guard bit."""
    lane = (2 * top).bit_length() + 1
    shifts = range(0, n * lane, lane)
    ones = sum(1 << s for s in shifts)
    return lane, shifts, ones, ones << (lane - 1)


def _lane_rows(n: int, intw, lane: int, fill: int) -> tuple[list[list[int]], list[int]]:
    """The matrix of ``intw`` on ``n`` vertices, 0 on the diagonal and ``fill``
    where no edge exists, and its rows as ints of lanes ``lane`` bits wide
    (module docstring).  A row is packed from its highest lane down, which
    beats or-ing each value into the full-width int."""
    cells = [[fill] * i + [0] + [fill] * (n - 1 - i) for i in range(n)]
    for (u, v), w in intw.items():
        cells[u][v] = cells[v][u] = w
    rows = []
    for cell in cells:
        row = 0
        for a in reversed(cell):
            row = (row << lane) | a
        rows.append(row)
    return cells, rows


def _dense_int_lanes(n: int, intw, sentinel: int) -> list[list[int | None]]:
    # Row i's lane j holds d(i, j) (module docstring).  The flags of the lanes
    # that lose become full-lane masks by a shift and a subtraction: a
    # multiply by 2^L - 1 is far slower on wide lanes.
    lane, shifts, ones, guard = _lanes(n, sentinel)
    mask = (1 << lane) - 1
    _, rows = _lane_rows(n, intw, lane, sentinel)
    for k in range(n):
        row_k = rows[k]
        # d(k, i) == d(i, k): the matrix stays symmetric.
        for i, d_ik in enumerate([(row_k >> s) & mask for s in shifts]):
            if d_ik >= sentinel or i == k:
                continue
            b = row_k + d_ik * ones
            a = rows[i]
            keep = ((b | guard) - a) & guard  # guard bit set where b >= a
            if keep != guard:
                flags = (keep ^ guard) >> (lane - 1)
                rows[i] = a ^ ((a ^ b) & ((flags << lane) - flags))
    return _unreached_to_none([[(x >> s) & mask for s in shifts] for x in rows], sentinel)


def _dense_int_numpy(n: int, intw, sentinel: int) -> list[list[int | None]]:
    import numpy as np

    d = np.full((n, n), sentinel, dtype=np.int64)
    np.fill_diagonal(d, 0)
    u, v = np.fromiter(chain.from_iterable(intw), np.int64, 2 * len(intw)).reshape(-1, 2).T
    w = np.fromiter(intw.values(), np.int64, len(intw))
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


def _dijkstra(adj: list[list[tuple[int, int]]], source: int,
              limit: int) -> tuple[list[int | None], list[int | None]]:
    # Distances and the canonical tree (rule in the module docstring) at once.
    # Only vertices within ``limit`` get a distance.  A list is left at its
    # first arc past the limit: that arc would change nothing (every set
    # distance is within the limit, so it is neither an improvement nor a
    # tie), and on a sorted list every later arc is heavier.  A settled vertex
    # can only tie, never improve, so the settled check sits in the tie
    # branch, ahead of the parent comparison: the source keeps no parent.
    dist: list[int | None] = [None] * len(adj)
    parent: list[int | None] = [None] * len(adj)
    done = [False] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        du, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        for w, v in adj[u]:
            alt = du + w
            if alt > limit:
                break
            dv = dist[v]
            if dv is None or alt < dv:
                dist[v] = alt
                parent[v] = u
                push(heap, (alt, v))
            elif alt == dv and not done[v] and u < parent[v]:
                parent[v] = u
    return dist, parent
