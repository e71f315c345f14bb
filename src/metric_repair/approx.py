"""Approximation algorithms for increase-only and general repair.

``shortest_path_cover`` works in batches.  Each batch walks the remaining
edges in sorted order, takes the canonical shortest path of every edge whose
path is strictly shorter than the edge, and skips a path that shares an edge
with what the batch has already claimed.  The claimed edges move into the
support and out of the working graph, the next batch recomputes the paths,
and the loop ends with a batch that claims nothing.  Every broken cycle ends
up with a bottom edge in the support, so the closing Verifier call always
accepts in increase-only mode, with at most (L * OPT) support edges where L+1
bounds the broken-cycle length.  The general variant also claims each taken
path's closing edge, for an (L+1) * OPT bound.

``five_cycle_cover`` and ``matrix_sweep_repair`` take a distance matrix, the
checked view of a complete graph, and work on that graph's scaled integer
weights: the former greedily covers every broken cycle on at most five
vertices and then verifies, the latter performs a single cubic raising sweep
over the integer matrix in one numpy kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import NamedTuple

from .exact import verify_support
from .graphs import (
    DistanceMatrix,
    MetricRepairError,
    OmegaClass,
    RepairDelta,
    SupportRejectedError,
    WeightedGraph,
    _top_edge,
    edge_key,
)
from .paths import _INT64_SAFE, _scaled_apsp


class ApproxReport(NamedTuple):
    """Solution plus the run facts the benches report."""

    support: frozenset
    delta: RepairDelta
    iterations: int
    ratio_bound: str
    batches: tuple = ()
    stage_one_cover: frozenset | None = None


def shortest_path_cover(g: WeightedGraph) -> ApproxReport:
    """Greedy path-cover repair, increase-only."""
    return _path_cover(g, close_cycle=False, omega=OmegaClass.INCREASE_ONLY)


def general_shortest_path_cover(
    g: WeightedGraph, omega: OmegaClass = OmegaClass.GENERAL) -> ApproxReport:
    """Path-cover repair that also claims each path's closing edge.

    The natural sign class is general; an increase-only verification can be
    requested but is not guaranteed to accept, in which case this raises
    ``SupportRejectedError``.
    """
    if omega is OmegaClass.DECREASE_ONLY:
        raise MetricRepairError("path cover produces increase-only or general repairs")
    return _path_cover(g, close_cycle=True, omega=omega)


def _path_cover(g: WeightedGraph, close_cycle: bool, omega: OmegaClass) -> ApproxReport:
    support: set = set()
    batches: list[tuple] = []
    scale, intw = g.integer_form()
    working = dict(intw)
    iterations = 0
    while True:
        iterations += 1
        d = _scaled_apsp(g.n, scale, working)
        batch = []
        claimed: set = set()
        for (u, v), w in sorted(working.items()):
            if d.edge(u, v) >= w:
                continue
            path = d.path(u, v)
            path_edges = {edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)}
            if path_edges & claimed:
                continue
            batch.append(path)
            claimed |= path_edges
            if close_cycle:
                claimed.add((u, v))
        if not batch:
            break
        support |= claimed
        for e in claimed:
            del working[e]
        batches.append(tuple(batch))

    outcome = verify_support(g, support, omega)
    if not outcome.accepted:
        raise SupportRejectedError(outcome)
    return ApproxReport(
        support=frozenset(support),
        delta=outcome.delta,
        iterations=iterations,
        ratio_bound="L+1" if close_cycle else "L",
        batches=tuple(batches),
    )


# -- five-cycle cover ---------------------------------------------------------


def short_cycles_complete(n: int, max_len: int = 5):
    """Canonical cycles of the complete graph K_n with at most ``max_len`` edges.

    Ordered by length, then lexicographically by vertex set and arrangement;
    each cycle appears once (smallest vertex first, second < last).
    """
    for m in range(3, min(max_len, n) + 1):
        for subset in combinations(range(n), m):
            first = subset[0]
            for rest in permutations(subset[1:]):
                if rest[0] < rest[-1]:
                    yield (first,) + rest


def five_cycle_cover(d: DistanceMatrix) -> ApproxReport:
    """Cover every broken cycle on at most 5 vertices, then verify.

    Walking the short cycles in canonical order, any broken one with no bottom
    edge in the cover yet contributes all of its edges.  A second pass records
    the 4-cycles embedded in the cover (pairs of disjoint cover edges closed by
    two more cover edges); their edges join the returned support.  The final
    increase-only verification is expected to accept; a rejection raises.
    """
    g = d.to_graph()
    _, intw = g.integer_form()
    cover: set = set()
    for cycle in short_cycles_complete(d.n):
        m = len(cycle)
        edges = [edge_key(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
        top = _top_edge(intw, edges)
        if top is None:
            continue
        if any(e != top and e in cover for e in edges):
            continue
        cover.update(edges)
    stage_one = frozenset(cover)
    support = stage_one | embedded_square_edges(stage_one)

    outcome = verify_support(g, support, OmegaClass.INCREASE_ONLY)
    if not outcome.accepted:
        raise SupportRejectedError(outcome)
    return ApproxReport(
        support=frozenset(support),
        delta=outcome.delta,
        iterations=1,
        ratio_bound="n/a",
        stage_one_cover=stage_one,
    )


def embedded_square_edges(cover: frozenset) -> frozenset:
    """Edges of the 4-cycles whose four edges all lie inside ``cover``."""
    edges = sorted(cover)
    out: set = set()
    for a in range(len(edges)):
        (p, q) = edges[a]
        for b in range(a + 1, len(edges)):
            (r, s) = edges[b]
            if r in (p, q) or s in (p, q):
                continue
            for (x, y), (z, w) in (((q, r), (s, p)), ((q, s), (r, p))):
                side1, side2 = edge_key(x, y), edge_key(z, w)
                if side1 in cover and side2 in cover:
                    out.update((edges[a], edges[b], side1, side2))
    return frozenset(out)


# -- matrix raising sweep -----------------------------------------------------


def matrix_sweep_repair(d: DistanceMatrix) -> RepairDelta:
    """One cubic raising sweep over the matrix; increase-only.

    For each column ``k`` and row ``i`` in order, the entry ``(i, k)`` is
    raised to ``max_j < i (D[i][j] - D[j][k])`` whenever that beats its current
    value, mirroring the update to ``(k, i)`` immediately.  The result is
    metric and touches at most (n-1)(n-2) matrix cells.

    The sweep runs on the graph's scaled integer weights: a raised entry is a
    difference of two entries, so it never exceeds the largest one, and numpy
    ``int64`` is exact below ``paths._INT64_SAFE``; past it the same kernel
    runs on exact Python ints (``dtype=object``).
    """
    n = d.n
    scale, intw = d.to_graph().integer_form()
    int_rows = [[0] * n for _ in range(n)]
    for (i, j), w in intw.items():
        int_rows[i][j] = int_rows[j][i] = w
    dtype = "int64" if max(intw.values(), default=0) < _INT64_SAFE else object
    raised = _sweep_numpy(int_rows, dtype)
    entries = {(i, j): Fraction(raised[i][j] - w, scale)
               for (i, j), w in intw.items() if raised[i][j] != w}
    return RepairDelta(entries, OmegaClass.INCREASE_ONLY)


def repaired_cell_count(delta: RepairDelta) -> int:
    """Number of matrix cells a delta touches (each pair counts twice)."""
    return 2 * delta.norm0()


def _sweep_numpy(int_rows, dtype) -> list[list[int]]:
    """The raising sweep on a symmetric integer matrix held as a ``dtype`` array."""
    import numpy as np

    m = np.array(int_rows, dtype=dtype)
    n = len(int_rows)
    for k in range(n):
        col_k = m[:, k]
        for i in range(1, n):
            best = int((m[i, :i] - col_k[:i]).max())
            if best > m[i, k]:
                m[i, k] = best
                m[k, i] = best
    return m.tolist()
