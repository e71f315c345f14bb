"""Approximation algorithms for increase-only and general repair.

``shortest_path_cover`` works in batches.  Each batch walks the candidate
edges in sorted order, takes the canonical shortest path of every edge whose
path is strictly shorter than the edge, and skips a path that shares an edge
with what the batch has already claimed.  The claimed edges move into the
support and out of the working graph, the next batch recomputes the paths,
and the loop ends with a batch that claims nothing.  The first batch's
candidates are all edges; each later batch's are the edges the batch before
it found broken and did not claim.  Dropping the others is sound: deleting
edges only raises distances, and an edge still in the working graph is a
path of its own weight, so an edge whose distance equals its weight keeps
that.  Every broken cycle ends up with a bottom edge in the support, so the
closing Verifier call always accepts in increase-only mode, with at most
(L * OPT) support edges where L+1 bounds the broken-cycle length.  The
general variant also claims each taken path's closing edge, for an
(L+1) * OPT bound.

``five_cycle_cover`` and ``matrix_sweep_repair`` take a distance matrix, a
checked complete graph, and work on its scaled integer weights: the former
greedily covers every broken cycle on at most five vertices, found from each
top edge by ``detect.broken_cycles``, and then verifies; the latter performs
a single raising sweep over the integer matrix, each row held as one Python
int of lanes.  A column's pass keeps the lane-wise maximum of the rows it has
stepped, from which each next row reads its best raise, and runs only when
the column is the apex of a triangle broken in the input.  The screen is
exact: a pass raises only its own column, and a triangle it breaks whose apex
is a later column it mends before it ends; on a metric matrix no pass runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .detect import _triangle_tops, broken_cycles
from .exact import verify_support
from .graphs import (
    DistanceMatrix,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    SupportRejectedError,
    WeightedGraph,
    edge_key,
)
from .paths import _lane_rows, _lanes, _scaled_apsp


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
        raise PreconditionError("path cover produces increase-only or general repairs")
    return _path_cover(g, close_cycle=True, omega=omega)


def _path_cover(g: WeightedGraph, close_cycle: bool, omega: OmegaClass) -> ApproxReport:
    support: set = set()
    batches: list[tuple] = []
    scale, intw = g.integer_form()
    working = dict(intw)
    candidates = sorted(working)
    iterations = 0
    while True:
        iterations += 1
        d = _scaled_apsp(g.n, scale, working)
        batch = []
        broken = []
        claimed: set = set()
        for u, v in candidates:
            if d.edge(u, v) >= working[(u, v)]:
                continue
            broken.append((u, v))
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
        candidates = [e for e in broken if e in working]
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


def five_cycle_cover(d: DistanceMatrix) -> ApproxReport:
    """Cover every broken cycle on at most 5 vertices, then verify.

    Walking the broken short cycles in ``detect.broken_cycles`` order (length,
    vertex set, arrangement), any one with no bottom edge in the cover yet
    contributes all of its edges.  A second pass records the 4-cycles embedded
    in the cover (pairs of disjoint cover edges closed by two more cover
    edges); their edges join the returned support.  The final increase-only
    verification is expected to accept; a rejection raises.
    """
    cover: set = set()
    for witness in broken_cycles(d, max_vertices=5):
        edges = witness.edges()
        if cover.intersection(edges) <= {witness.top_edge}:
            cover.update(edges)
    stage_one = frozenset(cover)
    support = stage_one | embedded_square_edges(stage_one)

    outcome = verify_support(d, support, OmegaClass.INCREASE_ONLY)
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
    metric and touches at most (n-1)(n-2) matrix cells.  The sweep runs on the
    graph's scaled integer weights, each row held as one Python int of lanes,
    and a column's pass runs only when the column is the apex (the corner
    opposite the top edge) of a triangle broken in the input
    (``_sweep_lanes``).  A raised entry is a difference of two
    entries, so it never exceeds the largest one, and the lanes are as exact
    past 2^62 as below it.
    """
    scale, intw = d.integer_form()
    raised, _ = _sweep_lanes(d.n, intw)
    entries = {(i, j): Fraction(raised[i][j] - w, scale)
               for (i, j), w in intw.items() if raised[i][j] != w}
    return RepairDelta(entries, OmegaClass.INCREASE_ONLY)


def repaired_cell_count(delta: RepairDelta) -> int:
    """Number of matrix cells a delta touches (each pair counts twice)."""
    return 2 * delta.norm0()


def _sweep_lanes(n: int, intw: dict[tuple[int, int], int]) -> tuple[list[list[int]], int]:
    """The raising sweep on the complete graph ``intw`` on ``n`` vertices, as
    a matrix ``m``: the raised matrix, and the number of column passes that ran.

    Row ``j`` is also one int of lanes (``paths``' module docstring), sized
    for the largest entry ``top``.  Column ``k``'s pass walks the rows in
    order and keeps ``best_of``, the lane-wise maximum of ``row_j' + (top -
    m[j'][k])`` over the rows ``j' < j`` already stepped.  By symmetry its lane
    ``j`` minus ``top`` is ``max_j' < j (m[j][j'] - m[j'][k])``, the step's
    best raise.  Entries stay in ``[0, top]``, since a raised entry is a
    difference of two, so no lane exceeds ``2 * top`` and the maximum is the
    guard-bit compare and a select.  A raise of ``(j, k)`` rewrites lane ``k``
    of row ``j``, before ``best_of`` folds that row, and lane ``j`` of row
    ``k``, which ``best_of`` never reads after step ``j``.

    A pass runs only if its column is the apex ``x`` of a triangle broken in
    the input, ``m[i][x] + m[j][x] < m[i][j]`` (``detect._triangle_tops``).
    That is exact.  A pass whose column is the apex of no broken triangle
    raises nothing: each term ``m[j][j'] - m[j'][k]`` is at most ``m[j][k]``.
    And no pass makes a later column an apex, so by induction the input's
    apexes are the only ones.  Pass ``k`` raises only entries ``(j, k)``, and
    once it has stepped rows ``a`` and ``b`` the triangle ``(a, b, k)`` holds,
    since ``m[a][b]`` stays and ``m[a][k]``, ``m[b][k]`` only rise.  Let ``x >
    k`` be no apex, and let the raise of ``(j, k)`` to ``m[j][j'] - m[j'][k]``
    break ``(j, k, x)``.  The triangle ``(j, j', x)`` has no edge at ``k``
    (``j' = k`` gives ``m[j][k]``, no raise), so it still holds, and then
    ``m[j'][x] > m[j'][k] + m[k][x]``: row ``x`` is not stepped yet, and once
    it is, ``m[k][x] >= m[x][j'] - m[j'][k]`` mends ``(j, k, x)``.
    """
    top = max(intw.values(), default=0)
    lane, shifts, ones, guard = _lanes(n, top)
    mask = (1 << lane) - 1
    m, rows = _lane_rows(n, intw, lane, 0)
    apexes = 0  # the guard bits of the columns that are an apex
    for _, _, bits in _triangle_tops(intw, rows, ones, guard):
        apexes |= bits
    top_ones = top * ones
    passes = 0
    for k, s_k in enumerate(shifts):
        if not apexes >> (s_k + lane - 1) & 1:
            continue
        passes += 1
        m_k = m[k]
        best_of = rows[0] + top_ones - m[0][k] * ones
        for j in range(1, n):
            m_j = m[j]
            c = m_j[k]
            best = (best_of >> shifts[j] & mask) - top
            if best > c:
                m_j[k] = m_k[j] = best
                rows[j] += (best - c) << s_k
                rows[k] += (best - c) << shifts[j]
                c = best
            b = rows[j] + top_ones - c * ones
            keep = ((best_of | guard) - b) & guard  # guard bit set where best_of >= b
            if keep != guard:
                flags = (keep ^ guard) >> (lane - 1)
                best_of ^= (best_of ^ b) & ((flags << lane) - flags)
    return m, passes
