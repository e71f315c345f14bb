"""Detection of broken cycles and metric violations.

A cycle is *broken* when one of its edges strictly outweighs the sum of all
the others; that heavy edge is the cycle's top edge and the rest are bottom
edges.  A weighted graph satisfies a metric exactly when it has no broken
cycle, which is equivalent to every edge being a shortest path between its
endpoints (ties are fine: equality does not break a cycle).

Broken-cycle tests run on the graph's stored scaled integer weights
(``WeightedGraph.integer_form``): multiplying every weight by the same
positive scale leaves ``2 * w(top) > w(cycle)`` unchanged, and Python ints
are exact at any size, so the test stays exact without touching a Fraction.
That predicate is defined once, as ``graphs._top_edge``, which
``BrokenCycleWitness.check`` calls too; ``broken_triangles`` uses its
three-term form, comparing each triangle's three scaled integers in place and
building a witness only for the triangles that break.  ``broken_cycles`` uses
its path form: a cycle is broken with top edge ``(u, v)`` exactly when the
rest of it is a u-v path lighter than ``w(u, v)``, so it searches only such
paths and never lists a cycle that holds.  ``is_metric`` is
``find_broken_witness(g) is None``, so there is one edge walk.

On a complete graph the walk runs only when some triangle breaks, because
there a triangle-free graph is metric: by induction on its length, no path
between an edge's ends is lighter than the edge.  The triangle test is
``_top_edge``'s three-term form, vectorized on the lanes of ``paths`` (its
module docstring has the layout, the width and the guard-bit compare), sized
for the largest weight.  ``_triangle_tops`` compares, for an edge ``(u, v)``
of weight ``a``, ``row_u + row_v`` with ``a`` in every lane ``x``: every lane
sum is at most twice the largest weight, so the guard bit clears exactly
where ``w(u, x) + w(x, v) < a``, at the apexes of the broken triangles that
``(u, v)`` tops.  Lanes ``u`` and ``v`` hold ``a + 0`` and never clear.  The
answer is kept on the graph, in its APSP cache under ``"witness"``: graphs
are immutable, and a matrix view shares its graph's cache, so ``is_metric``
and then ``find_broken_witness`` compute it once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import (
    BrokenCycleWitness,
    EnumerationBudgetError,
    InstanceStats,
    OmegaClass,
    WeightedGraph,
)
from .paths import _lane_rows, _lanes, apsp


def is_metric(g: WeightedGraph) -> bool:
    """True iff every edge weight equals the distance between its endpoints."""
    return find_broken_witness(g) is None


def find_broken_witness(g: WeightedGraph) -> BrokenCycleWitness | None:
    """A broken cycle certificate, or None when the graph is metric.

    Scans edges in lexicographic order; the first edge that is strictly longer
    than the distance between its endpoints is the top edge of a broken cycle,
    closed by the canonical shortest path.  A complete graph with no broken
    triangle is metric, so there the scan runs only after the lane test finds
    one.  The answer is computed once per graph (module docstring).
    """
    cache = g._apsp_cache
    if "witness" not in cache:
        cache["witness"] = (None if g.is_complete() and not _breaks_a_triangle(g)
                            else _first_broken_edge(g))
    return cache["witness"]


def _first_broken_edge(g: WeightedGraph) -> BrokenCycleWitness | None:
    d = apsp(g)
    for (u, v) in g.edges:
        if d.edge(u, v) < d.intw[(u, v)]:
            path = d.path(u, v)
            assert path is not None and len(path) >= 3
            return BrokenCycleWitness(cycle=path, top_edge=(u, v))
    return None


def _breaks_a_triangle(g: WeightedGraph) -> bool:
    # The lane test of the module docstring, on a complete graph.
    _, intw = g.integer_form()
    lane, _, ones, guard = _lanes(g.n, max(intw.values(), default=0))
    return any(_triangle_tops(intw, _lane_rows(g.n, intw, lane, 0)[1], ones, guard))


def _triangle_tops(intw, rows, ones, guard):
    """``(u, v, apexes)`` for each edge ``(u, v)`` that tops a broken triangle
    of a complete graph, in ``intw`` order, with ``apexes`` the guard bits of
    the lanes ``x`` where ``w(u, x) + w(x, v) < w(u, v)`` (module docstring).
    ``(row_u | guard) + row_v`` is ``(row_u + row_v) | guard``, since no lane
    sum reaches its guard bit."""
    guarded = [row | guard for row in rows]
    for (u, v), a in intw.items():
        held = (guarded[u] + rows[v] - a * ones) & guard
        if held != guard:
            yield u, v, held ^ guard


def broken_triangles(g: WeightedGraph) -> tuple[BrokenCycleWitness, ...]:
    """All broken 3-cycles ``u < v < x``, each with its top edge, in lexicographic order.

    The three-term form of ``_top_edge``: with nonnegative weights, ``2 * max >
    sum`` holds exactly when one weight exceeds the sum of the other two.
    """
    _, intw = g.integer_form()
    up: list[dict[int, int]] = [{} for _ in range(g.n)]  # up[u][v] = w(u, v) for v > u
    for (u, v) in g.edges:
        up[u][v] = intw[(u, v)]
    found = []
    for u, up_u in enumerate(up):
        for v, a in up_u.items():
            for x, c in up[v].items():
                b = up_u.get(x)
                if b is None:
                    continue
                if a > b + c:
                    found.append(BrokenCycleWitness((u, v, x), (u, v)))
                elif b > a + c:
                    found.append(BrokenCycleWitness((u, v, x), (u, x)))
                elif c > a + b:
                    found.append(BrokenCycleWitness((u, v, x), (v, x)))
    return tuple(found)


def edge_bits(g: WeightedGraph) -> dict[tuple[int, int], int]:
    """``{g.edges[i]: 1 << i}``, the bit layout of ``cover_masks``."""
    return {e: 1 << i for i, e in enumerate(g.edges)}


def mask_edges(g: WeightedGraph, mask: int) -> list[tuple[int, int]]:
    """The edges of ``mask`` in index order: the inverse of ``edge_bits``."""
    edges = g.edges
    out = []
    while mask:
        low = mask & -mask
        out.append(edges[low.bit_length() - 1])
        mask ^= low
    return out


def cover_masks(g: WeightedGraph, witnesses: Iterable[BrokenCycleWitness],
                omega: OmegaClass) -> list[int]:
    """One bitmask per broken cycle of the edges a repair in ``omega`` can mend it on.

    A cycle stays broken unless its weights change: an increase-only repair
    must raise one of its bottom edges (raising the top edge only widens the
    gap), a general repair must change some edge of it.  So a support that
    misses a cycle's mask admits no repair.  Bit layout as in ``edge_bits``.
    """
    bit = edge_bits(g)
    masks = []
    for witness in witnesses:
        edges = witness.edges() if omega is OmegaClass.GENERAL else witness.bottom_edges()
        mask = 0
        for e in edges:
            mask |= bit[e]
        masks.append(mask)
    return masks


def hits_within(masks: Sequence[int], hit: int, room: int) -> int | None:
    """``hit`` with at most ``room`` more bits meeting every mask, or None if none exists.

    One pass packs, greedily in list order, the masks that ``hit`` misses and
    that share no bit with a mask packed before.  Each packed mask needs a bit
    of its own, so more than ``room`` of them leave no cover: the packing
    lower bound of bounded search trees.  Otherwise the search branches on the
    bits of the first missed mask, in index order, each child with one less
    room, and returns the first cover it reaches.  On masks of at most ``c``
    bits that is the ``c``-hitting-set branching, at most ``c ** room`` leaves
    (Cygan et al., *Parameterized Algorithms*, 2015, ch. 3).
    """
    if room < 0:
        return None
    blocked, first, packed = hit, 0, 0
    for mask in masks:
        if not mask & blocked:
            if not packed:
                first = mask
            blocked |= mask
            packed += 1
            if packed > room:
                return None
    if not packed:
        return hit
    while first:
        low = first & -first
        if (found := hits_within(masks, hit | low, room - 1)) is not None:
            return found
        first ^= low
    return None


def broken_cycles(g: WeightedGraph, max_vertices: int | None = None
                  ) -> tuple[BrokenCycleWitness, ...]:
    """Every broken cycle on at most ``max_vertices`` vertices (all when None).

    Each is found once, from its unique top edge ``(u, v)``: the rest of the
    cycle is a simple u-v path with an inner vertex that weighs less than
    ``w(u, v)``.  So only edges with ``d(u, v) < w(u, v)`` are searched, and
    a path prefix ending at ``x`` grows only while ``prefix + d(x, v) <
    w(u, v)``, the A* bound (Hart, Nilsson and Raphael, 1968): every
    completion weighs at least that much.  Cycles are turned to start at their
    smallest vertex with the second vertex below the last, and sorted by
    length, then vertex set, then arrangement.  The count can grow
    exponentially; callers guard the size.
    """
    d = apsp(g)
    intw, adj = d.intw, d._adjacency()
    inner = (g.n if max_vertices is None else max_vertices) - 2  # vertices a path may add
    found = []
    for (u, v), top in intw.items():
        if d.edge(u, v) >= top:
            continue
        to_v = d.row(v)
        into_v: list[tuple] = [()] * g.n  # the only arc a path with no room left may take
        for w, x in adj[v]:
            into_v[x] = ((w, v),)
        path, on_path = [u], [False] * g.n
        on_path[u] = True

        # One test is both the bound and, at y == v where d(v, v) = 0, the
        # closing test.  It refuses the edge (u, v) itself, w(u, v) < w(u, v)
        # being false, so every path found has an inner vertex.
        def extend(x: int, prefix: int, room: int) -> None:
            for w, y in adj[x] if room > 0 else into_v[x]:
                if on_path[y] or prefix + w + to_v[y] >= top:
                    continue
                if y == v:
                    found.append(BrokenCycleWitness(_canonical(path + [v]), (u, v)))
                else:
                    path.append(y)
                    on_path[y] = True
                    extend(y, prefix + w, room - 1)
                    on_path[y] = False
                    path.pop()

        extend(u, 0, inner)
    found.sort(key=lambda witness: (len(witness.cycle), *sorted(witness.cycle), *witness.cycle))
    return tuple(found)


def _canonical(cycle: list[int]) -> tuple[int, ...]:
    """``cycle`` rotated to start at its smallest vertex, second vertex below the last."""
    i = cycle.index(min(cycle))
    turned = cycle[i:] + cycle[:i]
    if turned[1] > turned[-1]:
        turned[1:] = turned[:0:-1]
    return tuple(turned)


# The largest n for which the CLI's ``--exact-L`` and the bench suites compute
# the longest broken cycle.
DEFAULT_CYCLE_BUDGET = 9


def longest_broken_cycle_len(g: WeightedGraph, budget: int) -> int | None:
    """Exact length of the longest broken cycle; None when the graph is metric.

    Refuses to run on graphs with more than ``budget`` vertices because the
    number of broken cycles can grow exponentially.
    """
    if g.n > budget:
        raise EnumerationBudgetError(
            f"cycle enumeration needs n <= {budget}, got n = {g.n}")
    return max((len(witness.cycle) for witness in broken_cycles(g)), default=None)


def instance_stats(g: WeightedGraph, cycle_budget: int | None = None) -> InstanceStats:
    """Summary facts; the longest-cycle scan runs only within ``cycle_budget``."""
    computed = cycle_budget is not None and g.n <= cycle_budget
    return InstanceStats(
        is_metric=is_metric(g),
        broken_triangle_count=len(broken_triangles(g)),
        longest_broken_cycle=longest_broken_cycle_len(g, cycle_budget) if computed else None,
        cycle_length_computed=computed,
    )
