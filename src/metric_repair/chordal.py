"""Chordal graph recognition via maximum cardinality search."""

from __future__ import annotations

from heapq import heappop, heappush

from .graphs import WeightedGraph


def perfect_elimination_ordering(g: WeightedGraph) -> tuple[int, ...] | None:
    """A perfect elimination ordering of ``g``, or None if it is not chordal.

    Runs maximum cardinality search (ties broken toward smaller vertex ids) and
    validates the reversed visit order with the standard parent test: for each
    vertex, its later neighbors minus the earliest of them must all be adjacent
    to that earliest one.
    """
    n = g.n
    weight = [0] * n  # -1 once visited
    visit_order: list[int] = []
    heap = [(0, v) for v in range(n)]  # (-weight, id); stale entries are skipped
    while heap:
        negw, best = heappop(heap)
        if -negw == weight[best]:
            weight[best] = -1
            visit_order.append(best)
            for u in g.neighbors(best):
                if weight[u] >= 0:
                    weight[u] += 1
                    heappush(heap, (-weight[u], u))

    elimination = visit_order[::-1]
    position = {v: i for i, v in enumerate(elimination)}
    parent_sets: dict[int, set[int]] = {}  # built only for the parents used
    for v in elimination:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        if len(later) < 2:
            continue
        parent = min(later, key=position.__getitem__)
        if parent not in parent_sets:
            parent_sets[parent] = set(g.neighbors(parent))
        for u in later:
            if u != parent and u not in parent_sets[parent]:
                return None
    return tuple(elimination)


def is_chordal(g: WeightedGraph) -> bool:
    return perfect_elimination_ordering(g) is not None
