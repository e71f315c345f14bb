"""Fixed-parameter repair for chordal graphs, parameterized by solution size.

On a chordal graph every broken cycle forces a broken triangle, so the search
works entirely with triangles.  Two sets drive the recursion: the partial
support ``S`` and an ordered candidate pool ``P`` of edges that may still join
it.  Seeding puts every forced edge into ``S`` (an edge sitting in more than
``k`` broken triangles -- as a bottom edge in the increase-only case, in any
role in the general case -- is in every optimal support) and primes ``P`` from
the uncovered triangles plus per-seed candidate rules.  The recursion expands
``P`` once per support edge, branches over ``P`` in insertion order, and asks
the support Verifier exactly at depth ``k``.

Pool size stays within 5k^2 (increase) / 12k^2 (general).  Tied candidate
values at a selection boundary are all taken; if that ever pushed the pool past
its bound the surplus is clamped off and counted, so the bound is also an
enforced invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chordal import perfect_elimination_ordering
from .detect import broken_triangles, is_metric
from .exact import verify_support
from .graphs import (
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    edge_key,
)

POOL_BOUND_FACTOR = {OmegaClass.INCREASE_ONLY: 5, OmegaClass.GENERAL: 12}


@dataclass
class FptStats:
    nodes: int = 0
    leaves: int = 0
    max_pool: int = 0
    pool_clamp_events: int = 0


@dataclass(frozen=True)
class FptResult:
    support: frozenset | None
    delta: RepairDelta | None
    budget: int
    stats: FptStats = field(compare=False, default_factory=FptStats)

    @property
    def found(self) -> bool:
        return self.support is not None


def fpt_increase(g: WeightedGraph, k: int) -> FptResult:
    """Increase-only repair of support size at most ``k`` on a chordal graph."""
    return _fpt_solve(g, k, OmegaClass.INCREASE_ONLY)


def fpt_general(g: WeightedGraph, k: int) -> FptResult:
    """General repair of support size at most ``k`` on a chordal graph."""
    return _fpt_solve(g, k, OmegaClass.GENERAL)


def fpt_min_repair(g: WeightedGraph, omega: OmegaClass) -> FptResult:
    """Optimal repair by iterative deepening over the budget ``k``."""
    if omega not in POOL_BOUND_FACTOR:
        raise PreconditionError("fixed-parameter repair covers increase-only and general")
    for k in range(g.m + 1):
        result = _fpt_solve(g, k, omega)
        if result.found:
            return result
    raise AssertionError("full edge budget must admit a repair")


def _fpt_solve(g: WeightedGraph, k: int, omega: OmegaClass) -> FptResult:
    if k < 0:
        raise ValueError("budget k must be nonnegative")
    if perfect_elimination_ordering(g) is None:
        raise PreconditionError("fixed-parameter repair requires a chordal graph")
    stats = FptStats()
    if is_metric(g):
        # Any budget admits the empty repair on a metric graph.
        return FptResult(frozenset(), RepairDelta({}, omega), k, stats)

    triangles = broken_triangles(g)
    role_count: dict[tuple[int, int], int] = {}
    for t in triangles:
        counted = t.bottom_edges() if omega is OmegaClass.INCREASE_ONLY else t.edges()
        for e in counted:
            role_count[e] = role_count.get(e, 0) + 1
    seed = sorted(e for e, c in role_count.items() if c > k)
    if len(seed) > k:
        # Forced edges alone exceed the budget, so no size-k repair exists.
        return FptResult(None, None, k, stats)

    cap = POOL_BOUND_FACTOR[omega] * k * k
    state = _Search(g, omega, k, cap, stats)
    pool: list[tuple[int, int]] = []
    in_pool: set = set(seed)  # seeding never re-adds support edges
    if omega is OmegaClass.INCREASE_ONLY:
        for t in triangles:
            bottoms = t.bottom_edges()
            if not any(b in seed for b in bottoms):
                state.add_candidates(pool, in_pool, sorted(bottoms))
        intw = g.integer_form()[1]
        for (i, j) in seed:
            pairs = [(edge_key(i, l), edge_key(j, l)) for l in _select(g, i, j, k, largest=True)]
            state.add_candidates(pool, in_pool, [a if intw[a] >= intw[b] else b for a, b in pairs])
    else:
        for t in triangles:
            edges = t.edges()
            if not any(e in seed for e in edges):
                state.add_candidates(pool, in_pool, sorted(edges))
        for (i, j) in seed:
            for largest in (True, False):
                for l in _select(g, i, j, k, largest=largest):
                    state.add_candidates(pool, in_pool, [edge_key(i, l), edge_key(j, l)])

    found = state.cover(list(seed), frozenset(), pool, in_pool)
    if found is None:
        return FptResult(None, None, k, stats)
    support, delta = found
    return FptResult(support, delta, k, stats)


class _Search:
    def __init__(self, g: WeightedGraph, omega: OmegaClass, k: int, cap: int,
                 stats: FptStats):
        self.g = g
        self.omega = omega
        self.k = k
        self.cap = cap
        self.stats = stats

    def add_candidates(self, pool: list, in_pool: set, edges) -> None:
        for e in edges:
            if e in in_pool:
                continue
            if len(pool) >= self.cap:
                self.stats.pool_clamp_events += 1
                continue
            pool.append(e)
            in_pool.add(e)
        assert len(pool) <= self.cap
        self.stats.max_pool = max(self.stats.max_pool, len(pool))

    def cover(self, support: list, expanded: frozenset, pool: list, in_pool: set):
        self.stats.nodes += 1
        if len(support) == self.k:
            self.stats.leaves += 1
            outcome = verify_support(self.g, support, self.omega)
            if outcome.accepted:
                return frozenset(support), outcome.delta
            return None
        if len(support) > self.k:
            return None

        g, k = self.g, self.k
        pool = list(pool)
        in_pool = set(in_pool)
        for (i, j) in support:
            if (i, j) in expanded:
                continue
            for l in _select(g, i, j, k, largest=False):
                self.add_candidates(pool, in_pool, [edge_key(i, l), edge_key(j, l)])
            if self.omega is OmegaClass.GENERAL:
                for l in _select(g, i, j, k, largest=True):
                    self.add_candidates(pool, in_pool, [edge_key(i, l), edge_key(j, l)])
        expanded = frozenset(support)
        if self.omega is OmegaClass.GENERAL:
            self.add_candidates(pool, in_pool, _closing_edges(self.g, support))

        for idx, e in enumerate(pool):
            rest = pool[:idx] + pool[idx + 1:]
            # e stays in the dedupe set: it is in the support now and must not
            # re-enter any descendant pool.
            found = self.cover(support + [e], expanded, rest, in_pool)
            if found is not None:
                return found
        return None


def _select(g: WeightedGraph, i: int, j: int, k: int, largest: bool) -> list[int]:
    """Common neighbors of ``i`` and ``j`` ranked by triangle weight rules.

    ``largest=True`` ranks by |w(i,l) - w(j,l)| descending, ``largest=False``
    by w(i,l) + w(j,l) ascending.  Returns the top ``k`` neighbor ids, plus any
    further neighbors tied with the boundary value.  Scores are taken on the
    scaled integer weights, which keep the order and the ties of the weights.
    """
    intw = g.integer_form()[1]
    scored = []  # (rank key, l): ascending keys rank first
    for l in g.common_neighbors(i, j):
        wi, wj = intw[edge_key(i, l)], intw[edge_key(j, l)]
        scored.append((-abs(wi - wj) if largest else wi + wj, l))
    scored.sort()
    if len(scored) <= k:
        return [l for _, l in scored]
    if k == 0:
        return []
    boundary = scored[k - 1][0]
    return [l for key, l in scored if key <= boundary]


def _closing_edges(g: WeightedGraph, support: list) -> list[tuple[int, int]]:
    """Edges closing a triangle over two support edges that share a vertex."""
    out = []
    for a in range(len(support)):
        for b in range(a + 1, len(support)):
            shared = set(support[a]) & set(support[b])
            if len(shared) != 1:
                continue
            ends = (set(support[a]) | set(support[b])) - shared
            u, v = sorted(ends)
            if g.has_edge(u, v):
                out.append((u, v))
    return sorted(set(out))
