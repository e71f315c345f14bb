"""Fixed-parameter repair for chordal graphs, parameterized by solution size.

On a chordal graph every broken cycle forces a broken triangle (a chord splits
a broken cycle into two shorter cycles, and one of them stays broken), so the
search works entirely with triangles, and a chordal graph without a broken
triangle is metric.  Two sets drive the recursion: the partial support ``S``
and an ordered candidate pool ``P`` of edges that may still join it.  Seeding
puts every forced edge into ``S`` (an edge sitting in more than ``k`` broken
triangles -- as a bottom edge in the increase-only case, in any role in the
general case -- is in every optimal support) and primes ``P`` from the
uncovered triangles plus per-seed candidate rules.  The recursion expands
``P`` once per support edge and asks the support Verifier exactly at depth
``k``.  It branches over support sets, not orderings: the child that takes a
pool edge gets only the edges after it, and the earlier siblings stay in the
dedupe set, so no descendant adds them back and each set is reached once.

The search that gave each child ``P`` less its own edge has the same output.
Where no pool clamp fires below the root, its pool at a node is, as a set,
``in_pool \\ S``, and ``in_pool`` only grows with ``S``; so the leaves below
``S``, the cut and every Verifier outcome depend only on ``(k, S)``.
It first reaches a set ``T`` by taking, at each node, the earliest pool edge
in ``T``, never an earlier sibling, so this search keeps that path: it visits
the same leaves in the same order without the repeats, and a repeat of a
rejected set is rejected again.  The first accepted support, its delta and
budget stay; ``nodes``, ``leaves``, ``pruned`` and ``max_pool`` can only fall.
Where a clamp fires, pools here are shorter and clamp less often, and equal
outputs are checked by test, not proven: on draws that clamp, with the exact
optimum, in ``test_pool_clamps_keep_the_search_over_orderings_answer``.

Every node first asks whether any leaf below it can be accepted.  Each broken
triangle has a mask of the edges a repair can mend it on
(``detect.cover_masks``): its bottom edges in the increase-only case, since
raising the top edge only widens the gap, and all three edges in the general
case.  A support that misses a mask admits no repair, so the Verifier rejects
it.  The node is cut when no ``k - |S|`` more edges meet every mask that ``S``
misses (``detect.hits_within``, the search the exact oracle deepens over):
every leaf below adds at most that many, so none of them can be accepted.  At a
leaf the room is zero, so the Verifier runs only on supports that meet every
mask.  Only subtrees without an accepted leaf are cut, and the leaves that
stay are visited in the same order: each round accepts exactly when it would
without the cut, so the budget (the first round that accepts), the first
accepted support and its delta stay, and only the counters fall.  The cut
first packs missed masks that share no edge, the packing lower bound of
bounded search trees, then branches on the edges of the first missed mask.  A
triangle mask has at most 3 edges, or 2 in increase mode, so one cut's search
has at most ``3 ** (k - |S|)`` leaves, or ``2 ** (k - |S|)`` (Cygan et al.,
*Parameterized Algorithms*, 2015, ch. 3).

One ``_Search`` holds a public call's work: the chordality check, the
triangle masks, each edge's role count and the five search counters.
``fpt_min_repair`` runs every deepening round on it, so its counters add up
the rounds, and each result carries a snapshot of them.

Pool size stays within 5k^2 (increase) / 12k^2 (general).  Tied candidate
values at a selection boundary are all taken; if that ever pushed the pool past
its bound the surplus is clamped off and counted, so the bound is also an
enforced invariant.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .chordal import perfect_elimination_ordering
from .detect import broken_triangles, cover_masks, edge_bits, hits_within, mask_edges
from .exact import verify_support
from .graphs import OmegaClass, PreconditionError, RepairDelta, WeightedGraph, edge_key

POOL_BOUND_FACTOR = {OmegaClass.INCREASE_ONLY: 5, OmegaClass.GENERAL: 12}


class FptStats(NamedTuple):
    """Search counts of one public call.

    ``nodes`` counts every node entered, ``pruned`` those cut because no
    ``k - |S|`` more edges meet every triangle mask that ``S`` misses, and
    ``leaves`` the Verifier calls.  ``fpt_min_repair`` adds up every
    deepening round; ``fpt_increase`` and ``fpt_general`` search one budget.
    """

    nodes: int = 0
    leaves: int = 0
    pruned: int = 0
    max_pool: int = 0
    pool_clamp_events: int = 0


class FptResult(NamedTuple):
    support: frozenset | None
    delta: RepairDelta | None
    budget: int
    stats: FptStats = FptStats()

    @property
    def found(self) -> bool:
        return self.support is not None


def fpt_increase(g: WeightedGraph, k: int) -> FptResult:
    """Increase-only repair of support size at most ``k`` on a chordal graph."""
    return _fpt_at(g, k, OmegaClass.INCREASE_ONLY)


def fpt_general(g: WeightedGraph, k: int) -> FptResult:
    """General repair of support size at most ``k`` on a chordal graph."""
    return _fpt_at(g, k, OmegaClass.GENERAL)


def fpt_min_repair(g: WeightedGraph, omega: OmegaClass) -> FptResult:
    """Optimal repair by iterative deepening over the budget ``k``.

    The result's ``stats`` add up the search over every round it took.
    """
    if omega not in POOL_BOUND_FACTOR:
        raise PreconditionError("fixed-parameter repair covers increase-only and general")
    search = _Search(g, omega)
    for k in range(g.m + 1):
        result = search.solve(k)
        if result.found:
            return result
    raise AssertionError("full edge budget must admit a repair")


def _fpt_at(g: WeightedGraph, k: int, omega: OmegaClass) -> FptResult:
    if k < 0:
        raise ValueError("budget k must be nonnegative")
    return _Search(g, omega).solve(k)


class _Search:
    """One public call: triangle masks (``edge_bits`` layout), role counts, counters."""

    def __init__(self, g: WeightedGraph, omega: OmegaClass):
        if perfect_elimination_ordering(g) is None:
            raise PreconditionError("fixed-parameter repair requires a chordal graph")
        self.g = g
        self.omega = omega
        self.bit = edge_bits(g)
        self.masks = cover_masks(g, broken_triangles(g), omega)
        self.role_count: dict[tuple[int, int], int] = {}
        for mask in self.masks:
            for e in mask_edges(g, mask):
                self.role_count[e] = self.role_count.get(e, 0) + 1
        self.nodes = self.leaves = self.pruned = self.max_pool = self.pool_clamp_events = 0

    def solve(self, k: int) -> FptResult:
        """First accepted support of size at most ``k``, as the search orders them."""
        g, omega = self.g, self.omega
        if not self.masks:
            # A chordal graph without broken triangles is metric: any budget
            # admits the empty repair.
            return self._result(frozenset(), RepairDelta({}, omega), k)
        seed = sorted(e for e, c in self.role_count.items() if c > k)
        if len(seed) > k:
            # Forced edges alone exceed the budget, so no size-k repair exists.
            return self._result(None, None, k)

        self.k = k
        self.cap = POOL_BOUND_FACTOR[omega] * k * k
        pool: list[tuple[int, int]] = []
        in_pool = set(seed)  # seeding never re-adds support edges
        hit = sum(self.bit[e] for e in seed)
        for mask in self.masks:
            if not mask & hit:
                self.add_candidates(pool, in_pool, mask_edges(g, mask))
        if omega is OmegaClass.INCREASE_ONLY:
            intw = g.integer_form()[1]
            for (i, j) in seed:
                self.add_candidates(pool, in_pool, [
                    a if intw[a] >= intw[b] else b for a, b in _pair_edges(g, i, j, k, True)])
        else:
            for (i, j) in seed:
                for largest in (True, False):
                    for pair in _pair_edges(g, i, j, k, largest):
                        self.add_candidates(pool, in_pool, pair)

        support, delta = self.cover(seed, hit, 0, pool, in_pool) or (None, None)
        return self._result(support, delta, k)

    def _result(self, support, delta, k: int) -> FptResult:
        return FptResult(support, delta, k, FptStats(
            self.nodes, self.leaves, self.pruned, self.max_pool, self.pool_clamp_events))

    def add_candidates(self, pool: list, in_pool: set, edges) -> None:
        for e in edges:
            if e in in_pool:
                continue
            if len(pool) >= self.cap:
                self.pool_clamp_events += 1
                continue
            pool.append(e)
            in_pool.add(e)
        assert len(pool) <= self.cap
        self.max_pool = max(self.max_pool, len(pool))

    def cover(self, support: list, hit: int, fresh: int, pool: list, in_pool: set):
        """First accepted support below this node.

        ``hit`` is ``support`` as a mask.  The candidates of ``support[fresh:]``
        are not in ``pool`` yet: at the root that is every seed edge, below it
        the newest edge only.
        """
        self.nodes += 1
        if hits_within(self.masks, hit, self.k - len(support)) is None:
            self.pruned += 1
            return None
        if len(support) == self.k:
            self.leaves += 1
            outcome = verify_support(self.g, support, self.omega)
            return (frozenset(support), outcome.delta) if outcome.accepted else None

        g, k, general = self.g, self.k, self.omega is OmegaClass.GENERAL
        in_pool = set(in_pool)
        for (i, j) in support[fresh:]:
            for largest in (False, True) if general else (False,):
                for pair in _pair_edges(g, i, j, k, largest):
                    self.add_candidates(pool, in_pool, pair)
        if general:
            self.add_candidates(pool, in_pool, _closing_edges(g, support))

        for idx, e in enumerate(pool):
            # Only the edges after e: e and its earlier siblings stay in in_pool.
            found = self.cover(support + [e], hit | self.bit[e], len(support),
                               pool[idx + 1:], in_pool)
            if found is not None:
                return found
        return None


def _pair_edges(g: WeightedGraph, i: int, j: int, k: int, largest: bool):
    """The edges ``(i, l), (j, l)`` to each neighbor ``l`` that ``_select`` ranks."""
    for l in _select(g, i, j, k, largest):
        yield edge_key(i, l), edge_key(j, l)


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
    out = set()
    for a, b in combinations(support, 2):
        ends = set(a) ^ set(b)
        if len(ends) == 2:
            u, v = sorted(ends)
            if g.has_edge(u, v):
                out.add((u, v))
    return sorted(out)
