"""Fixed-parameter solvers against the enumeration oracle on chordal graphs."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_repair import (
    OmegaClass,
    PreconditionError,
    WeightedGraph,
    all_optimal_supports,
    apply_delta,
    brute_force_opt,
    fpt_general,
    fpt_increase,
    fpt_min_repair,
    is_metric,
    verify_support,
)
from metric_repair import fpt
from metric_repair.detect import broken_triangles, cover_masks
from metric_repair.fpt import POOL_BOUND_FACTOR, _select
from metric_repair.gadgets import (
    base_graph_edges,
    planted_chordal,
    random_chordal_edges,
    suspension,
)
from metric_repair.oracle import minimum_cycle_cover

from conftest import packing_exceeds

METRIC_TRIANGLE = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])

# K4 with exactly one broken triangle (top edge (0,1))
ONE_TRIANGLE = WeightedGraph(
    4, [(0, 1, 3), (0, 2, 1), (1, 2, 1), (0, 3, 2), (1, 3, 2), (2, 3, 1)])

# K4 hub: the weight-5 edge tops every broken cycle; one decrease fixes all,
# but increase-only repairs need two bottom edges.
HUB = WeightedGraph(4, [(0, 1, 5), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1),
                        (2, 3, 1)])


def test_metric_graph_found_at_zero():
    for solver in (fpt_increase, fpt_general):
        result = solver(METRIC_TRIANGLE, 0)
        assert result.found
        assert result.support == frozenset()
        assert result.delta.norm0() == 0
    auto = fpt_min_repair(METRIC_TRIANGLE, OmegaClass.INCREASE_ONLY)
    assert auto.budget == 0 and auto.support == frozenset()


def test_single_triangle_instance_matches_oracle():
    result = fpt_increase(ONE_TRIANGLE, 1)
    assert result.found and len(result.support) == 1
    oracle = brute_force_opt(ONE_TRIANGLE, OmegaClass.INCREASE_ONLY)
    assert len(oracle[0]) == 1
    assert is_metric(apply_delta(ONE_TRIANGLE, result.delta))


def test_budget_too_small_reports_not_found():
    assert not fpt_increase(HUB, 1).found  # increase optimum is 2
    assert fpt_general(HUB, 1).found       # one decrease suffices


def test_general_beats_increase_on_hub_instance():
    inc = fpt_min_repair(HUB, OmegaClass.INCREASE_ONLY)
    gen = fpt_min_repair(HUB, OmegaClass.GENERAL)
    assert len(inc.support) == 2
    assert len(gen.support) == 1
    assert len(brute_force_opt(HUB, OmegaClass.INCREASE_ONLY)[0]) == 2
    assert len(brute_force_opt(HUB, OmegaClass.GENERAL)[0]) == 1


def test_non_chordal_input_is_rejected():
    c5 = WeightedGraph(5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    with pytest.raises(PreconditionError):
        fpt_increase(c5, 2)
    with pytest.raises(PreconditionError):
        fpt_min_repair(c5, OmegaClass.GENERAL)


def test_negative_budget_and_decrease_mode_are_errors():
    with pytest.raises(ValueError):
        fpt_increase(METRIC_TRIANGLE, -1)
    with pytest.raises(PreconditionError):
        fpt_min_repair(METRIC_TRIANGLE, OmegaClass.DECREASE_ONLY)


def test_planted_instances_match_oracle():
    for seed in range(25):
        inst = planted_chordal(n=8, k=2, seed=seed)
        g = inst.instance
        for omega, solver in ((OmegaClass.INCREASE_ONLY, fpt_increase),
                              (OmegaClass.GENERAL, fpt_general)):
            auto = fpt_min_repair(g, omega)
            oracle = brute_force_opt(g, omega)
            assert len(auto.support) == len(oracle[0]), (seed, omega)
            assert verify_support(g, auto.support, omega).accepted or \
                auto.support == frozenset()
            assert is_metric(apply_delta(g, auto.delta))
            bound = POOL_BOUND_FACTOR[omega] * auto.budget ** 2
            assert auto.stats.max_pool <= bound
            assert auto.stats.pool_clamp_events == 0
            # Found at k implies optimum <= k; smaller budgets must fail.
            fixed = solver(g, auto.budget)
            assert fixed.found
            if auto.budget > 0:
                assert not solver(g, auto.budget - 1).found


def test_forced_seed_edges_lie_in_every_optimal_support():
    # An edge that is a bottom of more than k broken triangles must appear in
    # every optimal support; validated by enumerating all optima.
    checked = 0
    for seed in range(40):
        inst = planted_chordal(n=7, k=2, seed=1000 + seed)
        g = inst.instance
        opt, supports = all_optimal_supports(g, OmegaClass.INCREASE_ONLY)
        if opt == 0:
            continue
        counts: dict = {}
        for t in broken_triangles(g):
            for e in t.bottom_edges():
                counts[e] = counts.get(e, 0) + 1
        forced = {e for e, c in counts.items() if c > opt}
        for e in forced:
            assert all(e in s for s in supports)
            checked += 1
    assert checked >= 1


def test_forced_seed_edge_book_graph():
    # Four triangles share the bottom edge (0,1), so it is forced into the
    # seed for k=1 and alone repairs everything.
    edges = [(0, 1, 1)]
    for x in range(2, 6):
        edges += [(0, x, 7), (1, x, 1)]
    book = WeightedGraph(6, edges)
    result = fpt_increase(book, 1)
    assert result.found and result.support == frozenset({(0, 1)})
    assert dict(result.delta.items()) == {(0, 1): 6}
    assert len(brute_force_opt(book, OmegaClass.INCREASE_ONLY)[0]) == 1


def test_results_are_deterministic():
    inst = planted_chordal(n=9, k=3, seed=5)
    g = inst.instance
    first = fpt_min_repair(g, OmegaClass.INCREASE_ONLY)
    second = fpt_min_repair(g, OmegaClass.INCREASE_ONLY)
    assert first.support == second.support
    assert first.delta == second.delta


def _select_reference(g, i, j, k, largest):
    """``_select`` spelled out on Fraction weights."""
    scored = []
    for l in g.common_neighbors(i, j):
        wi, wj = g.weight(i, l), g.weight(j, l)
        scored.append((abs(wi - wj) if largest else wi + wj, l))
    scored.sort(key=lambda kv: ((-kv[0] if largest else kv[0]), kv[1]))
    if len(scored) <= k:
        return [l for _, l in scored]
    if k == 0:
        return []
    boundary = scored[k - 1][0]
    return [l for key, l in scored if (key >= boundary if largest else key <= boundary)]


@pytest.mark.parametrize("seed", range(6))
def test_select_on_scaled_integers_matches_fraction_reference(seed):
    # Few distinct mixed-denominator values, so sums and differences tie often.
    values = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(1, 3),
              Fraction(2, 3), Fraction(5, 6), Fraction(7, 4), Fraction(2)]
    rng = random.Random(seed)
    n = 7
    pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.85]
    g = WeightedGraph(n, [(u, v, rng.choice(values)) for u, v in pairs])
    assert g.integer_form()[0] == 12
    ties = 0
    for (i, j) in g.edges:
        for k in range(5):
            for largest in (True, False):
                got = _select(g, i, j, k, largest)
                assert got == _select_reference(g, i, j, k, largest)
                ties += len(got) > k > 0
    assert ties  # boundary ties were exercised


BOTH_MODES = (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL)


@pytest.mark.parametrize("omega", BOTH_MODES)
def test_packing_bound_leaves_one_verifier_call_on_suspension(omega):
    # The suspension of the 8-path packs 4 disjoint triangle masks, so every
    # budget below 4 is cut at its root, and at k = 4 only the one support
    # meeting every mask reaches the Verifier (785 / 3,490 calls unpruned).
    g = suspension(8, base_graph_edges("path", 8))
    result = fpt_min_repair(g, omega)
    assert result.budget == 4 and len(result.support) == 4
    assert result.stats.leaves == 1
    assert result.stats.pruned > 0


@pytest.mark.parametrize("omega", BOTH_MODES)
@pytest.mark.parametrize("n, k, seed", [(40, 4, 4), (40, 4, 13), (30, 5, 4), (30, 5, 5)])
def test_deep_planted_draws_reach_the_triangle_cover_optimum(n, k, seed, omega):
    # Without the cut each of these makes 3,000 to 35,000 Verifier calls.
    g = planted_chordal(n, k, seed=seed).instance
    result = fpt_min_repair(g, omega)
    assert len(result.support) == minimum_cycle_cover(g, omega)[0]
    assert verify_support(g, result.support, omega).accepted
    assert result.stats.leaves <= 10


@pytest.mark.parametrize("omega", BOTH_MODES)
def test_optimum_equals_the_exact_cover_past_the_enumeration_limit(omega):
    # The lazy exact cover reaches chordal draws with 36 to 141 edges, far
    # past the subset walk's 24; sizes 1 to 7 occur across the sweep.
    sizes = set()
    for n in (20, 30, 40, 50, 60):
        for seed in range(4):
            g = planted_chordal(n, n // 10 + 2, seed=100 + seed).instance
            result = fpt_min_repair(g, omega)
            size, support = minimum_cycle_cover(g, omega)
            assert len(result.support) == size, (n, seed)
            assert verify_support(g, support, omega).accepted
            sizes.add(size)
    assert len(sizes) >= 5


@given(seed=st.integers(min_value=0, max_value=2 ** 20), n=st.integers(min_value=4, max_value=9),
       increase=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_support_missing_a_triangle_mask_is_rejected(seed, n, increase, data):
    # The lemma the cut rests on: a support that misses the
    # admissible edges of some broken triangle admits no repair.
    omega = OmegaClass.INCREASE_ONLY if increase else OmegaClass.GENERAL
    g = planted_chordal(n, 3, seed=seed).instance
    masks = cover_masks(g, broken_triangles(g), omega)
    if not masks:
        return
    missed = data.draw(st.sampled_from(masks))
    allowed = [e for i, e in enumerate(g.edges) if not missed >> i & 1]
    support = data.draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    assert not verify_support(g, support, omega).accepted


@pytest.mark.parametrize("omega", BOTH_MODES)
def test_min_repair_stats_add_up_every_round(monkeypatch, omega):
    # Wrappers count the Verifier calls and search nodes of the whole call;
    # the rounds below the optimum 4 enter nodes that the bound cuts.
    counts = {"verify": 0, "nodes": 0}
    real_verify, real_cover = fpt.verify_support, fpt._Search.cover

    def verify(*args):
        counts["verify"] += 1
        return real_verify(*args)

    def cover(self, *args):
        counts["nodes"] += 1
        return real_cover(self, *args)

    monkeypatch.setattr(fpt, "verify_support", verify)
    monkeypatch.setattr(fpt._Search, "cover", cover)
    result = fpt_min_repair(suspension(8, base_graph_edges("path", 8)), omega)
    assert result.budget == 4
    assert result.stats.leaves == counts["verify"] == 1
    assert result.stats.nodes == counts["nodes"]


# One row per (graph, omega): support and delta {edge: value}, budget, and
# FptStats(nodes, leaves, pruned, max_pool, pool_clamp_events).  These pin the
# search order as well as the answer; a change that reorders the search or
# cuts more nodes must update them on purpose.  The planted60, planted100 and
# planted150 rows are deep draws (optima 7, 12 and 11) whose thousands of
# nodes show any change in branching or in the cut.
_SUSPENSION_SUPPORT = {(0, 8): 2, (2, 8): 2, (4, 8): 2, (6, 8): 2}
_PC30_SUPPORT = {(1, 3): 9, (1, 23): 10, (2, 13): 7, (3, 23): 8}
_PC40_SUPPORT = {(5, 25): 9, (6, 7): 9, (11, 16): 8, (11, 29): 7}
_PC60_3_SHARED = {(0, 4): 4, (0, 24): 1, (3, 38): 5, (4, 14): 3, (4, 43): 4, (20, 52): 9}
_PC60_5_SUPPORT = {(0, 7): 7, (0, 16): 5, (0, 23): 5, (0, 24): 6, (2, 3): 3, (4, 29): 6,
                   (12, 48): 5}
_PC150_SUPPORT = {(0, 1): 1, (0, 2): 6, (0, 5): 3, (1, 10): 2, (1, 12): 6, (1, 29): 3,
                  (3, 73): 7, (4, 7): 5, (6, 9): 3, (8, 10): 9, (9, 34): 3}
_PC100_SUPPORT = {(0, 1): 7, (0, 3): 3, (1, 7): 1, (1, 29): 5, (1, 44): 8, (1, 87): 2,
                  (2, 54): 7, (3, 12): 7, (3, 65): 2, (4, 19): 4, (4, 53): 4, (21, 53): 5}
PINNED_SEARCHES = [
    ("suspension8", OmegaClass.INCREASE_ONLY, _SUSPENSION_SUPPORT, 4, (10, 1, 5, 8, 0)),
    ("suspension8", OmegaClass.GENERAL, {(0, 1): -1, (2, 8): 2, (4, 8): 2, (6, 8): 2}, 4,
     (16, 1, 11, 15, 0)),
    ("planted30-5-5", OmegaClass.INCREASE_ONLY, _PC30_SUPPORT, 4, (10, 1, 5, 11, 0)),
    ("planted30-5-5", OmegaClass.GENERAL, _PC30_SUPPORT, 4, (37, 2, 28, 16, 0)),
    ("planted40-4-4", OmegaClass.INCREASE_ONLY, _PC40_SUPPORT, 4, (12, 1, 7, 14, 0)),
    ("planted40-4-4", OmegaClass.GENERAL, _PC40_SUPPORT, 4, (16, 1, 11, 21, 0)),
    ("planted60-10-3", OmegaClass.INCREASE_ONLY, {**_PC60_3_SHARED, (8, 27): 5}, 7,
     (3330, 17, 3160, 29, 0)),
    ("planted60-10-3", OmegaClass.GENERAL, {**_PC60_3_SHARED, (8, 15): -1}, 7,
     (6704, 82, 6184, 30, 0)),
    ("planted60-10-5", OmegaClass.INCREASE_ONLY, _PC60_5_SUPPORT, 7, (3163, 4, 3051, 40, 0)),
    ("planted60-10-5", OmegaClass.GENERAL, _PC60_5_SUPPORT, 7, (6052, 5, 5908, 60, 0)),
    ("planted150-20-0", OmegaClass.INCREASE_ONLY, _PC150_SUPPORT, 11, (431, 3, 407, 48, 0)),
    ("planted150-20-0", OmegaClass.GENERAL, _PC150_SUPPORT, 11, (53976, 40, 51836, 60, 0)),
    ("planted100-15-0", OmegaClass.INCREASE_ONLY, _PC100_SUPPORT, 12, (34543, 33, 33558, 47, 0)),
]


@pytest.mark.parametrize("name, omega, delta, budget, stats", PINNED_SEARCHES)
def test_min_repair_search_is_pinned(name, omega, delta, budget, stats):
    g = {"suspension8": lambda: suspension(8, base_graph_edges("path", 8)),
         "planted30-5-5": lambda: planted_chordal(30, 5, seed=5).instance,
         "planted40-4-4": lambda: planted_chordal(40, 4, seed=4).instance,
         "planted60-10-3": lambda: planted_chordal(60, 10, seed=3).instance,
         "planted60-10-5": lambda: planted_chordal(60, 10, seed=5).instance,
         "planted150-20-0": lambda: planted_chordal(150, 20, seed=0).instance,
         "planted100-15-0": lambda: planted_chordal(100, 15, seed=0).instance}[name]()
    result = fpt_min_repair(g, omega)
    assert result.support == frozenset(delta)
    assert result.delta.entries == delta
    assert (result.budget, result.stats) == (budget, stats)
    assert result == (frozenset(delta), result.delta, budget, stats)


def _cover_over_orderings(self, support, hit, fresh, pool, in_pool):
    """``_Search.cover`` as it was when each child got the pool less its own edge,
    and a node was cut by the greedy packing bound alone.

    That search reaches one support set once for every order in which it can
    be built; the search that branches over sets must give its answers.
    """
    self.nodes += 1
    if packing_exceeds(self.masks, hit, self.k - len(support)):
        self.pruned += 1
        return None
    if len(support) == self.k:
        self.leaves += 1
        outcome = fpt.verify_support(self.g, support, self.omega)
        return (frozenset(support), outcome.delta) if outcome.accepted else None

    g, k, general = self.g, self.k, self.omega is OmegaClass.GENERAL
    pool = list(pool)
    in_pool = set(in_pool)
    for (i, j) in support[fresh:]:
        for largest in (False, True) if general else (False,):
            for pair in fpt._pair_edges(g, i, j, k, largest):
                self.add_candidates(pool, in_pool, pair)
    if general:
        self.add_candidates(pool, in_pool, fpt._closing_edges(g, support))

    for idx, e in enumerate(pool):
        rest = pool[:idx] + pool[idx + 1:]
        found = self.cover(support + [e], hit | self.bit[e], len(support), rest, in_pool)
        if found is not None:
            return found
    return None


@given(n=st.integers(min_value=4, max_value=20), k=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 20), increase=st.booleans())
@settings(max_examples=150, deadline=None)
def test_search_over_sets_gives_the_search_over_orderings_answer(n, k, seed, increase):
    omega = OmegaClass.INCREASE_ONLY if increase else OmegaClass.GENERAL
    g = planted_chordal(n, k, seed=seed).instance
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpt._Search, "cover", _cover_over_orderings)
        reference = fpt_min_repair(g, omega)
    result = fpt_min_repair(g, omega)
    assert result[:3] == reference[:3]
    assert result.stats.nodes <= reference.stats.nodes


def tie_heavy_draw(seed):
    """A chordal or complete graph on 4 to 9 vertices, weights from {0, 1, 2,
    3, 5}: ties fill the candidate pools up to their bound."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    edges = random_chordal_edges(n, rng) if rng.random() < 0.5 else combinations(range(n), 2)
    return WeightedGraph(n, [(u, v, rng.choice((0, 1, 2, 3, 5))) for u, v in edges])


CLAMPED_DRAWS = {
    "planted8-3-55": lambda: planted_chordal(8, 3, seed=55).instance,  # one clamp, at k=1
    **{f"tie-heavy{seed}": (lambda seed=seed: tie_heavy_draw(seed))
       for seed in (56, 69, 84, 102, 135, 136, 151, 168, 217, 243, 313, 365)},
}


@pytest.mark.parametrize("name", CLAMPED_DRAWS)
def test_pool_clamps_keep_the_search_over_orderings_answer(name):
    # Increase-mode draws whose pools reach their 5k^2 bound, so the surplus
    # is clamped off.  The search still ends at the exact optimum, with the
    # answer of the search over orderings.
    g, omega = CLAMPED_DRAWS[name](), OmegaClass.INCREASE_ONLY
    result = fpt_min_repair(g, omega)
    assert result.stats.pool_clamp_events > 0
    assert result.budget == len(result.support) == minimum_cycle_cover(g, omega)[0]
    assert verify_support(g, result.support, omega).accepted
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fpt._Search, "cover", _cover_over_orderings)
        assert fpt_min_repair(g, omega)[:3] == result[:3]


NO_REPEAT_GRAPHS = {
    "suspension8": lambda: suspension(8, base_graph_edges("path", 8)),
    "suspension6-complete": lambda: suspension(6, base_graph_edges("complete", 6)),
    **{f"planted{n}-{k}-{seed}": (lambda n=n, k=k, seed=seed: planted_chordal(n, k, seed).instance)
       for n, k, seed in [(20, 3, 10), (25, 4, 5), (30, 5, 5), (30, 5, 11), (40, 4, 2),
                          (60, 10, 3)]},
}


@pytest.mark.parametrize("omega", BOTH_MODES)
@pytest.mark.parametrize("name", NO_REPEAT_GRAPHS)
def test_each_support_set_is_entered_once_per_round(monkeypatch, name, omega):
    # Two branches part at a node where each takes a different pool edge; the
    # later one gives up the earlier edge for its whole subtree, so their sets
    # differ.  That holds in rounds with a pool clamp too (the planted draws
    # (20, 3, 10), (25, 4, 5), (30, 5, 11) and (40, 4, 2) clamp in increase mode).
    entered = []
    real_cover = fpt._Search.cover

    def cover(self, support, *args):
        entered.append((self.k, frozenset(support)))
        return real_cover(self, support, *args)

    monkeypatch.setattr(fpt._Search, "cover", cover)
    result = fpt_min_repair(NO_REPEAT_GRAPHS[name](), omega)
    assert len(entered) == result.stats.nodes
    assert len(set(entered)) == len(entered)
