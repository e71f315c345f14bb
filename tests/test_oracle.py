"""Enumeration and lazy-covering oracles: agreement and guard rails."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_repair import (
    EnumerationBudgetError,
    InputFormatError,
    OmegaClass,
    PreconditionError,
    WeightedGraph,
    all_optimal_supports,
    apply_delta,
    brute_force_opt,
    is_metric,
    minimum_cycle_cover,
    verify_support,
)
from metric_repair import detect, exact
from metric_repair.gadgets import (
    completed_cycle,
    cycle_fig_one,
    dense_block_matrix,
    planted_chordal,
    sweep_worst_matrix,
)

from conftest import (
    lazy_cover_by_branch_and_bound,
    minimum_hitting_set_by_branch_and_bound,
    random_mixed_instance,
    verifier_subset_walk,
)


C5 = WeightedGraph(5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
METRIC = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def test_metric_graph_has_empty_optimum():
    for omega in OmegaClass:
        support, delta = brute_force_opt(METRIC, omega)
        assert support == frozenset()
        assert delta.norm0() == 0


def test_c5_increase_optimum_is_one_bottom_edge():
    support, delta = brute_force_opt(C5, OmegaClass.INCREASE_ONLY)
    assert len(support) == 1
    (edge,) = support
    assert edge != (0, 1)  # must be a bottom edge
    assert is_metric(apply_delta(C5, delta))


def test_enumeration_order_is_cardinality_then_lexicographic():
    support, _ = brute_force_opt(C5, OmegaClass.INCREASE_ONLY)
    assert support == frozenset({(0, 4)})  # first bottom edge in edge order
    general, _ = brute_force_opt(C5, OmegaClass.GENERAL)
    assert general == frozenset({(0, 1)})  # the top edge sorts first overall


def test_edge_limit_guard():
    big = WeightedGraph(8, ((u, v, 1) for u in range(8) for v in range(u + 1, 8)))
    with pytest.raises(EnumerationBudgetError):
        brute_force_opt(big, OmegaClass.GENERAL, edge_limit=20)
    brute_force_opt(big, OmegaClass.GENERAL, edge_limit=28)


def test_edge_limit_env_var(monkeypatch):
    big = WeightedGraph(8, ((u, v, 1) for u in range(8) for v in range(u + 1, 8)))
    monkeypatch.setenv("METRIC_REPAIR_ORACLE_EDGE_LIMIT", "10")
    with pytest.raises(EnumerationBudgetError):
        brute_force_opt(big, OmegaClass.GENERAL)
    monkeypatch.setenv("METRIC_REPAIR_ORACLE_EDGE_LIMIT", "30")
    brute_force_opt(big, OmegaClass.GENERAL)


def test_edge_limit_env_var_must_be_an_integer(monkeypatch, tmp_path, capsys):
    # A bad value is an input error (CLI exit 2), not a crash with exit 1;
    # an explicit argument still wins over the environment.
    from metric_repair.cli import main

    big = WeightedGraph(8, ((u, v, 1) for u in range(8) for v in range(u + 1, 8)))
    monkeypatch.setenv("METRIC_REPAIR_ORACLE_EDGE_LIMIT", "abc")
    with pytest.raises(InputFormatError):
        brute_force_opt(big, OmegaClass.GENERAL)
    brute_force_opt(big, OmegaClass.GENERAL, edge_limit=28)
    inp = tmp_path / "t.txt"
    inp.write_text("0 1 5\n1 2 1\n0 2 1\n", encoding="utf-8")
    assert main(["repair", str(inp), "--omega", "increase", "--algo", "oracle"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "METRIC_REPAIR_ORACLE_EDGE_LIMIT" in err


@st.composite
def small_graphs(draw):
    """n <= m <= 12 on 3-7 vertices, weights 0-6: zero weights and ties throughout."""
    n = draw(st.integers(min_value=3, max_value=7))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                          min_size=n, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(min_value=0, max_value=6),
                            min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


@given(small_graphs(), st.sampled_from([OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL]))
@settings(max_examples=150, deadline=None)
@example(C5, OmegaClass.INCREASE_ONLY)
@example(C5, OmegaClass.GENERAL)
def test_learning_walk_equals_plain_verifier_walk(g, omega):
    # Learned masks skip only supports the Verifier rejects, so the first
    # accepted support, its repair and the set of all optima are the plain
    # walk's.
    support, delta = verifier_subset_walk(g, omega)
    assert brute_force_opt(g, omega) == (support, delta)
    opt, supports = all_optimal_supports(g, omega)
    assert opt == len(support)
    assert supports == tuple(frozenset(c) for c in combinations(g.edges, opt)
                             if verify_support(g, c, omega).accepted)


def test_branch_and_bound_matches_enumeration():
    for seed in range(20):
        g = random_mixed_instance(seed=700 + seed, max_n=6, max_m=10)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            enum = brute_force_opt(g, omega)
            size, support = minimum_cycle_cover(g, omega)
            assert size == len(enum[0])
            assert verify_support(g, support, omega).accepted


def test_exact_oracles_never_enumerate_cycles(monkeypatch):
    # Both learn broken cycles from Verifier rejections instead.
    def refuse(*args, **kwargs):
        raise AssertionError("broken_cycles was called")

    for module in (detect, exact):  # exact binds the name at import
        monkeypatch.setattr(module, "broken_cycles", refuse)
    with pytest.raises(AssertionError):
        detect.longest_broken_cycle_len(C5, budget=6)  # the hook is live
    with pytest.raises(AssertionError):
        exact.covers_broken_cycles(C5, [], OmegaClass.GENERAL, budget=6)
    assert minimum_cycle_cover(completed_cycle(8), OmegaClass.INCREASE_ONLY)[0] == 6
    graphs = [C5, cycle_fig_one(8), completed_cycle(6), sweep_worst_matrix(6).to_graph()]
    graphs += [random_mixed_instance(seed=1200 + seed, max_n=7, max_m=12) for seed in range(10)]
    for g in graphs:
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            size, support = minimum_cycle_cover(g, omega)
            assert len(brute_force_opt(g, omega)[0]) == size
            opt, supports = all_optimal_supports(g, omega)
            assert opt == size and support in supports
        brute_force_opt(g, OmegaClass.DECREASE_ONLY)


def test_cover_scales_past_the_enumeration_limit():
    # Past 24 edges the subset walk refuses; the lazy cover still finds the
    # known optima: the dense block's 21 zero-block pairs, and the 6 pairs
    # that enumerating every cycle of the n=8 sweep gadget gives.
    for d, size in ((dense_block_matrix(16, 7), 21), (sweep_worst_matrix(8), 6)):
        g = d.to_graph()
        assert g.m > 24
        got, support = minimum_cycle_cover(g, OmegaClass.INCREASE_ONLY)
        assert got == len(support) == size
        assert verify_support(g, support, OmegaClass.INCREASE_ONLY).accepted


@st.composite
def covering_requirements(draw):
    """``(m, masks)``: nonempty masks over at most 9 edge bits, with repeats
    and masks nested in others."""
    m = draw(st.integers(min_value=1, max_value=9))
    mask = st.integers(min_value=1, max_value=(1 << m) - 1)
    masks = draw(st.lists(mask, min_size=1, max_size=10))
    extra = draw(st.lists(st.tuples(st.sampled_from(masks), mask), max_size=4))
    masks += [outer & inner or outer for outer, inner in extra]  # nested in outer
    masks += draw(st.lists(st.sampled_from(masks), max_size=3))  # repeats
    return m, draw(st.permutations(masks))


@given(covering_requirements())
@example((3, [0b011, 0b110, 0b011, 0b010]))
@example((4, [0b1111, 0b0011, 0b0001, 0b1100, 0b1000]))
@settings(max_examples=300, deadline=None)
def test_deepening_keeps_the_branch_and_bound_cover(instance):
    # Each round of minimum_cycle_cover takes the first cover hits_within
    # reaches at the least size, over the masks sorted by size: the cover
    # the branch and bound kept, ties between equal covers included.
    m, masks = instance
    ordered = sorted(masks, key=lambda mask: (bin(mask).count("1"), mask))
    size = 0
    while (chosen := detect.hits_within(ordered, 0, size)) is None:
        size += 1
    assert (size, chosen) == minimum_hitting_set_by_branch_and_bound(masks, m)
    assert bin(chosen).count("1") == size


def test_lazy_cover_keeps_the_branch_and_bound_support():
    graphs = [C5, cycle_fig_one(8), completed_cycle(6), completed_cycle(8),
              sweep_worst_matrix(6).to_graph(), sweep_worst_matrix(8).to_graph(),
              dense_block_matrix(16, 7).to_graph()]
    graphs += [random_mixed_instance(seed=1200 + seed, max_n=7, max_m=12) for seed in range(10)]
    graphs += [planted_chordal(60, 10, seed=seed).instance for seed in (3, 5)]
    for g in graphs:
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            assert minimum_cycle_cover(g, omega) == lazy_cover_by_branch_and_bound(g, omega)


def test_cover_rejects_decrease_mode_as_a_precondition():
    with pytest.raises(PreconditionError):
        minimum_cycle_cover(C5, OmegaClass.DECREASE_ONLY)


def test_increase_needs_at_least_general_sized_support():
    for seed in range(25):
        g = random_mixed_instance(seed=900 + seed, max_n=6, max_m=10)
        inc = brute_force_opt(g, OmegaClass.INCREASE_ONLY)
        gen = brute_force_opt(g, OmegaClass.GENERAL)
        assert len(inc[0]) >= len(gen[0])


def test_decrease_oracle_feasibility_is_sound():
    for seed in range(15):
        g = random_mixed_instance(seed=1000 + seed, max_n=6, max_m=10)
        found = brute_force_opt(g, OmegaClass.DECREASE_ONLY)
        assert found is not None
        support, delta = found
        assert delta.support <= support
        assert is_metric(apply_delta(g, delta))


def test_optima_are_invariant_under_weight_scaling():
    # Dividing every weight by a constant preserves broken cycles exactly, so
    # optimal sizes must not move; exercises the rational arithmetic paths.
    from fractions import Fraction

    for seed in range(15):
        base = random_mixed_instance(seed=1100 + seed, max_n=6, max_m=10)
        den = (seed % 6) + 2
        scaled = WeightedGraph(base.n, ((u, v, Fraction(int(base.weight(u, v)), den))
                                        for (u, v) in base.edges))
        for omega in OmegaClass:
            a = brute_force_opt(base, omega)
            b = brute_force_opt(scaled, omega)
            assert len(a[0]) == len(b[0]), (seed, omega)


def test_all_optimal_supports_are_exactly_the_accepted_minimums():
    g = C5
    opt, supports = all_optimal_supports(g, OmegaClass.INCREASE_ONLY)
    assert opt == 1
    # every bottom edge alone is optimal, the top edge is not
    assert set(supports) == {frozenset({e}) for e in g.edges if e != (0, 1)}
