"""Data-model invariants: weights, graphs, deltas, matrices, witnesses."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_repair import (
    BrokenCycleWitness,
    DistanceMatrix,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    apply_delta,
    as_weight,
    edge_key,
)

from conftest import random_graph


def test_weights_are_exact_rationals():
    assert as_weight("0.1") == Fraction(1, 10)
    assert as_weight("3/7") == Fraction(3, 7)
    assert as_weight(4) == Fraction(4)
    with pytest.raises(TypeError):
        as_weight(0.1)
    with pytest.raises(ValueError):
        as_weight("-1")


def test_graph_rejects_self_loops_duplicates_and_range():
    with pytest.raises(ValueError):
        WeightedGraph(3, [(1, 1, 1)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(ValueError):
        WeightedGraph(3, [(0, 3, 1)])


def test_graph_edges_are_normalized_and_sorted():
    g = WeightedGraph(4, [(2, 0, 1), (3, 1, "0.5"), (1, 0, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.weight(3, 1) == Fraction(1, 2)
    assert g.neighbors(0) == (1, 2)
    assert g.common_neighbors(0, 3) == (1,)
    assert not g.is_complete()
    assert edge_key(5, 2) == (2, 5)


def test_zero_weight_edges_are_allowed():
    g = WeightedGraph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    assert g.max_weight() == 0


def test_delta_sign_classes():
    RepairDelta({(0, 1): -1}, OmegaClass.DECREASE_ONLY)
    RepairDelta({(0, 1): 1}, OmegaClass.INCREASE_ONLY)
    RepairDelta({(0, 1): -1, (1, 2): 2}, OmegaClass.GENERAL)
    with pytest.raises(ValueError):
        RepairDelta({(0, 1): 1}, OmegaClass.DECREASE_ONLY)
    with pytest.raises(ValueError):
        RepairDelta({(0, 1): -1}, OmegaClass.INCREASE_ONLY)


def test_delta_drops_zero_entries_and_sorts():
    d = RepairDelta({(2, 1): 3, (0, 1): 0}, OmegaClass.INCREASE_ONLY)
    assert d.norm0() == 1
    assert d.support == frozenset({(1, 2)})
    assert d.norm1() == 3


def test_apply_delta_examples():
    from metric_repair import is_metric

    c4 = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    same = apply_delta(c4, RepairDelta({}, OmegaClass.GENERAL))
    assert same == c4
    fixed = apply_delta(c4, RepairDelta({(0, 1): -2}, OmegaClass.DECREASE_ONLY))
    assert fixed.weight(0, 1) == 3
    assert is_metric(fixed)  # 3 = 1+1+1 sits exactly on the boundary


def test_apply_delta_errors():
    g = WeightedGraph(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        apply_delta(g, RepairDelta({(1, 2): 1}, OmegaClass.INCREASE_ONLY))
    with pytest.raises(ValueError):
        apply_delta(g, RepairDelta({(0, 1): -3}, OmegaClass.DECREASE_ONLY))


def test_apply_delta_inverts_and_composes():
    rng = random.Random(7)
    g = random_graph(rng, 6, 9, weights=(1, 9))
    delta = RepairDelta({e: rng.randint(1, 3) for e in g.edges[:4]},
                        OmegaClass.INCREASE_ONLY)
    there = apply_delta(g, delta)
    back = apply_delta(there, delta.negated())
    assert back == g
    other = RepairDelta({e: -1 for e in g.edges[:2]}, OmegaClass.DECREASE_ONLY)
    merged = delta.merged(other)
    assert apply_delta(g, merged) == apply_delta(apply_delta(g, delta), other)


def test_witness_check_accepts_and_rejects():
    c4 = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    BrokenCycleWitness(cycle=(0, 1, 2, 3), top_edge=(0, 1)).check(c4)
    with pytest.raises(ValueError):
        BrokenCycleWitness(cycle=(0, 1, 2, 3), top_edge=(1, 2)).check(c4)
    with pytest.raises(ValueError):
        BrokenCycleWitness(cycle=(0, 1), top_edge=(0, 1)).check(c4)
    # At 2^62 the scaled sums pass int64: one unit past the tie breaks the
    # triangle, the exact tie does not, and only the heaviest edge is its top.
    big = 2 ** 62
    tie = WeightedGraph(3, [(0, 1, big), (0, 2, big // 2), (1, 2, big // 2)])
    BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(0, 1)).check(
        tie.replace_weights({(0, 1): big + 1}))
    straddle = tie.replace_weights({(1, 2): 2 * big + 1})
    BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(2, 1)).check(straddle)
    with pytest.raises(ValueError, match="not strictly violated"):
        BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(0, 1)).check(tie)
    with pytest.raises(ValueError, match="not strictly violated"):
        BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(0, 1)).check(straddle)


def test_witness_is_an_immutable_named_tuple():
    w = BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(0, 2))
    with pytest.raises(AttributeError):
        w.top_edge = (0, 1)
    assert w == ((0, 1, 2), (0, 2)) and hash(w) == hash(((0, 1, 2), (0, 2)))
    assert repr(w) == "BrokenCycleWitness(cycle=(0, 1, 2), top_edge=(0, 2))"
    assert w.edges() == ((0, 1), (1, 2), (0, 2)) and w.bottom_edges() == ((0, 1), (1, 2))


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        DistanceMatrix([[1, 2], [2, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        DistanceMatrix([[0, -1], [-1, 0]])  # negative
    with pytest.raises(TypeError):
        DistanceMatrix([[0, 1], [1.0, 0]])  # float below the diagonal only
    with pytest.raises(ValueError, match="square"):
        DistanceMatrix([[0, 1, 2], [1, 0], [2, 3, 0]])  # ragged
    assert DistanceMatrix([[0, "1/2"], ["0.5", 0]]).rows() == ((0, Fraction(1, 2)),
                                                              (Fraction(1, 2), 0))
    d = DistanceMatrix([[0, 2], [2, 0]])
    assert d.entry(0, 1) == 2
    g = d.to_graph()
    assert g.is_complete() and g.weight(0, 1) == 2
    assert DistanceMatrix.from_graph(g) == d


def test_matrix_view_wraps_its_graph_without_copying():
    g = random_graph(random.Random(5), 6, 15)
    d = DistanceMatrix.from_graph(g)
    assert d.to_graph() is g and d.n == 6
    built = DistanceMatrix(d.rows())
    assert built == d and built.to_graph() is built.to_graph() == g
    with pytest.raises(PreconditionError):
        DistanceMatrix.from_graph(g.without_edges([(0, 1)]))


@pytest.mark.parametrize("algo", ["iomr", "5cc"])
def test_run_algo_scales_a_complete_graph_once(monkeypatch, algo):
    # The runner's matrix view wraps the input graph, so the solver reads the
    # integer form stored on it: no graph with the input's weights is built
    # (and scaled) again during the run.
    from metric_repair import graphs, run_algo
    from metric_repair.gadgets import planted_complete

    g = planted_complete(8, 3, seed=2).instance.to_graph()
    scaled = []
    scale_weights = graphs._scale_weights

    def recording(*args):
        scaled.append(scale_weights(*args))
        return scaled[-1]

    monkeypatch.setattr(graphs, "_scale_weights", recording)
    report = run_algo(g, OmegaClass.INCREASE_ONLY, algo)
    assert report.valid and report.support_size > 0
    assert scaled  # the repaired graph at least goes through the routine
    assert g.integer_form() not in scaled


def test_matrix_apply_mirrors_entries():
    d = DistanceMatrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    out = d.apply(RepairDelta({(0, 2): 1}, OmegaClass.INCREASE_ONLY))
    assert out.entry(0, 2) == out.entry(2, 0) == 3


def test_integer_form_is_the_canonical_scaled_store():
    g = WeightedGraph(3, [(1, 2, "1/6"), (0, 1, 2), (0, 2, Fraction(3, 4))])
    assert g.integer_form() == (12, {(1, 2): 2, (0, 1): 24, (0, 2): 9})
    assert list(g.integer_form()[1]) == [(1, 2), (0, 1), (0, 2)]  # insertion order
    assert g.weight(2, 1) == Fraction(1, 6) and g.max_weight() == 2
    assert g.weight_map() == {(1, 2): Fraction(1, 6), (0, 1): 2, (0, 2): Fraction(3, 4)}
    # Equal weights give equal stores, whatever their input type.
    assert WeightedGraph(2, [(0, 1, "4/2")]).integer_form() == (1, {(0, 1): 2})
    assert WeightedGraph(2, [(0, 1, 2)]) == WeightedGraph(2, [(0, 1, Fraction(2))])
    # Replacing the last fractional weight brings the scale back to 1, and the
    # derived graph shares the parent's topology.
    whole = g.replace_weights({(1, 2): 1, (0, 2): Fraction(6, 2)})
    assert whole.integer_form() == (1, {(1, 2): 1, (0, 1): 2, (0, 2): 3})
    assert whole.edges is g.edges and whole.neighbors(0) is g.neighbors(0)
    with pytest.raises(ValueError):
        g.replace_weights({(0, 1): -1})
    with pytest.raises(TypeError):
        g.replace_weights({(0, 1): 0.5})


def replace_by_fractions(g: WeightedGraph, new_weights) -> tuple[int, dict]:
    """Reference ``replace_weights``: every weight as a Fraction, overridden,
    then put over the least common denominator of the result."""
    w = g.weight_map()
    w.update({edge_key(*e): Fraction(x) for e, x in new_weights.items()})
    scale = lcm(*(x.denominator for x in w.values()))
    return scale, {e: int(x * scale) for e, x in w.items()}


_BIG_PRIMES = (2097143, 2097169, 2097211)  # their product passes 2^62


@pytest.mark.parametrize("seed", range(40))
def test_replace_weights_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    dens = (1, 1, 2, 3, 4, 6, 12, *_BIG_PRIMES) if seed % 2 else (1, 2, 3, 4, 6, 12)
    values = lambda: Fraction(rng.choice((0, 0, rng.randrange(50))), rng.choice(dens))
    n = rng.randint(3, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = WeightedGraph(n, [(u, v, values()) for u, v in pairs[:rng.randint(1, len(pairs))]])
    for _ in range(6):
        picked = rng.sample(g.edges, rng.randint(0, g.m))
        new = {(v, u) if rng.random() < 0.5 else (u, v): values() for u, v in picked}
        replaced = g.replace_weights(new)
        scale, intw = replaced.integer_form()
        assert (scale, intw) == replace_by_fractions(g, new)
        assert list(intw) == list(g.integer_form()[1])  # the parent's edge order
        assert replaced == WeightedGraph(n, ((u, v, replaced.weight(u, v))
                                             for u, v in g.edges))
        g = replaced


def test_replace_weights_grows_and_shrinks_the_scale_past_2_to_62():
    p, q, r = _BIG_PRIMES
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 0), (2, 3, Fraction(5, p)), (0, 3, 7)])
    wide = g.replace_weights({(1, 2): Fraction(1, q), (0, 1): Fraction(2, r)})
    assert wide.integer_form()[0] == p * q * r > 2 ** 62
    for new in ({(2, 3): 0}, {(1, 2): Fraction(3, 1)}, {(0, 1): 4}):
        expected = replace_by_fractions(wide, new)
        wide = wide.replace_weights(new)
        assert wide.integer_form() == expected
    assert wide.integer_form() == (1, {(0, 1): 4, (1, 2): 3, (2, 3): 0, (0, 3): 7})


_exact_values = st.fractions(min_value=0, max_value=8, max_denominator=12)


@st.composite
def graph_and_increase_delta(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    weights = draw(st.lists(st.integers(min_value=0, max_value=8) | _exact_values,
                            min_size=len(chosen), max_size=len(chosen)))
    bumps = draw(st.lists(st.integers(min_value=0, max_value=5) | _exact_values,
                          min_size=len(chosen), max_size=len(chosen)))
    g = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])
    delta = RepairDelta({e: b for e, b in zip(chosen, bumps)},
                        OmegaClass.INCREASE_ONLY)
    return g, delta


def _fresh(g):
    return WeightedGraph(g.n, [(u, v, w) for (u, v), w in g.weight_map().items()])


@given(graph_and_increase_delta())
@example((WeightedGraph(3, [(0, 1, Fraction(1, 2)), (1, 2, 2)]),
          RepairDelta({(0, 1): Fraction(1, 2)}, OmegaClass.INCREASE_ONLY)))
@settings(max_examples=60)
def test_apply_then_negate_roundtrips(data):
    g, delta = data
    there = apply_delta(g, delta)
    back = apply_delta(there, delta.negated())
    assert back == g
    for h in (there, back):
        # Scale and item order match a graph built afresh from the weights.
        (scale, intw), (fresh_scale, fresh_intw) = h.integer_form(), _fresh(h).integer_form()
        assert (scale, list(intw.items())) == (fresh_scale, list(fresh_intw.items()))
