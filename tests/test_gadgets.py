"""Generator facts: documented optima, reproducibility, parameter checks."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from metric_repair import (
    DistanceMatrix,
    OmegaClass,
    WeightedGraph,
    brute_force_opt,
    is_chordal,
    is_metric,
    longest_broken_cycle_len,
    minimum_cycle_cover,
)
from metric_repair.detect import broken_cycles
from metric_repair.fileio import serialize_edge_list, serialize_matrix_csv
from metric_repair.gadgets import (
    GadgetSpec,
    base_graph_edges,
    build,
    completed_cycle,
    component_blocks,
    cycle_fig_one,
    cycle_tight,
    dense_block_matrix,
    metric_closure_weights,
    planted_chordal,
    planted_complete,
    random_chordal_edges,
    random_connected_graph,
    suspension,
    sweep_worst_matrix,
)

from conftest import graph_state, min_vertex_cover_size, reference_metric_closure_weights


def test_cycle_fig_one_optimum_is_one_in_every_class():
    for n in range(4, 9):
        g = cycle_fig_one(n)
        for omega in OmegaClass:
            found = brute_force_opt(g, omega)
            assert found is not None and len(found[0]) == 1, (n, omega)


def test_completed_cycle_blows_up_the_increase_optimum():
    # Filling in the chords at distance zero turns a size-1 repair into n-2.
    for n in (5, 6):
        g = completed_cycle(n)
        assert g.is_complete()
        inc = brute_force_opt(g, OmegaClass.INCREASE_ONLY, edge_limit=15)
        assert len(inc[0]) == n - 2
        gen = brute_force_opt(g, OmegaClass.GENERAL, edge_limit=15)
        assert len(gen[0]) == 1
    size, _ = minimum_cycle_cover(completed_cycle(8), OmegaClass.INCREASE_ONLY)
    assert size == 6


def test_suspension_matches_minimum_vertex_cover():
    cases = [
        ("path", 3),   # vertex cover 1
        ("path", 4),
        ("cycle", 5),
        ("star", 5),
        ("complete", 4),
    ]
    for family, n in cases:
        edges = base_graph_edges(family, n)
        g = suspension(n, edges)
        vc = min_vertex_cover_size(n, edges)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            found = brute_force_opt(g, omega)
            assert len(found[0]) == vc, (family, n, omega)


def test_suspension_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        suspension(3, [(0, 1)], alpha=Fraction(0))


def test_component_blocks_cycle_containment():
    g = component_blocks(8, 4)
    block_of = lambda v: v // 4
    for witness in broken_cycles(g):
        blocks = {block_of(v) for v in witness.cycle}
        assert len(blocks) == 1
    assert longest_broken_cycle_len(g, budget=8) == 3


def test_component_blocks_long_cycle_when_blocks_allow():
    g = component_blocks(6, 6)
    assert longest_broken_cycle_len(g, budget=6) == 6


def test_component_blocks_parameter_validation():
    with pytest.raises(ValueError):
        component_blocks(8, 3)  # odd block
    with pytest.raises(ValueError):
        component_blocks(9, 4)  # block does not divide n
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        component_blocks(-4, 2)  # divisible, but no graph has -4 vertices


def test_sweep_worst_matrix_layout():
    d = sweep_worst_matrix(5)
    assert [int(x) for x in d.rows()[0]] == [0, 4, 8, 16, 32]
    assert d.entry(2, 3) == 0
    assert d.entry(3, 0) == 16


def test_dense_block_matrix_layout_and_validation():
    d = dense_block_matrix(10, 4)
    assert d.entry(0, 1) == 0          # zero block
    assert d.entry(5, 9) == 1          # unit block
    assert d.entry(0, 7) == 4          # cross block: k - i
    assert d.entry(3, 7) == 1
    with pytest.raises(ValueError):
        dense_block_matrix(8, 4)       # gamma must stay below one half
    with pytest.raises(ValueError):
        dense_block_matrix(8, 0)
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="need n >= 2"):
            sweep_worst_matrix(n)


def test_planted_chordal_properties():
    for seed in (0, 1, 2):
        inst = planted_chordal(9, 3, seed)
        g = inst.instance
        assert is_chordal(g)
        assert len(inst.planted_support) <= 3
        # the plant upper-bounds the optimum
        found = brute_force_opt(g, OmegaClass.INCREASE_ONLY)
        assert len(found[0]) <= len(inst.planted_support)


def test_planted_complete_is_complete_and_bounded_by_plant():
    inst = planted_complete(6, 2, seed=4)
    d = inst.instance
    assert isinstance(d, DistanceMatrix)
    found = brute_force_opt(d.to_graph(), OmegaClass.INCREASE_ONLY)
    assert len(found[0]) <= len(inst.planted_support)


def test_generators_are_reproducible():
    a = planted_chordal(10, 3, seed=11).instance
    b = planted_chordal(10, 3, seed=11).instance
    assert a == b
    c = planted_chordal(10, 3, seed=12).instance
    assert a != c
    ma = planted_complete(7, 2, seed=3).instance
    mb = planted_complete(7, 2, seed=3).instance
    assert ma == mb


def test_random_connected_graph_is_connected():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        edges = random_connected_graph(n, m, rng)
        assert len(edges) == m
        g = WeightedGraph(n, ((u, v, 1) for (u, v) in edges))
        from metric_repair import apsp
        d = apsp(g)
        assert all(d.dist(0, v) is not None for v in range(n))


def test_build_dispatch_covers_every_kind():
    cases = [
        GadgetSpec("CycleFig1", {"n": 5}),
        GadgetSpec("CycleTight", {"n": 6}),
        GadgetSpec("CompletedCycle", {"n": 5}),
        GadgetSpec("VertexCoverSuspension", {"base": "path", "base_n": 4}),
        GadgetSpec("ComponentL", {"n": 8, "L": 4}),
        GadgetSpec("IomrWorst", {"n": 5}),
        GadgetSpec("DenseGamma", {"n": 10, "k": 4}),
        GadgetSpec("PlantedChordal", {"n": 8, "k": 2, "seed": 1}),
        GadgetSpec("PlantedComplete", {"n": 6, "k": 2, "seed": 1}),
    ]
    for spec in cases:
        out = build(spec)
        assert isinstance(out.instance, (WeightedGraph, DistanceMatrix))
    with pytest.raises(ValueError):
        build(GadgetSpec("NoSuchKind", {}))


def test_cycle_fig_one_weights():
    g = cycle_fig_one(5)
    assert g.weight(0, 1) == 1
    assert g.weight(1, 2) == 0
    assert not is_metric(g)
    assert longest_broken_cycle_len(g, budget=6) == 5


def test_cycle_tight_weights():
    g = cycle_tight(6)
    assert g.weight(0, 1) == 6
    assert g.weight(5, 0) == 1


def _closure_matches_reference(n, edges, seed, weight_range):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = metric_closure_weights(n, edges, ours, weight_range)
    want = reference_metric_closure_weights(n, edges, theirs, weight_range)
    assert graph_state(got) == graph_state(want), (n, seed, weight_range)
    assert ours.getstate() == theirs.getstate()  # the same draws, so the same stream after


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 40, 63, 64, 120])
def test_metric_closure_matches_the_checked_two_step_build_on_complete_graphs(n):
    # n=2 and below take the sparse engine, 3..63 the lane kernel and 64 up
    # numpy; weight 0 is drawn too, so zero-weight plateaus occur.
    edges = tuple(combinations(range(n), 2))
    for seed, weight_range in ((1, (1, 20)), (2, (0, 3)), (3, (7, 7))):
        _closure_matches_reference(n, edges, seed, weight_range)


def test_metric_closure_matches_the_checked_two_step_build_on_sparse_and_chordal_draws():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        for m in (n - 1, min(3 * n, n * (n - 1) // 2), n * (n - 1) // 2 - 1):
            edges = random_connected_graph(n, max(m, n - 1), rng)
            _closure_matches_reference(n, edges, seed, (1, 20))
        _closure_matches_reference(n, random_chordal_edges(n, rng), seed, (0, 10))
    # Edges in an unsorted order with reversed pairs: the store keeps the
    # given order, normalized.
    edges = [(3, 1), (0, 2), (2, 1), (0, 3), (1, 0)]
    _closure_matches_reference(4, edges, 5, (1, 9))
    g = metric_closure_weights(4, edges, random.Random(5), (1, 9))
    assert list(g.integer_form()[1]) == [(1, 3), (0, 2), (1, 2), (0, 3), (0, 1)]


@pytest.mark.parametrize("weight_range", [(-2, 5), (-1, -1), (5, 2), (1, 0)])
def test_metric_closure_refuses_a_bad_weight_range_before_drawing(weight_range):
    # A negative lo used to fail only when a draw came out negative: (-2, 5)
    # raised for seeds 1 and 2 but built a graph for seeds 0, 3 and 4.
    for seed in range(5):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(ValueError, match="needs 0 <= lo <= hi"):
            metric_closure_weights(3, [(0, 1), (1, 2)], rng, weight_range)
        assert rng.getstate() == state
    with pytest.raises(ValueError, match="needs 0 <= lo <= hi"):
        metric_closure_weights(3, [], random.Random(0), weight_range)


@pytest.mark.parametrize("n, edges, message", [
    (3, [(0, 1), (1, 1)], r"self-loop \(1,1\)"),
    (3, [(0, 1), (1, 3)], r"edge \(1, 3\) out of range for n=3"),
    (3, [(-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
    (3, [(0, 1), (1, 2), (1, 0)], r"duplicate edge \(0, 1\)"),
    (-1, [], "vertex count must be nonnegative"),
])
def test_metric_closure_refuses_bad_edges_before_drawing(n, edges, message):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match=message):
        metric_closure_weights(n, edges, rng, (1, 10))
    assert rng.getstate() == state


def test_metric_closure_normalizes_a_reversed_pair():
    g = metric_closure_weights(3, [(1, 0), (2, 1)], random.Random(4), (1, 10))
    assert g.edges == ((0, 1), (1, 2))
    assert g == metric_closure_weights(3, [(0, 1), (1, 2)], random.Random(4), (1, 10))


@pytest.mark.parametrize("make, digest", [
    (lambda: serialize_matrix_csv(planted_complete(40, 1, seed=1).instance),
     "f31ad2ee6f5a4237a333a98fdf7c22cfa4d75b0775a22eecb1dcd9a3f7a95682"),
    (lambda: serialize_matrix_csv(planted_complete(120, 2, seed=1).instance),
     "da4054fdff3d401aed18b2b46c6e09ab9db4b3d8a641648bbbcf11d9dd2934da"),
    (lambda: serialize_matrix_csv(dense_block_matrix(60, 29)),
     "bb0b51adf7f7d148b76ccaec210779cb65ae4caec11b54940a563779e9734d3e"),
    (lambda: serialize_edge_list(planted_chordal(60, 10, 5).instance),
     "566ec19ffb44e72ef0e9fb9a4f0e32e8c671d70647a8e0343a051e2efacc8637"),
], ids=["planted-complete-40", "planted-complete-120", "dense-block-60-29",
        "planted-chordal-60"])
def test_generator_bytes_are_pinned(make, digest):
    # n=40 runs the lane kernel and n=120 numpy; the same bytes on every
    # supported Python.
    assert hashlib.sha256(make().encode()).hexdigest() == digest
