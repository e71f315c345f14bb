"""Generator facts: documented optima, reproducibility, parameter checks."""

from __future__ import annotations

import random
from fractions import Fraction

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
from metric_repair.gadgets import (
    GadgetSpec,
    base_graph_edges,
    build,
    completed_cycle,
    component_blocks,
    cycle_fig_one,
    cycle_tight,
    dense_block_matrix,
    planted_chordal,
    planted_complete,
    random_connected_graph,
    suspension,
    sweep_worst_matrix,
)

from conftest import min_vertex_cover_size


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
