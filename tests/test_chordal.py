"""Chordal recognition: known families plus the random-growth construction."""

from __future__ import annotations

import random
from itertools import combinations

from metric_repair import WeightedGraph, is_chordal, perfect_elimination_ordering
from metric_repair.gadgets import planted_chordal, random_chordal_edges

from conftest import random_graph, reference_elimination_ordering


def _unit_graph(n, edges):
    return WeightedGraph(n, ((u, v, 1) for (u, v) in edges))


def test_complete_graphs_are_chordal():
    for n in range(1, 7):
        g = _unit_graph(n, combinations(range(n), 2))
        assert perfect_elimination_ordering(g) is not None


def test_chordless_c4_is_not_chordal():
    g = _unit_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert perfect_elimination_ordering(g) is None
    assert not is_chordal(g)


def test_c4_with_chord_is_chordal():
    g = _unit_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert is_chordal(g)


def test_chordless_c5_is_not_chordal():
    g = _unit_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_chordal(g)


def test_trees_and_empty_graphs_are_chordal():
    tree = _unit_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert is_chordal(tree)
    assert perfect_elimination_ordering(WeightedGraph(4)) is not None
    assert perfect_elimination_ordering(WeightedGraph(0)) == ()


def test_random_growth_yields_chordal_graphs():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        edges = random_chordal_edges(n, rng)
        g = _unit_graph(n, edges)
        ordering = perfect_elimination_ordering(g)
        assert ordering is not None
        assert sorted(ordering) == list(range(n))
        _assert_perfect_elimination(g, ordering)


def _assert_perfect_elimination(g, ordering):
    position = {v: i for i, v in enumerate(ordering)}
    for v in ordering:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        for a in range(len(later)):
            for b in range(a + 1, len(later)):
                assert g.has_edge(later[a], later[b]), (v, later)


def test_ordering_is_deterministic():
    rng = random.Random(3)
    edges = random_chordal_edges(9, rng)
    g1 = _unit_graph(9, edges)
    g2 = _unit_graph(9, edges)
    assert perfect_elimination_ordering(g1) == perfect_elimination_ordering(g2)


def test_ordering_matches_the_full_scan_reference():
    # The lazy heap pops the unvisited vertex of largest weight, ties to the
    # smaller id, which is what a full scan for each vertex picks.
    for seed in range(200):
        g = planted_chordal(20, 2, seed=seed).instance
        assert perfect_elimination_ordering(g) == reference_elimination_ordering(g)
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert perfect_elimination_ordering(g) == reference_elimination_ordering(g)
