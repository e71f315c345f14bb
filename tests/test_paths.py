"""Shortest-path engines against an exhaustive path-enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_repair import WeightedGraph, apsp, decrease_repair, find_broken_witness, is_metric
from metric_repair import gadgets, paths
from metric_repair.paths import ApspResult, _dense_int_lanes, _dense_int_numpy

from conftest import (
    all_simple_path_dist,
    canonical_parents,
    full_relaxation,
    random_graph,
    tree_sweep_graphs,
)


def _sentinel(g: WeightedGraph) -> int:
    return max(g.integer_form()[1].values(), default=0) * g.n + 1


def _lanes_dense(g: WeightedGraph) -> ApspResult:
    scale, intw = g.integer_form()
    return ApspResult(g.n, scale, intw, _dense_int_lanes(g.n, intw, _sentinel(g)))


def _searched(g: WeightedGraph) -> ApspResult:
    scale, intw = g.integer_form()
    return ApspResult(g.n, scale, intw)


def test_path_graph_distance():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    d = apsp(g)
    assert d.dist(0, 2) == 2
    assert d.path(0, 2) == (0, 1, 2)


def test_single_vertex():
    g = WeightedGraph(1)
    assert apsp(g).dist(0, 0) == 0
    assert apsp(g).path(0, 0) == (0,)


def test_disconnected_pairs_have_no_distance():
    g = WeightedGraph(4, [(0, 1, 3)])
    d = apsp(g)
    assert d.dist(0, 2) is None
    assert d.path(0, 2) is None


def test_complete_graph_matches_exhaustive_paths():
    # Frozen-seed K6 instances checked against brute-force path enumeration.
    for seed in range(8):
        rng = random.Random(seed)
        g = random_graph(rng, 6, 15, weights=(0, 12))
        d = apsp(g)
        for u in range(6):
            for v in range(6):
                assert d.dist(u, v) == all_simple_path_dist(g, u, v), (seed, u, v)


def test_sparse_random_matches_exhaustive_paths():
    for seed in range(8):
        rng = random.Random(100 + seed)
        g = random_graph(rng, 7, 9, weights=(1, 9))
        d = apsp(g)
        for u in range(7):
            for v in range(7):
                assert d.dist(u, v) == all_simple_path_dist(g, u, v)


def test_engines_agree_on_integers_and_fractions():
    for seed in range(10):
        rng = random.Random(200 + seed)
        g = random_graph(rng, 7, rng.randint(6, 21), weights=(0, 10))
        # fractional variant of the same topology
        frac = WeightedGraph(
            7, ((u, v, g.weight(u, v) / 3) for (u, v) in g.edges))
        for inst in (g, frac):
            dense, sparse = _lanes_dense(inst), _searched(inst)
            for u in range(7):
                for v in range(7):
                    assert dense.dist(u, v) == sparse.dist(u, v) == apsp(inst).dist(u, v)


def _guard_graph(rng: random.Random, n: int, top: int) -> WeightedGraph:
    # n = 63 or 64 with weights in [top / 2, top], ``top`` among them, and the
    # last vertex isolated, so the relaxation adds sentinel to sentinel as
    # well as long distances.  1,100 edges lie past the dense threshold n^2/4.
    g = random_graph(rng, n - 1, 1100, weights=(top // 2, top))
    weights = {e: g.weight(*e) for e in g.edges}
    weights[g.edges[0]] = top
    return WeightedGraph(n, ((u, v, w) for (u, v), w in weights.items()))


def test_numpy_and_python_dense_kernels_agree(monkeypatch):
    # numpy int64 rows == lane rows == the full relaxation == searched
    # Dijkstra rows (== brute-force distances on the small graphs), and
    # ``apsp`` runs numpy exactly from n = 64 below the int64 guard and the
    # lanes otherwise.  At n = 64 a largest weight of 2^56 - 1 gives the
    # sentinel 2^62 - 63 (numpy) and 2^56 gives 2^62 + 1 (lanes); at n = 63
    # the sentinels 2^62 - 3 (64-bit lanes) and 2^62 + 60 (65-bit lanes) are
    # the nearest the sentinel rule allows.  The last graph adds zero weights
    # and ties.
    calls = []
    for name in ("_dense_int_numpy", "_dense_int_lanes"):
        real = getattr(paths, name)
        monkeypatch.setattr(paths, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    small = [random_graph(random.Random(300 + seed), 9, m, weights=(0, 50))
             for seed, m in enumerate((20, 20, 20, 20, 20, 6, 8))]
    rng = random.Random(307)
    below = (2 ** 62 - 2) // 63
    at_guard = [_guard_graph(rng, 64, 2 ** 56 - 1), _guard_graph(rng, 64, 2 ** 56),
                _guard_graph(rng, 63, below), _guard_graph(rng, 63, below + 1)]
    core = random_graph(rng, 63, 1100, weights=(0, 3))
    plateaus = WeightedGraph(64, ((u, v, core.weight(u, v)) for (u, v) in core.edges))
    # The small graphs are sparse (m <= 20 < 9^2 / 4) and run no kernel.
    expected = [[]] * len(small) + [[name] for name in (
        "_dense_int_numpy", "_dense_int_lanes", "_dense_int_lanes", "_dense_int_lanes",
        "_dense_int_numpy")]
    for g, runs in zip(small + at_guard + [plateaus], expected, strict=True):
        scale, intw = g.integer_form()
        sentinel = _sentinel(g)
        rows = full_relaxation(g.n, intw, sentinel)
        assert _dense_int_lanes(g.n, intw, sentinel) == rows
        searched = _searched(g)
        assert rows == [searched.row(u) for u in range(g.n)]
        if sentinel < 2 ** 62:
            assert _dense_int_numpy(g.n, intw, sentinel) == rows
        calls.clear()
        assert [apsp(g).row(u) for u in range(g.n)] == rows
        assert calls == runs
        assert paths._numpy_kernel_runs(g.n, intw) == (runs == ["_dense_int_numpy"])
        if g.n < 10:
            assert [[all_simple_path_dist(g, u, v) for v in range(g.n)]
                    for u in range(g.n)] == \
                [[None if x is None else Fraction(x, scale) for x in row]
                 for row in rows]
    assert [_sentinel(g) for g in at_guard] == [2 ** 62 - 63, 2 ** 62 + 1,
                                                2 ** 62 - 3, 2 ** 62 + 60]
    assert all(g.m > g.n ** 2 / 4 for g in at_guard)


@st.composite
def kernel_inputs(draw):
    # Graphs of up to 12 vertices, the last one possibly isolated, with each
    # pair present or not and weights from a small range (zeros and ties), a
    # wide one, one whose sentinel lands just under 2^62 (64-bit lanes, the
    # widest numpy could hold), or one far past it.
    n = draw(st.integers(min_value=0, max_value=12))
    isolated = n > 1 and draw(st.booleans())
    top = draw(st.sampled_from((0, 1, 3, 10 ** 6, None, 2 ** 200)))
    low, top = (0, top) if top is not None else _widest(n)
    pairs = list(combinations(range(n - isolated), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(low, top), min_size=len(pairs), max_size=len(pairs)))
    return n, {e: w for e, keep, w in zip(pairs, present, weights) if keep}


def _widest(n: int) -> tuple[int, int]:
    # Weights whose sentinel, largest weight * n + 1, is in [2^62 - 3n, 2^62)
    # whenever an edge is present.
    top = (2 ** 62 - 2) // max(n, 1)
    return top - 2, top


# K_7 plus an isolated vertex: 21 > 8^2 / 4 edges, dense yet disconnected.
@example((8, {e: (e[0] * 5 + e[1]) % 4 for e in combinations(range(7), 2)}))
@example((0, {}))
@example((1, {}))
@example((2, {(0, 1): _widest(2)[1]}))
@example((2, {}))
# The widest lanes on a 4-cycle plus one isolated vertex.
@example((5, {(0, 1): _widest(5)[1], (1, 2): _widest(5)[0], (2, 3): _widest(5)[1],
              (0, 3): _widest(5)[1]}))
@given(kernel_inputs())
@settings(max_examples=300, deadline=None)
def test_symmetric_python_kernel_equals_the_full_relaxation(data):
    n, intw = data
    sentinel = max(intw.values(), default=0) * n + 1
    assert _dense_int_lanes(n, intw, sentinel) == full_relaxation(n, intw, sentinel)


def _counting_searches(monkeypatch) -> list:
    sources = []
    real = paths._dijkstra
    monkeypatch.setattr(paths, "_dijkstra",
                        lambda *args: sources.append(args[1]) or real(*args))
    return sources


def test_dense_reads_of_a_metric_matrix_build_no_adjacency(monkeypatch):
    # Filled rows answer every edge read: no search runs and the adjacency
    # lists the searches would walk are never built.
    g = gadgets.planted_complete(40, 0, seed=17).instance.to_graph()
    sources = _counting_searches(monkeypatch)
    assert decrease_repair(g).norm0() == 0
    assert is_metric(g)
    assert sources == [] and apsp(g)._adj is None


def test_broken_witness_from_filled_rows_equals_the_searched_one(monkeypatch):
    # The witness path comes from one search on the lazily built adjacency;
    # it equals the witness an all-searched result gives.
    for seed in range(4):
        g = gadgets.planted_complete(40, 1, seed=seed).instance.to_graph()
        sources = _counting_searches(monkeypatch)
        witness = find_broken_witness(g)
        assert witness is not None and len(sources) == 1
        twin = WeightedGraph(g.n, ((u, v, g.weight(u, v)) for (u, v) in g.edges))
        twin._apsp_cache["dense"] = _searched(twin)
        assert find_broken_witness(twin) == witness


def test_distance_invariants():
    rng = random.Random(42)
    g = random_graph(rng, 6, 10, weights=(0, 7))
    d = apsp(g)
    for u in range(6):
        assert d.dist(u, u) == 0
        for v in range(6):
            assert d.dist(u, v) == d.dist(v, u)
    for (u, v) in g.edges:
        assert d.dist(u, v) <= g.weight(u, v)


def test_paths_have_exact_distance_weight():
    for seed in range(6):
        rng = random.Random(400 + seed)
        g = random_graph(rng, 7, 12, weights=(0, 9))
        d = apsp(g)
        for u in range(7):
            for v in range(7):
                p = d.path(u, v)
                if p is None:
                    continue
                total = sum((g.weight(p[i], p[i + 1]) for i in range(len(p) - 1)),
                            Fraction(0))
                assert total == d.dist(u, v)
                assert len(set(p)) == len(p)  # simple


def test_zero_weight_plateaus_reconstruct():
    # A zero-weight clique reached at equal distance used to be the hard case
    # for predecessor tie-breaking; the canonical tree must stay acyclic.
    g = WeightedGraph(5, [(2, 0, 4), (2, 1, 4), (0, 1, 0), (0, 3, 0), (1, 3, 0),
                          (3, 4, 1)])
    d = apsp(g)
    for v in range(5):
        p = d.path(2, v)
        assert p is not None and p[0] == 2 and p[-1] == v


def test_path_reconstruction_is_deterministic():
    # Across runs and across the rows' kernels; the second input has
    # zero-weight plateaus and many equal-length paths.
    rng = random.Random(77)
    plateaus = WeightedGraph(8, [(0, 1, 1), (0, 2, 1), (1, 2, 0), (1, 3, 1), (2, 3, 1),
                                 (3, 4, 0), (3, 5, 0), (4, 5, 0), (4, 6, 2), (5, 6, 2),
                                 (6, 7, 0), (0, 7, 4)])
    for g in (random_graph(rng, 7, 14, weights=(0, 5)), plateaus):
        dense = _lanes_dense(g)
        rebuilt = apsp(WeightedGraph(g.n, ((u, v, g.weight(u, v)) for (u, v) in g.edges)))
        searched = _searched(g)
        for u in range(g.n):
            for v in range(g.n):
                assert dense.path(u, v) == rebuilt.path(u, v) == searched.path(u, v)


def _numpy_dense(g: WeightedGraph) -> ApspResult:
    scale, intw = g.integer_form()
    return ApspResult(g.n, scale, intw, _dense_int_numpy(g.n, intw, _sentinel(g)))


def _assert_canonical_trees(result: ApspResult) -> None:
    n = len(result._rows)
    for s in range(n):
        expected = canonical_parents(n, result.intw, result.row(s), s)
        assert result.parents(s) == expected, s


def test_search_trees_match_canonical_reference():
    # The tree each search builds equals the settle-one-at-a-time reference
    # for every source, on rows the lane kernel filled, on lazily
    # searched rows and through apsp's automatic choice.
    count = 0
    for g in tree_sweep_graphs():
        for result in (_lanes_dense(g), _searched(g), apsp(g)):
            _assert_canonical_trees(result)
        count += 1
    assert count == 200


def test_search_trees_match_reference_on_numpy_rows():
    # Dense n >= 64 graphs with zero-weight plateaus and ties, one with an
    # isolated vertex: the numpy kernel fills the rows apsp returns.
    rng = random.Random(501)
    for n, weights in ((64, (0, 3)), (66, (0, 1)), (70, (1, 9))):
        core = random_graph(rng, n - 1, (n - 1) * (n - 2) // 2 * 3 // 5, weights)
        g = WeightedGraph(n, ((u, v, core.weight(u, v)) for (u, v) in core.edges))
        assert g.m > n * n / 4
        _assert_canonical_trees(_numpy_dense(g))
        _assert_canonical_trees(apsp(g))
        assert apsp(g) is g._apsp_cache["dense"]
