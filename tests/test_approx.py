"""Path cover, five-cycle cover and the matrix raising sweep."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_repair import (
    DistanceMatrix,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    SupportRejectedError,
    WeightedGraph,
    apply_delta,
    brute_force_opt,
    five_cycle_cover,
    general_shortest_path_cover,
    is_metric,
    longest_broken_cycle_len,
    matrix_sweep_repair,
    repaired_cell_count,
    shortest_path_cover,
)
from metric_repair.approx import _sweep_lanes, embedded_square_edges
from metric_repair.graphs import _top_edge, edge_key
from metric_repair.gadgets import (
    component_blocks,
    cycle_tight,
    dense_block_matrix,
    metric_closure_weights,
    planted_chordal,
    planted_complete,
    random_connected_graph,
    sweep_worst_matrix,
)

from conftest import enumerate_cycles_by_permutation, random_matrix, random_mixed_instance

METRIC_TRIANGLE = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


# -- shortest path cover -------------------------------------------------------


def test_metric_graph_gives_empty_cover_in_one_pass():
    report = shortest_path_cover(METRIC_TRIANGLE)
    assert report.support == frozenset()
    assert report.iterations == 1
    assert report.ratio_bound == "L"
    general = general_shortest_path_cover(METRIC_TRIANGLE)
    assert general.support == frozenset()
    assert general.ratio_bound == "L+1"


def test_tight_cycle_hits_the_ratio_exactly():
    # One heavy edge on a cycle: the cover takes all n-1 bottom edges while a
    # single raise suffices, so the ratio meets the longest-cycle bound.
    for n in (5, 8, 12):
        g = cycle_tight(n)
        report = shortest_path_cover(g)
        bottoms = {e for e in g.edges if e != (0, 1)}
        assert report.support == frozenset(bottoms)
        assert report.iterations == 2
        opt = brute_force_opt(g, OmegaClass.INCREASE_ONLY)
        assert len(opt[0]) == 1
        ratio = len(report.support) / len(opt[0])
        assert ratio == longest_broken_cycle_len(g, budget=12) - 1


def test_general_variant_takes_the_whole_tight_cycle():
    for n in (5, 8):
        g = cycle_tight(n)
        report = general_shortest_path_cover(g)
        assert report.support == frozenset(g.edges)
        assert len(brute_force_opt(g, OmegaClass.GENERAL)[0]) == 1


def test_cover_bounds_against_oracle_on_random_instances():
    for seed in range(30):
        g = random_mixed_instance(seed=6000 + seed, max_n=6, max_m=10)
        longest = longest_broken_cycle_len(g, budget=6)
        if longest is None:
            continue
        ratio_l = longest - 1
        inc_opt = len(brute_force_opt(g, OmegaClass.INCREASE_ONLY)[0])
        gen_opt = len(brute_force_opt(g, OmegaClass.GENERAL)[0])
        spc = shortest_path_cover(g)
        gspc = general_shortest_path_cover(g)
        assert len(spc.support) <= ratio_l * inc_opt
        assert len(gspc.support) <= (ratio_l + 1) * gen_opt
        assert spc.iterations <= inc_opt + 1
        assert gspc.iterations <= gen_opt + 1


def test_processed_batches_are_pairwise_edge_disjoint():
    from metric_repair.graphs import edge_key

    for seed in range(20):
        g = random_mixed_instance(seed=7000 + seed, max_n=7, max_m=14)
        report = shortest_path_cover(g)
        for batch in report.batches:
            seen = set()
            for path in batch:
                edges = {edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)}
                assert not (edges & seen)
                seen |= edges


def _pop_and_refilter_cover(g: WeightedGraph, close_cycle: bool):
    # The batch loop as first written: queue every broken edge's path, then
    # pop the head and drop the queued paths that share an edge with it.
    from metric_repair.paths import _scaled_apsp

    support: set = set()
    batches = []
    scale, intw = g.integer_form()
    working = dict(intw)
    iterations = 0
    while True:
        iterations += 1
        d = _scaled_apsp(g.n, scale, working)
        pending = []
        for (u, v) in sorted(working):
            if d.row(u)[v] < working[(u, v)]:
                path = d.path(u, v)
                pending.append(((u, v), path, frozenset(
                    edge_key(path[i], path[i + 1]) for i in range(len(path) - 1))))
        if not pending:
            break
        batch = []
        while pending:
            top, path, path_edges = pending.pop(0)
            batch.append(path)
            removed = set(path_edges) | ({top} if close_cycle else set())
            support |= removed
            for e in removed:
                working.pop(e, None)
            pending = [entry for entry in pending if not (entry[2] & removed)]
        batches.append(tuple(batch))
    return frozenset(support), tuple(batches), iterations


def _sparse_planted(n: int, seed: int) -> WeightedGraph:
    rng = random.Random(seed)
    metric = metric_closure_weights(n, random_connected_graph(n, 3 * n, rng), rng, (1, 20))
    lowered = {e: rng.randrange(metric.integer_form()[1][e])
               for e in sorted(rng.sample(metric.edges, 3))}
    return metric.replace_weights(lowered)


def test_one_pass_batches_match_pop_and_refilter_loop():
    graphs = [cycle_tight(60)]
    graphs += [planted_complete(n, k, seed=s).instance.to_graph()
               for n, k, s in ((12, 3, 1), (20, 4, 2), (30, 6, 3))]
    graphs += [planted_chordal(n, k, seed=s).instance
               for n, k, s in ((15, 3, 4), (25, 4, 5), (40, 6, 6))]
    graphs += [_sparse_planted(n, seed) for n, seed in ((30, 7), (60, 8), (90, 9))]
    for g in graphs:
        for close_cycle, cover in ((False, shortest_path_cover),
                                   (True, general_shortest_path_cover)):
            report = cover(g)
            assert (report.support, report.batches, report.iterations) == \
                _pop_and_refilter_cover(g, close_cycle)


def test_increase_mode_general_cover_can_reject():
    # The closing-edge variant only guarantees general-mode validity; this
    # frozen instance is one where its support admits no increase-only repair.
    g = WeightedGraph(4, [(0, 1, 9), (0, 2, 5), (0, 3, 4), (1, 2, 4), (1, 3, 5),
                          (2, 3, 10)])
    general = general_shortest_path_cover(g)
    assert is_metric(apply_delta(g, general.delta))
    with pytest.raises(SupportRejectedError):
        general_shortest_path_cover(g, OmegaClass.INCREASE_ONLY)


def test_increase_mode_general_cover_when_it_accepts():
    g = cycle_tight(6)
    report = general_shortest_path_cover(g, OmegaClass.INCREASE_ONLY)
    assert all(v >= 0 for _, v in report.delta.items())
    assert is_metric(apply_delta(g, report.delta))


def test_decrease_mode_is_rejected():
    with pytest.raises(PreconditionError):
        general_shortest_path_cover(METRIC_TRIANGLE, OmegaClass.DECREASE_ONLY)


# -- five-cycle cover ----------------------------------------------------------


def test_five_cycle_cover_on_metric_matrix():
    d = DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    report = five_cycle_cover(d)
    assert report.support == frozenset()


def test_five_cycle_cover_block_gadget_needs_no_second_stage():
    # Every broken cycle of the block gadget stays inside one block, far below
    # five edges, so the support equals the first-stage cover and verification
    # accepts.  (With blocks of four, matched pairs sit on opposite corners of
    # the zero-weight 4-cycle, so the longest broken cycle is a triangle.)
    g = component_blocks(8, 4)
    d = DistanceMatrix.from_graph(g)
    report = five_cycle_cover(d)
    assert report.support == report.stage_one_cover
    assert is_metric(apply_delta(g, report.delta))
    assert longest_broken_cycle_len(g, budget=8) == 3


def test_five_cycle_cover_regression_shared_top_edge():
    # Covering by any edge would mask this second triangle behind its top edge
    # and fail verification; covering by bottom edges must accept.
    d = DistanceMatrix([
        [0, 5, 9, 2],
        [5, 0, 1, 2],
        [9, 1, 0, 2],
        [2, 2, 2, 0]])
    report = five_cycle_cover(d)
    assert is_metric(apply_delta(d.to_graph(), report.delta))


def short_cycles(d):
    """The cycles of ``d`` on at most 5 vertices, by permutation enumeration.

    It already walks them in the five-cycle cover's order: length, vertex set,
    arrangement.
    """
    for cycle in enumerate_cycles_by_permutation(d.to_graph()):
        if len(cycle) > 5:
            return
        yield cycle


def test_five_cycle_cover_residual_short_cycles_are_covered():
    for seed in range(15):
        rng = random.Random(8000 + seed)
        d = random_matrix(rng, rng.randint(4, 7))
        report = five_cycle_cover(d)
        cover = report.stage_one_cover
        _, intw = d.to_graph().integer_form()
        for cycle in short_cycles(d):
            m = len(cycle)
            edges = [edge_key(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
            top = _top_edge(intw, edges)
            if top is None:
                continue
            assert (set(edges) - {top}) & cover, (seed, cycle)


def test_five_cycle_cover_on_tie_heavy_matrices():
    # Mostly-zero weights maximize boundary ties in the strict break test.
    for seed in range(20):
        rng = random.Random(11_000 + seed)
        n = rng.randint(4, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.choice((0, 0, 0, 1, 2))
                rows[i][j] = rows[j][i] = w
        d = DistanceMatrix(rows)
        report = five_cycle_cover(d)
        assert is_metric(apply_delta(d.to_graph(), report.delta))


def test_five_cycle_cover_validity_on_planted_instances():
    for seed in range(10):
        d = planted_complete(8, 3, seed).instance
        report = five_cycle_cover(d)
        assert is_metric(apply_delta(d.to_graph(), report.delta))
        assert all(v >= 0 for _, v in report.delta.items())


def fraction_stage_one_cover(d):
    """Reference greedy over short cycles, testing brokenness in Fractions."""
    rows = d.rows()
    cover = set()
    for cycle in short_cycles(d):
        m = len(cycle)
        edges = [edge_key(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
        weights = [rows[u][v] for (u, v) in edges]
        total = sum(weights, Fraction(0))
        top = next((e for e, w in zip(edges, weights) if 2 * w > total), None)
        if top is None or any(e != top and e in cover for e in edges):
            continue
        cover.update(edges)
    return frozenset(cover)


def rational_matrix(rng, n):
    """Random matrix whose entries mix denominators and include zeros."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.choice((0, 0, 1, 2, 3, 5, 8)), rng.choice((1, 2, 3, 4, 6, 7)))
            rows[i][j] = rows[j][i] = w
    return rows


def test_five_cycle_cover_equals_fraction_greedy():
    # Mixed denominators, zeros, a common denominator past 2**62 (1/p on three
    # entries, p prime) and exact rational ties on a triangle.
    big = (2097143, 2097169, 2097211)
    matrices = []
    for seed in range(8):
        rng = random.Random(12_000 + seed)
        rows = rational_matrix(rng, rng.randint(4, 7))
        matrices.append(DistanceMatrix(rows))
        for (i, j), p in zip(((0, 1), (0, 2), (1, 2)), big):
            rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, p)
        matrices.append(DistanceMatrix(rows))
    third, half = Fraction(1, 3), Fraction(1, 2)
    matrices.append(DistanceMatrix([[0, third + half, half, 1],
                                    [third + half, 0, third, 0],
                                    [half, third, 0, 0],
                                    [1, 0, 0, 0]]))
    assert matrices[1].to_graph().integer_form()[0] > 2 ** 62
    nonempty = 0
    for d in matrices:
        report = five_cycle_cover(d)
        assert report.stage_one_cover == fraction_stage_one_cover(d)
        nonempty += bool(report.stage_one_cover)
    assert nonempty >= 10


def test_embedded_square_detection():
    square = frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert embedded_square_edges(square) == square
    path = frozenset({(0, 1), (1, 2), (2, 3)})
    assert embedded_square_edges(path) == frozenset()


# -- matrix raising sweep --------------------------------------------------------


def test_sweep_zero_delta_on_metric_input():
    d = DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert matrix_sweep_repair(d).norm0() == 0
    assert matrix_sweep_repair(DistanceMatrix([[0]])).norm0() == 0
    assert matrix_sweep_repair(DistanceMatrix([[0, 5], [5, 0]])).norm0() == 0


def test_sweep_worst_case_touches_every_repairable_cell():
    for n, cells in ((5, 12), (6, 20), (8, 42)):
        delta = matrix_sweep_repair(sweep_worst_matrix(n))
        assert repaired_cell_count(delta) == cells == (n - 1) * (n - 2)
        fixed = apply_delta(sweep_worst_matrix(n).to_graph(), delta)
        assert is_metric(fixed)


def test_sweep_worst_case_optimum_is_far_smaller():
    # The power matrix needs only a couple of raises; record the oracle value
    # rather than trusting any closed form.
    d = sweep_worst_matrix(5)
    opt, delta = brute_force_opt(d.to_graph(), OmegaClass.INCREASE_ONLY)
    assert 2 * len(opt) < (5 - 1) * (5 - 2)


def test_dense_block_gadget_ratio_is_exact():
    d = dense_block_matrix(10, 4)
    delta = matrix_sweep_repair(d)
    assert repaired_cell_count(delta) == 36 == 2 * (10 - 4) * (4 - 1)
    assert is_metric(apply_delta(d.to_graph(), delta))
    # optimum rewrites the zero block: gamma*n*(gamma*n - 1) = 12 cells
    assert Fraction(36, 12) == 2 * (Fraction(1, Fraction(4, 10)) - 1) == 3


def test_sweep_is_entrywise_monotone_and_metric():
    for seed in range(25):
        rng = random.Random(9000 + seed)
        d = random_matrix(rng, rng.randint(3, 9))
        delta = matrix_sweep_repair(d)
        assert all(v >= 0 for _, v in delta.items())
        assert is_metric(apply_delta(d.to_graph(), delta))


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=80, deadline=None)
def test_sweep_repair_cap_property(n, seed):
    d = random_matrix(random.Random(seed), n)
    delta = matrix_sweep_repair(d)
    assert repaired_cell_count(delta) <= (n - 1) * (n - 2)


def fraction_sweep(d):
    """Reference raising sweep over the matrix's Fraction entries."""
    n = d.n
    rows = [list(r) for r in d.rows()]
    for k in range(n):
        for i in range(n):
            current = rows[i][k]
            best = max([current] + [rows[i][j] - rows[j][k] for j in range(i)])
            if best > current:
                rows[i][k] = rows[k][i] = best
    return RepairDelta({(i, j): rows[i][j] - d.entry(i, j)
                        for i in range(n) for j in range(i + 1, n)},
                       OmegaClass.INCREASE_ONLY)


def symmetric_rows(n: int, weights: dict) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for (i, j), w in weights.items():
        rows[i][j] = rows[j][i] = w
    return rows


def sweep_lanes(rows):
    """``_sweep_lanes`` on the symmetric matrix ``rows``."""
    pairs = combinations(range(len(rows)), 2)
    return _sweep_lanes(len(rows), {(i, j): rows[i][j] for i, j in pairs})


def scaled_rows(d):
    scale, intw = d.to_graph().integer_form()
    return scale, symmetric_rows(d.n, intw)


def sweep_pass(m, k) -> None:
    """Column ``k``'s pass of the raising sweep on an integer matrix, every
    row stepped, in place."""
    for i in range(1, len(m)):
        best = max(m[i][j] - m[j][k] for j in range(i))
        if best > m[i][k]:
            m[i][k] = m[k][i] = best


def per_row_sweep(int_rows) -> list[list[int]]:
    """The raising sweep with every column and row stepped, unscreened: the
    reference for the lane kernel."""
    m = [row[:] for row in int_rows]
    for k in range(len(m)):
        sweep_pass(m, k)
    return m


def apexes(m) -> set[int]:
    """The apexes ``x`` of the broken triangles, ``m[i][x] + m[j][x] < m[i][j]``."""
    return {x for i, j in combinations(range(len(m)), 2) for x in range(len(m))
            if m[i][x] + m[j][x] < m[i][j]}


def test_sweep_lane_kernel_matches_the_fraction_sweep():
    # The lane kernel == the unscreened per-row sweep == the Fraction
    # reference sweep, at sizes on both sides of 48 and on a rational matrix
    # whose scale is past 2**62.
    matrices = [random_matrix(random.Random(10_000 + seed), n)
                for seed, n in enumerate((2, 3, 5, 9, 16, 31, 48, 57))]
    rows = rational_matrix(random.Random(10_100), 50)
    for (i, j), p in zip(((0, 1), (3, 17), (20, 49)), (2097143, 2097169, 2097211)):
        rows[i][j] = rows[j][i] = rows[i][j] + Fraction(1, p)
    matrices += [DistanceMatrix(rows), sweep_worst_matrix(56), dense_block_matrix(60, 29)]
    assert matrices[-3].to_graph().integer_form()[0] > 2 ** 62
    raised = 0
    for d in matrices:
        reference = fraction_sweep(d)
        assert matrix_sweep_repair(d) == reference
        scale, int_rows = scaled_rows(d)
        expected = [[int((d.entry(i, j) + reference.get(i, j)) * scale) if i != j else 0
                     for j in range(d.n)] for i in range(d.n)]
        assert sweep_lanes(int_rows)[0] == per_row_sweep(int_rows) == expected
        raised += reference.norm0() > 0
    assert raised >= len(matrices) - 2


@st.composite
def sweep_inputs(draw):
    # Symmetric matrices with a zero diagonal on up to 14 vertices, weights
    # from a small range (zeros and ties) or a wide one, and optionally one
    # entry at the int64 guard (2**62 - 1 and 2**62), past it (2**63) or far
    # past it (2**200 + 1).
    n = draw(st.integers(min_value=0, max_value=14))
    top = draw(st.sampled_from((0, 1, 3, 10 ** 6, 2 ** 200)))
    pairs = list(combinations(range(n), 2))
    weights = draw(st.lists(st.integers(0, top), min_size=len(pairs), max_size=len(pairs)))
    rows = symmetric_rows(n, dict(zip(pairs, weights)))
    if pairs and draw(st.booleans()):
        i, j = draw(st.sampled_from(pairs))
        rows[i][j] = rows[j][i] = draw(st.sampled_from(
            (2 ** 62 - 1, 2 ** 62, 2 ** 63, 2 ** 200 + 1)))
    return rows


# Every entry 1 except one at 2**62 - 1: all its triangles are broken.
@example(symmetric_rows(6, {e: 2 ** 62 - 1 if e == (0, 5) else 1
                            for e in combinations(range(6), 2)}))
@given(sweep_inputs())
@settings(max_examples=300, deadline=None)
def test_screened_sweep_equals_the_per_row_sweep(rows):
    assert sweep_lanes(rows)[0] == per_row_sweep(rows)


@given(sweep_inputs())
@settings(max_examples=150, deadline=None)
def test_the_sweep_raises_only_columns_that_start_as_apexes(rows):
    # Why the kernel's screen is exact: no pass of the per-row sweep makes a
    # later column the apex of a broken triangle, so the input's apexes are
    # the only columns a pass can raise, and the kernel runs one pass each.
    start = apexes(rows)
    m = [row[:] for row in rows]
    for k in range(len(m)):
        assert k in start or k not in apexes(m)
        sweep_pass(m, k)
    assert sweep_lanes(rows) == (m, len(start))


def test_sweep_mends_a_triangle_it_breaks_with_a_later_apex():
    # Column 0's pass raises (2, 0) to m[2][1] - m[1][0] = 1, which breaks
    # (2, 0, 3), 1 > m[2][3] + m[0][3] = 0, although 3 is no apex of the
    # input.  The same pass raises (3, 0) to m[3][1] - m[1][0] = 1, which
    # mends it, so column 3's pass never runs.
    rows = symmetric_rows(4, {(1, 2): 1, (1, 3): 1})
    assert apexes(rows) == {0}
    assert 3 in apexes(symmetric_rows(4, {(1, 2): 1, (1, 3): 1, (0, 2): 1}))
    raised = symmetric_rows(4, {(1, 2): 1, (1, 3): 1, (0, 2): 1, (0, 3): 1})
    assert per_row_sweep(rows) == raised and apexes(raised) == set()
    assert sweep_lanes(rows) == (raised, 1)


@pytest.mark.parametrize("d", [
    DistanceMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    DistanceMatrix(symmetric_rows(9, dict.fromkeys(combinations(range(9), 2), 0))),
    DistanceMatrix(symmetric_rows(9, dict.fromkeys(combinations(range(9), 2), 1))),
    planted_complete(24, 0, seed=3).instance,
], ids=["triangle", "zeros", "ones", "planted24"])
def test_sweep_steps_no_row_of_a_metric_matrix(d):
    # A metric matrix has no broken triangle, so no column is an apex and no
    # column's pass runs: the kernel's work is the lane test of each edge.
    _, int_rows = scaled_rows(d)
    assert sweep_lanes(int_rows) == (int_rows, 0)


def test_sweep_kernel_choice_at_int64_guard(monkeypatch):
    # One kernel on both sides of the int64 guard: an entry of 2**62 - 1
    # gives 64-bit lanes, one of 2**62 gives 65-bit lanes, and the sweep
    # raises many cells to within a few units of it.
    import metric_repair.approx as approx

    widths = []
    lanes = approx._lanes
    monkeypatch.setattr(approx, "_lanes",
                        lambda n, top: widths.append(lanes(n, top)[0]) or lanes(n, top))
    for top, width in ((2 ** 62 - 1, 64), (2 ** 62, 65)):
        base = random_matrix(random.Random(10_200), 48)
        rows = [list(r) for r in base.rows()]
        rows[0][47] = rows[47][0] = top
        d = DistanceMatrix(rows)
        delta = matrix_sweep_repair(d)
        assert widths == [width]
        widths.clear()
        assert delta == fraction_sweep(d)
        assert max(v for _, v in delta.items()) > top - 20
        assert is_metric(apply_delta(d.to_graph(), delta))


def test_sweep_handles_fractional_entries():
    d = DistanceMatrix([
        [0, "0.5", 5],
        ["0.5", 0, "0.25"],
        [5, "0.25", 0]])
    delta = matrix_sweep_repair(d)
    assert is_metric(apply_delta(d.to_graph(), delta))
