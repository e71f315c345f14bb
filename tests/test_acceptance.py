"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (integer or rational equality) unless a
runtime budget is stated.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import chain, combinations

from metric_repair import (
    DistanceMatrix,
    OmegaClass,
    WeightedGraph,
    apply_delta,
    brute_force_opt,
    covers_broken_cycles,
    decrease_repair,
    five_cycle_cover,
    fpt_min_repair,
    general_shortest_path_cover,
    is_metric,
    longest_broken_cycle_len,
    matrix_sweep_repair,
    minimum_cycle_cover,
    repaired_cell_count,
    shortest_path_cover,
    verify_support,
)
from metric_repair.fpt import POOL_BOUND_FACTOR
from metric_repair.gadgets import (
    completed_cycle,
    cycle_fig_one,
    cycle_tight,
    dense_block_matrix,
    planted_chordal,
    planted_complete,
    random_connected_graph,
    suspension,
    sweep_worst_matrix,
)

from conftest import min_vertex_cover_size, random_matrix, random_mixed_instance


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_decrease_solver_matches_oracle_within_budget():
    # 200 random instances, n <= 6 and m <= 12, mixed sparse/complete: the
    # closed-form decrease repair equals the enumeration optimum exactly.
    start = time.perf_counter()
    for seed in range(200):
        g = random_mixed_instance(seed=20_000 + seed, max_n=6, max_m=12)
        delta = decrease_repair(g)
        found = brute_force_opt(g, OmegaClass.DECREASE_ONLY)
        assert found is not None
        assert delta.norm0() == len(found[0]), seed
        assert is_metric(apply_delta(g, delta))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("1", f"200 instances, {elapsed:.2f}s")


def test_criterion_02_verifier_equals_covering_for_every_subset():
    # 30 instances with m <= 10: for every subset of edges and both sign
    # classes, Verifier acceptance coincides with the cycle-covering test.
    checked = 0
    for seed in range(30):
        g = random_mixed_instance(seed=21_000 + seed, max_n=6, max_m=10)
        subsets = list(chain.from_iterable(
            combinations(g.edges, r) for r in range(g.m + 1)))
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            for s in subsets:
                verified = verify_support(g, s, omega).accepted
                covered = covers_broken_cycles(g, s, omega, budget=6)
                assert verified == covered, (seed, omega, s)
                checked += 1
    _report("2", f"{checked} subset checks, zero mismatches")


def test_criterion_03_fpt_optimal_on_planted_chordal_instances():
    # 100 planted chordal instances (n <= 10, m <= 24, plant <= 3): iterative
    # deepening matches the oracle in both classes and the candidate pool
    # stays within its bound.
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        rng = random.Random(22_000 + seed)
        inst = planted_chordal(n=rng.randint(6, 10), k=rng.randint(1, 3),
                               seed=22_000 + seed)
        g = inst.instance
        if g.m > 24:
            continue
        count += 1
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            auto = fpt_min_repair(g, omega)
            oracle = brute_force_opt(g, omega)
            assert len(auto.support) == len(oracle[0]), (seed, omega)
            bound = POOL_BOUND_FACTOR[omega] * auto.budget ** 2
            assert auto.stats.max_pool <= bound
            assert auto.stats.pool_clamp_events == 0
    _report("3", "100 instances, both classes, pool bounds held")


def test_criterion_04_path_cover_tightness_on_heavy_cycles():
    for n in (5, 8, 12):
        g = cycle_tight(n)
        report = shortest_path_cover(g)
        opt = brute_force_opt(g, OmegaClass.INCREASE_ONLY)
        assert len(report.support) == n - 1
        assert len(opt[0]) == 1
        ratio = Fraction(len(report.support), len(opt[0]))
        assert ratio == longest_broken_cycle_len(g, budget=12) - 1 == n - 1
    _report("4", "ratio equals the longest-cycle bound at n=5,8,12")


def test_criterion_05_path_cover_bounds_never_violated():
    # 100 random oracle-sized instances: increase cover within L*OPT, general
    # cover within (L+1)*OPT, and the outer loop within OPT+1 passes.
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        g = random_mixed_instance(seed=23_000 + seed, max_n=6, max_m=12)
        longest = longest_broken_cycle_len(g, budget=6)
        if longest is None:
            continue
        checked += 1
        ratio_l = longest - 1
        inc_opt = len(brute_force_opt(g, OmegaClass.INCREASE_ONLY)[0])
        gen_opt = len(brute_force_opt(g, OmegaClass.GENERAL)[0])
        spc = shortest_path_cover(g)
        gspc = general_shortest_path_cover(g)
        assert len(spc.support) <= ratio_l * inc_opt, seed
        assert len(gspc.support) <= (ratio_l + 1) * gen_opt, seed
        assert spc.iterations <= inc_opt + 1, seed
    _report("5", "100 broken instances, zero violations")


def test_criterion_06_sweep_worst_case_and_cap():
    for n, cells in ((5, 12), (6, 20), (8, 42)):
        delta = matrix_sweep_repair(sweep_worst_matrix(n))
        assert repaired_cell_count(delta) == cells
    rng = random.Random(24_000)
    for _ in range(500):
        n = rng.randint(2, 12)
        d = random_matrix(rng, n, top=rng.choice((3, 10, 40)))
        delta = matrix_sweep_repair(d)
        assert repaired_cell_count(delta) <= (n - 1) * (n - 2)
    _report("6", "worst cases exact (12/20/42); 500 random matrices under cap")


def test_criterion_07_dense_gadget_ratio_exact():
    d = dense_block_matrix(10, 4)
    sweep_cells = repaired_cell_count(matrix_sweep_repair(d))
    assert sweep_cells == 36
    g = d.to_graph()
    # the exact optimum equals the explicit zero-block rewrite, which the
    # Verifier accepts
    opt, _ = minimum_cycle_cover(g, OmegaClass.INCREASE_ONLY)
    block_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    outcome = verify_support(g, block_pairs, OmegaClass.INCREASE_ONLY)
    assert outcome.accepted
    assert opt == len(block_pairs) == 6
    opt_cells = 2 * opt
    assert opt_cells == 12
    gamma = Fraction(4, 10)
    assert Fraction(sweep_cells, opt_cells) == 2 * (1 / gamma - 1) == 3
    _report("7", "sweep 36 cells vs optimal 12, ratio exactly 3")


def test_criterion_08_suspension_equals_vertex_cover():
    rng = random.Random(25_000)
    cases = 0
    while cases < 50:
        n = rng.randint(2, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        base = random_connected_graph(n, m, rng)
        g = suspension(n, base)
        vc = min_vertex_cover_size(n, base)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            found = brute_force_opt(g, omega)
            assert len(found[0]) == vc, (n, base, omega)
        cases += 1
    _report("8", "50 random connected bases, both classes equal cover size")


def test_criterion_09_completion_blow_up():
    for n in range(4, 9):
        g = cycle_fig_one(n)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            found = brute_force_opt(g, omega)
            assert len(found[0]) == 1, (n, omega)
    recorded = {}
    for n in (6, 8):
        g = completed_cycle(n)
        size, support = minimum_cycle_cover(g, OmegaClass.INCREASE_ONLY)
        assert verify_support(g, support, OmegaClass.INCREASE_ONLY).accepted
        recorded[n] = size
        assert size >= n / 4
    assert recorded == {6: 4, 8: 6}  # exact values: n - 2
    _report("9", f"sparse optimum 1 at n=4..8; completed optima {recorded}")


def test_criterion_10_every_solver_output_is_valid():
    # Blanket validity: every produced repair leaves a metric graph and obeys
    # its sign class.  Sign compliance is also checked structurally when the
    # delta is built; here it is re-checked on the emitted values.
    cases = 0

    def check(graph, delta, omega):
        nonlocal cases
        assert all(omega.allows(v) for _, v in delta.items())
        assert is_metric(apply_delta(graph, delta))
        cases += 1

    for seed in range(150):
        g = random_mixed_instance(seed=26_000 + seed, max_n=7, max_m=15)
        check(g, decrease_repair(g), OmegaClass.DECREASE_ONLY)
        spc = shortest_path_cover(g)
        check(g, spc.delta, OmegaClass.INCREASE_ONLY)
        gspc = general_shortest_path_cover(g)
        check(g, gspc.delta, OmegaClass.GENERAL)
        if g.m <= 12:
            for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL,
                          OmegaClass.DECREASE_ONLY):
                found = brute_force_opt(g, omega)
                check(g, found[1], omega)
    rng = random.Random(27_000)
    for i in range(100):
        d = random_matrix(rng, rng.randint(3, 8))
        g = d.to_graph()
        check(g, matrix_sweep_repair(d), OmegaClass.INCREASE_ONLY)
        check(g, five_cycle_cover(d).delta, OmegaClass.INCREASE_ONLY)
    for seed in range(40):
        inst = planted_chordal(n=8, k=2, seed=28_000 + seed)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            check(inst.instance, fpt_min_repair(inst.instance, omega).delta, omega)
    for seed in range(10):
        d = planted_complete(8, 3, seed=29_000 + seed).instance
        g = d.to_graph()
        check(g, matrix_sweep_repair(d), OmegaClass.INCREASE_ONLY)
        check(g, five_cycle_cover(d).delta, OmegaClass.INCREASE_ONLY)
        check(g, shortest_path_cover(g).delta, OmegaClass.INCREASE_ONLY)
    assert cases >= 1000
    _report("10", f"{cases} solver outputs, all metric and sign-compliant")


def test_criterion_11_runtime_sanity_at_scale():
    def timed_decrease(n: int) -> float:
        d = planted_complete(n, 5, seed=n).instance
        g = d.to_graph()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            decrease_repair(WeightedGraph(
                n, ((u, v, g.weight(u, v)) for (u, v) in g.edges)))
            best = min(best, time.perf_counter() - t0)
        return best

    t400 = timed_decrease(400)
    t200 = timed_decrease(200)
    d400 = planted_complete(400, 5, seed=401).instance
    t0 = time.perf_counter()
    matrix_sweep_repair(d400)
    sweep_400 = time.perf_counter() - t0
    assert t400 < 30.0
    assert sweep_400 < 30.0
    assert t400 < 12 * t200, f"scaling {t400 / t200:.1f}x"
    _report("11", f"decrease n=400 {t400:.2f}s, sweep n=400 {sweep_400:.2f}s, "
                  f"200->400 scaling {t400 / t200:.1f}x")
