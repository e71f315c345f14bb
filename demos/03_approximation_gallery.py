#!/usr/bin/env python3
"""Walkthrough: the approximation algorithms and their adversarial inputs.

Each algorithm comes with the instance family that exposes its behavior:

* the greedy path cover meets its ratio bound exactly on a one-heavy-edge
  cycle (it buys every bottom edge while one raise would do);
* the five-cycle cover handles complete instances by covering short cycles;
* the cubic raising sweep can touch (n-1)(n-2) cells where a handful would
  do, and on a dense block gadget its overshoot ratio is exactly
  2(1/gamma - 1).
"""

from fractions import Fraction

from metric_repair import (
    OmegaClass,
    apply_delta,
    brute_force_opt,
    five_cycle_cover,
    general_shortest_path_cover,
    is_metric,
    matrix_sweep_repair,
    repaired_cell_count,
    shortest_path_cover,
)
from metric_repair.gadgets import (
    cycle_tight,
    dense_block_matrix,
    planted_complete,
    sweep_worst_matrix,
)

print("== greedy path cover on the tight cycle ==")
for n in (5, 8, 12):
    g = cycle_tight(n)
    report = shortest_path_cover(g)
    opt = len(brute_force_opt(g, OmegaClass.INCREASE_ONLY)[0])
    print(f"n={n:2d}: cover={len(report.support):2d} edges, optimum={opt},"
          f" ratio={len(report.support) / opt:.0f} (= longest cycle - 1)")

g = cycle_tight(8)
gen = general_shortest_path_cover(g)
print(f"general variant also claims the heavy edge: {len(gen.support)} edges")

print("\n== five-cycle cover on complete instances ==")
d = planted_complete(9, 3, seed=11).instance
report = five_cycle_cover(d)
print(f"planted n=9 instance: stage-1 cover {len(report.stage_one_cover)} edges,"
      f" final support {len(report.support)}")
print("repaired is metric?", is_metric(apply_delta(d, report.delta)))

print("\n== matrix raising sweep ==")
for n in (5, 6, 8):
    cells = repaired_cell_count(matrix_sweep_repair(sweep_worst_matrix(n)))
    print(f"power matrix n={n}: sweep rewrites {cells} cells"
          f" (the ceiling (n-1)(n-2) = {(n - 1) * (n - 2)})")

d = dense_block_matrix(10, 4)
cells = repaired_cell_count(matrix_sweep_repair(d))
gamma = Fraction(4, 10)
print(f"dense block gadget n=10, gamma=0.4: sweep {cells} cells,"
      f" optimum 12, ratio {Fraction(cells, 12)} = 2(1/gamma - 1) = {2 * (1 / gamma - 1)}")
