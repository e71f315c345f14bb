#!/usr/bin/env python3
"""Walkthrough: fixed-parameter repair on chordal graphs.

On chordal graphs any broken cycle forces a broken triangle, which makes a
bounded-branching search possible: maintain a partial support S and a small
candidate pool P, branch over P, and ask the Verifier once |S| hits the
budget.  Iterative deepening over the budget recovers the optimum.

Every node is cut when more than k - |S| broken triangles that S misses pairwise
share no edge a repair could mend them on (bottom edges for increase-only,
all three for general): each needs an edge of its own, and a support missing
one leaves that triangle broken.  So the Verifier only sees supports that meet
every broken triangle, and the ``nodes`` counts stay small.
"""

from metric_repair import OmegaClass, brute_force_opt, fpt_min_repair, is_chordal
from metric_repair.fpt import POOL_BOUND_FACTOR, fpt_increase
from metric_repair.gadgets import planted_chordal

inst = planted_chordal(n=10, k=3, seed=42)
g = inst.instance
print("random chordal instance: n =", g.n, " m =", g.m)
print("chordal?", is_chordal(g))
print("edges corrupted by the generator:", sorted(inst.planted_support))

print("\n== budget sweep (increase-only) ==")
for k in range(4):
    result = fpt_increase(g, k)
    pool_cap = POOL_BOUND_FACTOR[OmegaClass.INCREASE_ONLY] * k * k
    print(f"k={k}: found={result.found}  "
          f"nodes={result.stats.nodes}  "
          f"pool peak={result.stats.max_pool} (cap {pool_cap})")
    if result.found:
        print("   support:", sorted(result.support))
        break

print("\n== iterative deepening vs. brute force ==")
for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
    auto = fpt_min_repair(g, omega)
    oracle_support, _ = brute_force_opt(g, omega)
    print(f"omega={omega.value:9s} fpt optimum {len(auto.support)}  "
          f"oracle optimum {len(oracle_support)}")

print("\nThe general class can be strictly cheaper: one decrease may replace")
print("several increases when a single heavy edge tops many broken cycles.")
