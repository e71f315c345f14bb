"""Brute-force optimum solvers used as ground truth in tests and benches.

``brute_force_opt`` enumerates candidate supports by increasing cardinality
(lexicographic within a cardinality) and returns the first feasible one, so
the reported optimal support is deterministic even when many optima exist.

Feasibility of a support is decided one of three ways:

* increase-only / general, ``method="verifier"`` -- run the cubic Verifier;
* increase-only / general, ``method="cycles"`` -- enumerate every broken cycle
  once and test that the support covers each of them (any edge in the general
  case, a bottom edge in the increase case); equivalent to the Verifier but far
  faster inside subset loops;
* decrease-only -- assign every supported edge its original shortest-path
  distance and test the result for metricity.  Any decrease-only repair keeps
  each repaired edge at or below its original distance, so this entrywise
  maximal assignment is feasible exactly when some repair on the support is.

``minimum_cycle_cover`` solves the same covering problem by branch and bound
instead of subset enumeration, which scales to denser instances where
cardinality enumeration is hopeless.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations

from .detect import broken_cycles, cover_masks, edge_bits, is_metric
from .exact import verify_support
from .graphs import (
    EnumerationBudgetError,
    InputFormatError,
    OmegaClass,
    RepairDelta,
    WeightedGraph,
)
from .paths import apsp

DEFAULT_EDGE_LIMIT = 24
_EDGE_LIMIT_ENV = "METRIC_REPAIR_ORACLE_EDGE_LIMIT"


def _edge_limit(override: int | None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(_EDGE_LIMIT_ENV, str(DEFAULT_EDGE_LIMIT))
    try:
        return int(raw)
    except ValueError:
        raise InputFormatError(f"{_EDGE_LIMIT_ENV} must be an integer, got {raw!r}") from None


def brute_force_opt(
    g: WeightedGraph,
    omega: OmegaClass,
    max_support: int | None = None,
    edge_limit: int | None = None,
    method: str = "verifier",
) -> tuple[frozenset, RepairDelta] | None:
    """Smallest feasible support with one concrete repair on it.

    Returns None when no support of size at most ``max_support`` works.
    Refuses instances with more than the edge limit (default 24, overridable
    via the METRIC_REPAIR_ORACLE_EDGE_LIMIT environment variable) because the
    enumeration is a sum of binomials.
    """
    edges = g.edges
    limit = _edge_limit(edge_limit)
    if len(edges) > limit:
        raise EnumerationBudgetError(
            f"support enumeration needs m <= {limit}, got m = {len(edges)}")
    if max_support is None:
        max_support = len(edges)
    accept = _acceptance_test(g, omega, method)
    for size in range(min(max_support, len(edges)) + 1):
        for combo in combinations(edges, size):
            result = accept(frozenset(combo))
            if result is not None:
                return frozenset(combo), result
    return None


def all_optimal_supports(
    g: WeightedGraph,
    omega: OmegaClass,
    edge_limit: int | None = None,
    method: str = "verifier",
) -> tuple[int, tuple[frozenset, ...]]:
    """Optimal size together with *every* feasible support of that size."""
    first = brute_force_opt(g, omega, edge_limit=edge_limit, method=method)
    assert first is not None  # full support is always feasible
    opt = len(first[0])
    accept = _acceptance_test(g, omega, method)
    found = [frozenset(combo) for combo in combinations(g.edges, opt)
             if accept(frozenset(combo)) is not None]
    return opt, tuple(found)


def _acceptance_test(g: WeightedGraph, omega: OmegaClass, method: str):
    if omega is OmegaClass.DECREASE_ONLY:
        base = apsp(g)
        weights = g.weight_map()

        def accept_decrease(support: frozenset) -> RepairDelta | None:
            entries = {}
            for e in support:
                dist = Fraction(base.edge(*e), base.scale)
                if dist < weights[e]:
                    entries[e] = dist - weights[e]
            candidate = g.replace_weights(
                {e: weights[e] + v for e, v in entries.items()}) if entries else g
            if is_metric(candidate):
                return RepairDelta(entries, OmegaClass.DECREASE_ONLY)
            return None

        return accept_decrease

    if method == "verifier":

        def accept_verifier(support: frozenset) -> RepairDelta | None:
            outcome = verify_support(g, support, omega)
            return outcome.delta

        return accept_verifier

    if method == "cycles":
        requirements = _cover_requirements(g, omega)
        edge_bit = edge_bits(g)

        def accept_cycles(support: frozenset) -> RepairDelta | None:
            mask = 0
            for e in support:
                mask |= edge_bit[e]
            if all(req & mask for req in requirements):
                outcome = verify_support(g, support, omega)
                assert outcome.accepted  # covering and verifying coincide
                return outcome.delta
            return None

        return accept_cycles

    raise ValueError(f"unknown oracle method {method!r}")


def _cover_requirements(g: WeightedGraph, omega: OmegaClass,
                        max_len: int | None = None) -> list[int]:
    """``cover_masks`` of every broken cycle with up to ``max_len`` edges."""
    return cover_masks(g, broken_cycles(g, max_len=max_len), omega)


def minimum_cycle_cover(
    g: WeightedGraph,
    omega: OmegaClass,
    max_cycle_len: int | None = None,
) -> tuple[int, frozenset]:
    """Exact minimum cover of the broken cycles, by branch and bound.

    With ``max_cycle_len=None`` every broken cycle is enumerated, so the result
    equals the true optimal support size for the given sign class.  Capping the
    cycle length yields a lower bound on it instead (fewer constraints).

    Branching picks the first unhit cycle (cycles sorted by candidate count)
    and tries each of its admissible edges in index order, keeping the first
    best cover found, so the result is deterministic.
    """
    if omega is OmegaClass.DECREASE_ONLY:
        raise ValueError("covering characterizes increase-only and general repairs")
    edges = g.edges
    requirements = _cover_requirements(g, omega, max_cycle_len)
    if not requirements:
        return 0, frozenset()
    requirements.sort(key=lambda mask: (bin(mask).count("1"), mask))
    full_mask = (1 << len(edges)) - 1
    best: list = [len(edges) + 1, full_mask]

    def first_unhit(chosen: int) -> int | None:
        for req in requirements:
            if not req & chosen:
                return req
        return None

    def search(chosen: int, count: int) -> None:
        if count >= best[0]:
            return
        req = first_unhit(chosen)
        if req is None:
            best[0] = count
            best[1] = chosen
            return
        bit = 1
        rem = req
        while rem:
            if rem & 1:
                search(chosen | bit, count + 1)
            rem >>= 1
            bit <<= 1

    search(0, 0)
    assert best[0] <= len(edges)  # the full edge set always covers
    support = frozenset(e for i, e in enumerate(edges) if best[1] >> i & 1)
    return best[0], support
