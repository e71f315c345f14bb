"""Exact optimum solvers used as ground truth in tests and benches.

Both rest on the paper's support characterization: an increase-only or
general support admits a repair exactly when it meets the cover mask
(``detect.cover_masks``) of every broken cycle.  Neither enumerates those
cycles.  A Verifier rejection names a broken cycle that the support misses
(``exact._verify``), so the solvers learn masks from rejections as they go:
an implicit hitting set (Karp, CPM 2010; Moreno-Centeno and Karp, *Oper.
Res.* 61(2), 2013).

``brute_force_opt`` enumerates candidate supports by increasing cardinality
(lexicographic within a cardinality) and returns the first feasible one, so
the reported optimal support is deterministic even when many optima exist.
Feasibility of a support is decided one of two ways:

* increase-only / general -- a support that misses a learned mask is
  infeasible without a Verifier call; any other goes to the Verifier, and a
  rejection learns the mask of the cycle it names.  Every feasible support
  meets every learned mask, so the first accepted support and its repair are
  those of a plain Verifier walk;
* decrease-only -- assign every supported edge its original shortest-path
  distance and test the result for metricity.  Any decrease-only repair keeps
  each repaired edge at or below its original distance, so this entrywise
  maximal assignment is feasible exactly when some repair on the support is.

``minimum_cycle_cover`` solves the same covering problem over learned masks,
seeded with the broken triangles', by iterative deepening over the bounded
hitting-set search ``detect.hits_within`` that the FPT search cuts with,
instead of subset enumeration, so it scales past the enumeration's edge limit.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations

from .detect import (
    broken_triangles,
    cover_masks,
    edge_bits,
    hits_within,
    is_metric,
    mask_edges,
)
from .exact import _verify
from .graphs import (
    BrokenCycleWitness,
    EnumerationBudgetError,
    InputFormatError,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    apply_delta,
)
from .paths import apsp

DEFAULT_EDGE_LIMIT = 24
_EDGE_LIMIT_ENV = "METRIC_REPAIR_ORACLE_EDGE_LIMIT"


def _enumerable_edges(g: WeightedGraph, override: int | None) -> tuple:
    """``g.edges``, or ``EnumerationBudgetError`` past the edge limit."""
    raw = os.environ.get(_EDGE_LIMIT_ENV, str(DEFAULT_EDGE_LIMIT))
    try:
        limit = int(raw) if override is None else override
    except ValueError:
        raise InputFormatError(f"{_EDGE_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if g.m > limit:
        raise EnumerationBudgetError(f"support enumeration needs m <= {limit}, got m = {g.m}")
    return g.edges


def brute_force_opt(
    g: WeightedGraph,
    omega: OmegaClass,
    edge_limit: int | None = None,
) -> tuple[frozenset, RepairDelta]:
    """Smallest feasible support with one concrete repair on it.

    Refuses instances with more than the edge limit (default 24, overridable
    via the METRIC_REPAIR_ORACLE_EDGE_LIMIT environment variable) because the
    enumeration is a sum of binomials.
    """
    edges = _enumerable_edges(g, edge_limit)
    accept = _acceptance_test(g, omega)
    for size in range(len(edges) + 1):
        for combo in combinations(edges, size):
            result = accept(frozenset(combo))
            if result is not None:
                return frozenset(combo), result
    raise AssertionError("full support is always feasible")


def all_optimal_supports(
    g: WeightedGraph,
    omega: OmegaClass,
    edge_limit: int | None = None,
) -> tuple[int, tuple[frozenset, ...]]:
    """Optimal size together with *every* feasible support of that size.

    One walk by increasing size; its first size with a feasible support is
    the optimum.
    """
    edges = _enumerable_edges(g, edge_limit)
    accept = _acceptance_test(g, omega)
    for size in range(len(edges) + 1):
        found = tuple(frozenset(combo) for combo in combinations(edges, size)
                      if accept(frozenset(combo)) is not None)
        if found:
            return size, found
    raise AssertionError("full support is always feasible")


def _acceptance_test(g: WeightedGraph, omega: OmegaClass):
    if omega is OmegaClass.DECREASE_ONLY:
        base = apsp(g)
        scale, intw = g.integer_form()

        def accept_decrease(support: frozenset) -> RepairDelta | None:
            entries = {}
            for e in support:
                dist = base.edge(*e)
                if dist < intw[e]:
                    entries[e] = Fraction(dist - intw[e], scale)
            delta = RepairDelta(entries, OmegaClass.DECREASE_ONLY)
            return delta if is_metric(apply_delta(g, delta) if entries else g) else None

        return accept_decrease

    bit = edge_bits(g)
    learned: list[int] = []

    def accept_learning(support: frozenset) -> RepairDelta | None:
        hit = sum(bit[e] for e in support)
        if not all(mask & hit for mask in learned):
            return None
        delta, missed = _repair_or_missed_mask(g, support, omega)
        if delta is None:
            learned.append(missed)
        return delta

    return accept_learning


def _repair_or_missed_mask(g: WeightedGraph, support: frozenset,
                           omega: OmegaClass) -> tuple[RepairDelta | None, int]:
    """The Verifier's repair on ``support``; on a rejection, None and the
    cover mask of the broken cycle it names, which ``support`` misses."""
    outcome, top, d = _verify(g, support, omega)
    if top is None:
        return outcome.delta, 0
    witness = BrokenCycleWitness(d.path(*top), top)
    return None, cover_masks(g, [witness], omega)[0]


def minimum_cycle_cover(g: WeightedGraph, omega: OmegaClass) -> tuple[int, frozenset]:
    """Exact optimal support size, and one optimal support, by lazy covering.

    Starts from the broken triangles' cover masks, finds a minimum set of
    edges meeting them all, and asks the Verifier about it.  A rejection adds
    the mask of the cycle it names, and the search runs again.  Each round's
    minimum meets only some of the broken cycles' masks, so it bounds the
    optimum from below; the Verifier is exact, so the first accepted support
    is optimal.

    A round's minimum is the first cover that ``detect.hits_within`` finds
    over the masks sorted by size, at ``size = 0, 1, ...``; a round starts at
    the last round's size, since more masks need no fewer edges.
    """
    if omega is OmegaClass.DECREASE_ONLY:
        raise PreconditionError("covering characterizes increase-only and general repairs")
    requirements = cover_masks(g, broken_triangles(g), omega)
    size = 0
    while True:
        requirements.sort(key=lambda mask: (bin(mask).count("1"), mask))
        while (chosen := hits_within(requirements, 0, size)) is None:
            size += 1
        support = frozenset(mask_edges(g, chosen))
        delta, missed = _repair_or_missed_mask(g, support, omega)
        if delta is not None:
            return size, support
        assert not missed & chosen  # so no round repeats a support
        requirements.append(missed)
