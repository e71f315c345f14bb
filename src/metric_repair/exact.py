"""Polynomial-time exact pieces: support verification and decrease-only repair.

``verify_support`` decides, in one shortest-path computation, whether a set of
edges S can carry a valid repair: raise every S-edge to the maximum weight M,
recompute each edge's weight as the distance between its endpoints in that
modified graph, and accept iff only S-edges moved relative to the *original*
weights (and, in increase-only mode, no S-edge moved down).  An S-edge whose
endpoints are otherwise disconnected keeps weight M.  Acceptance is equivalent
to the existence of any valid repair supported inside S, and the reassigned
weights themselves form one such repair.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

from .detect import broken_cycles
from .graphs import (
    EnumerationBudgetError,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    edge_key,
)
from .paths import _scaled_apsp, apsp

Support = frozenset


def normalize_support(g: WeightedGraph, edges: Iterable[tuple[int, int]]) -> frozenset:
    """Normalize a set of edges and check that each one exists in ``g``."""
    out = set()
    for e in edges:
        key = edge_key(*e)
        if not g.has_edge(*key):
            raise ValueError(f"support edge {key} is not an edge of the graph")
        out.add(key)
    return frozenset(out)


class RejectionReason(Enum):
    CHANGED_OUTSIDE_SUPPORT = "changed-outside-support"
    DECREASED_IN_INCREASE_MODE = "decreased-in-increase-mode"


class VerifierOutcome(NamedTuple):
    delta: RepairDelta | None
    reason: RejectionReason | None

    @property
    def accepted(self) -> bool:
        return self.delta is not None


def verify_support(g: WeightedGraph, support: Iterable[tuple[int, int]],
                   omega: OmegaClass) -> VerifierOutcome:
    """Decide whether some valid repair has its support inside ``support``.

    Only the increase-only and general sign classes are meaningful here;
    decrease-only repair has a closed-form solver (``decrease_repair``) and is
    rejected as a precondition violation.
    """
    if omega is OmegaClass.DECREASE_ONLY:
        raise PreconditionError("verify_support handles increase-only and general repairs")
    s = normalize_support(g, support)
    scale, intw = g.integer_form()
    cap = max(intw.values(), default=0)
    d = _scaled_apsp(g.n, scale, {**intw, **dict.fromkeys(s, cap)})

    # Each source is searched, only as far as its edges reach, when the edge
    # walk first reads it, so a rejection stops early.
    entries: dict[tuple[int, int], Fraction] = {}
    for (u, v), old in intw.items():
        new = d.edge(u, v)
        if new == old:
            continue
        if (u, v) not in s:
            return VerifierOutcome(None, RejectionReason.CHANGED_OUTSIDE_SUPPORT)
        if omega is OmegaClass.INCREASE_ONLY and new < old:
            return VerifierOutcome(None, RejectionReason.DECREASED_IN_INCREASE_MODE)
        entries[(u, v)] = Fraction(new - old, scale)
    return VerifierOutcome(RepairDelta(entries, omega), None)


def decrease_repair(g: WeightedGraph) -> RepairDelta:
    """Sparsest decrease-only repair: pull each long edge down to its distance.

    Every edge strictly longer than the shortest path between its endpoints
    must shrink in any decrease-only repair, and shrinking each one exactly to
    that distance already yields a metric graph.  The result is therefore the
    unique minimum-support solution, and entrywise-largest, which also makes it
    minimal in every l_p norm for finite p.
    """
    d = apsp(g)
    entries = {}
    for (u, v), w in d.intw.items():
        dist = d.edge(u, v)
        if dist < w:
            entries[(u, v)] = Fraction(dist - w, d.scale)
    return RepairDelta(entries, OmegaClass.DECREASE_ONLY)


def covers_broken_cycles(g: WeightedGraph, support: Iterable[tuple[int, int]],
                         omega: OmegaClass, budget: int) -> bool:
    """Exhaustively check the combinatorial support characterization.

    General mode: ``support`` meets every broken cycle in some edge.
    Increase-only mode: ``support`` contains a bottom edge of every broken
    cycle.  Enumerates every simple cycle, so it refuses graphs with more
    than ``budget`` vertices.
    """
    if omega is OmegaClass.DECREASE_ONLY:
        raise PreconditionError("the support characterization covers increase-only and general")
    if g.n > budget:
        raise EnumerationBudgetError(
            f"cycle enumeration needs n <= {budget}, got n = {g.n}")
    s = normalize_support(g, support)
    for witness in broken_cycles(g):
        if omega is OmegaClass.GENERAL:
            if not any(e in s for e in witness.edges()):
                return False
        else:
            if not any(e in s for e in witness.bottom_edges()):
                return False
    return True
