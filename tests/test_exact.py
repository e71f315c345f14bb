"""Support Verifier, decrease-only repair and the covering characterization."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

from metric_repair import (
    OmegaClass,
    PreconditionError,
    RejectionReason,
    RepairDelta,
    WeightedGraph,
    apply_delta,
    covers_broken_cycles,
    decrease_repair,
    is_metric,
    verify_support,
)
from metric_repair import paths
from metric_repair.gadgets import cycle_tight
from metric_repair.oracle import brute_force_opt
from metric_repair.paths import apsp

from conftest import all_simple_path_dist, random_graph, random_mixed_instance


C5 = WeightedGraph(5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
METRIC_TRIANGLE = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def powerset(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def reference_verify(g, support, omega):
    """The Verifier on Fractions: raise the support, re-measure every edge by brute force."""
    s = frozenset(support)
    raised = g.replace_weights({e: g.max_weight() for e in s})
    entries, weights = {}, g.weight_map()
    for u, v in g.edges:  # edge order, whatever order the graph was built in
        old, new = weights[(u, v)], all_simple_path_dist(raised, u, v)
        if new == old:
            continue
        if (u, v) not in s:
            return False, RejectionReason.CHANGED_OUTSIDE_SUPPORT, None
        if omega is OmegaClass.INCREASE_ONLY and new < old:
            return False, RejectionReason.DECREASED_IN_INCREASE_MODE, None
        entries[(u, v)] = new - old
    return True, None, RepairDelta(entries, omega)


# -- verifier -----------------------------------------------------------------


def test_verifier_rejects_empty_support_on_broken_graph():
    out = verify_support(C5, [], OmegaClass.INCREASE_ONLY)
    assert not out.accepted
    assert out.reason is RejectionReason.CHANGED_OUTSIDE_SUPPORT


def test_verifier_accepts_empty_support_on_metric_graph():
    out = verify_support(METRIC_TRIANGLE, [], OmegaClass.GENERAL)
    assert out.accepted
    assert out.delta.norm0() == 0


def test_verifier_bottom_edge_on_c5():
    # The chosen bottom edge rises to the weight cap (its detour through the
    # heavy edge costs 8 > 5) and the result is metric.
    out = verify_support(C5, [(2, 3)], OmegaClass.INCREASE_ONLY)
    assert out.accepted
    assert dict(out.delta.items()) == {(2, 3): Fraction(4)}
    assert is_metric(apply_delta(C5, out.delta))


def test_verifier_top_edge_rejected_in_increase_mode():
    out = verify_support(C5, [(0, 1)], OmegaClass.INCREASE_ONLY)
    assert not out.accepted
    assert out.reason is RejectionReason.DECREASED_IN_INCREASE_MODE


def test_verifier_top_edge_accepted_in_general_mode():
    out = verify_support(C5, [(0, 1)], OmegaClass.GENERAL)
    assert out.accepted
    assert dict(out.delta.items()) == {(0, 1): Fraction(-1)}
    assert out.delta.entries == decrease_repair(C5).entries


def test_verifier_bridge_in_support_lands_at_weight_cap():
    # A supported edge whose endpoints disconnect without it has no detour to
    # inherit, so its reassigned weight is exactly the cap M.
    g = WeightedGraph(4, [(0, 1, 9), (1, 2, 1), (0, 2, 1), (2, 3, 2)])
    out = verify_support(g, [(0, 1), (2, 3)], OmegaClass.GENERAL)
    assert out.accepted
    assert dict(out.delta.items()) == {(0, 1): Fraction(-7), (2, 3): Fraction(7)}
    fixed = apply_delta(g, out.delta)
    assert fixed.weight(2, 3) == g.max_weight() == 9
    assert is_metric(fixed)


def test_verifier_rejects_decrease_mode_and_unknown_edges():
    with pytest.raises(PreconditionError):
        verify_support(C5, [], OmegaClass.DECREASE_ONLY)
    with pytest.raises(ValueError):
        verify_support(C5, [(0, 2)], OmegaClass.GENERAL)


def test_verifier_delta_support_stays_inside_queried_support():
    for seed in range(25):
        rng = random.Random(seed)
        g = random_graph(rng, 5, 8, weights=(0, 8))
        support = frozenset(rng.sample(g.edges, 3))
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            out = verify_support(g, support, omega)
            if out.accepted:
                assert out.delta.support <= support
                fixed = apply_delta(g, out.delta)
                assert is_metric(fixed)


def test_verifier_acceptance_is_monotone_in_support():
    for seed in range(20):
        rng = random.Random(100 + seed)
        g = random_graph(rng, 5, 7, weights=(0, 7))
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            accepted = [frozenset(s) for s in powerset(g.edges)
                        if verify_support(g, s, omega).accepted]
            accepted_set = set(accepted)
            for s in accepted:
                for extra in g.edges:
                    assert (s | {extra}) in accepted_set


def test_verifier_matches_covering_characterization_exhaustively():
    # Accept iff the support covers every broken cycle (any edge for general,
    # a bottom edge for increase-only), over every subset of every instance.
    for seed in range(12):
        rng = random.Random(200 + seed)
        g = random_graph(rng, 5, rng.randint(4, 9), weights=(0, 6))
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            for s in powerset(g.edges):
                verified = verify_support(g, s, omega).accepted
                covered = covers_broken_cycles(g, s, omega, budget=6)
                assert verified == covered, (seed, omega, s)


def test_verifier_matches_fraction_reference():
    # Mixed denominators, zero weights, and one instance whose common
    # denominator (2097143 * 2097169 * 2097211) is past 2^62.
    graphs = []
    for seed in range(16):
        rng = random.Random(500 + seed)
        g = random_graph(rng, 6, rng.randint(5, 11), weights=(0, 9))
        graphs.append(g.replace_weights(
            {e: g.weight(*e) / rng.choice((1, 2, 3, 5, 7)) for e in g.edges}))
    base = random_graph(random.Random(520), 6, 10, weights=(0, 9))
    big = base.replace_weights({e: base.weight(*e) + Fraction(1, p)
                                for e, p in zip(base.edges, (2097143, 2097169, 2097211))})
    assert big.integer_form()[0] > 2 ** 62
    graphs.append(big)
    assert any(g.weight(*e) == 0 for g in graphs for e in g.edges)
    reasons = set()
    for i, g in enumerate(graphs):
        rng = random.Random(600 + i)
        for size in (0, 1, 2, 3, len(g.edges) // 2, len(g.edges)):
            support = frozenset(rng.sample(g.edges, size))
            for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
                out = verify_support(g, support, omega)
                expected = reference_verify(g, support, omega)
                assert (out.accepted, out.reason, out.delta) == expected, (i, support, omega)
                reasons.add(out.reason)
    assert reasons == {None, *RejectionReason}


def test_verifier_rejection_stops_at_first_moved_edge(monkeypatch):
    # The first edge in weight-map order, (0, 1), drops from 5 to 2 outside
    # the support, so the Verifier needs one search from vertex 0 and nothing
    # more.  The wrapper reads the source, ``_dijkstra``'s second argument.
    g = WeightedGraph(8, [(0, 1, 5), (0, 2, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
                          (4, 5, 1), (5, 6, 1), (6, 7, 1)])
    searches = []
    real = paths._dijkstra
    monkeypatch.setattr(paths, "_dijkstra",
                        lambda *args: searches.append(args[1]) or real(*args))
    out = verify_support(g, [(6, 7)], OmegaClass.GENERAL)
    assert out.reason is RejectionReason.CHANGED_OUTSIDE_SUPPORT
    assert searches == [0]


def test_covering_check_examples():
    assert covers_broken_cycles(METRIC_TRIANGLE, [], OmegaClass.INCREASE_ONLY, 5)
    # the top edge is not a bottom edge, so it covers nothing in increase mode
    assert not covers_broken_cycles(C5, [(0, 1)], OmegaClass.INCREASE_ONLY, 6)
    assert covers_broken_cycles(C5, [(0, 1)], OmegaClass.GENERAL, 6)
    with pytest.raises(PreconditionError):
        covers_broken_cycles(C5, [], OmegaClass.DECREASE_ONLY, 6)


# -- decrease repair ------------------------------------------------------------


def test_decrease_repair_on_tight_cycle():
    delta = decrease_repair(cycle_tight(5))
    assert dict(delta.items()) == {(0, 1): Fraction(-1)}
    assert is_metric(apply_delta(cycle_tight(5), delta))


def test_decrease_repair_on_metric_graph_is_empty():
    assert decrease_repair(METRIC_TRIANGLE).norm0() == 0


def test_decrease_repair_touches_exactly_long_edges():
    for seed in range(20):
        rng = random.Random(300 + seed)
        g = random_mixed_instance(seed=300 + seed)
        delta = decrease_repair(g)
        d = apsp(g)
        expected = {e for e in g.edges if d.dist(*e) < g.weight(*e)}
        assert delta.support == frozenset(expected)
        assert is_metric(apply_delta(g, delta))


def test_decrease_repair_is_sparsest_and_l1_minimal():
    # Against the enumeration oracle: no smaller support works, and over all
    # feasible supports the canonical assignment never beats its l1 norm.
    for seed in range(12):
        g = random_mixed_instance(seed=400 + seed, max_n=5, max_m=8)
        delta = decrease_repair(g)
        found = brute_force_opt(g, OmegaClass.DECREASE_ONLY)
        assert found is not None
        support, oracle_delta = found
        assert len(support) == delta.norm0()
        assert oracle_delta == delta
        base = apsp(g)
        best_l1 = None
        for s in powerset(g.edges):
            entries = {e: base.dist(*e) - g.weight(*e) for e in s
                       if base.dist(*e) < g.weight(*e)}
            candidate = apply_delta(g, RepairDelta(entries, OmegaClass.DECREASE_ONLY))
            if is_metric(candidate):
                l1 = sum((abs(v) for v in entries.values()), Fraction(0))
                if best_l1 is None or l1 < best_l1:
                    best_l1 = l1
        assert best_l1 == delta.norm1()
