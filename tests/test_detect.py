"""Broken-cycle detection against independent permutation-based enumeration."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_repair import (
    DistanceMatrix,
    EnumerationBudgetError,
    OmegaClass,
    WeightedGraph,
    broken_cycles,
    broken_triangles,
    find_broken_witness,
    instance_stats,
    is_metric,
    longest_broken_cycle_len,
    verify_support,
)
from metric_repair import detect
from metric_repair.detect import cover_masks, edge_bits
from metric_repair.exact import RejectionReason, _verify
from metric_repair.gadgets import planted_complete, random_chordal_edges
from metric_repair.graphs import BrokenCycleWitness, _top_edge, edge_key
from metric_repair.paths import _lane_rows, _lanes, apsp

from conftest import (
    broken_cycles_brute,
    enumerate_cycles_by_permutation,
    full_relaxation,
    is_metric_brute,
    random_graph,
    tree_sweep_graphs,
)


def test_equilateral_triangle_is_metric():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert is_metric(g)


def test_heavy_c4_is_broken():
    g = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert not is_metric(g)
    w = find_broken_witness(g)
    assert w is not None
    assert sorted(w.cycle) == [0, 1, 2, 3]
    assert w.top_edge == (0, 1)
    w.check(g)


def test_boundary_equality_is_metric():
    # top weight equals the sum of the rest: not broken (strict inequality)
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    assert is_metric(g)
    assert broken_triangles(g) == ()


def test_metric_graph_has_no_witness():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert find_broken_witness(g) is None


def test_is_metric_matches_bruteforce_cycle_scan():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_graph(rng, n, m, weights=(0, 8))
        assert is_metric(g) == is_metric_brute(g), seed


def test_witness_invariants_on_random_broken_instances():
    found = 0
    for seed in range(60):
        rng = random.Random(1000 + seed)
        g = random_graph(rng, 6, 10, weights=(0, 8))
        w = find_broken_witness(g)
        if w is None:
            assert is_metric(g)
            continue
        w.check(g)
        found += 1
    assert found >= 20  # the sweep actually exercised broken instances


def test_broken_triangles_triangle_examples():
    one = WeightedGraph(3, [(0, 1, 3), (1, 2, 1), (0, 2, 1)])
    (w,) = broken_triangles(one)
    assert w.top_edge == (0, 1)
    boundary = WeightedGraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 1)])
    assert broken_triangles(boundary) == ()


def test_broken_triangles_match_triple_scan_on_k5():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        g = random_graph(rng, 5, 10, weights=(0, 9))
        got = [(t.cycle, t.top_edge) for t in broken_triangles(g)]
        assert got == fraction_triangles(g)  # same top edges, lexicographic order


# -- the integer broken-cycle test against a Fraction definition ----------------

# Primes whose product exceeds 2**62, so a graph carrying 1/p for all three
# has a common denominator past the int64 range.
BIG_PRIMES = (2097143, 2097169, 2097211)


def cycle_top_edge(g, cycle):
    """``graphs._top_edge`` on the edges of the vertex tuple ``cycle``."""
    m = len(cycle)
    return _top_edge(g.integer_form()[1],
                     [edge_key(cycle[i], cycle[(i + 1) % m]) for i in range(m)])


def fraction_top_edge(g, cycle):
    """Reference predicate: the edge outweighing the rest of ``cycle``, in Fractions."""
    m = len(cycle)
    edges = [edge_key(cycle[i], cycle[(i + 1) % m]) for i in range(m)]
    weights = [g.weight(*e) for e in edges]
    total = sum(weights, Fraction(0))
    for e, w in zip(edges, weights):
        if 2 * w > total:
            return e
    return None


def fraction_triangles(g):
    """Broken triangles with their top edges, in lexicographic vertex order."""
    out = []
    for (a, b, c) in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            top = fraction_top_edge(g, (a, b, c))
            if top is not None:
                out.append(((a, b, c), top))
    return out


def rational_graph(seed, n, m):
    """Random graph whose weights mix denominators and include zeros."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return WeightedGraph(n, (
        (u, v, Fraction(rng.choice((0, 0, 1, 2, 3, 5, 8)), rng.choice((1, 2, 3, 4, 6, 7))))
        for (u, v) in pairs[:m]))


def with_big_denominators(g):
    """``g`` with 1/p added to its first three edges, for each p in BIG_PRIMES."""
    bumped = g.replace_weights(
        {e: g.weight(*e) + Fraction(1, p) for e, p in zip(g.edges, BIG_PRIMES)})
    assert bumped.integer_form()[0] > 2 ** 62
    return bumped


def tie_graphs():
    """Cycles whose heaviest edge exactly equals the rest, or just exceeds it."""
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    yield WeightedGraph(3, [(0, 1, third + half), (0, 2, half), (1, 2, third)])
    a, b, c = (Fraction(1, p) for p in BIG_PRIMES)
    tie = WeightedGraph(4, [(0, 1, a + b + c), (1, 2, a), (2, 3, b), (0, 3, c),
                            (0, 2, a + b), (1, 3, b + c)])
    assert tie.integer_form()[0] > 2 ** 62
    yield tie
    yield tie.replace_weights({(0, 1): a + b + c + Fraction(1, 10 ** 30)})
    yield WeightedGraph(4, [(u, v, 0) for (u, v) in combinations(range(4), 2)])
    yield WeightedGraph(4, [(0, 1, Fraction(1, 7)), (0, 2, 0), (1, 2, 0), (2, 3, 0),
                            (1, 3, 0), (0, 3, 0)])


def equivalence_graphs():
    for seed in range(12):
        n = 4 + seed % 3
        for m in (n * (n - 1) // 2, n + 1):  # complete, then sparse
            g = rational_graph(6000 + seed, n, m)
            yield g
            yield with_big_denominators(g)
    yield from tie_graphs()


def test_broken_triangles_equal_fraction_definition():
    broken = 0
    for g in equivalence_graphs():
        got = [(t.cycle, t.top_edge) for t in broken_triangles(g)]
        assert got == fraction_triangles(g)
        broken += len(got)
    assert broken >= 50  # the sweep exercised broken triangles, not only metric ones


# -- the three-int triangle scan against the general cycle predicate -----------


def reference_broken_triangles(g):
    """The edge-walk scan written with ``_top_edge``, the general cycle predicate."""
    _, intw = g.integer_form()
    adjacent = [set(g.neighbors(v)) for v in range(g.n)]
    out = []
    for (u, v) in g.edges:
        for x in g.neighbors(v):
            if x <= v or x not in adjacent[u]:
                continue
            top = _top_edge(intw, ((u, v), (u, x), (v, x)))
            if top is not None:
                out.append(((u, v, x), top))
    return out


def straddling_complete_graph(seed, n):
    """Complete graph with integer weights just below, at and above 2^61 and 2^62,
    so sums pass 2^63 and triangles sit exactly on or one unit off the tie."""
    rng = random.Random(seed)
    levels = [base + d for base in (2 ** 61, 2 ** 62) for d in (-1, 0, 1)]
    return WeightedGraph(n, ((u, v, rng.choice(levels))
                             for (u, v) in combinations(range(n), 2)))


def triangle_scan_graphs():
    yield from tree_sweep_graphs()
    yield from equivalence_graphs()
    for n, k, seed in ((40, 1, 1), (40, 5, 2), (60, 3, 3)):
        yield planted_complete(n, k, seed=seed).instance.to_graph()
    for seed in range(3):
        yield straddling_complete_graph(seed, 12)


def test_broken_triangles_equal_top_edge_scan():
    broken = 0
    for g in triangle_scan_graphs():
        got = [(t.cycle, t.top_edge) for t in broken_triangles(g)]
        assert got == reference_broken_triangles(g)
        assert instance_stats(g).broken_triangle_count == len(got)
        broken += len(got)
    assert broken >= 500


def test_straddling_weights_break_only_past_the_tie():
    big = 2 ** 62
    tie = WeightedGraph(3, [(0, 1, big), (0, 2, big // 2), (1, 2, big // 2)])
    assert broken_triangles(tie) == ()
    (w,) = broken_triangles(tie.replace_weights({(0, 1): big + 1}))
    assert w.top_edge == (0, 1)
    (w,) = broken_triangles(tie.replace_weights({(1, 2): 2 * big + 1}))
    assert w.top_edge == (1, 2)
    assert all(0 < len(broken_triangles(straddling_complete_graph(seed, 12))) < 220
               for seed in range(3))  # some triangles break, some tie or hold


def test_witness_check_accepts_every_enumerated_broken_cycle():
    checked = 0
    for g in equivalence_graphs():
        for witness in broken_cycles(g):
            BrokenCycleWitness(witness.cycle, witness.top_edge).check(g)
            checked += 1
    assert checked >= 50


@st.composite
def cycle_search_graphs(draw):
    """n <= 8, sparse or complete, weights from {0}, {0, 1}, 0-3 or mixed-denominator
    rationals: zero-weight plateaus and exact ties throughout."""
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = list(combinations(range(n), 2))
    if not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), max_size=min(len(pairs), 14),
                              unique=True))
    weight = draw(st.sampled_from((
        st.just(0), st.integers(0, 1), st.integers(0, 3),
        st.builds(Fraction, st.sampled_from((0, 0, 1, 2, 3, 5)), st.integers(1, 7)))))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


def cover_order(cycles):
    """Length, then vertex set, then arrangement: the five-cycle cover's walk."""
    return sorted(cycles, key=lambda c: (len(c[0]), sorted(c[0]), c[0]))


@given(cycle_search_graphs())
@settings(max_examples=150, deadline=None)
def test_broken_cycles_equal_permutation_enumeration(g):
    # Each broken cycle once, from its top edge, in the canonical orientation,
    # and capped by vertex count exactly.
    brute = cover_order(broken_cycles_brute(g))
    found = broken_cycles(g)
    assert found == tuple(brute)
    for witness in found:
        witness.check(g)
    for k in (3, 4, 5):
        assert broken_cycles(g, k) == tuple(c for c in brute if len(c[0]) <= k)


def test_verifier_rejection_names_a_broken_cycle_the_support_misses():
    # The rejecting edge (u, v) and the canonical u-v path of the raised graph
    # close a broken cycle whose cover mask the support misses: the cycle the
    # exact oracle learns from.
    changed = RejectionReason.CHANGED_OUTSIDE_SUPPORT
    decreased = RejectionReason.DECREASED_IN_INCREASE_MODE
    rng = random.Random(7100)
    reasons = {}
    for g in chain(tree_sweep_graphs(), equivalence_graphs()):
        bit = edge_bits(g)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            for size in sorted({0, min(1, g.m), g.m // 3, g.m // 2, max(g.m - 1, 0)}):
                support = frozenset(rng.sample(g.edges, size))
                outcome, top, d = _verify(g, support, omega)
                assert outcome == verify_support(g, support, omega)
                if outcome.accepted:
                    assert top is None
                    continue
                witness = BrokenCycleWitness(d.path(*top), top)
                witness.check(g)
                (mask,) = cover_masks(g, [witness], omega)
                assert not mask & sum(bit[e] for e in support), (g.edges, support, omega)
                assert (top in support) == (outcome.reason is decreased)
                reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
    assert reasons[changed] >= 500 and reasons[decreased] >= 50, reasons


@st.composite
def hitting_set_instances(draw):
    """``(m, masks, hit, room)``: at most 7 masks over at most 8 edge bits,
    some of them inside ``hit``, empty ones and the empty list included."""
    m = draw(st.integers(min_value=0, max_value=8))
    full = (1 << m) - 1
    hit = draw(st.integers(min_value=0, max_value=full))
    mask = st.integers(min_value=0, max_value=full)
    masks = draw(st.lists(st.one_of(mask, mask.map(lambda bits: bits & hit)), max_size=7))
    return m, masks, hit, draw(st.integers(min_value=-1, max_value=4))


@given(hitting_set_instances())
@example((3, [0b011, 0b101, 0b110], 0, 1))  # a triangle of masks needs two bits
@example((3, [0b100, 0b011], 0b001, 1))  # only the highest bit is left to take
@example((0, [], 0, -1))
@settings(max_examples=400, deadline=None)
def test_hits_within_finds_a_cover_exactly_when_one_exists(instance):
    m, masks, hit, room = instance
    missed = [mask for mask in masks if not mask & hit]
    exists = any(all(mask & sum(extra) for mask in missed)
                 for size in range(room + 1)
                 for extra in combinations([1 << i for i in range(m)], size))
    found = detect.hits_within(masks, hit, room)
    if not exists:
        assert found is None
    else:
        assert found is not None and found & hit == hit
        assert all(mask & found for mask in masks)
        assert bin(found & ~hit).count("1") <= room


def test_cycle_top_edge_equals_fraction_definition():
    for g in equivalence_graphs():
        for cycle in enumerate_cycles_by_permutation(g):
            assert cycle_top_edge(g, cycle) == fraction_top_edge(g, cycle), cycle


def test_exact_ties_do_not_break_a_cycle():
    exact, big_tie, nudged, zeros, one_heavy = tie_graphs()
    assert broken_triangles(exact) == ()
    assert cycle_top_edge(big_tie, (0, 1, 2, 3)) is None
    assert cycle_top_edge(nudged, (0, 1, 2, 3)) == (0, 1)
    assert broken_triangles(zeros) == ()
    assert [(t.cycle, t.top_edge) for t in broken_triangles(one_heavy)] == [
        ((0, 1, 2), (0, 1)), ((0, 1, 3), (0, 1))]


def test_longest_broken_cycle_examples():
    c5 = WeightedGraph(5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    assert longest_broken_cycle_len(c5, budget=6) == 5
    metric = WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert longest_broken_cycle_len(metric, budget=6) is None
    with pytest.raises(EnumerationBudgetError):
        longest_broken_cycle_len(c5, budget=4)


def test_longest_broken_cycle_matches_bruteforce():
    for seed in range(15):
        rng = random.Random(4000 + seed)
        g = random_graph(rng, 6, rng.randint(6, 12), weights=(0, 9))
        brute = max((len(c) for c, _ in broken_cycles_brute(g)), default=None)
        assert longest_broken_cycle_len(g, budget=6) == brute


def test_cycle_top_edge_is_unique_when_present():
    g = WeightedGraph(4, [(0, 1, 9), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert cycle_top_edge(g, (0, 1, 2, 3)) == (0, 1)
    balanced = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert cycle_top_edge(balanced, (0, 1, 2, 3)) is None


def test_chordal_detection_completeness():
    # On chordal graphs a broken cycle forces a broken triangle, so the two
    # detectors must agree; edge weights are randomized over a random chordal
    # topology.
    for seed in range(30):
        rng = random.Random(5000 + seed)
        edges = random_chordal_edges(rng.randint(4, 8), rng)
        n = 1 + max(max(e) for e in edges)
        g = WeightedGraph(n, ((u, v, rng.randint(0, 6)) for (u, v) in edges))
        assert (find_broken_witness(g) is not None) == bool(broken_triangles(g))


def test_instance_stats():
    c5 = WeightedGraph(5, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 0, 1)])
    s = instance_stats(c5, cycle_budget=6)
    assert not s.is_metric
    assert s.broken_triangle_count == 0
    assert s.longest_broken_cycle == 5
    assert s.ratio_parameter == 4
    partial = instance_stats(c5)
    assert partial.longest_broken_cycle is None
    assert not partial.cycle_length_computed


def test_determinism_of_witnesses():
    rng = random.Random(9)
    g = random_graph(rng, 6, 12, weights=(0, 7))
    h = WeightedGraph(6, ((u, v, g.weight(u, v)) for (u, v) in g.edges))
    assert find_broken_witness(g) == find_broken_witness(h)
    assert broken_triangles(g) == broken_triangles(h)


# -- the lane test behind is_metric on complete graphs --------------------------


def walk_witness(g):
    """The witness of the APSP edge walk, from reference rows: the first edge
    in lexicographic order longer than its distance, closed by the canonical
    path."""
    _, intw = g.integer_form()
    rows = full_relaxation(g.n, intw, max(intw.values(), default=0) * max(g.n, 1) + 1)
    for (u, v) in g.edges:
        if rows[u][v] < intw[(u, v)]:
            return BrokenCycleWitness(apsp(g).path(u, v), (u, v))
    return None


def decided_by_lanes(g):
    """Whether ``find_broken_witness`` answered ``g`` with no shortest paths."""
    return set(g._apsp_cache) == {"witness"}


@st.composite
def complete_graphs(draw):
    """Complete graphs, n = 0..12: zero weights, ties, scale > 1 and scaled
    weights past 2^62.  The [c, 2c] families are metric, ties included."""
    n = draw(st.integers(min_value=0, max_value=12))
    weight = draw(st.sampled_from((
        st.just(0), st.integers(0, 1), st.integers(0, 3), st.integers(5, 10),
        st.integers(2 ** 62, 2 ** 63), st.integers(0, 2 ** 63),
        st.builds(Fraction, st.integers(0, 9), st.integers(1, 6)),
        st.builds(Fraction, st.integers(10, 20), st.just(3)),
        st.builds(Fraction, st.integers(1, 3), st.sampled_from(BIG_PRIMES)))))
    pairs = list(combinations(range(n), 2))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])


@given(complete_graphs())
@settings(max_examples=300, deadline=None)
def test_complete_graph_witness_equals_the_walk(g):
    witness = find_broken_witness(g)
    assert decided_by_lanes(g) == (witness is None)  # a metric graph runs no APSP
    assert witness == walk_witness(g)
    assert (broken_triangles(g) == ()) == is_metric(g) == (witness is None)


def counted(monkeypatch, name):
    """Count the calls of ``detect.<name>``."""
    calls = []
    original = getattr(detect, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(detect, name, wrapper)
    return calls


def test_metric_matrix_is_decided_without_shortest_paths(monkeypatch):
    searches = counted(monkeypatch, "apsp")
    g = planted_complete(40, 0, seed=1).instance.to_graph()
    assert is_metric(g) and find_broken_witness(g) is None
    assert searches == [] and decided_by_lanes(g)


def test_witness_is_computed_once_per_graph(monkeypatch):
    tests, searches = counted(monkeypatch, "_breaks_a_triangle"), counted(monkeypatch, "apsp")
    matrix = planted_complete(40, 1, seed=1).instance.to_graph()
    graph = WeightedGraph(matrix.n, ((u, v, matrix.weight(u, v)) for (u, v) in matrix.edges))
    assert not is_metric(matrix) and not is_metric(graph)
    witness = find_broken_witness(matrix)
    witness.check(matrix)
    # A matrix view shares its graph's memo.
    assert find_broken_witness(DistanceMatrix.from_graph(graph)) == witness
    assert len(tests) == len(searches) == 2  # once per graph
    assert set(matrix._apsp_cache) == set(graph._apsp_cache) == {"dense", "witness"}
    assert witness == walk_witness(matrix)


def test_graphs_that_are_not_complete_take_the_walk():
    # The lane test, with a missing edge read as weight 0, would pass this
    # path; on a graph that is not complete the edge walk decides all the same.
    path = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert is_metric(path) and set(path._apsp_cache) == {"sparse", "witness"}
    square = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert broken_triangles(square) == () and not is_metric(square)
    assert find_broken_witness(square) == BrokenCycleWitness((0, 3, 2, 1), (0, 1))


def straddling_triangle(top, off):
    """Five vertices, every weight ``top`` except the triangle (0, 1, 2): its
    two light edges sum to ``top - off``, so it ties at ``off = 0`` and breaks
    by one unit at ``off = 1``.  The other lanes sum to ``2 * top``, the widest
    value a lane holds."""
    half = top // 2
    light = {(0, 2): half, (1, 2): top - half - off}
    return WeightedGraph(5, [(u, v, light.get((u, v), top))
                             for (u, v) in combinations(range(5), 2)])


@pytest.mark.parametrize("top", [2 ** k + d for k in (31, 62, 63) for d in (-1, 0)])
def test_lane_width_at_its_steps(top):
    # The narrowest lane that holds 2 * top below its guard bit.
    width = _lanes(5, top)[0]
    assert 2 ** (width - 2) <= 2 * top < 2 ** (width - 1)
    tie = straddling_triangle(top, 0)
    scale, intw = tie.integer_form()
    assert scale == 1 and max(intw.values()) == top
    assert is_metric(tie) and decided_by_lanes(tie)
    broken = straddling_triangle(top, 1)
    assert find_broken_witness(broken) == BrokenCycleWitness((0, 2, 1), (0, 1)) \
        == walk_witness(broken)


def test_lane_test_on_the_smallest_complete_graphs():
    zeros = WeightedGraph(4, [(u, v, 0) for (u, v) in combinations(range(4), 2)])
    assert _lanes(4, 0)[0] == 1  # one bit per lane, all guard
    for g in (WeightedGraph(0), WeightedGraph(1), WeightedGraph(2, [(0, 1, 7)]), zeros):
        assert g.is_complete() and is_metric(g) and decided_by_lanes(g)
    one_up = zeros.replace_weights({(0, 1): Fraction(1, 3)})
    assert find_broken_witness(one_up) == BrokenCycleWitness((0, 2, 1), (0, 1)) \
        == walk_witness(one_up)


@st.composite
def complete_graphs_at_the_guard(draw):
    """``complete_graphs``, half of them with one weight at 2^62 - 1, 2^62 or
    2^63."""
    g = draw(complete_graphs())
    if g.edges and draw(st.booleans()):
        top = draw(st.sampled_from((2 ** 62 - 1, 2 ** 62, 2 ** 63)))
        g = g.replace_weights({draw(st.sampled_from(g.edges)): top})
    return g


@given(complete_graphs_at_the_guard())
@settings(max_examples=300, deadline=None)
def test_triangle_tops_yield_the_apexes_of_the_broken_triangles(g):
    # The lane scan yields each edge that tops a broken triangle once, with
    # the guard bits of exactly the third corners of the triangles it tops.
    _, intw = g.integer_form()
    lane, shifts, ones, guard = _lanes(g.n, max(intw.values(), default=0))
    tops = list(detect._triangle_tops(intw, _lane_rows(g.n, intw, lane, 0)[1], ones, guard))
    scanned = {(u, v): {x for x, s in enumerate(shifts) if bits >> (s + lane - 1) & 1}
               for u, v, bits in tops}
    listed: dict = {}
    for witness in broken_triangles(g):
        apex = set(witness.cycle) - set(witness.top_edge)
        listed.setdefault(witness.top_edge, set()).update(apex)
    assert len(tops) == len(scanned) and scanned == listed
    assert all(bits & ~guard == 0 for _, _, bits in tops)
