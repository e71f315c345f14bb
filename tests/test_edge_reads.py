"""Edge reads: bounded searches against full rows and full trees.

``ApspResult.edge(u, v)`` answers an edge no heavier than its ends' lightest
arcs with its weight and no search.  Any other read comes from a search that
stops once every vertex within ``u``'s reach is settled (the largest ``w(u,
v) - low(v)`` over ``u``'s edges to larger ids, ``low(v)`` being ``v``'s
lightest edge), and leaves each weight-sorted adjacency list at its first
arc past that distance; a target the search did not settle is answered by
one scan of its own list, the last hop.  These tests hold it, the search
kernel at any stop distance, and every caller that only reads edges, to
references that read full rows from the full relaxation and trees
from the settle-one-at-a-time reference in ``conftest``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from metric_repair import (
    BrokenCycleWitness,
    OmegaClass,
    RejectionReason,
    RepairDelta,
    WeightedGraph,
    apply_delta,
    decrease_repair,
    find_broken_witness,
    general_shortest_path_cover,
    is_metric,
    paths,
    shortest_path_cover,
    verify_support,
)
from metric_repair import approx
from metric_repair.gadgets import (
    cycle_tight,
    metric_closure_weights,
    planted_complete,
    random_connected_graph,
)
from metric_repair.graphs import edge_key
from metric_repair.paths import ApspResult, _scaled_apsp

from conftest import canonical_parents, full_relaxation, random_graph, tree_sweep_graphs


class _FullRows:
    """Every row from the full relaxation; paths from the reference tree."""

    def __init__(self, n: int, intw: dict):
        self.n, self.intw = n, intw
        sentinel = max(intw.values(), default=0) * max(n, 1) + 1
        self.rows = full_relaxation(n, intw, sentinel)

    def tree(self, u: int) -> tuple:
        return canonical_parents(self.n, self.intw, self.rows[u], u)

    def path(self, u: int, v: int) -> tuple | None:
        if self.rows[u][v] is None:
            return None
        parents, out = self.tree(u), [v]
        while out[-1] != u:
            out.append(parents[out[-1]])
        return tuple(reversed(out))


def _raised(intw: dict, rng: random.Random) -> dict:
    """The Verifier's map: a random support raised to the largest weight."""
    cap = max(intw.values(), default=0)
    support = rng.sample(sorted(intw), rng.randint(0, len(intw)))
    return {**intw, **dict.fromkeys(support, cap)}


def _failing(weights: dict) -> dict:
    """The edges the certificate ``w(u, v) <= low(u) + low(v)`` leaves to a
    search, each with its term ``w(u, v) - low(v)``; ``low(x)`` is ``x``'s
    lightest edge."""
    low: dict = {}
    for (a, b), w in weights.items():
        low[a] = min(low.get(a, w), w)
        low[b] = min(low.get(b, w), w)
    return {(a, b): w - low[b] for (a, b), w in weights.items() if w > low[a] + low[b]}


def test_edge_reads_match_full_rows_and_trees():
    rng = random.Random(900)
    count = 0
    for g in tree_sweep_graphs():
        scale, intw = g.integer_form()
        for weights in (intw, _raised(intw, rng)):
            full = _FullRows(g.n, weights)
            result = ApspResult(g.n, scale, weights)
            for (u, v), w in weights.items():
                assert result.edge(u, v) == full.rows[u][v]
                if full.rows[u][v] < w:
                    assert result.path(u, v) == full.path(u, v)
            # Only bounded searches ran, from exactly the sources of edges
            # that fail the certificate: no row is filled, each such record
            # settled exactly the vertices within its reach (the largest
            # term of its failing edges), and each failing edge's far end
            # past the reach got its entry from the last hop; both carry the
            # full search's distance and canonical parent.
            failing = _failing(weights)
            assert result._rows == [None] * g.n
            assert set(result._trees) == {a for (a, _) in failing}
            for u, (drow, parents) in result._trees.items():
                reach = max(t for (a, _), t in failing.items() if a == u)
                tree = full.tree(u)
                targets = {b for (a, b) in failing if a == u}
                for x in range(g.n):
                    within = full.rows[u][x] is not None and full.rows[u][x] <= reach
                    if within or x in targets:
                        assert (drow[x], parents[x]) == (full.rows[u][x], tree[x]), (u, x)
                    else:
                        assert (drow[x], parents[x]) == (None, None), (u, x)
            # Arbitrary pairs keep full-search semantics after edge reads.
            for u in range(g.n):
                assert result.row(u) == full.rows[u]
                for v in range(g.n):
                    assert result.path(u, v) == full.path(u, v)
        count += 1
    assert count == 200


def test_edge_reads_any_ordered_pair_on_either_engine():
    # ``edge`` takes the ends in either order, and a pair that is not an
    # edge reads the full row, with and without rows the dense kernel filled.
    path_graph = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    assert paths.apsp(path_graph).edge(0, 2) == 2
    square = WeightedGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert paths.apsp(square).edge(1, 0) == 3
    rng = random.Random(903)
    for g in tree_sweep_graphs():
        scale, intw = g.integer_form()
        full = _FullRows(g.n, intw)
        pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        for rows in (None, full.rows):
            result = ApspResult(g.n, scale, intw, rows and [list(r) for r in rows])
            rng.shuffle(pairs)
            for u, v in pairs:
                assert result.edge(u, v) == full.rows[u][v], (u, v)


@st.composite
def _edge_read_inputs(draw):
    n = draw(st.integers(1, 14))
    top = draw(st.sampled_from((0, 1, 2, 3, 9)))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(0, top), min_size=len(pairs), max_size=len(pairs)))
    intw = {e: w for e, k, w in zip(pairs, keep, weights) if k}
    if intw and draw(st.booleans()):  # the Verifier's raised map
        support = draw(st.sets(st.sampled_from(sorted(intw))))
        intw.update(dict.fromkeys(support, max(intw.values())))
    order = draw(st.permutations(sorted(intw)))
    flips = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    edges = [("edge", v, u) if flip else ("edge", u, v) for (u, v), flip in zip(order, flips)]
    vertex = st.integers(0, n - 1)
    kinds = st.sampled_from(("edge", "row", "parents", "path", "dist"))
    others = draw(st.lists(st.tuples(kinds, vertex, vertex), max_size=2 * n))
    reads = draw(st.permutations(edges + others))
    return n, intw, reads, draw(st.booleans())


@given(_edge_read_inputs())
@settings(max_examples=300, deadline=None)
def test_edge_reads_in_any_order_keep_every_path_canonical(data):
    # Every edge read in both orientations, interleaved in random order with
    # edge reads of any pair and row, tree, path and distance reads, with and
    # without every row filled in advance: an edge read may leave a
    # bounded record, and each later read of its source must answer as the
    # full-row reference does.  Afterwards every pair's path, through a
    # bounded tree or a full one, is the reference's.
    n, intw, reads, filled = data
    full = _FullRows(n, intw)
    reference = {
        "edge": lambda u, v: full.rows[u][v], "row": lambda u: full.rows[u],
        "parents": full.tree, "path": full.path,
        "dist": lambda u, v: None if full.rows[u][v] is None else Fraction(full.rows[u][v]),
    }
    result = ApspResult(n, 1, intw, [list(r) for r in full.rows] if filled else None)
    for read, u, v in reads:
        args = (u,) if read in ("row", "parents") else (u, v)
        assert getattr(result, read)(*args) == reference[read](*args), (read, u, v)
    for u in range(n):
        for v in range(n):
            assert result.path(u, v) == full.path(u, v), (u, v)


def test_search_kernel_matches_the_reference_at_every_stop_distance():
    # Stop distances 0, each distinct distance from the source (vertices tied
    # exactly at the limit included) and the full search's bound, on the
    # weight-sorted lists edge reads walk: the search settles exactly the
    # vertices within the limit, with the full distance and canonical parent,
    # and gives every other vertex neither.
    rng = random.Random(902)
    count = 0
    for g in tree_sweep_graphs():
        scale, intw = g.integer_form()
        for weights in (intw, _raised(intw, rng)):
            full = _FullRows(g.n, weights)
            result = ApspResult(g.n, scale, weights)
            adj = result._adjacency()
            for s in range(g.n):
                drow, tree = full.rows[s], full.tree(s)
                for limit in sorted({0, result._bound, *(x for x in drow if x is not None)}):
                    dist, parent = paths._dijkstra(adj, s, limit)
                    for x in range(g.n):
                        within = drow[x] is not None and drow[x] <= limit
                        expected = (drow[x], tree[x]) if within else (None, None)
                        assert (dist[x], parent[x]) == expected, (s, limit, x)
                    count += 1
    assert count > 2000


def test_filled_rows_answer_edge_reads_without_a_search(monkeypatch):
    # A dense result's edge reads come from its rows: no search runs and no
    # adjacency is built.  The first path read builds the lists, sorted by
    # weight with ties in map order, and runs one full search.
    g = planted_complete(40, 1, seed=3).instance.to_graph()
    scale, intw = g.integer_form()
    result = _scaled_apsp(g.n, scale, intw)
    limits = []
    real = paths._dijkstra
    monkeypatch.setattr(paths, "_dijkstra",
                        lambda adj, source, limit: limits.append(limit) or real(adj, source, limit))
    broken = [(u, v) for (u, v), w in intw.items() if result.edge(u, v) < w]
    assert broken and result._trees == {} and result._adj is None and limits == []
    u, v = broken[0]
    assert result.path(u, v) is not None
    assert limits == [paths._sentinel(g.n, intw)] and list(result._trees) == [u]
    in_map_order: list[list] = [[] for _ in range(g.n)]
    for (a, b), w in intw.items():
        in_map_order[a].append((w, b))
        in_map_order[b].append((w, a))
    assert result._adj == [sorted(arcs, key=itemgetter(0)) for arcs in in_map_order]


def test_the_certificate_at_its_boundary(monkeypatch):
    # An edge exactly as heavy as its ends' lightest arcs is its own
    # distance: the read runs no search and writes no record, even with a
    # tied 2-path through a smaller id, and the path read still finds that
    # canonical path.  One unit heavier, over a 2-path of the bound's
    # weight, the read searches and returns the shorter distance.
    searches = []
    real = paths._dijkstra

    def recording(adj, source, limit):
        searches.append(source)
        return real(adj, source, limit)

    monkeypatch.setattr(paths, "_dijkstra", recording)

    def reads(edges: list, n: int = 3) -> tuple[ApspResult, _FullRows]:
        g = WeightedGraph(n, edges)
        scale, intw = g.integer_form()
        searches.clear()
        return ApspResult(g.n, scale, intw), _FullRows(g.n, intw)

    result, full = reads([(0, 1, 2), (0, 2, 3), (1, 2, 5)])  # low = 2, 2, 3
    assert result.edge(2, 1) == 5 and searches == [] and result._trees == {}
    assert result.path(1, 2) == full.path(1, 2) == (1, 0, 2)
    result, full = reads([(0, 1, 2), (0, 2, 3), (1, 2, 6)])
    assert result.edge(1, 2) == 5 and searches == [1]
    assert result.path(1, 2) == full.path(1, 2) == (1, 0, 2)
    # A certified edge whose far end lies past its source's reach, read
    # after the source searched for a failing edge: still no search, and
    # nothing is written to the record.
    result, full = reads([(0, 1, 1), (0, 2, 4), (2, 3, 2), (0, 4, 6), (4, 5, 5)], n=6)
    assert result.edge(0, 2) == 4 and searches == [0]
    assert result.edge(0, 4) == 6 and searches == [0]
    assert (result._trees[0][0][4], result._trees[0][1][4]) == (None, None)
    assert result.path(0, 4) == full.path(0, 4)
    # Zero-weight lightest arcs: a zero edge passes, any heavier one fails.
    result, full = reads([(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert (result.edge(0, 1), result.edge(1, 2)) == (0, 0) and searches == []
    assert result.edge(0, 2) == 0 and searches == [0]
    assert [result.path(0, v) for v in range(3)] == [full.path(0, v) for v in range(3)]
    # A read from an isolated vertex, of a pair that is not an edge.
    result, full = reads([(1, 2, 1)])
    assert (result.edge(0, 1), result.edge(2, 0), result.edge(0, 0)) == (None, None, 0)
    assert [result.path(0, v) for v in range(3)] == [(0,), None, None]


# -- solvers against full-row references ---------------------------------------


def _reference_witness(g: WeightedGraph) -> BrokenCycleWitness | None:
    _, intw = g.integer_form()
    full = _FullRows(g.n, intw)
    for (u, v) in g.edges:
        if full.rows[u][v] < intw[(u, v)]:
            return BrokenCycleWitness(cycle=full.path(u, v), top_edge=(u, v))
    return None


def _reference_decrease(g: WeightedGraph) -> RepairDelta:
    scale, intw = g.integer_form()
    full = _FullRows(g.n, intw)
    return RepairDelta({(u, v): Fraction(full.rows[u][v] - w, scale)
                        for (u, v), w in intw.items() if full.rows[u][v] < w},
                       OmegaClass.DECREASE_ONLY)


def _reference_verify(g: WeightedGraph, support, omega: OmegaClass):
    scale, intw = g.integer_form()
    s = {edge_key(*e) for e in support}
    full = _FullRows(g.n, {**intw, **dict.fromkeys(s, max(intw.values(), default=0))})
    entries = {}
    for u, v in g.edges:  # edge order, whatever order the graph was built in
        old, new = intw[(u, v)], full.rows[u][v]
        if new == old:
            continue
        if (u, v) not in s:
            return False, RejectionReason.CHANGED_OUTSIDE_SUPPORT, None
        if omega is OmegaClass.INCREASE_ONLY and new < old:
            return False, RejectionReason.DECREASED_IN_INCREASE_MODE, None
        entries[(u, v)] = Fraction(new - old, scale)
    return True, None, RepairDelta(entries, omega)


def _reference_path_cover(g: WeightedGraph, close_cycle: bool):
    support: set = set()
    batches = []
    working = dict(g.integer_form()[1])
    iterations = 0
    while True:
        iterations += 1
        full = _FullRows(g.n, working)
        batch, claimed = [], set()
        for (u, v), w in sorted(working.items()):
            if full.rows[u][v] >= w:
                continue
            path = full.path(u, v)
            path_edges = {edge_key(path[i], path[i + 1]) for i in range(len(path) - 1)}
            if path_edges & claimed:
                continue
            batch.append(path)
            claimed |= path_edges | ({(u, v)} if close_cycle else set())
        if not batch:
            return frozenset(support), tuple(batches), iterations
        support |= claimed
        for e in claimed:
            del working[e]
        batches.append(tuple(batch))


def _solver_graphs():
    yield from tree_sweep_graphs()
    # Larger sparse inputs, where a bounded search stops far short of n.
    yield cycle_tight(30)
    for seed in range(4):
        rng = random.Random(910 + seed)
        metric = metric_closure_weights(40, random_connected_graph(40, 120, rng), rng, (0, 20))
        lowered = {e: rng.randrange(metric.integer_form()[1][e] + 1)
                   for e in sorted(rng.sample(metric.edges, 4))}
        yield metric.replace_weights(lowered)
        yield random_graph(rng, 40, 100, weights=(0, 5))


def test_solvers_match_full_row_references():
    rng = random.Random(901)
    reasons = set()
    for g in _solver_graphs():
        witness = _reference_witness(g)
        assert is_metric(g) == (witness is None)
        assert find_broken_witness(g) == witness
        assert decrease_repair(g) == _reference_decrease(g)
        for omega in (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL):
            for size in sorted({0, 1, len(g.edges) // 3, len(g.edges)}):
                support = rng.sample(g.edges, min(size, len(g.edges)))
                out = verify_support(g, support, omega)
                expected = _reference_verify(g, support, omega)
                assert (out.accepted, out.reason, out.delta) == expected
                reasons.add(out.reason)
        for close_cycle, solver in ((False, shortest_path_cover),
                                    (True, general_shortest_path_cover)):
            report = solver(g)
            assert (report.support, report.batches, report.iterations) == \
                _reference_path_cover(g, close_cycle)
    assert reasons == {None, *RejectionReason}


# -- work -----------------------------------------------------------------------


def test_edge_checks_on_the_tight_cycle_settle_few_vertices(monkeypatch):
    # cycle_tight(300): every unit edge is no heavier than its ends' lightest
    # arcs, so its read runs no search, before the repair and after it.  Only
    # vertex 0, whose heavy edge reaches around the cycle, searches.  Before
    # that certificate, each unit edge's search settled its 3 vertices, n - 1
    # searches per walk; full searches settle n^2 = 90,000 vertices.
    settled = []
    real = paths._dijkstra

    def counting(*args):
        dist, parents = real(*args)
        settled.append(sum(x is not None for x in dist))
        return dist, parents

    monkeypatch.setattr(paths, "_dijkstra", counting)
    n = 300
    g = cycle_tight(n)
    delta = decrease_repair(g)
    assert len(settled) == 1 and sum(settled) <= n
    repaired = apply_delta(g, delta)
    settled.clear()
    assert is_metric(repaired)  # reads every edge
    assert len(settled) == 1 and sum(settled) <= n


def test_edge_reads_settle_only_the_vertices_within_the_reach(monkeypatch):
    # Exact counts of edge searches and of the vertices they settle, on a
    # random metric graph (every edge read, all tight) and on the repaired
    # tight cycle.  Without the certificate, searching from every source out
    # to its reach, they are (101, 1437) and (299, 597); out to each source's
    # heaviest edge to a larger id instead, 3,048 and 1,193 settled.
    settled = []
    real = paths._dijkstra

    def counting(*args):
        dist, parents = real(*args)
        settled.append(sum(x is not None for x in dist))
        return dist, parents

    rng = random.Random(7)
    metric = metric_closure_weights(120, random_connected_graph(120, 360, rng), rng, (1, 20))
    repaired = apply_delta(cycle_tight(300), decrease_repair(cycle_tight(300)))
    monkeypatch.setattr(paths, "_dijkstra", counting)
    assert is_metric(metric)
    assert (len(settled), sum(settled)) == (84, 1409)
    settled.clear()
    assert is_metric(repaired)
    assert (len(settled), sum(settled)) == (1, 299)


def test_bounded_search_leaves_a_heavy_hub_list_at_its_first_arc():
    # Vertex 0's one edge is a light edge to hub 1, which also has 1,000 heavy
    # edges.  That edge is the lightest arc of both its ends, so it passes
    # the certificate: its read returns the weight and reads no arc.
    def hub(light: list) -> tuple[ApspResult, list]:
        g = WeightedGraph(1004, light + [(1, x, 100) for x in range(2, 1002)])
        scale, intw = g.integer_form()
        result = ApspResult(g.n, scale, intw)
        adj = result._adjacency()
        scanned = []

        class CountingArcs(list):
            def __iter__(self):
                for arc in super().__iter__():
                    scanned.append(arc)
                    yield arc

        adj[1] = CountingArcs(adj[1])
        return result, scanned

    result, scanned = hub([(0, 1, 1)])
    assert result.edge(0, 1) == 1 and result.edge(1, 0) == 1
    assert scanned == [] and result._trees == {}
    # With a lighter edge at each end, the hub edge fails the certificate.
    # Vertex 0's reach is 2 (the edge's weight less the hub's lightest arc),
    # so the search from 0 never reaches the hub, and the last hop for
    # (0, 1) reads three hub arcs: the light one, the one back to 0, then
    # the first heavy one, past the best distance.  The other 999 stay
    # unread, also when the edge is read again from its larger end.
    result, scanned = hub([(0, 1, 3), (0, 1002, 1), (1, 1003, 1)])
    assert result.edge(0, 1) == 3
    assert scanned == [(1, 1003), (3, 0), (100, 2)] and list(result._trees) == [0]
    assert result.edge(1, 0) == 3
    assert scanned == [(1, 1003), (3, 0), (100, 2)] and result._rows[1] is None


def test_later_cover_batches_search_only_from_still_broken_edges(monkeypatch):
    # A planted sparse graph whose covers take two batches.  Batch one
    # searches from exactly the sources of the edges that fail the
    # certificate; each later batch searches once from each source of an
    # edge the batch before found broken and left in the working graph, if
    # that edge fails the certificate on the new working graph, and from no
    # other.
    rng = random.Random(7)
    n = 60
    metric = metric_closure_weights(n, random_connected_graph(n, 3 * n, rng), rng, (1, 20))
    weights = metric.integer_form()[1]
    g = metric.replace_weights({e: rng.randrange(weights[e])
                                for e in sorted(rng.sample(metric.edges, 6))})
    maps, results, searches = [], [], []
    real_apsp, real_search = approx._scaled_apsp, paths._dijkstra

    def recording_apsp(n, scale, working):
        maps.append(dict(working))
        results.append(real_apsp(n, scale, working))
        return results[-1]

    def recording_search(adj, source, limit):
        searches.append((adj, source))
        return real_search(adj, source, limit)

    monkeypatch.setattr(approx, "_scaled_apsp", recording_apsp)
    monkeypatch.setattr(paths, "_dijkstra", recording_search)
    # Searches per batch.  Without the certificate batch one searches from
    # every source of an edge, (52, 10, 1) and (52, 8, 0).
    for solver, counts in ((shortest_path_cover, [43, 9, 1]),
                           (general_shortest_path_cover, [43, 7, 0])):
        del maps[:], results[:], searches[:]
        report = solver(g)
        assert len(report.batches) >= 2 and len(results) == report.iterations
        sources = [[s for adj, s in searches if adj is r._adj] for r in results]
        assert sorted(sources[0]) == sorted({u for (u, _) in _failing(maps[0])})
        for before, after, later in zip(maps, maps[1:], sources[1:]):
            full = _FullRows(n, before)
            still_broken = {u for (u, v), w in before.items()
                            if full.rows[u][v] < w and (u, v) in _failing(after)}
            assert sorted(later) == sorted(still_broken)
        assert [len(x) for x in sources] == counts
