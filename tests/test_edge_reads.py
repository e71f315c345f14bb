"""Edge reads: bounded searches against full rows and full trees.

``ApspResult.edge(u, v)`` answers from a search that stops once every vertex
within ``u``'s heaviest edge to a larger id is settled.  These tests hold it,
and every caller that only reads edges, to references that read full rows
filled by the Python dense kernel and trees from the settle-one-at-a-time
reference in ``conftest``.
"""

from __future__ import annotations

import random
from fractions import Fraction

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
from metric_repair.gadgets import cycle_tight, metric_closure_weights, random_connected_graph
from metric_repair.graphs import edge_key
from metric_repair.paths import ApspResult, _dense_int_python

from conftest import canonical_parents, random_graph, tree_sweep_graphs


class _FullRows:
    """Every row from the Python dense kernel; paths from the reference tree."""

    def __init__(self, n: int, intw: dict):
        self.n, self.intw = n, intw
        sentinel = max(intw.values(), default=0) * max(n, 1) + 1
        self.rows = _dense_int_python(n, intw, sentinel)

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
            # Only bounded searches ran, and each settled exactly the vertices
            # within its stop distance, with the full search's distance and
            # canonical parent.
            assert result._rows == [None] * g.n and result._parents == {}
            for u, (drow, parents) in result._near.items():
                limit = max(w for (a, _), w in weights.items() if a == u)
                tree = full.tree(u)
                for x in range(g.n):
                    within = full.rows[u][x] is not None and full.rows[u][x] <= limit
                    assert (drow[x] is not None) == within, (u, x)
                    if within:
                        assert (drow[x], parents[x]) == (full.rows[u][x], tree[x])
            # Arbitrary pairs keep full-search semantics after edge reads.
            for u in range(g.n):
                assert result.row(u) == full.rows[u]
                for v in range(g.n):
                    assert result.path(u, v) == full.path(u, v)
        count += 1
    assert count == 200


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
    for (u, v), old in intw.items():
        new = full.rows[u][v]
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
    # cycle_tight(300): a unit edge's search settles its 3 vertices, and only
    # vertex 0, whose heavy edge reaches around the cycle, settles all 300.
    # Full searches settle n^2 = 90,000 vertices per walk over the edges.
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
    assert sum(settled) <= 4 * n
    repaired = apply_delta(g, delta)
    settled.clear()
    assert is_metric(repaired)  # reads every edge: one search per source but n - 1
    assert len(settled) == n - 1 and sum(settled) <= 4 * n
