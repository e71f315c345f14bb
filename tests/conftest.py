"""Shared instance generators for the test suite.

Everything is seeded; tests freeze their seeds so reruns are identical.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction
from itertools import combinations, permutations

from metric_repair import (
    DistanceMatrix,
    InputFormatError,
    WeightedGraph,
    edge_key,
    verify_support,
)
from metric_repair.detect import broken_triangles, cover_masks, mask_edges
from metric_repair.fileio import MAX_VERTICES, _printable, parse_exact
from metric_repair.graphs import clipped
from metric_repair.oracle import _repair_or_missed_mask


def random_graph(rng: random.Random, n: int, m: int,
                 weights=(0, 10)) -> WeightedGraph:
    """Random graph with exactly m edges and integer weights."""
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    lo, hi = weights
    return WeightedGraph(n, ((u, v, rng.randint(lo, hi)) for (u, v) in pairs[:m]))


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    out, candidate = [], 2
    while len(out) < count:
        if all(candidate % p for p in out if p * p <= candidate):
            out.append(candidate)
        candidate += 1
    return out


def tree_sweep_graphs():
    """200 seeded graphs for shortest-path-tree checks.

    n <= 12, weights from {0}, {0, 1}, 0-3, 1-9 and 0-10 (zero-weight
    plateaus and ties), densities from empty to complete (disconnected
    graphs included), and the last vertex sometimes isolated.
    """
    rng = random.Random(500)
    for weights in ((0, 0), (0, 1), (0, 3), (1, 9), (0, 10)):
        for _ in range(40):
            n = rng.randint(1, 12)
            core = n - 1 if n > 1 and rng.random() < 0.3 else n
            m = rng.randint(0, core * (core - 1) // 2)
            g = random_graph(rng, core, m, weights)
            yield WeightedGraph(n, ((u, v, g.weight(u, v)) for (u, v) in g.edges))


def random_mixed_instance(seed: int, max_n: int = 6, max_m: int = 12,
                          weights=(0, 10)) -> WeightedGraph:
    """Sparse or complete random instance under the given size caps."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        n = rng.randint(3, max_n)
        while n * (n - 1) // 2 > max_m:
            n -= 1
        return random_graph(rng, n, n * (n - 1) // 2, weights)
    n = rng.randint(3, max_n)
    m = rng.randint(n - 1, min(max_m, n * (n - 1) // 2))
    return random_graph(rng, n, m, weights)


def random_matrix(rng: random.Random, n: int, top: int = 12) -> DistanceMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(0, top)
            rows[i][j] = w
            rows[j][i] = w
    return DistanceMatrix(rows)


# -- independent brute-force oracles ------------------------------------------


def all_simple_path_dist(g: WeightedGraph, s: int, t: int) -> Fraction | None:
    """Minimum path weight by exhaustive DFS over simple paths."""
    if s == t:
        return Fraction(0)
    best: list[Fraction | None] = [None]

    def walk(v: int, used: set, acc: Fraction) -> None:
        for u in g.neighbors(v):
            if u in used:
                continue
            total = acc + g.weight(v, u)
            if best[0] is not None and total > best[0]:
                continue
            if u == t:
                if best[0] is None or total < best[0]:
                    best[0] = total
            else:
                used.add(u)
                walk(u, used, total)
                used.remove(u)

    walk(s, {s}, Fraction(0))
    return best[0]


def enumerate_cycles_by_permutation(g: WeightedGraph):
    """Every simple cycle, generated independently via subset permutations.

    Yields canonical vertex tuples (smallest vertex first, second < last);
    only usable on tiny graphs.
    """
    n = g.n
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                if rest[0] > rest[-1]:
                    continue
                cycle = (first,) + rest
                if all(g.has_edge(cycle[i], cycle[(i + 1) % size])
                       for i in range(size)):
                    yield cycle


def broken_cycles_brute(g: WeightedGraph):
    """(cycle, top_edge) pairs for every broken cycle, independent route."""
    weight = g.weight_map()
    for cycle in enumerate_cycles_by_permutation(g):
        size = len(cycle)
        edges = [edge_key(cycle[i], cycle[(i + 1) % size]) for i in range(size)]
        weights = [weight[e] for e in edges]
        total = sum(weights, Fraction(0))
        for e, w in zip(edges, weights):
            if 2 * w > total:
                yield cycle, e
                break


def is_metric_brute(g: WeightedGraph) -> bool:
    return next(iter(broken_cycles_brute(g)), None) is None


def min_vertex_cover_size(n: int, edges) -> int:
    """Brute-force minimum vertex cover of an unweighted graph."""
    edges = list(edges)
    for size in range(n + 1):
        for cover in combinations(range(n), size):
            chosen = set(cover)
            if all(u in chosen or v in chosen for (u, v) in edges):
                return size
    raise AssertionError("all vertices always cover")


def canonical_parents(n: int, intw: dict, drow: list, source: int) -> tuple:
    """Canonical shortest-path tree rebuilt from exact distances ``drow``.

    The reference for ``ApspResult.parents``: vertices settle one at a time.
    A vertex becomes eligible once some settled neighbor p satisfies
    ``drow[p] + w(p, v) == drow[v]``; among eligible vertices the smallest
    ``(distance, id)`` settles next, attached to its smallest settled tight
    predecessor.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in intw.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent: list[int | None] = [None] * n
    settled = [False] * n
    candidate: list[int | None] = [None] * n

    def relax_from(p: int) -> None:
        for v, w in adj[p]:
            if settled[v] or drow[v] is None:
                continue
            if drow[p] + w == drow[v] and (candidate[v] is None or p < candidate[v]):
                candidate[v] = p

    settled[source] = True
    relax_from(source)
    remaining = {v for v in range(n) if drow[v] is not None and v != source}
    while remaining:
        best = min((v for v in remaining if candidate[v] is not None),
                   key=lambda v: (drow[v], v))
        parent[best] = candidate[best]
        settled[best] = True
        remaining.remove(best)
        relax_from(best)
    return tuple(parent)


def full_relaxation(n: int, intw, sentinel: int) -> list[list[int | None]]:
    """Reference dense rows: every ordered pair relaxed through every pivot,
    with no use of symmetry; ``None`` where ``sentinel`` stays."""
    d = [[sentinel] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for (u, v), w in intw.items():
        if w < d[u][v]:
            d[u][v] = w
            d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik >= sentinel:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return [[None if x == sentinel else x for x in row] for row in d]


def verifier_subset_walk(g: WeightedGraph, omega):
    """First support, by size then lexicographically, that the Verifier accepts.

    The exact oracle's reference without learning: every subset goes to the
    Verifier.  Returns the support and the Verifier's repair on it.
    """
    for size in range(g.m + 1):
        for combo in combinations(g.edges, size):
            outcome = verify_support(g, combo, omega)
            if outcome.accepted:
                return frozenset(combo), outcome.delta
    raise AssertionError("the full edge set always admits a repair")


def packing_exceeds(masks, hit: int, room: int) -> bool:
    """Whether more than ``room`` of ``masks`` miss ``hit`` and pairwise share no edge.

    Packs greedily in list order.  Each packed mask needs an edge of its own,
    so when this returns True every support that contains ``hit`` and at most
    ``room`` more edges misses some mask: the standard packing lower bound of
    bounded search trees (Cygan et al., *Parameterized Algorithms*, 2015,
    ch. 3).
    """
    blocked = hit
    for mask in masks:
        if not mask & blocked:
            blocked |= mask
            room -= 1
            if room < 0:
                return True
    return room < 0


def minimum_hitting_set_by_branch_and_bound(requirements: list[int], m: int) -> tuple[int, int]:
    """Fewest of ``m`` edge bits meeting every mask in ``requirements``, as a mask.

    Branch and bound: a node is cut when its count plus the greedy packing
    bound (``packing_exceeds``) cannot beat the best cover so far.
    Branching picks the first unhit mask (masks sorted by size) and tries
    each of its edges in index order, keeping the first best cover found, so
    the result is deterministic.
    """
    requirements = sorted(requirements, key=lambda mask: (bin(mask).count("1"), mask))
    best = [m + 1, (1 << m) - 1]

    def search(chosen: int, count: int) -> None:
        if packing_exceeds(requirements, chosen, best[0] - 1 - count):
            return
        req = next((mask for mask in requirements if not mask & chosen), None)
        if req is None:
            best[0], best[1] = count, chosen
            return
        while req:
            low = req & -req
            search(chosen | low, count + 1)
            req ^= low

    search(0, 0)
    assert best[0] <= m  # the full edge set always covers
    return best[0], best[1]


def lazy_cover_by_branch_and_bound(g: WeightedGraph, omega) -> tuple[int, frozenset]:
    """``oracle.minimum_cycle_cover`` with each round's minimum taken by
    ``minimum_hitting_set_by_branch_and_bound``."""
    requirements = cover_masks(g, broken_triangles(g), omega)
    while True:
        size, chosen = minimum_hitting_set_by_branch_and_bound(requirements, g.m)
        support = frozenset(mask_edges(g, chosen))
        delta, missed = _repair_or_missed_mask(g, support, omega)
        if delta is not None:
            return size, support
        requirements.append(missed)


# -- reference loaders and chordality test --------------------------------------


def reference_parse_edge_list(text: str) -> WeightedGraph:
    """The two-pass edge-list loader the one-pass one must match: the file is
    checked line by line, then every edge again by ``WeightedGraph``."""
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputFormatError(f"line {lineno}: expected 'u v w', got {clipped(raw)!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise InputFormatError(f"line {lineno}: vertex ids must be nonnegative")
        if max(u, v) >= MAX_VERTICES:
            raise InputFormatError(
                f"line {lineno}: vertex id {clipped(max(u, v))} is not below {MAX_VERTICES}")
        if u == v:
            raise InputFormatError(f"line {lineno}: self-loop {u}")
        key = edge_key(u, v)
        if key in seen:
            raise InputFormatError(f"line {lineno}: duplicate edge {key}")
        seen.add(key)
        w = parse_exact(parts[2])
        if w < 0:
            raise InputFormatError(f"line {lineno}: negative weight {clipped(parts[2])}")
        edges.append((u, v, w))
    n = 1 + max((max(u, v) for u, v, _ in edges), default=-1)
    return _printable(WeightedGraph(n, edges))


def reference_parse_matrix_csv(text: str) -> WeightedGraph:
    """The two-pass matrix loader: cells parsed one by one, symmetry checked
    cell by cell, then every edge checked again by ``WeightedGraph``."""
    try:
        cells = [row for row in csv.reader(io.StringIO(text, newline=None)) if row]
    except csv.Error as exc:
        raise InputFormatError(f"bad CSV: {exc}") from None
    n = len(cells)
    parsed = []
    for i, row in enumerate(cells):
        if len(row) != n:
            raise InputFormatError(f"row {i}: expected {n} columns, got {len(row)}")
        out_row = []
        for j, cell in enumerate(row):
            token = cell.strip()
            if token == "" or token.lower() == "nan":
                out_row.append(None)
                continue
            value = parse_exact(token)
            if value < 0:
                raise InputFormatError(f"cell ({i},{j}): negative entry {clipped(token)}")
            out_row.append(value)
        parsed.append(out_row)
    for i in range(n):
        if parsed[i][i] != 0:
            raise InputFormatError(f"diagonal cell ({i},{i}) must be 0")
        for j in range(i + 1, n):
            if parsed[i][j] != parsed[j][i]:
                raise InputFormatError(f"cells ({i},{j})/({j},{i}) are not symmetric")
    edges = [(i, j, parsed[i][j]) for i in range(n) for j in range(i + 1, n)
             if parsed[i][j] is not None]
    return _printable(WeightedGraph(n, edges))


def graph_state(g: WeightedGraph) -> tuple:
    """Everything a graph holds, the order of its weight store included."""
    scale, intw = g.integer_form()
    return (g.n, g.edges, tuple(g.neighbors(v) for v in range(g.n)), scale,
            tuple(intw.items()))


def reference_elimination_ordering(g: WeightedGraph) -> tuple[int, ...] | None:
    """Maximum cardinality search by a full scan for each vertex (ties to the
    smaller id), then the parent test with every neighbour set built."""
    n = g.n
    weight = [0] * n
    visited = [False] * n
    visit_order: list[int] = []
    for _ in range(n):
        best = max((v for v in range(n) if not visited[v]), key=lambda v: (weight[v], -v))
        visited[best] = True
        visit_order.append(best)
        for u in g.neighbors(best):
            if not visited[u]:
                weight[u] += 1
    elimination = visit_order[::-1]
    position = {v: i for i, v in enumerate(elimination)}
    neighbor_sets = [set(g.neighbors(v)) for v in range(n)]
    for v in elimination:
        later = [u for u in g.neighbors(v) if position[u] > position[v]]
        if not later:
            continue
        parent = min(later, key=position.__getitem__)
        for u in later:
            if u != parent and u not in neighbor_sets[parent]:
                return None
    return tuple(elimination)
