"""Deterministic instance generators: adversarial constructions and plants.

Every generator is reproducible byte-for-byte from its parameters (plus seed
for the random kinds).  The planted kinds also report which edges were
corrupted; the plant size is an upper bound on the optimal repair size, not
necessarily the optimum itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple

from .fileio import MAX_VERTICES
from .graphs import DistanceMatrix, WeightedGraph, edge_key
from .paths import apsp

GADGET_KINDS = (
    "CycleFig1",
    "CycleTight",
    "CompletedCycle",
    "VertexCoverSuspension",
    "ComponentL",
    "IomrWorst",
    "DenseGamma",
    "PlantedChordal",
    "PlantedComplete",
)

RANDOM_KINDS = ("PlantedChordal", "PlantedComplete")


class GadgetSpec(NamedTuple):
    kind: str
    params: Mapping


class GadgetInstance(NamedTuple):
    instance: object  # WeightedGraph or DistanceMatrix
    planted_support: frozenset | None = None


def cycle_with_heavy_edge(n: int, heavy: Fraction, light: Fraction) -> WeightedGraph:
    """The n-cycle 0-1-...-(n-1)-0 with edge (0,1) at ``heavy``, rest ``light``."""
    if n < 3:
        raise ValueError("a cycle needs n >= 3")
    edges = []
    for i in range(n):
        u, v = i, (i + 1) % n
        edges.append((u, v, heavy if (u, v) == (0, 1) else light))
    return WeightedGraph(n, edges)


def cycle_fig_one(n: int) -> WeightedGraph:
    """Cycle with a single weight-1 edge among weight-0 edges; optimum 1."""
    return cycle_with_heavy_edge(n, Fraction(1), Fraction(0))


def cycle_tight(n: int) -> WeightedGraph:
    """Cycle with one weight-n edge among unit edges; the path-cover worst case."""
    return cycle_with_heavy_edge(n, Fraction(n), Fraction(1))


def completed_cycle(n: int) -> WeightedGraph:
    """``cycle_fig_one`` naively completed with shortest-distance chords.

    Adding the chords blows the increase-only optimum up from 1 to n-2.
    """
    base = cycle_fig_one(n)
    d = apsp(base)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = base.weight(u, v) if base.has_edge(u, v) else d.dist(u, v)
            edges.append((u, v, w))
    return WeightedGraph(n, edges)


def suspension(base_n: int, base_edges, alpha: Fraction = Fraction(1)) -> WeightedGraph:
    """Vertex-cover reduction gadget: base edges at 3*alpha under a new apex.

    The apex (vertex ``base_n``) connects to every base vertex with weight
    ``alpha``, so each base edge tops a broken triangle through the apex and
    the optimal repair size equals the base graph's minimum vertex cover.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    edges = [(u, v, 3 * alpha) for (u, v) in base_edges]
    edges.extend((v, base_n, alpha) for v in range(base_n))
    return WeightedGraph(base_n + 1, edges)


def component_blocks(n: int, block: int) -> WeightedGraph:
    """Complete graph split into blocks that each hide long broken cycles.

    Within each block of ``block`` vertices a perfect matching has weight 1 and
    the remaining pairs weight 0; pairs across blocks get weight 2.  ``block``
    must be even and divide ``n``.  Broken cycles stay inside one block and the
    longest has exactly ``block`` edges once ``block >= 4``.
    """
    if block < 2 or block % 2 != 0:
        raise ValueError("block size must be even and at least 2")
    if n % block != 0:
        raise ValueError("block size must divide n")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u // block != v // block:
                w = Fraction(2)
            elif v == u + 1 and (u % block) % 2 == 0:
                w = Fraction(1)  # matched pair inside the block
            else:
                w = Fraction(0)
            edges.append((u, v, w))
    return WeightedGraph(n, edges)


def sweep_worst_matrix(n: int) -> DistanceMatrix:
    """Matrix making the raising sweep touch every repairable cell.

    Row and column 0 hold powers of two (entry (0, j) is 2^(j+1), i.e. 2^j in
    1-based indexing); all other off-diagonal entries are zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n):
        rows[0][j] = Fraction(2 ** (j + 1))
        rows[j][0] = rows[0][j]
    return DistanceMatrix(rows)


def dense_block_matrix(n: int, k: int) -> DistanceMatrix:
    """Block matrix with a dense optimal repair; requires k/n < 1/2.

    Zero block on the first k indices, ones among the rest, and cross entries
    ``k - i`` for row ``i < k`` (1-based value k+1-i).  The optimal repair
    rewrites the zero block (k(k-1) cells) while the raising sweep rewrites
    both cross blocks except row/column 0, i.e. 2(n-k)(k-1) cells.
    """
    if not 1 <= k or not 2 * k < n:
        raise ValueError("need 1 <= k and k/n < 1/2")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = min(i, j), max(i, j)
            if b < k:
                value = Fraction(0)
            elif a >= k:
                value = Fraction(1)
            else:
                value = Fraction(k - a)
            rows[i][j] = value
    return DistanceMatrix(rows)


def random_connected_graph(n: int, m: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Edge set of a random connected graph: a random spanning tree plus fill."""
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ValueError("edge count out of range for a connected graph")
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.add(edge_key(order[i], order[rng.randrange(i)]))
    remaining = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(remaining)
    edges.update(remaining[: m - len(edges)])
    return tuple(sorted(edges))


def random_chordal_edges(n: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Random chordal graph built by attaching each vertex to a clique subset."""
    first = min(3, n)
    edges = {edge_key(u, v) for u, v in combinations(range(first), 2)}
    cliques = [tuple(range(first))]
    for v in range(first, n):
        base = cliques[rng.randrange(len(cliques))]
        size = rng.randint(1, len(base))
        anchors = sorted(rng.sample(base, size))
        edges.update(edge_key(a, v) for a in anchors)
        cliques.append(tuple(anchors + [v]))
    return tuple(sorted(edges))


def metric_closure_weights(n: int, edges, rng: random.Random,
                           weight_range: tuple[int, int]) -> WeightedGraph:
    """Random integer weights pulled down to their shortest-path distances."""
    lo, hi = weight_range
    raw = WeightedGraph(n, ((u, v, rng.randint(lo, hi)) for (u, v) in edges))
    d = apsp(raw)  # integer weights: distances are on scale 1
    return raw.replace_weights({(u, v): d.edge(u, v) for (u, v) in raw.edges})


def _plant_decreases(g: WeightedGraph, k: int, rng: random.Random):
    scale, intw = g.integer_form()
    assert scale == 1  # integer construction
    candidates = [e for e in g.edges if intw[e] > 0]
    planted = sorted(rng.sample(candidates, min(k, len(candidates))))
    return g.replace_weights({e: rng.randrange(intw[e]) for e in planted}), frozenset(planted)


def planted_chordal(n: int, k: int, seed: int,
                    weight_range: tuple[int, int] = (1, 10)) -> GadgetInstance:
    """Metric random chordal graph with up to ``k`` edges corrupted downwards.

    Re-raising the corrupted edges restores the metric, so the plant size
    bounds the optimal repair size from above in every sign class.
    """
    rng = random.Random(seed)
    edges = random_chordal_edges(n, rng)
    metric = metric_closure_weights(n, edges, rng, weight_range)
    broken, planted = _plant_decreases(metric, k, rng)
    return GadgetInstance(instance=broken, planted_support=planted)


def planted_complete(n: int, k: int, seed: int,
                     weight_range: tuple[int, int] = (1, 20)) -> GadgetInstance:
    """Metric random complete instance with up to ``k`` entries corrupted."""
    rng = random.Random(seed)
    edges = tuple(combinations(range(n), 2))
    metric = metric_closure_weights(n, edges, rng, weight_range)
    broken, planted = _plant_decreases(metric, k, rng)
    return GadgetInstance(instance=DistanceMatrix.from_graph(broken),
                          planted_support=planted)


_BASE_FAMILIES = ("path", "cycle", "complete", "star", "random")


def base_graph_edges(family: str, n: int, seed: int | None = None,
                     m: int | None = None) -> tuple[tuple[int, int], ...]:
    """Unweighted base graphs for the vertex-cover gadget."""
    if family == "path":
        return tuple((i, i + 1) for i in range(n - 1))
    if family == "cycle":
        return tuple(edge_key(i, (i + 1) % n) for i in range(n))
    if family == "complete":
        return tuple(combinations(range(n), 2))
    if family == "star":
        return tuple((0, i) for i in range(1, n))
    if family == "random":
        if seed is None:
            raise ValueError("random base graphs require a seed")
        rng = random.Random(seed)
        if m is None:
            m = rng.randint(n - 1, n * (n - 1) // 2)
        return random_connected_graph(n, m, rng)
    raise ValueError(f"unknown base family {family!r}; expected one of {_BASE_FAMILIES}")


def build(spec: GadgetSpec) -> GadgetInstance:
    """Materialize a gadget description (the CLI's entry point).

    Sizes (``n``, ``base_n``, ``base_m``) must be below ``fileio.MAX_VERTICES``:
    the reader refuses a larger instance anyway.
    """
    kind, p = spec.kind, dict(spec.params)
    if kind == "CycleFig1":
        return GadgetInstance(cycle_fig_one(_size(p, "n")))
    if kind == "CycleTight":
        return GadgetInstance(cycle_tight(_size(p, "n")))
    if kind == "CompletedCycle":
        return GadgetInstance(completed_cycle(_size(p, "n")))
    if kind == "VertexCoverSuspension":
        n = _size(p, "base_n")
        edges = base_graph_edges(p.get("base", "path"), n,
                                 seed=int(p["seed"]) if "seed" in p else None,
                                 m=_size(p, "base_m") if "base_m" in p else None)
        alpha = Fraction(p.get("alpha", 1))
        return GadgetInstance(suspension(n, edges, alpha))
    if kind == "ComponentL":
        return GadgetInstance(component_blocks(_size(p, "n"), int(p["L"])))
    if kind == "IomrWorst":
        return GadgetInstance(sweep_worst_matrix(_size(p, "n")))
    if kind == "DenseGamma":
        return GadgetInstance(dense_block_matrix(_size(p, "n"), int(p["k"])))
    if kind == "PlantedChordal":
        return planted_chordal(_size(p, "n"), int(p["k"]), int(p["seed"]))
    if kind == "PlantedComplete":
        return planted_complete(_size(p, "n"), int(p["k"]), int(p["seed"]))
    raise ValueError(f"unknown gadget kind {kind!r}; expected one of {GADGET_KINDS}")


def _size(params: dict, key: str) -> int:
    value = int(params[key])
    if value >= MAX_VERTICES:
        raise ValueError(f"{key} must be below {MAX_VERTICES}")
    return value
