"""Independent output checks for the benchmark.

Nothing here imports ``metric_repair``: instances are read back from the
files the benchmark wrote, deltas from the text the program serialized, and
every distance comes from the reference APSP below.  Weights are scaled to
integers by the common denominator; inside the 2^62 guard the reference runs
a numpy int64 Floyd-Warshall, beyond it a plain Python-int Dijkstra.

Each ``check_*`` function returns a list of error strings (empty when the
output is correct), so one run can report every failure at once.
"""

from __future__ import annotations

import csv
import heapq
import io
from fractions import Fraction
from math import lcm

import numpy as np

INT64_GUARD = 2 ** 62


class Instance:
    """An undirected graph on ``0..n-1`` with exact weights keyed ``(u, v)``, ``u < v``."""

    def __init__(self, n: int, weights: dict):
        self.n = n
        self.weights = weights

    def scaled(self) -> tuple[int, dict]:
        scale = lcm(*(w.denominator for w in self.weights.values())) if self.weights else 1
        return scale, {e: w.numerator * (scale // w.denominator)
                       for e, w in self.weights.items()}


def read_instance(text: str, is_matrix: bool) -> Instance:
    """Parse an edge list (``u v w``) or a CSV matrix (empty/nan = no edge)."""
    weights = {}
    if is_matrix:
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        n = len(rows)
        for i, row in enumerate(rows):
            for j in range(i + 1, n):
                cell = row[j].strip()
                if cell and cell.lower() != "nan":
                    weights[(i, j)] = Fraction(cell)
        return Instance(n, weights)
    n = 0
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if not line:
            continue
        u, v = sorted((int(line[0]), int(line[1])))
        weights[(u, v)] = Fraction(line[2])
        n = max(n, v + 1)
    return Instance(n, weights)


def parse_delta(text: str) -> tuple[str, dict, dict]:
    """``(omega, {edge: Fraction}, summary)`` from a TSV delta."""
    entries, summary = {}, {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            summary = dict(item.split("=", 1) for item in line[1:].split() if "=" in item)
            continue
        u, v, value = line.split("\t")
        entries[(int(u), int(v))] = Fraction(value)
    return summary.get("omega", ""), entries, summary


# -- reference distances ------------------------------------------------------


def reference_apsp(inst: Instance) -> tuple[int, list]:
    """``(scale, rows)``: ``rows[u][v] * scale``-scaled distances, None if unreachable."""
    n = inst.n
    scale, ints = inst.scaled()
    top = max(ints.values(), default=0)
    inf = top * max(n, 1) + 1
    if inf < INT64_GUARD:
        d = np.full((n, n), inf, dtype=np.int64)
        np.fill_diagonal(d, 0)
        for (u, v), w in ints.items():
            d[u, v] = d[v, u] = w
        for k in range(n):
            np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
        return scale, [[None if x >= inf else x for x in row] for row in d.tolist()]
    adj = [[] for _ in range(n)]
    for (u, v), w in ints.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    rows = []
    for s in range(n):
        dist = [None] * n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u]:
                if dist[v] is None or du + w < dist[v]:
                    dist[v] = du + w
                    heapq.heappush(heap, (du + w, v))
        rows.append(dist)
    return scale, rows


def reference_is_metric(inst: Instance) -> bool:
    scale, rows = reference_apsp(inst)
    return all(rows[u][v] == w * scale for (u, v), w in inst.weights.items())


def broken_triangle_count(inst: Instance) -> int:
    """Broken 3-cycles, counted per apex ``a`` over pairs ``a < b < c``."""
    n = inst.n
    scale, ints = inst.scaled()
    dtype = np.int64 if 3 * max(ints.values(), default=0) < INT64_GUARD else object
    w = np.zeros((n, n), dtype=dtype)
    has = np.zeros((n, n), dtype=bool)
    for (u, v), x in ints.items():
        w[u, v] = w[v, u] = x
        has[u, v] = has[v, u] = True
    count = 0
    for a in range(n - 2):
        wa, ha = w[a, a + 1:], has[a, a + 1:]
        mask = ha[:, None] & ha[None, :] & has[a + 1:, a + 1:]
        mask &= np.triu(np.ones(mask.shape, dtype=bool), 1)
        x, y, z = wa[:, None], wa[None, :], w[a + 1:, a + 1:]
        top = np.maximum(np.maximum(x, y), z)
        count += int(((2 * top > x + y + z) & mask).sum())
    return count


def _broken_triangles(inst: Instance):
    """Broken triangles as ``(edges, top)`` in lexicographic vertex order."""
    nbrs = [set() for _ in range(inst.n)]
    for u, v in inst.weights:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for (a, b) in sorted(inst.weights):
        for c in sorted(x for x in nbrs[a] & nbrs[b] if x > b):
            edges = ((a, b), (a, c), (b, c))
            ws = [inst.weights[e] for e in edges]
            for e, x in zip(edges, ws):
                if 2 * x > sum(ws):
                    yield edges, e


def greedy_packing(inst: Instance, omega: str) -> int:
    """Broken triangles taken greedily so that no two share an admissible edge.

    Admissible edges are the bottom edges in increase-only mode and all three
    edges in general mode; each packed triangle needs its own support edge,
    so the packing size is a lower bound on the optimum.
    """
    used, size = set(), 0
    for edges, top in _broken_triangles(inst):
        admissible = [e for e in edges if e != top] if omega == "increase" else list(edges)
        if not used.intersection(admissible):
            used.update(admissible)
            size += 1
    return size


# -- output checks ---------------------------------------------------------


_SIGN = {"decrease": lambda x: x < 0, "increase": lambda x: x > 0, "general": lambda x: x != 0}


def check_repair(inst: Instance, omega: str, delta_text: str) -> list[str]:
    """The delta has the right sign class, touches only edges and repairs the graph."""
    got_omega, entries, summary = parse_delta(delta_text)
    errors = []
    if got_omega != omega:
        errors.append(f"omega {got_omega!r}, expected {omega!r}")
    if summary.get("support_size") != str(len(entries)):
        errors.append("summary support_size does not match the entry count")
    if summary.get("is_metric_after") != "true":
        errors.append("summary does not record a metric result")
    repaired = dict(inst.weights)
    for e, x in entries.items():
        if e not in inst.weights:
            errors.append(f"delta touches non-edge {e}")
            continue
        if not _SIGN[omega](x):
            errors.append(f"delta {x} on {e} violates sign class {omega}")
        repaired[e] = inst.weights[e] + x
        if repaired[e] < 0:
            errors.append(f"delta drives {e} below zero")
    if not errors and not reference_is_metric(Instance(inst.n, repaired)):
        errors.append("repaired graph is not metric")
    return errors


def check_decrease_exact(inst: Instance, delta_text: str) -> list[str]:
    """The decrease repair sets exactly the too-long edges to their distance."""
    _, entries, _ = parse_delta(delta_text)
    scale, rows = reference_apsp(inst)
    expected = {}
    for (u, v), w in inst.weights.items():
        if rows[u][v] < w * scale:
            expected[(u, v)] = Fraction(rows[u][v], scale) - w
    if entries != expected:
        return [f"decrease support differs from the reference: {len(entries)} entries "
                f"vs {len(expected)} expected"]
    return []


def check_detect(inst: Instance, out: dict) -> list[str]:
    """Verdict, witness cycle and broken-triangle count of one detection."""
    errors = []
    metric = reference_is_metric(inst)
    if out["is_metric"] != metric:
        errors.append(f"is_metric {out['is_metric']}, reference says {metric}")
    witness = out["witness"]
    if metric and witness is not None:
        errors.append("witness reported on a metric graph")
    if not metric:
        if witness is None:
            errors.append("no witness on a broken graph")
        else:
            errors.extend(check_witness(inst, witness[0], tuple(witness[1])))
    count = broken_triangle_count(inst)
    if out["triangles"] != count:
        errors.append(f"{out['triangles']} broken triangles, reference counts {count}")
    return errors


def check_witness(inst: Instance, cycle: list, top: tuple) -> list[str]:
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return [f"witness {cycle} is not a cycle on 3 or more distinct vertices"]
    edges = [tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)]))) for i in range(len(cycle))]
    if any(e not in inst.weights for e in edges):
        return [f"witness {cycle} uses a non-edge"]
    top = tuple(sorted(top))
    if top not in edges:
        return [f"witness top edge {top} is not on the cycle"]
    rest = sum(inst.weights[e] for e in edges if e != top)
    if not inst.weights[top] > rest:
        return [f"witness {cycle} is not broken"]
    return []


def check_sweep_cap(inst: Instance, delta_text: str) -> list[str]:
    _, entries, _ = parse_delta(delta_text)
    n = inst.n
    if 2 * len(entries) > (n - 1) * (n - 2):
        return [f"sweep touched {2 * len(entries)} cells, cap is {(n - 1) * (n - 2)}"]
    return []


def check_fpt_size(inst: Instance, omega: str, delta_text: str, planted: int) -> list[str]:
    _, entries, _ = parse_delta(delta_text)
    low = greedy_packing(inst, omega)
    if not low <= len(entries) <= planted:
        return [f"fpt {omega} size {len(entries)} outside [packing {low}, planted {planted}]"]
    return []


def check_within_support(delta_text: str, support: set) -> list[str]:
    _, entries, _ = parse_delta(delta_text)
    outside = set(entries) - support
    return [f"verified delta leaves the support at {sorted(outside)[:3]}"] if outside else []


def same_delta(a: str, b: str) -> bool:
    """Two serialized deltas carry the same sign class and entries."""
    return parse_delta(a)[:2] == parse_delta(b)[:2]
