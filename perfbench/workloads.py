"""Seeded inputs and operation lists for the four benchmark workloads.

``build(workload, seed, directory)`` generates every instance with
``metric_repair.gadgets``, writes it as an edge list or CSV matrix, and
returns the manifest: the in-process operations, the CLI commands and the
facts the checks need (planted sizes).  The same seed always writes the same
bytes.  Sizes are fixed per workload; the seed changes the instances, not how
much work they take on average.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from metric_repair import fileio, gadgets

import check

WORKLOADS = ("complete-detect", "complete-repair", "sparse-pathcover", "chordal-fpt")

# Three primes near 2^21: a matrix carrying 1/p for each has a common
# denominator above 2^63, past the 2^62 guard of the int64 kernels.
BIG_DENOMINATORS = (2097143, 2097169, 2097211)


def build(workload: str, seed: int, directory: Path) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    writer = _Writer(directory)
    {
        "complete-detect": _complete_detect,
        "complete-repair": _complete_repair,
        "sparse-pathcover": _sparse_pathcover,
        "chordal-fpt": _chordal_fpt,
    }[workload](rng, writer)
    return {"ops": writer.ops, "cli": writer.cli, "files": writer.files}


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.ops: list[dict] = []
        self.cli: list[dict] = []
        self.files: dict[str, dict] = {}

    def matrix(self, name: str, graph, **facts) -> str:
        return self._write(f"{name}.csv", fileio.serialize_matrix_csv(graph), True, facts)

    def edges(self, name: str, graph, **facts) -> str:
        return self._write(f"{name}.txt", fileio.serialize_edge_list(graph), False, facts)

    def _write(self, filename: str, text: str, is_matrix: bool, facts: dict) -> str:
        (self.directory / filename).write_text(text, encoding="utf-8")
        self.files[filename] = {"matrix": is_matrix, **facts}
        return filename

    def op(self, kind: str, filename: str, **fields) -> str:
        op_id = f"{kind}-{len(self.ops)}"
        self.ops.append({"id": op_id, "kind": kind, "file": filename, **fields})
        return op_id

    def repair(self, filename: str, algo: str, omega: str) -> str:
        return self.op("repair", filename, algo=algo, omega=omega)

    def command(self, args: list, expect_exit: int | None, same_as: str | None = None,
                delta_out: bool = False) -> None:
        """A CLI command; ``expect_exit=None`` means 1 on a broken input, else 0."""
        self.cli.append({"args": args, "expect_exit": expect_exit, "same_as": same_as,
                         "delta_out": delta_out})


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _planted_complete(rng, n: int, k: int):
    return gadgets.planted_complete(n, k, seed=_sub_seed(rng)).instance.to_graph()


def _complete_detect(rng, w: _Writer) -> None:
    # Four broken matrices, one metric one (no plants) and the dense block
    # gadget, whose (k-1)(n-k) = 868 long cross entries fix most of the
    # decrease support: one low plant can make a hundred entries too long, so
    # planted matrices alone give totals that vary widely between seeds.  The
    # cubic broken-triangle scan over Fractions dominates each detect.
    matrices = [_planted_complete(rng, 40, 1) for _ in range(4)]
    matrices += [_planted_complete(rng, 40, 0), gadgets.dense_block_matrix(60, 29).to_graph()]
    for i, matrix in enumerate(matrices):
        name = w.matrix(f"detect{i}", matrix)
        detect_id = w.op("detect", name)
        repair_id = w.repair(name, "dmr", "decrease")
        if i in (0, 4):  # a broken matrix, and the metric one
            w.command(["detect", name], expect_exit=None, same_as=detect_id)
        if i == 0:
            w.command(["repair", name, "--omega", "decrease", "--algo", "dmr"],
                      expect_exit=0, same_as=repair_id, delta_out=True)


def _complete_repair(rng, w: _Writer) -> None:
    big = w.matrix("int120", _planted_complete(rng, 120, 2))
    w.repair(big, "dmr", "decrease")
    sweep_id = w.repair(big, "iomr", "increase")
    w.command(["repair", big, "--omega", "increase", "--algo", "iomr"],
              expect_exit=0, same_as=sweep_id, delta_out=True)
    # The sweep's worst case: it rewrites every repairable cell, a fixed
    # support of 55 * 54 / 2 pairs that shows any change in the sweep.  The
    # planted matrices carry few plants because one low plant can make
    # hundreds of entries too long, which would swamp this count.
    w.repair(w.matrix("sweepworst56", gadgets.sweep_worst_matrix(56).to_graph()),
             "iomr", "increase")
    for i in range(2):
        mid = w.matrix(f"mid{i}", _planted_complete(rng, 40, 5))
        w.repair(mid, "spc", "increase")
    for i in range(2):
        small = w.matrix(f"small{i}", _planted_complete(rng, 10, 3))
        cover_id = w.repair(small, "5cc", "increase")
        if i == 0:
            w.command(["repair", small, "--omega", "increase", "--algo", "5cc"],
                      expect_exit=0, same_as=cover_id, delta_out=True)
    # A rational matrix whose common denominator exceeds 2^62: three entries
    # gain 1/p, which sends APSP and the sweep to their big-integer paths.
    base = _planted_complete(rng, 48, 2)
    picked = rng.sample(base.edges, len(BIG_DENOMINATORS))
    rational = base.replace_weights(
        {e: base.weight(*e) + Fraction(1, p) for e, p in zip(picked, BIG_DENOMINATORS)})
    name = w.matrix("rational48", rational)
    rational_dmr = w.repair(name, "dmr", "decrease")
    w.repair(name, "iomr", "increase")
    w.command(["repair", name, "--omega", "decrease", "--algo", "dmr"],
              expect_exit=0, same_as=rational_dmr, delta_out=True)


def _sparse_pathcover(rng, w: _Writer) -> None:
    # Random connected graphs with m = 3n and seeded planted decreases, plus
    # the path cover's tight case: a 300-cycle with one heavy edge, whose
    # increase-only cover is all 299 light edges.  Its fixed supports carry
    # most of support_edges, and the CLI runs the path cover on it, so both
    # figures vary little between seeds.
    n, planted = 120, 3
    for i in range(3):
        edges = gadgets.random_connected_graph(n, 3 * n, rng)
        metric = gadgets.metric_closure_weights(n, edges, rng, (1, 20))
        lowered = {}
        for e in sorted(rng.sample([e for e in metric.edges if metric.weight(*e) > 0],
                                   planted)):
            lowered[e] = Fraction(rng.randrange(int(metric.weight(*e))))
        name = w.edges(f"sparse{i}", metric.replace_weights(lowered))
        ids = _path_covers(w, name)
        if i == 0:
            w.command(["repair", name, "--omega", "decrease", "--algo", "dmr"],
                      expect_exit=0, same_as=ids["dmr"], delta_out=True)
    name = w.edges("tightcycle300", gadgets.cycle_tight(300))
    ids = _path_covers(w, name)
    w.command(["repair", name, "--omega", "increase", "--algo", "spc"],
              expect_exit=0, same_as=ids["spc"], delta_out=True)
    w.command(["verify", name, "--support", f"{ids['verify']}.support", "--omega", "increase"],
              expect_exit=0, same_as=ids["verify"])


def _path_covers(w: _Writer, name: str) -> dict:
    ids = {"spc": w.repair(name, "spc", "increase"),
           "gspc": w.repair(name, "gspc", "general"),
           "dmr": w.repair(name, "dmr", "decrease")}
    ids["verify"] = w.op("verify", name, support_of=ids["spc"])
    return ids


def _chordal_fpt(rng, w: _Writer) -> None:
    # Planted chordal graphs with two corrupted edges.  An instance is kept
    # only when the greedy triangle packing already needs two edges in both
    # modes, so its optimum is exactly 2: iterative deepening in fpt has no
    # work budget, and optima of 3 or more make single instances run for
    # seconds to minutes, which no steady benchmark can absorb.
    n, planted, count = 20, 2, 80
    kept = 0
    while kept < count:
        made = gadgets.planted_chordal(n, planted, seed=_sub_seed(rng))
        ref = check.Instance(made.instance.n, made.instance.weight_map())
        if len(made.planted_support) != planted or any(
                check.greedy_packing(ref, omega) != planted for omega in ("increase", "general")):
            continue
        name = w.edges(f"chordal{kept}", made.instance, planted=planted)
        _fpt_both(w, name, cli=kept == 0)
        kept += 1
    # The vertex-cover suspension of the 8-vertex path is chordal with
    # optimum 4 (the path's minimum vertex cover): thousands of Verifier
    # calls on a 9-vertex graph, the same work for every seed.
    path = gadgets.suspension(8, gadgets.base_graph_edges("path", 8))
    _fpt_both(w, w.edges("suspension8", path, planted=4), cli=True)


def _fpt_both(w: _Writer, name: str, cli: bool) -> None:
    for omega in ("increase", "general"):
        op_id = w.repair(name, "fpt", omega)
        if cli:
            w.command(["repair", name, "--omega", omega, "--algo", "fpt"],
                      expect_exit=0, same_as=op_id, delta_out=True)
