"""Benchmark suites feeding the CLI's ``bench`` subcommand.

Each suite yields one CSV row per (instance, algorithm) pair.  Optimal sizes
come from the exact oracle ``minimum_cycle_cover``; matrix rows count them
in cells, two per pair.  All randomness is seed-fixed, so repeated runs
produce identical CSV bodies (timings aside).
"""

from __future__ import annotations

import csv
from typing import NamedTuple

from .detect import DEFAULT_CYCLE_BUDGET
from .graphs import OmegaClass, WeightedGraph
from .oracle import minimum_cycle_cover
from .gadgets import (
    GadgetInstance,
    base_graph_edges,
    completed_cycle,
    cycle_fig_one,
    cycle_tight,
    dense_block_matrix,
    planted_complete,
    suspension,
    sweep_worst_matrix,
)
from .runner import run_algo

CSV_COLUMNS = ("instance", "kind", "n", "m", "algo", "omega", "support_size",
               "opt", "L", "iterations", "time_ms")


class BenchRow(NamedTuple):
    instance: str
    kind: str
    n: int
    m: int
    algo: str
    omega: str
    support_size: int
    opt: int | None
    longest_minus_one: int | None
    iterations: int | None
    time_ms: float


def run_suite(name: str) -> list[BenchRow]:
    if name == "table1":
        return suite_table1()
    if name == "scaling":
        return suite_scaling()
    if name == "ratios":
        return suite_ratios()
    raise ValueError(f"unknown suite {name!r}")


def write_csv(handle, rows: list[BenchRow]) -> None:
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.instance, r.kind, r.n, r.m, r.algo, r.omega, r.support_size,
            "" if r.opt is None else r.opt,
            "" if r.longest_minus_one is None else r.longest_minus_one,
            "" if r.iterations is None else r.iterations,
            f"{r.time_ms:.3f}",
        ])


def _row(label: str, kind: str, instance, omega: OmegaClass, algo: str,
         opt: int | None = None, with_l: bool = False) -> BenchRow:
    # Matrix-sweep rows count repaired matrix cells (two per pair), matching
    # the symmetric-matrix reading; everything else counts edges.
    report = run_algo(instance, omega, algo,
                      exact_cycle_budget=DEFAULT_CYCLE_BUDGET if with_l else None)
    if not report.valid:
        raise AssertionError(f"{algo} produced an invalid repair on {label}")
    size = report.repaired_cells if algo == "iomr" else report.support_size
    length = report.longest_broken_cycle
    longest = None if length is None else length - 1
    return BenchRow(
        instance=label, kind=kind, n=report.n, m=report.m, algo=algo,
        omega=omega.value, support_size=size, opt=opt,
        longest_minus_one=longest, iterations=report.iterations,
        time_ms=report.time_ms)


def _oracle_size(graph: WeightedGraph, omega: OmegaClass) -> int:
    return minimum_cycle_cover(graph, omega)[0]


def suite_table1() -> list[BenchRow]:
    """The complete-graph increase-only trio on planted and block instances."""
    rows = []
    instances: list[tuple[str, str, GadgetInstance]] = []
    for seed in (1, 2, 3):
        instances.append((f"planted-complete-n10-k3-s{seed}", "PlantedComplete",
                          planted_complete(10, 3, seed)))
    instances.append(("dense-gamma-n10-k4", "DenseGamma",
                      GadgetInstance(dense_block_matrix(10, 4))))
    instances.append(("sweep-worst-n8", "IomrWorst",
                      GadgetInstance(sweep_worst_matrix(8))))
    for label, kind, inst in instances:
        for algo in ("spc", "5cc", "iomr"):
            rows.append(_row(label, kind, inst.instance,
                             OmegaClass.INCREASE_ONLY, algo))
    return rows


def suite_scaling() -> list[BenchRow]:
    """Run-time growth of the cubic solvers and the path cover."""
    rows = []
    for n in (50, 100, 200, 400):
        inst = planted_complete(n, 5, seed=n).instance
        rows.append(_row(f"planted-complete-n{n}", "PlantedComplete", inst,
                         OmegaClass.DECREASE_ONLY, "dmr"))
        rows.append(_row(f"planted-complete-n{n}", "PlantedComplete", inst,
                         OmegaClass.INCREASE_ONLY, "iomr"))
    for n in (16, 24, 32):
        inst = planted_complete(n, 3, seed=n).instance
        rows.append(_row(f"planted-complete-n{n}", "PlantedComplete", inst,
                         OmegaClass.INCREASE_ONLY, "spc"))
    return rows


def suite_ratios() -> list[BenchRow]:
    """Gadget sweeps with exact optima for empirical approximation ratios."""
    rows = []
    for n in (5, 8, 12):
        g = cycle_tight(n)
        opt = _oracle_size(g, OmegaClass.INCREASE_ONLY)
        rows.append(_row(f"cycle-tight-n{n}", "CycleTight", g,
                         OmegaClass.INCREASE_ONLY, "spc", opt=opt, with_l=True))
        rows.append(_row(f"cycle-tight-n{n}", "CycleTight", g,
                         OmegaClass.GENERAL, "gspc",
                         opt=_oracle_size(g, OmegaClass.GENERAL), with_l=True))
    for n in range(4, 9):
        g = cycle_fig_one(n)
        rows.append(_row(f"cycle-fig1-n{n}", "CycleFig1", g,
                         OmegaClass.INCREASE_ONLY, "oracle",
                         opt=_oracle_size(g, OmegaClass.INCREASE_ONLY), with_l=True))
    for n in (6, 8):
        g = completed_cycle(n)
        opt = _oracle_size(g, OmegaClass.INCREASE_ONLY)
        rows.append(_row(f"completed-cycle-n{n}", "CompletedCycle", g,
                         OmegaClass.INCREASE_ONLY, "spc", opt=opt, with_l=True))
    for seed in (1, 2, 3):
        inst = planted_complete(7, 2, seed).instance
        opt = _oracle_size(inst, OmegaClass.INCREASE_ONLY)
        rows.append(_row(f"planted-complete-n7-s{seed}", "PlantedComplete", inst,
                         OmegaClass.INCREASE_ONLY, "5cc", opt=opt))
    d = dense_block_matrix(10, 4)
    rows.append(_row("dense-gamma-n10-k4", "DenseGamma", d,
                     OmegaClass.INCREASE_ONLY, "iomr",
                     opt=2 * _oracle_size(d, OmegaClass.INCREASE_ONLY)))
    for n in (5, 6, 8):
        d = sweep_worst_matrix(n)
        rows.append(_row(f"sweep-worst-n{n}", "IomrWorst", d,
                         OmegaClass.INCREASE_ONLY, "iomr",
                         opt=2 * _oracle_size(d, OmegaClass.INCREASE_ONLY)))
    base = base_graph_edges("path", 4)
    g = suspension(4, base)
    rows.append(_row("suspension-path4", "VertexCoverSuspension", g,
                     OmegaClass.INCREASE_ONLY, "oracle",
                     opt=_oracle_size(g, OmegaClass.INCREASE_ONLY), with_l=True))
    return rows
