"""Uniform solver dispatch with timing and validity checks."""

from __future__ import annotations

import time
from typing import NamedTuple

from .detect import is_metric, longest_broken_cycle_len
from .exact import decrease_repair
from .graphs import (
    DistanceMatrix,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    apply_delta,
)
from .paths import _numpy_kernel_runs

ALGORITHMS = ("dmr", "fpt", "spc", "gspc", "5cc", "iomr", "oracle")

ALGO_OMEGAS = {
    "dmr": (OmegaClass.DECREASE_ONLY,),
    "spc": (OmegaClass.INCREASE_ONLY,),
    "5cc": (OmegaClass.INCREASE_ONLY,),
    "iomr": (OmegaClass.INCREASE_ONLY,),
    "gspc": (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL),
    "fpt": (OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL),
    "oracle": (OmegaClass.DECREASE_ONLY, OmegaClass.INCREASE_ONLY, OmegaClass.GENERAL),
}

_MATRIX_ONLY = ("5cc", "iomr")
_WHOLE_GRAPH_APSP = ("dmr", "spc", "gspc", "5cc")


class RepairReport(NamedTuple):
    """One solver run: solution, size facts and timing."""

    algo: str
    omega: OmegaClass
    n: int
    m: int
    delta: RepairDelta
    support_size: int
    time_ms: float
    iterations: int | None = None
    repaired_cells: int | None = None
    longest_broken_cycle: int | None = None
    valid: bool = False


def run_algo(instance: WeightedGraph, omega: OmegaClass, algo: str,
             exact_cycle_budget: int | None = None) -> RepairReport:
    """Dispatch one solver, validate its output and time the solve.

    ``instance`` is a WeightedGraph; a DistanceMatrix is one.  The matrix-only
    algorithms (5cc, iomr) accept a graph only when it is complete, and run on
    its matrix view, which shares its stored ``integer_form()`` and APSP
    cache.  Requesting an omega the algorithm does not produce is a
    precondition violation.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if omega not in ALGO_OMEGAS[algo]:
        allowed = "/".join(o.value for o in ALGO_OMEGAS[algo])
        raise PreconditionError(f"algorithm {algo} solves omega {allowed}, not {omega.value}")

    # The matrix-only solvers take the matrix view, which raises unless complete.
    graph = DistanceMatrix.from_graph(instance) if algo in _MATRIX_ONLY else instance

    # A solver module loads only for the algorithm that runs, before the clock,
    # and so does numpy when the solve would load it: these solvers start with
    # shortest paths of the whole graph, which may run the numpy kernel.
    if algo in _WHOLE_GRAPH_APSP and _numpy_kernel_runs(graph.n, graph.integer_form()[1]):
        import numpy
    if algo == "fpt":
        from .fpt import fpt_min_repair
    elif algo == "oracle":
        from .oracle import brute_force_opt
    elif algo != "dmr":
        from .approx import (five_cycle_cover, general_shortest_path_cover,
                             matrix_sweep_repair, repaired_cell_count, shortest_path_cover)
    iterations = None
    repaired_cells = None
    start = time.perf_counter()
    if algo == "dmr":
        delta = decrease_repair(graph)
    elif algo == "fpt":
        delta = fpt_min_repair(graph, omega).delta
    elif algo == "spc":
        report = shortest_path_cover(graph)
        delta, iterations = report.delta, report.iterations
    elif algo == "gspc":
        report = general_shortest_path_cover(graph, omega)
        delta, iterations = report.delta, report.iterations
    elif algo == "5cc":
        report = five_cycle_cover(graph)
        delta, iterations = report.delta, report.iterations
    elif algo == "iomr":
        delta = matrix_sweep_repair(graph)
        repaired_cells = repaired_cell_count(delta)
    else:
        delta = brute_force_opt(graph, omega)[1]
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    repaired = apply_delta(graph, delta)
    valid = is_metric(repaired) and all(omega.allows(v) for _, v in delta.items())
    longest = None
    if exact_cycle_budget is not None and graph.n <= exact_cycle_budget:
        longest = longest_broken_cycle_len(graph, exact_cycle_budget)
    return RepairReport(
        algo=algo,
        omega=omega,
        n=graph.n,
        m=graph.m,
        delta=delta,
        support_size=delta.norm0(),
        time_ms=elapsed_ms,
        iterations=iterations,
        repaired_cells=repaired_cells,
        longest_broken_cycle=longest,
        valid=valid,
    )
