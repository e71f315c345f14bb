"""Uniform solver dispatch with timing and validity checks."""

from __future__ import annotations

import time
from typing import NamedTuple

from .detect import is_metric, longest_broken_cycle_len
from .exact import decrease_repair
from .graphs import (
    DistanceMatrix,
    MetricRepairError,
    OmegaClass,
    PreconditionError,
    RepairDelta,
    WeightedGraph,
    apply_delta,
)

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


class NoSolutionError(MetricRepairError):
    """The requested algorithm found no repair within its budget."""


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


def run_algo(instance, omega: OmegaClass, algo: str,
             exact_cycle_budget: int | None = None) -> RepairReport:
    """Dispatch one solver, validate its output and time the solve.

    ``instance`` is a WeightedGraph or a DistanceMatrix.  The matrix-only
    algorithms (5cc, iomr) accept a graph only when it is complete; graph
    algorithms accept a matrix through its complete-graph view.  Either way
    the solver runs on the one graph object the runner holds and reads its
    stored ``integer_form()`` and APSP cache.  Requesting an omega the algorithm
    does not produce is a precondition violation.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    if omega not in ALGO_OMEGAS[algo]:
        allowed = "/".join(o.value for o in ALGO_OMEGAS[algo])
        raise PreconditionError(f"algorithm {algo} solves omega {allowed}, not {omega.value}")

    graph = instance.to_graph() if isinstance(instance, DistanceMatrix) else instance
    if algo in _MATRIX_ONLY:
        matrix = DistanceMatrix.from_graph(graph)  # raises unless complete

    # A solver module loads only for the algorithm that runs, before the clock.
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
        report = five_cycle_cover(matrix)
        delta, iterations = report.delta, report.iterations
    elif algo == "iomr":
        delta = matrix_sweep_repair(matrix)
        repaired_cells = repaired_cell_count(delta)
    else:
        found = brute_force_opt(graph, omega)
        if found is None:
            raise NoSolutionError("no support within the oracle budget")
        delta = found[1]
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
