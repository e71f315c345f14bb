"""Graph metric repair: make every edge a shortest path with few weight edits.

An instance is a weighted graph (or a full distance matrix) whose weights may
have been corrupted.  The goal is a minimum-cardinality set of edge-weight
modifications -- decreases only, increases only, or arbitrary -- after which no
cycle has an edge strictly heavier than the rest of the cycle.

The public surface groups into:

* data model: :class:`WeightedGraph`, :class:`DistanceMatrix`,
  :class:`RepairDelta`, :class:`OmegaClass`, :func:`apply_delta`
* detection: :func:`is_metric`, :func:`find_broken_witness`,
  :func:`broken_triangles`, :func:`longest_broken_cycle_len`
* exact solvers: :func:`decrease_repair`, :func:`verify_support`,
  :func:`brute_force_opt`, :func:`minimum_cycle_cover`
* fixed-parameter solvers (chordal graphs): :func:`fpt_increase`,
  :func:`fpt_general`, :func:`fpt_min_repair`
* approximations: :func:`shortest_path_cover`,
  :func:`general_shortest_path_cover`, :func:`five_cycle_cover`,
  :func:`matrix_sweep_repair`
* instance generators in :mod:`metric_repair.gadgets` and the uniform
  dispatcher :func:`run_algo`.
"""

import importlib

# Public name -> the submodule that defines it.  A name is imported on first
# use (PEP 562), so a command loads only the modules its own work calls.  The
# resolved object is not stored in this module: a later rebinding of the
# submodule's attribute (as the tracer in perfbench/ does) is always seen.
_EXPORTS = {
    "ApproxReport": "approx",
    "five_cycle_cover": "approx",
    "general_shortest_path_cover": "approx",
    "matrix_sweep_repair": "approx",
    "repaired_cell_count": "approx",
    "shortest_path_cover": "approx",
    "is_chordal": "chordal",
    "perfect_elimination_ordering": "chordal",
    "broken_cycles": "detect",
    "broken_triangles": "detect",
    "find_broken_witness": "detect",
    "instance_stats": "detect",
    "is_metric": "detect",
    "longest_broken_cycle_len": "detect",
    "simple_cycles": "detect",
    "RejectionReason": "exact",
    "VerifierOutcome": "exact",
    "covers_broken_cycles": "exact",
    "decrease_repair": "exact",
    "normalize_support": "exact",
    "verify_support": "exact",
    "FptResult": "fpt",
    "fpt_general": "fpt",
    "fpt_increase": "fpt",
    "fpt_min_repair": "fpt",
    "BrokenCycleWitness": "graphs",
    "DistanceMatrix": "graphs",
    "EnumerationBudgetError": "graphs",
    "InputFormatError": "graphs",
    "InstanceStats": "graphs",
    "MetricRepairError": "graphs",
    "OmegaClass": "graphs",
    "PreconditionError": "graphs",
    "RepairDelta": "graphs",
    "SupportRejectedError": "graphs",
    "WeightedGraph": "graphs",
    "apply_delta": "graphs",
    "as_weight": "graphs",
    "edge_key": "graphs",
    "all_optimal_supports": "oracle",
    "brute_force_opt": "oracle",
    "minimum_cycle_cover": "oracle",
    "ApspResult": "paths",
    "apsp": "paths",
    "NoSolutionError": "runner",
    "RepairReport": "runner",
    "run_algo": "runner",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
