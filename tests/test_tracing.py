"""The benchmark's tracer (``perfbench/tracing.py``) against the package.

The tracer wraps the functions and methods it lists by module and attribute
name, reads the APSP engine from the keys ``apsp`` adds to a graph's
``_apsp_cache``, and puts every original back when it is uninstalled.  A
traced name that is renamed or moved fails here, not only in a traced
benchmark run.  The tracer is loaded from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
import types
from pathlib import Path

from metric_repair import OmegaClass, gadgets, paths, runner

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def _bindings() -> dict:
    """Every package module attribute, and every attribute of each class a
    package module defines, keyed by where it is bound."""
    out = {}
    for module in tracing._modules():
        for name, value in vars(module).items():
            out[module.__name__, name] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    out[module.__name__, name, attr] = raw
    return out


def test_tracer_records_both_engines_and_restores_every_original():
    assert isinstance(vars(paths.ApspResult)["parents"], types.FunctionType)
    before = _bindings()
    setup, run = tracing.Tracer(), tracing.Tracer()
    setup.install(tracing.SETUP_TARGETS)
    try:
        dense = gadgets.planted_complete(10, 2, seed=1).instance.to_graph()
        sparse = gadgets.cycle_tight(12)
    finally:
        setup.uninstall()
    run.install(tracing.RUN_TARGETS)
    try:
        for g in (dense, sparse):
            assert runner.run_algo(g, OmegaClass.DECREASE_ONLY, "dmr").valid
        tree = paths.apsp(sparse).parents(0)
    finally:
        run.uninstall()
    after = _bindings()
    assert after.keys() >= before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    assert (set(dense._apsp_cache), set(sparse._apsp_cache)) == ({"dense"}, {"sparse"})
    assert tree == paths.apsp(sparse).parents(0)
    layers = run.metrics(tracing.RUN_TARGETS, tracing.RUN_COUNTERS)
    assert layers["paths.apsp.dense"] >= 1 and layers["paths.apsp.sparse"] >= 1
    assert layers["paths.apsp.cached"] >= 1  # the parents read
    assert layers["paths.apsp.calls"] == sum(layers[f"paths.apsp.{key}"]
                                             for key in ("dense", "sparse", "cached"))
    assert layers["paths.ApspResult.parents.calls"] == 1
    assert layers["runner.run_algo.calls"] == 2 == layers["exact.decrease_repair.calls"]
    assert layers["detect.is_metric.calls"] == 2 == layers["detect.find_broken_witness.calls"]
    assert layers["runner.solve_s"] > 0 and layers["runner.validate_s"] > 0
    assert {"paths.apsp", "paths.ApspResult.parents", "runner.run_algo"} <= \
        {span[0] for span in run.spans}
    made = setup.metrics(tracing.SETUP_TARGETS)
    assert made["gadgets.planted_complete.calls"] == 1 == made["gadgets.cycle_tight.calls"]
