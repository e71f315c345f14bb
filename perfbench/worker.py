"""In-process passes over one workload's operations, in a process of their own.

Started by ``run.py`` with the directory that holds the workload's files and
``manifest.json``.  Each line ``pass 0`` (or ``pass 1``, traced) on standard
input runs one pass; the worker answers with the pass's time and its last
calibration sample on standard output.  A line ``calibrate`` is answered
with a fresh calibration sample.  A pass runs every operation through the public API: read the file,
parse it with ``fileio``, solve (or detect, or verify), validate through
``runner`` and serialize the delta.  Every pass must give the outputs of the
first, after which the supports that verify operations check are written as
``<op id>.support`` files for the CLI.  On ``finish`` (or end of input) the
results go to ``--out`` as JSON: pass times and each operation's times in
reference seconds (see ``calibration.py``), the calibration samples of the
untraced passes, the first pass's outputs, the traced per-layer metrics and this process's peak
resident set.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import metric_repair as mr  # noqa: E402
from metric_repair import fileio  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

CALIBRATE_EVERY_S = 0.25


def run_op(op: dict, directory: Path, deltas: dict) -> dict:
    path = directory / op["file"]
    graph = fileio.parse_graph_text(path.read_text(encoding="utf-8"), filename=path.name)
    if op["kind"] == "detect":
        metric = mr.is_metric(graph)
        witness = mr.find_broken_witness(graph)
        return {
            "is_metric": metric,
            "witness": None if witness is None else [list(witness.cycle),
                                                     list(witness.top_edge)],
            "triangles": len(mr.broken_triangles(graph)),
        }
    if op["kind"] == "repair":
        report = mr.run_algo(graph, mr.OmegaClass.parse(op["omega"]), op["algo"])
        deltas[op["id"]] = report.delta
        return {"delta": fileio.serialize_delta_tsv(
            fileio.DeltaDocument(delta=report.delta, is_metric_after=report.valid))}
    support = deltas[op["support_of"]].support
    outcome = mr.verify_support(graph, support, mr.OmegaClass.INCREASE_ONLY)
    out = {"accepted": outcome.accepted, "support": sorted(support), "delta": None}
    if outcome.accepted:
        repaired = mr.apply_delta(graph, outcome.delta)
        out["delta"] = fileio.serialize_delta_tsv(fileio.DeltaDocument(
            delta=outcome.delta, is_metric_after=mr.is_metric(repaired)))
    return out


def run_pass(ops: list, directory: Path) -> tuple[float, dict, list, dict, list]:
    """One pass: its time, each operation's time in reference seconds, the
    calibration samples, the outputs and the failures.

    A calibration sample is taken before the first operation and after each
    stretch of about ``CALIBRATE_EVERY_S`` of operations; each operation's
    time is scaled by the samples around its stretch.
    """
    outputs, deltas, ref_s, failed = {}, {}, {}, []
    calibration.sample()  # warm-up: the first sample after the worker sat idle scatters widely
    pass_s, stretch, samples = 0.0, {}, [calibration.sample()]
    for i, op in enumerate(ops):
        gc.collect()  # every operation starts from the same collector state
        began = time.perf_counter()
        try:
            outputs[op["id"]] = run_op(op, directory, deltas)
        except Exception:  # an operation that raises counts as failed; the pass goes on
            failed.append(f"{op['id']}: {traceback.format_exc(limit=3)}")
        stretch[op["id"]] = time.perf_counter() - began
        if i == len(ops) - 1 or sum(stretch.values()) >= CALIBRATE_EVERY_S:
            samples.append(calibration.sample())
            for op_id, seconds in stretch.items():
                ref_s[op_id] = calibration.scaled(seconds, (samples[-2] + samples[-1]) / 2)
            pass_s += sum(stretch.values())
            stretch = {}
    return pass_s, ref_s, samples, outputs, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    ops = json.loads((args.dir / "manifest.json").read_text())["ops"]

    results = {"pass_s": [], "op_ref_s": {op["id"]: [] for op in ops}, "calibration_s": [],
               "traced_pass_s": [], "attempted": 0, "failed": [], "mismatch": 0,
               "outputs": None}
    layer_samples = []
    tracer = tracing.Tracer()
    for line in sys.stdin:
        command = line.split()
        if command[0] == "finish":
            break
        if command[0] == "calibrate":
            calibration.sample()  # warm-up, as in run_pass
            print(calibration.sample(), flush=True)
            continue
        traced = command[1] == "1"
        if traced:
            tracer.reset()
            tracer.install(tracing.RUN_TARGETS)
        try:
            elapsed, ref_s, calibrated, outputs, failed = run_pass(ops, args.dir)
        finally:
            tracer.uninstall()
        results["attempted"] += len(ops)
        results["failed"].extend(failed)
        if results["outputs"] is None:
            results["outputs"] = outputs
            for op in ops:
                if op["kind"] == "verify" and op["id"] in outputs:
                    (args.dir / f"{op['id']}.support").write_text(
                        "".join(f"{u} {v}\n" for u, v in outputs[op["id"]]["support"]))
        elif outputs != results["outputs"]:
            results["mismatch"] += 1
        pass_ref_s = sum(ref_s.values())
        if traced:
            # per-layer times in reference seconds, scaled as the whole pass was
            scale = pass_ref_s / elapsed
            layers = tracer.metrics(tracing.RUN_TARGETS, tracing.RUN_COUNTERS)
            layer_samples.append({key: value * scale if tracing.is_time(key) else value
                                  for key, value in layers.items()})
            results["traced_pass_s"].append(pass_ref_s)
        else:
            results["pass_s"].append(pass_ref_s)
            results["calibration_s"] += calibrated
            for op_id, seconds in ref_s.items():
                results["op_ref_s"][op_id].append(seconds)
        print(elapsed, calibrated[-1], flush=True)
    if layer_samples:
        results["layers"] = {key: statistics.median(s[key] for s in layer_samples)
                             for key in layer_samples[0]}
        results["trace"] = tracer.dump()
    results["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
