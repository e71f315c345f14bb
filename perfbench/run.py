"""Seeded benchmark of the metric-repair pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from a plain checkout: the package is taken from ``src/`` next to this
directory, and the CLI is driven as ``<this interpreter> -m metric_repair.cli``.
For each workload it

1. generates the inputs with ``metric_repair.gadgets`` and writes them as
   files,
2. runs rounds for ``--seconds`` (at least two, and none that would end past
   it, judged by the last round's length): one in-process pass over all
   operations in a worker process of its own, then the workload's CLI
   commands one subprocess after another, then the set-up once more (it must
   write the same bytes).  Times are in reference seconds, scaled by the
   calibration loop's time (``calibration.py``): ``setup_s`` is the median
   set-up, ``run_s`` the sum of each operation's median over the passes and
   ``cli_s`` the sum of each command's median over the rounds;
   ``peak_rss_mib`` is the worker's peak resident set,
3. checks every output with ``check.py``, which shares no code with the
   package.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics (see README.md).  The exit code is 0 when
every check passed, 1 when one failed and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

MIN_SAMPLES = 2
SUBPROCESS_TIMEOUT_S = 150


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "metric_repair" / "__init__.py").is_file():
        print(f"error: no metric_repair package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selftest
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    errors = [f"checker self-test: {e}" for e in selftest.run()]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        errors += [f"{name}: {e}" for e in result["errors"]]
        for metric, (value, unit) in result["metrics"].items():
            print(f"{name:18s} {metric:44s} {value:14.6f} {unit}")
        print(f"{name:18s} {'attempted':44s} {result['attempted']:14d}")
        print(f"{name:18s} {'failed':44s} {result['failed']:14d}")
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name in names
                   for key, value in results[name]["metrics"].items()}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=RUN_DIR))
    try:
        return _run_in(work, name, seed, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work: Path, name: str, seed: int, seconds: float, traced: bool) -> dict:
    import calibration
    import tracing
    import workloads

    errors, setup_s, setup_layers = [], [], []
    tracer = tracing.Tracer()

    def set_up(directory: Path) -> dict:
        """One set-up into ``directory``, timed (and traced in a traced run)."""
        directory.mkdir()
        if traced:
            tracer.reset()
            tracer.install(tracing.SETUP_TARGETS)
        start = time.perf_counter()
        made = workloads.build(name, seed, directory)
        setup_s.append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
            setup_layers.append(tracer.metrics(tracing.SETUP_TARGETS))
        return made

    def set_up_again() -> None:
        """A repeated set-up; it must write the same bytes as the first."""
        again = work / "again"
        set_up(again)
        if any((again / f).read_bytes() != (inputs / f).read_bytes() for f in manifest["files"]):
            errors.append(f"set-up {len(setup_s) - 1} wrote different inputs for seed {seed}")
        shutil.rmtree(again)

    # 1. set-up; it is repeated after every pass below, so that its median
    # is taken over the whole measuring window
    inputs = work / "setup0"
    manifest = set_up(inputs)
    (inputs / "manifest.json").write_text(json.dumps(manifest))

    # 2. in-process passes in a worker process of their own, each followed by
    # one round of the CLI commands and one more set-up, so that all three
    # sample the whole window
    out_path = work / "worker.json"
    env, rounds = _cli_env(), []
    command_s = [[] for _ in manifest["cli"]]
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--dir", str(inputs), "--out", str(out_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        # a round starts only when one as long as the last still ends in time
        start = last_end = time.perf_counter()
        round_s = 0.0
        while (len(rounds) < MIN_SAMPLES or last_end + round_s - start <= seconds
               or (traced and len(rounds) % 2)):
            before = _ask(worker, f"pass {int(traced and len(rounds) % 2 == 1)}")[1]
            times, runs = cli_round(manifest, inputs, env)
            # each command is scaled by the worker's samples around the round
            speed = (before + _ask(worker, "calibrate")[0]) / 2
            for samples, elapsed in zip(command_s, times):
                samples.append(calibration.scaled(elapsed, speed))
            rounds.append(runs)
            set_up_again()
            round_s, last_end = time.perf_counter() - last_end, time.perf_counter()
        worker.stdin.write("finish\n")
        worker.stdin.close()
        worker.wait(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    if worker.returncode != 0:
        raise RuntimeError(f"the worker process exited with {worker.returncode}")
    results = json.loads(out_path.read_text())
    outputs = results["outputs"]
    for failure in results["failed"]:
        print(f"{name}: operation failed: {failure}", file=sys.stderr)
    if results["mismatch"]:
        errors.append(f"{results['mismatch']} passes gave outputs unlike the first")

    # 3. checks, made apart from the package
    check_errors, support_edges = check_outputs(manifest, inputs, outputs)
    errors += check_errors + check_cli(manifest, inputs, outputs, rounds)
    cli_count = sum(len(runs) for runs in rounds)

    result = {"errors": errors,
              "attempted": results["attempted"] + cli_count,
              "failed": len(results["failed"])}
    # Times in reference seconds (calibration.py), each step the median of its
    # samples.  Operations and CLI commands are scaled by calibration samples
    # taken around them, set-ups by the median of all the worker's samples.
    # The samples come from the worker, never from this process: a sample
    # taken right after a subprocess ends scatters widely.
    cli_s = sum(statistics.median(samples) for samples in command_s)
    speed = statistics.median(results["calibration_s"])
    if not traced:
        result["metrics"] = {
            "setup_s": (calibration.scaled(statistics.median(setup_s), speed), "s"),
            "run_s": (sum(statistics.median(v) for v in results["op_ref_s"].values()), "s"),
            "cli_s": (cli_s, "s"),
            "peak_rss_mib": (results["peak_rss_mib"], "MiB"),
            "support_edges": (support_edges, "edges"),
        }
        return result

    layers = {key: statistics.median(s[key] for s in setup_layers) for key in setup_layers[0]}
    layers = {key: calibration.scaled(value, speed) if tracing.is_time(key) else value
              for key, value in layers.items()}
    del layers["top_spans_s"]
    layers.update(results["layers"])
    untraced = statistics.median(results["pass_s"])
    layers["trace.run_s"] = statistics.median(results["traced_pass_s"])
    layers["trace.untraced_run_s"] = untraced
    layers["trace.overhead_s"] = layers["trace.run_s"] - untraced
    layers["trace.top_spans_s"] = layers.pop("top_spans_s")
    layers["cli.startup_s"] = calibration.scaled(cli_startup_s(), speed)
    layers["cli.command.s"] = cli_s
    result["metrics"] = {key: (value, layer_unit(key)) for key, value in layers.items()}
    trace_dir = RUN_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"{name}-s{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "metrics": layers, "run": results["trace"]}))
    return result


def _ask(worker: subprocess.Popen, line: str) -> list[float]:
    """Send the worker one command line and read the numbers it answers."""
    worker.stdin.write(line + "\n")
    worker.stdin.flush()
    reply = worker.stdout.readline()
    if not reply:
        raise RuntimeError(f"the worker process stopped before answering {line!r}")
    return [float(x) for x in reply.split()]


def layer_unit(key: str) -> str:
    import tracing

    if key == "fileio.bytes_in":
        return "bytes"
    if tracing.is_time(key):
        return "s"
    return "count"


# -- checks ------------------------------------------------------------------


def check_outputs(manifest: dict, directory: Path, outputs: dict) -> tuple[list, int]:
    """Errors found in the first pass's outputs, and the total repair support size."""
    import check

    instances = {}

    def instance(filename):
        if filename not in instances:
            instances[filename] = check.read_instance(
                (directory / filename).read_text(encoding="utf-8"),
                manifest["files"][filename]["matrix"])
        return instances[filename]

    errors, support_edges, fpt_sizes = [], 0, {}
    for op in manifest["ops"]:
        out = outputs.get(op["id"])
        if out is None:
            continue  # the operation raised; it is counted as failed
        inst = instance(op["file"])
        if op["kind"] == "detect":
            found = check.check_detect(inst, out)
        elif op["kind"] == "verify":
            if not out["accepted"]:
                found = ["the Verifier rejected the path-cover support"]
            else:
                found = (check.check_repair(inst, "increase", out["delta"])
                         + check.check_within_support(out["delta"],
                                                      {tuple(e) for e in out["support"]}))
        else:
            omega, algo = op["omega"], op["algo"]
            found = check.check_repair(inst, omega, out["delta"])
            support_edges += len(check.parse_delta(out["delta"])[1])
            if algo == "dmr":
                found += check.check_decrease_exact(inst, out["delta"])
            elif algo == "iomr":
                found += check.check_sweep_cap(inst, out["delta"])
            elif algo == "fpt":
                planted = manifest["files"][op["file"]]["planted"]
                found += check.check_fpt_size(inst, omega, out["delta"], planted)
                fpt_sizes.setdefault(op["file"], {})[omega] = len(
                    check.parse_delta(out["delta"])[1])
        errors += [f"{op['id']} on {op['file']}: {e}" for e in found]
    for filename, sizes in fpt_sizes.items():
        if sizes.get("general", 0) > sizes.get("increase", 0):
            errors.append(f"{filename}: general optimum {sizes['general']} exceeds "
                          f"increase optimum {sizes['increase']}")
    return errors, support_edges


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_round(manifest: dict, directory: Path, env: dict) -> tuple[list, list]:
    """Run the workload's CLI commands one after another; their times and results."""
    times, runs = [], []
    for i, cmd in enumerate(manifest["cli"]):
        argv = [sys.executable, "-m", "metric_repair.cli", *cmd["args"]]
        if cmd["delta_out"]:
            argv += ["--out", f"cli{i}.tsv"]
        began = time.perf_counter()
        runs.append(subprocess.run(argv, cwd=directory, env=env, capture_output=True,
                                   text=True, timeout=SUBPROCESS_TIMEOUT_S,
                                   stdin=subprocess.DEVNULL))
        times.append(time.perf_counter() - began)
    return times, runs


def check_cli(manifest: dict, directory: Path, outputs: dict, rounds: list) -> list:
    """Exit codes of every round; outputs of the first against the in-process ones."""
    import check

    errors = []
    for i, cmd in enumerate(manifest["cli"]):
        label = " ".join(cmd["args"])
        expected_exit = cmd["expect_exit"]
        if expected_exit is None:  # detect: 1 on a broken input by the reference verdict
            source = cmd["args"][1]
            expected_exit = int(not check.reference_is_metric(check.read_instance(
                (directory / source).read_text(encoding="utf-8"),
                manifest["files"][source]["matrix"])))
        exits = {runs[i].returncode for runs in rounds}
        if exits != {expected_exit}:
            errors.append(f"`{label}` exited {sorted(exits)}, expected {expected_exit}: "
                          f"{rounds[0][i].stderr.strip()[-300:]}")
            continue
        expected, stdout = outputs.get(cmd["same_as"]), rounds[0][i].stdout
        if expected is None:
            continue  # the in-process operation failed and is counted
        if cmd["delta_out"]:
            if not check.same_delta((directory / f"cli{i}.tsv").read_text(),
                                    expected["delta"]):
                errors.append(f"`{label}` wrote a delta unlike the in-process one")
        elif cmd["args"][0] == "verify":
            head, _, body = stdout.partition("\n")
            if head != "Accepted" or not check.same_delta(body, expected["delta"]):
                errors.append(f"`{label}` disagrees with the in-process Verifier")
        elif _detect_summary(stdout) != _detect_expected(expected):
            errors.append(f"`{label}` disagrees with the in-process detection")
    return errors


def _detect_summary(stdout: str) -> list:
    return [line for line in stdout.splitlines() if not line.startswith("triangle:")]


def _detect_expected(out: dict) -> list:
    lines = [f"is_metric: {str(out['is_metric']).lower()}"]
    if out["witness"] is not None:
        cycle, top = out["witness"]
        lines.append(f"broken_cycle: {'-'.join(map(str, cycle))} top={tuple(top)}")
    lines.append(f"broken_triangles: {out['triangles']}")
    return lines


def cli_startup_s() -> float:
    """Median wall time of interpreter start plus ``import metric_repair.cli``."""
    env, times = _cli_env(), []
    for _ in range(5):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import metric_repair.cli"], env=env,
                       check=True, timeout=SUBPROCESS_TIMEOUT_S, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
