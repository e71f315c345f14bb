"""Command-line interface.

Exit codes are a stable contract:

* 0 -- success (``detect``: the instance is metric; ``verify``: accepted)
* 1 -- no solution / rejected support / broken instance found by ``detect``
* 2 -- malformed input or invalid generator parameters
* 3 -- precondition violation (omega/algorithm mismatch, non-chordal input for
  fpt, non-complete input for 5cc or iomr, enumeration budget exceeded)
"""

from __future__ import annotations

import argparse
import os
import sys

from .detect import DEFAULT_CYCLE_BUDGET, broken_triangles, find_broken_witness, is_metric
from .exact import verify_support
from .fileio import (
    DeltaDocument,
    _printable,
    parse_graph_text,
    parse_support_file,
    serialize_delta_json,
    serialize_delta_tsv,
    serialize_edge_list,
    serialize_matrix_csv,
)
from .graphs import (
    DistanceMatrix,
    InputFormatError,
    OmegaClass,
    PreconditionError,
    SupportRejectedError,
    WeightedGraph,
    apply_delta,
    clipped,
)
from .runner import ALGORITHMS, run_algo

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


class _StdoutGuard:
    """``sys.stdout`` while a command runs.  Once the reader closes the pipe
    (``detect FILE | head -2``), the real stdout is pointed at ``os.devnull``:
    the command finishes quietly, returns its own exit code, and the flush of
    the leftover buffer at exit cannot raise again."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> None:
        self._guarded(self.stream.write, text)

    def flush(self) -> None:
        self._guarded(self.stream.flush)

    def _guarded(self, call, *args) -> None:
        try:
            call(*args)
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, self.stream.fileno())
            os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    guard = sys.stdout = _StdoutGuard(sys.stdout)
    try:
        return args.func(args)
    except (InputFormatError, PreconditionError, SupportRejectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_BAD_INPUT if isinstance(exc, InputFormatError)
                else EXIT_PRECONDITION if isinstance(exc, PreconditionError)
                else EXIT_NO_SOLUTION)
    finally:
        guard.flush()
        sys.stdout = guard.stream


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-repair",
        description="Repair corrupted edge weights so every edge is a shortest path.")
    sub = parser.add_subparsers(required=True)

    p_repair = sub.add_parser("repair", help="solve one instance")
    p_repair.add_argument("input")
    p_repair.add_argument("--omega", required=True,
                          choices=[o.value for o in OmegaClass])
    p_repair.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_repair.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_repair.add_argument("--out")
    p_repair.add_argument("--input-format", choices=("auto", "edgelist", "matrix"),
                          default="auto")
    p_repair.add_argument("--exact-L", action="store_true", dest="exact_l",
                          help="report the longest broken cycle (small inputs only)")
    p_repair.set_defaults(func=cmd_repair)

    p_verify = sub.add_parser("verify", help="check a candidate support")
    p_verify.add_argument("input")
    p_verify.add_argument("--support", required=True)
    p_verify.add_argument("--omega", required=True,
                          choices=[o.value for o in OmegaClass])
    p_verify.add_argument("--input-format", choices=("auto", "edgelist", "matrix"),
                          default="auto")
    p_verify.set_defaults(func=cmd_verify)

    p_detect = sub.add_parser("detect", help="report broken cycles")
    p_detect.add_argument("input")
    p_detect.add_argument("--triangles-only", action="store_true")
    p_detect.add_argument("--input-format", choices=("auto", "edgelist", "matrix"),
                          default="auto")
    p_detect.set_defaults(func=cmd_detect)

    p_gen = sub.add_parser("gen", help="generate a named instance")
    p_gen.add_argument("--kind", required=True,
                       help="instance family; an unknown kind lists the known ones")
    p_gen.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE", help="kind-specific parameter")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True,
                         choices=("table1", "scaling", "ratios"))
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from None


def _load_graph(path: str, fmt: str) -> WeightedGraph:
    return parse_graph_text(_read_text(path), fmt=fmt, filename=path)


def cmd_repair(args) -> int:
    graph = _load_graph(args.input, args.input_format)
    report = run_algo(graph, OmegaClass.parse(args.omega), args.algo,
                      exact_cycle_budget=DEFAULT_CYCLE_BUDGET if args.exact_l else None)
    doc = DeltaDocument(delta=report.delta, is_metric_after=report.valid)
    rendered = (serialize_delta_json(doc) if args.format == "json"
                else serialize_delta_tsv(doc))

    summary = [f"n: {report.n}", f"m: {report.m}", f"support_size: {report.support_size}",
               f"iterations: {'n/a' if report.iterations is None else report.iterations}",
               f"time_ms: {report.time_ms:.3f}"]
    if args.exact_l:
        longest = report.longest_broken_cycle
        if longest is None:
            longest = "none" if graph.n <= DEFAULT_CYCLE_BUDGET else "not computed"
        summary.append(f"longest_broken_cycle: {longest}")
    print("\n".join(summary), file=sys.stdout if args.out else sys.stderr)
    if args.out:
        _write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = _load_graph(args.input, args.input_format)
    support = parse_support_file(_read_text(args.support))
    for u, v in support:
        if not graph.has_edge(u, v):
            raise InputFormatError(
                f"support edge ({clipped(u)},{clipped(v)}) is not in the graph")
    outcome = verify_support(graph, support, OmegaClass.parse(args.omega))
    if outcome.accepted:
        print("Accepted")
        sys.stdout.write(serialize_delta_tsv(DeltaDocument(
            delta=outcome.delta,
            is_metric_after=is_metric(apply_delta(graph, outcome.delta)))))
        return EXIT_OK
    print(f"Rejected: {outcome.reason.value}")
    return EXIT_NO_SOLUTION


def cmd_detect(args) -> int:
    graph = _load_graph(args.input, args.input_format)
    witness = find_broken_witness(graph)
    print(f"is_metric: {str(witness is None).lower()}")
    if witness is not None and not args.triangles_only:
        cyc = "-".join(map(str, witness.cycle))
        print(f"broken_cycle: {cyc} top={witness.top_edge}")
    triangles = broken_triangles(graph)
    print(f"broken_triangles: {len(triangles)}")
    sys.stdout.write("".join(f"triangle: {t.cycle} top={t.top_edge}\n" for t in triangles))
    return EXIT_OK if witness is None else EXIT_NO_SOLUTION


def cmd_gen(args) -> int:
    from .gadgets import GADGET_KINDS, RANDOM_KINDS, GadgetSpec, build

    if args.kind not in GADGET_KINDS:
        raise InputFormatError(
            f"unknown --kind {clipped(args.kind)!r}; expected one of {', '.join(GADGET_KINDS)}")
    params = {}
    for item in args.param:
        if "=" not in item:
            raise InputFormatError(f"bad --param {item!r}; expected KEY=VALUE")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    if args.seed is not None:
        params["seed"] = args.seed
    needs_seed = args.kind in RANDOM_KINDS or (
        args.kind == "VertexCoverSuspension" and params.get("base") == "random")
    if needs_seed and "seed" not in params:
        raise InputFormatError(f"--seed is required for kind {args.kind}")
    try:
        result = build(GadgetSpec(kind=args.kind, params=params))
    except (ValueError, KeyError) as exc:
        raise InputFormatError(f"bad parameters for {args.kind}: {exc}") from None

    # The reader refuses weights past its printable bound, so gen writes none.
    instance = result.instance
    if isinstance(instance, DistanceMatrix):
        rendered = serialize_matrix_csv(_printable(instance))
    else:
        _printable(instance)
        header = [f"# kind: {args.kind}"] + [f"# {key}: {params[key]}" for key in sorted(params)]
        if result.planted_support is not None:
            header.append(f"# planted_support_size: {len(result.planted_support)}")
        rendered = "\n".join(header) + "\n" + serialize_edge_list(instance)
    _write_text(args.out, rendered)
    if result.planted_support is not None:
        print(f"planted_support_size: {len(result.planted_support)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    try:
        handle = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise InputFormatError(f"cannot write {args.out}: {exc}") from None
    with handle:
        rows = bench_mod.run_suite(args.suite)
        bench_mod.write_csv(handle, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
