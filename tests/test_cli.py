"""End-to-end command-line runs, exit codes included."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from metric_repair.cli import main
from metric_repair.fileio import parse_delta_tsv, parse_edge_list

from conftest import first_primes


def run_cli(args):
    return main(args)


def write(path, text):
    path.write_text(text, encoding="utf-8")


C5_TEXT = "0 1 5\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n"
METRIC_TEXT = "0 1 1\n1 2 1\n0 2 1\n"


def test_repair_decrease_on_broken_cycle(tmp_path, capsys):
    inp = tmp_path / "c5.txt"
    out = tmp_path / "delta.tsv"
    write(inp, C5_TEXT)
    code = run_cli(["repair", str(inp), "--omega", "decrease", "--algo", "dmr",
                    "--out", str(out), "--exact-L"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "support_size: 1" in captured
    assert "longest_broken_cycle: 5" in captured
    doc = parse_delta_tsv(out.read_text(encoding="utf-8"))
    assert doc.is_metric_after
    assert dict(doc.delta.items()) == {(0, 1): -1}


def test_repair_json_output(tmp_path):
    inp = tmp_path / "c5.txt"
    out = tmp_path / "delta.json"
    write(inp, C5_TEXT)
    code = run_cli(["repair", str(inp), "--omega", "increase", "--algo", "spc",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["omega"] == "increase"
    assert payload["support_size"] == 4
    assert payload["is_metric_after"] is True


def test_repair_metric_input_any_algo(tmp_path, capsys):
    inp = tmp_path / "metric.txt"
    write(inp, METRIC_TEXT)
    out = tmp_path / "d.tsv"
    for algo, omega in (("dmr", "decrease"), ("spc", "increase"),
                        ("oracle", "general"), ("fpt", "increase"),
                        ("5cc", "increase"), ("iomr", "increase")):
        code = run_cli(["repair", str(inp), "--omega", omega, "--algo", algo,
                        "--out", str(out)])
        assert code == 0
        assert "support_size: 0" in capsys.readouterr().out


def test_repair_omega_mismatch_is_precondition_error(tmp_path, capsys):
    inp = tmp_path / "c5.txt"
    write(inp, C5_TEXT)
    code = run_cli(["repair", str(inp), "--omega", "increase", "--algo", "dmr"])
    assert code == 3


def test_repair_nonchordal_fpt_is_precondition_error(tmp_path):
    inp = tmp_path / "c5.txt"
    write(inp, C5_TEXT)
    assert run_cli(["repair", str(inp), "--omega", "increase",
                    "--algo", "fpt"]) == 3


def test_repair_noncomplete_matrix_algo_is_precondition_error(tmp_path):
    inp = tmp_path / "sparse.txt"
    write(inp, "0 1 2\n1 2 2\n")
    assert run_cli(["repair", str(inp), "--omega", "increase",
                    "--algo", "iomr"]) == 3


def test_repair_gspc_increase_rejection_exits_one(tmp_path):
    inp = tmp_path / "g.txt"
    write(inp, "0 1 9\n0 2 5\n0 3 4\n1 2 4\n1 3 5\n2 3 10\n")
    assert run_cli(["repair", str(inp), "--omega", "increase",
                    "--algo", "gspc"]) == 1
    assert run_cli(["repair", str(inp), "--omega", "general",
                    "--algo", "gspc"]) == 0


def test_repair_malformed_input(tmp_path):
    inp = tmp_path / "bad.txt"
    write(inp, "0 1\n")
    assert run_cli(["repair", str(inp), "--omega", "decrease",
                    "--algo", "dmr"]) == 2
    assert run_cli(["repair", str(tmp_path / "missing.txt"), "--omega",
                    "decrease", "--algo", "dmr"]) == 2


def test_verify_accept_and_reject(tmp_path, capsys):
    inp = tmp_path / "c5.txt"
    write(inp, C5_TEXT)
    sup = tmp_path / "support.txt"
    write(sup, "2 3\n")
    assert run_cli(["verify", str(inp), "--support", str(sup),
                    "--omega", "increase"]) == 0
    out = capsys.readouterr().out
    assert "Accepted" in out
    assert "2\t3\t4" in out

    empty = tmp_path / "empty.txt"
    write(empty, "")
    assert run_cli(["verify", str(inp), "--support", str(empty),
                    "--omega", "increase"]) == 1
    assert "Rejected" in capsys.readouterr().out


def test_verify_reason_does_not_depend_on_edge_line_order(tmp_path, capsys):
    # Two triangles with a heavy edge each; the support holds only the first
    # heavy edge.  Edge order meets the first triangle's decreased support
    # edge (0,1) before the second's changed edge (3,4), however the file is
    # listed.
    first, second = ["0 1 10", "1 2 1", "0 2 1"], ["3 4 10", "4 5 1", "3 5 1"]
    sup = tmp_path / "s.txt"
    write(sup, "0 1\n")
    for name, lines in (("a.txt", first + second), ("b.txt", second + first)):
        write(tmp_path / name, "\n".join(lines) + "\n")
        assert run_cli(["verify", str(tmp_path / name), "--support", str(sup),
                        "--omega", "increase"]) == 1
        assert capsys.readouterr().out == "Rejected: decreased-in-increase-mode\n"


def test_verify_metric_graph_empty_support(tmp_path, capsys):
    inp = tmp_path / "m.txt"
    write(inp, METRIC_TEXT)
    empty = tmp_path / "empty.txt"
    write(empty, "")
    assert run_cli(["verify", str(inp), "--support", str(empty),
                    "--omega", "general"]) == 0


def test_verify_unknown_support_edge_is_bad_input(tmp_path):
    inp = tmp_path / "m.txt"
    write(inp, METRIC_TEXT)
    sup = tmp_path / "s.txt"
    write(sup, "0 3\n")
    assert run_cli(["verify", str(inp), "--support", str(sup),
                    "--omega", "general"]) == 2


def test_unreadable_or_unwritable_paths_exit_two(tmp_path):
    inp = tmp_path / "m.txt"
    write(inp, METRIC_TEXT)
    assert run_cli(["verify", str(inp), "--support",
                    str(tmp_path / "missing.txt"), "--omega", "general"]) == 2
    assert run_cli(["repair", str(inp), "--omega", "decrease", "--algo", "dmr",
                    "--out", "/nonexistent-dir/out.tsv"]) == 2
    assert run_cli(["gen", "--kind", "CycleTight", "--param", "n=5",
                    "--out", "/nonexistent-dir/g.txt"]) == 2


def test_verify_decrease_mode_is_precondition_error(tmp_path):
    inp = tmp_path / "m.txt"
    write(inp, METRIC_TEXT)
    sup = tmp_path / "s.txt"
    write(sup, "")
    assert run_cli(["verify", str(inp), "--support", str(sup),
                    "--omega", "decrease"]) == 3


def test_detect_exit_codes_and_output(tmp_path, capsys):
    broken = tmp_path / "b.txt"
    write(broken, "0 1 9\n1 2 1\n0 2 1\n")
    assert run_cli(["detect", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "is_metric: false" in out
    assert "broken_cycle:" in out
    assert "top=(0, 1)" in out

    metric = tmp_path / "m.txt"
    write(metric, METRIC_TEXT)
    assert run_cli(["detect", str(metric), "--triangles-only"]) == 0
    assert "is_metric: true" in capsys.readouterr().out


def test_detect_scans_broken_triangles_once(tmp_path, capsys, monkeypatch):
    # Patched under both bindings, so a scan from inside the detect module
    # (e.g. through instance_stats) is counted as well.
    from metric_repair import cli, detect

    calls = []
    original = detect.broken_triangles

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(detect, "broken_triangles", counting)
    monkeypatch.setattr(cli, "broken_triangles", counting)
    inp = tmp_path / "b.txt"
    write(inp, "0 1 9\n1 2 1\n0 2 1\n0 3 1\n1 3 1\n")
    for extra in ([], ["--triangles-only"]):
        calls.clear()
        assert run_cli(["detect", str(inp), *extra]) == 1
        assert len(calls) == 1
    out = capsys.readouterr().out
    assert "broken_triangles: 2" in out


@pytest.mark.parametrize("text, expected", [
    (METRIC_TEXT, "none"),  # n = 3: searched, and no broken cycle found
    ("".join(f"{i} {i + 1} 1\n" for i in range(9)) + "0 9 10\n",
     "not computed"),  # n = 10: past the n <= 9 enumeration budget
])
def test_exact_l_fallback_texts(tmp_path, capsys, text, expected):
    inp = tmp_path / "g.txt"
    write(inp, text)
    assert run_cli(["repair", str(inp), "--omega", "increase", "--algo", "spc",
                    "--exact-L", "--out", str(tmp_path / "d.tsv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"longest_broken_cycle: {expected}"


def test_exact_l_reads_only_the_longest_broken_cycle(monkeypatch):
    # The longest-cycle report needs neither a triangle scan nor is_metric
    # beyond the runner's own validation.
    from metric_repair import OmegaClass, detect, runner
    from metric_repair.gadgets import cycle_tight

    calls = []
    original = detect.broken_triangles
    monkeypatch.setattr(detect, "broken_triangles",
                        lambda g: calls.append(g) or original(g))
    report = runner.run_algo(cycle_tight(6), OmegaClass.INCREASE_ONLY, "spc",
                             exact_cycle_budget=9)
    assert report.longest_broken_cycle == 6
    assert calls == []


def test_gen_writes_deterministic_edge_list(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    args = ["gen", "--kind", "PlantedChordal", "--param", "n=10",
            "--param", "k=2", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "planted_support_size:" in capsys.readouterr().out
    parse_edge_list(out1.read_text(encoding="utf-8"))  # parses cleanly


def test_gen_matrix_kind_writes_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli(["gen", "--kind", "IomrWorst", "--param", "n=5",
                    "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 5
    assert rows[0].split(",")[1] == "4"


def test_gen_requires_seed_for_random_kinds(tmp_path):
    assert run_cli(["gen", "--kind", "PlantedChordal", "--param", "n=8",
                    "--param", "k=2", "--out", str(tmp_path / "x.txt")]) == 2


def test_gen_invalid_parameters(tmp_path):
    assert run_cli(["gen", "--kind", "ComponentL", "--param", "n=9",
                    "--param", "L=4", "--out", str(tmp_path / "x.txt")]) == 2
    assert run_cli(["gen", "--kind", "DenseGamma", "--param", "n=8",
                    "--param", "k=4", "--out", str(tmp_path / "x.txt")]) == 2


def test_gen_sizes_at_the_vertex_cap_exit_two(tmp_path, capsys):
    # The reader refuses vertex ids at the cap, so gen refuses such sizes
    # before building anything; one below the cap round-trips.
    from metric_repair.fileio import MAX_VERTICES

    out = tmp_path / "x.txt"
    assert run_cli(["gen", "--kind", "CycleTight", "--param", f"n={MAX_VERTICES - 1}",
                    "--out", str(out)]) == 0
    g = parse_edge_list(out.read_text(encoding="utf-8"))
    assert g.n == g.m == MAX_VERTICES - 1
    out.unlink()
    capsys.readouterr()
    for kind, params in [
        ("CycleTight", [f"n={MAX_VERTICES}"]),
        ("PlantedComplete", ["n=100000000", "k=1", "seed=1"]),
        ("VertexCoverSuspension", [f"base_n={MAX_VERTICES}"]),
        ("VertexCoverSuspension", ["base_n=5", "base=random", "seed=1",
                                   f"base_m={MAX_VERTICES}"]),
    ]:
        args = ["gen", "--kind", kind, "--out", str(out)]
        assert run_cli(args + [f"--param={p}" for p in params]) == 2
        assert f"must be below {MAX_VERTICES}" in capsys.readouterr().err
        assert not out.exists()


def test_gen_alpha_is_parsed_exactly_and_kept_printable(tmp_path, capsys):
    # alpha goes through the reader's number parser, and a graph the reader
    # would refuse is not written: a decimal exponent past 4300, and weights
    # or a scale past 2^12000.
    out = tmp_path / "s.txt"
    base = ["gen", "--kind", "VertexCoverSuspension", "--param", "base_n=3",
            "--out", str(out)]
    capsys.readouterr()
    for alpha, message in (("1e5000", "bad number '1e5000'"), ("1e4000", "2^12000"),
                           ("1e-4000", "2^12000"), ("abc", "bad number 'abc'")):
        assert run_cli(base + ["--param", f"alpha={alpha}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, alpha
        assert not out.exists()
    assert run_cli(base + ["--param", "alpha=1/3"]) == 0
    g = parse_edge_list(out.read_text(encoding="utf-8"))
    assert g.weight(0, 1) == 1 and g.weight(0, 3) == Fraction(1, 3)


@pytest.mark.parametrize("text", [
    "0 1 1  # unit weights, as drawn\n1 2 1\n0 2 3\n",
    "# drawn by hand\n0 1 1\n1 2 1  # unit weights, as drawn\n0 2 3\n",
], ids=["first-line", "later-line"])
def test_auto_format_ignores_commas_in_comments(tmp_path, capsys, text):
    # A comma inside a comment does not make an edge list a CSV matrix, on
    # the first data line or a later one.
    inp = tmp_path / "g.txt"
    write(inp, text)
    assert run_cli(["detect", str(inp)]) == 1
    assert "broken_cycle: 0-1-2 top=(0, 2)" in capsys.readouterr().out


def test_gen_unknown_kind_lists_the_known_ones(tmp_path, capsys):
    from metric_repair.gadgets import GADGET_KINDS

    assert run_cli(["gen", "--kind", "NoSuchKind", "--out", str(tmp_path / "x.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown --kind 'NoSuchKind'")
    assert all(kind in err for kind in GADGET_KINDS)


def test_gen_then_repair_chain(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert run_cli(["gen", "--kind", "CycleTight", "--param", "n=6",
                    "--out", str(inst)]) == 0
    out = tmp_path / "delta.tsv"
    assert run_cli(["repair", str(inst), "--omega", "increase", "--algo", "spc",
                    "--out", str(out)]) == 0
    assert "support_size: 5" in capsys.readouterr().out


def test_bench_ratios_suite_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--suite", "ratios", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    header = rows[0].keys()
    assert list(header) == ["instance", "kind", "n", "m", "algo", "omega",
                            "support_size", "opt", "L", "iterations", "time_ms"]
    tight = {r["instance"]: r for r in rows if r["kind"] == "CycleTight"
             and r["algo"] == "spc"}
    assert tight["cycle-tight-n8"]["support_size"] == "7"
    assert tight["cycle-tight-n8"]["opt"] == "1"
    assert tight["cycle-tight-n8"]["L"] == "7"
    gamma = next(r for r in rows if r["kind"] == "DenseGamma")
    assert gamma["support_size"] == "36"
    assert gamma["opt"] == "12"


def test_bench_unwritable_output(capsys):
    assert run_cli(["bench", "--suite", "ratios",
                    "--out", "/nonexistent-dir/x.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write /nonexistent-dir/x.csv: ")
    assert captured.err.count("\n") == 1


def test_bench_table1_suite(tmp_path):
    out = tmp_path / "t1.csv"
    assert run_cli(["bench", "--suite", "table1", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert {r["algo"] for r in rows} == {"spc", "5cc", "iomr"}


def test_bench_rows_are_deterministic_apart_from_timings():
    from metric_repair.bench import run_suite

    def strip_times(rows):
        return [(r.instance, r.kind, r.n, r.m, r.algo, r.omega,
                 r.support_size, r.opt, r.longest_minus_one, r.iterations)
                for r in rows]

    assert strip_times(run_suite("ratios")) == strip_times(run_suite("ratios"))


_REPORT_MODULES = ("import sys\n"
                   "from metric_repair.cli import main\n"
                   "status = main(sys.argv[2:])\n"
                   "loaded = [m for m in sys.argv[1].split(',') if m in sys.modules]\n"
                   "print('loaded:', ','.join(loaded) or '-', 'exit:', status)\n")


def modules_loaded_by_cli(tmp_path, args, names) -> list[str]:
    """Run one CLI command on small inputs in a fresh interpreter and return
    which of the module ``names`` it loaded."""
    from metric_repair.fileio import serialize_edge_list, serialize_matrix_csv
    from metric_repair.gadgets import planted_chordal, planted_complete

    write(tmp_path / "small.csv",
          serialize_matrix_csv(planted_complete(8, 2, seed=3).instance.to_graph()))
    write(tmp_path / "chordal.txt", serialize_edge_list(planted_chordal(10, 1, seed=3).instance))
    write(tmp_path / "support.txt", "0 1\n2 5\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", _REPORT_MODULES, ",".join(names), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    last = run.stdout.splitlines()[-1]
    assert last.startswith("loaded: ") and last.split()[-1] in ("0", "1"), (last, run.stderr)
    loaded = last.split()[1]
    return [] if loaded == "-" else loaded.split(",")


@pytest.mark.parametrize("args", [
    ["detect", "small.csv"],
    ["repair", "small.csv", "--omega", "decrease", "--algo", "dmr"],
    ["repair", "small.csv", "--omega", "increase", "--algo", "5cc"],
    ["repair", "chordal.txt", "--omega", "increase", "--algo", "fpt"],
    ["repair", "small.csv", "--omega", "increase", "--algo", "iomr"],
])
def test_small_cli_runs_never_import_numpy(tmp_path, args):
    assert modules_loaded_by_cli(tmp_path, args, ["numpy"]) == []


_NOT_NEEDED = ["metric_repair.gadgets", "metric_repair.bench", "metric_repair.oracle",
               "metric_repair.fpt", "metric_repair.chordal", "dataclasses", "inspect", "numpy"]


_APPROX = ["metric_repair.approx"]
_FPT = ["metric_repair.fpt", "metric_repair.chordal"]


@pytest.mark.parametrize("args, needed", [
    (["detect", "small.csv"], []),
    (["detect", "small.csv", "--triangles-only"], []),
    (["repair", "small.csv", "--omega", "decrease", "--algo", "dmr"], []),
    (["repair", "small.csv", "--omega", "increase", "--algo", "spc"], _APPROX),
    (["repair", "small.csv", "--omega", "increase", "--algo", "5cc"], _APPROX),
    (["repair", "small.csv", "--omega", "increase", "--algo", "iomr"], _APPROX),
    (["verify", "small.csv", "--support", "support.txt", "--omega", "increase"], []),
    (["repair", "chordal.txt", "--omega", "general", "--algo", "fpt"], _FPT),
], ids=["detect", "detect-triangles", "dmr", "spc", "5cc", "iomr", "verify", "fpt"])
def test_small_cli_runs_load_only_their_own_modules(tmp_path, args, needed):
    loaded = modules_loaded_by_cli(tmp_path, args, _NOT_NEEDED + _APPROX)
    assert loaded == needed


_CLOCK_PROBE = ("import sys, time, types\n"
                "import metric_repair.runner as runner\n"
                "from metric_repair.cli import main\n"
                "seen = []\n"
                "def clock():\n"
                "    seen.append('numpy' in sys.modules)\n"
                "    return time.perf_counter()\n"
                "runner.time = types.SimpleNamespace(perf_counter=clock)\n"
                "status = main(sys.argv[1:])\n"
                "print('at-start:', seen[0], 'after:', 'numpy' in sys.modules, 'exit:', status)\n")


@pytest.mark.parametrize("n, algo, omega, at_start, after", [
    (70, "iomr", "increase", False, False),
    (8, "iomr", "increase", False, False),
    (70, "dmr", "decrease", True, True),
    (70, "spc", "increase", True, True),
    (40, "dmr", "decrease", False, False),
])
def test_solve_clock_starts_after_any_numpy_import(tmp_path, n, algo, omega, at_start, after):
    # ``time_ms`` holds no import: numpy is loaded before the runner's clock
    # starts when the solve needs it (the numpy shortest-path kernel at
    # n >= 64), and not at all otherwise: the sweep never loads it.
    from metric_repair.fileio import serialize_matrix_csv
    from metric_repair.gadgets import planted_complete

    matrix = planted_complete(n, 2, seed=1).instance.to_graph()
    write(tmp_path / "m.csv", serialize_matrix_csv(matrix))
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    args = ["repair", "m.csv", "--omega", omega, "--algo", algo]
    run = subprocess.run([sys.executable, "-c", _CLOCK_PROBE, *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    last = run.stdout.splitlines()[-1]
    assert last == f"at-start: {at_start} after: {after} exit: 0", run.stderr


def test_detect_into_a_closed_pipe_keeps_its_exit_code(tmp_path):
    # 104,371 triangle lines, 3.76 MB: far more than a pipe buffer holds, so
    # detect is still writing when the reader goes away after two lines.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    cli = [sys.executable, "-m", "metric_repair.cli"]
    subprocess.run(cli + ["gen", "--kind", "DenseGamma", "--param", "n=120", "--param", "k=59",
                          "--out", "dense.csv"], cwd=tmp_path, env=env, check=True, timeout=60)
    with subprocess.Popen(cli + ["detect", "dense.csv"], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        head = [run.stdout.readline() for _ in range(2)]
        run.stdout.close()
        err = run.stderr.read()
        assert run.wait(timeout=60) == 1
    assert head == [b"is_metric: false\n", b"broken_cycle: 0-58-59 top=(0, 59)\n"]
    assert b"Traceback" not in err and err == b""


@pytest.mark.parametrize("algo, omega", [("dmr", "decrease"), ("spc", "increase")])
def test_weights_past_the_print_limit_exit_two(tmp_path, capsys, algo, omega):
    # 10^5000 cannot be printed as a Python int (4300 digits), so it is refused
    # on input; 10^3000 repairs and prints.
    inp, out = tmp_path / "g.txt", tmp_path / "d.tsv"
    write(inp, "0 1 1e3000\n1 2 1\n0 2 1\n")
    assert run_cli(["repair", str(inp), "--omega", omega, "--algo", algo,
                    "--out", str(out)]) == 0
    assert parse_delta_tsv(out.read_text(encoding="utf-8")).is_metric_after
    capsys.readouterr()
    write(inp, "0 1 1e5000\n1 2 1\n0 2 1\n")
    assert run_cli(["repair", str(inp), "--omega", omega, "--algo", algo]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_matrix_cell_past_the_int_digit_limit_exits_two(tmp_path, capsys):
    # Rows of plain digits parse through int() in one go; a 5000-digit cell
    # makes int() refuse the row, which must still end as a bad number.
    inp = tmp_path / "g.csv"
    big = "9" * 5000
    write(inp, f"0,{big}\n{big},0\n")
    assert run_cli(["detect", str(inp)]) == 2
    assert capsys.readouterr().err.startswith("error: bad number")


def test_scale_past_the_cap_exits_two(tmp_path, capsys):
    # 1/p weights over the first primes: the scale, their product, passes
    # 2^12000 with the 1,057th prime.
    inp = tmp_path / "g.txt"
    write(inp, "".join(f"{i} {i + 1} 1/{p}\n" for i, p in enumerate(first_primes(1100))))
    assert run_cli(["detect", str(inp)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, graph, support", [
    ("g.txt", f"0 1 1e{'0' * 200_000}1\n", None),
    ("g.txt", f"0 1 1\n1 2 -{'1' * 4000}\n", None),
    ("g.txt", f"0 1 1\n1 {'1' * 4000} 1\n", None),
    ("g.csv", f"0,{'9' * 200_000}\n{'9' * 200_000},0\n", None),
    ("g.txt", METRIC_TEXT, f"0 {'1' * 4000}\n"),
], ids=["long-token", "long-negative", "long-id", "csv-field-limit", "support-id"])
def test_bad_input_errors_stay_short(tmp_path, capsys, name, graph, support):
    inp, sup = tmp_path / name, tmp_path / "s.txt"
    write(inp, graph)
    args = ["detect", str(inp)]
    if support is not None:
        write(sup, support)
        args = ["verify", str(inp), "--support", str(sup), "--omega", "general"]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.encode()) < 1024, err[:200]


def test_vertex_ids_at_the_cap_exit_two(tmp_path, capsys):
    from metric_repair.fileio import MAX_VERTICES

    inp = tmp_path / "g.txt"
    write(inp, f"0 1 1\n1 {MAX_VERTICES - 1} 1\n")
    assert run_cli(["detect", str(inp)]) == 0
    assert "is_metric: true" in capsys.readouterr().out
    write(inp, f"0 1 1\n1 {MAX_VERTICES} 1\n")
    assert run_cli(["detect", str(inp)]) == 2
    assert f"not below {MAX_VERTICES}" in capsys.readouterr().err
