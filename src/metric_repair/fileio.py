"""File formats: edge lists, distance matrices and repair deltas.

All three formats carry exact rationals: decimal strings are converted
digit-wise (never through binary floating point) and serialized back as exact
decimals when the denominator allows, as ``p/q`` otherwise.  Canonical
serialization is deterministic, so ``serialize(parse(serialize(x)))`` is
byte-identical to ``serialize(x)``.

A graph file is checked in one pass, token by token, and the first fault
wins; the checked edge map goes straight to the graph's build step
(``graphs._trusted_graph``), which checks nothing again.  Parsed numbers stay
printable: Python formats an int of at most 4300 digits, so a decimal
exponent past 4300 is refused before it is expanded, and a parsed graph
whose scale or largest scaled weight reaches ``2**12000`` (3613 digits) is
refused last (``_printable``), leaving room for the sums and deltas the
solvers print.  All are ``InputFormatError``.  An edge list may not name a
vertex id of ``MAX_VERTICES`` or more (the vertex count follows the largest
id, not the file size), and error messages quote at most
``graphs.MAX_ECHO`` characters of each value.  Graphs built in library code
are not held to these file bounds.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import NamedTuple

from .graphs import (
    InputFormatError,
    OmegaClass,
    RepairDelta,
    WeightedGraph,
    _trusted_graph,
    clipped,
)

MAX_EXPONENT = 4300
MAX_SCALED_BITS = 12000
MAX_VERTICES = 100_000


def parse_exact(token: str) -> int | Fraction:
    """Exact rational from a decimal or p/q string: plain ASCII digits give an
    ``int``, the rest go through ``Fraction``, which sets the accepted language.
    A decimal exponent of magnitude above ``MAX_EXPONENT`` is refused."""
    stripped = token.strip()
    try:
        if stripped.isascii() and stripped.isdigit():
            return int(stripped)
        _, e, exponent = stripped.lower().partition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"exponent magnitude above {MAX_EXPONENT}")
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad number {clipped(token)!r}: {clipped(exc)}") from None


def format_exact(value: int | Fraction) -> str:
    """Shortest exact decimal form, falling back to p/q."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    reduced = den
    twos = fives = 0
    while reduced % 2 == 0:
        reduced //= 2
        twos += 1
    while reduced % 5 == 0:
        reduced //= 5
        fives += 1
    if reduced != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = abs(num) * 10 ** digits // den
    whole, frac = divmod(scaled, 10 ** digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"


# -- edge lists ---------------------------------------------------------------


def parse_edge_list(text: str) -> WeightedGraph:
    """Lines of ``u v w``; '#' starts a comment, blank lines are skipped.

    Vertex ids are 0-based and below ``MAX_VERTICES``; the vertex count is
    one past the largest id seen.
    """
    weights: dict[tuple[int, int], int | Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if len(parts) != 3:
            raise InputFormatError(f"line {lineno}: expected 'u v w', got {clipped(raw)!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertex ids must be integers") from None
        key = (u, v) if u < v else (v, u)
        if key[0] < 0:
            raise InputFormatError(f"line {lineno}: vertex ids must be nonnegative")
        if key[1] >= MAX_VERTICES:
            raise InputFormatError(
                f"line {lineno}: vertex id {clipped(key[1])} is not below {MAX_VERTICES}")
        if u == v:
            raise InputFormatError(f"line {lineno}: self-loop {u}")
        if key in weights:
            raise InputFormatError(f"line {lineno}: duplicate edge {key}")
        w = parse_exact(parts[2])
        if w < 0:
            raise InputFormatError(f"line {lineno}: negative weight {clipped(parts[2])}")
        weights[key] = w
    n = 1 + max((v for _, v in weights), default=-1)
    return _printable(_trusted_graph(n, weights))


def _printable(g: WeightedGraph) -> WeightedGraph:
    """``g``, unless its scale or a scaled weight reaches ``2**MAX_SCALED_BITS``."""
    scale, intw = g.integer_form()
    if max(scale, max(intw.values(), default=0)).bit_length() > MAX_SCALED_BITS:
        raise InputFormatError(
            f"weights need a scale or scaled value of 2^{MAX_SCALED_BITS} or more")
    return g


def _formatted_weights(g: WeightedGraph) -> dict[tuple[int, int], str]:
    """Each edge's weight formatted once, straight from the stored integers."""
    scale, intw = g.integer_form()
    return {e: format_exact(x if scale == 1 else Fraction(x, scale)) for e, x in intw.items()}


def serialize_edge_list(g: WeightedGraph) -> str:
    text = _formatted_weights(g)
    lines = [f"{u} {v} {text[u, v]}" for (u, v) in g.edges]
    return "\n".join(lines) + ("\n" if lines else "")


# -- distance matrices --------------------------------------------------------


def parse_matrix_csv(text: str) -> WeightedGraph:
    """Square CSV; empty cells or "nan" mark missing edges.

    The diagonal must be zero and both values and the missing-cell pattern must
    be symmetric.  Missing cells make the graph non-complete, which is how
    partial distance information enters the solvers.
    """
    try:
        cells = [row for row in csv.reader(io.StringIO(text, newline=None)) if row]
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise InputFormatError(f"bad CSV: {exc}") from None
    n = len(cells)
    parsed: list[list[int | Fraction | None]] = []
    for i, row in enumerate(cells):
        if len(row) != n:
            raise InputFormatError(f"row {i}: expected {n} columns, got {len(row)}")
        digits = "".join(row)
        if all(row) and digits.isascii() and digits.isdigit():
            # Every cell is plain ASCII digits, which parse_exact hands to int
            # unchanged.  A cell past int's digit limit takes the loop below,
            # so it gets the same error.
            try:
                parsed.append(list(map(int, row)))
                continue
            except ValueError:
                pass
        out_row: list[int | Fraction | None] = []
        for j, cell in enumerate(row):
            token = cell.strip()
            if token == "" or token.lower() == "nan":
                out_row.append(None)
                continue
            value = parse_exact(token)
            if value < 0:
                raise InputFormatError(f"cell ({i},{j}): negative entry {clipped(token)}")
            out_row.append(value)
        parsed.append(out_row)
    for i, (row, column) in enumerate(zip(parsed, zip(*parsed))):
        if row[i] != 0:
            raise InputFormatError(f"diagonal cell ({i},{i}) must be 0")
        if tuple(row) != column:  # the earlier rows matched: the fault is right of i
            j = next(j for j in range(i + 1, n) if row[j] != column[j])
            raise InputFormatError(f"cells ({i},{j})/({j},{i}) are not symmetric")
    weights = {(i, j): x for i, row in enumerate(parsed)
               for j, x in enumerate(row[i + 1:], start=i + 1) if x is not None}
    return _printable(_trusted_graph(n, weights))


def serialize_matrix_csv(g: WeightedGraph) -> str:
    """One line of cells per row: "0" on the diagonal, the weight of each
    edge, and an empty cell where there is no edge."""
    n = g.n
    cells = [[""] * i + ["0"] + [""] * (n - 1 - i) for i in range(n)]
    for (u, v), text in _formatted_weights(g).items():
        cells[u][v] = cells[v][u] = text
    return "".join([",".join(row) + "\n" for row in cells])


# -- repair deltas ------------------------------------------------------------


class DeltaDocument(NamedTuple):
    """A repair delta plus the summary facts recorded next to it."""

    delta: RepairDelta
    is_metric_after: bool


def serialize_delta_tsv(doc: DeltaDocument) -> str:
    lines = [f"{u}\t{v}\t{format_exact(value)}" for (u, v), value in doc.delta.items()]
    lines.append(
        f"# omega={doc.delta.omega.value} support_size={doc.delta.norm0()} "
        f"is_metric_after={str(doc.is_metric_after).lower()}")
    return "\n".join(lines) + "\n"


def parse_delta_tsv(text: str) -> DeltaDocument:
    entries = {}
    summary = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            summary = dict(
                item.split("=", 1) for item in line[1:].split() if "=" in item)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(f"line {lineno}: expected 'u<TAB>v<TAB>delta'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertex ids must be integers") from None
        _add_delta_entry(entries, u, v, parse_exact(parts[2]), f"line {lineno}")
    if summary is None or "omega" not in summary:
        raise InputFormatError("missing trailing summary record with omega=")
    try:
        omega = OmegaClass.parse(summary["omega"])
        delta = RepairDelta(entries, omega)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
    return DeltaDocument(delta=delta,
                         is_metric_after=summary.get("is_metric_after") == "true")


def _add_delta_entry(entries: dict, u: int, v: int, value, where: str) -> None:
    """Record one parsed delta entry; a negative id or a repeated pair is an error."""
    if min(u, v) < 0 or (u, v) in entries or (v, u) in entries:
        raise InputFormatError(
            f"{where}: negative vertex id or repeated pair ({clipped(u)},{clipped(v)})")
    entries[(u, v)] = value


def serialize_delta_json(doc: DeltaDocument) -> str:
    import json

    payload = {
        "omega": doc.delta.omega.value,
        "entries": [
            {"u": u, "v": v, "delta": format_exact(value)}
            for (u, v), value in doc.delta.items()
        ],
        "support_size": doc.delta.norm0(),
        "is_metric_after": doc.is_metric_after,
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_delta_json(text: str) -> DeltaDocument:
    import json

    try:
        payload = json.loads(text)
        omega = OmegaClass.parse(payload["omega"])
        entries = {}
        for index, item in enumerate(payload["entries"]):
            # JSON has one number type: the Python type tells 2 from 2.0 and true.
            u, v, value = item["u"], item["v"], item["delta"]
            if type(u) is not int or type(v) is not int:
                raise InputFormatError(f"entry {index}: vertex ids must be JSON integers")
            if type(value) not in (str, int):
                raise InputFormatError(f"entry {index}: delta must be a string or an integer")
            _add_delta_entry(entries, u, v, parse_exact(str(value)), f"entry {index}")
        delta = RepairDelta(entries, omega)
        is_metric_after = payload["is_metric_after"]
        if type(is_metric_after) is not bool:
            raise InputFormatError("is_metric_after must be true or false")
        return DeltaDocument(delta=delta, is_metric_after=is_metric_after)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"bad delta JSON: {exc}") from None


# -- input sniffing -----------------------------------------------------------


def parse_graph_text(text: str, fmt: str = "auto", filename: str = "") -> WeightedGraph:
    """Parse either graph format; ``auto`` keys on a .csv suffix, or on a comma
    in the first line that holds anything outside a '#' comment."""
    if fmt == "edgelist":
        return parse_edge_list(text)
    if fmt == "matrix":
        return parse_matrix_csv(text)
    if fmt != "auto":
        raise ValueError(f"unknown input format {fmt!r}")
    if filename.endswith(".csv"):
        return parse_matrix_csv(text)
    body = (ln.split("#", 1)[0] for ln in text.splitlines())
    if "," in next((ln for ln in body if ln.strip()), ""):
        return parse_matrix_csv(text)
    return parse_edge_list(text)


def parse_support_file(text: str) -> tuple[tuple[int, int], ...]:
    """Support files list one edge per line as ``u v``; '#' comments allowed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected 'u v'")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputFormatError(f"line {lineno}: vertex ids must be integers") from None
    return tuple(out)
