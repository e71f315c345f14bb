"""One checked pass per file: the loaders against the two-pass references.

``parse_edge_list`` and ``parse_matrix_csv`` check each token once and hand
a checked map to the graph's build step.  The references in ``conftest``
check every edge a second time through ``WeightedGraph``; on any text, the
two must give the same graph (store order included) or the same message.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_repair import InputFormatError, WeightedGraph
from metric_repair.fileio import MAX_VERTICES, parse_edge_list, parse_matrix_csv

from conftest import graph_state, reference_parse_edge_list, reference_parse_matrix_csv

DIGITS_4301 = "9" * 4301  # one past Python's int() digit limit
SCALE_OVER = f"1/{2 ** 12000}"  # a scale of 2^12000 is refused
SCALE_UNDER = f"1/{2 ** 11999}"
INT_OVER = str(2 ** 12000)
INT_UNDER = str(2 ** 12000 - 1)


def outcome(parse, text: str):
    try:
        g = parse(text)
    except InputFormatError as exc:
        return "error", str(exc)
    return graph_state(g)


def assert_same(parse, reference, text: str) -> None:
    got, want = outcome(parse, text), outcome(reference, text)
    assert got == want
    if got[0] != "error":
        scale, intw = parse(text).integer_form()
        assert parse(text) == reference(text) and (scale, intw) == reference(text).integer_form()


# -- edge lists ----------------------------------------------------------------

ID_TOKENS = ("0", "1", "2", "3", "4", "-1", "+2", "00", "1_0", "٣", "a", "1.0",
             str(MAX_VERTICES - 1), str(MAX_VERTICES))
WEIGHT_TOKENS = ("0", "1", "7", "0012", "2.5", "1.0", "1/3", "6/4", "-0", "-0.0", "1e3",
                 "1E-2", "2.5e-1", "+3", "-2", "-1/2", "nan", "inf", "x", "3/0", "2,",
                 "٣", "1e4301", DIGITS_4301, "9" * 4300, SCALE_OVER, SCALE_UNDER,
                 INT_OVER, INT_UNDER)


@st.composite
def edge_list_texts(draw):
    """Mostly well-formed lines on ids 0-6, so that later lines are reached
    and repeated pairs are common; about one line in six is drawn from every
    token, faults included."""
    clean_ids, clean_weights = st.integers(0, 6).map(str), st.sampled_from(WEIGHT_TOKENS[:14])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 11))
        if kind == 0:
            lines.append(draw(st.sampled_from(("", "   ", "\t", "# only a comment", "#"))))
            continue
        if kind < 3:
            fields = [draw(st.sampled_from(ID_TOKENS)) for _ in "uv"]
            fields.append(draw(st.sampled_from(WEIGHT_TOKENS)))
            fields = fields[:draw(st.sampled_from((2, 3, 3, 3, 4)))] + ["7"] * (kind == 2)
        else:
            u = draw(clean_ids)
            fields = [u, draw(clean_ids.filter(lambda v: v != u)), draw(clean_weights)]
        sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
        line = draw(st.sampled_from(("", "", " ", "\t"))) + sep.join(fields)
        line += draw(st.sampled_from(("", "", " ", "  # note, with a comma", "#x 1 2")))
        lines.append(line)
    end = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


@given(edge_list_texts())
@settings(max_examples=400, deadline=None)
def test_edge_list_loader_matches_the_two_pass_reference(text):
    assert_same(parse_edge_list, reference_parse_edge_list, text)


@pytest.mark.parametrize("text", [
    "0 1 2\n1 2 3\n0 2 4\n",
    "0 1 2\r\n1 2 3\r\n",
    "0 1 2\r1 2 3\r",
    "0\t1\t2.5\n2\t1\t1/3\n",
    "# only a comment\n",
    "#\n\n   \n",
    "0 1 2\n1 0 3\n",  # reversed duplicate
    "2 1 5\n1 2 5\n",
    f"0 {MAX_VERTICES - 1} 1\n",
    f"0 {MAX_VERTICES} 1\n",
    f"0 1 {DIGITS_4301}\n",
    f"0 1 {SCALE_UNDER}\n", f"0 1 {SCALE_OVER}\n", f"0 1 {INT_UNDER}\n", f"0 1 {INT_OVER}\n",
    "0 1 -0\n1 2 -0.0\n",
    "0 1 nan\n", "0 1 2,\n", "0 1 ٣\n", "0 1 1e4301\n",
    # Two faults on one line: the first in check order wins.
    "0 0 -1\n", "-1 -1 x\n", f"-1 {MAX_VERTICES} 1\n", f"{MAX_VERTICES} {MAX_VERTICES} 1\n",
    "0 1 1\n1 0 x\n", "0 1 1\n0 1 -2\n", "a 0 x\n", "0 1\n0 0 1\n",
    "0 1 -2\n0 0 1\n",
], ids=lambda t: repr(t[:24]))
def test_edge_list_cases(text):
    assert_same(parse_edge_list, reference_parse_edge_list, text)


def test_edge_list_first_fault_wins():
    cases = {
        "0 0 -1\n": "line 1: self-loop 0",
        f"-1 {MAX_VERTICES} x\n": "line 1: vertex ids must be nonnegative",
        f"{MAX_VERTICES} {MAX_VERTICES} 1\n": f"line 1: vertex id {MAX_VERTICES} is not below",
        "0 1 1\n1 0 x\n": "line 2: duplicate edge (0, 1)",
        "0 1 x\n0 0 1\n": "bad number 'x'",
    }
    for text, message in cases.items():
        with pytest.raises(InputFormatError, match=re.escape(message)):
            parse_edge_list(text)


# -- matrices ------------------------------------------------------------------

CELL_TOKENS = ("0", "1", "2", "7", "0012", "0.5", "1/2", "2.5", "", "nan", "NaN", "3e0")
EQUAL_BY_VALUE = {"1": ("1.0", "2/2", "1e0", " 1"), "0.5": ("1/2", "5e-1"), "": ("nan", " "),
                  "2": ("2.0", "+2"), "7": ("07",)}
ODD_CELLS = ("-1", "x", "-0", "1e4301", DIGITS_4301, SCALE_OVER, SCALE_UNDER, INT_OVER,
             '"3"', "٣", "inf", "1/0")


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(0, 4))
    rows = [["0"] * n for _ in range(n)]
    values = st.sampled_from(CELL_TOKENS) | st.sampled_from(tuple(EQUAL_BY_VALUE))
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(("0", "0", "0", "0.0", "-0", "", "1")))
        for j in range(i + 1, n):
            rows[i][j] = draw(values)
            mirror = (rows[i][j],) + EQUAL_BY_VALUE.get(rows[i][j], ())
            rows[j][i] = draw(st.sampled_from(mirror) | st.sampled_from(CELL_TOKENS))
    for _ in range(draw(st.integers(0, 2))):
        if n:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = draw(st.sampled_from(ODD_CELLS))
    if n and draw(st.integers(0, 5)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        row.pop() if draw(st.booleans()) else row.append("")
    pad = draw(st.sampled_from(("", "", " ", "\t")))
    lines = [",".join(pad + cell for cell in row) for row in rows]
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(("\n", "\n", "\r\n", "\r")))
    return end.join(lines) + draw(st.sampled_from(("", end)))


@given(matrix_texts())
@settings(max_examples=400, deadline=None)
def test_matrix_loader_matches_the_two_pass_reference(text):
    assert_same(parse_matrix_csv, reference_parse_matrix_csv, text)


@pytest.mark.parametrize("text", [
    "0,1\n1.0,0\n",  # symmetric by value, not by string
    "0,1/2\n0.5,0\n",
    "0,,nan\n,0,3\nNaN,3,0\n",
    "0,1\r\n1,0\r\n", "0,1\r1,0\r", "0\t,\t1\n1 ,0\n",
    "0,1,\n1,0,\n",  # trailing commas: a third column
    "\n0,2\n\n2,0\n\n",
    "", "\n\n",
    f"0,{DIGITS_4301}\n{DIGITS_4301},0\n",
    f"0,{SCALE_UNDER}\n{SCALE_UNDER},0\n", f"0,{SCALE_OVER}\n{SCALE_OVER},0\n",
    f"0,{INT_OVER}\n{INT_OVER},0\n",
    "0,-0\n0,0\n",
    # Faults in order: a diagonal cell before the asymmetric cells to its
    # right, an earlier row's asymmetry before a later diagonal.
    "1,2\n3,0\n", "0,2,1\n2,1,5\n1,4,0\n", "0,1\n2,x\n", "0,1\n1,0,5\n", "0,x\n-1,0\n",
    "0,1,2\n1,0\n", "0,1\n,0\n",
], ids=lambda t: repr(t[:24]))
def test_matrix_cases(text):
    assert_same(parse_matrix_csv, reference_parse_matrix_csv, text)


def test_matrix_first_fault_wins():
    cases = {
        "1,2\n3,0\n": r"diagonal cell \(0,0\) must be 0",
        "0,2,1\n2,1,5\n1,4,0\n": r"diagonal cell \(1,1\) must be 0",
        "0,2,1\n2,1,5\n3,4,0\n": r"cells \(0,2\)/\(2,0\) are not symmetric",
        "0,1\n1.5,0\n": r"cells \(0,1\)/\(1,0\) are not symmetric",
        "0,-1\nx,0\n": r"cell \(0,1\): negative entry -1",
    }
    for text, message in cases.items():
        with pytest.raises(InputFormatError, match=message):
            parse_matrix_csv(text)
    g = parse_matrix_csv("0,1\n1.0,0\n")
    assert g.integer_form() == (1, {(0, 1): 1})
    # Bare CR line ends read as LF ones do, as in a file opened by the CLI.
    assert parse_matrix_csv("0,1\r1,0\r") == parse_matrix_csv("0,1\n1,0\n")


# -- the build step ------------------------------------------------------------


def test_loaded_store_keeps_the_file_order():
    g = parse_edge_list("3 1 1/2\n0 2 2\n1 0 0.25\n")
    assert list(g.integer_form()[1].items()) == [((1, 3), 2), ((0, 2), 8), ((0, 1), 1)]
    assert g.edges == ((0, 1), (0, 2), (1, 3)) and g.neighbors(1) == (0, 3)
    assert g == WeightedGraph(4, [(3, 1, Fraction(1, 2)), (0, 2, 2), (1, 0, "0.25")])
