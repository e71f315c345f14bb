"""Format round-trips and malformed-input rejection."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_repair import InputFormatError, OmegaClass, RepairDelta, WeightedGraph
from metric_repair.fileio import (
    MAX_VERTICES,
    DeltaDocument,
    format_exact,
    parse_delta_json,
    parse_delta_tsv,
    parse_edge_list,
    parse_exact,
    parse_graph_text,
    parse_matrix_csv,
    parse_support_file,
    serialize_delta_json,
    serialize_delta_tsv,
    serialize_edge_list,
    serialize_matrix_csv,
)

from conftest import first_primes, reference_serialize_matrix_csv


def test_format_exact_decimals_and_fractions():
    assert format_exact(Fraction(1, 2)) == "0.5"
    assert format_exact(Fraction(3, 4)) == "0.75"
    assert format_exact(Fraction(-3, 20)) == "-0.15"
    assert format_exact(Fraction(7)) == "7"
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(0)) == "0"


def test_edge_list_round_trip_is_byte_exact():
    text = "0 1 2.5\n0 2 1/3\n1 2 0\n"
    g = parse_edge_list(text)
    assert g.weight(0, 1) == Fraction(5, 2)
    assert g.weight(0, 2) == Fraction(1, 3)
    canonical = serialize_edge_list(g)
    assert serialize_edge_list(parse_edge_list(canonical)) == canonical


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1 4  # trailing\n")
    assert g.m == 1 and g.n == 2


def test_edge_list_malformed_inputs():
    for text in ("0 1\n", "0 0 1\n", "0 1 x\n", "0 1 -2\n", "0 1 1\n1 0 2\n",
                 "a b 1\n"):
        with pytest.raises(InputFormatError):
            parse_edge_list(text)


def test_matrix_round_trip_with_missing_cells():
    text = "0,1,\n1,0,2.5\n,2.5,0\n"
    g = parse_matrix_csv(text)
    assert g.n == 3 and g.m == 2
    assert not g.has_edge(0, 2)
    canonical = serialize_matrix_csv(g)
    assert serialize_matrix_csv(parse_matrix_csv(canonical)) == canonical


@st.composite
def matrices_with_missing_cells(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    cell = st.none() | st.builds(Fraction, st.integers(0, 60),
                                 st.sampled_from((1, 2, 3, 4, 7, 8, 25)))
    edges = [(u, v, w) for u, v in combinations(range(n), 2)
             if (w := draw(cell)) is not None]
    draw(st.randoms(use_true_random=False)).shuffle(edges)  # any store order
    return WeightedGraph(n, edges)


@given(matrices_with_missing_cells())
@settings(max_examples=200, deadline=None)
def test_matrix_writer_matches_the_per_cell_writer_and_round_trips(g):
    text = serialize_matrix_csv(g)
    assert text == reference_serialize_matrix_csv(g)
    assert parse_matrix_csv(text) == g
    assert serialize_matrix_csv(parse_matrix_csv(text)) == text


def test_matrix_nan_marks_missing():
    g = parse_matrix_csv("0,nan\nNaN,0\n")
    assert g.m == 0


def test_matrix_malformed_inputs():
    for text in (
        "0,1\n2,0\n",          # asymmetric values
        "0,1\n1,1\n",          # nonzero diagonal
        "0,1\n,0\n",           # asymmetric missing pattern
        "0,1,2\n1,0,3\n",      # not square
        "0,-1\n-1,0\n",        # negative
    ):
        with pytest.raises(InputFormatError):
            parse_matrix_csv(text)


def _parsed_or_error(text: str):
    try:
        g = parse_matrix_csv(text)
    except InputFormatError as exc:
        return "error", str(exc)
    return g.n, g.integer_form(), serialize_matrix_csv(g)


@pytest.mark.parametrize("cell, expected", [
    (" 7", 7), ("+7", 7), ("0012", 12), ("\u0663", 3), ("nan", None), ("", None),
    ("3/2", Fraction(3, 2)), ("9" * 5000, "bad number"),
], ids=["space", "plus", "leading-zeros", "arabic-digit", "nan", "empty", "ratio",
        "past-int-digit-limit"])
def test_all_digit_rows_parse_as_the_per_cell_loop_does(cell, expected):
    # One cell in otherwise all-digit rows.  Padding every cell with a space
    # sends each row through the per-cell loop, which strips cells before
    # parsing them, so both texts must give the same graph or message.
    rows = [["0", cell, "4"], [cell, "0", "5"], ["4", "5", "0"]]
    text = "".join(",".join(row) + "\n" for row in rows)
    padded = "".join(",".join(" " + c for c in row) + "\n" for row in rows)
    got = _parsed_or_error(text)
    assert got == _parsed_or_error(padded)
    if expected == "bad number":
        assert got[0] == "error" and got[1].startswith("bad number")
    else:
        g = parse_matrix_csv(text)
        assert g.m == (2 if expected is None else 3)
        assert expected is None or g.weight(0, 1) == expected


def test_delta_tsv_round_trip():
    delta = RepairDelta({(0, 1): Fraction(-3, 2), (2, 5): 4}, OmegaClass.GENERAL)
    doc = DeltaDocument(delta=delta, is_metric_after=True)
    text = serialize_delta_tsv(doc)
    back = parse_delta_tsv(text)
    assert back.delta == delta
    assert back.is_metric_after
    assert serialize_delta_tsv(back) == text


def test_delta_tsv_requires_summary():
    with pytest.raises(InputFormatError):
        parse_delta_tsv("0\t1\t2\n")


def test_delta_json_round_trip():
    delta = RepairDelta({(1, 3): Fraction(7, 10)}, OmegaClass.INCREASE_ONLY)
    doc = DeltaDocument(delta=delta, is_metric_after=False)
    text = serialize_delta_json(doc)
    back = parse_delta_json(text)
    assert back == doc
    assert serialize_delta_json(back) == text


def test_delta_json_malformed():
    with pytest.raises(InputFormatError):
        parse_delta_json("{}")
    with pytest.raises(InputFormatError):
        parse_delta_json("not json")


def test_delta_json_rejects_loosely_typed_fields():
    # Read loosely, this parsed to {(0, 2): 1/10} with is_metric_after True.
    with pytest.raises(InputFormatError):
        parse_delta_json('{"omega": "general", "entries": [{"u": 0.9, "v": 2.7, '
                         '"delta": 0.1}], "is_metric_after": "no"}')


@pytest.mark.parametrize("entry, after", [
    ('{"u": 0.0, "v": 2, "delta": "1"}', "true"),    # float vertex id
    ('{"u": 0, "v": true, "delta": "1"}', "true"),   # boolean vertex id
    ('{"u": 0, "v": "2", "delta": "1"}', "true"),    # string vertex id
    ('{"u": 0, "v": 2, "delta": 0.5}', "true"),      # float delta
    ('{"u": 0, "v": 2, "delta": true}', "true"),     # boolean delta
    ('{"u": 0, "v": 2, "delta": "1"}', '"yes"'),     # string is_metric_after
    ('{"u": 0, "v": 2, "delta": "1"}', "1"),         # integer is_metric_after
    ('{"u": 0, "v": 2, "delta": "1"}', "null"),      # null is_metric_after
])
def test_delta_json_rejects_each_mistyped_field(entry, after):
    text = f'{{"omega": "general", "entries": [{entry}], "is_metric_after": {after}}}'
    with pytest.raises(InputFormatError):
        parse_delta_json(text)


def test_delta_json_accepts_integer_deltas_and_round_trips_fractions():
    doc = parse_delta_json('{"omega": "general", "entries": [{"u": 0, "v": 2, "delta": -3}], '
                           '"is_metric_after": false}')
    assert dict(doc.delta.items()) == {(0, 2): -3} and doc.is_metric_after is False
    delta = RepairDelta({(0, 1): Fraction(1, 3), (2, 5): Fraction(-7, 4), (1, 4): 2},
                        OmegaClass.GENERAL)
    text = serialize_delta_json(DeltaDocument(delta=delta, is_metric_after=True))
    assert serialize_delta_json(parse_delta_json(text)) == text


_SUMMARY = "# omega=general support_size=2 is_metric_after=true\n"


@pytest.mark.parametrize("body", [
    "0\t1\t1\n0\t1\t5\n",  # the same pair twice
    "0\t1\t1\n1\t0\t5\n",  # the same pair, written the other way round
    "-1\t1\t1\n",  # a negative vertex id
])
def test_delta_tsv_rejects_repeated_pairs_and_negative_ids(body):
    with pytest.raises(InputFormatError):
        parse_delta_tsv(body + _SUMMARY)


@pytest.mark.parametrize("pairs", [[(0, 1), (0, 1)], [(0, 1), (1, 0)], [(0, -1)]])
def test_delta_json_rejects_repeated_pairs_and_negative_ids(pairs):
    entries = ",".join(f'{{"u": {u}, "v": {v}, "delta": "1"}}' for u, v in pairs)
    text = f'{{"omega": "general", "entries": [{entries}], "is_metric_after": true}}'
    with pytest.raises(InputFormatError):
        parse_delta_json(text)


@pytest.mark.parametrize("token", ["+5", "00012", " 7 ", "-0", "1_000", "\u0661\u0662",
                                   "\u00b2", "1e3", "1__0", "0x10", "", "3/0", "0.25"])
def test_parse_exact_accepts_exactly_what_fraction_accepts(token):
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputFormatError):
            parse_exact(token)
    else:
        assert parse_exact(token) == expected


def test_parse_exact_hands_plain_digits_over_as_ints():
    assert type(parse_exact(" 0042 ")) is int
    assert type(parse_exact("42.0")) is Fraction


def test_delta_sign_violations_are_format_errors():
    bad = ("0\t1\t-1\n"
           "# omega=increase support_size=1 is_metric_after=false\n")
    with pytest.raises(InputFormatError):
        parse_delta_tsv(bad)


def test_graph_text_sniffing():
    edge_text = "0 1 2\n"
    matrix_text = "0,2\n2,0\n"
    assert parse_graph_text(edge_text, "auto").m == 1
    assert parse_graph_text(matrix_text, "auto").is_complete()
    assert parse_graph_text(matrix_text, "auto", filename="x.csv").n == 2
    # Commas in a comment do not count, on the first data line or a later one.
    assert parse_graph_text("0 1 2  # a, b\n1 2 3\n", "auto").m == 2
    assert parse_graph_text("# a, b\n0 1 2\n1 2 3  # c, d\n", "auto").m == 2
    with pytest.raises(ValueError):
        parse_graph_text(edge_text, "nonsense")


def test_support_file_parsing():
    assert parse_support_file("0 1\n# c\n2 3\n") == ((0, 1), (2, 3))
    with pytest.raises(InputFormatError):
        parse_support_file("0\n")


@pytest.mark.parametrize("token, accepted", [
    ("1e4300", True), ("1e-4300", True), ("1E+4300", True), ("0.5e4_300", True),
    ("1e4301", False), ("1e-4301", False), ("2.5E+4301", False), ("1e1000000", False),
    ("1e" + "0" * 5000 + "1", False),
])
def test_parse_exact_bounds_the_decimal_exponent(token, accepted):
    # Fraction would expand 10**exponent; past 4300 digits Python cannot print it.
    if accepted:
        assert parse_exact(token) == Fraction(token)
    else:
        with pytest.raises(InputFormatError):
            parse_exact(token)


def test_parsed_graph_scale_and_scaled_weights_stay_below_2_to_12000():
    assert parse_edge_list(f"0 1 {2 ** 12000 - 1}\n").integer_form()[1] == \
        {(0, 1): 2 ** 12000 - 1}
    with pytest.raises(InputFormatError):
        parse_edge_list(f"0 1 {2 ** 12000}\n")
    with pytest.raises(InputFormatError):
        parse_matrix_csv(f"0,{2 ** 12000}\n{2 ** 12000},0\n")
    with pytest.raises(InputFormatError):
        parse_edge_list("0 1 1e4000\n")  # a legal exponent, but 10^4000 > 2^12000
    # Weights 1/p on a path: the scale is the product of the primes.
    primes = first_primes(1100)
    product, k = 1, 0
    while (product * primes[k]).bit_length() <= 12000:
        product *= primes[k]
        k += 1
    under = "".join(f"{i} {i + 1} 1/{p}\n" for i, p in enumerate(primes[:k]))
    assert parse_edge_list(under).integer_form()[0] == product
    over = under + f"{k} {k + 1} 1/{primes[k]}\n"
    with pytest.raises(InputFormatError):
        parse_edge_list(over)
    # Two large coprime denominators: the scale passes the cap while every
    # scaled weight (the other denominator) stays far below it.
    assert (2 ** 5990 * 3 ** 3787).bit_length() <= 12000 < (2 ** 6001 * 3 ** 3787).bit_length()
    assert parse_edge_list(f"0 1 1/{2 ** 5990}\n1 2 1/{3 ** 3787}\n").integer_form()[0] == \
        2 ** 5990 * 3 ** 3787
    with pytest.raises(InputFormatError):
        parse_edge_list(f"0 1 1/{2 ** 6001}\n1 2 1/{3 ** 3787}\n")
    # Library graphs are not checked.
    WeightedGraph(2, [(0, 1, 2 ** 12000)])


def test_edge_list_vertex_ids_stay_below_the_cap():
    # The vertex count follows the largest id, so a two-line file could
    # otherwise ask for any number of vertices.
    g = parse_edge_list(f"0 1 1\n1 {MAX_VERTICES - 1} 1\n")
    assert (g.n, g.m) == (MAX_VERTICES, 2)
    for u, v in ((1, MAX_VERTICES), (MAX_VERTICES, 1), (0, 10 ** 4000)):
        with pytest.raises(InputFormatError, match=f"not below {MAX_VERTICES}"):
            parse_edge_list(f"0 1 1\n{u} {v} 1\n")


LONG = "9" * 100_000  # under the csv module's 131,072-character field limit
NEGATIVE = "-" + "1" * 4000  # parses: 4000 digits are under Python's int limit


@pytest.mark.parametrize("parse, text", [
    (parse_edge_list, f"0 1 1e{'0' * 200_000}1\n"),
    (parse_edge_list, f"0 1 {NEGATIVE}\n"),
    (parse_edge_list, f"0 1 2 {LONG}\n"),
    (parse_edge_list, f"0 1 x{LONG}\n"),
    (parse_edge_list, f"0 1 1/{'0' * 4000}\n"),
    (parse_matrix_csv, f"0,{NEGATIVE}\n{NEGATIVE},0\n"),
    (parse_matrix_csv, f"0,{LONG}e\n{LONG}e,0\n"),
    (parse_matrix_csv, f"0,{LONG * 2}\n{LONG * 2},0\n"),
    (parse_delta_tsv, f"0\t1\t1\n# omega={LONG}\n"),
    (parse_delta_tsv, f"{'1' * 4000}\t1\t1\n1\t{'1' * 4000}\t1\n# omega=general\n"),
    (parse_delta_tsv, f"0\t1\t{NEGATIVE}\n# omega=increase\n"),
    (parse_delta_json, json.dumps({"omega": LONG, "entries": [], "is_metric_after": True})),
    (parse_delta_json, json.dumps({"omega": "general", "is_metric_after": True, "entries": [
        {"u": int(NEGATIVE), "v": 1, "delta": "1"}]})),
], ids=["exponent", "negative", "fields", "token", "zero-den", "matrix-negative",
        "matrix-token", "matrix-field-limit", "tsv-omega", "tsv-ids", "tsv-sign",
        "json-omega", "json-pair"])
def test_error_messages_clip_echoed_input(parse, text):
    with pytest.raises(InputFormatError) as info:
        parse(text)
    assert len(str(info.value)) < 300, str(info.value)
