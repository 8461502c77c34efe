"""Fuzz the text parsers: every input returns, or raises ValueError or
KeyError (which the CLI prints as one error line), within the deadline.

Inputs are short strings, drawn from the parser's own grammar or tokens,
huge numbers and zero denominators among them, or from arbitrary text.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from weightings.cli import _COMMANDS, parse_problem_file
from weightings.expr import parse_expr
from weightings.jets import parse_jet_point, parse_reparametrization

_EXPR_TOKENS = st.sampled_from([
    "x", "y1", "t", "0", "1", "2", "3/4", "99999999999", "+", "-", "*", "/",
    "^", "^-", "(", ")", "sin(", "cos(", "exp(", "foo(", " ", ".", "=",
])
expr_texts = st.one_of(st.lists(_EXPR_TOKENS, max_size=30).map("".join),
                       st.text(max_size=30))

_PROBLEM_LINES = st.sampled_from([
    "[weights]", "[map]", "[graph]", "[frame]", "[coords]", "[mystery]",
    "[", "]", "x = 1", "x = y", "order = 2", "vars = x, y", "x 0 = 0",
    "V1 = 1, 0", "= 1", "x", "# note", "x = 1 # note", "", "  ",
])
problem_texts = st.one_of(
    st.lists(st.one_of(_PROBLEM_LINES, st.text(max_size=12)),
             max_size=12).map("\n".join),
    st.text(max_size=60))

_JET_POINT_TOKENS = st.sampled_from([
    "x", "y", "=", ":", ",", ";", "0", "1", "2", "-", "/", ".", "_", " ",
    "e", "E", "e-", "99999999",
])
_SLOT_VALUES = st.one_of(st.sampled_from([
    "0", "-3/4", "2.5E-3", "1/0", "1e99999999", "0e-99999999", "x", "",
]), st.text(max_size=6))
_SLOTS = st.lists(st.tuples(st.sampled_from(["0", "1", "2", "-1", "99999999"]),
                            _SLOT_VALUES).map(":".join), max_size=3)
_JET_CHUNKS = st.tuples(st.sampled_from(["x", "y", ""]),
                        _SLOTS.map(",".join)).map("=".join)
jet_point_texts = st.one_of(st.lists(_JET_CHUNKS, max_size=3).map("; ".join),
                            st.lists(_JET_POINT_TOKENS, max_size=30).map("".join),
                            st.text(max_size=30))

_REPARAM_TERMS = st.tuples(
    st.sampled_from(["", "2*", "-", "3/4*", "1/0*", "99999999*", "x*"]),
    st.sampled_from(["e", "e^0", "e^3", "e^1001", "e^99999999999999999999"]),
).map("".join)
_REPARAM_TOKENS = st.sampled_from([
    "psi", "=", "e", "^", "+", "-", "*", "/", " ", "0", "1", "2", "3/4",
])
reparam_texts = st.one_of(st.lists(_REPARAM_TERMS, max_size=4).map(" + ".join),
                          st.lists(_REPARAM_TOKENS, max_size=30).map("".join),
                          st.text(max_size=30))

_GRAPH_KEYS = st.sampled_from([
    "x 0", "y 0", "x 1", "y 1", "y 2", "y 02", "y  2", "z 1", "y", "x -1",
])
_SLOT_TOKENS = st.sampled_from([
    "x.0", "x.1", "x.2", "y.1", "y.2", "z.1", "x.01", "x", "2", "1/2", "+",
    "-", "*", "/", "^", "^-1", "(", ")", "sin(", "exp(", " ", "$", ".",
])
graph_texts = st.lists(
    st.tuples(_GRAPH_KEYS, st.lists(_SLOT_TOKENS, max_size=8).map("".join))
    .map(" = ".join), max_size=4).map(
        lambda lines: "[graph]\nvars = x, y\norder = 2\n" + "\n".join(lines))

FUZZ = settings(max_examples=250, deadline=1000, database=None)


@FUZZ
@given(expr_texts)
def test_parse_expr_returns_or_raises_value_error(text):
    try:
        parse_expr(text)
    except (ValueError, KeyError):
        pass


@FUZZ
@given(problem_texts)
def test_parse_problem_file_returns_or_raises_value_error(text):
    try:
        parse_problem_file(text)
    except (ValueError, KeyError):
        pass


@FUZZ
@given(jet_point_texts)
def test_parse_jet_point_returns_or_raises_value_error(text):
    try:
        parse_jet_point(text)
    except (ValueError, KeyError):
        pass


@FUZZ
@given(reparam_texts)
def test_parse_reparametrization_returns_or_raises_value_error(text):
    try:
        parse_reparametrization(text)
    except (ValueError, KeyError):
        pass


@FUZZ
@given(graph_texts)
def test_check_q_names_slots_as_written(text):
    check_q = _COMMANDS["check-q"][0]
    try:
        out, _code, _payload = check_q({}, parse_problem_file(text))
    except (ValueError, KeyError) as err:
        out = str(err)
    assert "__L" not in out, (text, out)
