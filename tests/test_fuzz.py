"""Fuzz the CLI text parsers: every input returns, or raises ValueError or
KeyError (which the CLI prints as one error line), within the deadline.

Inputs are short strings, drawn either from the parser's own tokens, huge
numbers among them, or from arbitrary text.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from weightings.cli import parse_problem_file
from weightings.expr import parse_expr

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
