import re

import pytest
from hypothesis import given, settings, strategies as st

from frobval.errors import FrobvalError, ParseError
from frobval.lexer import _TOKEN, LITERAL_DIGIT_LIMIT, NESTING_LIMIT, Cursor

# the token pattern with a leading whitespace run and a capture group, which
# _TOKEN must match token for token
_SKIPPING_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z_0-9]*|->|\S)")

# ASCII and Unicode whitespace, letters and digits, and the script's operators
_LEXER_TEXT = st.text(
    st.sampled_from(
        list(" \t\n\r\f\v\x1c\x85\xa0 　")
        + list("aZ_x9éЖ²٣１\U0001d7d8")
        + list("->^*+(){},:;/#=!")
    ),
    max_size=40,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_LEXER_TEXT, st.integers(0, 5))
def test_token_pattern_matches_the_whitespace_skipping_pattern(text, start):
    start = min(start, len(text))
    assert _TOKEN.findall(text, start) == _SKIPPING_TOKEN.findall(text, start)
    assert (
        [m.span() for m in _TOKEN.finditer(text, start)]
        == [m.span(1) for m in _SKIPPING_TOKEN.finditer(text, start)]
    )


def test_tokens_skip_whitespace_and_keep_arrow():
    cur = Cursor("{ y -> t^2  +3 }")
    assert cur.tokens[:-1] == ["{", "y", "->", "t", "^", "2", "+", "3", "}"]


def test_literal_at_limit_is_read_and_one_more_digit_is_refused():
    assert Cursor("9" * LITERAL_DIGIT_LIMIT).take_int() == 10**LITERAL_DIGIT_LIMIT - 1
    with pytest.raises(FrobvalError) as exc:
        Cursor("9" * (LITERAL_DIGIT_LIMIT + 1)).take_int()
    assert exc.value.code == "LITERAL_TOO_LARGE"


def test_error_names_token_position_and_expectation():
    cur = Cursor("x: (1 0)", start=2)
    cur.expect("(")
    cur.take_int()
    with pytest.raises(ParseError) as exc:
        cur.expect(")")
    assert exc.value.details["position"] == 6
    assert exc.value.message == "expected ')', got '0'"


def test_end_of_input_is_named():
    cur = Cursor("sqrt(2 ")
    cur.expect("sqrt")
    cur.expect("(")
    cur.take_int()
    with pytest.raises(ParseError) as exc:
        cur.expect(")")
    assert exc.value.message == "expected ')', got end of input"
    assert exc.value.details["position"] == len("sqrt(2 ")


def test_source_keeps_inner_spacing():
    cur = Cursor(" t^2  +t^3 , y")
    first = cur.i
    while cur.peek() != ",":
        cur.i += 1
    assert cur.source(first) == "t^2  +t^3"


def test_open_counts_depth_to_the_limit_and_close_releases_it():
    cur = Cursor("(" * (NESTING_LIMIT + 1) + ")")
    for _ in range(NESTING_LIMIT):
        assert cur.open("(")
    assert cur.depth == NESTING_LIMIT
    assert not cur.open("[")
    with pytest.raises(FrobvalError) as exc:
        cur.open("(")
    assert exc.value.code == "NESTING_TOO_DEEP"
    cur = Cursor("()()")
    for _ in range(2):
        assert cur.open("(")
        cur.close(")")
    assert cur.depth == 0
    cur.expect_end()
