"""The error codes are plain strings, so a misspelled one would pass every
import; these tests read the raise sites of the library instead."""

import ast
import pathlib

import frobval
from frobval.errors import ParseError

SOURCES = sorted(pathlib.Path(frobval.__file__).parent.glob("*.py"))

CODES = {
    "BAD_RADICAND",
    "CONSTANT_DIVISOR",
    "CONTENT_UNDETERMINED",
    "DIVISION_BY_ZERO",
    "DUPLICATE_VARIABLE",
    "GROUND_DIVISOR",
    "GROUND_VAR_IN_SERIES_CONTEXT",
    "GROUP_MISMATCH",
    "LITERAL_TOO_LARGE",
    "MISSING_ASSIGNMENT",
    "MIXED_RADICAND",
    "MIXED_REPRESENTATION",
    "NEGATIVE_WEIGHT",
    "NESTING_TOO_DEEP",
    "NO_MAIN_VARIABLE",
    "NO_ORD1_WITNESS",
    "ORD_UNDETERMINED",
    "P_NOT_PRIME",
    "P_TOO_LARGE",
    "RADICAND_TOO_LARGE",
    "RANK_TOO_LARGE",
    "REDUCIBLE_DIVISOR",
    "SPEC_MISMATCH",
    "UNKNOWN_VARIABLE",
    "UNSUPPORTED_KIND",
    "WEIGHT_LENGTH_MISMATCH",
    "WEIGHT_VARS_MISMATCH",
    "ZERO_ARGUMENT",
    "ZERO_DENOMINATOR",
    "ZERO_WEIGHT",
}


def nodes(kind):
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, kind):
                yield path.name, node


def test_every_code_is_a_literal_of_the_known_set():
    raised = set()
    for name, call in nodes(ast.Call):
        if isinstance(call.func, ast.Name) and call.func.id == "FrobvalError":
            code = call.args[0] if call.args else None
            assert isinstance(code, ast.Constant) and isinstance(code.value, str), (
                f"{name}:{call.lineno}: the code of a FrobvalError must be a string literal"
            )
            raised.add(code.value)
    assert raised == CODES
    assert len(CODES) == 30


def test_parse_error_is_the_only_subclass():
    error_types = {"FrobvalError", "ParseError"}
    subclasses = {
        (name, cls.name)
        for name, cls in nodes(ast.ClassDef)
        if any(getattr(b, "id", getattr(b, "attr", None)) in error_types for b in cls.bases)
    }
    assert subclasses == {("errors.py", "ParseError")}


def test_parse_error_carries_its_own_code():
    assert ParseError("bad", position=3).code == "PARSE_ERROR"
