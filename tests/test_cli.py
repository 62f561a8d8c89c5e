import importlib.util
import json
import os
import pathlib
import random
import re
import string
import subprocess
import sys
import time

import pytest

from frobval import cli
from frobval.classifier import TriVerdict
from frobval.cli import (
    FIXTURE_SCRIPTS,
    build_arg_parser,
    fixtures_text,
    main,
    run_script,
)
from frobval.oracle import run_selftest

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _load_compare_outputs():
    """scripts/compare_outputs.py, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the failing scripts, by name; scripts/compare_outputs.py runs them too
ERROR_SCRIPTS = _load_compare_outputs().ERROR_SCRIPTS

_ATOM_EXPECTED = ('{"details": {"expected": "identifier, integer, \'(\'", "line": "3", '
                  '"position": "2"}, "error": "PARSE_ERROR", "message": "expected identifier '
                  "or integer or '(', got ")
_ATOM_TEXT = "parse error (line 3): expected identifier or integer or '(', got "

# by the name of each of ERROR_SCRIPTS: its exit code, the one JSON line and
# the one text line it prints; the offending tokens of the parse errors
# escape as JSON strings must, the astral one as a surrogate pair
ERROR_LINES = {
    "unrecognized": (2, '{"details": {"expected": "field, valuation, eval, classify, inQ, '
                        'pure-along, report", "line": "2", "position": "0"}, "error": '
                        '"PARSE_ERROR", "message": "unrecognized statement: \'nonsense\'", '
                        '"schema": 1}',
                     "parse error (line 2): unrecognized statement: 'nonsense'"),
    "e-acute": (2, _ATOM_EXPECTED + "'\\u00e9'\", \"schema\": 1}", _ATOM_TEXT + "'é'"),
    "quote": (2, _ATOM_EXPECTED + "'\\\"'\", \"schema\": 1}", _ATOM_TEXT + "'\"'"),
    "backslash": (2, _ATOM_EXPECTED + "'\\\\\\\\'\", \"schema\": 1}", _ATOM_TEXT + "'\\\\'"),
    "snowman": (2, _ATOM_EXPECTED + "'\\u2603'\", \"schema\": 1}", _ATOM_TEXT + "'☃'"),
    "astral": (2, _ATOM_EXPECTED + "'\\ud835\\udd3d'\", \"schema\": 1}", _ATOM_TEXT + "'𝔽'"),
    "unknown-valuation": (2, '{"details": {"line": "3", "position": "5"}, "error": '
                             '"PARSE_ERROR", "message": "unknown valuation \'w\'", "schema": 1}',
                          "parse error (line 3): unknown valuation 'w'"),
    "zero-denominator": (1, '{"error": "ZERO_DENOMINATOR", "message": "zero denominator", '
                            '"schema": 1}',
                         "error [ZERO_DENOMINATOR]: zero denominator"),
    "reducible-divisor": (1, '{"error": "REDUCIBLE_DIVISOR", "message": "divisorial polynomial '
                             'x^2 + 2*x + 1 is reducible: it shares the factor x + 1 with its '
                             'derivative", "schema": 1}',
                          "error [REDUCIBLE_DIVISOR]: divisorial polynomial x^2 + 2*x + 1 is "
                          "reducible: it shares the factor x + 1 with its derivative"),
    "ord-undetermined": (1, '{"error": "ORD_UNDETERMINED", "message": "series order unresolved '
                            'below the precision cap (65536); every term has order at least '
                            '70000", "schema": 1}',
                         "error [ORD_UNDETERMINED]: series order unresolved below the "
                         "precision cap (65536); every term has order at least 70000"),
    "p-too-large": (1, '{"error": "P_TOO_LARGE", "message": "p must be at most 1000000000, '
                       'got 1000000000039", "schema": 1}',
                    "error [P_TOO_LARGE]: p must be at most 1000000000, got 1000000000039"),
    # flat texts that only the token reader rejects
    "two-literals": (2, '{"details": {"expected": "end of input", "line": "3", "position": '
                        '"2"}, "error": "PARSE_ERROR", "message": "expected end of input, got '
                        '\'3\'", "schema": 1}',
                     "parse error (line 3): expected end of input, got '3'"),
    "trailing-caret": (2, '{"details": {"expected": "integer", "line": "3", "position": "4"}, '
                          '"error": "PARSE_ERROR", "message": "expected integer, got end of '
                          'input", "schema": 1}',
                       "parse error (line 3): expected integer, got end of input"),
    "arabic-digit": (2, _ATOM_EXPECTED + "'\\u0663'\", \"schema\": 1}", _ATOM_TEXT + "'\u0663'"),
    "second-slash": (2, '{"details": {"expected": "end of input", "line": "3", "position": '
                        '"3"}, "error": "PARSE_ERROR", "message": "expected end of input, got '
                        '\'/\'", "schema": 1}',
                     "parse error (line 3): expected end of input, got '/'"),
    "long-literal": (1, '{"error": "LITERAL_TOO_LARGE", "message": "integer literal of 1001 '
                        'digits; the limit is 1000", "schema": 1}',
                     "error [LITERAL_TOO_LARGE]: integer literal of 1001 digits; the limit "
                     "is 1000"),
    # U+001C in a statement is whitespace, so the field line runs on
    "line-separator": (2, '{"details": {"expected": "field, valuation, eval, classify, inQ, '
                          'pure-along, report", "line": "1", "position": "0"}, "error": '
                          '"PARSE_ERROR", "message": "unrecognized statement: \'field p=5 '
                          'vars(x)\\\\x1cvaluation v = lex { x }\'", "schema": 1}',
                       "parse error (line 1): unrecognized statement: 'field p=5 "
                       "vars(x)\\x1cvaluation v = lex { x }'"),
}

# declarations rejected by a constructor, each with its own error code
CONSTRUCTOR_ERRORS = [
    ("field p=4 vars(x)\n", "P_NOT_PRIME"),
    # the p < 2 branch of the primality test
    ("field p=0 vars(x)\n", "P_NOT_PRIME"),
    ("field p=1 vars(x)\n", "P_NOT_PRIME"),
    ("field p=5 vars(x,x)\n", "DUPLICATE_VARIABLE"),
    ("field p=5 vars( , )\n", "NO_MAIN_VARIABLE"),
    ("field p=5 vars(x,y)\nvaluation v = monomial { x: 1, y: -1 }\n", "NEGATIVE_WEIGHT"),
    ("field p=5 vars(y)\nvaluation v = monomial { y: sqrt(4) }\n", "BAD_RADICAND"),
    ("field p=5 vars(x,y)\nvaluation v = monomial { x: 1 }\n", "WEIGHT_VARS_MISMATCH"),
    ("field p=5 vars(x,y)\nvaluation v = lex { x: (1,0), y: (1) }\n",
     "WEIGHT_LENGTH_MISMATCH"),
    ("field p=5 vars(x,y)\nvaluation v = lex { x: (0,0), y: (1,0) }\n", "ZERO_WEIGHT"),
    ("field p=5 vars(x,y)\nvaluation v = divisorial 1\n", "CONSTANT_DIVISOR"),
    ("field p=5 ground(u) vars(x,y)\nvaluation v = divisorial (u)\n", "GROUND_DIVISOR"),
    ("field p=5 vars(x,y)\nvaluation v = series { x -> t }\n", "MISSING_ASSIGNMENT"),
    ("field p=5 vars(x,y)\nvaluation v = divisorial x^3\n", "REDUCIBLE_DIVISOR"),
    # trial division up to sqrt(p) would take about a second on each
    ("field p=10000000000037 vars(x)\n", "P_TOO_LARGE"),
    ("field p=5 vars(y)\nvaluation v = monomial { y: sqrt(10000000000037) }\n",
     "RADICAND_TOO_LARGE"),
    # integer literals beyond the reader's digit limit, wherever they stand
    (f"field p={'1' * 5000} vars(x)\n", "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(y)\nvaluation v = monomial {{ y: sqrt({'1' * 4401}) }}\n",
     "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(x,y)\nvaluation v = monomial {{ x: {'1' * 4401}, y: 1 }}\n",
     "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(x,y)\nvaluation v = lex {{ x: ({'1' * 4401}, 0), y: (0, 1) }}\n",
     "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(x,y)\nvaluation v = series {{ x -> t, y -> t^{'1' * 4401} }}\n",
     "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(x,y)\nvaluation v = lex {{ x, y }}\neval v x^{'1' * 4401}\n",
     "LITERAL_TOO_LARGE"),
    (f"field p=5 vars(x,y)\nvaluation v = lex {{ x, y }}\neval v {'1' * 4401}*x\n",
     "LITERAL_TOO_LARGE"),
    # a series polynomial is kept sparse, whatever its degree
    (f"field p=5 vars(x,y)\nvaluation v = series {{ x -> t^{'1' * 30}, y -> t^{'1' * 30} }}\n",
     "NO_ORD1_WITNESS"),
]
CONSTRUCTOR_CODES = {error for _, error in CONSTRUCTOR_ERRORS}

# statements after `field p=5 vars(x,y)`, with the exit code and either the
# JSON error code or the first text output line
DECLARATIONS = [
    ("valuation v = monomial { x 1, y: 2 }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: 2", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: 2 + }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: sqrt(2 }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: 1 } }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1 2, y: 1 }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: @ }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1, y: x }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: sqrt(2)*sqrt(2), y: 1 }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { x: 1/0, y: 1 }", 2, "PARSE_ERROR"),
    ("valuation v = monomialfoo { x: 1, y: 1 }", 2, "PARSE_ERROR"),
    ("valuation v = foo { x: 1, y: 1 }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x: (1, ), y: (0, 1) }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x: (1 0), y: (0, 1) }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x: (), y: (0, 1) }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y: (0, 1) }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x: (1, 0), y }", 2, "PARSE_ERROR"),
    ("valuation v = lex { x: (1, 0), y: (0, 1) } }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t y -> t }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t^2 + , y -> t }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t, y -> }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t, y: t }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t, y -> x }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t, y -> t/t }", 2, "PARSE_ERROR"),
    ("valuation v = series { x -> t, y -> factorial_gap + t }", 2, "PARSE_ERROR"),
    ("valuation v = divisorial (x + y", 2, "PARSE_ERROR"),
    ("valuation v = divisorial x + y )", 2, "PARSE_ERROR"),
    ("valuation v = divisorial x + @", 2, "PARSE_ERROR"),
    ("valuation v = divisorial", 2, "PARSE_ERROR"),
    ("valuation v = divisorial (x+1)^2", 1, "REDUCIBLE_DIVISOR"),
    ("valuation v = lex { x, y }\neval v x^y", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y }\neval v x/y/x", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y }\neval v (x", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y }\neval v x +", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y }\neval v x &", 2, "PARSE_ERROR"),
    ("field p=3 vars(x)", 2, "PARSE_ERROR"),
    ("valuation v = lex { x, y }\nvaluation v = lex { y, x }", 2, "PARSE_ERROR"),
    ("valuation v = monomial { }", 1, "WEIGHT_VARS_MISMATCH"),
    ("valuation v = lex { }", 1, "WEIGHT_VARS_MISMATCH"),
    ("valuation v = monomial { x: 1, x: 2 }", 1, "WEIGHT_VARS_MISMATCH"),
    ("valuation v = lex { x: (-1, 1), y: (0, 1) }", 1, "NEGATIVE_WEIGHT"),
    ("valuation v = lex { x, y }\neval v z", 1, "UNKNOWN_VARIABLE"),
    ("valuation v = monomial { x: 1,, y: 2 }\neval v x*y", 0, "v(x*y) = 3"),
    ("valuation v = monomial { x: 1, y: 3/2*sqrt(5) }\neval v x*y", 0,
     "v(x*y) = 1 + 3/2*sqrt(5)"),
    ("valuation v = monomial { x: 1, y: - 1 + sqrt(2) }\neval v y", 0,
     "v(y) = -1 + sqrt(2)"),
    ("valuation v = lex { x, y, }\neval v x", 0, "v(x) = (1, 0)"),
    ("valuation v = lex { y, x }\neval v x", 0, "v(x) = (0, 1)"),
    ("valuation v = lex { x, y }\neval v x^2^2", 0, "v(x^2^2) = (4, 0)"),
    ("valuation v = lex { x, y }\neval v -x^2", 0, "v(-x^2) = (2, 0)"),
    ("valuation v = series { x -> t, y -> t^2  +t^3 }\nreport v", 0,
     "valuation v: series { x -> t, y -> t^2  +t^3 }"),
    # every radicand read is checked, even under a zero coefficient, and
    # only the radicands of nonzero sqrt parts must agree
    ("valuation v = monomial { x: 1 + 0*sqrt(4), y: 1 }", 1, "BAD_RADICAND"),
    ("valuation v = monomial { x: 0*sqrt(3) + 1, y: sqrt(2) }\neval v x*y", 0,
     "v(x*y) = 1 + sqrt(2)"),
]

# whole scripts with a name that is not an identifier, a literal with
# digits outside 0-9, a valuation kind that is not one whole word, or a
# statement-level error: an unknown valuation, a valuation before the field
# line, a command without its expression, an unrecognized statement
PARSE_ERRORS = [
    "field p=5 vars(x y)\n",
    "field p=5 vars(x', y)\n",
    "field p=\u0663 vars(x)\n",
    "field p=5 vars(x)\nvaluation v = lex { x }\neval v x^\u0663\n",
    "field p=5 vars(x)\nvaluation 3 = lex { x }\neval 3 x^2\n",
    "field p=5 vars(x)\nvaluation v\u0663 = lex { x }\n",
    "field p=5 vars(x)\nvaluation v = divisorialx\n",
    "field p=5 vars(x)\nvaluation v = lex { x }\neval w x\n",
    "valuation v = lex { x }\nfield p=5 vars(x)\n",
    "field p=5 vars(x)\nvaluation v = lex { x }\neval v\n",
    "field p=5 vars(x, y)\nvaluation v-w = lex { x, y }\n",
]


@pytest.fixture
def expansions(monkeypatch):
    """Every series expansion a valuation asks for, as (str(f), precision),
    recorded through the name ``valuations`` calls."""
    import frobval.valuations as valuations

    calls = []
    expand = valuations.eval_poly_as_series
    monkeypatch.setattr(valuations, "eval_poly_as_series",
                        lambda f, assign, n: calls.append((str(f), n)) or expand(f, assign, n))
    return calls


class TestDslParsing:
    def test_monomial_eval(self):
        code, out = run_script(
            "field p=5 vars(x,y)\n"
            "valuation v = monomial { x: 1, y: sqrt(2) }\n"
            "eval v x^2*y^3\n"
        )
        assert code == 0
        assert out == ["v(x^2*y^3) = 2 + 3*sqrt(2)"]

    def test_lex_explicit_weights(self):
        code, out = run_script(
            "field p=3 vars(x,y)\n"
            "valuation v = lex { x: (1, 1), y: (0, 2) }\n"
            "eval v x*y\n"
        )
        assert code == 0
        assert out == ["v(x*y) = (1, 3)"]

    def test_divisorial(self):
        code, out = run_script(
            "field p=5 vars(x,y)\n"
            "valuation v = divisorial x + y\n"
            "eval v (x+y)^2*x\n"
        )
        assert code == 0
        assert out == ["v((x+y)^2*x) = 2"]

    def test_series_polynomial_assignment(self):
        code, out = run_script(
            "field p=2 vars(x,y)\n"
            "valuation v = series { x -> t, y -> t^2 + t^3 }\n"
            "eval v y\n"
        )
        assert code == 0
        assert out == ["v(y) = 2"]

    def test_ground_vars(self):
        code, out = run_script(
            "field p=3 ground(u) vars(x,y)\n"
            "valuation v = lex { x, y }\n"
            "eval v u*x\n"
        )
        assert code == 0
        assert out == ["v(u*x) = (1, 0)"]

    def test_ground_content_is_divided_out(self):
        # (u+1)*x + (u+1) is the unit u+1 of k = F_5(u) times x + 1, and
        # u*x + u is u times x + 1: both define the valuation of x + 1
        for g in ("(u+1)*x + (u+1)", "u*x + u"):
            code, out = run_script(
                "field p=5 ground(u) vars(x)\n"
                f"valuation v = divisorial {g}\n"
                "eval v x+1\n"
                "eval v (u^2+1)*(x+1)^3/u\n"
                "report v\n"
            )
            assert code == 0, out
            assert out[:3] == ["v(x+1) = 1", "v((u^2+1)*(x+1)^3/u) = 3",
                               "valuation v: divisorial (x + 1)"]

    def test_ground_content_of_two_ground_variables_is_refused(self):
        code, out = run_script(
            "field p=5 ground(u,w) vars(x)\n"
            "valuation v = divisorial u*x + w\n"
        )
        assert code == 1
        assert out == ["error [CONTENT_UNDETERMINED]: the content of u*x + w in the "
                       "ground variables is not computed: no coefficient in the main "
                       "variables is a constant"]
        # a constant coefficient makes g primitive with no gcd to compute
        code, out = run_script(
            "field p=5 ground(u,w) vars(x,y)\n"
            "valuation v = divisorial x + u*w*y^2\n"
            "eval v x + u*w*y^2\n"
        )
        assert (code, out) == (0, ["v(x + u*w*y^2) = 1"])

    def test_ground_content_degree_is_bounded(self):
        # the gcd of the coefficients is refused above the degree limit,
        # before a coefficient list of that length is built
        from frobval.function_field import CONTENT_DEGREE_LIMIT

        script = "field p=5 ground(u) vars(x)\nvaluation v = divisorial u^{}*x + u\neval v x\n"
        assert run_script(script.format(CONTENT_DEGREE_LIMIT)) == (0, ["v(x) = 0"])
        code, out = run_script(script.format(CONTENT_DEGREE_LIMIT + 1))
        assert code == 1
        assert out[-1].startswith("error [CONTENT_UNDETERMINED]: ")
        assert out[-1].endswith(f"above the limit {CONTENT_DEGREE_LIMIT}")

    def test_comments_and_blank_lines(self):
        code, out = run_script(
            "# a comment\n\nfield p=5 vars(x)  # trailing\n"
            "valuation v = divisorial x\neval v x\n"
        )
        assert code == 0
        assert out == ["v(x) = 1"]


# the characters other than CR and LF at which str.splitlines ends a line
SPLITLINES_ONLY = {"VT": "\v", "FF": "\f", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
                   "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}
_DIVISOR = "field p=5 vars(x)\nvaluation v = divisorial (x + 1)\n"


class TestLineEnds:
    """Only CR LF, CR and LF end a line of a script, whether run_script, a
    file or stdin gives it; each of SPLITLINES_ONLY is whitespace in a
    statement and text in a comment."""

    @staticmethod
    def runs(script, tmp_path, capsys):
        """The exit code and JSON lines of `script` through run_script,
        `frobval run FILE` and `frobval run -`, which must agree."""
        got = run_script(script, fmt="json")
        path = tmp_path / "s.frob"
        path.write_bytes(script.encode())
        code = main(["--format", "json", "run", str(path)])
        assert (code, capsys.readouterr().out.split("\n")[:-1]) == got
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-m", "frobval.cli", "--format", "json", "run", "-"],
                              env=dict(os.environ, PYTHONPATH=str(src)), input=script.encode(),
                              capture_output=True, timeout=60)
        assert (done.returncode, done.stdout.decode().split("\n")[:-1]) == got
        return got

    @pytest.mark.parametrize("char", SPLITLINES_ONLY.values(), ids=list(SPLITLINES_ONLY))
    def test_a_command_after_it_in_a_comment_does_not_run(self, char, tmp_path, capsys):
        assert self.runs(f"{_DIVISOR}# old: x^2{char}eval v x^2\n", tmp_path, capsys) == (0, [])

    @pytest.mark.parametrize("char", SPLITLINES_ONLY.values(), ids=list(SPLITLINES_ONLY))
    def test_it_is_whitespace_between_tokens(self, char, tmp_path, capsys):
        # v(x + x^2) = 1 along x + 1, while v(x) = 0
        code, out = self.runs(f"{_DIVISOR}eval v x{char}+ x^2\n", tmp_path, capsys)
        assert code == 0
        assert json.loads(out[0]) == {"expr": f"x{char}+ x^2", "op": "eval", "schema": 1,
                                      "valuation": "v", "value": "1"}

    @pytest.mark.parametrize("char", SPLITLINES_ONLY.values(), ids=list(SPLITLINES_ONLY))
    def test_an_error_reports_the_line_that_grep_counts(self, char, tmp_path, capsys):
        script = f"{_DIVISOR}# a{char}b\neval v x{char}\neval w x\n"
        code, out = self.runs(script, tmp_path, capsys)
        assert code == 2
        # grep -n numbers the lines that LF ends
        line = script[:script.index("eval w")].count("\n") + 1
        assert json.loads(out[-1])["details"]["line"] == str(line) == "5"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_end_statements(self, end, tmp_path, capsys):
        for script in (FIXTURE_SCRIPTS["lex"], ERROR_SCRIPTS["unrecognized"],
                       f"{_DIVISOR}# x^2\neval v x\n"):
            assert self.runs(script.replace("\n", end), tmp_path, capsys) \
                == run_script(script, fmt="json")


class TestExitCodes:
    def test_success_is_zero(self):
        code, _ = run_script(FIXTURE_SCRIPTS["lex"])
        assert code == 0

    def test_parse_error_is_two(self):
        code, out = run_script("field p=5 vars(x)\nnonsense here\n")
        assert code == 2
        assert "parse error" in out[-1]

    def test_missing_field_is_two(self):
        code, _ = run_script("valuation v = divisorial x\n")
        assert code == 2

    def test_unknown_valuation_is_two(self):
        code, _ = run_script("field p=5 vars(x)\neval w x\n")
        assert code == 2

    def test_domain_error_is_one(self):
        # zero has no valuation: a domain error, not a parse error
        code, out = run_script(
            "field p=5 vars(x)\nvaluation v = divisorial x\neval v 0\n"
        )
        assert code == 1
        assert "error" in out[-1]

    def test_mixed_radicand_is_one(self):
        code, _ = run_script(
            "field p=5 vars(x,y)\n"
            "valuation v = monomial { x: sqrt(2), y: sqrt(3) }\n"
        )
        assert code == 1

    @pytest.mark.parametrize("script,error", CONSTRUCTOR_ERRORS,
                             ids=[error for _, error in CONSTRUCTOR_ERRORS])
    def test_constructor_errors_are_coded(self, script, error):
        start = time.perf_counter()
        code, out = run_script(script, fmt="json")
        assert time.perf_counter() - start < 0.25
        assert code == 1
        assert json.loads(out[-1])["error"] == error
        code, out = run_script(script)
        assert code == 1
        assert out[-1].startswith(f"error [{error}]: ")

    def test_radicand_checked_once_per_weight(self, monkeypatch):
        from frobval import exact_arith

        checked = []
        is_square_free = exact_arith.is_square_free
        monkeypatch.setattr(exact_arith, "is_square_free",
                            lambda d: checked.append(d) or is_square_free(d))
        script = ("field p=5 vars(x,y)\n"
                  "valuation v = monomial { x: 1, y: sqrt(999999937) }\n"
                  "eval v x*y\n")
        for tail in ("", "report v\n"):
            for fmt in ("text", "json"):
                checked.clear()
                assert run_script(script + tail, fmt=fmt)[0] == 0
                assert checked == [999999937]

    @pytest.mark.parametrize("statements,code,expected", DECLARATIONS)
    def test_declaration_behaviour(self, statements, code, expected):
        script = f"field p=5 vars(x,y)\n{statements}\n"
        got, out = run_script(script, fmt="json")
        assert got == code
        if code:
            error = json.loads(out[-1])
            assert error["error"] == expected
            if expected == "PARSE_ERROR":
                assert {"line", "position"} <= error["details"].keys()
        else:
            got, out = run_script(script)
            assert (got, out[0]) == (0, expected)

    @pytest.mark.parametrize("script", PARSE_ERRORS)
    def test_parse_errors_carry_a_position(self, script):
        code, out = run_script(script, fmt="json")
        assert code == 2
        error = json.loads(out[-1])
        assert error["error"] == "PARSE_ERROR"
        assert {"line", "position"} <= error["details"].keys()

    @pytest.mark.parametrize("script,line,position", [
        ("field p=5 vars(x)\nvaluation v = lex { x }\neval w x\n", 3, 5),
        ("field p=5 vars(x)\nvaluation v = lex { x }\nreport  w\n", 3, 8),
        ("valuation v = lex { x }\nfield p=5 vars(x)\n", 1, 0),
        ("field p=5 vars(x)\nvaluation v = lex { x }\neval v\n", 3, 6),
        ("field p=5 vars(x, y)\nvaluation v-w = lex { x, y }\n", 2, 11),
        ("field p=5 vars(x)\nnonsense here\n", 2, 0),
    ])
    def test_statement_errors_point_into_their_line(self, script, line, position):
        # the name of an unknown valuation, the start of a statement that
        # cannot come here or is not recognized, the end of a command that
        # lacks its expression, the first token that breaks a valuation name
        details = json.loads(run_script(script, fmt="json")[1][-1])["details"]
        assert (details["line"], details["position"]) == (str(line), str(position))

    @pytest.mark.parametrize("name", ERROR_SCRIPTS)
    def test_json_error_objects(self, name):
        # each line byte for byte, and as json.dumps would write it
        code, line, _ = ERROR_LINES[name]
        got, out = run_script(ERROR_SCRIPTS[name], fmt="json")
        assert (got, out) == (code, [line])
        assert json.dumps(json.loads(line), sort_keys=True, separators=(", ", ": ")) == line
        obj = json.loads(out[-1])
        assert obj["schema"] == 1
        assert obj["error"]

    @pytest.mark.parametrize("name", ERROR_SCRIPTS)
    def test_text_error_lines(self, name):
        code, _, line = ERROR_LINES[name]
        assert run_script(ERROR_SCRIPTS[name]) == (code, [line])


class TestJsonMode:
    @pytest.mark.parametrize("name", sorted(FIXTURE_SCRIPTS))
    def test_byte_identical_across_runs(self, name):
        script = FIXTURE_SCRIPTS[name]
        first = run_script(script, fmt="json")
        second = run_script(script, fmt="json")
        assert first == second
        code, out = first
        assert code == 0
        assert "\n".join(out) == "\n".join(second[1])

    @pytest.mark.parametrize("name", sorted(FIXTURE_SCRIPTS))
    def test_every_line_is_json_with_schema(self, name):
        _, out = run_script(FIXTURE_SCRIPTS[name], fmt="json")
        for line in out:
            obj = json.loads(line)
            assert obj["schema"] == 1
            # keys are emitted sorted, so re-serialization is the identity
            assert json.dumps(obj, sort_keys=True, separators=(", ", ": ")) == line

    def test_classify_payload(self):
        _, out = run_script(FIXTURE_SCRIPTS["irrational-monomial"], fmt="json")
        obj = json.loads(out[-1])
        assert obj["e"] == 25 and obj["f"] == 1
        assert obj["f_finite"]["value"] == "NO"

    def test_report_command_includes_rank(self):
        code, out = run_script(
            "field p=3 vars(x,y)\nvaluation v = lex { x, y }\nreport v\n",
            fmt="json",
        )
        assert code == 0
        obj = json.loads(out[0])
        assert obj["op"] == "report" and obj["value_group_rank"] == 2


def golden_script(name):
    """A fixture script, or a script kept next to its goldens."""
    if name in FIXTURE_SCRIPTS:
        return FIXTURE_SCRIPTS[name]
    return (GOLDEN_DIR / f"{name}.frob").read_text()


# the fixture scripts and every script kept next to its goldens
GOLDEN_NAMES = sorted(FIXTURE_SCRIPTS) + sorted(p.stem for p in GOLDEN_DIR.glob("*.frob"))


class TestGoldens:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_text_output_matches_golden(self, name):
        code, out = run_script(golden_script(name), fmt="text")
        assert code == 0
        golden = (GOLDEN_DIR / f"{name}.txt").read_text()
        assert "\n".join(out) + "\n" == golden

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_json_output_matches_golden(self, name):
        code, out = run_script(golden_script(name), fmt="json")
        assert code == 0
        golden = (GOLDEN_DIR / f"{name}.json").read_text()
        assert "\n".join(out) + "\n" == golden

    def test_json_object_is_built_only_in_json_mode(self, monkeypatch):
        calls = []
        report_fields = cli._report_fields

        def counted(report):
            calls.append(report.kind)
            return report_fields(report)

        monkeypatch.setattr(cli, "_report_fields", counted)
        code, _ = run_script(FIXTURE_SCRIPTS["lex"] + "report v2\n", fmt="text")
        assert code == 0 and calls == []
        # one set of fields per valuation of the golden script, each
        # classified or reported once
        code, out = run_script(golden_script("weight-matrix"), fmt="json")
        assert code == 0 and len(calls) == 4
        assert "\n".join(out) + "\n" == (GOLDEN_DIR / "weight-matrix.json").read_text()

    def test_verdict_memo_stays_bounded(self):
        # every golden, the fixtures and one round of each workload: the
        # memo holds verdicts only, at most the 17 that classify can build
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        scripts = [golden_script(name) for name in GOLDEN_NAMES]
        scripts += [s.text for w in workloads.WORKLOADS for s in next(workloads.rounds(w, 0))]
        for text in scripts:
            assert run_script(text, fmt="json")[0] == 0
        assert cli._VERDICT_JSON
        assert all(type(k) is TriVerdict for k in cli._VERDICT_JSON)
        assert len(cli._VERDICT_JSON) <= 17

    def test_echoed_whitespace_is_escaped(self):
        # the reader takes a tab and \x1f for spaces; the echoed expression
        # keeps them, and JSON escapes them as \t and \u001f
        head = "field p=3 vars(x,y)\nvaluation v = lex { x, y }\n"
        cmds = [
            ("inQ v x\t*\x1fy", {"op": "inQ", "expr": "x\t*\x1fy", "in_Q": True}),
            ("inQ v y\t+\x1f1", {"op": "inQ", "expr": "y\t+\x1f1", "in_Q": False}),
            ("pure-along v x*\x1fy", {"op": "pure-along", "expr": "x*\x1fy",
                                       "f_pure_along": False, "least_pure_exponent": None}),
            ("pure-along v y^\t4", {"op": "pure-along", "expr": "y^\t4",
                                    "f_pure_along": True, "least_pure_exponent": 2}),
            ("eval v x\t/\x1fy", {"op": "eval", "expr": "x\t/\x1fy", "value": "(1, -1)"}),
        ]
        code, out = run_script(head + "\n".join(cmd for cmd, _ in cmds) + "\n", fmt="json")
        assert code == 0
        assert out == [json.dumps({"schema": 1, "valuation": "v", **obj}, sort_keys=True,
                                  separators=(", ", ": ")) for _, obj in cmds]
        assert all("\\t" in line or "\\u001f" in line for line in out)


class TestFuzzing:
    def test_grammar_fuzz_never_crashes(self):
        rng = random.Random(79)
        primes = ["p=3", "p=5", "p=4", "p=10000000000037"]
        var_lists = ["vars(x,y)", "vars(x)", "vars(x,x)"]
        kinds = ["monomial", "lex", "divisorial", "series"]
        tokens = primes + var_lists + [
            "field", "ground(u)",
            "valuation", "v", "=", *kinds,
            "{", "}", "x:", "1", "sqrt(2)", "sqrt(4)", "-1", "->", "t", ",",
            "eval", "classify", "inQ", "pure-along", "report", "x^2", "x^3",
            "x*y", "(", ")", "0", "@", "&&", "1" * 5000,
        ]
        alphabet = string.ascii_letters + string.digits + "{}()^*+-/:,= "
        domain_errors = set()
        for _ in range(1000):
            draw = rng.random()
            if draw < 0.5:
                lines = [
                    " ".join(rng.choices(tokens, k=rng.randint(1, 8)))
                    for _ in range(rng.randint(1, 4))
                ]
                if draw < 0.25:
                    # a well-formed field line and a valuation head, so that
                    # the constructors see the tokens
                    ground = rng.choice(["", " ground(u)"])
                    lines[0] = (f"field {rng.choice(primes)}{ground} "
                                f"{rng.choice(var_lists)}")
                    lines.insert(1, f"valuation v = {rng.choice(kinds)} "
                                    + " ".join(rng.choices(tokens, k=rng.randint(1, 3))))
                text = "\n".join(lines)
            else:
                text = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
            fmt = rng.choice(["text", "json"])
            code, out = run_script(text, fmt=fmt)
            assert code in (0, 1, 2)
            assert isinstance(out, list)
            if code == 1:
                last = out[-1]
                domain_errors.add(
                    json.loads(last)["error"] if fmt == "json"
                    else last[last.index("[") + 1:last.index("]")]
                )
        assert domain_errors & CONSTRUCTOR_CODES


class TestEntryPoints:
    def test_fixtures_command(self, capsys):
        assert main(["fixtures"]) == 0
        printed = capsys.readouterr().out
        for name in FIXTURE_SCRIPTS:
            assert f"# fixture: {name}" in printed
        assert printed.strip().startswith("# fixture:")
        assert fixtures_text() in printed

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        printed = capsys.readouterr().out
        assert "ok" in printed
        assert "reader vs per-atom reference (40 expressions): ok" in printed
        assert "series orders vs dense re-expansion (60 evaluations): ok" in printed
        assert "multiplicities vs unit-by-unit division (60 evaluations): ok" in printed

    def test_selftest_in_json_is_one_object_per_line(self, capsys, monkeypatch):
        assert main(["selftest"]) == 0
        text = capsys.readouterr().out.splitlines()
        assert main(["--format", "json", "selftest"]) == 0
        objs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert objs == [{"schema": 1, "op": "selftest", "line": line} for line in text] + [
            {"schema": 1, "op": "selftest", "ok": True}]
        import frobval.oracle as oracle

        monkeypatch.setattr(oracle, "run_selftest", lambda seed: (False, ["snf: FAILED"]))
        assert main(["--format", "json", "selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            '{"line": "snf: FAILED", "op": "selftest", "schema": 1}',
            '{"ok": false, "op": "selftest", "schema": 1}']

    def test_run_from_file(self, tmp_path, capsys):
        script = tmp_path / "s.frob"
        script.write_text(FIXTURE_SCRIPTS["lex"])
        assert main(["--format", "json", "run", str(script)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line)["schema"] == 1 for line in lines)

    def test_missing_file_is_two(self, capsys):
        assert main(["run", "/no/such/file.frob"]) == 2

    def test_file_that_is_not_utf8_is_two(self, tmp_path, capsys):
        script = tmp_path / "s.frob"
        script.write_bytes(b"field p=5 vars(x)\n\xff\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err.startswith("cannot read script: ")

    @pytest.mark.parametrize("script", [
        b"field p=5 vars(x)\n\xff\n",
        # the one byte that is not UTF-8 stands in a comment of a valid script
        b"field p=5 vars(x) # caf\xe9\nvaluation v = lex { x }\neval v x\n",
    ], ids=["statement", "comment"])
    @pytest.mark.parametrize("encoding", [None, "utf-8:strict"], ids=["default", "strict"])
    def test_stdin_that_is_not_utf8_is_two(self, encoding, script):
        # whatever stdin's own decoder, a script from stdin is read as strict
        # UTF-8, as one from a file is
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        done = subprocess.run([sys.executable, "-m", "frobval.cli", "run", "-"], env=env,
                              input=script, capture_output=True, timeout=60)
        assert done.returncode == 2
        assert b"Traceback" not in done.stderr
        assert done.stderr.startswith(b"cannot read script: ")

    def test_file_with_a_byte_order_mark_runs(self, tmp_path, capsys):
        script = tmp_path / "s.frob"
        script.write_bytes(b"\xef\xbb\xbf" + FIXTURE_SCRIPTS["lex"].encode())
        assert main(["run", str(script)]) == 0
        want = "".join(line + "\n" for line in run_script(FIXTURE_SCRIPTS["lex"])[1])
        assert capsys.readouterr().out == want

    def test_stdin_with_a_byte_order_mark_runs(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = FIXTURE_SCRIPTS["lex"].encode()
        outs = [subprocess.run([sys.executable, "-m", "frobval.cli", "run", "-"], env=env,
                               input=text, capture_output=True, timeout=60)
                for text in (script, b"\xef\xbb\xbf" + script, b"\xef\xbb\xbf" + b"\xff\n")]
        assert [done.returncode for done in outs] == [0, 0, 2]
        assert outs[0].stdout == outs[1].stdout and outs[1].stderr == b""
        assert outs[2].stderr.startswith(b"cannot read script: ")

    def test_stdin_with_crlf_line_ends_runs(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = FIXTURE_SCRIPTS["lex"].encode()
        outs = [subprocess.run([sys.executable, "-m", "frobval.cli", "run", "-"], env=env,
                               input=text, capture_output=True, timeout=60)
                for text in (script, script.replace(b"\n", b"\r\n"))]
        assert [done.returncode for done in outs] == [0, 0]
        want = "".join(line + "\n" for line in run_script(FIXTURE_SCRIPTS["lex"])[1])
        assert outs[0].stdout == outs[1].stdout == want.encode()

    def test_closed_pipe_is_one(self, tmp_path):
        # the reader takes 10 bytes of about 300 kB of output, more than a pipe
        # holds, and closes the pipe
        script = tmp_path / "s.frob"
        script.write_text("field p=5 vars(x,y)\nvaluation v = lex { x, y }\n"
                          + "eval v x\n" * 20_000)
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        with subprocess.Popen([sys.executable, "-m", "frobval.cli", "run", str(script)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr

    def test_defaults(self):
        args = build_arg_parser().parse_args(["run", "-"])
        assert args.format == "text"
        assert args.precision_cap == 65536
        assert args.seed == 0

    def test_precision_cap_flag(self):
        # an algebraic relation resolves to a domain error bounded by the cap
        script = (
            "field p=2 vars(x,y)\n"
            "valuation v = series { x -> t, y -> t }\n"
            "eval v y-x\n"
        )
        code, out = run_script(script, precision_cap=64)
        assert code == 1
        assert out[-1].startswith("error [ORD_UNDETERMINED]: ")
        assert "(64)" in out[-1]
        assert out[-1].endswith("the assignment may satisfy an algebraic relation")
        code, out = run_script(script)
        assert out == [
            "error [ORD_UNDETERMINED]: series order unresolved below the precision "
            "cap (65536); the assignment may satisfy an algebraic relation"
        ]

    @pytest.mark.parametrize("cap", [64, 65536])
    def test_term_orders_above_the_cap_name_their_bound(self, cap, monkeypatch):
        # every term of x^100000000 has order 10^8 under x -> t, so the
        # order is refused before any series is expanded
        import frobval.valuations as valuations

        def no_expansion(*args):
            raise AssertionError("series expanded")

        monkeypatch.setattr(valuations, "eval_poly_as_series", no_expansion)
        script = (
            "field p=2 vars(x)\n"
            "valuation v = series { x -> t }\n"
            "eval v x^100000000\n"
        )
        code, out = run_script(script, precision_cap=cap)
        assert (code, out) == (1, [
            "error [ORD_UNDETERMINED]: series order unresolved below the precision "
            f"cap ({cap}); every term has order at least 100000000"
        ])

    def test_term_order_bound_uses_every_series_order(self):
        # y -> t^3 + t^5: the least term order of x^40*y^30 + y^50 is
        # min(40 + 90, 150) = 130, above a cap of 129 and not of 130
        script = (
            "field p=3 vars(x,y)\n"
            "valuation v = series { x -> t, y -> t^3 + t^5 }\n"
            "eval v x^40*y^30 + y^50\n"
        )
        code, out = run_script(script, precision_cap=129)
        assert code == 1 and out[-1].endswith("every term has order at least 130")
        assert run_script(script, precision_cap=130) == (0, ["v(x^40*y^30 + y^50) = 130"])

    @pytest.mark.parametrize("cap,text,out", [
        # y - x = t^5: the cap binds below the first precision round, 16
        (3, "y - x", "error [ORD_UNDETERMINED]: series order unresolved below the precision "
                     "cap (3); the assignment may satisfy an algebraic relation"),
        (5, "y - x", "v(y - x) = 5"),
        (3, "x^3*y", "error [ORD_UNDETERMINED]: series order unresolved below the precision "
                     "cap (3); every term has order at least 4"),
        (4, "x^3*y", "v(x^3*y) = 4"),
        (0, "1 + x", "v(1 + x) = 0"),
        (0, "x", "error [ORD_UNDETERMINED]: series order unresolved below the precision "
                 "cap (0); every term has order at least 1"),
        (-1, "1 + x", "error [ORD_UNDETERMINED]: series order unresolved below the precision "
                      "cap (-1); every term has order at least 0"),
    ])
    def test_precision_cap_below_the_first_round(self, cap, text, out, expansions):
        script = ("field p=3 vars(x,y)\n"
                  "valuation v = series { x -> t, y -> t + t^5 }\n"
                  f"eval v {text}\n")
        assert run_script(script, precision_cap=cap) == (int(out.startswith("error")), [out])
        assert all(n <= cap for _, n in expansions)

    def test_precision_cap_bounds_no_memory(self):
        # a series value is kept as its nonzero coefficients, so an
        # unresolved order costs no memory in proportion to the cap
        import tracemalloc

        script = (
            "field p=2 vars(x,y)\n"
            "valuation v = series { x -> t, y -> t }\n"
            "eval v y-x\n"
        )
        tracemalloc.start()
        try:
            code, out = run_script(script, precision_cap=2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out[-1].startswith("error [ORD_UNDETERMINED]: ")
        assert "(4194304)" in out[-1]
        assert peak < 2**20

    def test_series_field_built_once_per_session(self, monkeypatch):
        # the field F_p(t) of the series is built, and p checked, once for
        # all series declarations, not once for each
        import frobval.function_field as ff

        calls = []
        is_prime = ff.is_prime

        def counted(p):
            calls.append(p)
            return is_prime(p)

        monkeypatch.setattr(ff, "is_prime", counted)
        code, out = run_script(
            "field p=999999937 vars(x,y)\n"
            "valuation a = series { x -> t, y -> factorial_gap }\n"
            "valuation b = series { x -> t, y -> t^2 + t^3 }\n"
            "valuation c = series { x -> t + t^2, y -> t }\n"
            "eval c y-x\n"
        )
        assert (code, out) == (0, ["c(y-x) = 2"])
        assert calls == [999999937, 999999937]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_eval_formats_its_value_once(self, fmt, monkeypatch):
        from frobval.valuations import Valuation

        calls = []
        format_value = Valuation.format_value

        def counted(self, value):
            calls.append(value)
            return format_value(self, value)

        monkeypatch.setattr(Valuation, "format_value", counted)
        script = (
            "field p=5 vars(x,y)\n"
            "valuation a = monomial { x: 1, y: sqrt(2) }\n"
            "valuation b = lex { x, y }\n"
            "valuation c = divisorial (x + y)\n"
            "valuation d = series { x -> t, y -> factorial_gap }\n"
            "eval a x^2*y^3\n"
            "eval b x/y\n"
            "eval c (x + y)^3\n"
            "eval d y-x\n"
            "inQ b x\n"
            "pure-along b y\n"
        )
        code, out = run_script(script, fmt=fmt)
        assert code == 0 and len(out) == 6
        assert calls == [(2, 3), (1, -1), (3,), (2,)]

    def test_selftest_deterministic(self):
        assert run_selftest(seed=3) == run_selftest(seed=3)

    def test_running_scripts_loads_no_cross_check(self):
        # the oracle is compiled on import, which a script run should not
        # pay for
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys\n"
            "from frobval.cli import FIXTURE_SCRIPTS, run_script\n"
            "for text in FIXTURE_SCRIPTS.values():\n"
            "    for fmt in ('text', 'json'):\n"
            "        assert run_script(text, fmt=fmt)[0] == 0\n"
            "print('frobval.oracle' in sys.modules)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_import_loads_neither_argparse_nor_the_oracle(self):
        # importing the CLI for run_script loads only what a script needs:
        # not argparse (only `main` parses arguments), not the oracle, not
        # dataclasses (which loads inspect), and json only for JSON output.
        # The interpreter's start-up may load modules of its own, so the
        # probe names only those loaded after it.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import frobval.cli\n"
            "def loaded(*names):\n"
            "    return sorted(m for m in names if m in sys.modules and m not in before)\n"
            "print(loaded('argparse', 'dataclasses', 'inspect', 'json', 'frobval.oracle'))\n"
            "for text in frobval.cli.FIXTURE_SCRIPTS.values():\n"
            "    assert frobval.cli.run_script(text, fmt='text')[0] == 0\n"
            "print(loaded('json'))\n"
        )
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["[]", "[]"]

    def test_run_fixtures_script_from_a_plain_checkout(self, tmp_path):
        # the demo script finds the package in src/ by itself
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_fixtures.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        headers = [line for line in done.stdout.splitlines() if line.startswith("===")]
        assert headers == [f"=== {name} ===" for name in FIXTURE_SCRIPTS]
        assert len(headers) == 3


class TestSplittingPrimeCommands:
    def test_one_evaluation_per_command(self, monkeypatch):
        from frobval.valuations import Valuation

        calls = []
        value_of = Valuation.value_of

        def counted(self, r):
            calls.append(r)
            return value_of(self, r)

        monkeypatch.setattr(Valuation, "value_of", counted)
        head = "\n".join(FIXTURE_SCRIPTS["series-restriction"].splitlines()[:2])
        for cmd, line in [
            ("pure-along v3 y*x^40", "pure-along v3 y*x^40: true (least exponent 6)"),
            ("inQ v3 y*x^40", "inQ v3 y*x^40: false"),
        ]:
            calls.clear()
            code, out = run_script(f"{head}\n{cmd}\n")
            assert (code, out) == (0, [line])
            assert len(calls) == 1


# (field line, valuation declarations, expression texts), for the session tests
SESSION_FIELDS = [
    ("field p=3 ground(u) vars(x,y)",
     ["valuation a = lex { x, y }", "valuation b = divisorial (x + u*y)",
      "valuation c = monomial { x: 1, y: sqrt(2) }", "valuation d = monomial { x: 1, y: 2 }"],
     ["x", "y^3", "u*x^2*y", "x^4/y", "(x + u*y)^3*x", "y^9 - x^9", "x/(u + 1)", "1"]),
    ("field p=2 vars(x,y)",
     ["valuation s = series { x -> t, y -> factorial_gap }",
      "valuation l = lex { x: (0, 1), y: (1, 0) }", "valuation g = divisorial (x + y^2)"],
     ["x", "y - x", "y - x - x^2", "x^4*y", "(x + y^2)^2/y", "x^2/(y^3 + x)"]),
]


def respaced(rng, text):
    """`text` with a random run of spaces, possibly none, between its tokens."""
    tokens = [t for t in re.split(r"\s+|([-+*/^()])", text) if t]
    return "".join(t + " " * rng.choice([0, 0, 1, 2]) for t in tokens[:-1]) + tokens[-1]


def session_script(seed):
    """Declarations, and commands that repeat inQ, pure-along and eval on one
    expression text, in both orders and with differently spaced copies, on
    one valuation (even seeds) or two, interleaved (odd seeds)."""
    rng = random.Random(seed)
    field, valuations, exprs = rng.choice(SESSION_FIELDS)
    decls = [field, *rng.sample(valuations, 1 + seed % 2)]
    names = [d.split()[1] for d in decls[1:]]
    cmds = []
    for text in rng.sample(exprs, 2):
        first, second = rng.sample(["inQ", "pure-along"], 2)
        for cmd in (first, "eval", second, first, second, "eval"):
            for name in names:
                cmds.append(f"{cmd} {name} {rng.choice([text, respaced(rng, text)])}")
    return decls, cmds


class TestSessionSharesPureExponents:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("seed", range(8))
    def test_each_line_is_the_line_of_the_command_alone(self, seed, fmt):
        decls, cmds = session_script(seed)
        head = "\n".join(decls) + "\n"
        code, out = run_script(head + "\n".join(cmds) + "\n", fmt=fmt)
        assert code == 0 and len(out) == len(cmds)
        for cmd, line in zip(cmds, out):
            assert run_script(head + cmd + "\n", fmt=fmt) == (0, [line])

    def test_second_command_neither_reads_nor_values(self, monkeypatch):
        import frobval.cli as cli

        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("parse_ratfun", "least_pure_exponent"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        code, out = run_script(
            "field p=5 vars(x,y)\nvaluation v = divisorial (x + y)\n"
            "valuation w = lex { x, y }\n"
            "pure-along v (x + y)^5\ninQ v (x + y)^5\ninQ v (x + y) ^ 5\n"
            "inQ w (x + y)^5\npure-along v (x + y)^5\n")
        assert (code, out) == (0, [
            "pure-along v (x + y)^5: true (least exponent 2)", "inQ v (x + y)^5: false",
            "inQ v (x + y) ^ 5: false", "inQ w (x + y)^5: false",
            "pure-along v (x + y)^5: true (least exponent 2)"])
        # one computation per (valuation, text): v twice, w once
        assert calls == ["parse_ratfun", "least_pure_exponent"] * 3

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("cmds", [
        ["pure-along v x", "inQ v x/(y-y)", "inQ v x/(y-y)", "pure-along v x/(y-y)"],
        ["pure-along v x/(y-y)", "inQ v x/(y-y)"],
    ])
    def test_a_repeated_expression_that_raises(self, cmds, fmt):
        head = "field p=5 vars(x,y)\nvaluation v = lex { x, y }\n"
        code, out = run_script(head + "\n".join(cmds) + "\n", fmt=fmt)
        alone = run_script(head + "inQ v x/(y-y)\n", fmt=fmt)
        assert alone[0] == code == 1
        assert out[-1] == alone[1][0]
        assert len(out) == 1 + (cmds[0] == "pure-along v x")
        if fmt == "json":
            assert json.loads(out[-1])["error"] == "ZERO_DENOMINATOR"
        else:
            assert out[-1] == "error [ZERO_DENOMINATOR]: zero denominator"

    def test_a_failed_computation_stores_nothing(self):
        from frobval.cli import Session
        from frobval.errors import FrobvalError
        from frobval.function_field import FieldSpec
        from frobval.valuations import Monomial, Valuation

        session = Session()
        session.spec = FieldSpec(5, (), ("x", "y"))
        session.valuations["v"] = Valuation(session.spec, Monomial.standard_lex(("x", "y")))
        for expr in ("x/(y-y)", "(y-y)/x", "x +"):
            with pytest.raises(FrobvalError):
                session.pure_exponent("v", expr)
        assert session.pure_exponents == {}
        assert session.pure_exponent("v", "y") == 1
        assert session.pure_exponents == {("v", "y"): 1}


class TestLargeExponents:
    """Exponents far above the interpreter's recursion limit and
    multiplicities in the hundreds; each must exit 0 with the exact value."""

    SERIES = "field p=2 vars(x,y)\nvaluation v = series { x -> t, y -> factorial_gap }\n"
    DIVISORIAL = "field p=7 vars(x,y)\nvaluation v = divisorial x + y\n"

    @pytest.mark.parametrize("head,expr,value", [
        (SERIES, "x^1500", "1500"),
        (SERIES, "y*x^1200", "1201"),
        (DIVISORIAL, "(x+y)^1000", "1000"),
        (DIVISORIAL, "(x+y)^300*(x-y)^40", "300"),
    ], ids=["series-x^1500", "series-y*x^1200", "divisorial-1000", "divisorial-300"])
    def test_exact_value(self, head, expr, value):
        code, out = run_script(head + f"eval v {expr}\n", fmt="json")
        assert code == 0
        assert json.loads(out[0])["value"] == value

    @pytest.mark.parametrize("head", [
        "field p=7 vars(x,y)\nvaluation v = monomial { x: 1, y: 1 }\n",
        DIVISORIAL,
    ], ids=["monomial", "divisorial"])
    def test_power_of_a_trinomial(self, head):
        # expanded by digits: (x+y+1)^200 = (x+y+1)^4 * ((x+y+1)^4)^49
        code, out = run_script(head + "eval v (x+y+1)^200\neval v x*(x+y+1)^200*y\n")
        assert (code, [line.rsplit(" ", 1)[1] for line in out]) == (
            0, ["0", "2" if "monomial" in head else "0"])

    def test_power_multiplications_follow_the_digits_of_the_exponent(self, monkeypatch):
        from frobval.function_field import FieldSpec, Polynomial, parse_poly

        spec = FieldSpec(7, (), ("x", "y"))
        f = parse_poly("x + y", spec)
        calls = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(
            Polynomial, "__mul__", lambda a, b: calls.append(len(b.terms)) or mul(a, b)
        )
        result = f**1000
        # 1000 = 2626 in base 7: the digit 6 costs three products by squaring
        # and the digit 2 one, and three products join the four digit factors
        assert len(calls) == 2 * (3 + 1) + 3
        # one side of every product is a digit power (x+y)^d, d < 7, so no
        # product squares a growing power
        assert max(calls) <= 7
        monkeypatch.undo()
        assert result == parse_poly("(x+y)^6*(x^7+y^7)^2*(x^49+y^49)^6*(x^343+y^343)^2", spec)

    @pytest.mark.parametrize("head,expr,value", [
        ("field p=5 vars(x,y)\nvaluation v = divisorial x + y\n", "x^100000", "0"),
        ("field p=5 vars(x,y)\nvaluation v = divisorial x + y\n", "y*x^100000", "0"),
        ("field p=5 vars(x,y)\nvaluation v = divisorial x\n", "x^7*y", "7"),
    ], ids=["binomial-g", "binomial-g-times-y", "g-is-x"])
    def test_one_term_multiplicity_divides_nothing(self, head, expr, value, monkeypatch):
        import frobval.function_field as ff

        calls = []
        divide = ff._divide_packed
        monkeypatch.setattr(ff, "_divide_packed", lambda *a: calls.append(a) or divide(*a))
        code, out = run_script(head + f"eval v {expr}\n")
        assert (code, out) == (0, [f"v({expr}) = {value}"])
        assert calls == []

    def test_power_below_p_is_the_product_of_its_halves(self, monkeypatch):
        # x^3000 below p = 999999937 is one digit: its halves 1500, 750, ...
        # take about two products a level, where one product per unit of the
        # exponent took 2,999 and kept 3,007 truncations
        import frobval.function_field as ff
        from frobval.valuations import SeriesRestriction, Valuation

        p = 999999937
        spec = ff.FieldSpec(p, (), ("x",))
        s = ff.PowerSeries.from_polynomial_coeffs(p, {1: 1, 2: 1})
        v = Valuation(spec, SeriesRestriction({"x": s}))
        calls = []
        mul = ff._sparse_mul
        monkeypatch.setattr(ff, "_sparse_mul", lambda *a: calls.append(a) or mul(*a))
        # x^3000 is its own monomial content: its value expands no power
        assert v.value_of_poly(ff.parse_poly("x^3000", spec)) == (3000,)
        assert calls == []
        # (t + t^2)^3000 = t^3000 + 3000*t^3001 + ...
        assert s.power(3000, 3001) == {3000: 1}
        assert len(calls) <= 24
        assert len(s._power_memo) <= 30

    # a denominator 1 is a unit of k and is not valued
    @pytest.mark.parametrize("head,expr,value,expected", [
        # a one-term numerator or denominator is its own monomial content
        ("field p=999999937 vars(x)\nvaluation v = series { x -> t + t^2 }\n",
         "x^60000", "60000", []),
        (SERIES, "x^5*y^2/(x*y)", "5", []),
        # its initial form cancels, as y - x = t^2 + ... over F_2, and
        # 9 + 12 = 21 > 16: one round, at 32, on the cofactor of order 6,
        # where a whole expansion takes two, at 16 and 32
        (SERIES, "x^9*y^12*(y - x - x^2)", "27", [("x^2 + x + y", 11)]),
        # the coefficient of t^b in f(s), b the least term order, is the sum
        # over the terms of order b of c*prod(l_v^e_v): x^9*y^12 is the one
        # term of order 21, so v(f) is 21 and nothing is expanded
        (SERIES, "x^9*y^12*(1 + x + y)", "21", []),
        # t + t = 0 over F_2: the initial form cancels, and the first round,
        # at 16, finds t^2 from y = t + t^2 + t^6 + ...
        (SERIES, "x + y", "2", [("x + y", 16)]),
    ], ids=["x^60000", "one-term-quotient", "gap-cofactor", "one-least-term",
            "cancels-at-p=2"])
    def test_monomial_content_is_valued_in_closed_form(self, head, expr, value, expected,
                                                       expansions):
        assert run_script(head + f"eval v {expr}\n") == (0, [f"v({expr}) = {value}"])
        assert expansions == expected

    def test_large_powers_with_one_least_term_multiply_no_truncation(self, monkeypatch):
        # x^3000 and y^3000 both have order 3000 with leading coefficient 1,
        # and 1 + 1 != 0 mod p, so no power of t + t^2 is built
        import frobval.function_field as ff

        calls = []
        mul = ff._sparse_mul
        monkeypatch.setattr(ff, "_sparse_mul", lambda *a: calls.append(a) or mul(*a))
        code, out = run_script("field p=999999937 vars(x,y)\n"
                               "valuation v = series { x -> t + t^2, y -> factorial_gap }\n"
                               "eval v x^3000 + y^3000\n")
        assert (code, out) == (0, ["v(x^3000 + y^3000) = 3000"])
        assert calls == []

    def test_ground_denominator_is_not_valued(self, monkeypatch):
        import frobval.valuations as valuations

        calls = []
        value = valuations.Valuation.value_of_poly
        monkeypatch.setattr(valuations.Valuation, "value_of_poly",
                            lambda v, f: calls.append(str(f)) or value(v, f))
        code, out = run_script("field p=5 ground(u) vars(x,y)\nvaluation v = divisorial x + y\n"
                               "eval v x/(u+1)\n")
        assert (code, out) == (0, ["v(x/(u+1)) = 0"])
        assert calls == ["x"]

    def test_frobenius_digits_are_a_loop(self):
        # 2^1099 has 1,100 binary digits, so a rule that recursed once per
        # digit would pass the interpreter's recursion limit
        k = 2**1099
        code, out = run_script("field p=2 vars(x)\nvaluation v = series { x -> t + t^2 }\n"
                               f"eval v x^{k}\n", precision_cap=2**1100)
        assert (code, out) == (0, [f"v(x^{k}) = {k}"])
        # x^k is its own monomial content, so the value above expands no
        # power; the power itself: (t + t^2)^(2^1099) = t^k + t^(2k) over F_2
        from frobval.function_field import PowerSeries

        s = PowerSeries.from_polynomial_coeffs(2, {1: 1, 2: 1})
        assert s.power(k, 2 * k + 1) == {k: 1, 2 * k: 1}

    def test_series_order_is_the_index_of_its_first_term(self):
        # the first term is read however far out it lies
        code, out = run_script("field p=5 vars(x,y)\n"
                               "valuation v = series { x -> t^300, y -> factorial_gap }\n"
                               "eval v x\n")
        assert (code, out) == (0, ["v(x) = 300"])
        code, out = run_script("field p=5 vars(x,y)\n"
                               "valuation v = series { x -> t^2, y -> t^2 }\n")
        assert code == 1 and out[-1].startswith("error [NO_ORD1_WITNESS]: ")

    def test_power_8000_takes_26_divisions(self, monkeypatch):
        # the quotient of (x+y)^8000 by x+y is dense; its 26 divisions
        # follow the base-5 digits of the multiplicity
        import frobval.function_field as ff

        calls = []
        divide = ff._divide_packed
        monkeypatch.setattr(ff, "_divide_packed", lambda *a: calls.append(a) or divide(*a))
        code, out = run_script("field p=5 vars(x,y)\nvaluation v = divisorial x + y\n"
                               "eval v (x+y)^8000\n", fmt="json")
        assert code == 0
        assert json.loads(out[0])["value"] == "8000"
        assert len(calls) == 26


class TestReaderLimits:
    """Nesting is bounded by a named limit, not by the interpreter's stack."""

    HEAD = "field p=5 vars(x,y)\nvaluation v = lex { x, y }\n"

    def test_deep_parentheses_give_a_coded_error(self):
        code, out = run_script(self.HEAD + "eval v " + "(" * 300 + "x" + ")" * 300 + "\n",
                               fmt="json")
        assert code == 1
        assert json.loads(out[0])["error"] == "NESTING_TOO_DEEP"

    def test_nesting_at_the_limit_and_long_minus_runs_give_the_value(self):
        from frobval.lexer import NESTING_LIMIT

        deep = "(" * NESTING_LIMIT + "x*y" + ")" * NESTING_LIMIT
        for expr, value in [(deep, "(1, 1)"), ("-" * 1200 + "x", "(1, 0)"),
                            ("-" * 1201 + "y^2", "(0, 2)")]:
            code, out = run_script(self.HEAD + f"eval v {expr}\n", fmt="json")
            assert code == 0
            assert json.loads(out[0])["value"] == value


def _parse_error(message, line, position, expected=None):
    details = {"line": str(line), "position": str(position)}
    if expected is not None:
        details["expected"] = expected
    return {"schema": 1, "error": "PARSE_ERROR", "message": message, "details": details}


def _domain_error(code, message):
    return {"schema": 1, "error": code, "message": message}


_ANY_ATOM = "identifier, integer, '('"


class TestReaderTables:
    """The expression reader's errors and values, pinned through run_script."""

    HEAD = "field p=5 vars(x,y)\nvaluation v = lex { x, y }\n"

    @pytest.mark.parametrize("expr,code,error", [
        ("x^", 2, _parse_error("expected integer, got end of input", 3, 2, "integer")),
        ("x^y", 2, _parse_error("expected integer, got 'y'", 3, 2, "integer")),
        ("x*", 2, _parse_error(
            "expected identifier or integer or '(', got end of input", 3, 2, _ANY_ATOM)),
        ("x**y", 2, _parse_error(
            "expected identifier or integer or '(', got '*'", 3, 2, _ANY_ATOM)),
        ("x^2^", 2, _parse_error("expected integer, got end of input", 3, 4, "integer")),
        ("(x+y", 2, _parse_error("expected ')', got end of input", 3, 4, "')'")),
        ("x+*y", 2, _parse_error(
            "expected identifier or integer or '(', got '*'", 3, 2, _ANY_ATOM)),
        ("3*w", 1, _domain_error("UNKNOWN_VARIABLE", "unknown variable 'w'")),
        ("x^" + "1" * 1001, 1, _domain_error(
            "LITERAL_TOO_LARGE", "integer literal of 1001 digits; the limit is 1000")),
    ])
    def test_expression_errors(self, expr, code, error):
        got, out = run_script(self.HEAD + f"eval v {expr}\n", fmt="json")
        assert (got, json.loads(out[-1])) == (code, error)

    @pytest.mark.parametrize("body,error", [
        ("series { x -> t + s, y -> factorial_gap }",
         _parse_error("a series is a polynomial in t: unknown variable 's'", 2, 18)),
        ("series { x -> t^, y -> factorial_gap }",
         _parse_error("expected integer, got ','", 2, 16, "integer")),
    ])
    def test_series_declaration_errors(self, body, error):
        got, out = run_script(f"field p=5 vars(x,y)\nvaluation v = {body}\n", fmt="json")
        assert (got, json.loads(out[-1])) == (2, error)

    @pytest.mark.parametrize("expr,poly,value", [
        ("x^2^3*y", "x^6*y", "(6, 1)"),       # a chain of powers multiplies
        ("2^3^2*x", "4*x", "(1, 0)"),         # (2^3)^2 = 64 = 4 mod 5
        ("x*-y", "4*x*y", "(1, 1)"),          # unary minus inside a product
        ("-(-x)^3*y", "x^3*y", "(3, 1)"),
        ("0^0*x", "x", "(1, 0)"),             # 0^0 = 1
    ])
    def test_expression_values(self, expr, poly, value):
        from frobval.function_field import FieldSpec, parse_poly

        assert str(parse_poly(expr, FieldSpec(5, (), ("x", "y")))) == poly
        got, out = run_script(self.HEAD + f"eval v {expr}\n", fmt="json")
        assert (got, json.loads(out[0])["value"]) == (0, value)


class TestOneHermiteFormPerValuation:
    COMMANDS = ("classify v", "report v", "inQ v x", "pure-along v y")

    @pytest.fixture
    def calls(self, monkeypatch):
        from frobval import ordered_groups, valuations

        calls = []
        hnf_rows = ordered_groups.hnf_rows

        def counted(rows):
            calls.append(rows)
            return hnf_rows(rows)

        # both routes from valuations to the reduction: its own import, and
        # the helpers of ordered_groups (OrderedGroup.from_generators)
        monkeypatch.setattr(ordered_groups, "hnf_rows", counted)
        monkeypatch.setattr(valuations, "hnf_rows", counted)
        return calls

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_group_and_kernel_share_one_reduction(self, fmt, calls):
        script = "field p=3 vars(x,y)\n"
        for name, body in (("v", "lex { x: (1, 0, 2), y: (0, 3, -1) }"),
                           ("w", "monomial { x: 1, y: sqrt(2) }")):
            script += f"valuation {name} = {body}\n"
            script += "".join(c.replace("v", name, 1) + "\n" for c in self.COMMANDS)
        code, out = run_script(script, fmt=fmt)
        assert code == 0 and len(out) > len(self.COMMANDS)
        assert len(calls) == 2

    def test_wide_lex_body_is_reduced_once(self, calls):
        rng = random.Random(40)
        names = [f"x{i}" for i in range(40)]
        weights = ", ".join(
            f"{name}: ({rng.randint(1, 1000)}, {rng.randint(-1000, 1000)}, "
            f"{rng.randint(-1000, 1000)})" for name in names)
        script = (f"field p=5 vars({', '.join(names)})\n"
                  f"valuation v = lex {{ {weights} }}\nclassify v\n")
        code, out = run_script(script, fmt="json")
        assert code == 0 and json.loads(out[0])["t"] == 37
        assert len(calls) == 1


class TestSharedReport:
    SCRIPT = "field p=3 ground(u) vars(x,y)\nvaluation v = monomial { x: 1, y: sqrt(2) }\n"
    COMMANDS = ("classify v", "report v", "classify v")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_each_valuation_is_classified_once(self, fmt, monkeypatch):
        import frobval.cli

        calls = []
        classify = frobval.cli.classify
        monkeypatch.setattr(frobval.cli, "classify",
                            lambda v: calls.append(v) or classify(v))
        code, out = run_script(self.SCRIPT + "\n".join(self.COMMANDS) + "\n", fmt=fmt)
        assert code == 0 and len(calls) == 1
        separate = []
        for cmd in self.COMMANDS:
            code, lines = run_script(f"{self.SCRIPT}{cmd}\n", fmt=fmt)
            assert code == 0
            separate += lines
        assert out == separate
        assert len(calls) == 4

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_report_reads_kind_and_rank_from_the_report(self, fmt, monkeypatch):
        # the script's valuation is monomial, so its kind text comes from
        # Monomial.describe
        from frobval.valuations import Monomial, Valuation

        calls = []
        for owner, name in ((Monomial, "describe"), (Valuation, "value_group")):
            method = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda v, name=name, method=method:
                                calls.append(name) or method(v))

        def counts(commands):
            calls.clear()
            code, _ = run_script(self.SCRIPT + commands, fmt=fmt)
            assert code == 0
            return calls.count("describe"), calls.count("value_group")

        alone = counts("classify v\n")
        assert alone[0] == 1
        assert counts("classify v\nreport v\n") == alone


class TestKindRoundTrip:
    # the printed kind of a valuation, declared again, prints the same kind
    @pytest.mark.parametrize("field,body", [
        ("field p=3 vars(x)", "lex { x: (2) }"),
        ("field p=3 ground(u) vars(x)", "lex { x: (2) }"),
        ("field p=5 vars(x,y)", "lex { x: (1, 0), y: (3, 2) }"),
        ("field p=5 vars(x,y)", "lex { y, x }"),
        ("field p=3 vars(x)", "monomial { x: 3/2 }"),
        ("field p=5 ground(u) vars(x,y)", "monomial { x: 2/3, y: 1/2 + 1/3*sqrt(3) }"),
        ("field p=3 ground(u) vars(x)", "divisorial u*x^2 + u"),
        ("field p=2 vars(x,y)", "series { x -> 3*t^2 + t^5, y -> factorial_gap }"),
    ], ids=["lex-one", "lex-one-ground", "lex-two", "lex-bare", "monomial-rational",
            "monomial-real", "divisorial", "series"])
    def test_printed_kind_declares_the_same_kind(self, field, body):
        def kind(text):
            code, out = run_script(f"{field}\nvaluation v = {text}\nreport v\n", fmt="json")
            assert code == 0
            return json.loads(out[0])["kind"]

        printed = kind(body)
        assert kind(printed) == printed
