"""Command line surface.

``frobval run <script>`` executes a declaration DSL:

    field p=5 ground(u) vars(x,y)
    valuation v1 = monomial { x: 1, y: sqrt(2) }
    valuation v2 = lex { x, y }
    valuation v3 = divisorial (x + y)
    valuation v4 = series { x -> t, y -> factorial_gap }
    eval v1 x^2*y
    classify v1
    inQ v2 x
    pure-along v2 y
    report v1

A script holds one statement per line, and only CR LF, CR and LF end a
line.  Statements are told apart by three head regexes.  A valuation body
and an expression are read from one token cursor of ``lexer`` by the
weight, vector, polynomial and ``{ name sep value, ... }`` readers, so an
error in them carries the offset of its token in the body or expression.
An error in a statement itself carries an offset in its line, and every
parse error also carries its script line.  A script classifies each
valuation at most once: ``classify`` and ``report`` share the session's
report.  Likewise ``inQ`` and ``pure-along`` answer from one number, the
least exponent e with c outside m^[p^e] (None for c in Q), which a script
computes once per valuation and expression text, so the second of them
neither reads nor values the expression again.

Exit codes: 0 success, 1 domain error or a closed output pipe, 2 parse error
or an unreadable script.  JSON mode emits one object per command (keys
sorted, schema versioned), so identical scripts produce byte-identical output.
Every line, errors and ``selftest`` lines too, is joined from pre-encoded
parts, strings quoted by ``json``'s own quoter, with ``json.dumps`` as the
reference encoder: each verdict is encoded once per process, each report's
fields once per session (``classify`` and ``report`` share them), and the
lines of ``eval``, ``inQ`` and ``pure-along`` are one template each, keys in
sorted order.
"""

from __future__ import annotations

import os
import re
import sys

from .classifier import VERDICTS, classify, least_pure_exponent
from .errors import FrobvalError, ParseError
from .exact_arith import read_quadratic
from .function_field import FieldSpec, PowerSeries, parse_ratfun, read_poly
from .lexer import Cursor
from .valuations import (
    DEFAULT_SERIES_CAP,
    Divisorial,
    Monomial,
    SeriesRestriction,
    Valuation,
)


class Session:
    def __init__(self, precision_cap=DEFAULT_SERIES_CAP):
        self.spec = None
        self.tspec = None  # F_p(t), built by the first series declaration
        self.valuations = {}
        self.reports = {}  # valuation name -> its ClassificationReport and JSON fields
        self.pure_exponents = {}  # (valuation name, expression) -> least_pure_exponent
        self.precision_cap = precision_cap

    def require_spec(self):
        if self.spec is None:
            raise ParseError("a `field` declaration must come first", position=0)
        return self.spec

    def get_valuation(self, name, position):
        if name not in self.valuations:
            raise ParseError(f"unknown valuation {name!r}", position=position)
        return self.valuations[name]

    def report(self, name, position, as_json):
        """The classification of the declared valuation `name` and, for JSON
        output, its ``_report_fields`` (else None); both computed once per
        session and shared by `classify` and `report`."""
        if name not in self.reports:
            report = classify(self.get_valuation(name, position))
            self.reports[name] = report, _report_fields(report) if as_json else None
        return self.reports[name]

    def pure_exponent(self, name, expr):
        """The least exponent e with the expression `expr` outside m^[p^e]
        under the declared valuation `name`, or None when it lies in Q;
        computed once per session and shared by `inQ` and `pure-along`.  A
        failed computation stores nothing."""
        key = (name, expr)
        if key not in self.pure_exponents:
            self.pure_exponents[key] = least_pure_exponent(
                self.valuations[name], parse_ratfun(expr, self.spec))
        return self.pure_exponents[key]


_quote = None


def _load_json():
    """Import json, on the first JSON line so that text output never does,
    and keep the string quoter of its encoder."""
    global _quote
    import json

    _quote = json.encoder.encode_basestring_ascii


_LITERALS = {True: "true", False: "false"}
# TriVerdict -> its JSON text; `classify` builds at most 17 distinct verdicts
_VERDICT_JSON = {}


def _verdict_json(verdict) -> str:
    text = _VERDICT_JSON.get(verdict)
    if text is None:
        text = _VERDICT_JSON[verdict] = _object({
            "citations": "[" + ", ".join(map(_quote, sorted(set(verdict.reasons)))) + "]",
            "value": _quote(verdict.value)})
    return text


def _report_fields(report) -> dict:
    """The JSON text of each top-level field of a report's JSON object."""
    q, lit = report.Q, _LITERALS
    return {
        "schema": "1", "kind": _quote(report.kind), "e": str(report.e),
        "f": str(report.f_deg), "K_Kp": str(report.K_Kp), "s": str(report.s),
        "t": str(report.t), "dim_V_mod_mp": str(report.dim_V_mod_mp),
        "abhyankar": f'{{"geometric": {lit[report.abhyankar_geometric]}, '
                     f'"numeric": {lit[report.abhyankar_numeric]}}}',
        "divisorial": lit[report.divisorial], "noetherian": lit[report.noetherian],
        "m_principal": lit[report.m_principal],
        "Q": f'{{"V_mod_Q_is_DVR": {lit[q.V_mod_Q_is_DVR]}, "description": '
             f'{_quote(q.description)}, "equals_m": {lit[q.equals_m]}, "is_zero": {lit[q.is_zero]}}}',
        "caveats": "[" + ", ".join(map(_quote, sorted(report.caveats))) + "]",
        **{name: _verdict_json(getattr(report, name)) for name in VERDICTS},
    }


def _object(fields) -> str:
    """A JSON object from the JSON text of each value; keys are plain names."""
    return "{" + ", ".join([f'"{k}": {fields[k]}' for k in sorted(fields)]) + "}"


def emit_report(report, fmt: str, fields=None) -> str:
    """Serialize a ClassificationReport: stable JSON from `fields`, its
    ``_report_fields``, or a fixed-width table with one justification line
    per verdict."""
    if fmt == "json":
        return _object(fields)
    lines = []
    lines.append(f"{'kind':<18} {report.kind}")
    for label, val in [
        ("e(v/v^p)", report.e),
        ("f(v/v^p)", report.f_deg),
        ("[K:K^p]", report.K_Kp),
        ("rat.rank s", report.s),
        ("trans.deg t", report.t),
        ("abhyankar", f"geometric={report.abhyankar_geometric} numeric={report.abhyankar_numeric}"),
        ("divisorial", report.divisorial),
        ("noetherian", report.noetherian),
        ("m principal", report.m_principal),
        ("dim V/m^[p]", report.dim_V_mod_mp),
    ]:
        lines.append(f"{label:<18} {val}")
    for name in VERDICTS:
        verdict = getattr(report, name)
        lines.append(f"{name:<18} {verdict.value}")
        for reason in verdict.reasons:
            lines.append(f"    {verdict.value} | {name} | {reason}")
    q = report.Q
    lines.append(
        f"{'Q':<18} is_zero={q.is_zero} equals_m={q.equals_m} "
        f"V/Q-DVR={q.V_mod_Q_is_DVR}"
    )
    lines.append(f"    {q.description}")
    if report.caveats:
        lines.append(f"{'caveats':<18} {', '.join(sorted(report.caveats))}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# DSL statement parsing


_FIELD_RE = re.compile(
    r"^field\s+p\s*=\s*(?P<p>\S+)"
    r"(?:\s+ground\(\s*(?P<ground>[^)]*)\))?"
    r"\s+vars\(\s*(?P<vars>[^)]+)\)\s*$"
)
_VAL_RE = re.compile(r"^valuation\s+(?P<name>[^\s=]+)\s*=\s*(?P<body>.+)$")
_CMD_RE = re.compile(r"^(?P<cmd>eval|classify|inQ|pure-along|report)\s+(?P<rest>.+)$")
# the characters besides CR and LF at which str.splitlines ends a line; a
# statement reads each as whitespace, and a text line echoes each as a space
_ONE_LINE = str.maketrans(dict.fromkeys("\v\f\x1c\x1d\x1e\x85\u2028\u2029", " "))


def _read_names(line, m, group):
    """The ``NAME { "," NAME }`` list in the brackets of the field line's
    `group`, read as identifiers; empty entries are skipped."""
    if m.group(group) is None:
        return ()
    cur = Cursor(line[:m.end(group)], m.start(group))
    names = []
    while cur.peek():
        if not cur.accept(","):
            names.append(cur.take_name())
            if cur.peek() not in (",", ""):
                raise cur.fail("','", "')'")
    return tuple(names)


def _read_entries(cur, sep, read_value, bare_ok=False):
    """Read ``{ NAME sep value, ... }`` up to the end of the text into a dict.
    Empty entries are skipped and a repeated name keeps its last value.  With
    `bare_ok`, a first entry without `sep` makes every entry a lone NAME,
    mapped to None."""
    cur.expect("{")
    entries = {}
    bare = None
    while not cur.accept("}"):
        if cur.accept(","):
            continue
        name = cur.take_name()
        if bare is None:
            bare = bare_ok and cur.peek() != sep
        if bare:
            entries[name] = None
        else:
            cur.expect(sep)
            entries[name] = read_value(cur)
        if cur.peek() not in (",", "}"):
            raise cur.fail("','", "'}'")
    cur.expect_end()
    return entries


def _read_vector(cur):
    """``( INT, ... )`` with optionally negated entries."""
    cur.expect("(")
    vec = []
    while True:
        sign = -1 if cur.accept("-") else 1
        vec.append(sign * cur.take_int())
        if not cur.accept(","):
            cur.expect(")")
            return tuple(vec)


def _read_series(cur, tspec):
    """A series assignment: ``factorial_gap`` or a polynomial in t, named by
    its source text."""
    if cur.accept("factorial_gap"):
        return PowerSeries.factorial_gap(tspec.p)
    first = cur.i
    try:
        f = read_poly(cur, tspec)
    except FrobvalError as exc:
        if exc.code != "UNKNOWN_VARIABLE":
            raise
        raise ParseError(f"a series is a polynomial in t: {exc.message}",
                         position=cur.position(cur.i - 1)) from None
    return PowerSeries.from_polynomial_coeffs(
        tspec.p, {e[0]: c for e, c in f.terms.items()}, name=cur.source(first))


_KINDS = ("monomial", "lex", "divisorial", "series")


def _parse_valuation(session, body):
    spec = session.require_spec()
    cur = Cursor(body)
    kind = cur.peek()
    if kind not in _KINDS:
        raise cur.fail(*_KINDS)
    cur.accept(kind)
    if kind == "monomial":
        return Valuation(Monomial.real(spec, _read_entries(cur, ":", read_quadratic)))
    if kind == "lex":
        weights = _read_entries(cur, ":", _read_vector, bare_ok=True)
        if all(w is None for w in weights.values()):
            return Valuation(Monomial.standard_lex(spec, tuple(weights)))
        return Valuation(Monomial(spec, weights))
    if kind == "divisorial":
        g = read_poly(cur, spec)
        cur.expect_end()
        return Valuation(Divisorial(g))
    tspec = session.tspec = session.tspec or FieldSpec(spec.p, (), ("t",))
    assign = _read_entries(cur, "->", lambda c: _read_series(c, tspec))
    return Valuation(SeriesRestriction(spec, assign, cap=session.precision_cap))


def run_script(text: str, fmt="text", precision_cap=DEFAULT_SERIES_CAP):
    """Execute a DSL script.  Returns (exit_code, output_lines).  A line
    ends at CR LF, CR or LF and nowhere else."""
    session = Session(precision_cap=precision_cap)
    out = []
    as_json = fmt == "json"
    if as_json and _quote is None:
        _load_json()

    try:
        for line_no, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _FIELD_RE.match(line)
            if m:
                if session.spec is not None:
                    raise ParseError("duplicate field declaration", position=0)
                cur = Cursor(line[:m.end("p")], m.start("p"))
                p = cur.take_int()
                cur.expect_end()
                session.spec = FieldSpec(p, _read_names(line, m, "ground"),
                                         _read_names(line, m, "vars"))
                continue
            m = _VAL_RE.match(line)
            if m:
                cur = Cursor(line[:m.end("name")], m.start("name"))
                name = cur.take_name()
                cur.expect_end()
                if name in session.valuations:
                    raise ParseError(f"duplicate valuation name {name!r}",
                                     position=m.start("name"))
                session.valuations[name] = _parse_valuation(session, m.group("body"))
                continue
            m = _CMD_RE.match(line)
            if not m:
                raise ParseError(
                    f"unrecognized statement: {line!r}", position=0,
                    expected=["field", "valuation", "eval", "classify", "inQ",
                              "pure-along", "report"],
                )
            cmd, rest = m.group("cmd"), m.group("rest").strip()
            if cmd in ("eval", "inQ", "pure-along"):
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise ParseError(f"{cmd} needs a valuation name and an expression",
                                     position=len(line))
                vname, expr = parts
                v = session.get_valuation(vname, m.start("rest"))
                shown = expr if as_json else expr.translate(_ONE_LINE)
                if cmd == "eval":
                    val = v.kind.format_value(v.value_of(parse_ratfun(expr, session.spec)))
                    out.append(f'{{"expr": {_quote(expr)}, "op": "eval", "schema": 1, '
                               f'"valuation": {_quote(vname)}, "value": {_quote(val)}}}'
                               if as_json else f"{vname}({shown}) = {val}")
                elif cmd == "inQ":
                    ans = _LITERALS[session.pure_exponent(vname, expr) is None]
                    out.append(f'{{"expr": {_quote(expr)}, "in_Q": {ans}, "op": "inQ", "schema": 1, '
                               f'"valuation": {_quote(vname)}}}'
                               if as_json else f"inQ {vname} {shown}: {ans}")
                else:
                    exp = session.pure_exponent(vname, expr)
                    pure = _LITERALS[exp is not None]
                    out.append(f'{{"expr": {_quote(expr)}, "f_pure_along": {pure}, '
                               f'"least_pure_exponent": {"null" if exp is None else exp}, '
                               f'"op": "pure-along", "schema": 1, "valuation": {_quote(vname)}}}'
                               if as_json else f"pure-along {vname} {shown}: {pure}" + (
                                   "" if exp is None else f" (least exponent {exp})"))
            else:  # classify | report
                vname = rest
                report, fields = session.report(vname, m.start("rest"), as_json)
                if cmd == "classify":
                    out.append(emit_report(report, fmt, fields))
                elif as_json:
                    out.append(_object({**fields, "op": '"report"', "valuation": _quote(vname),
                                        "value_group_rank": str(report.s)}))
                else:
                    out.append(f"valuation {vname}: {report.kind}")
                    out.append(f"value group rank: {report.s}")
                    out.append(emit_report(report, fmt))
    except FrobvalError as exc:
        parse = isinstance(exc, ParseError)
        exc.details["line"] = line_no
        if as_json:
            out.append(_object({
                "details": _object({k: _quote(str(v)) for k, v in exc.details.items()}),
                "error": _quote(exc.code), "message": _quote(exc.message), "schema": "1"}))
        elif parse:
            out.append(f"parse error (line {line_no}): {exc.message}")
        else:
            out.append(f"error [{exc.code}] (line {line_no}): {exc.message}")
        return (2 if parse else 1), out
    return 0, out


# ---------------------------------------------------------------------------
# Built-in fixture scripts

FIXTURE_SCRIPTS = {
    "irrational-monomial": """\
field p=5 vars(x,y)
valuation v1 = monomial { x: 1, y: sqrt(2) }
eval v1 x^2*y^3
classify v1
""",
    "lex": """\
field p=3 vars(x,y)
valuation v2 = lex { x, y }
classify v2
inQ v2 x
inQ v2 y
pure-along v2 y
""",
    "series-restriction": """\
field p=2 vars(x,y)
valuation v3 = series { x -> t, y -> factorial_gap }
eval v3 x
eval v3 y
eval v3 y-x
eval v3 y-x-x^2
classify v3
""",
}


def fixtures_text() -> str:
    chunks = []
    for name, script in FIXTURE_SCRIPTS.items():
        chunks.append(f"# fixture: {name}")
        chunks.append(script.rstrip("\n"))
        chunks.append("")
    return "\n".join(chunks)


# ---------------------------------------------------------------------------


def build_arg_parser():
    # imported here, so a script run through run_script does not load it
    import argparse

    ap = argparse.ArgumentParser(prog="frobval", description=__doc__.split("\n")[0])
    ap.add_argument("--format", choices=["text", "json"], default="text")
    ap.add_argument("--precision-cap", type=int, default=DEFAULT_SERIES_CAP)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the random checks of selftest (used by selftest only)")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a DSL script (path or - for stdin)")
    runp.add_argument("script")
    sub.add_parser("selftest", help="run the oracle-backed self tests")
    sub.add_parser("fixtures", help="print the built-in example scripts")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "fixtures":
        code, out = 0, [fixtures_text()]
    elif args.command == "selftest":
        from .oracle import run_selftest

        ok, out = run_selftest(seed=args.seed)
        if args.format == "json":
            _load_json()
            out = [f'{{"line": {_quote(line)}, "op": "selftest", "schema": 1}}' for line in out]
            out.append(f'{{"ok": {_LITERALS[ok]}, "op": "selftest", "schema": 1}}')
        code = 0 if ok else 1
    else:
        try:
            # strict UTF-8, after a byte-order mark if there is one
            if args.script == "-":
                text = sys.stdin.buffer.read().decode("utf-8-sig")
            else:
                with open(args.script, encoding="utf-8-sig", newline="") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return 2
        code, out = run_script(text, fmt=args.format, precision_cap=args.precision_cap)
    try:
        for line in out:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at devnull (see SIGPIPE in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
