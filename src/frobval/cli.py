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

Exit codes: 0 success, 1 domain error, 2 parse error.  JSON mode emits one
object per command (keys sorted, schema versioned), so identical scripts
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from .classifier import classify, in_Q, least_pure_exponent
from .errors import FrobvalError, ParseError
from .exact_arith import parse_quadratic
from .function_field import FieldSpec, PowerSeries, parse_poly, parse_ratfun
from .oracle import axiom_audit, coset_count_bruteforce, smith_normal_form
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
        self.valuations = {}
        self.precision_cap = precision_cap

    def require_spec(self, line_no):
        if self.spec is None:
            raise ParseError("a `field` declaration must come first", line=line_no)
        return self.spec

    def get_valuation(self, name, line_no):
        if name not in self.valuations:
            raise ParseError(f"unknown valuation {name!r}", line=line_no)
        return self.valuations[name]


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def emit_report(report, fmt: str) -> str:
    """Serialize a ClassificationReport: stable JSON or a fixed-width table
    with one justification line per verdict."""
    obj = report.to_json_obj()
    if fmt == "json":
        return _json_line(obj)
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
    for name in (
        "f_pure",
        "f_finite",
        "frobenius_split",
        "f_pure_regular",
        "split_f_regular",
        "excellent",
    ):
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
    r"^field\s+p\s*=\s*(?P<p>\d+)"
    r"(?:\s+ground\(\s*(?P<ground>[^)]*)\))?"
    r"\s+vars\(\s*(?P<vars>[^)]+)\)\s*$"
)
_VAL_RE = re.compile(r"^valuation\s+(?P<name>\w+)\s*=\s*(?P<body>.+)$")
_CMD_RE = re.compile(r"^(?P<cmd>eval|classify|inQ|pure-along|report)\s+(?P<rest>.+)$")


def _split_names(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_weight_map(body, line_no):
    m = re.match(r"^\{(?P<inner>.*)\}$", body.strip())
    if not m:
        raise ParseError("expected { ... } weight map", line=line_no)
    inner = m.group("inner").strip()
    entries = {}
    # split on commas not inside parentheses
    depth = 0
    parts = []
    cur = ""
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    for part in parts:
        part = part.strip()
        if not part:
            continue
        if "->" in part:
            name, _, rhs = part.partition("->")
            entries[name.strip()] = ("series", rhs.strip())
        elif ":" in part:
            name, _, rhs = part.partition(":")
            entries[name.strip()] = ("weight", rhs.strip())
        else:
            entries[part] = ("bare", None)
    return entries


def _parse_lex_vector(text, line_no):
    m = re.match(r"^\(\s*(?P<inner>[-\d\s,]+)\)$", text)
    if not m:
        raise ParseError(f"expected integer vector, got {text!r}", line=line_no)
    try:
        return tuple(int(x) for x in m.group("inner").split(","))
    except ValueError:
        raise ParseError(f"bad integer vector {text!r}", line=line_no) from None


def _build_series(rhs, p, line_no):
    if rhs == "factorial_gap":
        return PowerSeries.factorial_gap(p)
    if rhs == "t":
        return PowerSeries.variable(p)
    # a polynomial in t, e.g. t^2 + t^3
    tspec = FieldSpec(p, (), ("t",))
    try:
        f = parse_poly(rhs, tspec)
    except FrobvalError as exc:
        raise ParseError(f"bad series expression {rhs!r}: {exc.message}", line=line_no) from None
    maxdeg = max((e[0] for e in f.terms), default=0)
    coeffs = [0] * (maxdeg + 1)
    for e, c in f.terms.items():
        coeffs[e[0]] = c
    return PowerSeries.from_polynomial_coeffs(p, coeffs, name=rhs)


def _parse_valuation(session, name, body, line_no):
    spec = session.require_spec(line_no)
    body = body.strip()
    if body.startswith("monomial"):
        entries = _parse_weight_map(body[len("monomial"):], line_no)
        weights = {}
        for var, (kind, rhs) in entries.items():
            if kind != "weight":
                raise ParseError(f"monomial weight needs `var: value`", line=line_no)
            weights[var] = parse_quadratic(rhs)
        return Valuation(spec, Monomial.real(weights))
    if body.startswith("lex"):
        entries = _parse_weight_map(body[len("lex"):], line_no)
        if all(kind == "bare" for kind, _ in entries.values()):
            return Valuation(spec, Monomial.standard_lex(tuple(entries)))
        weights = {}
        for var, (kind, rhs) in entries.items():
            if kind != "weight":
                raise ParseError("lex weight needs `var: (a,b,...)`", line=line_no)
            weights[var] = _parse_lex_vector(rhs, line_no)
        return Valuation(spec, Monomial(weights))
    if body.startswith("divisorial"):
        expr = body[len("divisorial"):].strip()
        g = parse_poly(expr, spec)
        return Valuation(spec, Divisorial(g))
    if body.startswith("series"):
        entries = _parse_weight_map(body[len("series"):], line_no)
        assign = {}
        for var, (kind, rhs) in entries.items():
            if kind != "series":
                raise ParseError("series assignment needs `var -> series`", line=line_no)
            assign[var] = _build_series(rhs, spec.p, line_no)
        return Valuation(spec, SeriesRestriction(assign, cap=session.precision_cap))
    raise ParseError(
        f"unknown valuation kind in {body!r}", line=line_no,
        expected=["monomial", "lex", "divisorial", "series"],
    )


def run_script(text: str, fmt="text", precision_cap=DEFAULT_SERIES_CAP):
    """Execute a DSL script.  Returns (exit_code, output_lines)."""
    session = Session(precision_cap=precision_cap)
    out = []

    def emit_obj(obj, text_line):
        out.append(_json_line(obj) if fmt == "json" else text_line)

    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _FIELD_RE.match(line)
            if m:
                if session.spec is not None:
                    raise ParseError("duplicate field declaration", line=line_no)
                session.spec = FieldSpec(
                    int(m.group("p")),
                    _split_names(m.group("ground") or ""),
                    _split_names(m.group("vars")),
                )
                continue
            m = _VAL_RE.match(line)
            if m:
                name = m.group("name")
                if name in session.valuations:
                    raise ParseError(f"duplicate valuation name {name!r}", line=line_no)
                session.valuations[name] = _parse_valuation(
                    session, name, m.group("body"), line_no
                )
                continue
            m = _CMD_RE.match(line)
            if not m:
                raise ParseError(
                    f"unrecognized statement: {line!r}", line=line_no,
                    expected=["field", "valuation", "eval", "classify", "inQ",
                              "pure-along", "report"],
                )
            cmd, rest = m.group("cmd"), m.group("rest").strip()
            if cmd in ("eval", "inQ", "pure-along"):
                parts = rest.split(None, 1)
                if len(parts) != 2:
                    raise ParseError(f"{cmd} needs a valuation name and an expression",
                                     line=line_no)
                vname, expr = parts
                v = session.get_valuation(vname, line_no)
                r = parse_ratfun(expr, session.require_spec(line_no))
                if cmd == "eval":
                    val = v.value_of(r)
                    emit_obj(
                        {"schema": 1, "op": "eval", "valuation": vname,
                         "expr": expr, "value": v.format_value(val)},
                        f"{vname}({expr}) = {v.format_value(val)}",
                    )
                elif cmd == "inQ":
                    ans = in_Q(v, r)
                    emit_obj(
                        {"schema": 1, "op": "inQ", "valuation": vname,
                         "expr": expr, "in_Q": ans},
                        f"inQ {vname} {expr}: {str(ans).lower()}",
                    )
                else:
                    exp = least_pure_exponent(v, r)
                    pure = exp is not None
                    emit_obj(
                        {"schema": 1, "op": "pure-along", "valuation": vname,
                         "expr": expr, "f_pure_along": pure,
                         "least_pure_exponent": exp},
                        f"pure-along {vname} {expr}: {str(pure).lower()}"
                        + (f" (least exponent {exp})" if exp is not None else ""),
                    )
            else:  # classify | report
                vname = rest
                v = session.get_valuation(vname, line_no)
                report = classify(v)
                if cmd == "classify":
                    out.append(emit_report(report, fmt))
                else:
                    obj = report.to_json_obj()
                    obj["op"] = "report"
                    obj["valuation"] = vname
                    obj["value_group_rank"] = v.value_group().rank
                    if fmt == "json":
                        out.append(_json_line(obj))
                    else:
                        out.append(f"valuation {vname}: {v.describe_kind()}")
                        out.append(f"value group rank: {v.value_group().rank}")
                        out.append(emit_report(report, fmt))
    except ParseError as exc:
        if fmt == "json":
            out.append(_json_line(exc.to_json_obj()))
        else:
            loc = f" (line {exc.line})" if exc.line else ""
            out.append(f"parse error{loc}: {exc.message}")
        return 2, out
    except FrobvalError as exc:
        if fmt == "json":
            out.append(_json_line(exc.to_json_obj()))
        else:
            out.append(f"error [{exc.code}]: {exc.message}")
        return 1, out
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
# selftest


def run_selftest(seed=0) -> tuple:
    """Quick oracle-backed sanity pass; returns (ok, lines)."""
    lines = []
    ok = True
    rng = random.Random(seed)

    from .ordered_groups import OrderedGroup

    for _ in range(20):
        r = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(r))
            for _ in range(rng.randint(1, 3))
        ]
        if not any(any(g) for g in gens):
            continue
        g = OrderedGroup.from_generators(gens)
        p = rng.choice([2, 3, 5])
        formula = g.index_p(p)
        brute = coset_count_bruteforce(g, p)
        if formula != brute:
            ok = False
            lines.append(f"FAIL index_p vs coset enumeration: {formula} != {brute}")
    lines.append("index_p vs coset enumeration: ok" if ok else "index_p: FAILED")

    snf_ok = True
    for _ in range(10):
        mat = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        det = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        if det == 0:
            continue
        invs = smith_normal_form(mat)
        prod = 1
        for x in invs:
            prod *= x
        if prod != abs(det):
            snf_ok = False
            lines.append(f"FAIL snf invariants {invs} vs det {det}")
    ok = ok and snf_ok
    lines.append("snf invariant product vs det: ok" if snf_ok else "snf: FAILED")

    spec = FieldSpec(3, (), ("x", "y"))
    v = Valuation(spec, Monomial({"x": (1, 0), "y": (0, 1)}, d=2))
    audit = axiom_audit(v, seed=seed + 1, trials=200)
    ok = ok and audit.passed
    lines.append(
        "valuation axiom audit (200 trials): ok" if audit.passed
        else f"axiom audit FAILED: {audit.failures[:1]}"
    )
    return ok, lines


# ---------------------------------------------------------------------------


def build_arg_parser():
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
        print(fixtures_text())
        return 0
    if args.command == "selftest":
        ok, lines = run_selftest(seed=args.seed)
        for line in lines:
            print(line)
        return 0 if ok else 1
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return 2
    code, out = run_script(text, fmt=args.format, precision_cap=args.precision_cap)
    for line in out:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
