"""Frobenius classification of valuation rings of function fields over F_p.

Every invariant derives from two inputs, each computed once by ``classify``:
the value group Gamma of v and the transcendence degree t of the residue
field kappa over k = F_p(u_1..u_m).

* e(v/v^p) = [Gamma : p*Gamma] = p^s for the rational rank s of Gamma;
* f(v/v^p) = [kappa : kappa^p] = p^(t+m), since kappa is a function field
  of transcendence degree t over k and [k:k^p] = p^m;
* Abhyankar by two independent routes: s + t = n (geometric) and
  e*f = [K:K^p] (numeric), which agree;
* F-finite if and only if the valuation is divisorial (the corrected
  characterization); the original claim "Abhyankar implies F-finite" is
  false and is kept only as a regression check in the test suite;
* F-pure always; F-pure regular iff Noetherian; for DVRs, Frobenius split,
  excellent, split F-regular and F-finite are all equivalent;
* the splitting prime Q = intersection of m^[p^e], decided in closed form
  from one value: with a least positive g, c is in Q exactly when v(c) > 0
  is no multiple of g, and v(c) = k*g leaves m^[p^e] at the least e with
  k < p^e; without one, Q = m.

Every YES/NO verdict carries citation tags naming the rule that fired;
non-Noetherian non-F-finite rings get an honest UNKNOWN for Frobenius
splitting, since that case is an open question.
"""

from __future__ import annotations

from collections import namedtuple

from .function_field import RationalFunction
from .valuations import Valuation

YES, NO, UNKNOWN = "YES", "NO", "UNKNOWN"

# Citation tags (theorem id + one-line rule)
CITE_F_PURE = "Cor-3.3: a valuation ring of characteristic p is F-pure"
CITE_ERRATUM_THM1 = "Erratum-Thm-1: F-finite if and only if divisorial"
CITE_THM_431 = (
    "Thm-4.3.1-corrected: F-finite implies e(v/v^p)*f(v/v^p) = [K:K^p]"
)
CITE_INDEX_OBSTRUCTION = (
    "Erratum-Remark: a valuation ring with [Gamma:pGamma] > p cannot be F-finite"
)
CITE_FSPLIT_FROM_FFINITE = "Cor-4.1.2: an F-finite valuation ring is Frobenius split"
CITE_DVR_EQUIV = (
    "Cor-DVR-equivalence: for a DVR, Frobenius split, F-finite, excellent and "
    "split F-regular are equivalent"
)
CITE_OPEN_QUESTION = (
    "Concluding-Remarks: open whether a non-Noetherian Frobenius split "
    "valuation ring of an F-finite field exists, e.g. with value group Q"
)
CITE_FPR_NOETHERIAN = "Thm-6.5.1: F-pure regular if and only if Noetherian"
CITE_EXCELLENT = (
    "Prop-2.7.1+Cor-DVR-equivalence: excellence requires Noetherian; for these "
    "DVRs it is equivalent to F-finiteness"
)
CITE_NOT_NOETHERIAN = "rank >= 2 value group: the valuation ring is not Noetherian"
CITE_SPLIT_F_REG = (
    "Cor-6.6.3: a DVR with F-finite fraction field is split F-regular iff F-finite"
)
CITE_SPLIT_F_REG_NO = (
    "Thm-6.5.1: split F-regular implies F-pure regular implies Noetherian"
)
CITE_DIVISORIAL = "Ex-2.5: every rational-rank-one Abhyankar valuation is divisorial"


class TriVerdict(namedtuple("TriVerdict", "value reasons")):
    """A verdict YES, NO or UNKNOWN with the citation tags of the rules that
    fired; both are checked, also under ``python -O``."""

    __slots__ = ()

    def __new__(cls, value, reasons):
        if value not in (YES, NO, UNKNOWN):
            raise ValueError(f"a verdict is YES, NO or UNKNOWN, not {value!r}")
        if not reasons:
            raise ValueError("every verdict must cite at least one rule")
        return super().__new__(cls, value, reasons)


QDescription = namedtuple("QDescription", "is_zero equals_m V_mod_Q_is_DVR description")

# the six Frobenius verdicts of a report, in the order the text report prints them
VERDICTS = ("f_pure", "f_finite", "frobenius_split",
            "f_pure_regular", "split_f_regular", "excellent")


ClassificationReport = namedtuple("ClassificationReport", (
    "e f_deg K_Kp s t abhyankar_geometric abhyankar_numeric divisorial "
    "noetherian m_principal f_pure f_finite frobenius_split f_pure_regular "
    "split_f_regular excellent dim_V_mod_mp Q caveats kind"
))

# ---------------------------------------------------------------------------
# Splitting prime membership


def least_pure_exponent(v: Valuation, c: RationalFunction):
    """Least e >= 1 with c outside m^[p^e], or None when c is in Q.

    One evaluation of v(c) decides it.  With a least positive g, m^[p^e]
    holds the values >= p^e * g, so a value k*g leaves it at the least e
    with k < p^e.  Any other value is in Q when positive and outside m^[p]
    otherwise: without g, m = m^[p^e] for every e; with g, a value that is
    no multiple of g has its lex sign decided before g's leading coordinate
    (a real-embedded group with a g is cyclic), so it lies above or below
    every multiple of g at once.
    """
    group = v.value_group()
    val = v.value_of(c)
    g = group.least_positive()
    if g is not None:
        j = next(i for i, x in enumerate(g) if x)
        k = val[j] // g[j]
        if val == tuple(k * x for x in g):
            p, e = v.spec.p, 1
            while k >= p**e:
                e += 1
            return e
    return None if group.sign(val) > 0 else 1


def in_Q(v: Valuation, c: RationalFunction) -> bool:
    """Membership in the splitting prime Q = intersection of m^[p^e]."""
    return least_pure_exponent(v, c) is None


# ---------------------------------------------------------------------------
# The full classification


def classify(v: Valuation) -> ClassificationReport:
    spec = v.spec
    p = spec.p
    # every invariant below derives from these two results
    group = v.value_group()
    inv = v.residue_invariants()

    s = group.rank
    e = group.index_p(p)
    f = p ** (inv.t + spec.m)
    kkp = spec.field_p_degree()
    geometric = s + inv.t == spec.n
    numeric = e * f == kkp
    # rank-1 subgroups of R and of lex Z^r are cyclic, hence discrete
    noetherian = s == 1
    divisorial = geometric and noetherian
    m_principal = group.least_positive() is not None

    f_pure = TriVerdict(YES, (CITE_F_PURE,))

    if divisorial:
        f_finite = TriVerdict(YES, (CITE_ERRATUM_THM1, CITE_DIVISORIAL))
    else:
        reasons = [CITE_ERRATUM_THM1]
        if e * f != kkp:
            reasons.append(CITE_THM_431)
        if e > p:
            reasons.append(CITE_INDEX_OBSTRUCTION)
        f_finite = TriVerdict(NO, tuple(reasons))

    if f_finite.value == YES:
        frobenius_split = TriVerdict(YES, (CITE_FSPLIT_FROM_FFINITE,))
    elif noetherian:
        frobenius_split = TriVerdict(NO, (CITE_DVR_EQUIV,))
    else:
        frobenius_split = TriVerdict(UNKNOWN, (CITE_OPEN_QUESTION,))

    if noetherian:
        f_pure_regular = TriVerdict(YES, (CITE_FPR_NOETHERIAN,))
        excellent = TriVerdict(f_finite.value, (CITE_EXCELLENT,))
        split_f_regular = TriVerdict(f_finite.value, (CITE_SPLIT_F_REG,))
    else:
        f_pure_regular = TriVerdict(NO, (CITE_FPR_NOETHERIAN, CITE_NOT_NOETHERIAN))
        excellent = TriVerdict(NO, (CITE_EXCELLENT, CITE_NOT_NOETHERIAN))
        split_f_regular = TriVerdict(NO, (CITE_SPLIT_F_REG_NO,))

    q_is_zero = noetherian
    if q_is_zero:
        q_desc = "Q = 0: the valuation ring is a DVR, hence F-pure regular"
    elif not m_principal:
        q_desc = (
            "Q = m: the value group is dense in R, so m = m^[p^e] for all e"
        )
    else:
        q_desc = (
            "Q = elements whose value dominates every multiple of the least "
            "positive element of the value group"
        )
    q = QDescription(
        is_zero=q_is_zero,
        equals_m=not m_principal,
        V_mod_Q_is_DVR=m_principal,
        description=q_desc,
    )

    return ClassificationReport(
        e=e,
        f_deg=f,
        K_Kp=kkp,
        s=s,
        t=inv.t,
        abhyankar_geometric=geometric,
        abhyankar_numeric=numeric,
        divisorial=divisorial,
        noetherian=noetherian,
        m_principal=m_principal,
        f_pure=f_pure,
        f_finite=f_finite,
        frobenius_split=frobenius_split,
        f_pure_regular=f_pure_regular,
        split_f_regular=split_f_regular,
        excellent=excellent,
        dim_V_mod_mp=p * f if m_principal else f,
        Q=q,
        caveats=tuple(v.caveats),
        kind=v.kind.describe(),
    )
