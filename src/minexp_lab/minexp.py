"""Minimal exponent of a monomial model via the V-filtration criterion.

The criterion: alpha-tilde >= p + alpha iff dy dt^p delta lies in
V_{-alpha} B_g^r, so the minimal exponent is the sup of p + alpha over the
memberships that hold, with alpha running over the jump candidates in (0,1].
A model is declared alpha-tilde = infinity exactly when it is smooth
(r = 1, a = 1); the membership sweep is still run as a consistency check,
since finitely many memberships can never certify infinity by themselves.

Also here: the nearby-cycle Hodge dimension tables in the left-module
convention (Gr^F_p psi sits at right-module index p - n - 1 of
Gr^F Gr^V B^r), and the vanishing/structure checks around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .divisors import jump_candidates, lct_from_resolution
from .rationals import INF, Infinity, InputError, VerificationError, format_rational
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _component_member,
    count_grF_grV,
    gr_dim,
    v_member,
)
from .weyl import BgElement, MonomialModel
from . import derham


@dataclass
class MinExpResult:
    value: object  # Fraction or INF
    witness: list  # [{"p": int, "alpha": str, "member": bool}], sweep order

    def to_json(self):
        return {"minexp": format_rational(self.value), "witness": self.witness}


def minexp_monomial(model: MonomialModel, p_max=4) -> MinExpResult:
    """sup{p + alpha : dy dt^p delta in V_{-alpha}} over p <= p_max and jump
    candidates alpha in (0,1]; INF for the smooth model."""
    if p_max < 1:
        raise InputError(f"p_max must be >= 1, got {p_max}")
    cands = jump_candidates(model.divisor(), 0, 1)
    witness = []
    best = Fraction(0)
    zero = (0,) * model.n
    for p in range(0, p_max + 1):
        el = BgElement(model.n, {(zero, p): Fraction(1)})
        for alpha in cands:
            member = v_member(el, alpha, model)
            witness.append(
                {"p": p, "alpha": format_rational(alpha), "member": member}
            )
            if member:
                best = max(best, p + alpha)
    if model.smooth:
        expected = {(p, Fraction(1)) for p in range(0, p_max + 1)}
        held = {
            (w["p"], Fraction(w["alpha"])) for w in witness if w["member"]
        }
        if not expected <= held:
            raise VerificationError(
                "smooth model failed a membership that must hold at alpha = 1"
            )
        return MinExpResult(INF, witness)
    return MinExpResult(best, witness)


def lct_consistency(model: MonomialModel, p_max=4):
    """min(alpha-tilde, 1) must equal the lct of the model's own divisor
    (resolution numerics a_i with k_i = 0)."""
    value = minexp_monomial(model, p_max).value
    lct = lct_from_resolution([(a, 0) for a in model.a])
    capped = Fraction(1) if isinstance(value, Infinity) else min(value, Fraction(1))
    status = "PASS" if capped == lct else "FAIL"
    return {
        "status": status,
        "checks": [
            {
                "name": "lct-consistency",
                "status": status,
                "minexp": format_rational(value),
                "min(minexp,1)": format_rational(capped),
                "lct": format_rational(lct),
            }
        ],
    }


def psi_hodge_dim(p_left, alpha, box: TruncationBox, model: MonomialModel) -> GradedDimTable:
    """Dimensions of Gr^F_{p_left} psi_{g,alpha}(O) per multidegree: the
    right-module table Gr^F_{p_left-n-1} Gr^V_{-alpha} relabelled."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    table = gr_dim(p_left - model.n - 1, alpha, box, model, mode="GrV")
    table.p = p_left
    return table


def _psi_count(lvl: Level, p_left, d):
    return count_grF_grV(lvl, p_left - lvl.model.n - 1, d)


def minexp_value(model: MonomialModel, p_max=4):
    return minexp_monomial(model, p_max).value


def cor23_check(model: MonomialModel, p, alpha, box: TruncationBox, p_max=4):
    """Vanishing and structure of Gr^F psi at a non-integral shift:
    i) alpha-tilde >= p forces Gr^F_i psi_alpha = 0 for i <= p;
    ii) under alpha-tilde >= p+alpha, vanishing of Gr^F_{p+1} psi_alpha is
        equivalent to alpha-tilde > p+alpha;
    iii) Gr^F_{p+1} psi_alpha is O/J for the monomial ideal
        J = {h : h dy dt^p delta in V_{< -alpha}}, compared basiswise.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0,1), got {alpha}")
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    value = minexp_value(model, p_max)
    report = {"status": "PASS", "checks": []}

    def add(name, ok, **info):
        report["checks"].append(
            {"name": name, "status": "PASS" if ok else "FAIL", **info}
        )
        if not ok:
            report["status"] = "FAIL"

    if value >= p:
        for i in range(1, p + 1):
            tab = psi_hodge_dim(i, alpha, box, model)
            add(
                "grF-psi-vanishing",
                tab.is_zero(),
                i=i,
                alpha=format_rational(alpha),
            )
    else:
        add("grF-psi-vanishing", True, vacuous=True, note="minexp < p")

    if value >= p + alpha:
        tab = psi_hodge_dim(p + 1, alpha, box, model)
        strictly = value > p + alpha
        add(
            "grF-psi-jump-detection",
            tab.is_zero() == strictly,
            p=p,
            alpha=format_rational(alpha),
            vanishes=tab.is_zero(),
            strict=strictly,
        )

        # Gr^F_{p+1} psi ~= O/J, J the V_{<-alpha} colon ideal of dy dt^p delta:
        # h = y^(d + p a) sits at multidegree d, as the dt-order-p term
        lvl = Level(model, alpha)
        a_ext = model.a_ext
        ok = True
        locus = None
        for d in box:
            if all(d[i] + p * a_ext[i] >= 0 for i in range(model.n)):
                expected = 0 if _component_member(lvl.deeper, d, {p: 1}) else 1
            else:
                expected = 0
            got = _psi_count(lvl, p + 1, d)
            if got != expected:
                ok = False
                locus = {"degree": list(d), "expected": expected, "got": got}
                break
        add("grF-psi-colon-ideal", ok, p=p, alpha=format_rational(alpha), locus=locus)
    else:
        add(
            "grF-psi-jump-detection",
            True,
            vacuous=True,
            note="minexp < p + alpha",
        )
    return report


def cor24_check(model: MonomialModel, p, alpha, box: TruncationBox, p_max=4):
    """Graded de Rham shape of the nearby cycles when alpha-tilde >= p:
    the complexes at levels <= p vanish, the level-(p+1) complex is
    concentrated in degree 0, and its H^0 is the omega-twist of
    Gr^F_{p+1} psi (a literal table translation by (1,...,1))."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0,1), got {alpha}")
    value = minexp_value(model, p_max)
    if not value >= p:
        raise InputError(
            f"cor24_check requires minexp >= p; got {format_rational(value)} < {p}"
        )
    report = {"status": "PASS", "checks": []}

    def add(name, ok, **info):
        report["checks"].append(
            {"name": name, "status": "PASS" if ok else "FAIL", **info}
        )
        if not ok:
            report["status"] = "FAIL"

    # i) all terms of the level-<=p de Rham complexes vanish
    ok = True
    for j in range(1, p + 1):
        if not psi_hodge_dim(j, alpha, box, model).is_zero():
            ok = False
            break
    add("gr-derham-vanishing", ok, p=p, alpha=format_rational(alpha))

    # ii) concentration in degree 0 at level p+1
    tab = derham.gr_dr_psi(model, alpha, p, box)
    off = {k: v for k, v in tab.dims.items() if k[1] != 0}
    add(
        "gr-derham-concentration",
        not off,
        p=p,
        alpha=format_rational(alpha),
        offenders={str(k): v for k, v in sorted(off.items())} or None,
    )

    # iii) H^0 == omega (x) Gr^F_{p+1} psi, i.e. the psi table shifted by 1s
    lvl = Level(model, alpha)
    ok = True
    locus = None
    for d in box:
        want = _psi_count(lvl, p + 1, tuple(x - 1 for x in d))
        got = tab.get((d, 0))
        if got != want:
            ok = False
            locus = {"degree": list(d), "H0": got, "omega_twist_psi": want}
            break
    add("gr-derham-H0", ok, p=p, alpha=format_rational(alpha), locus=locus)
    return report
