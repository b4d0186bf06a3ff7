"""Minimal exponent of a monomial model via the V-filtration criterion.

The criterion: alpha-tilde >= p + alpha iff dy dt^p delta lies in
V_{-alpha} B_g^r, so the minimal exponent is the sup of p + alpha over the
memberships that hold, with alpha running over the jump candidates in (0,1].
A model is declared alpha-tilde = infinity exactly when it is smooth
(r = 1, a = 1); the membership sweep is still run as a consistency check,
since finitely many memberships can never certify infinity by themselves.

cor23_check's colon ideal asks one membership per locus of the box, but a
membership reads the locus only through vfilt.member_key, one class per
coordinate, so the check answers each distinct key once, in a dict that
lives for that call, and compares box-order bytes with the Gr^F psi grid
in one == (cor24_check its H^0 list); a mismatch scans the loci.

Also here: the nearby-cycle Hodge dimension tables in the left-module
convention (Gr^F_p psi sits at right-module index p - n - 1 of
Gr^F Gr^V B^r), and the vanishing/structure checks around them.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from .divisors import jump_candidates, lct_from_resolution
from .rationals import INF, Infinity, InputError, Record, VerificationError, format_rational
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _check,
    _component_member,
    grF_grV_grid,
    member_key,
)
from .weyl import MonomialModel
from . import derham


class MinExpResult(Record):
    """value: a Fraction or INF; witness: [{"p": int, "alpha": str,
    "member": bool}] in sweep order."""

    _fields = ("value", "witness")

    def __init__(self, value, witness):
        self.value, self.witness = value, witness


def minexp_monomial(model: MonomialModel, p_max=4) -> MinExpResult:
    """sup{p + alpha : dy dt^p delta in V_{-alpha}} over p <= p_max and jump
    candidates alpha in (0,1]; INF for the smooth model.  dy dt^p delta is
    the single dt-order-p term of multidegree -p a, so each membership is
    one _component_member call, as v_member would make it."""
    if p_max < 1:
        raise InputError(f"p_max must be >= 1, got {p_max}")
    levels = [Level(model, alpha) for alpha in jump_candidates(model.divisor(), 0, 1)]
    witness = []
    best = Fraction(0)
    for p in range(0, p_max + 1):
        d = tuple(-p * x for x in model.a_ext)
        for lvl in levels:
            member = _component_member(lvl, d, {p: 1})
            witness.append(
                {"p": p, "alpha": format_rational(lvl.alpha), "member": member}
            )
            if member:
                best = max(best, p + lvl.alpha)
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
    return _check(
        {"status": "PASS", "checks": []}, "lct-consistency", capped == lct,
        minexp=format_rational(value), lct=format_rational(lct),
        **{"min(minexp,1)": format_rational(capped)},
    )


def psi_hodge_dim(p_left, alpha, box: TruncationBox, model: MonomialModel) -> GradedDimTable:
    """Dimensions of Gr^F_{p_left} psi_{g,alpha}(O) per multidegree: the
    right-module table Gr^F_{p_left-n-1} Gr^V_{-alpha} relabelled."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    lvl = Level(model, alpha)
    table = GradedDimTable(p=p_left, alpha=lvl.alpha)
    for d, c in zip(box, _psi_grid(lvl, p_left, box)):
        if c:
            table.dims[d] = c
    return table


def _psi_grid(lvl: Level, p_left, box: TruncationBox):
    """Gr^F_{p_left} psi_{g,alpha} dimensions in box order."""
    return grF_grV_grid(lvl, p_left - lvl.model.n - 1, box)


def _colon_columns(deeper: Level, p, box: TruncationBox) -> list:
    """Per coordinate, the class of each x of the box in cor23_check iii):
    None off the gate x >= -p a_i, else min(x, b_i) on a divisor coordinate
    (all member_key reads there) and 0 on a free one (gate x >= 0)."""
    b, r = deeper.b, deeper.model.r
    return [
        [(min(x, b[i]) if i < r else 0) if x >= -p * a else None for x in range(lo, hi + 1)]
        for i, (lo, hi, a) in enumerate(zip(box.lo, box.hi, deeper.model.a_ext))
    ]


def _colon_grid(deeper: Level, p, box: TruncationBox, expected) -> bytes:
    """cor23_check iii)'s expected dimensions as box-order 0/1 bytes: 0 off
    the gate, else expected(d) at the class's first locus in box order (each
    coordinate's first x of its class), one call per class."""
    firsts, flat = [], [0]  # flat: the class of each point, in box order
    for column, lo in zip(_colon_columns(deeper, p, box), box.lo):
        first = {}
        for x, value in enumerate(column, lo):
            first.setdefault(value, x)
        index = {value: k for k, value in enumerate(first)}
        flat = [f * len(index) + index[value] for f in flat for value in column]
        firsts.append(first.items())
    verdicts = [
        0 if None in values else expected(d)
        for values, d in (zip(*combo) for combo in itertools.product(*firsts))
    ]
    return bytes(map(verdicts.__getitem__, flat))


def minexp_value(model: MonomialModel):
    return minexp_monomial(model).value


def cor23_check(model: MonomialModel, p, alpha, box: TruncationBox, value=None):
    """Vanishing and structure of Gr^F psi at a non-integral shift:
    i) alpha-tilde >= p forces Gr^F_i psi_alpha = 0 for i <= p;
    ii) under alpha-tilde >= p+alpha, vanishing of Gr^F_{p+1} psi_alpha is
        equivalent to alpha-tilde > p+alpha;
    iii) Gr^F_{p+1} psi_alpha is O/J for the monomial ideal
        J = {h : h dy dt^p delta in V_{< -alpha}}, compared basiswise.
    `value` is the model's minimal exponent when the caller already has it
    (minexp_value(model)); None computes it.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0,1), got {alpha}")
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    if value is None:
        value = minexp_value(model)
    report = {"status": "PASS", "checks": []}
    lvl = Level(model, alpha)
    if value >= p:
        for i in range(1, p + 1):
            _check(
                report, "grF-psi-vanishing", not any(_psi_grid(lvl, i, box)),
                i=i, alpha=format_rational(alpha),
            )
    else:
        _check(report, "grF-psi-vanishing", vacuous=True, note="minexp < p")

    if value >= p + alpha:
        psi = _psi_grid(lvl, p + 1, box)
        vanishes, strictly = not any(psi), value > p + alpha
        _check(
            report, "grF-psi-jump-detection", vanishes == strictly,
            p=p, alpha=format_rational(alpha), vanishes=vanishes, strict=strictly,
        )

        # Gr^F_{p+1} psi ~= O/J, J the V_{<-alpha} colon ideal of dy dt^p delta:
        # h = y^(d + p a) sits at multidegree d, as the dt-order-p term
        # (answered once per member_key of the deeper level, in this call)
        deeper = lvl.deeper
        low = tuple(-p * x for x in model.a_ext)
        member = {}

        def expected(d):
            key = member_key(deeper, d)
            held = member.get(key)
            if held is None:
                held = member[key] = key is not None and _component_member(deeper, d, {p: 1})
            return 0 if held else 1

        locus = None
        if _colon_grid(deeper, p, box, expected) != psi:
            for d, got in zip(box, psi):
                want = expected(d) if all(map(operator.ge, d, low)) else 0
                if got != want:
                    locus = {"degree": list(d), "expected": want, "got": got}
                    break
        _check(
            report, "grF-psi-colon-ideal", locus is None,
            p=p, alpha=format_rational(alpha), locus=locus,
        )
    else:
        _check(report, "grF-psi-jump-detection", vacuous=True, note="minexp < p + alpha")
    return report


def cor24_check(model: MonomialModel, p, alpha, box: TruncationBox, value=None):
    """Graded de Rham shape of the nearby cycles when alpha-tilde >= p:
    the complexes at levels <= p vanish, the level-(p+1) complex is
    concentrated in degree 0, and its H^0 is the omega-twist of
    Gr^F_{p+1} psi (a literal table translation by (1,...,1)).  `value` as
    in cor23_check."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise InputError(f"alpha must be in (0,1), got {alpha}")
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    if value is None:
        value = minexp_value(model)
    if not value >= p:
        raise InputError(
            f"cor24_check requires minexp >= p; got {format_rational(value)} < {p}"
        )
    report = {"status": "PASS", "checks": []}

    # i) all terms of the level-<=p de Rham complexes vanish
    lvl = Level(model, alpha)
    ok = not any(any(_psi_grid(lvl, j, box)) for j in range(1, p + 1))
    _check(report, "gr-derham-vanishing", ok, p=p, alpha=format_rational(alpha))

    # ii) concentration in degree 0 at level p+1
    tab = derham.gr_dr_psi(model, alpha, p, box)
    off = {k: v for k, v in tab.dims.items() if k[1] != 0}
    _check(
        report, "gr-derham-concentration", not off, p=p, alpha=format_rational(alpha),
        offenders={str(k): v for k, v in sorted(off.items())} or None,
    )

    # iii) H^0 == omega (x) Gr^F_{p+1} psi, i.e. the psi table shifted by 1s
    omega_box = TruncationBox(tuple(x - 1 for x in box.lo), tuple(x - 1 for x in box.hi))
    psi, locus = _psi_grid(lvl, p + 1, omega_box), None
    if off or tab.box_list(box) != list(psi):
        for d, want in zip(box, psi):
            if tab.get((d, 0)) != want:
                locus = {"degree": list(d), "H0": tab.get((d, 0)), "omega_twist_psi": want}
                break
    return _check(
        report, "gr-derham-H0", locus is None, p=p, alpha=format_rational(alpha), locus=locus
    )
