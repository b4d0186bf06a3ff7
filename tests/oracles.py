"""Reference functions several test files share.

None of them runs in a command: they restate a closed form or list one
locus at a time, so that the tests can hold the box kernels of the library
equal to them.  pytest does not collect this module (its name does not start
with test_); the test files import it from this folder.
"""

import itertools
import math
from fractions import Fraction

from minexp_lab.divisors import SncDivisor
from minexp_lab.rationals import InputError
from minexp_lab.vfilt import Level, TruncationBox, _expansion_orders, gr_class_rep, gr_label
from minexp_lab.weyl import BgElement, MonomialModel, WeylOperator


# -- elements and operators ------------------------------------------------------

def dy_delta(n) -> BgElement:
    """dy delta in n variables."""
    return BgElement(n, {((0,) * n, 0): Fraction(1)})


def one_term(n, c, v, m=0) -> BgElement:
    """The one-term element c y^v dy dt^m delta in n variables."""
    return BgElement(n, {(tuple(v), m): Fraction(c)})


def op_t(n) -> WeylOperator:
    """The operator t in n variables."""
    z = (0,) * n
    return WeylOperator(n, {(z, 1, z, 0): Fraction(1)})


def op_dt(n) -> WeylOperator:
    """The operator d_t in n variables."""
    z = (0,) * n
    return WeylOperator(n, {(z, 0, z, 1): Fraction(1)})


# -- divisor round-ups -----------------------------------------------------------

def _check_alpha(alpha):
    alpha = Fraction(alpha)
    if alpha < 0:
        raise InputError(f"alpha must be >= 0, got {alpha}")
    return alpha


def round_up(D: SncDivisor, alpha) -> SncDivisor:
    """D_alpha = ceil(alpha*D), componentwise."""
    alpha = _check_alpha(alpha)
    return SncDivisor(math.ceil(alpha * a) for a in D)


def round_gt(D: SncDivisor, alpha) -> SncDivisor:
    """D_(>alpha) = floor(alpha*D) + E; equals round_up(D, alpha+eps) for
    all small enough eps > 0."""
    alpha = _check_alpha(alpha)
    return SncDivisor(math.floor(alpha * a) + 1 for a in D)


def jump_candidates_loop(D: SncDivisor, lo, hi) -> list:
    """All values j/a_i in (lo, hi], deduplicated and ascending, one Fraction
    comparison per j: the reference for `divisors.jump_candidates`."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not 0 <= lo < hi:
        raise InputError(f"need 0 <= lo < hi, got ({lo}, {hi}]")
    out = set()
    for a in D:
        if a <= 0:
            continue
        j = math.floor(lo * a) + 1
        while Fraction(j, a) <= hi:
            c = Fraction(j, a)
            if c > lo:
                out.add(c)
            j += 1
    return sorted(out)


def next_candidate_min(D: SncDivisor, alpha) -> Fraction:
    """Smallest j/a_i strictly above alpha, in Fractions: the reference for
    `divisors.next_candidate`."""
    alpha = Fraction(alpha)
    return min(Fraction(math.floor(alpha * a) + 1, a) for a in D if a > 0)


# -- V-filtration references -----------------------------------------------------

def table_is_zero(table) -> bool:
    """Whether a dimension table stores no entry (zero entries never are)."""
    return not table


def theta_label(lvl: Level, d):
    """The unique (v, w) admissible at multidegree d for the theta-graded
    description (v_i w_i = 0 for i <= r, w_i = 0 past r), or None; the
    label vfilt.member_key reads in closed form."""
    model, b = lvl.model, lvl.b
    v = []
    w = []
    for i in range(model.n):
        rel = d[i] - b[i]
        if i < model.r:
            if rel >= 0:
                v.append(rel)
                w.append(0)
            else:
                v.append(0)
                w.append(-rel)
        else:
            if d[i] < 0:
                return None
            v.append(d[i])
            w.append(0)
    return tuple(v), tuple(w)


def count_gr_theta(lvl: Level, p, d) -> int:
    """dim Gr^F_p V_{-alpha} at d read off theta_label's description, the
    count count_gr gives in the theta-eliminated form."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return 0
    return 1 if sum(lbl[1]) <= p + lvl.model.n else 0


def count_gr(lvl: Level, p, d) -> int:
    """dim Gr^F_p V_{-alpha} at multidegree d (0 or 1) in the
    theta-eliminated form: whether vfilt.gr_label has a label there; the
    reference of vfilt.gr_count_grid."""
    return 0 if gr_label(lvl, p, d) is None else 1


def count_grF_grV(lvl: Level, p, d) -> int:
    """dim Gr^F_p Gr^V_{-alpha} at multidegree d (0 or 1), one locus at a
    time: the reference of vfilt.grF_grV_grid and grF_grV_support."""
    here = count_gr(lvl, p, d)
    if not here:
        return 0
    return here - count_gr(lvl.deeper, p, d)


def gr_label_grid(lvl: Level, p, box: TruncationBox):
    """Yield (d, u0, w), in box order, for each d in the box where the class
    of Gr^F_p V_{-alpha} exists: (v, w) = gr_label(lvl, p, d) and
    u0 = b + v, the exponent gr_class_rep expands from.  The reference
    listing of the label kernels.

    gr_label's rule, tabulated per coordinate as in gr_count_grid:
    coordinate i of 1..r-1 gives u0_i = max(d_i, b_i) and
    w_i = max(b_i - d_i, 0), a free coordinate u0_i = d_i (only d_i >= 0 is
    listed); coordinate 0 takes the remaining weight w_0 = p + n - s and
    u0_0 = d_0 + w_0.
    """
    b, n, r = lvl.b, lvl.model.n, lvl.model.r
    axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
    tables = [[(x, max(x, b[i]), max(b[i] - x, 0)) for x in axes[i]] for i in range(1, r)]
    tables += [[(x, x, 0) for x in axes[j] if x >= 0] for j in range(r, n)]
    top = p + n
    rest = []
    for cols in itertools.product(*tables):
        d, u, w = zip(*cols) if cols else ((), (), ())
        s = sum(w)
        rest.append((s, d, u, (top - s,) + w))
    for x in axes[0]:
        limit = top + min(x - b[0], 0)
        for s, d, u, w in rest:
            if s <= limit:
                yield (x,) + d, (x + w[0],) + u, w


def _element_from_orders(model, d, orders):
    a = model.a_ext
    terms = {}
    for m, c in orders.items():
        v = tuple(d[i] + m * a[i] for i in range(model.n))
        terms[(v, m)] = c
    return BgElement(model.n, terms)


def spanning_orders(lvl: Level, p, d):
    """Order dicts of the spanning expansions at (p, alpha, multidegree d),
    from theta_label's (b + v, w) at d."""
    lbl = theta_label(lvl, d)
    if lbl is None:
        return []
    v, w = lbl
    model, b = lvl.model, lvl.b
    jmax = p + model.n - sum(w)
    if jmax < 0:
        return []
    u0 = tuple(b[i] + v[i] for i in range(model.n))
    return _expansion_orders(model, u0, w, jmax)


def spanning_set(p, alpha, d, model: MonomialModel):
    """The expansions of y^b dy delta . y^v dy^w theta^j spanning the
    multidegree-d piece of F_p V_{-alpha} (triangular in top dt-order)."""
    lvl = Level(model, alpha)
    d = tuple(d)
    return [_element_from_orders(model, d, o) for o in spanning_orders(lvl, p, d)]


def gr_coordinate(orders, lvl: Level, p, d):
    """Coordinate of a multidegree-d element of F_p V_{-alpha} in the
    one-dimensional Gr^F_p Gr^V_{-alpha}; the quotient only sees the
    dt-order-(p+n) coefficient because the deeper piece vanishes whenever
    the class space is nonzero."""
    rep = gr_class_rep(lvl, p, d)
    if rep is None:
        raise InputError("graded piece is zero here")
    top = p + lvl.model.n
    return Fraction(orders.get(top, 0)) / rep[top]


# -- de Rham complexes -------------------------------------------------------------

def keys_by_tuple(complexes, i) -> dict:
    """complexes.keys(i), scattered tuple by tuple: each term (K, row) of
    the supports lands on the tuple D = d + deg K, d the row's point, kept
    when D is in a set of the box's points; the reference for the
    index-keyed scatter of `derham._LevelComplexes.keys`."""
    n = complexes.lvl.model.n
    points = set(complexes.box)
    loci = {}
    for q, subsets in enumerate(complexes.subsets):
        p = i + q - 2 * n
        rows = complexes.support(p).values()
        for _, bit, deg, wedges in subsets:
            for row in rows:
                D = tuple(x + e for x, e in zip(row[-3], deg))
                got = loci.get(D)
                if got is not None:
                    got[0] |= bit
                    got[1].append((p, row, wedges))
                elif D in points:
                    loci[D] = [bit, [(p, row, wedges)]]
    keys = {}
    for D, (mask, terms) in loci.items():
        key = [mask]
        for p, row, wedges in terms:
            for k, _, tbit, _ in wedges:
                if mask & tbit:
                    key.append(complexes.coordinate(p, row, k))
        keys[D] = tuple(key)
    return keys
