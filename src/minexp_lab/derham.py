"""Graded de Rham complexes of nearby cycles in the monomial chart, and the
relative-log-form exact sequences, with the degenerate-resolution comparison
(the resolution is the identity, so derived pushforwards are literal).

The level-(i+1-n) graded de Rham complex of psi_{g,alpha} has terms

    Omega^q (x) Gr^F_{i-n+1+q} psi     in cohomological degree q - n,

with the plain (not log) absolute forms dy_K, deg(dy_j) = e_j.  Its
differential on graded pieces is O-linear: dy_K (x) [u] goes to
sum_k (dy_k ^ dy_K) (x) [du/dy_k], the left action being the negated right
action in the B_g^r encoding.  Per multidegree every graded piece of psi is
0- or 1-dimensional with an explicit leading-coefficient coordinate, so the
matrices assemble directly from the right-action kernel _orders_dy applied
to the class representatives.

The comparison target: the multidegree-graded dimensions of
(O(-D_alpha)/O(-D_{>alpha})) (x) Omega^{n-1-i}_{rel}(log E), whose basis is
counted monomially (the window c_alpha <= v, v not >= c_{>alpha} on the
divisor coordinates, wedge symbols a_i dlog y_i of degree 0 and dy_j of
degree e_j).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rationals import InputError, exact_rank, format_rational
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _fail,
    count_grF_grV,
    gr_class_rep,
    gr_coordinate,
)
from .weyl import MonomialModel, _orders_dy


# -- relative log forms -------------------------------------------------------

def _abs_symbols(model):
    """dlog y_1..dlog y_r then dy_{r+1}..dy_n, as ("L", i) / ("D", j)."""
    return tuple(("L", i) for i in range(1, model.r + 1)) + tuple(
        ("D", j) for j in range(model.r + 1, model.n + 1)
    )


def _rel_symbols(model):
    """a_i dlog y_i for 2 <= i <= r, then dy_j for j > r."""
    return tuple(("L", i) for i in range(2, model.r + 1)) + tuple(
        ("D", j) for j in range(model.r + 1, model.n + 1)
    )


def _wedge_map(images, src_symbols, dst_symbols, q):
    """Matrix of the induced map on q-wedges given per-symbol images
    (dict src symbol -> {dst symbol: coeff}); rows are dst wedges."""
    src = list(itertools.combinations(src_symbols, q))
    dst = list(itertools.combinations(dst_symbols, q))
    dst_index = {S: k for k, S in enumerate(dst)}
    cols = []
    for S in src:
        col = {}
        choices = [list(images[s].items()) for s in S]
        for pick in itertools.product(*choices):
            syms = [p[0] for p in pick]
            if len(set(syms)) < q:
                continue
            order = sorted(range(q), key=lambda k: dst_symbols.index(syms[k]))
            sign = 1
            seen = []
            for k in range(q):
                inversions = sum(1 for kk in seen if kk > order[k])
                sign *= (-1) ** inversions
                seen.append(order[k])
            coeff = Fraction(sign)
            for _, c in pick:
                coeff *= c
            T = tuple(sorted(syms, key=dst_symbols.index))
            col[dst_index[T]] = col.get(dst_index[T], Fraction(0)) + coeff
        cols.append({k: v for k, v in col.items() if v})
    return cols, len(dst)


def relative_sequence_check(model: MonomialModel, q):
    """Exactness of  0 -> Omega^{q-1}_rel -> Omega^q(log E) -> Omega^q_rel -> 0
    in the chosen bases: the dlog(g)-wedge is injective, the projection is
    surjective, the composite vanishes, and the ranks add up."""
    if not 0 <= q <= model.n:
        raise InputError(f"need 0 <= q <= n, got q={q}")
    n, r, a = model.n, model.r, model.a
    abs_syms = _abs_symbols(model)
    rel_syms = _rel_symbols(model)

    # lift rel -> abs and wedge with dlog(g) = sum a_i dlog y_i
    lift = {}
    for s in rel_syms:
        if s[0] == "L":
            lift[s] = {("L", s[1]): Fraction(a[s[1] - 1])}
        else:
            lift[s] = {("D", s[1]): Fraction(1)}
    m_lift, _ = _wedge_map(lift, rel_syms, abs_syms, q - 1) if q >= 1 else ([], 0)
    abs_q = list(itertools.combinations(abs_syms, q))
    abs_index = {S: k for k, S in enumerate(abs_q)}
    abs_qm1 = list(itertools.combinations(abs_syms, q - 1)) if q >= 1 else []
    wedge_cols = []
    for col in m_lift:
        out = {}
        for row_idx, coeff in col.items():
            S = abs_qm1[row_idx]
            for i in range(1, r + 1):
                sym = ("L", i)
                if sym in S:
                    continue
                sign = (-1) ** sum(1 for s in S if abs_syms.index(s) < abs_syms.index(sym))
                T = tuple(sorted(S + (sym,), key=abs_syms.index))
                v = out.get(abs_index[T], Fraction(0)) + sign * a[i - 1] * coeff
                if v:
                    out[abs_index[T]] = v
                else:
                    out.pop(abs_index[T], None)
        wedge_cols.append(out)

    # projection abs -> rel (kills dlog g)
    proj = {}
    for s in abs_syms:
        if s == ("L", 1):
            proj[s] = {("L", k): Fraction(-1, a[0]) for k in range(2, r + 1)}
        elif s[0] == "L":
            proj[s] = {("L", s[1]): Fraction(1, a[s[1] - 1])}
        else:
            proj[s] = {("D", s[1]): Fraction(1)}
    m_proj, n_rel_q = _wedge_map(proj, abs_syms, rel_syms, q)

    rank_in = exact_rank(wedge_cols)
    rank_out = exact_rank(m_proj)
    n_rel_qm1 = len(list(itertools.combinations(rel_syms, q - 1))) if q >= 1 else 0
    n_abs = len(abs_q)

    # composite rel^{q-1} -> abs^q -> rel^q must vanish
    composite_zero = True
    for col in wedge_cols:
        acc = {}
        for abs_idx, coeff in col.items():
            for rel_idx, c2 in m_proj[abs_idx].items():
                v = acc.get(rel_idx, Fraction(0)) + coeff * c2
                if v:
                    acc[rel_idx] = v
                else:
                    acc.pop(rel_idx, None)
        if acc:
            composite_zero = False
            break

    ok = (
        rank_in == n_rel_qm1
        and rank_out == n_rel_q
        and composite_zero
        and rank_in + rank_out == n_abs
    )
    return {
        "status": "PASS" if ok else "FAIL",
        "checks": [
            {
                "name": "relative-sequence",
                "status": "PASS" if ok else "FAIL",
                "q": q,
                "ranks": [n_rel_qm1, n_abs, n_rel_q],
                "injective": rank_in == n_rel_qm1,
                "surjective": rank_out == n_rel_q,
                "composite_zero": composite_zero,
                "exact_middle": rank_in + rank_out == n_abs,
            }
        ],
    }


# -- quotient sheaf dimensions -------------------------------------------------

def quotient_dims(model: MonomialModel, alpha, q, relative, box: TruncationBox) -> GradedDimTable:
    """Multidegree dimensions of (O(-D_alpha)/O(-D_{>alpha})) (x) Omega^q of
    the chosen flavor (relative or absolute log forms)."""
    lvl = Level(model, alpha)
    c_lo, c_hi = lvl.twist, lvl.deeper.twist
    syms = _rel_symbols(model) if relative else _abs_symbols(model)
    table = GradedDimTable(alpha=lvl.alpha)
    for d in box:
        table.set(d, _quotient_count(model, c_lo, c_hi, syms, q, d))
    return table


def _quotient_count(model, c_lo, c_hi, syms, q, d):
    """Basis size at multidegree d of the q-forms twisted by
    O(-D_alpha)/O(-D_{>alpha}): wedges S of q symbols times y^v with
    v = d - deg S >= 0, c_lo <= v and not c_hi <= v on the divisor
    coordinates (c_lo = D_alpha, c_hi = D_{>alpha})."""
    r = model.r
    if q < 0 or q > len(syms):
        return 0
    count = 0
    for S in itertools.combinations(syms, q):
        v = list(d)
        for s in S:
            if s[0] == "D":
                v[s[1] - 1] -= 1
        if any(x < 0 for x in v):
            continue
        if any(v[i] < c_lo[i] for i in range(r)):
            continue
        if all(v[i] >= c_hi[i] for i in range(r)):
            continue
        count += 1
    return count


# -- graded de Rham of nearby cycles ------------------------------------------

def _dr_complex(lvl: Level, i, D):
    """Terms and differential matrices of the multidegree-D piece of the
    level-(i-n+1) graded de Rham complex of psi_{g,alpha}.

    Returns (bases, mats): bases[qf] is the list of form subsets K (each
    contributing the 1-dimensional graded psi class at D - deg K), mats[qf]
    the sparse columns of d: term qf -> term qf+1.
    """
    model = lvl.model
    n = model.n

    def p_right(qf):
        return i + qf - 2 * n

    bases = []
    for qf in range(n + 1):
        basis = []
        for K in itertools.combinations(range(n), qf):
            d = list(D)
            for k in K:
                d[k] -= 1
            d = tuple(d)
            if count_grF_grV(lvl, p_right(qf), d):
                basis.append(K)
        bases.append(basis)
    mats = []
    for qf in range(n):
        tgt_index = {K: idx for idx, K in enumerate(bases[qf + 1])}
        cols = []
        for K in bases[qf]:
            dsrc = tuple(D[t] - (1 if t in K else 0) for t in range(n))
            rep = gr_class_rep(lvl, p_right(qf), dsrc)
            col = {}
            for k in range(n):
                if k in K:
                    continue
                T = tuple(sorted(K + (k,)))
                if T not in tgt_index:
                    continue
                sign = (-1) ** sum(1 for kk in K if kk < k)
                img = _orders_dy(rep, model, dsrc, k)
                if not img:
                    continue
                dtgt = tuple(dsrc[t] - (1 if t == k else 0) for t in range(n))
                coord = gr_coordinate(img, lvl, p_right(qf + 1), dtgt)
                if coord:
                    # left d/dy_k is the negated right action in this encoding
                    col[tgt_index[T]] = -sign * coord
            cols.append(col)
        mats.append(cols)
    return bases, mats


def gr_dr_psi(model: MonomialModel, alpha, i, box: TruncationBox) -> GradedDimTable:
    """Cohomology dimensions, per multidegree in the box, of the graded de
    Rham complex with terms Omega^q (x) Gr^F_{i-n+1+q} psi_{g,alpha}; keys
    are (multidegree, cohomological degree in -n..0)."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    lvl = Level(model, alpha)
    n = model.n
    support = set()
    scan = TruncationBox(
        tuple(x - 1 for x in box.lo), box.hi
    )
    for qf in range(n + 1):
        p = i + qf - 2 * n
        for d in scan:
            if count_grF_grV(lvl, p, d):
                for K in itertools.combinations(range(n), qf):
                    D = tuple(d[t] + (1 if t in K else 0) for t in range(n))
                    if D in box:
                        support.add(D)
    table = GradedDimTable(alpha=alpha)
    for D in sorted(support):
        bases, mats = _dr_complex(lvl, i, D)
        ranks = [exact_rank(cols) for cols in mats]
        for qf in range(n + 1):
            h = len(bases[qf]) - (ranks[qf] if qf < n else 0) - (
                ranks[qf - 1] if qf > 0 else 0
            )
            if h:
                table.dims[(D, qf - n)] = h
    return table


def verify_cor51(model: MonomialModel, alpha, i_range, box: TruncationBox):
    """At the identity resolution: the level-(i-n+1) graded de Rham complex
    of psi_{g,alpha} is concentrated in cohomological degree -i, with
    dimensions equal to the quotient-twisted relative (n-1-i)-forms, per
    multidegree in the box."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must be in (0,1], got {alpha}")
    lvl = Level(model, alpha)
    n = model.n
    c_lo, c_hi = lvl.twist, lvl.deeper.twist
    syms = _rel_symbols(model)
    report = {"status": "PASS", "checks": []}
    for i in i_range:
        t = gr_dr_psi(model, alpha, i, box)
        total = 0
        for (Dd, q), dim in sorted(t.dims.items()):
            if q != -i:
                return _fail(
                    report, "cor51-concentration", i=i, degree=list(Dd), cohdeg=q, dim=dim
                )
            want = _quotient_count(model, c_lo, c_hi, syms, n - 1 - i, Dd)
            if dim != want:
                return _fail(
                    report, "cor51-dims", i=i, degree=list(Dd), deRham=dim, quotient_forms=want
                )
            total += dim
        # the other containment: every quotient-forms locus shows up
        for d in box:
            want = _quotient_count(model, c_lo, c_hi, syms, n - 1 - i, d)
            if want != t.get((d, -i)):
                return _fail(
                    report, "cor51-dims", i=i, degree=list(d), deRham=t.get((d, -i)),
                    quotient_forms=want,
                )
        report["checks"].append(
            {
                "name": "cor51",
                "status": "PASS",
                "i": i,
                "alpha": format_rational(alpha),
                "total_dim": total,
            }
        )
    return report
