"""Twisted relative-log-form Koszul complexes resolving V-filtration pieces.

For an effective divisor G = sum c_i E_i supported on the components of the
monomial divisor, the complex is the Koszul complex of the left
multiplications by

    K_i = y_i d_i / a_i - y_1 d_1 / a_1 + c_i/a_i - c_1/a_1   (2 <= i <= r)
    d_j                                                        (r < j <= n)

on the operator algebra, with terms indexed by wedges of the relative
log-form symbols u_i = a_i dlog y_i (degree 0) and dy_j (degree e_j), placed
in cohomological degrees -(n-1)..0, and the differential

    d(e_S (x) Q) = sum_k  sign(k, S) e_{S u k} (x) K_k Q .

This explicit matrix is implementer-derived (the quotient construction fixes
it only up to the chosen trivialization); it is pinned down by d^2 = 0, by
the generators commuting, and by the augmentation-zero check against

    sigma_alpha(e_full (x) Q) = (a_1...a_r y^b dy delta) . Q ,

all verified in tests/test_koszul.py and the CLI harness.

At the graded (symbol) level the complex splits, per multidegree, into a
"core" on the coupled variables y_1..r, z_1..r (relations
Q_i = y_i z_i / a_i - y_1 z_1 / a_1) tensored with exact one-variable factors
for j > r; cohomology is computed by exact integer Gaussian elimination on
the core, cached by the truncation signature that a multidegree induces, and
the j > r factors contribute the gate [d_j >= 0].  The normalized grading
used everywhere is the one of B_g^r, i.e. the top wedge generator of the
G = D_alpha complex sits at multidegree b = ceil(alpha a) - 1.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .divisors import SncDivisor
from .rationals import InputError, exact_rank, format_rational
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _fail,
    b_vector,
    count_gr,
    count_grF_grV,
    gr_class_rep,
)
from .weyl import BgElement, MonomialModel, WeylOperator, act_right, compose


# -- operator-level complex ---------------------------------------------------

def _check_twist(model: MonomialModel, G):
    if isinstance(G, SncDivisor):
        coeffs = G.coeffs
    else:
        coeffs = tuple(int(c) for c in G)
    if len(coeffs) != model.r:
        raise InputError(
            f"twist must be supported on the {model.r} divisor components, got {coeffs}"
        )
    if any(c < 0 for c in coeffs):
        raise InputError(f"twist must be effective, got {coeffs}")
    return coeffs


def annihilator_generators(model: MonomialModel, G) -> dict:
    """The Koszul generators {symbol id: operator}; ids are the variable
    indices 2..r (Euler-type) and r+1..n (plain partials), 1-based."""
    c = _check_twist(model, G)
    n, r, a = model.n, model.r, model.a
    gens = {}
    for i in range(1, r):
        euler_i = compose(WeylOperator.y(n, i), WeylOperator.dy(n, i)).scale(
            Fraction(1, a[i])
        )
        euler_0 = compose(WeylOperator.y(n, 0), WeylOperator.dy(n, 0)).scale(
            Fraction(1, a[0])
        )
        const = WeylOperator.scalar(n, Fraction(c[i], a[i]) - Fraction(c[0], a[0]))
        gens[i + 1] = euler_i - euler_0 + const
    for j in range(r, n):
        gens[j + 1] = WeylOperator.dy(n, j)
    return gens


@dataclass
class FilteredKoszulComplex:
    """Operator-level C-bar_G; cochains in degree |S|-(n-1) are dicts
    {sorted symbol tuple S: operator}."""

    model: MonomialModel
    G: tuple
    generators: dict

    @property
    def symbols(self):
        return tuple(sorted(self.generators))

    def rank(self, cohdeg):
        """Free rank of the term in the given cohomological degree."""
        wedge = (self.model.n - 1) + cohdeg
        if not 0 <= wedge <= self.model.n - 1:
            return 0
        return math.comb(self.model.n - 1, wedge)

    def filtration_shift(self, cohdeg):
        """Hodge index used in degree -q: F_{k-n} there is built from
        F_{k-q-1} of the operator algebra."""
        q = -cohdeg
        return -q - 1

    def differential(self, x: dict) -> dict:
        out = {}
        for S, Q in x.items():
            S = tuple(sorted(S))
            for k, gen in self.generators.items():
                if k in S:
                    continue
                sign = (-1) ** sum(1 for s in S if s < k)
                T = tuple(sorted(S + (k,)))
                term = compose(gen, Q).scale(sign)
                if T in out:
                    out[T] = out[T] + term
                else:
                    out[T] = term
        return {S: Q for S, Q in out.items() if not Q.is_zero()}


def build_cbar(model: MonomialModel, G) -> FilteredKoszulComplex:
    c = _check_twist(model, G)
    return FilteredKoszulComplex(model, c, annihilator_generators(model, c))


def generators_commute(model: MonomialModel, G) -> bool:
    gens = list(annihilator_generators(model, G).values())
    return all(
        compose(P, Q) == compose(Q, P)
        for P, Q in itertools.combinations(gens, 2)
    )


def sigma_generator(model: MonomialModel, alpha) -> BgElement:
    """Image of the canonical top-degree generator: a_1...a_r y^b dy delta."""
    b = b_vector(model, alpha)
    coeff = 1
    for a in model.a:
        coeff *= a
    return BgElement(model.n, {(b, 0): Fraction(coeff)})


def sigma_alpha(model: MonomialModel, alpha, x=None) -> BgElement:
    """The augmentation on degree-0 cochains: e_full (x) Q |-> base . Q,
    extended operator-linearly; x may be an operator, a cochain dict, or
    None for the canonical generator."""
    base = sigma_generator(model, Level(model, alpha).alpha)
    return base if x is None else _augment(model, base, x)


def _augment(model, base, x):
    if isinstance(x, WeylOperator):
        return act_right(base, x, model)
    full = tuple(range(2, model.n + 1))
    out = BgElement(model.n)
    for S, Q in x.items():
        if tuple(sorted(S)) != full:
            raise InputError("sigma_alpha expects a degree-0 cochain")
        out = out + act_right(base, Q, model)
    return out


def N_operator(model: MonomialModel, alpha) -> WeylOperator:
    """The operator realizing the monodromy endomorphism on H^0 of
    C-bar_{D_alpha}: (ceil(alpha a_1) + y_1 d_1)/a_1."""
    n, a1 = model.n, model.a[0]
    c1 = Level(model, alpha).twist[0]
    return (
        compose(WeylOperator.y(n, 0), WeylOperator.dy(n, 0)) + WeylOperator.scalar(n, c1)
    ).scale(Fraction(1, a1))


def _random_yd_operator(rng, n, max_terms=2, max_exp=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        ay = tuple(rng.randint(0, max_exp) for _ in range(n))
        bdy = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = Fraction(rng.randint(-4, 4))
        if c == 0:
            c = Fraction(1)
        key = (ay, 0, bdy, 0)
        terms[key] = terms.get(key, Fraction(0)) + c
    return WeylOperator(n, terms)


def verify_thm42_iii(model: MonomialModel, alpha, samples=20, seed=0):
    """sigma(N(x)) = sigma(x) . (-theta) on the canonical generator and on
    random operator multiples x = generator . Q with Q in the y-variables
    Weyl algebra."""
    alpha = Level(model, alpha).alpha
    n = model.n
    base = sigma_generator(model, alpha)
    n_op = N_operator(model, alpha)
    minus_theta = WeylOperator.theta(n).scale(-1)
    report = {"status": "PASS", "checks": []}
    lhs = act_right(base, n_op, model)
    rhs = act_right(base, minus_theta, model)
    ok = lhs == rhs
    report["checks"].append(
        {
            "name": "monodromy-generator",
            "status": "PASS" if ok else "FAIL",
            "alpha": format_rational(alpha),
        }
    )
    if not ok:
        report["status"] = "FAIL"
        return report
    rng = random.Random(seed)
    for idx in range(samples):
        Q = _random_yd_operator(rng, n)
        left = act_right(lhs, Q, model)
        right = act_right(act_right(base, Q, model), minus_theta, model)
        if left != right:
            return _fail(report, "monodromy-multiple", sample=idx)
    report["checks"].append(
        {"name": "monodromy-multiples", "status": "PASS", "samples": samples}
    )
    return report


def augmentation_zero_check(model: MonomialModel, alpha, samples=10, seed=0):
    """The composite C-bar^{-1} -> C-bar^0 -> V_{-alpha} B^r vanishes, on all
    basis cochains and on random operator cochains."""
    lvl = Level(model, alpha)
    n = model.n
    base = sigma_generator(model, lvl.alpha)
    fkc = build_cbar(model, lvl.twist)
    report = {"status": "PASS", "checks": []}
    if n == 1:
        report["checks"].append(
            {"name": "augmentation-zero", "status": "PASS", "vacuous": True}
        )
        return report
    syms = fkc.symbols
    rng = random.Random(seed)
    inputs = []
    for S in itertools.combinations(syms, n - 2):
        inputs.append({S: WeylOperator.one(n)})
    for _ in range(samples):
        S = tuple(sorted(rng.sample(syms, n - 2)))
        inputs.append({S: _random_yd_operator(rng, n)})
    for x in inputs:
        if not _augment(model, base, fkc.differential(x)).is_zero():
            return _fail(
                report, "augmentation-zero",
                cochain={str(k): repr(v) for k, v in x.items()},
            )
    report["checks"].append(
        {"name": "augmentation-zero", "status": "PASS", "inputs": len(inputs)}
    )
    return report


# -- graded (symbol-level) cohomology ----------------------------------------

def _compositions(total, k):
    """All tuples in Z^k_{>=0} with the given sum."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


class CoreCohomology:
    """Cohomology of the multidegree pieces of the symbol Koszul complex on
    the coupled variables y_1..y_r, z_1..z_r, cached by truncation signature.

    A signature is (tlo, thi): basis labels at wedge set S (subset of the
    generator ids 1..r-1) and weight w in Z^r_{>=0} with |w| = omega + |S|
    require w >= tlo componentwise, minus the sub-basis with w >= thi
    (componentwise, all coordinates) when thi is not None (the quotient by a
    deeper twist).
    """

    def __init__(self, a_core):
        self.a = tuple(a_core)
        self.r = len(self.a)
        lcm = 1
        for x in self.a:
            lcm = lcm * x // math.gcd(lcm, x)
        self.lcm = lcm
        self._cache = {}

    def _basis(self, wedge, omega, tlo, thi):
        r = self.r
        total = omega + wedge
        out = []
        for S in itertools.combinations(range(1, r), wedge):
            rem = total - sum(tlo)
            if rem < 0:
                continue
            for u in _compositions(rem, r):
                w = tuple(tlo[i] + u[i] for i in range(r))
                if thi is not None and all(w[i] >= thi[i] for i in range(r)):
                    continue
                out.append((S, w))
        return out

    def dims(self, omega, tlo, thi=None):
        key = (omega, tlo, thi)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        r = self.r
        bases = [self._basis(W, omega, tlo, thi) for W in range(r)]
        index = [{lbl: k for k, lbl in enumerate(b)} for b in bases]
        ranks = [0] * r  # rank of d: wedge W -> W+1, stored at W
        for W in range(r - 1):
            if not bases[W] or not bases[W + 1]:
                continue
            rows = []
            tgt = index[W + 1]
            for S, w in bases[W]:
                row = {}
                for k in range(1, r):
                    if k in S:
                        continue
                    sign = (-1) ** sum(1 for s in S if s < k)
                    T = tuple(sorted(S + (k,)))
                    for coord, coeff in ((k, sign * self.lcm // self.a[k]),
                                         (0, -sign * self.lcm // self.a[0])):
                        wk = list(w)
                        wk[coord] += 1
                        col = tgt.get((T, tuple(wk)))
                        if col is not None:
                            row[col] = row.get(col, 0) + coeff
                rows.append({c: v for c, v in row.items() if v})
            ranks[W] = exact_rank(rows)
        dims = {}
        for W in range(r):
            h = len(bases[W]) - ranks[W] - (ranks[W - 1] if W > 0 else 0)
            if h:
                dims[W - (r - 1)] = h
        self._cache[key] = dims
        return dims


_CORE_CACHE = {}


def _core_for(a):
    core = _CORE_CACHE.get(a)
    if core is None:
        core = _CORE_CACHE[a] = CoreCohomology(a)
    return core


class GradedCbar:
    """Per-multidegree graded cohomology of Gr^F C-bar_G (or of the quotient
    C-bar_G / C-bar_{G'}), in the normalized B_g^r grading."""

    def __init__(self, model: MonomialModel, G, G_deeper=None):
        self.model = model
        self.c_lo = _check_twist(model, G)
        self.c_hi = _check_twist(model, G_deeper) if G_deeper is not None else None
        if self.c_hi is not None and any(
            h < l for l, h in zip(self.c_lo, self.c_hi)
        ):
            raise InputError("quotient twist must be deeper (componentwise >=)")
        self.core = _core_for(model.a)

    def cohomology(self, p, d) -> dict:
        """{cohomological degree: dim} of the multidegree-d piece at Hodge
        index p; empty dict when everything vanishes."""
        model = self.model
        n, r = model.n, model.r
        if any(d[j] < 0 for j in range(r, n)):
            return {}
        omega = p + n - r
        cap = omega + r - 1
        if cap < 0:
            return {}

        def clamp(c):
            return tuple(
                min(max(c[i] - 1 - d[i], 0), cap + 1) for i in range(r)
            )

        tlo = clamp(self.c_lo)
        thi = clamp(self.c_hi) if self.c_hi is not None else None
        if thi is not None and thi == tlo:
            return {}
        return self.core.dims(omega, tlo, thi)


def graded_cohomology(model: MonomialModel, G, p, box: TruncationBox,
                      G_deeper=None) -> GradedDimTable:
    """All cohomology dimensions of the graded Koszul complex per multidegree
    in the box, keyed by (multidegree, cohomological degree)."""
    gc = GradedCbar(model, G, G_deeper)
    table = GradedDimTable(p=p)
    for d in box:
        for q, dim in gc.cohomology(p, d).items():
            table.dims[(d, q)] = dim
    return table


def _naive_graded_cohomology(model: MonomialModel, G, p, d, G_deeper=None):
    """Reference implementation: assemble the full per-multidegree complex in
    all n variables and take ranks.  Used to cross-validate the factored
    core computation; quadratically slower, test use only."""
    n, r = model.n, model.r
    c_lo = _check_twist(model, G) + (0,) * (n - r)
    c_hi = (
        _check_twist(model, G_deeper) + (0,) * (n - r)
        if G_deeper is not None
        else None
    )
    syms = tuple(range(2, n + 1))

    def formdeg(S):
        return tuple(1 if (j + 1 in S and j + 1 > r) else 0 for j in range(n))

    def basis(s):
        out = []
        for S in itertools.combinations(syms, s):
            fd = formdeg(S)
            for w in _compositions(p + s, n):
                v = tuple(
                    d[i] + 1 - fd[i] - c_lo[i] + w[i] for i in range(n)
                )
                if any(x < 0 for x in v):
                    continue
                if c_hi is not None and all(
                    v[i] >= c_hi[i] - c_lo[i] for i in range(r)
                ):
                    continue
                out.append((S, w))
        return out

    a_ext = model.a_ext
    bases = [basis(s) for s in range(n)]
    index = [{lbl: k for k, lbl in enumerate(b)} for b in bases]
    lcm = 1
    for x in model.a:
        lcm = lcm * x // math.gcd(lcm, x)
    ranks = [0] * n
    for s in range(n - 1):
        rows = []
        tgt = index[s + 1]
        for S, w in bases[s]:
            row = {}
            for k in syms:
                if k in S:
                    continue
                sign = (-1) ** sum(1 for x in S if x < k)
                T = tuple(sorted(S + (k,)))
                if k <= r:
                    pairs = (
                        (k - 1, sign * lcm // a_ext[k - 1]),
                        (0, -sign * lcm // a_ext[0]),
                    )
                else:
                    pairs = ((k - 1, sign * lcm),)
                for coord, coeff in pairs:
                    wk = list(w)
                    wk[coord] += 1
                    col = tgt.get((T, tuple(wk)))
                    if col is not None:
                        row[col] = row.get(col, 0) + coeff
            rows.append({c: v for c, v in row.items() if v})
        ranks[s] = exact_rank(rows)
    dims = {}
    for s in range(n):
        h = len(bases[s]) - ranks[s] - (ranks[s - 1] if s > 0 else 0)
        if h:
            dims[s - (n - 1)] = h
    return dims


# -- resolution sweeps --------------------------------------------------------

def verify_thm42_i(model: MonomialModel, alpha, p_range, box: TruncationBox):
    """Graded acyclicity off degree 0 and the sigma-bar match of H^0 with the
    Gr^F_{p-1} V_{-alpha} count, per multidegree in the box."""
    lvl = Level(model, alpha)
    gc = GradedCbar(model, lvl.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        loci = 0
        for d in box:
            h = gc.cohomology(p, d)
            if any(q < 0 and dim for q, dim in h.items()):
                return _fail(
                    report, "thm42i-acyclicity", p=p, degree=list(d),
                    cohomology={str(q): v for q, v in sorted(h.items())},
                )
            h0 = h.get(0, 0)
            want = count_gr(lvl, p - 1, d)
            if h0 != want:
                return _fail(
                    report, "thm42i-H0-dims", p=p, degree=list(d), H0=h0, count45=want
                )
            if h0:
                rep = gr_class_rep(lvl, p - 1, d)
                if rep is None or not rep.get(p - 1 + model.n):
                    return _fail(report, "thm42i-sigma-injective", p=p, degree=list(d))
                loci += 1
        report["checks"].append(
            {
                "name": "thm42i",
                "status": "PASS",
                "p": p,
                "alpha": format_rational(lvl.alpha),
                "nonzero_H0_loci": loci,
            }
        )
    return report


def verify_thm42_ii(model: MonomialModel, alpha, p_range, box: TruncationBox):
    """The quotient complex is concentrated in degree 0 with H^0 matching
    Gr^F_{p-1} Gr^V_{-alpha} per multidegree."""
    lvl = Level(model, alpha)
    gq = GradedCbar(model, lvl.twist, lvl.deeper.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        total = 0
        for d in box:
            h = gq.cohomology(p, d)
            if any(q != 0 and dim for q, dim in h.items()):
                return _fail(
                    report, "thm42ii-concentration", p=p, degree=list(d),
                    cohomology={str(q): v for q, v in sorted(h.items())},
                )
            h0 = h.get(0, 0)
            want = count_grF_grV(lvl, p - 1, d)
            if h0 != want:
                return _fail(
                    report, "thm42ii-H0-dims", p=p, degree=list(d), H0=h0, grV_count=want
                )
            total += h0
        report["checks"].append(
            {
                "name": "thm42ii",
                "status": "PASS",
                "p": p,
                "alpha": format_rational(lvl.alpha),
                "total_H0": total,
            }
        )
    return report
