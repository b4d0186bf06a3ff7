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
the core, cached by the translation class of the truncation signature that a
multidegree induces (each class is assembled and ranked once), and the j > r
factors contribute the gate [d_j >= 0].  The normalized grading
used everywhere is the one of B_g^r, i.e. the top wedge generator of the
G = D_alpha complex sits at multidegree b = ceil(alpha a) - 1.

GradedCbar.point_grid evaluates a whole box at once and returns
(table, flat, gates): per-coordinate tables of the truncation signature give
the combinations of the distinct bounds of the divisor coordinates, each
with its translation class, built one column at a time; the core is looked
up once per class, the table holds each distinct result once, flat holds one
index into the table per point of the divisor coordinates (built from each
column's indices, looked up once per column), and gates holds the gates
d_j >= 0 of the free coordinates.  cohomology_grid spreads table[f] over
the gates into a list in box order.  The resolution sweeps compare whole
lists, and read each table entry once: H^0 and the off-degree check
(acyclicity in i, concentration in ii) are taken per entry, and the H^0
list is one indexed spread that meets the count grid of vfilt in one
list ==.  The sigma-injective check of i covers each locus where a class
of Gr^F_{p-1} V_{-alpha} exists and H^0 != 0: the full expansion of the
class representative must lead with dt-order p - 1 + n.  Within one
(level, p), loci whose expansions share a vfilt.expansion_key share the
orders, and that key is fixed by the lead key (u0_0 where w_0 > 0, w), since
u0_i = b_i wherever w_i > 0 for i >= 1; so the lead is checked once per key.
A passing sweep visits no locus for it: vfilt.gr_label_leads gives the
box-order class list and the first (u0, w) of each lead key from its
per-coordinate tables, and the check passes when the class list equals the
count grid (which equals the H^0 list), so the loci with a class are exactly
those with H^0 != 0, and every key leads right.  Otherwise the loci of
vfilt.gr_label_grid are walked in box order, reusing the leads already
checked; a locus with H^0 != 0 and no class fails there, while a class where
H^0 = 0 is not read, so the walk may still pass.  Only when a check fails
are the loci scanned in box order, with the checks in their per-locus order
(acyclicity or concentration, then H0-dims, then sigma-injective), so a
FAIL names the same first locus and fields as a per-locus loop would.
tests/test_koszul.py keeps that loop, with every check at every locus, as the
reference.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .divisors import SncDivisor
from .rationals import InputError, exact_rank, format_rational, int_tuple
from .vfilt import (
    GradedDimTable,
    Level,
    TruncationBox,
    _expansion_orders,
    _fail,
    b_vector,
    gr_count_grid,
    gr_label_grid,
    gr_label_leads,
    grF_grV_grid,
)
from .weyl import BgElement, MonomialModel, WeylOperator, act_right, compose


# -- operator-level complex ---------------------------------------------------

def _check_twist(model: MonomialModel, G):
    if isinstance(G, SncDivisor):
        coeffs = G.coeffs
    else:
        coeffs = int_tuple(G, "twist")
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
    the coupled variables y_1..y_r, z_1..z_r, cached by the translation class
    of the truncation signature.

    A signature is (omega, tlo, thi): basis labels at wedge set S (subset of
    the generator ids 1..r-1) and weight w in Z^r_{>=0} with
    |w| = omega + |S| require w >= tlo componentwise, minus the sub-basis
    with w >= thi (componentwise, all coordinates) when thi is not None (the
    quotient by a deeper twist).

    The map w -> w - tlo carries the bases of (omega, tlo, thi) onto those of
    (omega - |tlo|, 0, thi - tlo) in the same order, and the matrices entry
    for entry: the coefficients lcm/a_k do not read w, and w >= thi becomes
    w - tlo >= thi - tlo.  So the cache is keyed by (omega - |tlo|,
    thi - tlo), and each class is assembled at tlo = 0 and ranked once.
    """

    def __init__(self, a_core):
        self.a = tuple(a_core)
        self.r = len(self.a)
        lcm = 1
        for x in self.a:
            lcm = lcm * x // math.gcd(lcm, x)
        self.lcm = lcm
        self._cache = {}

    def _basis(self, wedge, omega, thi):
        r = self.r
        total = omega + wedge
        out = []
        for S in itertools.combinations(range(1, r), wedge):
            for w in _compositions(total, r):
                if thi is not None and all(w[i] >= thi[i] for i in range(r)):
                    continue
                out.append((S, w))
        return out

    def dims(self, omega, tlo, thi=None):
        if thi is not None:
            thi = tuple(h - l for l, h in zip(tlo, thi))
        omega -= sum(tlo)
        key = (omega, thi)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        r = self.r
        bases = [self._basis(W, omega, thi) for W in range(r)]
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


# One model at a time, keyed by (n, a): a GradedCbar of another model
# empties it first.
_CORE_CACHE = {}


def _core_for(model: MonomialModel):
    key = (model.n, model.a)
    core = _CORE_CACHE.get(key)
    if core is None:
        _CORE_CACHE.clear()
        core = _CORE_CACHE[key] = CoreCohomology(model.a)
    return core


def _spread(table, flat, gates, off):
    """table[f] for the index f of each point, repeated over the
    free-coordinate gates, off where a gate is closed: a list in box order.
    Each table entry's row over the gates is built once."""
    rows = [[v if g else off for g in gates] for v in table]
    return list(itertools.chain.from_iterable(map(rows.__getitem__, flat)))


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
        self.core = _core_for(model)

    def cohomology(self, p, d) -> dict:
        """{cohomological degree: dim} of the multidegree-d piece at Hodge
        index p; empty dict when everything vanishes."""
        d = tuple(d)
        return self.cohomology_grid(p, TruncationBox(d, d))[0]

    def cohomology_grid(self, p, box: TruncationBox) -> list:
        """[self.cohomology(p, d) for d in box]."""
        return _spread(*self.point_grid(p, box), {})

    def point_grid(self, p, box: TruncationBox):
        """(table, flat, gates): the distinct core results, each once; for
        each point of the divisor coordinates of the box, in box order, the
        index of its result in table; and the gates d_j >= 0 of the free
        coordinates, in box order.  The locus (point, gate) has
        table[flat[point]] where its gate holds and no cohomology elsewhere.

        A point enters only through the clamped truncation bounds
        min(max(c_i - 1 - d_i, 0), cap + 1) of each divisor coordinate i,
        tlo_i for c the twist and thi_i for c the deeper one.  Each bound
        takes at most cap + 2 values, so a coordinate's column of
        (tlo_i, thi_i) has few distinct entries, and the index of each
        column entry, looked up once per column, builds flat.  Column by
        column, each combination of distinct entries also gets its
        translation class (omega - |tlo|, thi - tlo), which is what
        CoreCohomology.dims keys its cache by: the core is looked up once
        per class, with the untranslated signature of the class's first
        combination.  Classes whose lookups return the same result object
        (thi = tlo, where the quotient is 0) share one table entry.
        """
        n, r = self.model.n, self.model.r
        omega = p + n - r
        cap = omega + r - 1
        axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
        gates = [all(g) for g in itertools.product(*([x >= 0 for x in axes[j]] for j in range(r, n)))]
        if cap < 0 or not any(gates):
            return [{}], [0] * (box.volume() // len(gates)), gates

        def bound(c, i, x):
            return None if c is None else min(max(c[i] - 1 - x, 0), cap + 1)

        flat, keys, sigs = [0], [(omega, ())], [((), ())]
        for i in range(r):
            column = [(bound(self.c_lo, i, x), bound(self.c_hi, i, x)) for x in axes[i]]
            index = {b: k for k, b in enumerate(dict.fromkeys(column))}
            ks, m = [index[b] for b in column], len(index)
            flat = [f * m + k for f in flat for k in ks]
            shifts = [(lo, None if hi is None else hi - lo) for lo, hi in index]
            keys = [(o - lo, t + (dh,)) for o, t in keys for lo, dh in shifts]
            sigs = [(tl + (lo,), th + (hi,)) for tl, th in sigs for lo, hi in index]
        dims, empty = self.core.dims, {}
        table, slot, of_class = [], {}, {}  # of_class: class -> index in table
        for key, (tlo, thi) in zip(keys, sigs):
            if key not in of_class:
                thi = None if self.c_hi is None else thi
                h = empty if thi == tlo else dims(omega, tlo, thi)
                k = of_class[key] = slot.setdefault(id(h), len(table))
                if k == len(table):
                    table.append(h)
        at = [of_class[key] for key in keys]  # combination -> index in table
        return table, [at[f] for f in flat], gates


def graded_cohomology(model: MonomialModel, G, p, box: TruncationBox,
                      G_deeper=None) -> GradedDimTable:
    """All cohomology dimensions of the graded Koszul complex per multidegree
    in the box, keyed by (multidegree, cohomological degree)."""
    gc = GradedCbar(model, G, G_deeper)
    table = GradedDimTable(p=p)
    for d, h in zip(box, gc.cohomology_grid(p, box)):
        for q, dim in h.items():
            table.dims[(d, q)] = dim
    return table


# -- resolution sweeps --------------------------------------------------------
#
# A sweep compares whole box-order lists: the H^0 list against the count
# grid with one list ==, the off-degree check once per distinct core result.
# Only when something fails does it scan the loci in box order (_scan).

def _acyclic(h):
    return not any(q < 0 and dim for q, dim in h.items())


def _concentrated(h):
    return not any(q != 0 and dim for q, dim in h.items())


def _h0_list(table, flat, gates):
    """The H^0 dims in box order: h.get(0, 0) once per table entry."""
    return _spread([h.get(0, 0) for h in table], flat, gates, 0)


def _lead_key(u0, w):
    """Within one (level, p), the key of the loci whose class
    representatives have the same expansion as (u0, w).  By gr_label's rule
    v_i w_i = 0 for i >= 1, so u0_i = b_i wherever w_i > 0 there: only the
    first coordinate of u0 can vary where vfilt.expansion_key reads it."""
    return (u0[0] if w[0] else 0), w


def _scan(report, p, box, grid, want, ok, names, leads=None):
    """Fail the report at the first locus in box order that fails, checking
    at each locus, in this order: `ok` on its cohomology, its H^0 against
    `want`, and, given `leads` ({flat index: lead ok} at loci with a class),
    that a locus with H^0 != 0 has a class with a good lead.  `grid` is
    point_grid's (table, flat, gates); `names` are the check names and the
    name of the count field."""
    off, dims, count, sigma = names
    for k, (d, h, x) in enumerate(zip(box, _spread(*grid, {}), want)):
        if not ok(h):
            return _fail(
                report, off, p=p, degree=list(d),
                cohomology={str(q): v for q, v in sorted(h.items())},
            )
        h0 = h.get(0, 0)
        if h0 != x:
            return _fail(report, dims, p=p, degree=list(d), H0=h0, **{count: x})
        if leads is not None and h0 and not leads.get(k):
            return _fail(report, sigma, p=p, degree=list(d))


_THM42I = ("thm42i-acyclicity", "thm42i-H0-dims", "count45", "thm42i-sigma-injective")
_THM42II = ("thm42ii-concentration", "thm42ii-H0-dims", "grV_count", None)


def verify_thm42_i(model: MonomialModel, alpha, p_range, box: TruncationBox):
    """Graded acyclicity off degree 0 and the sigma-bar match of H^0 with the
    Gr^F_{p-1} V_{-alpha} count, per multidegree in the box; where H^0 is
    nonzero the class representative must lead with dt-order p - 1 + n."""
    lvl = Level(model, alpha)
    gc = GradedCbar(model, lvl.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        grid = gc.point_grid(p, box)
        h0 = _h0_list(*grid)
        want = gr_count_grid(lvl, p - 1, box)
        top = p - 1 + model.n
        seen = {}  # lead key -> lead ok: loci sharing a key share the orders

        def lead_ok(key, u0, w):
            ok = seen.get(key)
            if ok is None:
                orders = _expansion_orders(model, u0, w, 0)[0]
                ok = seen[key] = max(orders) == top and bool(orders[top])
            return ok

        passed = all(map(_acyclic, grid[0])) and h0 == want
        if passed:
            classes, firsts = gr_label_leads(lvl, p - 1, box)
            passed = classes == want and all(
                lead_ok(key, *lead) for key, lead in firsts.items()
            )
        loci = len(h0) - h0.count(0)
        if not passed:
            # the per-locus walk decides; it can still pass, e.g. with an
            # extra class where H^0 = 0, which it does not read
            pos = {d: k for k, d in enumerate(box)}
            leads = {}  # at loci with H^0 != 0 and a class, up to the first bad lead
            for d, u0, w in gr_label_grid(lvl, p - 1, box):
                k = pos[d]
                if h0[k]:
                    ok = leads[k] = lead_ok(_lead_key(u0, w), u0, w)
                    if not ok:
                        break
            if (
                not all(map(_acyclic, grid[0])) or h0 != want
                or not all(leads.values()) or len(leads) != loci
            ):
                return _scan(report, p, box, grid, want, _acyclic, _THM42I, leads)
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
        grid = gq.point_grid(p, box)
        h0 = _h0_list(*grid)
        want = grF_grV_grid(lvl, p - 1, box)
        if not all(map(_concentrated, grid[0])) or h0 != want:
            return _scan(report, p, box, grid, want, _concentrated, _THM42II)
        report["checks"].append(
            {
                "name": "thm42ii",
                "status": "PASS",
                "p": p,
                "alpha": format_rational(lvl.alpha),
                "total_H0": sum(h0),
            }
        )
    return report
