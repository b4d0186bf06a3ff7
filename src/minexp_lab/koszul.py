"""Twisted relative-log-form Koszul complexes resolving V-filtration pieces:
their graded cohomology, and the Thm 4.2 (i)/(ii) resolution sweeps.

The operator-level complex C-bar_G and its checks are cbar.py; this module
keeps what both read, the twist check (_check_twist) and the image of the
canonical generator (sigma_generator).

At the graded (symbol) level the complex splits, per multidegree, into a
"core" on the coupled variables y_1..r, z_1..r (relations
Q_i = y_i z_i / a_i - y_1 z_1 / a_1) tensored with exact one-variable factors
for j > r; rationals.cohomology takes the core's cohomology, cached by the
translation class of the truncation signature that a multidegree induces
(each class goes to it once, as a restriction of its untruncated complex,
which is assembled once), and the j > r factors contribute the gate
[d_j >= 0].  The normalized grading used everywhere is the one of B_g^r,
i.e. the top wedge generator of the G = D_alpha complex sits at
multidegree b = ceil(alpha a) - 1.

GradedCbar.point_grid evaluates a whole box at once and returns
(table, at, columns, gates), with nothing per point: the gates and the
unclamped truncation bounds per divisor coordinate are built once per box,
and per p clamped bounds give the combinations of the distinct bounds of
the divisor coordinates, each with its translation class (an int without
a quotient), built one column at a time; the core is looked up once per
class, the table holds each class's result once, `at` maps each
combination to its table entry, columns[i] gives the index of each x of
divisor coordinate i among that coordinate's distinct bounds, and gates
holds the gates d_j >= 0 of the free coordinates.  The resolution sweeps
compare whole box-order bytes and read each table entry once: H^0 and the
off-degree check (acyclicity in i, concentration in ii) are taken per
entry, and the H^0 bytes are built by C-level gathers and one column join
(_gather, one join per combination of the leading columns), to meet the
count bytes of vfilt in one bytes ==; vfilt reads
those bytes, and the lead keys below with their point counts, off one
weight table per level and box, which every p shares.  Each H^0 is
stored as min(H^0, 2), which keeps that == exact because every count grid
is 0/1; a failing sweep reads the true dims from the table.  The
sigma-injective check of i covers each locus where H^0 != 0: the class of
Gr^F_{p-1} V_{-alpha} must exist there, and the full expansion of its
representative must lead with dt-order p - 1 + n.  Within one (level, p),
loci whose expansions share a vfilt.expansion_key share the orders, and
that key is fixed by vfilt.lead_key, so the lead is checked once per key.

A (level, p) is decided in one of two ways.  The bytes pass it: the H^0
bytes equal the count grid, every table entry passes the off-degree check,
and, in i, the point counts of vfilt.gr_label_leads' keys sum to the number
of loci with H^0 != 0 (read off the H^0 bytes, not the count grid, which
shares the leads' weight table) and the first locus of each lead key leads
right; no locus is visited.  Otherwise the (level, p) fails, through
vfilt._first_failure: _scan yields the failing loci in box order with the
checks in their per-locus order (acyclicity or concentration, then H0-dims,
then sigma-injective, which reads gr_label only where H^0 != 0 and shares
the per-key memo), and the first is the FAIL, naming the same locus and
fields as a per-locus loop would; a scan that yields none (say, an extra
lead where H^0 = 0, which no locus check reads) is a VerificationError.
Only _scan indexes the table point by point (_spread, a list of dicts in
box order, built by the same column join as the H^0 bytes).
tests/test_koszul.py keeps the per-locus loop, with every check at every
locus, as the reference, and spreads whole grids the same way.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .rationals import InputError, VerificationError, cohomology, format_rational, int_tuple, wedge
from .vfilt import (
    Level,
    TruncationBox,
    _check,
    _check_box,
    _expansion_orders,
    _first_failure,
    b_vector,
    gr_count_grid,
    gr_label,
    gr_label_leads,
    grF_grV_grid,
    lead_key,
)
from .weyl import BgElement, MonomialModel


# -- twists and the canonical generator ---------------------------------------

def _check_twist(model: MonomialModel, G):
    coeffs = int_tuple(G, "twist")
    if len(coeffs) != model.r:
        raise InputError(
            f"twist must be supported on the {model.r} divisor components, got {coeffs}"
        )
    if any(c < 0 for c in coeffs):
        raise InputError(f"twist must be effective, got {coeffs}")
    return coeffs


def sigma_generator(model: MonomialModel, alpha) -> BgElement:
    """Image of the canonical top-degree generator: a_1...a_r y^b dy delta."""
    b = b_vector(model, alpha)
    coeff = 1
    for a in model.a:
        coeff *= a
    return BgElement(model.n, {(b, 0): Fraction(coeff)})


# -- graded (symbol-level) cohomology ----------------------------------------

def _compositions(total, k):
    """All tuples in Z^k_{>=0} with the given sum."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _check_d_squared(a, omega, bases, rows):
    """Raise VerificationError unless d d = 0 on the core of exponents a at
    omega, given the bases and rows CoreCohomology._assemble built."""
    for W, (first, then) in enumerate(zip(rows, rows[1:])):
        for label, row in zip(bases[W], first):
            twice = {}
            for t, c in row.items():
                for u, v in then[t].items():
                    twice[u] = twice.get(u, 0) + c * v
            if any(twice.values()):
                raise VerificationError(
                    f"the Koszul core of a = {list(a)} has d d != 0 at omega = {omega} "
                    f"on the wedge-degree {W} label {label}"
                )


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
    w - tlo >= thi - tlo.  So dims takes the translation class
    (omega - |tlo|, thi - tlo), which GradedCbar.point_grid builds, and
    caches by it: each class goes to cohomology once.  The differential only
    raises w, so the labels with w >= thi span a subcomplex, and the
    quotient's matrices are the untruncated ones with the rows of those
    sources and the entries of those targets dropped: the untruncated
    complex of each omega is assembled once (_complexes) and each class of
    that omega goes as its restriction.
    """

    def __init__(self, a_core):
        self.a = tuple(a_core)
        self.r = len(self.a)
        self.lcm = math.lcm(*self.a)
        self._cache = {}
        self._complexes = {}

    def _assemble(self, omega):
        """(bases, rows) of the untruncated omega: per wedge W, the labels
        (S, w) with |w| = omega + W and the integer rows of d: W -> W+1.
        cohomology reads ranks only, so d d = 0 is checked here, once per
        omega: a nonzero composite is a VerificationError."""
        r = self.r
        bases = [[(S, w) for S in itertools.combinations(range(1, r), W) for w in _compositions(omega + W, r)]
                 for W in range(r)]
        rows = []
        for W in range(r - 1):
            tgt = {lbl: k for k, lbl in enumerate(bases[W + 1])}
            rows.append([])
            for S, w in bases[W]:
                row = {}
                for k in range(1, r):
                    if k in S:
                        continue
                    T, sign = wedge(S, k)
                    for coord, coeff in ((k, sign * self.lcm // self.a[k]),
                                         (0, -sign * self.lcm // self.a[0])):
                        wk = list(w)
                        wk[coord] += 1
                        row[tgt[T, tuple(wk)]] = coeff
                rows[-1].append(row)
        _check_d_squared(self.a, omega, bases, rows)
        return bases, rows

    def dims(self, omega, thi=None):
        """{cohomological degree: dim} of the translation class
        (omega, thi), at tlo = 0 (thi is None without a quotient); a
        signature (omega', tlo, thi') has the class
        (omega' - |tlo|, thi' - tlo)."""
        key = (omega, thi)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if omega not in self._complexes:
            self._complexes[omega] = self._assemble(omega)
        bases, rows = self._complexes[omega]
        if thi is None:
            dims = cohomology(list(map(len, bases)), rows)
        else:
            keep = [[any(map(operator.lt, w, thi)) for _, w in b] for b in bases]
            dims = cohomology(list(map(sum, keep)), [
                [{c: v for c, v in row.items() if tgt[c]} for row in itertools.compress(src, kept)]
                for src, kept, tgt in zip(rows, keep, keep[1:])
            ])
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


def _gather(blocks, columns, join):
    """Per-combination blocks (one per combination, in mixed radix order:
    point_grid's, or the verdicts of minexp._colon_grid) joined into box
    order by per-coordinate index columns: column by column from the last,
    each combination of the columns before it joins its blocks in the
    order of that column's indices, so one join per such combination."""
    for ks in reversed(columns):
        m = max(ks) + 1
        blocks = [join(map(blocks[k:k + m].__getitem__, ks)) for k in range(0, len(blocks), m)]
    return blocks[0]


def _spread(table, at, columns, gates, off):
    """The table entry of each point, repeated over the free-coordinate
    gates, off where a gate is closed: a list in box order.  Each table
    entry's row over the gates is built once, and the rows are gathered
    per combination and joined as the H^0 bytes are."""
    rows = [[v if g else off for g in gates] for v in table]
    blocks = list(map(rows.__getitem__, at))
    return _gather(blocks, columns, lambda parts: list(itertools.chain.from_iterable(parts)))


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
        self._box = None, None  # the last box asked and its _box_columns

    def _box_columns(self, box: TruncationBox):
        """The part of point_grid that no p reads: the gates d_j >= 0 of
        the free coordinates in box order, whether any is open, and per
        divisor coordinate i the unclamped bounds max(c_i - 1 - x, 0) over
        the box's axis, for the twist and for the deeper one (None without a
        quotient)."""
        n, r = self.model.n, self.model.r
        axes = [range(lo, hi + 1) for lo, hi in zip(box.lo, box.hi)]
        gates = [all(g) for g in itertools.product(*([x >= 0 for x in axes[j]] for j in range(r, n)))]

        def bounds(c):
            return None if c is None else [[max(c[i] - 1 - x, 0) for x in axes[i]] for i in range(r)]

        return gates, any(gates), bounds(self.c_lo), bounds(self.c_hi)

    def point_grid(self, p, box: TruncationBox):
        """(table, at, columns, gates): the core result of each distinct
        translation class, once; for each combination of the distinct
        bounds of the divisor coordinates, the index of its result in table
        (`at`); per divisor coordinate i, the index of each x of the box's
        axis among the distinct bounds of i (`columns[i]`); and the gates
        d_j >= 0 of the free coordinates, in box order.  A point's
        combination is its columns' indices in mixed radix, in product
        order, so the locus (point, gate) has table[at[combination]] where
        its gate holds and no cohomology elsewhere; nothing here is per
        point.  _gather joins per-combination blocks into box order from
        these columns.

        A point enters only through the clamped truncation bounds
        min(max(c_i - 1 - d_i, 0), cap + 1) of each divisor coordinate i,
        tlo_i for c the twist and thi_i for c the deeper one (no thi
        without a quotient).  Only the clamp reads p: per p, each unclamped
        list of _box_columns (kept for the last box asked) is clamped into
        a column of tlo_i, or of (tlo_i, thi_i).  Each bound takes at most
        cap + 2 values, so the column has few distinct entries.  Column by
        column, each combination of distinct entries also gets its
        translation class, which is what CoreCohomology.dims takes:
        omega - |tlo|, or (omega - |tlo|, thi - tlo) with a quotient.  The
        core is looked up once per class, except a quotient class with
        every thi_i - tlo_i = 0, whose quotient is 0 and whose entry is {}.
        """
        if self._box[0] != (box.lo, box.hi):
            self._box = (box.lo, box.hi), self._box_columns(box)
        gates, any_open, lows, highs = self._box[1]
        omega = p + self.model.n - self.model.r
        cap = omega + self.model.r - 1
        if cap < 0 or not any_open:
            return [{}], [0], [[0] * len(bounds) for bounds in lows], gates

        top = cap + 1
        columns, keys = [], [omega] if highs is None else [(omega, ())]
        for i, bounds in enumerate(lows):
            tlo = [min(t, top) for t in bounds]
            column = tlo if highs is None else list(zip(tlo, [min(t, top) for t in highs[i]]))
            index = {b: k for k, b in enumerate(dict.fromkeys(column))}
            columns.append(list(map(index.__getitem__, column)))
            if highs is None:
                keys = [o - lo for o in keys for lo in index]
            else:
                keys = [(o - lo, t + (hi - lo,)) for o, t in keys for lo, hi in index]
        dims = self.core.dims
        # class -> index in table, in the order of first appearance
        of_class = {key: k for k, key in enumerate(dict.fromkeys(keys))}
        if highs is None:
            table = list(map(dims, of_class))
        else:
            table = [dims(o, thi) if any(thi) else {} for o, thi in of_class]
        return table, list(map(of_class.__getitem__, keys)), columns, gates


# -- resolution sweeps --------------------------------------------------------
#
# A sweep compares whole box-order bytes: the H^0 bytes against the count
# grid with one bytes ==, the off-degree check once per distinct core result.
# When the bytes do not pass a (level, p), _scan's first failing locus fails it.

def _acyclic(h):
    return not any(q < 0 and dim for q, dim in h.items())


def _concentrated(h):
    return not any(q != 0 and dim for q, dim in h.items())


def _h0_bytes(table, at, columns, gates):
    """The H^0 dims in box order as bytes, each clamped to min(H^0, 2):
    every grid it is compared with is 0/1, so the clamp keeps each
    comparison exact, and a failing sweep reads the true dims from the
    table.  One row over the gates per clamped value, gathered per
    combination and joined by _gather."""
    gates = bytes(gates)
    rows = [gates.translate(bytes((0, v)) + bytes(254)) for v in range(3)]
    rows = [rows[min(h.get(0, 0), 2)] for h in table]
    return _gather(list(map(rows.__getitem__, at)), columns, b"".join)


def _scan(p, box, grid, want, ok, names, lead=None):
    """The failing loci in box order, as (check name, fields), checking at
    each locus, in this order: `ok` on its cohomology, its H^0 against
    `want`, and, given `lead`, that lead(d) holds where H^0 != 0 (the class
    exists and leads right).  `grid` is point_grid's (table, at, columns,
    gates); `names` are the check names and the name of the count field."""
    off, dims, count, sigma = names
    for d, h, x in zip(box, _spread(*grid, {}), want):
        h0 = h.get(0, 0)
        if not ok(h):
            cohomology = {str(q): v for q, v in sorted(h.items())}
            yield off, dict(p=p, degree=list(d), cohomology=cohomology)
        elif h0 != x:
            yield dims, {"p": p, "degree": list(d), "H0": h0, count: x}
        elif lead is not None and h0 and not lead(d):
            yield sigma, dict(p=p, degree=list(d))


_THM42I = ("thm42i-acyclicity", "thm42i-H0-dims", "count45", "thm42i-sigma-injective")
_THM42II = ("thm42ii-concentration", "thm42ii-H0-dims", "grV_count", None)


def verify_thm42_i(model: MonomialModel, alpha, p_range, box: TruncationBox):
    """Graded acyclicity off degree 0 and the sigma-bar match of H^0 with the
    Gr^F_{p-1} V_{-alpha} count, per multidegree in the box; where H^0 is
    nonzero the class representative must lead with dt-order p - 1 + n."""
    _check_box(model, box)
    lvl = Level(model, alpha)
    gc = GradedCbar(model, lvl.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        grid = gc.point_grid(p, box)
        h0 = _h0_bytes(*grid)
        want = gr_count_grid(lvl, p - 1, box)
        top = p - 1 + model.n
        seen = {}  # lead key -> lead ok: loci sharing a key share the orders

        def lead_ok(key, u0, w):
            ok = seen.get(key)
            if ok is None:
                orders = _expansion_orders(model, u0, w, 0)[0]
                ok = seen[key] = max(orders, default=None) == top and bool(orders[top])
            return ok

        def lead(d):
            label = gr_label(lvl, p - 1, d)
            if label is None:
                return False
            u0, w = tuple(x + y for x, y in zip(lvl.b, label[0])), label[1]
            return lead_ok(lead_key(u0, w), u0, w)

        nonzero = len(h0) - h0.count(0)
        passed = all(map(_acyclic, grid[0])) and h0 == want
        if passed:
            leads = gr_label_leads(lvl, p - 1, box)
            passed = sum(points for _, _, points in leads.values()) == nonzero and all(
                lead_ok(key, u0, w) for key, (u0, w, _) in leads.items()
            )
        if not passed:
            what = f"thm42i: the H^0 bytes at p = {p} differ from the count grid and its leads"
            return _first_failure(report, _scan(p, box, grid, want, _acyclic, _THM42I, lead), what)
        _check(report, "thm42i", p=p, alpha=format_rational(lvl.alpha), nonzero_H0_loci=nonzero)
    return report


def verify_thm42_ii(model: MonomialModel, alpha, p_range, box: TruncationBox):
    """The quotient complex is concentrated in degree 0 with H^0 matching
    Gr^F_{p-1} Gr^V_{-alpha} per multidegree."""
    _check_box(model, box)
    lvl = Level(model, alpha)
    gq = GradedCbar(model, lvl.twist, lvl.deeper.twist)
    report = {"status": "PASS", "checks": []}
    for p in p_range:
        grid = gq.point_grid(p, box)
        h0 = _h0_bytes(*grid)
        want = grF_grV_grid(lvl, p - 1, box)
        passed = all(map(_concentrated, grid[0])) and h0 == want
        if not passed:
            what = f"thm42ii: the H^0 bytes at p = {p} differ from the Gr^F Gr^V count grid"
            return _first_failure(report, _scan(p, box, grid, want, _concentrated, _THM42II), what)
        _check(report, "thm42ii", p=p, alpha=format_rational(lvl.alpha), total_H0=sum(h0))
    return report
