"""The independence audit: one planted fault per shared kernel, and every
verify command that must FAIL under it.

A PASS is only as strong as the independence of its two sides.  Each row of
PLANTS plants one fault in a kernel that several checks read, and names the
verify commands that must exit 2 on each model of MODELS, at box 3 with the
default alphas; every other verify command must still pass there.  A plant
that no command catches is a finding: either the kernel is redundant, or a
comparison reads the same thing on both sides.  It keeps its row, with no
command named, so that a change that makes some command catch it shows.
Rows that another test already holds are indexed in INDEXED, not copied.
"""

import importlib
import pkgutil

import pytest

import minexp_lab
from minexp_lab import axioms, cbar, derham, koszul, minexp, rationals, vfilt, weyl
from minexp_lab.cli import run
from minexp_lab.rationals import VerificationError
from minexp_lab.vfilt import _first_failure

MODELS = [(2, (2, 3)), (3, (1, 2, 2)), (2, (1, 2)), (3, (2, 2, 3)), (3, (3,))]
COMMANDS = ["verify-cor51", "verify-cor23", "verify-cor24", "verify-thm42", "verify-axioms"]


def _clear_twist_locus(monkeypatch):
    """_LevelComplexes._inside with the byte of D = (twist, 0, ..., 0)
    cleared: the scatter drops every term there.  That locus carries a
    class on both sides; a cleared byte at the origin, where both sides
    are 0, is caught by nothing."""
    init = derham._LevelComplexes.__init__

    def planted(self, lvl, box):
        init(self, lvl, box)
        D = lvl.twist + (0,) * (lvl.model.n - lvl.model.r)
        at = sum((x - lo + 1) * s for x, lo, s in zip(D, box.lo, self._wide))
        self._inside = self._inside[:at] + b"\0" + self._inside[at + 1 :]

    monkeypatch.setattr(derham._LevelComplexes, "__init__", planted)


def _drop_last_support_point(monkeypatch):
    """derham's grF_grV_support without its last point."""
    inner = derham.grF_grV_support

    def planted(lvl, p, box):
        points, ws = inner(lvl, p, box)
        return points[:-1], ws[:-1]

    monkeypatch.setattr(derham, "grF_grV_support", planted)


def _raise_last_twist_bound(monkeypatch):
    """GradedCbar._box_columns with the twist bound of divisor coordinate 0
    at the box's last x raised by one."""
    inner = koszul.GradedCbar._box_columns

    def planted(self, box):
        gates, any_open, lows, highs = inner(self, box)
        lows[0][-1] += 1
        return gates, any_open, lows, highs

    monkeypatch.setattr(koszul.GradedCbar, "_box_columns", planted)


def _raise_last_weight_sum(monkeypatch):
    """vfilt._WeightTable with the sum of its last point past the first
    coordinate (every coordinate at hi, sum 0 on these boxes) raised by
    one, and its rows built from the raised sums; the grid cache is emptied
    first, or a warm one serves unplanted tables."""
    init = vfilt._WeightTable.__init__

    def planted(self, lvl, box):
        init(self, lvl, box)
        self.sums[-1] += 1
        self.rows = vfilt._Rows(self.sums)

    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt._WeightTable, "__init__", planted)


def _flip_first_byte_of_row_zero(monkeypatch):
    """vfilt._Rows with the first byte of the row at limit 0 flipped: the
    first point past the first coordinate (every coordinate at lo) turns
    on wherever the limit is 0."""
    missing = vfilt._Rows.__missing__

    def planted(self, limit):
        row = missing(self, limit)
        if limit == 0:
            row = self[limit] = bytes((row[0] ^ 1,)) + row[1:]
        return row

    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt._Rows, "__missing__", planted)


def _lower_first_group_count(monkeypatch):
    """vfilt._WeightTable.groups with the point count of its first group
    one lower.  Only gr_label_leads reads the counts, and only Thm 4.2 (i)
    sums them, to let a (level, p) pass without visiting a locus; a wrong
    sum fails the compare where no locus fails, a verification-error."""
    groups = vfilt._WeightTable.groups.func

    def planted(self):
        (s, w, points), *rest = groups(self)
        return [(s, w, points - 1)] + rest

    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt._WeightTable, "groups", property(planted))


def _flip_middle_h0_byte(monkeypatch):
    """koszul._h0_bytes with its middle byte flipped: the origin of a
    radius box.  The per-locus scan reads the table itself, so the Thm 4.2
    compare fails where no locus does, a verification-error."""
    inner = koszul._h0_bytes

    def planted(*grid):
        out = inner(*grid)
        k = len(out) // 2
        return out[:k] + bytes((out[k] ^ 1,)) + out[k + 1 :]

    monkeypatch.setattr(koszul, "_h0_bytes", planted)


def _drop_h0_at_omega_zero(monkeypatch):
    """koszul.CoreCohomology.dims without H^0 at omega = 0; the core cache
    is emptied first, or a warm one serves unplanted dims."""
    inner = koszul.CoreCohomology.dims

    def planted(self, omega, thi=None):
        dims = inner(self, omega, thi)
        return {q: v for q, v in dims.items() if q} if omega == 0 else dims

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(koszul.CoreCohomology, "dims", planted)


def _no_class_on_the_divisor_origin(monkeypatch):
    """derham's gr_class_rep (the only module that reads it) with no class
    where every divisor coordinate is 0, a Gr^F Gr^V support point on every
    model (the origin itself is one only when r > 1: at r = 1 the class of
    its lead key is built at an earlier point)."""
    inner = derham.gr_class_rep

    def planted(lvl, p, d):
        return None if not any(d[: lvl.model.r]) else inner(lvl, p, d)

    monkeypatch.setattr(derham, "gr_class_rep", planted)


def _flip_colon_grid_at_origin(monkeypatch):
    """minexp._colon_grid with its middle byte flipped: the origin of a
    radius box, a locus inside the gate d >= -p a of every p."""
    inner = minexp._colon_grid

    def planted(deeper, p, box, expected):
        grid = inner(deeper, p, box, expected)
        k = len(grid) // 2
        return grid[:k] + bytes((grid[k] ^ 1,)) + grid[k + 1 :]

    monkeypatch.setattr(minexp, "_colon_grid", planted)


def _shift_member_key(monkeypatch):
    """vfilt.member_key reading d_0 + 1 for d_0."""
    inner = vfilt.member_key

    def planted(lvl, d):
        return inner(lvl, (d[0] + 1,) + tuple(d[1:]))

    monkeypatch.setattr(vfilt, "member_key", planted)


def _shorten_span_count(monkeypatch):
    """axioms._Members.span_count one short wherever it is above 1.  The
    spanning family and both counts of the t-onto comparison that read it
    shrink together; the up level's Gr^F count grids do not."""
    inner = axioms._Members.span_count

    def planted(self, d):
        count = inner(self, d)
        return count - 1 if count > 1 else count

    monkeypatch.setattr(axioms._Members, "span_count", planted)


def _leave_last_map_unranked(monkeypatch):
    """rationals.cohomology with the last map of every complex ranked 0,
    planted under both names it is imported by (derham and koszul); the
    core cache is emptied first, or a warm one serves unplanted dims."""
    inner = rationals.cohomology

    def planted(sizes, maps):
        return inner(sizes, list(maps[:-1]) + [[]] if maps else maps)

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(derham, "cohomology", planted)
    monkeypatch.setattr(koszul, "cohomology", planted)


# every module that holds a name of rationals.wedge
WEDGE_HOLDERS = (rationals, koszul, derham, cbar)


def _commutative_wedge(monkeypatch):
    """rationals.wedge with every sign +1, planted under every name of it;
    the core cache is emptied first, or a warm one serves unplanted dims."""
    inner = rationals.wedge

    def planted(S, k):
        return inner(S, k)[0], 1

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    for module in WEDGE_HOLDERS:
        monkeypatch.setattr(module, "wedge", planted)


def _add_five_at_middle_entry(monkeypatch):
    """derham.box_list with 5 added at its middle entry, the origin of a
    radius box.  Only the one-== compares read it (Cor 5.1's table and
    Cor 2.4's H^0), and their locus scans read the tables themselves: a
    compare that fails where no locus does is a verification-error."""
    inner = derham.box_list

    def planted(dims, box):
        out = inner(dims, box)
        out[len(out) // 2] += 5
        return out

    monkeypatch.setattr(derham, "box_list", planted)


def _lower_growth_steps(monkeypatch):
    """vfilt._expansion_orders with each d_{y_i} step taken at d_i one
    lower, step by step from dy delta, under both names of it (vfilt's and
    koszul's)."""
    def planted(model, u0, w, jmax):
        orders, d = {0: 1}, [x - 1 for x in u0]
        for i, wi in enumerate(w):
            for _ in range(wi):
                orders = weyl._orders_dy(orders, model, d, i)
                d[i] -= 1
        out = [orders]
        while len(out) <= jmax:
            out.append(weyl._theta_orders(out[-1]))
        return out

    monkeypatch.setattr(vfilt, "_expansion_orders", planted)
    monkeypatch.setattr(koszul, "_expansion_orders", planted)


def _orders_dy_without_lift(orders, model, d, i):
    """weyl._orders_dy without its dt-raising term: u.d_{y_i} keeps only
    -v_i y^{v-e_i} dy dt^m delta, with v_i = d_i + m a_i."""
    ai = model.a[i] if i < model.r else 0
    return {m: -(d[i] + m * ai) * c for m, c in orders.items() if d[i] + m * ai}


def _drop_orders_dy_lift(*modules):
    """The plant of _orders_dy without its lift under each of these modules'
    names of it; the expansion cache is emptied first, or a warm one serves
    unplanted orders."""
    def plant(monkeypatch):
        monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
        for module in modules:
            monkeypatch.setattr(module, "_orders_dy", _orders_dy_without_lift)

    return plant


_ALL = set(MODELS)
_NOT_R1 = _ALL - {(3, (3,))}
_A1_ABOVE_1 = {model for model in MODELS if model[1][0] > 1}

# kernel -> (plant, {command: the models on which it must exit 2})
PLANTS = {
    "axioms._Members.span_count": (_shorten_span_count, {"verify-axioms": _ALL}),
    "derham._LevelComplexes._inside": (
        _clear_twist_locus,
        {"verify-cor51": _ALL, "verify-cor23": _NOT_R1, "verify-cor24": _NOT_R1},
    ),
    # verify-cor23 runs cor24_check at every gated p, so it exits 2 too
    "derham.box_list": (
        _add_five_at_middle_entry,
        {"verify-cor51": _ALL, "verify-cor23": _ALL, "verify-cor24": _ALL},
    ),
    "derham.grF_grV_support": (_drop_last_support_point, {"verify-cor51": _ALL}),
    "koszul.CoreCohomology.dims": (_drop_h0_at_omega_zero, {"verify-thm42": _ALL}),
    "koszul.GradedCbar._box_columns": (_raise_last_twist_bound, {"verify-thm42": _ALL}),
    "koszul._h0_bytes": (_flip_middle_h0_byte, {"verify-thm42": _ALL}),
    "minexp._colon_grid": (_flip_colon_grid_at_origin, {"verify-cor23": _ALL}),
    "rationals.cohomology": (
        _leave_last_map_unranked,
        {"verify-cor51": _ALL, "verify-thm42": _NOT_R1},
    ),
    # the Koszul core of an r = 3 model has two generators, where a
    # commutative wedge only negates whole rows of one map: that keeps every
    # rank, which is all cohomology reads, but not d d = 0, which the core
    # assembly checks, so Thm 4.2 fails there (at r = 2 the core has one
    # map, and d d = 0 holds); Cor 5.1 fails only on the n = 3 models with
    # r > 1
    "rationals.wedge": (
        _commutative_wedge,
        {
            "verify-cor51": {(3, (1, 2, 2)), (3, (2, 2, 3))},
            "verify-thm42": {(3, (1, 2, 2)), (3, (2, 2, 3))},
        },
    ),
    # Cor 5.1 reads only the dims of its complexes, so a class rescaled by a
    # nonzero factor (a change of basis) would pass; a missing one does not
    "vfilt.gr_class_rep": (_no_class_on_the_divisor_origin, {"verify-cor51": _ALL}),
    # only the axioms read the lower dt-orders of an expansion: Thm 4.2 and
    # Cor 5.1, 2.3 and 2.4 read only its lead coefficients, and the lead of a
    # d_{y_i} step on the divisor, a_i times the old one, does not depend on d
    "vfilt._expansion_orders": (_lower_growth_steps, {"verify-axioms": _ALL}),
    "vfilt._Rows": (
        _flip_first_byte_of_row_zero,
        {
            "verify-cor51": _ALL, "verify-cor23": {(3, (3,))}, "verify-thm42": _ALL,
            "verify-axioms": _ALL,
        },
    ),
    "vfilt._WeightTable.sums": (
        _raise_last_weight_sum,
        {
            "verify-cor51": _ALL, "verify-cor23": _A1_ABOVE_1, "verify-cor24": _A1_ABOVE_1,
            "verify-thm42": _ALL, "verify-axioms": _ALL,
        },
    ),
    "vfilt._WeightTable.groups": (_lower_first_group_count, {"verify-thm42": _ALL}),
    "vfilt.member_key": (
        _shift_member_key,
        {"verify-axioms": _ALL, "verify-cor23": {(3, (3,))}},
    ),
    "weyl._orders_dy": (
        _drop_orders_dy_lift(weyl, vfilt, derham),
        {"verify-cor51": _ALL, "verify-thm42": _ALL, "verify-axioms": _ALL},
    ),
}

# kernel -> the test that holds its row
INDEXED = {
    "vfilt._WeightTable.limits": "test_cli::test_support_point_without_a_class_is_a_fail",
    "derham._quotient_count_grid": "test_derham::test_planted_quotient_count_names_its_degree",
}


# The weyl._orders_dy row per name: the module whose name of the kernel is
# planted alone -> {command: the models on which it must exit 2}.  axioms
# reads vfilt's name, so vfilt's alone fails verify-axioms too.
ORDERS_DY_BY_NAME = {
    "derham": {"verify-cor51": _ALL},
    "vfilt": {"verify-cor51": _ALL, "verify-thm42": _ALL, "verify-axioms": _ALL},
    "weyl": {"verify-thm42": _ALL},  # act_right, in Thm 4.2 (iii)
}


def _codes(command):
    """{model: exit code of `command` on it, at box 3}."""
    codes = {}
    for n, exponents in MODELS:
        config = {"command": command, "model": {"n": n, "exponents": list(exponents)}, "box": 3}
        codes[(n, exponents)] = run(config)[1]
    return codes


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kernel", sorted(PLANTS))
def test_plant_fails_exactly_the_named_commands(kernel, command, monkeypatch):
    plant, fails = PLANTS[kernel]
    plant(monkeypatch)
    codes = _codes(command)
    assert codes == {model: 2 if model in fails.get(command, ()) else 0 for model in MODELS}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(ORDERS_DY_BY_NAME))
def test_orders_dy_plant_per_name(name, command, monkeypatch):
    fails = ORDERS_DY_BY_NAME[name]
    _drop_orders_dy_lift(importlib.import_module(f"minexp_lab.{name}"))(monkeypatch)
    codes = _codes(command)
    assert codes == {model: 2 if model in fails.get(command, ()) else 0 for model in MODELS}


def _holders(name):
    """The modules of the package that hold a name `name`."""
    return {
        info.name
        for info in pkgutil.iter_modules(minexp_lab.__path__)
        if hasattr(importlib.import_module(f"minexp_lab.{info.name}"), name)
    }


def test_orders_dy_row_plants_every_name():
    # every module of the package that holds a name of the kernel is planted
    assert _holders("_orders_dy") == set(ORDERS_DY_BY_NAME)


def test_wedge_row_plants_every_name():
    assert _holders("wedge") == {module.__name__.rpartition(".")[2] for module in WEDGE_HOLDERS}


@pytest.mark.parametrize("exponents", [(1, 1, 1, 1), (2, 2, 2, 2)])
def test_commutative_wedge_fails_thm42_at_r4(exponents, monkeypatch):
    """At r = 4 the Koszul core has three generators, and a commutative
    wedge changes ranks too, but the core assembly's d d = 0 check fails
    first: one verification-error naming the core and its omega.  With that
    check left out, the rank checks catch it on their own: Thm 4.2 (i)
    reads negative cohomology dims, and (i) and (ii) fail."""
    _commutative_wedge(monkeypatch)
    config = {"command": "verify-thm42", "model": {"n": 4, "exponents": list(exponents)}, "box": 2}
    report, code = run(config)
    failed = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert code == 2 and [c["name"] for c in failed] == ["verification-error"]
    assert f"Koszul core of a = {list(exponents)} has d d != 0" in failed[0]["invariant"]

    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    monkeypatch.setattr(koszul, "_check_d_squared", lambda *args: None)
    report, code = run(config)
    failed = {c["name"] for c in report["checks"] if c["status"] == "FAIL"}
    assert code == 2 and failed == {"thm42i-acyclicity", "thm42ii-concentration"}


def test_class_that_leads_wrong_is_a_fail(monkeypatch):
    """gr_class_rep checks the lead of each class it builds: with vfilt's
    _orders_dy planted without its lift, verify-cor51 is one
    verification-error FAIL naming p, the degree and the dt-order, not a
    ValueError out of run()."""
    _drop_orders_dy_lift(vfilt)(monkeypatch)
    invariants = {}
    for n, exponents in MODELS:
        config = {"command": "verify-cor51", "model": {"n": n, "exponents": list(exponents)}, "box": 3}
        report, code = run(config)
        assert code == 2 and [c["name"] for c in report["checks"]] == ["verification-error"]
        invariants[(n, exponents)] = report["checks"][0]["invariant"]
    assert invariants == {
        (2, (2, 3)): "the Gr^F_-1 class at degree [1, -1] does not lead with dt-order 1",
        (3, (1, 2, 2)): "the Gr^F_-2 class at degree [0, 1, -1] does not lead with dt-order 1",
        (2, (1, 2)): "the Gr^F_-1 class at degree [1, -1] does not lead with dt-order 1",
        (3, (2, 2, 3)): "the Gr^F_-2 class at degree [1, 1, -1] does not lead with dt-order 1",
        (3, (3,)): "the Gr^F_-2 class at degree [-1, 2, 1] does not lead with dt-order 1",
    }


@pytest.mark.parametrize(
    "command, plant, check",
    [
        pytest.param(command, plant, check, id=command)
        for command, plant, check in [
            ("verify-thm42", _flip_middle_h0_byte, "thm42i"),
            ("verify-cor23", _flip_colon_grid_at_origin, "cor23"),
            ("verify-cor51", _add_five_at_middle_entry, "cor51"),
            ("verify-cor24", _add_five_at_middle_entry, "cor24"),
        ]
    ],
)
def test_compare_that_fails_where_no_locus_does_is_a_fail(command, plant, check, monkeypatch):
    """With a fast side planted, each sweep's one-== compare fails where its
    locus scan finds nothing: each report is one verification-error FAIL
    that names the check, not a traceback out of run() or a PASS."""
    plant(monkeypatch)
    for n, exponents in MODELS:
        config = {"command": command, "model": {"n": n, "exponents": list(exponents)}, "box": 3}
        report, code = run(config)
        assert code == 2 and [c["name"] for c in report["checks"]] == ["verification-error"]
        invariant = report["checks"][0]["invariant"]
        assert invariant.startswith(f"{check}: ") and invariant.endswith(" where no locus of the box does")


def test_thm42_ii_compare_that_fails_where_no_locus_does_raises(monkeypatch):
    """verify-thm42 stops at (i), so (ii) is held here on its own."""
    _flip_middle_h0_byte(monkeypatch)
    model, box = weyl.MonomialModel(2, [2, 3]), vfilt.TruncationBox.radius(2, 3)
    with pytest.raises(VerificationError, match=r"^thm42ii: .* where no locus of the box does$"):
        koszul.verify_thm42_ii(model, "1/2", range(-2, 4), box)


def test_first_failure_records_the_first_and_reads_no_further():
    """An empty scan raises with the `what` text; otherwise only the first
    failure is recorded, and the scan is not advanced past it."""
    with pytest.raises(VerificationError, match=r"^the sides differ where no locus of the box does$"):
        _first_failure({"status": "PASS", "checks": []}, iter(()), "the sides differ")
    read = []

    def failures():
        for k in range(3):
            read.append(k)
            yield f"check-{k}", {"k": k}

    report = _first_failure({"status": "PASS", "checks": [{"name": "before"}]}, failures(), "unused")
    assert report == {
        "status": "FAIL",
        "checks": [{"name": "before"}, {"name": "check-0", "status": "FAIL", "k": 0}],
    }
    assert read == [0]


def test_indexed_rows_are_held():
    for kernel, where in INDEXED.items():
        module, name = where.split("::")
        assert callable(getattr(importlib.import_module(module), name, None)), kernel
