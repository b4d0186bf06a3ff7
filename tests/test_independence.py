"""The independence audit: one planted fault per shared kernel, and every
verify command that must FAIL under it.

A PASS is only as strong as the independence of its two sides.  Each row of
PLANTS plants one fault in a kernel that several checks read, and names the
verify commands that must exit 2 on each model of MODELS, at box 3 with the
default alphas; every other verify command must still pass there.  A plant
that no command catches is a finding: either the kernel is redundant, or a
comparison reads the same thing on both sides.  Rows that another test
already holds are indexed in INDEXED, not copied.
"""

import importlib
import pkgutil

import pytest

import minexp_lab
from minexp_lab import axioms, derham, koszul, rationals, vfilt, weyl
from minexp_lab.cli import run

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

# kernel -> (plant, {command: the models on which it must exit 2})
PLANTS = {
    "axioms._Members.span_count": (_shorten_span_count, {"verify-axioms": _ALL}),
    "derham._LevelComplexes._inside": (
        _clear_twist_locus,
        {"verify-cor51": _ALL, "verify-cor23": _NOT_R1, "verify-cor24": _NOT_R1},
    ),
    "derham.grF_grV_support": (_drop_last_support_point, {"verify-cor51": _ALL}),
    "koszul.GradedCbar._box_columns": (_raise_last_twist_bound, {"verify-thm42": _ALL}),
    "rationals.cohomology": (
        _leave_last_map_unranked,
        {"verify-cor51": _ALL, "verify-thm42": _NOT_R1},
    ),
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


def test_orders_dy_row_plants_every_name():
    # every module of the package that holds a name of the kernel is planted
    holders = {
        info.name
        for info in pkgutil.iter_modules(minexp_lab.__path__)
        if hasattr(importlib.import_module(f"minexp_lab.{info.name}"), "_orders_dy")
    }
    assert holders == set(ORDERS_DY_BY_NAME)


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


def test_indexed_rows_are_held():
    for kernel, where in INDEXED.items():
        module, name = where.split("::")
        assert callable(getattr(importlib.import_module(module), name, None)), kernel
