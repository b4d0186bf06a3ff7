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

import pytest

from minexp_lab import derham, koszul, rationals, vfilt
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
    """vfilt._Members.span_count one short wherever it is above 1.  The
    spanning family and both counts of the t-onto comparison that read it
    shrink together; the up level's Gr^F count grids do not."""
    inner = vfilt._Members.span_count

    def planted(self, d):
        count = inner(self, d)
        return count - 1 if count > 1 else count

    monkeypatch.setattr(vfilt._Members, "span_count", planted)


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


_ALL = set(MODELS)
_NOT_R1 = _ALL - {(3, (3,))}

# kernel -> (plant, {command: the models on which it must exit 2})
PLANTS = {
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
    "vfilt._Members.span_count": (_shorten_span_count, {"verify-axioms": _ALL}),
    "vfilt.member_key": (
        _shift_member_key,
        {"verify-axioms": _ALL, "verify-cor23": {(3, (3,))}},
    ),
}

# kernel -> the test that holds its row
INDEXED = {
    "vfilt._WeightTable.limits": "test_cli::test_support_point_without_a_class_is_a_fail",
    "derham._quotient_count_grid": "test_derham::test_planted_quotient_count_names_its_degree",
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kernel", sorted(PLANTS))
def test_plant_fails_exactly_the_named_commands(kernel, command, monkeypatch):
    plant, fails = PLANTS[kernel]
    plant(monkeypatch)
    codes = {}
    for n, exponents in MODELS:
        config = {"command": command, "model": {"n": n, "exponents": list(exponents)}, "box": 3}
        codes[(n, exponents)] = run(config)[1]
    assert codes == {model: 2 if model in fails.get(command, ()) else 0 for model in MODELS}


def test_indexed_rows_are_held():
    for kernel, where in INDEXED.items():
        module, name = where.split("::")
        assert callable(getattr(importlib.import_module(module), name, None)), kernel
