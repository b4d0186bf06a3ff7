"""Relative log-form sequences, quotient-twist dimensions, and the graded
de Rham complexes of nearby cycles at the identity resolution."""

import random
from fractions import Fraction as F

import pytest

from minexp_lab.derham import (
    _dr_complex,
    gr_dr_psi,
    quotient_dims,
    relative_sequence_check,
    verify_cor51,
)
from minexp_lab.divisors import jump_candidates
from minexp_lab.rationals import InputError, exact_rank
from minexp_lab.vfilt import Level, TruncationBox
from minexp_lab.weyl import MonomialModel

Y2 = MonomialModel(1, [2])
Y3 = MonomialModel(1, [3])
Y11 = MonomialModel(2, [1, 1])
Y23 = MonomialModel(2, [2, 3])
BOX1 = TruncationBox.radius(1, 4)
BOX2 = TruncationBox.radius(2, 4)


def test_relative_sequence_examples():
    rep = relative_sequence_check(Y11, 1)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [1, 2, 1]
    rep = relative_sequence_check(Y2, 1)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [1, 1, 0]
    rep = relative_sequence_check(Y2, 0)
    assert rep["status"] == "PASS" and rep["checks"][0]["ranks"] == [0, 1, 1]
    with pytest.raises(InputError):
        relative_sequence_check(Y2, 2)


def test_relative_sequence_sweep():
    for model in [Y11, Y23, MonomialModel(3, [1, 2, 3]), MonomialModel(3, [4]),
                  MonomialModel(3, [2, 2, 2])]:
        for q in range(0, model.n + 1):
            rep = relative_sequence_check(model, q)
            assert rep["status"] == "PASS", (model, q, rep)
            assert rep["checks"][0]["composite_zero"]


def test_quotient_dims_examples():
    t = quotient_dims(Y2, F(1, 2), 0, True, BOX1)
    assert t.dims == {(1,): 1}  # (y)/(y^2)
    t = quotient_dims(Y11, F(1, 2), 1, True, BOX2)
    assert t.is_zero()  # no jump at 1/2
    t = quotient_dims(Y23, F(1, 3), 1, True, BOX2)
    # monomials v >= (1,1) but not >= (1,2): v = (k, 1), k >= 1; form rank 1
    for k in range(1, 5):
        assert t.get((k, 1)) == 1
    assert t.get((1, 2)) == 0 and t.get((0, 1)) == 0
    with pytest.raises(InputError):
        quotient_dims(Y2, 0, 0, True, BOX1)


def test_quotient_dims_form_rank_caps():
    # form degrees beyond the bundle rank vanish identically
    assert quotient_dims(Y23, F(1, 3), 2, True, BOX2).is_zero()  # rank C(1, 2) = 0
    assert quotient_dims(Y23, F(1, 3), 3, False, BOX2).is_zero()
    assert quotient_dims(Y23, F(1, 3), -1, True, BOX2).is_zero()


def test_gr_dr_psi_examples():
    t = gr_dr_psi(Y2, F(1, 2), 0, BOX1)
    assert t.dims == {((1,), 0): 1}
    # i = 0 at alpha = 1 for the reduced crossing matches quotient dims at q=1
    t = gr_dr_psi(Y11, F(1), 0, BOX2)
    q = quotient_dims(Y11, F(1), 1, True, BOX2)
    assert {d: v for (d, c), v in t.dims.items() if c == 0} == dict(q.dims)
    assert all(c == 0 for (_, c) in t.dims)
    # vanishing sweep below the minimal exponent
    t = gr_dr_psi(Y3, F(1, 3), -1, BOX1)
    assert t.is_zero()
    with pytest.raises(InputError):
        gr_dr_psi(Y2, F(3, 2), 0, BOX1)


def test_gr_dr_euler_characteristic():
    # per multidegree, the alternating sum of term dimensions equals the
    # alternating sum of cohomology dimensions
    rng = random.Random(2)
    for model in [Y2, Y23, Y11, MonomialModel(3, [1, 2, 2])]:
        n = model.n
        for alpha in jump_candidates(model.divisor(), 0, 1):
            for i in range(0, n):
                for _ in range(12):
                    D = tuple(rng.randint(-3, 4) for _ in range(n))
                    bases, mats = _dr_complex(Level(model, alpha), i, D)
                    ranks = [exact_rank(cols) for cols in mats]
                    euler_terms = sum(
                        (-1) ** qf * len(bases[qf]) for qf in range(n + 1)
                    )
                    euler_h = sum(
                        (-1) ** qf
                        * (
                            len(bases[qf])
                            - (ranks[qf] if qf < n else 0)
                            - (ranks[qf - 1] if qf > 0 else 0)
                        )
                        for qf in range(n + 1)
                    )
                    assert euler_terms == euler_h


def test_cor51_examples():
    rep = verify_cor51(Y2, F(1, 2), [0], BOX1)
    assert rep["status"] == "PASS"
    assert rep["checks"][0]["total_dim"] == 1
    rep = verify_cor51(Y11, F(1), [0, 1], BOX2)
    assert rep["status"] == "PASS"
    for alpha in jump_candidates(Y23.divisor(), 0, 1):
        rep = verify_cor51(Y23, alpha, [0, 1], BOX2)
        assert rep["status"] == "PASS", (alpha, rep)
    with pytest.raises(InputError):
        verify_cor51(Y2, F(2), [0], BOX1)


def test_cor51_three_variables():
    model = MonomialModel(3, [1, 2, 3])
    box = TruncationBox.radius(3, 3)
    for alpha in jump_candidates(model.divisor(), 0, 1):
        rep = verify_cor51(model, alpha, range(0, 3), box)
        assert rep["status"] == "PASS", (alpha, rep)
