"""SNC divisor combinatorics: rounding, jumps, lct, multiplier ideals."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from minexp_lab.divisors import (
    ResolutionNumerics,
    SncDivisor,
    jump_candidates,
    lct_from_resolution,
    next_candidate,
)
from minexp_lab.rationals import INF, InputError, format_rational, parse_rational

from oracles import _check_alpha, round_gt, round_up


def multiplier_ideal_snc(D: SncDivisor, lam) -> SncDivisor:
    """Monomial exponent vector floor(lam*D) of the multiplier ideal when the
    divisor is itself the SNC monomial divisor (the resolution is the
    identity); the ideal is trivial iff all entries are 0."""
    lam = _check_alpha(lam)
    return SncDivisor(math.floor(lam * a) for a in D)


def divisor_is_zero(D: SncDivisor) -> bool:
    return all(c == 0 for c in D.coeffs)


def divisor_to_json(D: SncDivisor):
    return {"coeffs": list(D.coeffs)}


def divisor_from_json(obj) -> SncDivisor:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError("divisor JSON must be {\"coeffs\": [...]}")
    return SncDivisor(obj["coeffs"])


def test_lct_examples():
    assert lct_from_resolution([(1, 0)]) == 1
    assert lct_from_resolution([(3, 0)]) == F(1, 3)
    pairs = [(1, 0), (2, 1), (3, 2), (6, 4)]
    # oracle: enumerate the quotients by hand and take the minimum
    quotients = [F(k + 1, a) for a, k in pairs]
    assert quotients == [F(1), F(1), F(1), F(5, 6)]
    assert lct_from_resolution(pairs) == min(quotients) == F(5, 6)


def test_lct_input_errors():
    with pytest.raises(InputError):
        lct_from_resolution([])
    with pytest.raises(InputError):
        lct_from_resolution([(0, 1)])
    with pytest.raises(InputError):
        ResolutionNumerics([(2, -1)])


def test_round_up_examples():
    D = SncDivisor([2, 3])
    assert round_up(D, F(1, 2)).coeffs == (1, 2)
    assert round_up(D, 0).coeffs == (0, 0)
    assert round_up(D, 1).coeffs == (2, 3)
    with pytest.raises(InputError):
        round_up(D, F(-1, 2))


def test_round_gt_examples():
    D = SncDivisor([2, 3])
    assert round_gt(D, F(1, 2)).coeffs == (2, 2)
    assert round_gt(D, 0).coeffs == (1, 1)
    assert round_gt(SncDivisor([2]), F(1, 2)).coeffs == (2,)
    with pytest.raises(InputError):
        round_gt(D, -1)


def test_jump_candidates_examples():
    D = SncDivisor([2, 3])
    assert jump_candidates(D, 0, 1) == [F(1, 3), F(1, 2), F(2, 3), F(1)]
    assert jump_candidates(SncDivisor([1]), 0, 1) == [F(1)]
    assert jump_candidates(D, 0, F(1, 3)) == [F(1, 3)]
    with pytest.raises(InputError):
        jump_candidates(D, 1, 1)
    with pytest.raises(InputError):
        jump_candidates(D, F(1, 2), F(1, 3))


def test_multiplier_ideal_examples():
    assert multiplier_ideal_snc(SncDivisor([1, 1]), F(1, 2)).coeffs == (0, 0)
    assert multiplier_ideal_snc(SncDivisor([2]), F(1, 2)).coeffs == (1,)
    assert multiplier_ideal_snc(SncDivisor([2, 3]), F(5, 6)).coeffs == (1, 2)
    with pytest.raises(InputError):
        multiplier_ideal_snc(SncDivisor([2]), -1)


def test_multiplier_ideal_detects_lct():
    # triviality of floor(lam*D) flips exactly at the lct of the SNC model
    for coeffs in [(1,), (2,), (2, 3), (1, 1, 4)]:
        D = SncDivisor(coeffs)
        lct = lct_from_resolution([(a, 0) for a in coeffs])
        for lam in [F(0), lct / 2, lct - F(1, 100), lct, lct + F(1, 100), F(1)]:
            trivial = divisor_is_zero(multiplier_ideal_snc(D, lam))
            assert trivial == (lam < lct)


coeff_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4)
alphas = st.fractions(min_value=0, max_value=3)


@given(coeff_lists, alphas, alphas)
def test_round_monotonicity(coeffs, a, b):
    D = SncDivisor(coeffs)
    lo, hi = min(a, b), max(a, b)
    assert round_up(D, lo) <= round_up(D, hi)
    assert round_gt(D, lo) <= round_gt(D, hi)


@given(coeff_lists, alphas)
def test_round_periodicity(coeffs, a):
    D = SncDivisor(coeffs)
    assert round_up(D, a + 1).coeffs == (round_up(D, a) + D).coeffs


@given(coeff_lists, alphas)
def test_round_gt_is_right_limit(coeffs, a):
    # round_gt(D, a) = round_up(D, a + eps) for all small eps > 0
    D = SncDivisor(coeffs)
    eps = F(1, 2 * max(coeffs) * (a.denominator if a else 1) + 1)
    assert round_gt(D, a).coeffs == round_up(D, a + eps).coeffs


@given(coeff_lists, st.fractions(min_value=0, max_value=2))
def test_jump_consistency(coeffs, a):
    # round_up is constant on (c_prev, c] and round_gt(D, a) = round_up(D, c_next)
    D = SncDivisor(coeffs)
    cands = jump_candidates(D, 0, 3)
    up = [c for c in cands if c <= a]
    if a > 0:
        c = min([c for c in cands if c >= a], default=None)
        if c is not None:
            assert round_up(D, a).coeffs == round_up(D, c).coeffs
    c_next = next_candidate(D, a)
    assert round_gt(D, a).coeffs == round_up(D, c_next).coeffs


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=9)
        ),
        min_size=1,
        max_size=5,
    ),
    st.fractions(min_value=0, max_value=4),
)
def test_lct_characterization(pairs, a):
    # lct > a  iff  floor(a*a_i) <= k_i for all i
    lct = lct_from_resolution(pairs)
    assert (lct > a) == all(math.floor(a * ai) <= ki for ai, ki in pairs)


def test_divisor_json_roundtrip():
    D = SncDivisor([2, 3])
    assert divisor_to_json(D) == {"coeffs": [2, 3]}
    assert divisor_from_json(divisor_to_json(D)) == D
    with pytest.raises(InputError):
        divisor_from_json({"c": [1]})


def test_rational_serialization():
    assert format_rational(F(5, 6)) == "5/6"
    assert format_rational(F(2)) == "2"
    assert format_rational(INF) == "inf"
    assert parse_rational("5/6") == F(5, 6)
    assert parse_rational("inf") == INF
    with pytest.raises(InputError):
        parse_rational("x/y")


def test_infinity_total_order():
    vals = [F(0), F(5, 6), F(10**9), INF]
    assert sorted(vals) == vals
    assert INF == INF and not INF < INF and INF <= INF
    assert all(v < INF and INF > v for v in vals[:-1])
