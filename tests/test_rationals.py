"""The exact-rank routine against a plain Fraction Gaussian elimination,
the cohomology routine on small complexes, the wedge sign rule, and the
value classes built on Record."""

import itertools
import random
from fractions import Fraction as F

import pytest

from minexp_lab import rationals
from minexp_lab.divisors import ResolutionNumerics, SncDivisor
from minexp_lab.cbar import build_cbar
from minexp_lab.minexp import MinExpResult
from minexp_lab.rationals import INF, cohomology, exact_rank
from minexp_lab.vfilt import Level, TruncationBox, b_vector
from minexp_lab.weyl import BgElement, MonomialModel, WeylOperator


def _reference_rank(rows, ncols):
    """Row-reduce a dense Fraction copy of the matrix."""
    mat = [[F(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((k for k in range(rank, len(mat)) if mat[k][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for k in range(len(mat)):
            if k != rank and mat[k][col]:
                f = mat[k][col] / mat[rank][col]
                mat[k] = [x - f * y for x, y in zip(mat[k], mat[rank])]
        rank += 1
    return rank


def _random_rows(rng, ncols, fractions):
    def entry():
        num = rng.randint(-6, 6)
        return F(num, rng.randint(1, 5)) if fractions else num

    rows = []
    for _ in range(rng.randint(1, 6)):
        row = {c: entry() for c in rng.sample(range(ncols), rng.randint(1, ncols))}
        rows.append({c: x for c, x in row.items() if x})
    # planted dependent rows: combinations of the rows so far
    for _ in range(rng.randint(0, 3)):
        combo = {}
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            k = entry() or 1
            for c, x in row.items():
                combo[c] = combo.get(c, 0) + k * x
        rows.append({c: x for c, x in combo.items() if x})
    rows += [{} for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return rows


def test_exact_rank_against_fraction_elimination():
    rng = random.Random(1234)
    for trial in range(400):
        ncols = rng.randint(1, 7)
        rows = _random_rows(rng, ncols, fractions=trial % 2 == 1)
        before = [dict(r) for r in rows]
        assert exact_rank(rows) == _reference_rank(rows, ncols), rows
        assert rows == before  # the input is not modified


def test_exact_rank_edge_cases():
    assert exact_rank([]) == 0
    assert exact_rank([{}, {}, {0: 0, 3: F(0)}]) == 0  # zero matrix
    assert exact_rank([{0: F(1, 2), 1: F(1, 3)}, {0: 3, 1: 2}]) == 1
    assert exact_rank([{5: 2, 9: -4}, {9: 1}, {}]) == 2


def _counted_ranks(monkeypatch):
    """rationals.exact_rank, counted: returns the list of the row counts
    of every call cohomology makes."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(rationals, "exact_rank", counted)
    return calls


def test_cohomology_of_an_exact_sequence_is_zero(monkeypatch):
    # 0 -> Q -> Q^2 -> Q -> 0, v -> (v, v), (x, y) -> x - y
    calls = _counted_ranks(monkeypatch)
    assert cohomology([1, 2, 1], [[{0: 1, 1: 1}], [{0: 1}, {0: -1}]]) == {}
    assert calls == [1, 2]


def test_cohomology_with_a_zero_term_in_the_middle(monkeypatch):
    calls = _counted_ranks(monkeypatch)
    assert cohomology([2, 0, 3], [[{}, {}], []]) == {-2: 2, 0: 3}
    assert calls == []


def test_cohomology_does_not_rank_a_map_into_a_zero_term(monkeypatch):
    # the second map has a row per source vector but no target: only the
    # first map, between two nonzero terms, reaches exact_rank
    calls = _counted_ranks(monkeypatch)
    assert cohomology([3, 2, 0], [[{0: 1}, {1: 1}, {0: 1, 1: 1}], [{}, {}]]) == {-2: 1}
    assert calls == [3]


def test_cohomology_degrees_end_at_zero_without_zeros():
    # Q -0-> Q -2-> Q -0-> Q: H^-3 and H^0 are 1, H^-2 and H^-1 are 0
    dims = cohomology([1, 1, 1, 1], [[{}], [{0: 2}], [{}]])
    assert dims == {-3: 1, 0: 1} and 0 not in dims.values()
    assert cohomology([4], []) == {0: 4}
    assert cohomology([0, 0], [[]]) == {}


def test_wedge_inserts_k_with_the_sign_of_its_position():
    # e_k ^ e_S = (-1)^#{s in S : s < k} e_T, and two insertions anticommute
    # (e_j ^ e_k ^ e_S = -e_k ^ e_j ^ e_S), which makes d^2 = 0 on every
    # wedge complex
    for S in itertools.chain.from_iterable(itertools.combinations(range(5), q) for q in range(6)):
        for k in set(range(5)) - set(S):
            T, sign = rationals.wedge(S, k)
            assert T == tuple(sorted(S + (k,))) and sign == (-1) ** sum(1 for s in S if s < k)
            for j in set(range(5)) - set(T):
                U, jk = rationals.wedge(T, j)  # e_j ^ e_k ^ e_S
                R, j_sign = rationals.wedge(S, j)
                V, kj = rationals.wedge(R, k)  # e_k ^ e_j ^ e_S
                assert U == V and sign * jk == -j_sign * kj


def test_cohomology_of_a_fraction_valued_map():
    # (1/2, 1/3) and (3/2, 1) are proportional: rank 1
    rows = [{0: F(1, 2), 1: F(1, 3)}, {0: F(3, 2), 1: F(1)}]
    assert cohomology([2, 2], [rows]) == {-1: 1, 0: 1}
    assert cohomology([2, 2], [[{0: F(1, 2)}, {1: F(-2, 3)}]]) == {}


def test_records_compare_hash_and_repr_by_field():
    m = MonomialModel(2, [1, 2])
    assert m == MonomialModel(2, (1, 2)) and hash(m) == hash(MonomialModel(2, (1, 2)))
    assert m != MonomialModel(2, (2, 1)) and m != (2, (1, 2))
    assert SncDivisor([1, 2]) != m and SncDivisor([1, 2]) == SncDivisor((1, 2))
    # lru_cache keys on the model: an equal model is a hit
    b_vector(m, F(1, 3))
    hits = b_vector.cache_info().hits
    b_vector(MonomialModel(2, (1, 2)), F(1, 3))
    assert b_vector.cache_info().hits == hits + 1
    # Level compares and hashes by (model, alpha) only: b is derived
    lvl, other = Level(m, F(1, 2)), Level(MonomialModel(2, (1, 2)), "1/2")
    object.__setattr__(other, "b", (9, 9))
    assert lvl == other and hash(lvl) == hash(other) and lvl != Level(m, 1)
    assert MinExpResult(INF, []) == MinExpResult(INF, []) != MinExpResult(F(1, 2), [])
    for unhashable in (
        MinExpResult(INF, []), build_cbar(m, (1, 1)), BgElement(1), WeylOperator.one(1)
    ):
        with pytest.raises(TypeError):
            hash(unhashable)
    assert [repr(x) for x in (
        m,
        SncDivisor([1, 2]),
        ResolutionNumerics([[1, 0]]),
        TruncationBox.radius(2, 1),
        lvl,
        MinExpResult(INF, [{"p": 0}]),
        BgElement(2, {((1, 0), 1): 2}),
        WeylOperator(1),
        WeylOperator(1, {((0,), 2, (1,), 0): 1}),
    )] == [
        "MonomialModel(n=2, a=(1, 2))",
        "SncDivisor(coeffs=(1, 2))",
        "ResolutionNumerics(pairs=((1, 0),))",
        "TruncationBox(lo=(-1, -1), hi=(1, 1))",
        "Level(model=MonomialModel(n=2, a=(1, 2)), alpha=Fraction(1, 2))",
        "MinExpResult(value=INF, witness=[{'p': 0}])",
        "BgElement('2 y^(1,0) dy dt delta')",
        "WeylOperator('0')",
        "WeylOperator('t^2 d1')",
    ]
    assert repr(build_cbar(m, (1, 1))).startswith(
        "FilteredKoszulComplex(model=MonomialModel(n=2, a=(1, 2)), G=(1, 1), generators={2: "
    )


@pytest.mark.parametrize(
    "record, field",
    [
        (MonomialModel(2, [1, 2]), "n"),
        (SncDivisor([1]), "coeffs"),
        (ResolutionNumerics([[1, 0]]), "pairs"),
        (TruncationBox((0,), (1,)), "hi"),
        (Level(MonomialModel(1, [2]), F(1, 2)), "alpha"),
    ],
    ids=["model", "divisor", "numerics", "box", "level"],
)
def test_frozen_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0
