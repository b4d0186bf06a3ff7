"""The exact-rank routine against a plain Fraction Gaussian elimination."""

import random
from fractions import Fraction as F

from minexp_lab.rationals import exact_rank


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
