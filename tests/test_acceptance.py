"""Acceptance suite: one test per criterion, exact (zero-tolerance) rational
assertions throughout, one printed pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import minexp_lab
from minexp_lab.cli import catalog
from minexp_lab.divisors import jump_candidates, lct_from_resolution
from minexp_lab.axioms import check_v_axioms
from minexp_lab.cbar import N_operator, augmentation_zero_check, verify_thm42_iii
from minexp_lab.koszul import sigma_generator, verify_thm42_i, verify_thm42_ii
from minexp_lab.derham import verify_cor51
from minexp_lab.minexp import cor23_check, cor24_check, minexp_monomial
from minexp_lab.rationals import INF, Infinity, exact_rank
from minexp_lab.vfilt import (
    Level,
    TruncationBox,
    _orders_of_component,
)
from minexp_lab.weyl import MonomialModel, WeylOperator, act_right

from oracles import count_gr, count_gr_theta, one_term, spanning_set

BOX_RADIUS = 6
MODELS = catalog()
# (model, alpha) pairs with alpha a jump candidate in (0, 1], over the catalog
SWEEPS = 172


def _jumps(model, lo=0, hi=1):
    return jump_candidates(model.divisor(), lo, hi)


def _box(model):
    return TruncationBox.radius(model.n, BOX_RADIUS)


def _report(k, label, detail, elapsed):
    print(f"criterion {k} ({label}): PASS — {detail} [{elapsed:.1f}s]")


def test_criterion_1_lct_formula():
    t0 = time.time()
    assert lct_from_resolution([(1, 0)]) == F(1)
    assert lct_from_resolution([(3, 0)]) == F(1, 3)
    assert lct_from_resolution([(1, 0), (2, 1), (3, 2), (6, 4)]) == F(5, 6)
    rng = random.Random(20250809)
    for _ in range(1000):
        pairs = [
            (rng.randint(1, 9), rng.randint(0, 9))
            for _ in range(rng.randint(1, 5))
        ]
        lct = lct_from_resolution(pairs)
        alpha = F(rng.randint(0, 40), rng.randint(1, 10))
        assert (lct > alpha) == all(
            math.floor(alpha * a) <= k for a, k in pairs
        )
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "lct formula", "3 frozen values + 1000 random instances", elapsed)


def test_criterion_2_minimal_exponents():
    t0 = time.time()
    assert minexp_monomial(MonomialModel(2, [1, 1])).value == F(1)
    assert isinstance(minexp_monomial(MonomialModel(1, [1])).value, Infinity)
    for model in MODELS:
        res = minexp_monomial(model, p_max=4)
        if model.smooth:
            assert isinstance(res.value, Infinity)
            formula = INF
        else:
            formula = min(F(1, a) for a in model.a)
            assert res.value == formula
        # membership route vs formula route: the witness sup is the value
        sup = max(
            (w["p"] + F(w["alpha"]) for w in res.witness if w["member"]),
            default=F(0),
        )
        if not model.smooth:
            assert sup == formula
        # and min(value, 1) equals the lct of the model's own numerics
        lct = lct_from_resolution([(a, 0) for a in model.a])
        capped = F(1) if isinstance(res.value, Infinity) else min(res.value, F(1))
        assert capped == lct
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, "minimal exponents", f"{len(MODELS)} catalog models", elapsed)


def test_criterion_3_thm42_i():
    t0 = time.time()
    combos = loci = 0
    for model in MODELS:
        box = _box(model)
        for alpha in _jumps(model):
            rep = verify_thm42_i(model, alpha, range(-model.n, 4), box)
            assert rep["status"] == "PASS", (model, alpha, rep)
            loci += sum(c["nonzero_H0_loci"] for c in rep["checks"])
            combos += 1
    assert (combos, loci) == (SWEEPS, 407455)
    _report(
        3,
        "thm42-i resolution sweep",
        f"{combos} (model, alpha) sweeps, p in -n..3, box {BOX_RADIUS}",
        time.time() - t0,
    )


def test_criterion_4_thm42_ii():
    t0 = time.time()
    combos = total = 0
    for model in MODELS:
        box = _box(model)
        for alpha in _jumps(model):
            rep = verify_thm42_ii(model, alpha, range(-model.n, 4), box)
            assert rep["status"] == "PASS", (model, alpha, rep)
            total += sum(c["total_H0"] for c in rep["checks"])
            combos += 1
    assert (combos, total) == (SWEEPS, 80945)
    _report(
        4,
        "thm42-ii quotient sweep",
        f"{combos} quotient-complex sweeps, box {BOX_RADIUS}",
        time.time() - t0,
    )


def test_criterion_5_thm42_iii():
    t0 = time.time()
    # the hand-checkable instance: g = y^2 at alpha = 1/2
    m = MonomialModel(1, [2])
    base = sigma_generator(m, F(1, 2))
    both = one_term(1, 2, (2,), 1)
    assert act_right(base, N_operator(m, F(1, 2)), m) == both
    assert act_right(base, WeylOperator.theta(1).scale(-1), m) == both
    combos = 0
    for model in MODELS:
        for alpha in _jumps(model):
            rep = verify_thm42_iii(model, alpha, samples=20, seed=20250809)
            assert rep["status"] == "PASS", (model, alpha, rep)
            assert augmentation_zero_check(model, alpha)["status"] == "PASS"
            combos += 1
    assert combos == SWEEPS
    _report(
        5,
        "thm42-iii monodromy identity",
        f"{combos} (model, alpha) pairs, 20 random multiples each",
        time.time() - t0,
    )


def test_criterion_6_v_axioms():
    t0 = time.time()
    combos = worst = 0
    for model in MODELS:
        box = _box(model)
        for alpha in _jumps(model):
            rep = check_v_axioms(model, alpha, box)
            assert rep["status"] == "PASS", (model, alpha, rep)
            assert rep["nilpotency_index"] <= model.r
            # the multiplicity of the root -alpha of the monomial's b-function
            roots = sum(1 for a in model.a if (alpha * a).denominator == 1)
            assert rep["nilpotency_index"] == roots, (model, alpha, rep)
            worst = max(worst, rep["nilpotency_index"])
            combos += 1
    assert (combos, worst) == (SWEEPS, 3)
    _report(
        6,
        "V-filtration axioms",
        f"{combos} (model, alpha) pairs, nilpotency index = #{{i : alpha a_i in Z}} <= r",
        time.time() - t0,
    )


def test_criterion_7_cor23_cor24():
    t0 = time.time()
    pairs = vacuous = 0
    for model in MODELS:
        box = _box(model)
        value = minexp_monomial(model).value
        for alpha in _jumps(model):
            if not alpha < 1:
                continue
            for p in (0, 1):
                if not value >= p + alpha:
                    vacuous += 1
                    continue
                rep = cor23_check(model, p, alpha, box)
                assert rep["status"] == "PASS", (model, p, alpha, rep)
                names = [c["name"] for c in rep["checks"]]
                assert "grF-psi-jump-detection" in names
                assert "grF-psi-colon-ideal" in names
                rep = cor24_check(model, p, alpha, box)
                assert rep["status"] == "PASS", (model, p, alpha, rep)
                pairs += 1
    assert (pairs, vacuous) == (46, 194)
    _report(
        7,
        "cor23/cor24 vanishing and structure",
        f"{pairs} (model, p, alpha) triples verified ({vacuous} below the hypothesis)",
        time.time() - t0,
    )


def test_criterion_8_cor51():
    t0 = time.time()
    combos = total = 0
    for model in MODELS:
        box = _box(model)
        for alpha in _jumps(model):
            rep = verify_cor51(model, alpha, range(0, model.n), box)
            assert rep["status"] == "PASS", (model, alpha, rep)
            total += sum(c["total_dim"] for c in rep["checks"])
            combos += 1
    assert (combos, total) == (SWEEPS, 22050)
    _report(
        8,
        "cor51 identity-resolution comparison",
        f"{combos} (model, alpha) sweeps, i in 0..n-1, box {BOX_RADIUS}",
        time.time() - t0,
    )


def test_criterion_9_formula_cross_validation():
    t0 = time.time()
    rng = random.Random(99)
    samples = 0
    while samples < 500:
        model = rng.choice(MODELS)
        alpha = rng.choice(_jumps(model))
        p = rng.randint(1 - model.n, 3)
        d = tuple(rng.randint(-BOX_RADIUS, BOX_RADIUS) for _ in range(model.n))
        c44 = count_gr_theta(Level(model, alpha), p, d)
        c45 = count_gr(Level(model, alpha), p, d)
        span_p = [
            _orders_of_component(s) for s in spanning_set(p, alpha, d, model)
        ]
        span_p1 = [
            _orders_of_component(s) for s in spanning_set(p - 1, alpha, d, model)
        ]
        rank = exact_rank([dict(v) for v in span_p]) - exact_rank(
            [dict(v) for v in span_p1]
        )
        assert c44 == c45 == rank, (model, alpha, p, d, c44, c45, rank)
        samples += 1
    _report(
        9,
        "theta-count = top-count = rank",
        f"{samples} random samples",
        time.time() - t0,
    )


# Runs each config of the JSON list on stdin and writes the reports'
# report_to_json bytes, concatenated, to stdout.
_RUN_SUITE = """
import json, sys
from minexp_lab.cli import run
from minexp_lab.commands import report_to_json
for config in json.load(sys.stdin):
    report, code = run(config)
    assert code == 0, (config, report)
    sys.stdout.write(report_to_json(report))
"""


def test_criterion_10_determinism():
    t0 = time.time()
    suite = [
        {
            "command": "verify-thm42",
            "model": {"n": 2, "exponents": [2, 3]},
            "alpha": "all-jumps",
            "pmax": 2,
            "box": 4,
        },
        {
            "command": "verify-axioms",
            "model": {"n": 2, "exponents": [2, 2]},
            "box": 4,
        },
        {
            "command": "verify-cor51",
            "model": {"n": 2, "exponents": [1, 2]},
            "box": 4,
        },
        {
            "command": "verify-cor23",
            "model": {"n": 1, "exponents": [3]},
            "box": 5,
        },
        {
            "command": "psi-dims",
            "model": {"n": 2, "exponents": [2, 3]},
            "box": 4,
        },
    ]
    # each interpreter imports the same minexp_lab as this process, installed or not
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blobs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_SUITE],
            input=json.dumps(suite),
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(proc.stdout)
    assert blobs[0] and blobs[0] == blobs[1]
    _report(
        10,
        "determinism",
        f"{len(suite)} commands byte-identical across PYTHONHASHSEED 0 and 1",
        time.time() - t0,
    )
