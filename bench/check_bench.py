"""Self-checks of the benchmark.

    python3 -m pytest bench/check_bench.py -q

The file name does not match pytest's test_*.py pattern on purpose: the
repository's own `pytest` run from the root must not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

with open(run.REFERENCE, encoding="utf-8") as fh:
    REFERENCE = json.load(fh)
ENV = run.child_env()
# cheap inputs: an n = 3 model with two jump alphas, and a two-alpha call
SWEEP_GROUP = {"workload": "resolution-sweep", "model": [3, [2]], "alphas": ["1/2", "1"]}
CLI_CONFIG = workloads.cli_config(
    "verify-cor51", next(m for m in workloads._catalog() if m.n == 2 and m.a == (1, 2)), box=4
)


def test_same_seed_same_items():
    for w in workloads.WORKLOADS:
        assert workloads.make_plan(w, 11) == workloads.make_plan(w, 11)
        assert workloads.make_plan(w, 11) != workloads.make_plan(w, 12)


def test_reference_covers_every_item_a_seed_can_produce():
    keys = set(workloads.universe())
    assert keys <= set(REFERENCE)
    for w in workloads.WORKLOADS:
        for group in sum(workloads.make_plan(w, 3), []):
            if w == "cli-cold":
                assert workloads.cli_key(group) in keys
            else:
                assert set(workloads.sweep_items(group)) <= keys


def test_wraps_lru_cache_boundaries():
    import spans

    wrapped = spans.install(spans.Tracer())
    assert "vfilt:divisors.next_candidate" in wrapped
    assert "koszul:vfilt.b_vector" in wrapped
    assert "minexp:minexp.minexp_monomial" in wrapped
    assert "koszul:koszul.core_dims" in wrapped


def _invariants(rows):
    return [(r["key"], r.get("invariants")) for r in rows]


def test_traced_invariants_equal_plain_ones():
    os.makedirs(run.OUT, exist_ok=True)
    for workload, group in (("resolution-sweep", SWEEP_GROUP), ("cli-cold", CLI_CONFIG)):
        plain = run.run_group(workload, group, False, ENV, 1)
        traced = run.run_group(workload, group, True, ENV, 1)
        assert run.check(plain["items"], REFERENCE) == 0
        assert run.check(traced["items"], REFERENCE) == 0
        assert _invariants(plain["items"]) == _invariants(traced["items"])
        assert "spans" in traced and "spans" not in plain
        for result in (plain, traced):
            assert result["setup_s"] > 0 and result["peak_rss_kb"] > 0


def test_planted_wrong_reference_is_a_failure():
    planted = copy.deepcopy(REFERENCE)
    key = workloads.sweep_items(SWEEP_GROUP)[0]
    planted[key]["total_H0"][0] = "-1"
    _, failed, metrics = run.per_layer("resolution-sweep", [[SWEEP_GROUP]], planted, ENV, 0)
    assert failed == 2  # the plain and the traced pass of that item
    assert metrics["fail_ratio"][0] > 0
    _, failed, metrics = run.per_layer("resolution-sweep", [[SWEEP_GROUP]], REFERENCE, ENV, 0)
    assert failed == 0 and metrics["fail_ratio"][0] == 0


def test_tail_percentile_keeps_ten_items_beyond():
    value, q, n = run.tail([float(i) for i in range(40)])
    assert (q, n) == (75, 40) and value == 29.0
    assert sum(1 for i in range(40) if i > value) == 10
