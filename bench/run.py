"""The minexp-lab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program under test is `src/minexp_lab`
of that checkout, imported by every child process through PYTHONPATH.

Workloads (see workloads.py for the inputs and why each was chosen):
resolution-sweep, nearby-cycles and cli-cold.  All are closed loop with a
single caller: one group runs at a time, in a fresh child process, and the
next starts only when it has finished.  A run covers the first whole rounds
of the seeded plan, as many as --seconds holds at the pace of ROUND_SECONDS,
and always runs all of them; each item runs once.

--trace 0 prints the end-to-end metrics.  The machine's speed drifts, so
every time is scaled to a reference speed, measured by a fixed probe run
next to it (see `scaled`); the unscaled values are printed on stderr.
  setup_s      median over the run's child processes of the time a fresh
               interpreter takes to import minexp_lab and generate the plan
  loci_per_s   (multidegree, level) pairs checked per second of item time;
               the count comes from each item's inputs
  item_p50_s   median item time
  item_tail_s  item time at the highest percentile that still has at least
               10 items beyond it (the percentile and the item count are
               printed on stderr)
  peak_rss_mb  peak resident memory of the largest process that ran items
               (for cli-cold, any process of a call, pool workers included)

--trace 1 runs a fixed prefix of the first round (TRACE_GROUPS groups)
twice, plain and with every cross-module call wrapped in a span (spans.py),
and prints the per-layer metrics: for each layer L, L.calls, L.busy_s and
L.self_s, the cache and waste counters, fail_ratio and trace_overhead_ratio
(traced loci_per_s / plain loci_per_s - 1).  The spans, aggregated per
(item, boundary), go to .bench_out/trace-<workload>-<seed>.json.

Every item is checked: it fails if it raises, reports a status other than
PASS or exits non-zero, or if its invariants (workloads.invariants) differ
from reference.json, which holds them for every item any seed can produce.
The last line of stdout is the JSON result; the exit code is 0 when the run
itself worked, even if items failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")

# Unscaled seconds one round of the plan takes on the baseline machine (see
# baseline.json); they set how many rounds a run of --seconds covers.
ROUND_SECONDS = {"resolution-sweep": 34.0, "nearby-cycles": 15.0, "cli-cold": 6.2}
# About the median time of worker.speed_probe while the baseline was
# recorded: scaled times are seconds at that speed (see `scaled`).
PROBE_REF_S = 0.027
CHILD_TIMEOUT = 120
CLI_JOBS = 2
# Groups of the first round a traced run covers; fixed, so that its counts
# repeat exactly for a seed.
TRACE_GROUPS = {"resolution-sweep": 5, "nearby-cycles": 8, "cli-cold": 16}
TAIL_BEYOND = 10
LAYER_METRICS = ("divisors", "weyl", "vfilt", "minexp", "koszul", "derham", "cli")
CALL_COUNTERS = (
    "koszul.core_dims",
    "vfilt.count_grF_grV",
    "vfilt.gr_class_rep",
    "weyl.act_right",
    "weyl.compose",
    "minexp.minexp_monomial",
)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "MINEXP_LAB_JOBS"}
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    env["PYTHONHASHSEED"] = "0"  # same hashing in every child, for repeatable counts
    return env


# -- running groups ------------------------------------------------------------

def _child(args, env, stdin=""):
    """A child process's (exit code, stdout, stderr).  The child leads a
    process group of its own; if it does not end within CHILD_TIMEOUT, the
    whole group (pool workers included) is killed, and the exit code is
    None."""
    proc = subprocess.Popen(
        [sys.executable] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", f"killed after {CHILD_TIMEOUT} s"
    return proc.returncode, out, err


def run_sweep_group(group, trace, env, seed):
    """Items of one sweep group, run in a fresh worker; a worker that dies
    fails all of its items."""
    import workloads

    code, out, err = _child(
        [os.path.join(BENCH, "worker.py"), "1" if trace else "0", str(seed)],
        env, json.dumps(group),
    )
    if code != 0 or not out.strip():
        err = err.strip().splitlines()[-1:] or ["no output"]
        return {"items": [{"key": k, "ok": False, "error": err[0]} for k in workloads.sweep_items(group)]}
    return json.loads(out.strip().splitlines()[-1])


def run_cli_call(config, trace, env, seed):
    """One `run --config` call in a fresh interpreter, through launcher.py,
    which reports the call's time, set-up and peak memory."""
    import workloads

    key = workloads.cli_key(config)
    trace_file = None
    if trace:
        fd, trace_file = tempfile.mkstemp(prefix="call-", suffix=".json", dir=OUT)
        os.close(fd)
    args = ["run", "--config", json.dumps(config), "--jobs", str(CLI_JOBS)]
    code, out, err = _child(
        [os.path.join(BENCH, "launcher.py"), repr(time.monotonic()),
         "1" if trace else "0", trace_file or "-", str(seed), "--"] + args,
        env,
    )
    result = {"items": []}
    try:
        result.update(json.loads(err.strip().splitlines()[-1]))
    except (ValueError, IndexError):
        pass
    row = {"key": key, "ok": False}
    if "seconds" in result:
        row.update(seconds=result["seconds"], probe_s=result["probe_s"], loci=workloads.cli_loci(config))
    try:
        report = json.loads(out)
    except ValueError:
        row["error"] = f"exit {code}, no JSON report"
        report = None
    if report is not None:
        row["invariants"] = workloads.invariants(report)
        row["ok"] = code == 0 and report.get("status") == "PASS" and "seconds" in result
        if not row["ok"]:
            row["error"] = f"exit {code}, status {report.get('status')}"
    result["items"].append(row)
    if trace:
        with open(trace_file, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(trace_file)
        if text:
            result["spans"] = json.loads(text)
            result["spans"]["report_bytes"] = len(out.encode())
    return result


def run_group(workload, group, trace, env, seed):
    """{"items": rows, "setup_s", "setup_probe_s", "peak_rss_kb", for
    cli-cold "process_start_s", and "spans" when traced}; the keys other
    than items are missing when the child died."""
    if workload == "cli-cold":
        return run_cli_call(group, trace, env, seed)
    return run_sweep_group(group, trace, env, seed)


def check(items, reference):
    """Mark each item failed unless it passed and its invariants equal the
    reference; returns the number failed."""
    failed = 0
    for row in items:
        want = reference.get(row["key"])
        if row.get("ok") and want is None:
            row["ok"], row["error"] = False, "no reference invariants for this item"
        elif row.get("ok") and row.get("invariants") != want:
            row["ok"], row["error"] = False, "invariants differ from the reference"
        failed += not row.get("ok")
    return failed


# -- metrics --------------------------------------------------------------------

def tail(times):
    """(value, percentile, count): nearest-rank value at the highest integer
    percentile with at least TAIL_BEYOND items beyond it."""
    s = sorted(times)
    n = len(s)
    for q in range(99, 0, -1):
        k = math.ceil(q * n / 100)
        if k >= 1 and n - k >= TAIL_BEYOND:
            return s[k - 1], q, n
    return s[-1], 100, n


def scaled(seconds, probe_s):
    """`seconds` measured next to a speed probe that took `probe_s`, at the
    reference speed: the machine this runs on is shared, and its speed
    drifts by up to 1.9x within minutes, so raw seconds would compare
    moments, not commits.  The probe runs in the same process as the timed
    work, right before and after it, so it sees the same speed."""
    return seconds * PROBE_REF_S / probe_s


def item_seconds(row, raw=False):
    return row["seconds"] if raw else scaled(row["seconds"], row["probe_s"])


def loci_rate(items, raw=False):
    done = [r for r in items if "loci" in r]
    seconds = sum(item_seconds(r, raw) for r in done)
    return sum(r["loci"] for r in done) / seconds if seconds else 0.0


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def end_to_end(workload, seed, plan, seconds, reference, env):
    """The first rounds of the plan, as many as take about `seconds` at the
    pace of ROUND_SECONDS, and at least one; every group of them runs, once.
    Times are scaled to the reference speed (see `scaled`); the unscaled
    values go to stderr."""
    rounds = rounds_for(workload, seconds)
    groups = [g for round_ in plan[:rounds] for g in round_]
    results = [run_group(workload, group, False, env, seed) for group in groups]
    items = [row for res in results for row in res["items"]]
    failed = check(items, reference)
    done = [res for res in results if "setup_s" in res]
    peak_kb = max((res["peak_rss_kb"] for res in done), default=0)
    timed = [r for r in items if "seconds" in r]

    def summary(raw):
        times = [item_seconds(r, raw) for r in timed]
        setups = [res["setup_s"] if raw else scaled(res["setup_s"], res["setup_probe_s"])
                  for res in done]
        tail_s, q, n = tail(times) if times else (0.0, 100, 0)
        return {
            "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
            "loci_per_s": (loci_rate(timed, raw), "1/s"),
            "item_p50_s": (statistics.median(times) if times else 0.0, "s"),
            "item_tail_s": (tail_s, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MiB"),
        }, q, n

    metrics, q, n = summary(False)
    raw = {k: v for k, (v, _) in summary(True)[0].items()}
    print(
        f"{workload}: {rounds} rounds, {len(groups)} groups, {len(items)} items, "
        f"{failed} failed; item_tail_s is p{q} of {n} items; {len(done)} set-up samples; "
        f"unscaled {json.dumps(raw)}",
        file=sys.stderr,
    )
    return items, failed, metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, plan, reference, env, seed):
    """Per-layer metrics of the first TRACE_GROUPS groups of the plan, each
    run plain and traced.  Layer times are unscaled seconds of this run;
    trace_overhead_ratio compares scaled rates."""
    groups = plan[0][: TRACE_GROUPS[workload]]
    plain, traced, dumps = [], [], []
    for group in groups:
        plain.extend(run_group(workload, group, False, env, seed)["items"])
        result = run_group(workload, group, True, env, seed)
        traced.extend(result["items"])
        dumps.append(result)
    failed = check(plain, reference) + check(traced, reference)
    for a, b in zip(plain, traced):
        if b.get("ok") and a.get("invariants") != b.get("invariants"):
            b["ok"], b["error"] = False, "traced invariants differ from plain ones"
            failed += 1

    calls, self_s, busy_s, caches = {}, {}, {}, {}
    start_s = report_bytes = 0.0

    def add_spans(agg):
        for _, boundary, c, s in agg["boundaries"]:
            calls[boundary] = calls.get(boundary, 0) + c
            self_s[boundary] = self_s.get(boundary, 0.0) + s
        for _, layer, s in agg["busy"]:
            busy_s[layer] = busy_s.get(layer, 0.0) + s

    def add_caches(delta):
        for k, v in delta.items():
            caches[k] = caches.get(k, 0) + v

    for dump in dumps:
        extra = dump.get("spans")
        if extra is None:
            continue
        if workload == "cli-cold":
            add_spans(extra["own"])
            add_caches(extra["caches"])
            for child in extra["children"]:
                add_spans(child)
                add_caches(child["caches"])
            start_s += dump.get("process_start_s", 0.0)
            report_bytes += extra["report_bytes"]
        else:
            add_spans(extra)
            for row in dump["items"]:
                add_caches(row.get("caches", {}))

    def layer_sum(table, layer, start=0):
        return sum((v for b, v in table.items() if b.split(".")[0] == layer), start)

    m = {}
    for layer in LAYER_METRICS:
        m[f"{layer}.calls"] = (layer_sum(calls, layer), "count")
        m[f"{layer}.busy_s"] = (busy_s.get(layer, 0.0), "s")
        m[f"{layer}.self_s"] = (layer_sum(self_s, layer, 0.0), "s")
    for boundary in CALL_COUNTERS:
        m[f"{boundary}.calls"] = (calls.get(boundary, 0), "count")
    core_misses = caches.get("core_cache.entries", 0)
    m["koszul.core_dims.hit_ratio"] = (
        _ratio(calls.get("koszul.core_dims", 0) - core_misses, calls.get("koszul.core_dims", 0)), "ratio")
    m["koszul.core_cache.entries"] = (core_misses, "count")
    m["vfilt.expansion_cache.entries"] = (caches.get("expansion_cache.entries", 0), "count")
    for name, layer in (("b_vector", "vfilt"), ("next_candidate", "divisors")):
        hits, misses = caches.get(f"{name}.hits", 0), caches.get(f"{name}.misses", 0)
        m[f"{layer}.{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["cli.process_start_s"] = (start_s, "s")
    m["cli.report_bytes"] = (report_bytes, "bytes")
    attempted = len(plain) + len(traced)
    m["fail_ratio"] = (failed / attempted, "ratio")
    m["trace_overhead_ratio"] = (_ratio(loci_rate(traced), loci_rate(plain)) - 1, "ratio")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "groups": dumps}, fh)
    return plain + traced, failed, m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "minexp_lab", "__init__.py")):
        print(f"benchmark: no program to measure, {SRC}/minexp_lab is missing", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"benchmark: {REFERENCE} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    plan = workloads.make_plan(args.workload, args.seed)
    if args.trace:
        items, failed, metrics = per_layer(args.workload, plan, reference, env, args.seed)
    else:
        items, failed, metrics = end_to_end(
            args.workload, args.seed, plan, args.seconds, reference, env
        )
    for row in items:
        if not row.get("ok"):
            print(f"FAILED {row['key']}: {row.get('error', '')[-300:]}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
