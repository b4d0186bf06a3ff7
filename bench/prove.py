"""Run the benchmark over several seeds and record the spread of every metric.

    python3 bench/prove.py [--seeds 1-10] [--workloads a,b] [--out bench/baseline.json]

For each workload it runs `run.py --trace 0` once per seed, for the
run_seconds of BENCHMARK.json, and reports, per end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median.  It then runs `run.py --trace 1` on the first seed
TRACE_REPEATS times and checks that every count repeats exactly.
With --out it adds the set of runs to that file (creating it with the
commit, the machine, each workload's rationale and the items of the first
seed's run), so that sets made at different times sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

EXACT_UNITS = ("count", "bytes")
TRACE_REPEATS = 2
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload, seed, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["log"] = proc.stderr.strip().splitlines()
    return result


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(w, seeds):
    runs = []
    for seed in seeds:
        res = _run(w, seed, 0)
        summary_line = next(line for line in res["log"] if line.startswith(f"{w}: "))
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"], "wall_s": round(res["wall_s"], 2),
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                     "raw": json.loads(summary_line.split(" unscaled ", 1)[1]),
                     "log": [summary_line]})
        print(w, seed, json.dumps(runs[-1]["metrics"]), runs[-1]["log"], flush=True)
    summary = {k: _spread([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
    raw = {k: _spread([r["raw"][k] for r in runs]) for k in runs[0]["raw"]}
    for k, s in summary.items():
        line = f"  {w} {k}: median {s['median']:.6g}, spread {s['spread']:.3f}"
        if k in raw:
            line += f" (unscaled: median {raw[k]['median']:.6g}, spread {raw[k]['spread']:.3f})"
        print(line, flush=True)
    record = {"runs": runs, "summary": summary, "raw_summary": raw}
    traces = [_run(w, seeds[0], 1) for _ in range(TRACE_REPEATS)]
    units = {k: v["unit"] for k, v in traces[0]["metrics"].items()}
    exact = [k for k, u in units.items() if u in EXACT_UNITS]
    repeat = all(t["metrics"][k] == traces[0]["metrics"][k] for t in traces for k in exact)
    print(f"  {w} traced: counts repeat exactly across {len(traces)} runs: {repeat}", flush=True)
    record["traced"] = {
        "seed": seeds[0],
        "correct": all(t["correct"] for t in traces),
        "counts_repeat_exactly": repeat,
        "units": units,
        "metrics": [{k: v["value"] for k, v in t["metrics"].items()} for t in traces],
    }
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    names = args.workloads.split(",")
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    results = {w: measure(w, seeds) for w in names}
    if not args.out:
        return
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    else:
        record = {
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seconds": SECONDS,
            "workloads": {
                w: {
                    "why": workloads.WHY[w],
                    f"groups_of_seed_{seeds[0]}": sum(
                        workloads.make_plan(w, seeds[0])[: run.rounds_for(w, SECONDS)], []
                    ),
                }
                for w in names
            },
            "sets": [],
        }
    record["sets"].append({"started": started, "seeds": seeds, "workloads": results})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
