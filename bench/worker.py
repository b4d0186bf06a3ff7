"""Runs the items of one sweep group in a fresh interpreter.

    python3 bench/worker.py <trace 0|1> <seed>   (group JSON on stdin)

It first times its own set-up: the import of minexp_lab and the generation
of the run's plan from <seed>.  Then it runs the items of the group back to
back, with a speed probe before the first and after each, and prints one
JSON line: the set-up time and the probe after it, the peak memory of this
process, and per item its seconds, the mean of the probes on either side,
loci, status and invariants, and with trace 1 its cache growth and the span
aggregate.

The parent sets PYTHONPATH to the checkout's src/ so that the program under
test is the one in the checkout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction

PROBE_ITERATIONS = 25000


def speed_probe():
    """Seconds a fixed piece of pure-Python work (tuple-keyed dict updates
    and Fraction sums, the kind of work the program does) takes now.  It
    does not touch the program, so only the machine's speed moves it; run
    in the same process right next to an item, it tracks the speed the item
    ran at."""
    t0 = time.perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(PROBE_ITERATIONS):
        key = (i % 89, i % 13, i % 7)
        acc[key] = acc.get(key, 0) + i * i
        if i % 8 == 0:
            total += Fraction(i % 11 + 1, i % 7 + 2)
    return time.perf_counter() - t0


def timed_setup(workload, seed):
    """Seconds to import every layer of minexp_lab and generate the plan of
    `workload` for `seed`, in this process."""
    t0 = time.perf_counter()
    import minexp_lab.cli  # noqa: F401  (imports every layer)
    import workloads

    workloads.make_plan(workload, seed)
    return time.perf_counter() - t0


def peak_rss_kb():
    """Peak resident memory of this process and of the children it reaped."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def main(trace, seed):
    group = json.loads(sys.stdin.read())
    setup_s = timed_setup(group["workload"], seed)
    import workloads
    from minexp_lab.weyl import MonomialModel

    if trace:
        import spans

        spans.install()
    n, a = group["model"]
    model = MonomialModel(n, a)
    out = []
    probe = setup_probe_s = speed_probe()
    for key, alpha in zip(workloads.sweep_items(group), group["alphas"]):
        row = {"key": key}
        if trace:
            spans.TRACER.item = key
            before = spans.cache_readings()
        t0 = time.perf_counter()
        try:
            reports, loci = workloads.run_sweep_item(group["workload"], model, alpha)
        except Exception:  # an item that raises is a failed item, not a crash
            row.update(seconds=time.perf_counter() - t0, ok=False, error=traceback.format_exc())
        else:
            row.update(
                seconds=time.perf_counter() - t0,
                loci=loci,
                ok=workloads.all_pass(reports),
                invariants=workloads.invariants(reports),
            )
        if trace:
            row["caches"] = spans.readings_delta(before, spans.cache_readings())
        after = speed_probe()
        row["probe_s"] = (probe + after) / 2
        probe = after
        out.append(row)
    result = {
        "items": out,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "peak_rss_kb": peak_rss_kb(),
    }
    if trace:
        result["spans"] = spans.TRACER.aggregate()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1] == "1", int(sys.argv[2]))
