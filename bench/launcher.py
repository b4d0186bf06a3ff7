"""Runs one `minexp-lab run --config ...` call in a fresh interpreter.

    python3 bench/launcher.py <spawn time> <trace 0|1> <trace file> <seed> -- <cli args>

<spawn time> is the parent's time.monotonic() just before it started this
process (the clock is shared by all processes of the machine).  The call's
process start runs from spawn to the end of the import of minexp_lab.cli;
then a speed probe runs, and the call's time is its process start plus the
time `cli.main` takes.  After the call a second probe runs, the launcher
generates the run's plan from <seed> (after the call, so that the call
itself starts with cold caches), and it prints one JSON line on stderr: the
call's time and process start, the mean of the two probes, the set-up time
(the import plus the plan generation) and the peak memory of the call's
processes, pool workers included.  With trace 1 the layers are wrapped before `cli.main` runs,
multiprocessing pool workers spool their own spans next to the trace file,
and the merged aggregate is written to the trace file.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time


def main():
    spawned, trace, trace_file = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3]
    seed = int(sys.argv[4])
    argv = sys.argv[sys.argv.index("--") + 1 :]
    t0 = time.perf_counter()
    from minexp_lab import cli

    imported = time.monotonic()
    import_s = time.perf_counter() - t0
    import worker

    probe = worker.speed_probe()
    if trace:
        import spans

        spans.install()
        spans.TRACER.item = "call"
        spool = trace_file + ".spool"
        os.makedirs(spool, exist_ok=True)
        spans.spool_forked_children(spool, "call")
        before = spans.cache_readings()
    entered = time.monotonic()
    code = cli.main(argv)
    returned = time.monotonic()
    if trace:
        payload = {
            "own": spans.TRACER.aggregate(),
            "caches": spans.readings_delta(before, spans.cache_readings()),
            "children": [],
        }
        for path in sorted(glob.glob(os.path.join(spool, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                payload["children"].append(json.load(fh))
        shutil.rmtree(spool)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    peak_kb = worker.peak_rss_kb()
    probe = (probe + worker.speed_probe()) / 2
    setup_s = import_s + worker.timed_setup("cli-cold", seed)
    sys.stdout.flush()
    print(json.dumps({
        "seconds": imported - spawned + returned - entered,
        "process_start_s": imported - spawned,
        "probe_s": probe,
        "setup_s": setup_s,
        "setup_probe_s": probe,
        "peak_rss_kb": peak_kb,
    }), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
