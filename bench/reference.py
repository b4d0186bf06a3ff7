"""Record reference.json: the invariants of every item any seed can produce,
computed in-process by the program as it stands.

    python3 bench/reference.py

Run it on the commit the benchmark was defined on; later commits are judged
against the file it wrote.  A commit that changes what a check certifies
must record a new file in a change of its own.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402


def _sweep_group(workload, model, alphas):
    out = {}
    for alpha in alphas:
        reports, _ = workloads.run_sweep_item(workload, model, alpha)
        key = workloads.sweep_items(
            {"workload": workload, "model": [model.n, list(model.a)], "alphas": [alpha]}
        )[0]
        if not workloads.all_pass(reports):
            raise SystemExit(f"{key} does not pass")
        out[key] = workloads.invariants(reports)
    return out


def _cli_call(config):
    from minexp_lab.cli import run

    report, code = run(json.loads(json.dumps(config)), jobs=1)
    key = workloads.cli_key(config)
    if code != 0 or report.get("status") != "PASS":
        raise SystemExit(f"{key} does not pass")
    return {key: workloads.invariants(json.loads(json.dumps(report)))}


def write(reference):
    """One item per line, sorted, so that a changed item shows as one line."""
    lines = [
        json.dumps(key) + ":" + json.dumps(reference[key], sort_keys=True, separators=(",", ":"))
        for key in sorted(reference)
    ]
    with open(os.path.join(BENCH, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    groups = {}
    for kind, *rest in workloads.universe().values():
        if kind == "sweep":
            workload, model, alpha = rest
            groups.setdefault(("sweep", workload, model), []).append(alpha)
        else:
            groups[("cli", workloads.cli_key(rest[0]))] = rest[0]
    reference = {}
    for key, task in groups.items():
        if key[0] == "cli":
            reference.update(_cli_call(task))
        else:
            reference.update(_sweep_group(key[1], key[2], task))
    write(reference)
    print(f"{len(reference)} items recorded")


if __name__ == "__main__":
    main()
