"""Benchmark inputs: the seeded plans, the work each item stands for, how an
item runs in-process, and the invariants its correctness is judged by.

A plan is a list of rounds, and a round a list of groups.  A sweep group is
one n = 3 catalog model with all its jump alphas in (0,1]; its items are the
(model, alpha) check bundles, run back to back in one process so the
expansion and core cohomology caches are shared across alphas.  A cli-cold
group is one `run --config` call, which is also its only item.

Plans are drawn cell by cell.  A cell holds the models with the same number
r of divisor components and the same number of jump alphas, which cost
about the same to check.  A sweep round visits every cell of the n = 3
models once in a fixed order.  A cli-cold round makes one call per slot (a
command on the models of one dimension n at one box radius), and round k of
a slot draws from the k-th cell of that slot's models.  The seed picks only
which member of each cell a round runs, so every run of a workload has the
same mix of work, which keeps the run-to-run spread of the medians and of
the tail down.  The fixed order of the cells spreads any prefix over the
whole range of cells, so the traced run, which covers a prefix, still sees
every kind of input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

SWEEP_BOX = 6
SWEEPS = ("resolution-sweep", "nearby-cycles")
WORKLOADS = SWEEPS + ("cli-cold",)

WHY = {
    "resolution-sweep": "Thm 4.2 i/ii per multidegree, alphas of one model share caches; the only workload where koszul does real work",
    "nearby-cycles": "Cor 5.1 de Rham assembly and ranks plus the gated Cor 2.3/2.4 checks; the only workload with derham and minexp work",
    "cli-cold": "one run --config call per fresh interpreter with --jobs 2: process start, pool fan-out and JSON reporting, caches always cold",
}

# cli-cold slots: (command, model dimension n, box radius).  Commands with a
# box and alphas are drawn from the models of one dimension at a fixed
# radius; the rest take any catalog model.  The order interleaves heavy and
# light calls, so that the traced prefix has the same mix as a round.
CLI_SLOTS = (
    ("verify-thm42", 3, 4),
    ("jumps", None, None),
    ("verify-cor23", 2, 6),
    ("psi-dims", 3, 6),
    ("verify-axioms", 2, 6),
    ("verify-cor51", 3, 5),
    ("lct", None, None),
    ("verify-thm42", 2, 6),
    ("verify-cor24", 3, 6),
    ("minexp", None, None),
    ("verify-axioms", 3, 4),
    ("psi-dims", 2, 5),
    ("vfilt", None, None),
    ("verify-cor23", 3, 5),
    ("verify-cor51", 2, 4),
    ("verify-cor24", 2, 5),
)
CLI_PMAX = 3  # the CLI default, used for the work count of verify-thm42 and psi-dims
VFILT_ELEMENTS = ("dy delta", "dy dt delta")


def _catalog():
    from minexp_lab.cli import catalog

    return catalog()


def _jumps(model):
    from minexp_lab.divisors import jump_candidates

    return jump_candidates(model.divisor(), 0, 1)


# -- sweeps -------------------------------------------------------------------

def _spread(items):
    """items reordered by the van der Corput sequence of their positions, so
    that every prefix samples the whole list evenly."""
    bits = max(1, (len(items) - 1).bit_length())

    def reversed_bits(i):
        return int(format(i, f"0{bits}b")[::-1], 2)

    return [items[i] for i in sorted(range(len(items)), key=reversed_bits)]


def cells_of(models):
    """The models grouped by (r, number of jump alphas), in a fixed order."""
    cells = {}
    for m in models:
        cells.setdefault((m.r, len(_jumps(m))), []).append(m)
    return _spread([cells[k] for k in sorted(cells)])


def sweep_cells():
    return cells_of([m for m in _catalog() if m.n == 3])


def sweep_plan(workload, seed, rounds):
    rng = random.Random(f"{workload}:{seed}")
    orders = [rng.sample(c, len(c)) for c in sweep_cells()]
    return [
        [
            {"workload": workload, "model": [m.n, list(m.a)], "alphas": [str(a) for a in _jumps(m)]}
            for m in (order[k % len(order)] for order in orders)
        ]
        for k in range(rounds)
    ]


def sweep_items(group):
    n, a = group["model"]
    return [
        f"{group['workload']}|{n}|{','.join(map(str, a))}|{alpha}"
        for alpha in group["alphas"]
    ]


def sweep_gates(alpha, minexp_value):
    """The p in {0, 1} at which nearby-cycles runs Cor 2.3/2.4 (acceptance
    criterion 7: alpha < 1 and minexp >= p + alpha)."""
    if not alpha < 1:
        return []
    return [p for p in (0, 1) if minexp_value >= p + alpha]


def sweep_loci(workload, model, alpha):
    """(multidegree, level) pairs an item checks, from its inputs: box
    volume x levels swept x checks.  The Cor 2.3/2.4 gate uses the closed
    form of the minimal exponent of a monomial, min 1/a_i (infinite for the
    smooth model), not the program's value."""
    n = model.n
    volume = (2 * SWEEP_BOX + 1) ** n
    if workload == "resolution-sweep":
        return volume * (n + 4) * 2          # p in -n..3, Thm 4.2 i and ii
    value = float("inf") if model.smooth else min(Fraction(1, a) for a in model.a)
    gates = sweep_gates(Fraction(alpha), value)
    return volume * (n + 2 * len(gates))     # i in 0..n-1; Cor 2.3 and 2.4 per gated p


def run_sweep_item(workload, model, alpha):
    """Run one (model, alpha) bundle through the module attributes (so traced
    wrappers are used); returns (reports, loci)."""
    from minexp_lab import derham, koszul, minexp, vfilt

    n = model.n
    box = vfilt.TruncationBox.radius(n, SWEEP_BOX)
    alpha = Fraction(alpha)
    if workload == "resolution-sweep":
        p_range = range(-n, 4)
        reports = [
            koszul.verify_thm42_i(model, alpha, p_range, box),
            koszul.verify_thm42_ii(model, alpha, p_range, box),
        ]
        return reports, sweep_loci(workload, model, alpha)
    reports = [derham.verify_cor51(model, alpha, range(0, n), box)]
    if alpha < 1:
        for p in sweep_gates(alpha, minexp.minexp_value(model)):
            reports.append(minexp.cor23_check(model, p, alpha, box))
            reports.append(minexp.cor24_check(model, p, alpha, box))
    return reports, sweep_loci(workload, model, alpha)


# -- cli-cold -----------------------------------------------------------------

def _cli_alphas(model, command):
    jumps = _jumps(model)
    if command in ("verify-cor23", "verify-cor24"):
        picked = [a for a in jumps if a < 1][:2]
    else:
        picked = sorted({jumps[0], jumps[-1]})
    return [str(a) for a in picked]


def cli_slot_models(command, n):
    models = [m for m in _catalog() if n is None or m.n == n]
    if command in ("verify-cor23", "verify-cor24"):
        models = [m for m in models if max(m.a) >= 2]  # some jump below 1
    return models


def cli_config(command, model, box=None, variant=0):
    """The `run --config` object of one call."""
    if command == "lct":
        return {"command": "lct", "pairs": [[a, 0] for a in model.a]}
    config = {"command": command, "model": model.to_json()}
    if command == "vfilt":
        config["element"] = VFILT_ELEMENTS[variant]
    if box is not None:
        config["alpha"] = _cli_alphas(model, command)
        config["box"] = box
    if command == "verify-cor24":
        config["p"] = 0
    return config


def cli_key(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def cli_loci(config):
    """(multidegree, level) pairs a call checks, from its config.  Commands
    without a multidegree sweep count their memberships (minexp, vfilt) or
    nothing (jumps, lct)."""
    command = config["command"]
    if command == "lct":
        return 0
    from minexp_lab.weyl import MonomialModel

    model = MonomialModel.from_json(config["model"])
    n, jumps = model.n, len(_jumps(model))
    if command == "jumps":
        return 0
    if command == "minexp":
        return (4 + 1) * jumps                  # p in 0..pmax (default 4) x alphas
    if command == "vfilt":
        return 1 + jumps                        # v-order at cap 1, one membership per jump
    volume = (2 * config["box"] + 1) ** n
    alphas = len(config["alpha"])
    levels = {
        "verify-thm42": (CLI_PMAX + n + 1) * 2,  # p in -n..pmax, Thm 4.2 i and ii
        "verify-axioms": 2,                      # axioms and t-shift at Hodge cap 1
        "verify-cor51": n,                       # i in 0..n-1
        "verify-cor23": 2,                       # Cor 2.3 at p in {0, 1}
        "verify-cor24": 1,                       # Cor 2.4 at p = 0
        "psi-dims": CLI_PMAX + 2,                # p in 0..pmax+1
    }[command]
    return volume * alphas * levels


def cli_plan(seed, rounds):
    rng = random.Random(f"cli-cold:{seed}")
    slots = [
        [rng.sample(cell, len(cell)) for cell in cells_of(cli_slot_models(command, n))]
        for command, n, _ in CLI_SLOTS
    ]
    plan = []
    for k in range(rounds):
        calls = []
        for cells, (command, _, box) in zip(slots, CLI_SLOTS):
            cell = cells[k % len(cells)]
            model = cell[k // len(cells) % len(cell)]
            calls.append(cli_config(command, model, box, rng.randrange(len(VFILT_ELEMENTS))))
        plan.append(calls)
    return plan


# -- plans and the reference universe ----------------------------------------

def make_plan(workload, seed, rounds=16):
    """A list of rounds; each round is a list of groups, one per cell."""
    if workload == "cli-cold":
        return cli_plan(seed, rounds)
    return sweep_plan(workload, seed, rounds)


def universe():
    """Every item key any seed can produce, with what is needed to run it:
    {key: ("sweep", workload, model, alpha) | ("cli", config)}."""
    out = {}
    for workload in SWEEPS:
        for cell in sweep_cells():
            for m in cell:
                group = {"workload": workload, "model": [m.n, list(m.a)], "alphas": [str(a) for a in _jumps(m)]}
                for key, alpha in zip(sweep_items(group), group["alphas"]):
                    out[key] = ("sweep", workload, m, alpha)
    for command, n, box in CLI_SLOTS:
        for m in cli_slot_models(command, n):
            for v in range(len(VFILT_ELEMENTS)) if command == "vfilt" else (0,):
                config = cli_config(command, m, box, v)
                out[cli_key(config)] = ("cli", config)
    return out


# -- invariants ----------------------------------------------------------------

INVARIANT_KEYS = (
    "nonzero_H0_loci",
    "total_H0",
    "total_dim",
    "nilpotency_index",
    "minexp",
    "lct",
    "jumps",
    "v_order",
    "member",
    "members",
    "vanishes",
    "strict",
)


def _table_total(table):
    total = 0
    for entry in table.get("dims", {}).values():
        total += sum(entry.values()) if isinstance(entry, dict) else entry
    return total


def invariants(reports):
    """The math of a list of reports, independent of their layout: for each
    invariant key, the sorted values found anywhere in them, and the totals
    of any psi-dims tables."""
    found = {}

    def walk(x):
        if isinstance(x, dict):
            for k, v in x.items():
                if k in INVARIANT_KEYS:
                    found.setdefault(k, []).append(json.dumps(v, sort_keys=True))
                elif k == "tables" and isinstance(v, list):
                    found.setdefault("table_totals", []).extend(
                        str(_table_total(t)) for t in v
                    )
                else:
                    walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(reports)
    return {k: sorted(v) for k, v in sorted(found.items())}


def all_pass(reports):
    return all(r.get("status") == "PASS" for r in reports)
