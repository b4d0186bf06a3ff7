"""Command-line verification harness.

Subcommands: lct, minexp, jumps, vfilt, psi-dims, verify-thm42,
verify-cor23, verify-cor24, verify-cor51, verify-axioms, catalog, run.
`run` takes a JSON config (path or literal) with the same keys as the flags.

Every config value is validated and coerced in one place, `_parse`; a
malformed value is an input error.  A report's `params` lists exactly the
values the run used, after defaults and parsing: a key a command does not
read is neither validated nor echoed.  The five verify commands are one
sweep over alphas (`_SWEEPS`); each alpha is one work item, and `--jobs`
workers share them, at most one per item and per CPU.  verify-cor23 and
verify-cor24 take alphas in (0, 1): an explicit alpha outside is an input
error, while the default all-jumps list just leaves out alpha = 1.  A box
radius R in n variables is refused when its volume (2R+1)^n exceeds
MAX_BOX_VOLUME.

Reports are deterministic byte-for-byte: checks are produced in sorted key
order, JSON is dumped with sorted keys, and scheduling parameters (--jobs,
--out, --format) are not echoed.  Exit codes: 0 all PASS, 1 input error,
2 verification failure.  --jobs sets the worker count; MINEXP_LAB_JOBS is
only the default when --jobs is not given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import multiprocessing
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .divisors import ResolutionNumerics, SncDivisor, jump_candidates, lct_from_resolution
from .rationals import Infinity, InputError, format_rational, parse_rational
from .vfilt import TruncationBox, check_v_axioms, t_shift_check, v_member, v_order
from .weyl import MonomialModel, multidegree, parse_element
from . import derham, koszul, minexp

DEFAULT_BOX = 6
DEFAULT_PMAX = 3
# Largest box volume (2R+1)^n a command accepts.  Work grows with the volume;
# the acceptance sweeps use 13^3 = 2197, while n = 40 at radius 1 never ends.
MAX_BOX_VOLUME = 10**6


def catalog():
    """Standard test catalog: all models with n <= 3, r <= n, nondecreasing
    exponents a_i <= 4 (this includes the smooth model)."""
    models = []
    for n in range(1, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations_with_replacement(range(1, 5), r):
                models.append(MonomialModel(n, a))
    return models


# -- config parsing -------------------------------------------------------------
#
# A parser takes (key, value, parsed so far) and returns the coerced value or
# raises InputError; parsers that need the model read it from the keys parsed
# before them.

def _int(key, value, got):
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{key} must be an integer, got {value!r}")


def _rational(key, value, got):
    """A finite rational; no parameter accepts "inf"."""
    x = parse_rational(str(value))
    if isinstance(x, Infinity):
        raise InputError(f"{key} must be a finite rational, got {value!r}")
    return x


def _alphas(key, value, got):
    """A rational or a nonempty list of them; None for "all-jumps"."""
    if value == "all-jumps":
        return None
    values = value if isinstance(value, list) else [value]
    if not values:
        raise InputError("alpha list is empty")
    return [_rational(key, v, got) for v in values]


def _json(value, key):
    """A JSON-valued key may also be given as JSON text (as its flag is)."""
    if not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {key} JSON: {exc}") from exc


def _box(key, value, got):
    radius, n = _int(key, value, got), got["model"].n
    if radius < 0:
        raise InputError(f"box radius must be >= 0, got {radius}")
    if (2 * radius + 1) ** n > MAX_BOX_VOLUME:
        raise InputError(
            f"box radius {radius} in {n} variables exceeds the volume limit {MAX_BOX_VOLUME}"
        )
    return radius


def _element(key, value, got):
    """(text, element): the text is echoed, the element is used."""
    if not isinstance(value, str):
        raise InputError(f"element must be text, got {value!r}")
    u = parse_element(value, got["model"].n)
    if u.is_zero():
        raise InputError("vfilt element must be nonzero")
    return value, u


_PARSERS = {
    "model": lambda key, value, got: MonomialModel.from_json(_json(value, key)),
    "alpha": _alphas,
    "box": _box,
    "pmax": _int,
    "p": _int,
    "samples": _int,
    "lo": _rational,
    "hi": _rational,
    "cap": _rational,
    "element": _element,
    "pairs": lambda key, value, got: ResolutionNumerics(_json(value, key)),
    "coeffs": lambda key, value, got: SncDivisor(_json(value, key)),
}

# A key without a default is required; "p" defaults to None (per command).
_DEFAULTS = {
    "alpha": "all-jumps",
    "box": DEFAULT_BOX,
    "pmax": DEFAULT_PMAX,
    "p": None,
    "samples": 20,
    "lo": "0",
    "hi": "1",
    "cap": "1",
}


def _parse(config, keys, **defaults):
    """{key: parsed value} for `keys`, in order; a missing or null key takes
    its default.  The only place a config value is read and coerced: handlers
    check only how values combine (vfilt takes one alpha), the library what
    its functions require (0 <= lo < hi, cor24's p at most the minexp)."""
    defaults = {**_DEFAULTS, **defaults}
    got = {}
    for key in keys:
        value = config.get(key)
        if value is None:
            if key not in defaults:
                raise InputError(f"{config.get('command')} requires {key!r}")
            value = defaults[key]
        got[key] = None if value is None else _PARSERS[key](key, value, got)
    return got


def _or_jumps(alphas, model):
    return jump_candidates(model.divisor(), 0, 1) if alphas is None else alphas


def _box_note(model, radius, pmax):
    if radius >= pmax + max(model.a):
        return []
    return [
        {
            "name": "box-radius-note",
            "status": "PASS",
            "note": (
                f"box radius {radius} is below p_max + max(a_i) = "
                f"{pmax + max(model.a)}; truncation is still exact, but "
                "deep filtration levels have little room in the window"
            ),
        }
    ]


def _summarize(checks):
    return {
        "pass": sum(1 for c in checks if c.get("status") == "PASS"),
        "fail": sum(1 for c in checks if c.get("status") == "FAIL"),
    }


# -- verification sweeps ----------------------------------------------------------
#
# The checks functions reach the library at call time (module attributes or
# this module's imported names), never through references stored at import.

def _thm42_checks(model, alpha, box, pmax, samples):
    p_range = range(-model.n, pmax + 1)
    reps = (
        koszul.verify_thm42_i(model, alpha, p_range, box),
        koszul.verify_thm42_ii(model, alpha, p_range, box),
        koszul.verify_thm42_iii(model, alpha, samples=samples),
        koszul.augmentation_zero_check(model, alpha),
    )
    return [c for rep in reps for c in rep["checks"]]


def _axioms_checks(model, alpha, box):
    reps = (check_v_axioms(model, alpha, box), t_shift_check(model, alpha, box))
    return [c for rep in reps for c in rep["checks"]]


def _cor51_checks(model, alpha, box):
    return derham.verify_cor51(model, alpha, range(0, model.n), box)["checks"]


def _cor23_checks(model, alpha, box):
    value = minexp.minexp_value(model)
    checks = []
    for p in (0, 1):
        reps = [minexp.cor23_check(model, p, alpha, box)]
        if value >= p:
            reps.append(minexp.cor24_check(model, p, alpha, box))
        checks += [{"p": p, **c} for rep in reps for c in rep["checks"]]
    return checks


def _cor24_checks(model, alpha, box, ps):
    return [
        {"p": p, **c} for p in ps for c in minexp.cor24_check(model, p, alpha, box)["checks"]
    ]


class _Sweep(NamedTuple):
    keys: tuple            # config keys read besides model, alpha and box
    open_interval: bool    # alphas limited to (0, 1)
    checks: Callable       # (model, alpha, box, *values of keys) -> checks


_SWEEPS = {
    "verify-thm42": _Sweep(("pmax", "samples"), False, _thm42_checks),
    "verify-cor23": _Sweep((), True, _cor23_checks),
    "verify-cor24": _Sweep(("p",), True, _cor24_checks),
    "verify-cor51": _Sweep((), False, _cor51_checks),
    "verify-axioms": _Sweep((), False, _axioms_checks),
}


def _sweep_worker(item):
    """All checks of one (command, alpha); top level for multiprocessing."""
    command, model_json, alpha_s, radius, extra = item
    model = MonomialModel.from_json(json.loads(model_json))
    box = TruncationBox.radius(model.n, radius)
    checks = _SWEEPS[command].checks(model, Fraction(alpha_s), box, *extra)
    return [{"alpha": alpha_s, **c} for c in checks]


def _cmd_sweep(command, config, jobs):
    sweep = _SWEEPS[command]
    got = _parse(config, ("model", "box", "alpha") + sweep.keys)
    model, radius = got["model"], got["box"]
    alphas = _or_jumps(got["alpha"], model)
    if sweep.open_interval:
        # the default all-jumps list ends at 1; an explicit alpha must fit
        outside = [a for a in alphas if not 0 < a < 1]
        if got["alpha"] is not None and outside:
            raise InputError(
                f"{command} takes alphas in (0, 1), got {format_rational(outside[0])}"
            )
        alphas = [a for a in alphas if 0 < a < 1]
    if "p" in got:
        # by default, every p in {0, 1} the minimal exponent reaches
        value = minexp.minexp_value(model)
        got["p"] = [p for p in (0, 1) if value >= p] if got["p"] is None else [got["p"]]
    extra = tuple(got[k] for k in sweep.keys)
    mj = json.dumps(model.to_json())
    items = [(command, mj, format_rational(a), radius, extra) for a in sorted(alphas)]
    size = min(jobs, len(items), os.cpu_count() or 1)
    if size > 1:
        with multiprocessing.Pool(size) as pool:
            results = pool.map(_sweep_worker, items)
    else:
        results = [_sweep_worker(it) for it in items]
    notes = _box_note(model, radius, got.get("pmax", DEFAULT_PMAX))
    return {
        "params": {
            **got,
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
        },
        "checks": notes + [c for cs in results for c in cs],
    }


# -- command handlers ----------------------------------------------------------

def _cmd_lct(config, jobs):
    res = _parse(config, ("pairs",))["pairs"]
    return {
        "lct": format_rational(lct_from_resolution(res)),
        "params": {"pairs": [list(pair) for pair in res.pairs]},
        "checks": [],
    }


def _cmd_minexp(config, jobs):
    got = _parse(config, ("model", "pmax"), pmax=4)
    model, pmax = got["model"], got["pmax"]
    result = minexp.minexp_monomial(model, pmax)
    consistency = minexp.lct_consistency(model, pmax)
    return {
        "minexp": format_rational(result.value),
        "witness": result.witness,
        "params": {"model": model.to_json(), "pmax": pmax},
        "checks": consistency["checks"],
    }


def _cmd_jumps(config, jobs):
    source = "model" if "model" in config else "coeffs"
    got = _parse(config, (source, "lo", "hi"))
    if source == "model":
        D, params = got["model"].divisor(), {"model": got["model"].to_json()}
    else:
        D, params = got["coeffs"], {"coeffs": list(got["coeffs"].coeffs)}
    vals = jump_candidates(D, got["lo"], got["hi"])
    params.update({"lo": format_rational(got["lo"]), "hi": format_rational(got["hi"])})
    return {
        "jumps": [format_rational(v) for v in vals],
        "params": params,
        "checks": [],
    }


def _cmd_vfilt(config, jobs):
    got = _parse(config, ("model", "element", "alpha"))
    model, (text, u), alphas = got["model"], got["element"], got["alpha"]
    degs = sorted(multidegree(u, model))
    payload = {
        "params": {"model": model.to_json(), "element": text},
        "multidegrees": [list(d) for d in degs],
        "checks": [],
    }
    if alphas is not None:
        if len(alphas) > 1:
            raise InputError("vfilt takes a single alpha")
        payload["member"] = v_member(u, alphas[0], model)
        payload["params"]["alpha"] = format_rational(alphas[0])
    else:
        cap = _parse(config, ("cap",))["cap"]
        payload["v_order"] = format_rational(v_order(u, model, cap))
        payload["params"]["cap"] = format_rational(cap)
        payload["members"] = {
            format_rational(c): v_member(u, c, model)
            for c in jump_candidates(model.divisor(), 0, cap)
        }
    return payload


def _cmd_psi_dims(config, jobs):
    got = _parse(config, ("model", "pmax", "box", "alpha", "p"))
    model, pmax, radius = got["model"], got["pmax"], got["box"]
    box = TruncationBox.radius(model.n, radius)
    alphas = _or_jumps(got["alpha"], model)
    ps = list(range(0, pmax + 2)) if got["p"] is None else [got["p"]]
    tables = []
    for alpha in alphas:
        for p in ps:
            tables.append(minexp.psi_hodge_dim(p, alpha, box, model).to_json())
    return {
        "tables": tables,
        "params": {
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
            "p": ps,
            "box": radius,
        },
        "checks": _box_note(model, radius, pmax),
    }


def _cmd_catalog(config, jobs):
    return {"models": [m.to_json() for m in catalog()], "params": {}, "checks": []}


_HANDLERS = {
    "lct": _cmd_lct,
    "minexp": _cmd_minexp,
    "jumps": _cmd_jumps,
    "vfilt": _cmd_vfilt,
    "psi-dims": _cmd_psi_dims,
    **{command: functools.partial(_cmd_sweep, command) for command in _SWEEPS},
    "catalog": _cmd_catalog,
}
COMMANDS = tuple(_HANDLERS)


def run(config, jobs=1):
    """Dispatch a JSON config to its command handler.

    Returns (report, exit_code): 0 all PASS, 1 input error, 2 verification
    failure.  Reports are identical regardless of the job count.
    """
    try:
        command = config.get("command")
        if command not in COMMANDS:
            raise InputError(
                f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
            )
        payload = _HANDLERS[command](config, max(1, int(jobs)))
    except InputError as exc:
        report = {"command": config.get("command"), "error": str(exc)}
        return report, 1
    report = {"command": command, **payload}
    report["summary"] = _summarize(payload.get("checks", []))
    report["status"] = "FAIL" if report["summary"]["fail"] else "PASS"
    code = 2 if report["summary"]["fail"] else 0
    return report, code


def report_to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report) -> str:
    buf = io.StringIO()
    if "tables" in report:
        writer = csv.writer(buf)
        writer.writerow(["degree", "p", "alpha", "q", "dim"])
        for table in report["tables"]:
            p = table.get("p", "")
            alpha = table.get("alpha", "")
            for deg in sorted(table["dims"]):
                entry = table["dims"][deg]
                if isinstance(entry, dict):
                    for q in sorted(entry, key=int):
                        writer.writerow([deg, p, alpha, q, entry[q]])
                else:
                    writer.writerow([deg, p, alpha, "", entry])
    else:
        writer = csv.writer(buf)
        writer.writerow(["name", "status", "info"])
        for c in report.get("checks", []):
            rest = {k: v for k, v in sorted(c.items()) if k not in ("name", "status")}
            writer.writerow(
                [c.get("name", ""), c.get("status", ""), json.dumps(rest, sort_keys=True)]
            )
    return buf.getvalue()


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="minexp-lab",
        description="Exact verification harness for V-filtrations of monomial divisors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help='model JSON, e.g. {"n":2,"exponents":[1,1]}')
    common.add_argument("--alpha", help='rational like 1/2, or "all-jumps"')
    common.add_argument("--pmax", type=int, help="Hodge sweep bound")
    common.add_argument("--box", type=int, help="multidegree box radius")
    common.add_argument("--p", type=int, help="single Hodge index")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--jobs", type=int, help="parallel worker count")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "lct":
            p.add_argument("--pairs", help="JSON [[a_i, k_i], ...]")
        if name == "jumps":
            p.add_argument("--coeffs", help="JSON [a_1, ...]")
            p.add_argument("--lo")
            p.add_argument("--hi")
        if name == "vfilt":
            p.add_argument("--element", help='e.g. "y^(1,0) dy dt delta"')
            p.add_argument("--cap")
        if name == "verify-thm42":
            p.add_argument("--samples", type=int)
    runp = sub.add_parser("run", parents=[common])
    runp.add_argument("--config", required=True, help="JSON config path or literal")
    return parser


def _config_from_args(args):
    if args.command == "run":
        text = args.config
        if not text.lstrip().startswith("{"):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON config: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError("config must be a JSON object")
        return config
    config = {"command": args.command}
    for key in _PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        jobs = args.jobs or _int("MINEXP_LAB_JOBS", os.environ.get("MINEXP_LAB_JOBS", 1), {})
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    report, code = run(config, jobs=jobs)
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if code == 1 and "error" in report:
        print(f"input error: {report['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
