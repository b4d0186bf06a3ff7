"""Command-line verification harness.

Subcommands: lct, minexp, jumps, vfilt, psi-dims, verify-thm42,
verify-cor23, verify-cor24, verify-cor51, verify-axioms, catalog, run.
`run` takes a JSON config (path or literal) with the same keys as the flags.

Reports are deterministic byte-for-byte: checks are produced in sorted key
order, JSON is dumped with sorted keys, and scheduling parameters (--jobs,
--out, --format) are not echoed.  Exit codes: 0 all PASS, 1 input error,
2 verification failure.  --jobs sets the worker count; MINEXP_LAB_JOBS is
only the default when --jobs is not given.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import multiprocessing
import os
import sys
from fractions import Fraction

from .divisors import SncDivisor, jump_candidates, lct_from_resolution
from .rationals import Infinity, InputError, format_rational, parse_rational
from .vfilt import (
    TruncationBox,
    check_v_axioms,
    t_shift_check,
    v_member,
    v_order,
)
from .weyl import MonomialModel, multidegree, parse_element
from . import derham, koszul, minexp

COMMANDS = (
    "lct",
    "minexp",
    "jumps",
    "vfilt",
    "psi-dims",
    "verify-thm42",
    "verify-cor23",
    "verify-cor24",
    "verify-cor51",
    "verify-axioms",
    "catalog",
)

DEFAULT_BOX = 6
DEFAULT_PMAX = 3


def catalog():
    """Standard test catalog: all models with n <= 3, r <= n, nondecreasing
    exponents a_i <= 4 (this includes the smooth model)."""
    models = []
    for n in range(1, 4):
        for r in range(1, n + 1):
            for a in itertools.combinations_with_replacement(range(1, 5), r):
                models.append(MonomialModel(n, a))
    return models


def _model_from_config(config):
    obj = config.get("model")
    if obj is None:
        raise InputError("config requires a 'model'")
    if isinstance(obj, str):
        obj = json.loads(obj)
    return MonomialModel.from_json(obj)


def _int_param(config, key, default):
    value = config.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{key} must be an integer, got {value!r}") from exc


def _rational_param(value, key):
    """A finite rational config value; no parameter accepts "inf"."""
    x = parse_rational(str(value))
    if isinstance(x, Infinity):
        raise InputError(f"{key} must be a finite rational, got {value!r}")
    return x


def _alphas_from_config(config, model, open_interval=False):
    """Resolve the 'alpha' entry: a rational, a list, or "all-jumps"."""
    spec = config.get("alpha", "all-jumps")
    if spec in (None, "all-jumps"):
        cands = jump_candidates(model.divisor(), 0, 1)
    elif isinstance(spec, list):
        cands = [_rational_param(s, "alpha") for s in spec]
    else:
        cands = [_rational_param(spec, "alpha")]
    if open_interval:
        cands = [a for a in cands if 0 < a < 1]
    return cands


def _box_from_config(config, model, pmax):
    radius = _int_param(config, "box", DEFAULT_BOX)
    notes = []
    if radius < pmax + max(model.a):
        notes.append(
            {
                "name": "box-radius-note",
                "status": "PASS",
                "note": (
                    f"box radius {radius} is below p_max + max(a_i) = "
                    f"{pmax + max(model.a)}; truncation is still exact, but "
                    "deep filtration levels have little room in the window"
                ),
            }
        )
    return TruncationBox.radius(model.n, radius), notes


def _summarize(checks):
    return {
        "pass": sum(1 for c in checks if c.get("status") == "PASS"),
        "fail": sum(1 for c in checks if c.get("status") == "FAIL"),
    }


# -- per-alpha workers (top level so multiprocessing can pick them up) --------

def _thm42_worker(args):
    model_json, alpha_s, pmax, radius, samples = args
    model = MonomialModel.from_json(json.loads(model_json))
    alpha = Fraction(alpha_s)
    box = TruncationBox.radius(model.n, radius)
    p_range = range(-model.n, pmax + 1)
    checks = []
    for rep in (
        koszul.verify_thm42_i(model, alpha, p_range, box),
        koszul.verify_thm42_ii(model, alpha, p_range, box),
        koszul.verify_thm42_iii(model, alpha, samples=samples),
        koszul.augmentation_zero_check(model, alpha),
    ):
        for c in rep["checks"]:
            checks.append({"alpha": alpha_s, **c})
    return alpha_s, checks


def _axioms_worker(args):
    model_json, alpha_s, radius = args
    model = MonomialModel.from_json(json.loads(model_json))
    alpha = Fraction(alpha_s)
    box = TruncationBox.radius(model.n, radius)
    checks = []
    for rep in (
        check_v_axioms(model, alpha, box),
        t_shift_check(model, alpha, box),
    ):
        for c in rep["checks"]:
            checks.append({"alpha": alpha_s, **c})
    return alpha_s, checks


def _cor51_worker(args):
    model_json, alpha_s, radius = args
    model = MonomialModel.from_json(json.loads(model_json))
    alpha = Fraction(alpha_s)
    box = TruncationBox.radius(model.n, radius)
    rep = derham.verify_cor51(model, alpha, range(0, model.n), box)
    return alpha_s, [{"alpha": alpha_s, **c} for c in rep["checks"]]


def _cor23_worker(args):
    model_json, alpha_s, radius, pmax = args
    model = MonomialModel.from_json(json.loads(model_json))
    alpha = Fraction(alpha_s)
    box = TruncationBox.radius(model.n, radius)
    value = minexp.minexp_value(model)
    checks = []
    for p in (0, 1):
        rep = minexp.cor23_check(model, p, alpha, box)
        for c in rep["checks"]:
            checks.append({"alpha": alpha_s, "p": p, **c})
        if value >= p:
            rep = minexp.cor24_check(model, p, alpha, box)
            for c in rep["checks"]:
                checks.append({"alpha": alpha_s, "p": p, **c})
    return alpha_s, checks


def _cor24_worker(args):
    model_json, alpha_s, radius, p = args
    model = MonomialModel.from_json(json.loads(model_json))
    alpha = Fraction(alpha_s)
    box = TruncationBox.radius(model.n, radius)
    rep = minexp.cor24_check(model, p, alpha, box)
    return alpha_s, [{"alpha": alpha_s, "p": p, **c} for c in rep["checks"]]


def _fanout(worker, items, jobs):
    if jobs > 1 and len(items) > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(worker, items)
    else:
        results = [worker(it) for it in items]
    results.sort(key=lambda kv: Fraction(kv[0]))
    checks = []
    for _, cs in results:
        checks.extend(cs)
    return checks


# -- command handlers ----------------------------------------------------------

def _cmd_lct(config, jobs):
    pairs = config.get("pairs")
    if pairs is None:
        raise InputError("lct requires 'pairs': [[a_i, k_i], ...]")
    value = lct_from_resolution(pairs)
    return {
        "lct": format_rational(value),
        "params": {"pairs": [[int(a), int(k)] for a, k in pairs]},
        "checks": [],
    }


def _cmd_minexp(config, jobs):
    model = _model_from_config(config)
    pmax = _int_param(config, "pmax", 4)
    result = minexp.minexp_monomial(model, pmax)
    consistency = minexp.lct_consistency(model, pmax)
    return {
        "minexp": format_rational(result.value),
        "witness": result.witness,
        "params": {"model": model.to_json(), "pmax": pmax},
        "checks": consistency["checks"],
    }


def _cmd_jumps(config, jobs):
    if "model" in config:
        D = _model_from_config(config).divisor()
        params = {"model": json.loads(json.dumps(config["model"]))}
    elif "coeffs" in config:
        D = SncDivisor(config["coeffs"])
        params = {"coeffs": list(D.coeffs)}
    else:
        raise InputError("jumps requires 'model' or 'coeffs'")
    lo = _rational_param(config.get("lo", "0"), "lo")
    hi = _rational_param(config.get("hi", "1"), "hi")
    vals = jump_candidates(D, lo, hi)
    params.update({"lo": format_rational(lo), "hi": format_rational(hi)})
    return {
        "jumps": [format_rational(v) for v in vals],
        "params": params,
        "checks": [],
    }


def _cmd_vfilt(config, jobs):
    model = _model_from_config(config)
    text = config.get("element")
    if not text:
        raise InputError("vfilt requires 'element'")
    u = parse_element(text, model.n)
    if u.is_zero():
        raise InputError("vfilt element must be nonzero")
    degs = sorted(multidegree(u, model))
    payload = {
        "params": {"model": model.to_json(), "element": text},
        "multidegrees": [list(d) for d in degs],
        "checks": [],
    }
    if "alpha" in config and config["alpha"] not in (None, "all-jumps"):
        alpha = _rational_param(config["alpha"], "alpha")
        payload["member"] = v_member(u, alpha, model)
        payload["params"]["alpha"] = format_rational(alpha)
    else:
        cap = _rational_param(config.get("cap", "1"), "cap")
        payload["v_order"] = format_rational(v_order(u, model, cap))
        payload["params"]["cap"] = format_rational(cap)
        payload["members"] = {
            format_rational(c): v_member(u, c, model)
            for c in jump_candidates(model.divisor(), 0, cap)
        }
    return payload


def _cmd_psi_dims(config, jobs):
    model = _model_from_config(config)
    pmax = _int_param(config, "pmax", DEFAULT_PMAX)
    box, notes = _box_from_config(config, model, pmax)
    alphas = _alphas_from_config(config, model)
    if "p" in config and config["p"] is not None:
        ps = [_int_param(config, "p", None)]
    else:
        ps = list(range(0, pmax + 2))
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
            "box": _int_param(config, "box", DEFAULT_BOX),
        },
        "checks": notes,
    }


def _sweep_command(config, jobs, worker, extra, open_interval=False):
    model = _model_from_config(config)
    pmax = _int_param(config, "pmax", DEFAULT_PMAX)
    radius = _int_param(config, "box", DEFAULT_BOX)
    _, notes = _box_from_config(config, model, pmax)
    alphas = _alphas_from_config(config, model, open_interval)
    mj = json.dumps(model.to_json())
    items = [(mj, format_rational(a)) + extra(pmax, radius) for a in alphas]
    checks = notes + _fanout(worker, items, jobs)
    return {
        "params": {
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
            "pmax": pmax,
            "box": radius,
        },
        "checks": checks,
    }


def _cmd_verify_thm42(config, jobs):
    samples = _int_param(config, "samples", 20)
    return _sweep_command(
        config, jobs, _thm42_worker, lambda pmax, radius: (pmax, radius, samples)
    )


def _cmd_verify_axioms(config, jobs):
    return _sweep_command(
        config, jobs, _axioms_worker, lambda pmax, radius: (radius,)
    )


def _cmd_verify_cor51(config, jobs):
    return _sweep_command(
        config, jobs, _cor51_worker, lambda pmax, radius: (radius,)
    )


def _cmd_verify_cor23(config, jobs):
    return _sweep_command(
        config,
        jobs,
        _cor23_worker,
        lambda pmax, radius: (radius, pmax),
        open_interval=True,
    )


def _cmd_verify_cor24(config, jobs):
    model = _model_from_config(config)
    value = minexp.minexp_value(model)
    if config.get("p") is not None:
        ps = [_int_param(config, "p", None)]
    else:
        ps = [p for p in (0, 1) if value >= p]
    pmax = _int_param(config, "pmax", DEFAULT_PMAX)
    radius = _int_param(config, "box", DEFAULT_BOX)
    _, notes = _box_from_config(config, model, pmax)
    alphas = _alphas_from_config(config, model, open_interval=True)
    mj = json.dumps(model.to_json())
    items = [
        (mj, format_rational(a), radius, p)
        for a in alphas
        for p in ps
        if value >= p
    ]
    checks = notes + _fanout(_cor24_worker, items, jobs)
    return {
        "params": {
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
            "p": ps,
            "box": radius,
        },
        "checks": checks,
    }


def _cmd_catalog(config, jobs):
    return {
        "models": [m.to_json() for m in catalog()],
        "params": {},
        "checks": [],
    }


_HANDLERS = {
    "lct": _cmd_lct,
    "minexp": _cmd_minexp,
    "jumps": _cmd_jumps,
    "vfilt": _cmd_vfilt,
    "psi-dims": _cmd_psi_dims,
    "verify-thm42": _cmd_verify_thm42,
    "verify-cor23": _cmd_verify_cor23,
    "verify-cor24": _cmd_verify_cor24,
    "verify-cor51": _cmd_verify_cor51,
    "verify-axioms": _cmd_verify_axioms,
    "catalog": _cmd_catalog,
}


def run(config, jobs=1):
    """Dispatch a JSON config to its command handler.

    Returns (report, exit_code): 0 all PASS, 1 input error, 2 verification
    failure.  Reports are identical regardless of the job count.
    """
    try:
        command = config.get("command")
        if command not in _HANDLERS:
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
    for key in ("alpha", "pmax", "box", "p", "cap", "lo", "hi", "element", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "model", None):
        try:
            config["model"] = json.loads(args.model)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad model JSON: {exc}") from exc
    for key in ("pairs", "coeffs"):
        value = getattr(args, key, None)
        if value is not None:
            try:
                config[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad {key} JSON: {exc}") from exc
    return config


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        jobs = args.jobs or _int_param(os.environ, "MINEXP_LAB_JOBS", 1)
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
