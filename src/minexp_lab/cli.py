"""Command-line verification harness.

Commands: lct, minexp, jumps, vfilt, psi-dims, verify-thm42, verify-cor23,
verify-cor24, verify-cor51, verify-axioms, catalog, run.  `run` takes a
JSON config (path or literal) with the same keys as the flags, and
refuses a config-key flag beside it, which it would otherwise drop.  Every
other command takes every flag, as text: a flag is the config key of its
name, and a key the command does not read is ignored on both paths.  An
alpha list is JSON text as a flag (--alpha '["1/3","1/2"]').

Every config value is validated and coerced in one place, `_parse`; a
malformed value is an input error.  A report's `params` lists exactly the
values the run used, after defaults and parsing: a key a command does not
read is neither validated nor echoed.  The five verify commands are one
sweep over alphas (`_SWEEPS`), run in the calling process in sorted-alpha
order.  verify-cor23 and verify-cor24 take alphas in (0, 1): an explicit
alpha outside is an input error, while the default all-jumps list just
leaves out alpha = 1.  Both compute the minimal exponent once per
run and hand it to every alpha.  A box radius R in n variables is refused
when its volume (2R+1)^n exceeds MAX_BOX_VOLUME, a verify command refuses a
model with n above vfilt.MAX_N, and a pmax above MAX_PMAX or a samples
count above MAX_SAMPLES is refused.  No command lists more than MAX_JUMPS
jump candidates: a model with sum a_i above it, a jumps range (lo, hi]
or a vfilt cap whose count bound is above it is refused before any
candidate is listed.  A sweep whose radius leaves deep levels little
room says so in a top-level `notes` list; notes are not checks and are not
counted in `summary`.

Reports are deterministic byte-for-byte: checks are produced in sorted key
order, JSON is dumped with sorted keys, and scheduling parameters (--jobs,
--out, --format) are not echoed.  Exit codes: 0 all PASS, 1 input error (one
`input error:` line on stderr and no report), 2 verification failure (a
VerificationError is one FAIL check).  A malformed command line (an unknown
flag, a flag without its value, --format other than json or csv, no
command), a config path that cannot be read or is not UTF-8, and an --out
path that cannot be written are input errors too; --out is checked before
any work.  --jobs is accepted and validated (at least 1) only because the
benchmark passes it, and changes nothing: on 2 CPUs a sweep split over
forked processes ran slower than in one process (README).
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from .divisors import ResolutionNumerics, SncDivisor, jump_candidates, lct_from_resolution
from .rationals import Infinity, InputError, VerificationError, format_rational, parse_rational
from .vfilt import MAX_N, TruncationBox, v_member, v_order
from .weyl import MonomialModel, multidegree
from . import derham, koszul, minexp

DEFAULT_BOX = 6
DEFAULT_PMAX = 3
# Largest box volume (2R+1)^n a command accepts.  Work grows with the volume;
# the acceptance sweeps use 13^3 = 2197, while n = 40 at radius 1 never ends.
MAX_BOX_VOLUME = 10**6
# Largest pmax a command accepts.  Work grows steeply with it: verify-thm42 on
# (3, [1, 2, 2]) at radius 2 takes about 1.5 s at 32, 17 s at 64, and more
# than 120 s at 100; the catalog sweeps use pmax <= 4.
MAX_PMAX = 32
# Largest sample count verify-thm42 accepts.  Work is linear in it: 1,000
# samples of the monodromy check took 0.21 s on (1, [1]) and 0.60 s on
# (3, [2, 3, 4]) at one alpha; the catalog sweeps use the default 20.
MAX_SAMPLES = 1000
# Largest number of jump candidates a command may list, bounded before any is
# listed: Σ a_i for a model (at most that many lie in (0, 1], where a command
# takes its default jumps), Σ(⌊hi·a_i⌋ − ⌊lo·a_i⌋) for a jumps range of a
# model or coeffs and Σ⌊cap·a_i⌋ for a vfilt cap.
# Work is linear in it: a cold jumps call listing 1,000 took 0.14 s and one
# listing 400,000 ((2, [2, 3]) up to hi = 10^5) took 1.7 s and 82 MB, and
# verify-thm42 on (1, [1000]) at box 0 swept its 1,000 default alphas in
# 4.2 s; catalog models have Σ a_i <= 12.
MAX_JUMPS = 1000


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


def _count(key, value, got):
    """A nonnegative integer: a negative bound would run nothing and pass."""
    x = _int(key, value, got)
    if x < 0:
        raise InputError(f"{key} must be >= 0, got {x}")
    return x


def _at_most(bound):
    """A _count parser that refuses a value above `bound`."""
    def parse(key, value, got):
        x = _count(key, value, got)
        if x > bound:
            raise InputError(f"{key} must be <= {bound}, got {x}")
        return x
    return parse


def _rational(key, value, got):
    """A finite rational; no parameter accepts "inf"."""
    x = parse_rational(str(value))
    if isinstance(x, Infinity):
        raise InputError(f"{key} must be a finite rational, got {value!r}")
    return x


def _jump_bound(key, D, lo, hi):
    """Refuse a window (lo, hi] that may hold more than MAX_JUMPS candidates
    j/a_i: Σ(⌊hi·a_i⌋ − ⌊lo·a_i⌋) over the positive a_i of D bounds them.
    A candidate is positive, so a negative lo counts from 0 (and
    jump_candidates refuses it)."""
    lo = max(lo, 0)
    bound = sum(math.floor(hi * a) - math.floor(lo * a) for a in D if a > 0)
    if bound > MAX_JUMPS:
        raise InputError(
            f"{key} allows up to {bound} jump candidates in ({format_rational(lo)}, "
            f"{format_rational(hi)}], above the limit {MAX_JUMPS}"
        )


def _model(key, value, got):
    model = MonomialModel.from_json(_json(value, key))
    _jump_bound(key, model.divisor(), 0, 1)
    return model


def _coeffs(key, value, got):
    """Divisor coefficients, each >= 0: jump_candidates reads only the
    positive ones, so a negative one would be echoed but not used."""
    D = SncDivisor(_json(value, key))
    if any(c < 0 for c in D.coeffs):
        raise InputError(f"{key} must be >= 0, got {list(D.coeffs)}")
    return D


def _alphas(key, value, got):
    """A rational or a nonempty list of them, the list also as JSON text
    (as its flag gives it); None for "all-jumps"."""
    if value == "all-jumps":
        return None
    if isinstance(value, str) and value.lstrip().startswith("["):
        value = _json(value, key)
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
    radius, n = _count(key, value, got), got["model"].n
    if (2 * radius + 1) ** n > MAX_BOX_VOLUME:
        raise InputError(
            f"box radius {radius} in {n} variables exceeds the volume limit {MAX_BOX_VOLUME}"
        )
    return radius


def _element(key, value, got):
    """(text, element): the text is echoed, the element is used."""
    if not isinstance(value, str):
        raise InputError(f"element must be text, got {value!r}")
    from .syntax import parse_element  # only the vfilt command parses an element

    u = parse_element(value, got["model"].n)
    if u.is_zero():
        raise InputError("vfilt element must be nonzero")
    return value, u


_PARSERS = {
    "model": _model,
    "alpha": _alphas,
    "box": _box,
    "pmax": _at_most(MAX_PMAX),
    "p": _int,
    "samples": _at_most(MAX_SAMPLES),
    "lo": _rational,
    "hi": _rational,
    "cap": _rational,
    "element": _element,
    "pairs": lambda key, value, got: ResolutionNumerics(_json(value, key)),
    "coeffs": _coeffs,
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


def _box_notes(model, radius, pmax):
    """A report's top-level notes: {} or {"notes": [the box-radius-note]}."""
    if radius >= pmax + max(model.a):
        return {}
    note = (
        f"box radius {radius} is below p_max + max(a_i) = "
        f"{pmax + max(model.a)}; truncation is still exact, but "
        "deep filtration levels have little room in the window"
    )
    return {"notes": [{"name": "box-radius-note", "note": note}]}


def _summarize(checks):
    return {
        "pass": sum(1 for c in checks if c.get("status") == "PASS"),
        "fail": sum(1 for c in checks if c.get("status") == "FAIL"),
    }


# -- verification sweeps ----------------------------------------------------------
#
# The checks functions reach the library at call time (module attributes or
# this module's imported names), never through references stored at import.
# cbar and axioms are imported by the one command that runs them, so no
# other command, and no import of this module, compiles them.

def _thm42_checks(model, alpha, box, pmax, samples):
    from . import cbar

    p_range = range(-model.n, pmax + 1)
    reps = (
        koszul.verify_thm42_i(model, alpha, p_range, box),
        koszul.verify_thm42_ii(model, alpha, p_range, box),
        cbar.verify_thm42_iii(model, alpha, samples=samples),
        cbar.augmentation_zero_check(model, alpha),
    )
    return [c for rep in reps for c in rep["checks"]]


def _axioms_checks(model, alpha, box):
    from . import axioms

    return axioms.check_v_axioms(model, alpha, box)["checks"]


def _cor51_checks(model, alpha, box):
    return derham.verify_cor51(model, alpha, range(0, model.n), box)["checks"]


def _cor23_checks(model, alpha, box, value):
    """`value` is the minimal exponent, computed once per run."""
    checks = []
    for p in (0, 1):
        reps = [minexp.cor23_check(model, p, alpha, box, value=value)]
        if value >= p:
            reps.append(minexp.cor24_check(model, p, alpha, box, value=value))
        checks += [{"p": p, **c} for rep in reps for c in rep["checks"]]
    return checks


def _cor24_checks(model, alpha, box, ps, value):
    """`value` is the minimal exponent, computed once per run."""
    return [
        {"p": p, **c}
        for p in ps
        for c in minexp.cor24_check(model, p, alpha, box, value=value)["checks"]
    ]


class _Sweep(NamedTuple):
    keys: tuple            # config keys read besides model, alpha and box
    open_interval: bool    # alphas limited to (0, 1); the checks also get the
                           # minimal exponent, computed once per run
    checks: Callable       # (model, alpha, box, *values of keys[, minexp]) -> checks


_SWEEPS = {
    "verify-thm42": _Sweep(("pmax", "samples"), False, _thm42_checks),
    "verify-cor23": _Sweep((), True, _cor23_checks),
    "verify-cor24": _Sweep(("p",), True, _cor24_checks),
    "verify-cor51": _Sweep((), False, _cor51_checks),
    "verify-axioms": _Sweep((), False, _axioms_checks),
}


def _cmd_sweep(command, config):
    sweep = _SWEEPS[command]
    got = _parse(config, ("model", "box", "alpha") + sweep.keys)
    model, radius = got["model"], got["box"]
    if model.n > MAX_N:
        raise InputError(f"{command} takes n <= {MAX_N}, got n = {model.n}")
    if got.get("p") is not None and got["p"] < 0:
        # cor24_check refuses it too, but the alpha filter below may leave
        # no alpha to reach it
        raise InputError(f"p must be >= 0, got {got['p']}")
    alphas = _or_jumps(got["alpha"], model)
    extra = ()
    if sweep.open_interval:
        # the default all-jumps list ends at 1; an explicit alpha must fit
        outside = [a for a in alphas if not 0 < a < 1]
        if got["alpha"] is not None and outside:
            raise InputError(
                f"{command} takes alphas in (0, 1), got {format_rational(outside[0])}"
            )
        alphas = [a for a in alphas if 0 < a < 1]
        # every alpha reuses the value instead of computing it again; by
        # default, verify-cor24 runs every p in {0, 1} the value reaches
        value = minexp.minexp_value(model)
        if "p" in got:
            got["p"] = [p for p in (0, 1) if value >= p] if got["p"] is None else [got["p"]]
        extra = (value,)
    extra = tuple(got[k] for k in sweep.keys) + extra
    box = TruncationBox.radius(model.n, radius)
    return {
        "params": {
            **got,
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
        },
        "checks": [
            {"alpha": format_rational(alpha), **c}
            for alpha in sorted(alphas)
            for c in sweep.checks(model, alpha, box, *extra)
        ],
        **_box_notes(model, radius, got.get("pmax", DEFAULT_PMAX)),
    }


# -- command handlers ----------------------------------------------------------

def _cmd_lct(config):
    res = _parse(config, ("pairs",))["pairs"]
    return {
        "lct": format_rational(lct_from_resolution(res)),
        "params": {"pairs": [list(pair) for pair in res.pairs]},
        "checks": [],
    }


def _cmd_minexp(config):
    got = _parse(config, ("model", "pmax"), pmax=4)
    model, pmax = got["model"], got["pmax"]
    result = minexp.minexp_monomial(model, pmax)
    consistency = minexp.lct_consistency(model, result.value)
    return {
        "minexp": format_rational(result.value),
        "witness": result.witness,
        "params": {"model": model.to_json(), "pmax": pmax},
        "checks": consistency["checks"],
    }


def _cmd_jumps(config):
    source = "model" if "model" in config else "coeffs"
    got = _parse(config, (source, "lo", "hi"))
    if source == "model":
        D, params = got["model"].divisor(), {"model": got["model"].to_json()}
    else:
        D, params = got["coeffs"], {"coeffs": list(got["coeffs"].coeffs)}
    _jump_bound("jumps range", D, got["lo"], got["hi"])
    vals = jump_candidates(D, got["lo"], got["hi"])
    params.update({"lo": format_rational(got["lo"]), "hi": format_rational(got["hi"])})
    return {
        "jumps": [format_rational(v) for v in vals],
        "params": params,
        "checks": [],
    }


def _cmd_vfilt(config):
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
        _jump_bound("cap", model.divisor(), 0, cap)
        payload["v_order"] = format_rational(v_order(u, model, cap))
        payload["params"]["cap"] = format_rational(cap)
        payload["members"] = {
            format_rational(c): v_member(u, c, model)
            for c in jump_candidates(model.divisor(), 0, cap)
        }
    return payload


def _cmd_psi_dims(config):
    """One table {"p", "alpha", "dims"} per (alpha, p), dims keyed by the
    text "(d_1,...,d_n)" with zeros left out; report_to_csv reads it."""
    got = _parse(config, ("model", "pmax", "box", "alpha", "p"))
    model, pmax, radius = got["model"], got["pmax"], got["box"]
    box = TruncationBox.radius(model.n, radius)
    alphas = _or_jumps(got["alpha"], model)
    ps = list(range(0, pmax + 2)) if got["p"] is None else [got["p"]]
    tables = []
    for alpha in alphas:
        for p in ps:
            dims = minexp.psi_hodge_dim(p, alpha, box, model)
            text = {"(" + ",".join(map(str, d)) + ")": dim for d, dim in dims.items()}
            tables.append({"p": p, "alpha": format_rational(alpha), "dims": text})
    return {
        "tables": tables,
        "params": {
            "model": model.to_json(),
            "alpha": [format_rational(a) for a in alphas],
            "p": ps,
            "box": radius,
            "pmax": pmax,
        },
        "checks": [],
        **_box_notes(model, radius, pmax),
    }


def _cmd_catalog(config):
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
    failure, a VerificationError included (reported as one FAIL check
    naming the invariant).  `jobs` is accepted for compatibility and does
    not change the report; the benchmark's reference run passes it.
    """
    try:
        command = config.get("command")
        if command not in COMMANDS:
            raise InputError(
                f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
            )
        payload = _HANDLERS[command](config)
    except InputError as exc:
        report = {"command": config.get("command"), "error": str(exc)}
        return report, 1
    except VerificationError as exc:
        # an identity the library asserts on its own broke: a FAIL, not a crash
        failed = {"name": "verification-error", "status": "FAIL", "invariant": str(exc)}
        payload = {"checks": [failed]}
    report = {"command": command, **payload}
    report["summary"] = _summarize(payload.get("checks", []))
    report["status"] = "FAIL" if report["summary"]["fail"] else "PASS"
    code = 2 if report["summary"]["fail"] else 0
    return report, code


def report_to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report) -> str:
    import csv  # only --format csv needs it; importing cli stays without it

    buf = io.StringIO()
    writer = csv.writer(buf)
    if "tables" in report:
        writer.writerow(["degree", "p", "alpha", "dim"])
        for table in report["tables"]:
            for deg, dim in sorted(table["dims"].items()):
                writer.writerow([deg, table["p"], table["alpha"], dim])
    else:
        writer.writerow(["name", "status", "info"])
        # a note has no status: its row leaves that column empty
        for c in report.get("checks", []) + report.get("notes", []):
            rest = {k: v for k, v in sorted(c.items()) if k not in ("name", "status")}
            writer.writerow(
                [c.get("name", ""), c.get("status", ""), json.dumps(rest, sort_keys=True)]
            )
    return buf.getvalue()


def _refuse(message):
    """argparse's error hook: a malformed command line is an input error."""
    raise InputError(message)


def _build_parser():
    """One flat parser: every flag is text, read by `_parse` as the config
    key of its name, and a flag the command does not read is ignored."""
    # imported here, not at the top: argparse (with gettext) is only needed
    # by main(), and a process that imports cli to call run() skips it
    import argparse

    parser = argparse.ArgumentParser(
        prog="minexp-lab",
        description="Exact verification harness for V-filtrations of monomial divisors. "
        "A flag is the config key of its name, as text: --model, --pairs and --coeffs "
        'take JSON (--model \'{"n":2,"exponents":[1,1]}\'), --alpha a rational, '
        "a JSON list of them or all-jumps, --element an element like 'y^(1,0) dy dt delta'.",
    )
    parser.error = _refuse
    parser.add_argument("command", help=f"one of {', '.join(COMMANDS)}, or run")
    for key in _PARSERS:
        parser.add_argument(f"--{key}")
    parser.add_argument("--config", help="run: JSON config path or literal")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--jobs", default=1, help="accepted for compatibility, at least 1")
    return parser


def _config_from_args(args):
    flags = {k: v for k, v in vars(args).items() if k in _PARSERS and v is not None}
    if args.command != "run":
        return {"command": args.command, **flags}
    if flags:
        named = ", ".join(f"--{k}" for k in flags)
        raise InputError(f"run reads its keys from --config only, not from {named}")
    text = args.config
    if text is None:
        raise InputError("run requires --config")
    if not text.lstrip().startswith("{"):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config {text}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"config {text} is not UTF-8: {exc.reason}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON config: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError("config must be a JSON object")
    return config


def _check_out(path):
    """Refuse an --out path whose folder is missing or that is a folder,
    before any work is done."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise InputError(f"cannot write report to {path}: no folder {folder}")
    if os.path.isdir(path):
        raise InputError(f"cannot write report to {path}: it is a folder")


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if _int("--jobs", args.jobs, {}) < 1:
            raise InputError(f"--jobs must be >= 1, got {args.jobs}")
        config = _config_from_args(args)
        if args.out:
            _check_out(args.out)
        report, code = run(config)
        if code == 1:
            raise InputError(report["error"])
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write report to {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
