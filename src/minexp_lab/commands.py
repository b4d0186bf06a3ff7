"""The command machinery of the harness: the config keys, the verify
sweeps, the command handlers, the command line and the report writers.
cli.run and cli.main import it at call time, so only a process that runs
a command compiles it; cli holds the catalog, the MAX_* bounds and the
library functions the commands call.

Commands: lct, minexp, jumps, vfilt, psi-dims, verify-thm42, verify-cor23,
verify-cor24, verify-cor51, verify-axioms, catalog, run.  `run` takes a
JSON config (path or literal) with the same keys as the flags, and
refuses a config-key flag beside it, which it would otherwise drop.  Every
other command takes every flag, as text: a flag is the config key of its
name, and a key the command does not read is ignored on both paths.  An
alpha list is JSON text as a flag (--alpha '["1/3","1/2"]'), and one that
repeats a value ("1/2" and "2/4" are one value) is refused.

Each config key is one row of `_KEYS`: the parser that validates, coerces
and bounds its value (a malformed one is an input error), and its default.
One function, `_params`, builds every report's `params` from the parsed
values and the alpha and p lists the command resolved: exactly the values
the run used; a key a command does not read is neither validated nor
echoed (psi-dims reads pmax only without an explicit p).  `run` refuses a
config that is not a JSON object.  The five verify commands are one sweep
over alphas (`_SWEEPS`), run in the calling process in sorted-alpha order.
verify-cor23 and verify-cor24 take alphas in (0, 1): an explicit alpha
outside is an input error, while the default all-jumps list just leaves out
alpha = 1.  Both compute the minimal exponent once per run and hand it to
every alpha; verify-cor24 refuses an explicit p above it, even with no alpha
left to run.  A box radius R in n variables is refused when its volume
(2R+1)^n exceeds MAX_BOX_VOLUME, a verify command refuses a model with n
above vfilt.MAX_N, and a pmax above MAX_PMAX, a samples count
above MAX_SAMPLES or a vfilt element dt order above MAX_DT_ORDER is refused.
No command lists more than MAX_JUMPS jump candidates: a model with sum a_i
above it, a jumps range (lo, hi] or a vfilt cap whose count bound is above
it is refused before any candidate is listed.  A sweep whose radius leaves
deep levels little room says so in a top-level `notes` list; notes are not
checks and are not counted in `summary`.

Reports are deterministic byte-for-byte, whatever PYTHONHASHSEED: checks
are produced in sorted key order, JSON is dumped with sorted keys, and
--jobs, --out and --format are not echoed.  Exit codes: 0 all PASS, 1 input
error (one `input error:` line on stderr and no report), 2 verification
failure (a VerificationError is one FAIL check).  A malformed command line
(an unknown flag, a flag without its value, --format other than json or
csv, no command), a config path that cannot be read or is not UTF-8, and an
--out path that cannot be written are input errors too; --out is checked
before any work.  --jobs is validated (at least 1) and otherwise ignored;
it is kept only because the cli-cold benchmark passes it (README).
"""

from __future__ import annotations

import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

# the library functions come through cli, which says why
from .cli import (
    DEFAULT_BOX,
    DEFAULT_PMAX,
    MAX_BOX_VOLUME,
    MAX_DT_ORDER,
    MAX_JUMPS,
    MAX_PMAX,
    MAX_SAMPLES,
    catalog,
    format_rational,
    jump_candidates,
    lct_from_resolution,
    minexp_report,
    multidegree,
    parse_rational,
    psi_dims,
    v_member,
    v_order,
)
from .divisors import ResolutionNumerics, SncDivisor
from .rationals import Infinity, InputError, VerificationError
from .vfilt import MAX_N, TruncationBox
from .weyl import MonomialModel
from . import derham, koszul, minexp


# -- config keys ----------------------------------------------------------------
#
# A parser takes (key, value, parsed so far) and returns the coerced value or
# raises InputError; a parser that needs another key (the model, or hi's lo
# and cap's alpha) reads it from the keys parsed before it.  A parser checks
# its key's bound itself.

def _int(key, value, got):
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{key} must be an integer, got {value!r}")


def _count(key, value, got, bound=None):
    """A nonnegative integer, at most `bound` if one is given: a negative
    bound would run nothing and pass."""
    x = _int(key, value, got)
    if x < 0:
        raise InputError(f"{key} must be >= 0, got {x}")
    if bound is not None and x > bound:
        raise InputError(f"{key} must be <= {bound}, got {x}")
    return x


def _rational(key, value, got):
    """A finite rational; no parameter accepts "inf"."""
    x = parse_rational(str(value))
    if isinstance(x, Infinity):
        raise InputError(f"{key} must be a finite rational, got {value!r}")
    return x


def _divisor(got):
    """The divisor of the model, or else the coeffs, parsed so far."""
    return got["model"].divisor() if "model" in got else got["coeffs"]


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


def _hi(key, value, got):
    """The top of a jumps range (lo, hi] of the model or coeffs."""
    hi = _rational(key, value, got)
    _jump_bound("jumps range", _divisor(got), got["lo"], hi)
    return hi


def _cap(key, value, got):
    """vfilt's cap (0, cap], read only when no alpha is given."""
    if got["alpha"] is not None:
        return None
    cap = _rational(key, value, got)
    _jump_bound(key, got["model"].divisor(), 0, cap)
    return cap


def _coeffs(key, value, got):
    """Divisor coefficients, each >= 0: jump_candidates reads only the
    positive ones, so a negative one would be echoed but not used."""
    D = SncDivisor(_json(value, key))
    if any(c < 0 for c in D.coeffs):
        raise InputError(f"{key} must be >= 0, got {list(D.coeffs)}")
    return D


def _alphas(key, value, got):
    """A rational or a nonempty list of distinct ones, the list also as JSON
    text (as its flag gives it); None for "all-jumps"."""
    if value == "all-jumps":
        return None
    if isinstance(value, str) and value.lstrip().startswith("["):
        value = _json(value, key)
    values = value if isinstance(value, list) else [value]
    if not values:
        raise InputError("alpha list is empty")
    alphas = [_rational(key, v, got) for v in values]
    seen = set()
    for alpha in alphas:
        if alpha in seen:
            raise InputError(f"alpha list repeats {format_rational(alpha)}")
        seen.add(alpha)
    return alphas


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
    if max(m for _, m in u.terms) > MAX_DT_ORDER:
        raise InputError(f"vfilt element has a dt order above the limit {MAX_DT_ORDER}")
    return value, u


_REQUIRED = object()

# Every config key: (parser, default), each parser checking its key's MAX_*
# bound.  A _REQUIRED key must be given; "p" defaults to None, which each
# command that reads it resolves.
_KEYS = {
    "model": (_model, _REQUIRED),
    "alpha": (_alphas, "all-jumps"),
    "box": (_box, DEFAULT_BOX),
    "pmax": (functools.partial(_count, bound=MAX_PMAX), DEFAULT_PMAX),
    "p": (_int, None),
    "samples": (functools.partial(_count, bound=MAX_SAMPLES), 20),
    "lo": (_rational, "0"),
    "hi": (_hi, "1"),
    "cap": (_cap, "1"),
    "element": (_element, _REQUIRED),
    "pairs": (lambda key, value, got: ResolutionNumerics(_json(value, key)), _REQUIRED),
    "coeffs": (_coeffs, _REQUIRED),
}


def _parse(config, keys, **defaults):
    """{key: parsed value} for `keys`, in order; a missing or null key takes
    its default (`defaults` overrides the table's).  The only place a config
    value is read and coerced: handlers check only how values combine
    (vfilt takes one alpha, cor24's p at most the minexp), the library what
    its functions require (0 <= lo < hi)."""
    got = {}
    for key in keys:
        parse, default = _KEYS[key]
        value = config.get(key)
        if value is None:
            value = defaults.get(key, default)
            if value is _REQUIRED:
                raise InputError(f"{config.get('command')} requires {key!r}")
        got[key] = None if value is None else parse(key, value, got)
    return got


def _echo(value):
    """The JSON form of a parsed value, as a report's `params` lists it."""
    if isinstance(value, list):
        return [_echo(v) for v in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, MonomialModel):
        return value.to_json()
    if isinstance(value, SncDivisor):
        return list(value.coeffs)
    if isinstance(value, ResolutionNumerics):
        return [list(pair) for pair in value.pairs]
    if isinstance(value, tuple):  # an element: the text it was parsed from
        return value[0]
    return value


def _params(got, **resolved):
    """A report's `params`: every parsed value the run used, with the values
    a command resolved (its alpha and p lists) in place of the parsed ones;
    a None (vfilt's cap beside an alpha, its alpha without one) is left out."""
    return {key: _echo(v) for key, v in {**got, **resolved}.items() if v is not None}


def _or_jumps(alphas, model):
    return jump_candidates(model.divisor(), 0, 1) if alphas is None else alphas


def _box_notes(model, radius, pmax, name="p_max"):
    """A report's top-level notes: {} or {"notes": [the box-radius-note]},
    which cites the top p as `name`."""
    if radius >= pmax + max(model.a):
        return {}
    note = (
        f"box radius {radius} is below {name} + max(a_i) = "
        f"{pmax + max(model.a)}; truncation is still exact, but "
        "deep filtration levels have little room in the window"
    )
    return {"notes": [{"name": "box-radius-note", "note": note}]}


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


# command: (config keys read besides model, alpha and box, whether the alphas
# are limited to (0, 1), the checks function).  The checks get
# (model, alpha, box, *values of the keys), and an open-interval sweep also
# the minimal exponent, computed once per run.
_SWEEPS = {
    "verify-thm42": (("pmax", "samples"), False, _thm42_checks),
    "verify-cor23": ((), True, _cor23_checks),
    "verify-cor24": (("p",), True, _cor24_checks),
    "verify-cor51": ((), False, _cor51_checks),
    "verify-axioms": ((), False, _axioms_checks),
}


def _cmd_sweep(command, config):
    keys, open_interval, checks = _SWEEPS[command]
    got = _parse(config, ("model", "box", "alpha") + keys)
    model, radius = got["model"], got["box"]
    if model.n > MAX_N:
        raise InputError(f"{command} takes n <= {MAX_N}, got n = {model.n}")
    alphas = _or_jumps(got["alpha"], model)
    extra = ()
    if open_interval:
        # the default all-jumps list ends at 1; an explicit alpha must fit
        outside = [a for a in alphas if not 0 < a < 1]
        if got["alpha"] is not None and outside:
            raise InputError(
                f"{command} takes alphas in (0, 1), got {format_rational(outside[0])}"
            )
        alphas = [a for a in alphas if 0 < a < 1]
        # every alpha reuses the value instead of computing it again
        value = minexp.minexp_value(model)
        if "p" in got:
            # by default, every p in {0, 1} the value reaches; an explicit p
            # that cor24_check would refuse is refused here, since the alpha
            # filter above may leave no alpha to reach it
            got["p"] = [p for p in (0, 1) if value >= p] if got["p"] is None else [got["p"]]
            for p in got["p"]:
                if p < 0:
                    raise InputError(f"p must be >= 0, got {p}")
                if not value >= p:
                    raise InputError(
                        f"cor24_check requires minexp >= p; got {format_rational(value)} < {p}"
                    )
        extra = (value,)
    box = TruncationBox.radius(model.n, radius)
    return {
        "params": _params(got, alpha=alphas),
        "checks": [
            {"alpha": format_rational(alpha), **c}
            for alpha in sorted(alphas)
            for c in checks(model, alpha, box, *(got[k] for k in keys), *extra)
        ],
        **_box_notes(model, radius, got.get("pmax", DEFAULT_PMAX)),
    }


# -- command handlers ----------------------------------------------------------

def _cmd_lct(config):
    got = _parse(config, ("pairs",))
    lct = format_rational(lct_from_resolution(got["pairs"]))
    return {"lct": lct, "params": _params(got), "checks": []}


def _cmd_minexp(config):
    got = _parse(config, ("model", "pmax"), pmax=4)
    result, checks = minexp_report(got["model"], got["pmax"])
    return {
        "minexp": format_rational(result.value),
        "witness": result.witness,
        "params": _params(got),
        "checks": checks,
    }


def _cmd_jumps(config):
    source = "model" if config.get("model") is not None else "coeffs"
    got = _parse(config, (source, "lo", "hi"))
    vals = jump_candidates(_divisor(got), got["lo"], got["hi"])
    return {"jumps": [format_rational(v) for v in vals], "params": _params(got), "checks": []}


def _cmd_vfilt(config):
    got = _parse(config, ("model", "element", "alpha", "cap"))
    model, (_, u), alpha, cap = got["model"], got["element"], got["alpha"], got["cap"]
    payload = {"multidegrees": [list(d) for d in sorted(multidegree(u, model))], "checks": []}
    if alpha is None:
        payload["v_order"] = format_rational(v_order(u, model, cap))
        payload["members"] = {
            format_rational(c): v_member(u, c, model)
            for c in jump_candidates(model.divisor(), 0, cap)
        }
    elif len(alpha) > 1:
        raise InputError("vfilt takes a single alpha")
    else:
        alpha = alpha[0]
        payload["member"] = v_member(u, alpha, model)
    return {**payload, "params": _params(got, alpha=alpha)}


def _cmd_psi_dims(config):
    """One table {"p", "alpha", "dims"} per (alpha, p), dims keyed by the
    text "(d_1,...,d_n)" with zeros left out; report_to_csv reads it.
    An explicit p is the only p, and pmax is then not read."""
    pmax_key = ("pmax",) if config.get("p") is None else ()
    got = _parse(config, ("model", *pmax_key, "box", "alpha", "p"))
    model, radius = got["model"], got["box"]
    box = TruncationBox.radius(model.n, radius)
    alphas = _or_jumps(got["alpha"], model)
    if got["p"] is None:
        ps, notes = list(range(0, got["pmax"] + 2)), _box_notes(model, radius, got["pmax"])
    else:
        ps, notes = [got["p"]], _box_notes(model, radius, got["p"], "p")
    tables = [
        {
            "p": p,
            "alpha": format_rational(alpha),
            "dims": {"(" + ",".join(map(str, d)) + ")": dim for d, dim in dims.items()},
        }
        for alpha, p, dims in psi_dims(model, alphas, ps, box)
    ]
    return {
        "tables": tables,
        "params": _params(got, alpha=alphas, p=ps),
        "checks": [],
        **notes,
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


def run(config):
    """Dispatch a JSON config to its command handler.

    Returns (report, exit_code): 0 all PASS, 1 input error, 2 verification
    failure, a VerificationError included (reported as one FAIL check
    naming the invariant).
    """
    command = None
    try:
        if not isinstance(config, dict):
            raise InputError("config must be a JSON object")
        command = config.get("command")
        if command not in COMMANDS:
            raise InputError(
                f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}"
            )
        payload = _HANDLERS[command](config)
    except InputError as exc:
        return {"command": command, "error": str(exc)}, 1
    except VerificationError as exc:
        # an identity the library asserts on its own broke: a FAIL, not a crash
        failed = {"name": "verification-error", "status": "FAIL", "invariant": str(exc)}
        payload = {"checks": [failed]}
    status = [c.get("status") for c in payload["checks"]]
    summary = {"pass": status.count("PASS"), "fail": status.count("FAIL")}
    report = {"command": command, **payload, "summary": summary}
    report["status"] = "FAIL" if summary["fail"] else "PASS"
    return report, 2 if summary["fail"] else 0


def report_to_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report) -> str:
    import csv  # only --format csv needs it; importing this module stays without it

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
    # by main(), and a process that only calls run() skips it
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
    for key in _KEYS:
        parser.add_argument(f"--{key}")
    parser.add_argument("--config", help="run: JSON config path or literal")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--jobs", default=1, help="ignored; at least 1")
    return parser


def _config_from_args(args):
    flags = {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}
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
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON config: {exc}") from exc


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

