"""The harness: dispatch, exit codes, serialization, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from minexp_lab.cli import DEFAULT_PMAX, catalog, main, run
from minexp_lab.commands import COMMANDS, report_to_csv, report_to_json
import minexp_lab
from minexp_lab import axioms, derham, koszul, minexp, rationals, vfilt, weyl
from minexp_lab.rationals import InputError, VerificationError, exact_rank
from minexp_lab.weyl import MonomialModel


def test_lct_command():
    report, code = run({"command": "lct", "pairs": [[1, 0], [2, 1], [3, 2], [6, 4]]})
    assert code == 0 and report["lct"] == "5/6"


def test_minexp_command():
    report, code = run({"command": "minexp", "model": {"n": 2, "exponents": [1, 1]}})
    assert code == 0 and report["minexp"] == "1"
    report, code = run({"command": "minexp", "model": {"n": 1, "exponents": [1]}})
    assert code == 0 and report["minexp"] == "inf"


def test_jumps_command():
    report, code = run({"command": "jumps", "model": {"n": 2, "exponents": [2, 3]}})
    assert code == 0 and report["jumps"] == ["1/3", "1/2", "2/3", "1"]
    report, code = run({"command": "jumps", "coeffs": [2], "lo": "0", "hi": "1"})
    assert code == 0 and report["jumps"] == ["1/2", "1"]
    # a null model is absent, as a null value of any key is: coeffs are read
    report, code = run({"command": "jumps", "model": None, "coeffs": [2]})
    assert code == 0 and report["jumps"] == ["1/2", "1"]


def test_vfilt_command():
    report, code = run(
        {
            "command": "vfilt",
            "model": {"n": 1, "exponents": [2]},
            "element": "dy delta",
        }
    )
    assert code == 0 and report["v_order"] == "1/2"
    assert report["members"] == {"1/2": True, "1": False}
    report, code = run(
        {
            "command": "vfilt",
            "model": {"n": 1, "exponents": [2]},
            "element": "dy delta",
            "alpha": "1/2",
        }
    )
    assert code == 0 and report["member"] is True


def test_psi_dims_command():
    report, code = run(
        {
            "command": "psi-dims",
            "model": {"n": 1, "exponents": [2]},
            "alpha": "1/2",
            "p": 1,
            "box": 4,
        }
    )
    assert code == 0
    assert report["tables"] == [{"p": 1, "alpha": "1/2", "dims": {"(0)": 1}}]


def test_verify_thm42_command():
    config = {
        "command": "verify-thm42",
        "model": {"n": 1, "exponents": [2]},
        "alpha": "all-jumps",
        "pmax": 2,
        "box": 6,
    }
    report, code = run(config)
    assert code == 0
    assert report["status"] == "PASS"
    assert report["summary"]["fail"] == 0 and report["summary"]["pass"] > 0


@pytest.mark.parametrize("config", [[], "x", None, 3], ids=["list", "text", "null", "int"])
def test_run_refuses_a_config_that_is_not_an_object(config):
    assert run(config) == ({"command": None, "error": "config must be a JSON object"}, 1)


def test_input_errors_exit_1():
    for config in [
        {"command": "nope"},
        {"command": "minexp"},
        {"command": "minexp", "model": {"n": 0, "exponents": [1]}},
        {"command": "lct", "pairs": []},
        {"command": "vfilt", "model": {"n": 1, "exponents": [2]}, "element": "dy"},
    ]:
        report, code = run(config)
        assert code == 1 and "error" in report


Y2_MODEL = {"n": 1, "exponents": [2]}
N2_MODEL = {"n": 2, "exponents": [1, 2]}


def _flag_text(key, value):
    """The flag text that `_parse` reads as the config value, or None when a
    flag, which is always text, cannot carry it (a float, a bool, an element
    that is not text)."""
    if isinstance(value, str):
        return value
    if key in ("model", "pairs", "coeffs") or key == "alpha" and isinstance(value, list):
        return json.dumps(value)
    if key in ("box", "pmax", "p", "samples") and type(value) is int:
        return str(value)
    return None


@pytest.mark.parametrize(
    "config",
    [
        {"command": "verify-axioms", "model": Y2_MODEL, "box": "x"},
        {"command": "minexp", "model": {"n": 1, "exponents": ["a"]}},
        {"command": "minexp", "model": {"n": 1, "exponents": 3}},
        {"command": "verify-cor51", "model": Y2_MODEL, "alpha": "inf"},
        {"command": "vfilt", "model": Y2_MODEL, "element": "dy delta", "cap": "inf"},
        {"command": "jumps", "coeffs": ["a"]},
        {"command": "verify-thm42", "model": Y2_MODEL, "samples": "x"},
        {"command": "lct", "pairs": [[1]]},
        {"command": "minexp", "model": "xx"},
        {"command": "vfilt", "model": Y2_MODEL, "element": 5},
        {"command": ["x"]},
        {"command": "verify-axioms", "model": Y2_MODEL, "box": 2.9},
        {"command": "verify-axioms", "model": Y2_MODEL, "box": True},
        {"command": "verify-axioms", "model": Y2_MODEL, "alpha": []},
        {"command": "verify-cor24", "model": Y2_MODEL, "p": 1},
        {"command": "verify-axioms", "model": {"n": 40, "exponents": [1]}, "box": 1},
        {"command": "minexp", "model": {"n": 2.9, "exponents": [1, 2]}},
        {"command": "minexp", "model": {"n": 2, "exponents": "12"}},
        {"command": "minexp", "model": {"n": 1, "exponents": [True]}},
        {"command": "lct", "pairs": [[2.5, 0]]},
        {"command": "jumps", "coeffs": [2.9]},
        {"command": "verify-cor23", "model": Y2_MODEL, "alpha": ["2"]},
        {"command": "verify-cor24", "model": Y2_MODEL, "alpha": ["2"]},
        {"command": "verify-thm42", "model": N2_MODEL, "pmax": -5},
        {"command": "verify-thm42", "model": N2_MODEL, "samples": -1},
        {"command": "psi-dims", "model": N2_MODEL, "pmax": -3},
        {"command": "verify-cor24", "model": {"n": 2, "exponents": [2, 3]}, "box": 2, "p": -1},
        {"command": "verify-cor24", "model": {"n": 1, "exponents": [1]}, "box": 2, "p": -1},
        {"command": "verify-thm42", "model": Y2_MODEL, "pmax": 33},
        {"command": "verify-thm42", "model": Y2_MODEL, "samples": 1001},
        {"command": "psi-dims", "model": Y2_MODEL, "pmax": "999"},
        {"command": "minexp", "model": Y2_MODEL, "pmax": 10**6},
        {"command": "verify-thm42", "model": {"n": 6, "exponents": [1]}, "box": 0},
        {"command": "verify-cor51", "model": {"n": 6, "exponents": [1]}, "box": 0},
        {"command": "verify-axioms", "model": {"n": 6, "exponents": [1]}, "box": 0},
        {"command": "verify-cor23", "model": {"n": 6, "exponents": [2]}, "box": 0},
        {"command": "verify-cor24", "model": {"n": 6, "exponents": [2]}, "box": 0},
        {"command": "vfilt", "model": N2_MODEL, "element": "y^(1,-) dy delta"},
        {"command": "vfilt", "model": Y2_MODEL, "element": "1/0 dy delta"},
        {"command": "vfilt", "model": Y2_MODEL, "element": "2 3 dy delta"},
        {"command": "vfilt", "model": Y2_MODEL, "element": "dy delta dt dt^2"},
        {"command": "vfilt", "model": N2_MODEL, "element": "y^(1,,0) dy delta"},
        {"command": "vfilt", "model": Y2_MODEL, "element": "dy delta dy"},
        {"command": "vfilt", "model": N2_MODEL, "element": "y^(1,0) y^(0,1) dy delta"},
        {"command": "jumps", "coeffs": [-3, 2]},
        {"command": "jumps", "model": {"n": 2, "exponents": [2, 3]}, "hi": "100000000"},
        {"command": "jumps", "coeffs": [5000], "hi": "1/4"},
        {"command": "minexp", "model": {"n": 1, "exponents": [100000]}},
        {"command": "verify-thm42", "model": {"n": 2, "exponents": [500, 501]}, "box": 0},
        {"command": "vfilt", "model": Y2_MODEL, "element": "dy delta", "cap": "100000"},
        {"command": "verify-cor24", "model": {"n": 2, "exponents": [1, 1]}, "p": 2, "box": 1},
        {"command": "vfilt", "model": Y2_MODEL, "element": "dy delta", "alpha": ["1/2", "1"]},
        {"command": "vfilt", "model": Y2_MODEL, "element": "0 dy delta"},
        {"command": "vfilt", "model": N2_MODEL, "element": "y^(1) dy delta"},
        {"command": "lct", "pairs": 5},
        {"command": "verify-axioms", "model": Y2_MODEL, "alpha": ["1/2", "1/2"], "box": 1},
        {"command": "verify-axioms", "model": Y2_MODEL, "alpha": ["1/2", "2/4"], "box": 1},
    ],
    ids=[
        "box", "exponents", "exponents-not-list", "alpha-inf", "cap-inf",
        "coeffs", "samples", "pairs", "model-not-json",
        "element-not-text", "command-unhashable", "box-float", "box-bool",
        "alpha-empty", "cor24-p-above-minexp", "box-volume", "n-float",
        "exponents-text", "exponents-bool", "pairs-float", "coeffs-float",
        "cor23-alpha-outside", "cor24-alpha-outside",
        "thm42-pmax-negative", "thm42-samples-negative", "psi-dims-pmax-negative",
        "cor24-p-negative", "cor24-p-negative-no-alpha",
        "pmax-too-large", "thm42-samples-too-large",
        "psi-dims-pmax-too-large", "minexp-pmax-too-large",
        "thm42-n-above-bound", "cor51-n-above-bound", "axioms-n-above-bound",
        "cor23-n-above-bound", "cor24-n-above-bound",
        "element-sign-without-digits", "element-zero-denominator",
        "element-second-coefficient", "element-second-dt", "element-blank-entry",
        "element-second-dy", "element-second-vector", "jumps-coeffs-negative",
        "jumps-range-too-many", "jumps-coeffs-range-too-many", "minexp-model-too-many-jumps",
        "thm42-model-too-many-jumps", "vfilt-cap-too-many-jumps",
        "cor24-p-above-minexp-no-alpha",
        "vfilt-two-alphas", "vfilt-element-zero", "element-vector-too-short",
        "pairs-not-a-list", "alpha-repeated", "alpha-repeated-unreduced",
    ],
)
def test_malformed_values_exit_1(config, capsys):
    assert main(["run", "--config", json.dumps(config)]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert "input error:" in err
    assert "Traceback" not in err
    assert captured.out == ""
    # the same keys as flags: the same exit code and the same error line
    flags = {k: _flag_text(k, v) for k, v in config.items() if k != "command"}
    if isinstance(config["command"], str) and None not in flags.values():
        argv = [config["command"]] + [x for k, text in flags.items() for x in (f"--{k}", text)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", err)


def test_repeated_alpha_is_refused_by_its_value():
    """An alpha list that repeats a value after parsing names that value."""
    for alpha in (["1/3", "1/2", "1/2"], ["1/2", "1/3", "2/4"]):
        report, code = run({"command": "verify-axioms", "model": Y2_MODEL, "alpha": alpha})
        assert (code, report["error"]) == (1, "alpha list repeats 1/2")


def test_cor24_p_above_the_minexp_is_refused_with_or_without_an_alpha():
    """An explicit p above the minimal exponent is refused with cor24_check's
    own text, also on a model with no alpha in (0, 1) to reach that check."""
    for model, p, text in [(Y2_MODEL, 1, "1/2 < 1"), ({"n": 2, "exponents": [1, 1]}, 2, "1 < 2")]:
        report, code = run({"command": "verify-cor24", "model": model, "p": p, "box": 1})
        assert (code, report["error"]) == (1, f"cor24_check requires minexp >= p; got {text}")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cor51", "--model", '{"n":1,"exponents":[2]}', "--box", "abc"],
        ["lct", "--pairs", "[[1,0]]", "--jobs", "x"],
        ["lct", "--pairs", "[[1,0]]", "--jobs", "0"],
        ["lct", "--pairs", "[[1,0]]", "--bogus", "1"],
        ["lct", "--pairs", "[[1,0]]", "--format", "xml"],
        ["lct", "--pairs"],
        ["run"],
        [],
        ["nope"],
        ["run", "--config", '{"command":"lct","pairs":[[1,0]]}', "--box", "9"],
        ["run", "--config", "{bad"],
    ],
    ids=[
        "box-abc", "jobs-x", "jobs-0", "unknown-flag", "format-xml",
        "flag-without-value", "run-without-config", "no-command", "unknown-command",
        "run-with-config-key-flag",
        "run-config-bad-json",
    ],
)
def test_malformed_command_line_exits_1(argv, capsys):
    """No command line exits 2 unless a verification failed: a command line
    argparse refuses is an input error, one line on stderr and no report."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


AXIOMS_CONFIG = {"command": "verify-axioms", "model": {"n": 1, "exponents": [2]}, "box": 1}


def test_run_refuses_a_config_key_flag(capsys):
    """`run` reads its keys from --config alone: a flag that names a config
    key would be dropped without a word, so it is an input error naming
    every such flag; --out, --format and --jobs are not config keys."""
    argv = ["run", "--config", json.dumps(AXIOMS_CONFIG)]
    assert main(argv + ["--box", "9", "--alpha", "1"]) == 1
    assert capsys.readouterr() == (
        "", "input error: run reads its keys from --config only, not from --alpha, --box\n"
    )
    assert main(argv + ["--format", "csv", "--jobs", "2"]) == 0
    report, _ = run(AXIOMS_CONFIG)
    assert capsys.readouterr().out == report_to_csv(report)


def test_alpha_flag_takes_a_json_list(capsys):
    """--alpha takes the JSON list a config's alpha takes, and runs the same
    sweep byte for byte."""
    config = {"command": "verify-axioms", "model": {"n": 2, "exponents": [2, 3]},
              "alpha": ["1/3", "1/2"], "box": 3}
    flags = ["--model", json.dumps(config["model"]), "--alpha", '["1/3","1/2"]', "--box", "3"]
    assert main(["verify-axioms"] + flags) == 0
    by_flags = capsys.readouterr().out
    assert main(["run", "--config", json.dumps(config)]) == 0
    assert capsys.readouterr().out == by_flags
    assert json.loads(by_flags)["params"]["alpha"] == ["1/3", "1/2"]
    assert main(["verify-axioms"] + flags[:3] + ['["1/3"']) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: bad alpha JSON: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "--model" in capsys.readouterr().out


def test_box_volume_refused_before_the_n_bound():
    # n = 40 is above MAX_N too, but the volume check comes first
    config = {"command": "verify-axioms", "model": {"n": 40, "exponents": [1]}, "box": 1}
    report, code = run(config)
    assert code == 1
    assert report["error"] == "box radius 1 in 40 variables exceeds the volume limit 1000000"


@pytest.mark.parametrize("command", ["verify-thm42", "verify-cor51", "verify-axioms",
                                     "verify-cor23", "verify-cor24"])
def test_n_at_the_bound_runs(command):
    from minexp_lab.vfilt import MAX_N

    exponents = [2] if command in ("verify-cor23", "verify-cor24") else [1] * MAX_N
    config = {"command": command, "model": {"n": MAX_N, "exponents": exponents}, "box": 0}
    report, code = run(config)
    assert code == 0 and report["status"] == "PASS", report


@pytest.mark.parametrize(
    "flag, env_jobs",
    [(["--jobs", "0"], "4"), (["--jobs", "-3"], None)],
    ids=["flag-zero-env-4", "flag-negative"],
)
def test_worker_count_below_1_exit_1(flag, env_jobs, monkeypatch, capsys):
    """A worker count below 1 is refused, never clamped, whatever
    MINEXP_LAB_JOBS holds (nothing reads it)."""
    from minexp_lab import cli, commands

    monkeypatch.setattr(commands, "run", lambda config, jobs=1: pytest.fail(f"ran at jobs {jobs}"))
    if env_jobs is None:
        monkeypatch.delenv("MINEXP_LAB_JOBS", raising=False)
    else:
        monkeypatch.setenv("MINEXP_LAB_JOBS", env_jobs)
    assert cli.main(["verify-axioms", "--model", '{"n":1,"exponents":[4]}'] + flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: --jobs must be >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_run_keeps_its_worker_clamp():
    """Called from Python, run() accepts and ignores a count below 1."""
    config = {"command": "verify-axioms", "model": {"n": 1, "exponents": [4]}, "box": 1}
    serial, _ = run(dict(config), jobs=1)
    for jobs in (0, -3):
        report, code = run(dict(config), jobs=jobs)
        assert code == 0 and report_to_json(report) == report_to_json(serial)


def test_run_forwards_the_config_alone(monkeypatch):
    """cli.run hands commands.run the config and nothing else, whatever
    `jobs` it was given."""
    from minexp_lab import cli, commands

    got = []

    def one_argument(config):
        got.append(config)
        return {}, 0

    monkeypatch.setattr(commands, "run", one_argument)
    config = {"command": "catalog"}
    for jobs in (1, 2, 0):
        assert cli.run(config, jobs=jobs) == ({}, 0)
    assert len(got) == 3 and all(c is config for c in got)


def _b_shifted(step, b_vector=vfilt.b_vector):
    """b_vector with every entry moved by step (bound to the unplanted one)."""
    return lambda model, alpha: tuple(x + step for x in b_vector(model, alpha))


def _theta_minus_alpha(orders, alpha):
    """The monodromy sign flipped: theta - alpha in place of theta + alpha."""
    return weyl._orders_theta_plus(orders, -alpha)


@pytest.mark.parametrize(
    "config, plant",
    [
        (
            {"command": "verify-thm42", "model": N2_MODEL, "pmax": 1, "samples": 3},
            lambda mp: mp.setattr(koszul, "b_vector", _b_shifted(1)),
        ),
        (
            {"command": "verify-axioms", "model": Y2_MODEL},
            lambda mp: mp.setattr(axioms, "_orders_theta_plus", _theta_minus_alpha),
        ),
        (
            {"command": "verify-cor51", "model": N2_MODEL},
            lambda mp: mp.setattr(rationals, "exact_rank", lambda cols: exact_rank(cols[:-1])),
        ),
        (
            {"command": "verify-cor23", "model": Y2_MODEL},
            lambda mp: mp.setattr(vfilt, "b_vector", _b_shifted(-1)),
        ),
        (
            {"command": "verify-cor24", "model": Y2_MODEL},
            lambda mp: mp.setattr(vfilt, "b_vector", _b_shifted(-1)),
        ),
    ],
    ids=[
        "thm42-sigma-b-plus-1", "axioms-theta-minus-alpha", "cor51-drop-dr-column",
        "cor23-b-minus-1", "cor24-b-minus-1",
    ],
)
def test_planted_error_exits_2(config, plant, monkeypatch):
    """Each verify command catches a planted error: exit 0 before, 2 after."""
    monkeypatch.setattr(vfilt, "_EXP_CACHE", {})
    monkeypatch.setattr(koszul, "_CORE_CACHE", {})
    config = dict(config, box=3)
    report, code = run(dict(config), jobs=1)
    assert code == 0, report
    plant(monkeypatch)
    report, code = run(dict(config), jobs=1)
    assert code == 2
    assert any(c["status"] == "FAIL" for c in report["checks"])


@pytest.mark.parametrize("n, exponents, sample", [(2, [2], 5), (3, [1, 2], 0)])
def test_monodromy_multiple_catches_what_the_generator_misses(n, exponents, sample, monkeypatch):
    """WeylOperator.theta planted as theta + d_n, the partial on the last
    (free) coordinate: d_n kills the generator y^b dy delta, as b_n = 0, so
    monodromy-generator passes, but not every multiple of it, so
    monodromy-multiple fails at the first random multiple that it moves."""
    config = {"command": "verify-thm42", "model": {"n": n, "exponents": exponents}, "alpha": "1/2"}
    assert run(dict(config))[1] == 0
    theta = weyl.WeylOperator.theta.__func__
    monkeypatch.setattr(
        weyl.WeylOperator, "theta", classmethod(lambda cls, n: theta(cls, n) + cls.dy(n, n - 1))
    )
    report, code = run(dict(config))
    monodromy = [c for c in report["checks"] if c["name"].startswith("monodromy")]
    assert code == 2 and [(c["name"], c["status"]) for c in monodromy] == [
        ("monodromy-generator", "PASS"), ("monodromy-multiple", "FAIL"),
    ]
    assert monodromy[1]["sample"] == sample
    assert [c for c in report["checks"] if c["status"] == "FAIL"] == monodromy[1:]


@pytest.mark.parametrize(
    "plant, name",
    [
        (lambda mp: mp.setattr(axioms, "_orders_t", lambda orders: {}), "t-injectivity"),
        (lambda mp: mp.setattr(axioms, "_orders_theta_plus", _theta_minus_alpha), "nilpotency"),
    ],
    ids=["t-kernel-zero", "theta-minus-alpha"],
)
def test_planted_axioms_fault_is_the_alphas_one_check(plant, name, monkeypatch):
    """verify-axioms checks an alpha in one box pass: a planted fault leaves
    the first failing check in box order as the alpha's only record."""
    config = {
        "command": "verify-axioms", "model": {"n": 2, "exponents": [2, 3]},
        "alpha": "1/2", "box": 2,
    }
    plant(monkeypatch)
    report, code = run(config, jobs=1)
    assert code == 2
    assert report["checks"] == [{"alpha": "1/2", "name": name, "status": "FAIL", "degree": [-2, 0]}]


@pytest.mark.parametrize("target", [(-3, -3), (1, -2), (3, 3)])
def test_planted_locus_error_names_its_degree(target, monkeypatch):
    """The box kernels still compare every locus in box order: one flipped
    entry of the Gr^F V count grid is the only FAIL, at that multidegree."""
    grid = koszul.gr_count_grid

    def flipped(lvl, p, box):
        out = bytearray(grid(lvl, p, box))
        k = list(box).index(target)
        out[k] = 1 - out[k]
        return out

    monkeypatch.setattr(koszul, "gr_count_grid", flipped)
    config = {"command": "verify-thm42", "model": N2_MODEL, "box": 3, "pmax": 1, "samples": 3}
    report, code = run(config, jobs=1)
    assert code == 2
    fails = [c for c in report["checks"] if c["status"] == "FAIL"]
    assert fails and all(c["name"] == "thm42i-H0-dims" for c in fails)
    assert all(c["degree"] == list(target) for c in fails)


def test_minexp_computed_once_per_item(monkeypatch):
    # the membership sweep that minexp_value shares with minexp_monomial
    calls = []
    inner = minexp._memberships

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(minexp, "_memberships", counted)
    config = {"command": "verify-cor23", "model": {"n": 1, "exponents": [3]}, "box": 2}
    report, code = run(config, jobs=1)
    assert code == 0 and report["params"]["alpha"] == ["1/3", "2/3"]
    assert len(calls) == 1  # once per run, not once per alpha
    # verify-cor24 also needs the value for its default p list
    calls.clear()
    report, code = run(dict(config, command="verify-cor24"), jobs=1)
    assert code == 0 and report["params"]["alpha"] == ["1/3", "2/3"]
    assert len(calls) == 1


def test_minexp_command_computes_the_value_once(monkeypatch):
    # the lct-consistency check reads the value the report shows
    calls = []
    inner = minexp.minexp_monomial
    monkeypatch.setattr(minexp, "minexp_monomial", lambda *args: calls.append(args) or inner(*args))
    report, code = run({"command": "minexp", "model": {"n": 2, "exponents": [2, 3]}})
    assert code == 0 and report["minexp"] == "1/3"
    assert [c["name"] for c in report["checks"]] == ["lct-consistency"]
    assert len(calls) == 1


def test_verification_error_is_a_fail(monkeypatch):
    """A VerificationError raised inside a command is a FAIL check naming
    the invariant, with exit code 2, not a traceback."""
    monkeypatch.setattr(vfilt, "b_vector", _b_shifted(1))
    config = {"command": "verify-cor24", "model": {"n": 1, "exponents": [1]}, "box": 3}
    report, code = run(config, jobs=1)
    assert code == 2 and report["status"] == "FAIL"
    assert report["checks"] == [
        {
            "name": "verification-error",
            "status": "FAIL",
            "invariant": "smooth model failed a membership that must hold at alpha = 1",
        }
    ]
    assert report["summary"] == {"pass": 0, "fail": 1}


@pytest.mark.parametrize("command", ["verify-cor51", "verify-cor24", "verify-cor23"])
def test_support_point_without_a_class_is_a_fail(monkeypatch, capsys, command):
    # supports read one Hodge index up list points where gr_class_rep finds
    # no class: the de Rham memo reports one FAIL naming the degree
    inner = vfilt._WeightTable.limits
    monkeypatch.setattr(vfilt, "_GRID_CACHE", {})
    monkeypatch.setattr(vfilt._WeightTable, "limits", lambda self, p: inner(self, p + 1))
    code = main([command, "--model", '{"n":2,"exponents":[2,3]}', "--box", "3"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and report["status"] == "FAIL"
    assert [c["name"] for c in report["checks"]] == ["verification-error"]
    assert "lists degree [" in report["checks"][0]["invariant"]
    assert "Traceback" not in err


def test_failure_exit_2(monkeypatch):
    from minexp_lab import commands

    def broken(config):
        return {"checks": [{"name": "x", "status": "FAIL"}], "params": {}}

    monkeypatch.setitem(commands._HANDLERS, "lct", broken)
    report, code = run({"command": "lct"})
    assert code == 2 and report["summary"]["fail"] == 1


# sha256 of report_to_json at box 4 with all jumps, recorded before the
# nearby-cycles checks computed their de Rham keys in integers and asked one
# membership per key; a faster path must keep these reports byte for byte
NEARBY_CYCLES_REPORTS = {
    "verify-cor51": {
        (1, (2,)): "45d34997c57d2fd1f786badfdbc0dd4bbe5532a4a9c56f4db1b68d5049041988",
        (2, (2, 3)): "7c76c7384a2de86740159960416c7e54a5a204b06a01a51754988e8f8d82c661",
        (2, (3, 4)): "9c71dd77d3869ee46ca2f86cf9b5df907ca71546ee6ff1b48009861fe222fe7a",
        (3, (1, 2, 2)): "002d2d3e2fa9ffabe536565f4d4d2c58e3d14d1b16223c1b509229b9b2c65ac4",
        (3, (2, 3)): "a29a8e7dbea05a924ea0af5a905167f56fc4d485257945d92126a1286b374335",
        (3, (2, 2, 3)): "0188982a8008a33088711f4d20fd953a163bb6ff1e12e0d8cd28689a9d04cba7",
    },
    "verify-cor23": {
        (1, (2,)): "2d03f1146bb87a7cf6d503a678d7c2f5ce128be02203e092866d571102d7dd8c",
        (2, (2, 3)): "743b7ad00a857cc27a7bc5dd7c4604f83aa9b9a9549eb38b7fa4e79e826fa62c",
        (2, (3, 4)): "7a48611587b73809450748e143548e13ebb758cca706f093124cc79abde9eb7a",
        (3, (1, 2, 2)): "49d1737d6d74479cb78ec935bae28b7edc42772ea3d417bbac9efea9c0bb2fc0",
        (3, (2, 3)): "bdc8fb9d362cd62650a888afbd2ef21d3454a22a14ecf84fd6dc70c7f0da4f12",
        (3, (2, 2, 3)): "ccc3465a65fbe680ad148b5e751877bcd30649b66009d8197ac2b0d8568893bb",
    },
    "verify-cor24": {
        (1, (2,)): "4b2e2534a0319592702b95158c6d1e38502574b5047597008858b98785ee105f",
        (2, (2, 3)): "a6682ecd723e3af23d178ae898f0cce8b5cc96cfdf0e01bae3201f3fd814d28f",
        (2, (3, 4)): "1fbb06fbf64578b20e3da4920b6eab64bf145cac23a8522977e7492f02356a5d",
        (3, (1, 2, 2)): "5a74eee70b63ca7252ec320218dd792e6e1ff4cba3fd14a81f5a0a6a063e9e4e",
        (3, (2, 3)): "acba902b33d3d5750de0d47c6b72ca6d13a083a1f94e92811bf635681b46a6de",
        (3, (2, 2, 3)): "9cb08c69d865b0f68f9883d833b27a49e43bf709fffcfdbc92773887fa6fb01a",
    },
}


@pytest.mark.parametrize("command", sorted(NEARBY_CYCLES_REPORTS))
def test_nearby_cycles_report_bytes_pinned(command):
    got = {}
    for n, exponents in NEARBY_CYCLES_REPORTS[command]:
        config = {"command": command, "model": {"n": n, "exponents": list(exponents)}, "box": 4}
        report, code = run(config)
        assert code == 0, report
        got[n, exponents] = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert got == NEARBY_CYCLES_REPORTS[command]


# sha256 of report_to_json on the models of NEARBY_CYCLES_REPORTS (verify-axioms
# and psi-dims at box 4, minexp at its default pmax), recorded before the
# checks shared one recorder; a refactor must keep these reports byte for byte
REPORT_BYTES = {
    "verify-axioms": {
        (1, (2,)): "40a665d7878abd8eba19038e0fa813c0a90fa55a42f9ecdd940884b19a11a693",
        (2, (2, 3)): "23b023b0866ec61d3e438b3de0fc557aad16f29318b92ab53e7e3b03b5ea5289",
        (2, (3, 4)): "e55d5ee03885a16a0f8ae017b97f3ef8b80bd19dd5b1d75a263afcbf5d716c34",
        (3, (1, 2, 2)): "d07b0ae00af9ef5638a8f9f9ffba827364a2df54c9bb967ad31ae4dd07eca6dc",
        (3, (2, 3)): "c403565db5dd965c99c8170519a7f0be9232786965069e8b970b0056c5a8f811",
        (3, (2, 2, 3)): "0912cae0f7cc01f5c563ae20477172b6253c7d2a778e639c5120d464ea353897",
    },
    "minexp": {
        (1, (2,)): "0497038c946707db808462faf022c8514be7e96e8e105ff2a5a16421e1740d7c",
        (2, (2, 3)): "2fdc512bc83dd08bd7a127ba1e14cbc19811acf4a054ed278d105ab0257d55ed",
        (2, (3, 4)): "e218353b8084d275da72c5177d83ef9fcfc3bfb4bf02e36f86ecf6d45f0cbc63",
        (3, (1, 2, 2)): "353c4d7d76b54dac6d24027b367f75fce96f1c439ddc827e0e7921540f33e2ca",
        (3, (2, 3)): "343e5ef9eef0f401f3577a5da8130d70a34799c4ec7893478819a533b46b442a",
        (3, (2, 2, 3)): "36fea5b9aa9a41d2e11150e7b996b9f24f59e2e0d1b54ee7a70a027cf434e243",
    },
    "psi-dims": {
        (1, (2,)): "8b5afb2fee3c91cd1539661d5e6ba1b6af15e2f36165eddb2c3996f832a123d0",
        (2, (2, 3)): "f1c2cd8fc76038f27133e70cf969b0b0322c1daf58ffddea9b3ea4594c8d39ac",
        (2, (3, 4)): "23dc84de5ee0aaade281e28e6d78a8ed27e7f487cc9f0c182c2bf86ccf6b5415",
        (3, (1, 2, 2)): "5d1ab58bdd1aac1dce01ba606bd8685d278ff8df9387e3d368ddaf60297ade96",
        (3, (2, 3)): "6b888c83da224c23346b24385baf74de2b6c15da54b92b0c760cb6cb78e22a7d",
        (3, (2, 2, 3)): "9ee50c756cff5ec2454646e0458a79573de6e853826cf5101b5fbbbdc99f53dc",
    },
}

# sha256 of the psi-dims report_to_csv on the same models, recorded likewise
PSI_DIMS_CSV = {
    (1, (2,)): "461233ca1d935b3c5e63b225ed9807369c8779fe1048aca831315d919debfd1b",
    (2, (2, 3)): "530aa159c7b16f15554a7be7dd246d459cedcef09ad20407c2e5b2aff71000ca",
    (2, (3, 4)): "418379e06e74ab0aba4d3ec0f642b4046022788df3040b8e1e7c02e18d3d9339",
    (3, (1, 2, 2)): "296ef9f0ff753987321d0c7a9bfe699b92ab8e64f59f862ae22e079f500089ef",
    (3, (2, 3)): "f65c65f3257efa72732c89be2fc13db921b3272c80ea8e429c78217589b8bef8",
    (3, (2, 2, 3)): "fad0dd267c0b532bea76abaf3574a4906f1ef3cf03c7ccde53ddd2b4f2bd9482",
}


def _pinned_config(command, n, exponents):
    config = {"command": command, "model": {"n": n, "exponents": list(exponents)}}
    return config if command == "minexp" else {**config, "box": 4}


@pytest.mark.parametrize("command", sorted(REPORT_BYTES))
def test_report_bytes_pinned(command):
    got = {}
    for n, exponents in REPORT_BYTES[command]:
        report, code = run(_pinned_config(command, n, exponents))
        assert code == 0, report
        if command == "psi-dims":
            # recorded before psi-dims echoed the pmax it reads, here the default
            assert report["params"].pop("pmax") == DEFAULT_PMAX
        got[n, exponents] = hashlib.sha256(report_to_json(report).encode()).hexdigest()
    assert got == REPORT_BYTES[command]


def test_psi_dims_csv_bytes_pinned():
    got = {}
    for n, exponents in PSI_DIMS_CSV:
        report, code = run(_pinned_config("psi-dims", n, exponents))
        assert code == 0, report
        got[n, exponents] = hashlib.sha256(report_to_csv(report).encode()).hexdigest()
    assert got == PSI_DIMS_CSV


def test_determinism_across_job_counts():
    config = {
        "command": "verify-thm42",
        "model": {"n": 2, "exponents": [2, 3]},
        "alpha": "all-jumps",
        "pmax": 2,
        "box": 4,
    }
    r1, c1 = run(dict(config), jobs=1)
    r2, c2 = run(dict(config), jobs=3)
    assert c1 == c2 == 0
    assert report_to_json(r1) == report_to_json(r2)
    config2 = {
        "command": "verify-axioms",
        "model": {"n": 2, "exponents": [2, 3]},
        "box": 3,
    }
    assert report_to_json(run(dict(config2), jobs=1)[0]) == report_to_json(
        run(dict(config2), jobs=4)[0]
    )


def test_catalog_contents():
    models = catalog()
    assert MonomialModel(1, [2]) in models
    assert MonomialModel(2, [1, 1]) in models
    assert MonomialModel(3, [2, 3]) in models
    assert MonomialModel(1, [1]) in models  # the smooth model
    assert len(models) == 52
    report, code = run({"command": "catalog"})
    assert code == 0 and len(report["models"]) == 52


def test_csv_format():
    report, _ = run(
        {
            "command": "psi-dims",
            "model": {"n": 1, "exponents": [2]},
            "alpha": "1/2",
            "p": 1,
            "box": 4,
        }
    )
    text = report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "degree,p,alpha,dim"
    assert "(0),1,1/2,1" in lines
    report, _ = run({"command": "verify-thm42", "model": {"n": 1, "exponents": [2]},
                     "alpha": "1/2", "pmax": 1, "box": 3})
    text = report_to_csv(report)
    assert text.startswith("name,status,info")


def test_main_and_out_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "minexp",
            "--model",
            '{"n":1,"exponents":[3]}',
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["minexp"] == "1/3"
    assert main(["minexp", "--model", "not json"]) == 1


@pytest.mark.parametrize("case", ["missing", "folder", "not-utf8", "out-folder-missing", "out-is-folder"])
def test_unreadable_config_or_unwritable_out_exits_1(case, tmp_path, monkeypatch, capsys):
    # a config path that cannot be read and an --out that cannot be written
    # are input errors, never a traceback; a bad --out is refused before
    # the command runs
    ran = []
    monkeypatch.setattr("minexp_lab.commands.run", lambda config, jobs=1: ran.append(config))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lct", "pairs": [[3, 0]]}))
    out = tmp_path / "o.json"
    if case == "missing":
        cfg = tmp_path / "absent.json"
    elif case == "folder":
        cfg = tmp_path
    elif case == "not-utf8":
        cfg.write_bytes(b'{"command": "lct", "pairs": [[3, 0]]} \xff\xfe')
    elif case == "out-folder-missing":
        out = tmp_path / "absent" / "o.json"
    else:
        out = tmp_path
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err
    assert "Traceback" not in err
    assert ran == []


def test_report_write_failure_exits_1(tmp_path, monkeypatch, capsys):
    # --out passes the folder check but the write itself fails
    import builtins

    out = tmp_path / "o.json"
    real_open = builtins.open

    def refusing(path, *args, **kwargs):
        if str(path) == str(out):
            raise PermissionError(13, "Permission denied")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refusing)
    assert main(["run", "--config", '{"command":"lct","pairs":[[1,0]]}', "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error: cannot write report" in err and "Permission denied" in err


def test_run_subcommand_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lct", "pairs": [[3, 0]]}))
    out = tmp_path / "o.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lct"] == "1/3"
    # literal config
    assert main(["run", "--config", '{"command":"lct","pairs":[[1,0]]}', "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lct"] == "1"


def test_module_entry_point_matches_run(tmp_path):
    """`python -m minexp_lab.cli` writes the report `run` returns, byte for
    byte."""
    # the child imports the same minexp_lab as this process, installed or not
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "minexp_lab.cli",
            "verify-axioms",
            "--model",
            '{"n":1,"exponents":[2]}',
            "--box",
            "3",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["summary"]["fail"] == 0
    # and the data is identical to the in-process single-job run
    report, _ = run(
        {"command": "verify-axioms", "model": {"n": 1, "exponents": [2]}, "box": 3},
        jobs=1,
    )
    assert report_to_json(report) == proc.stdout


def test_module_entry_point_matches_main(capsys):
    """`python -m minexp_lab.cli` runs cli as __main__, and commands then
    imports a second copy of cli by name: the call still exits 0 with the
    stdout that cli.main writes in this process."""
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["lct", "--pairs", "[[1,0]]"]
    proc = subprocess.run(
        [sys.executable, "-m", "minexp_lab.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_box_radius_note_recorded():
    report, code = run(
        {
            "command": "verify-axioms",
            "model": {"n": 1, "exponents": [4]},
            "alpha": "1/4",
            "box": 3,
            "pmax": 3,
        }
    )
    assert code == 0
    assert any(c["name"] == "box-radius-note" for c in report["notes"])


def test_notes_are_not_counted_as_checks():
    # verify-axioms makes the same checks at any radius; only radius 3 is
    # below p_max + max(a_i) = 3 + 4 and carries a note
    config = {"command": "verify-axioms", "model": {"n": 1, "exponents": [4]}, "alpha": "1/4"}
    noted, code = run({**config, "box": 3})
    plain, _ = run({**config, "box": 7})
    assert code == 0 and noted["notes"] and "notes" not in plain
    assert noted["summary"] == plain["summary"]
    passed = sum(1 for c in noted["checks"] if c["status"] == "PASS")
    assert noted["summary"] == {"pass": passed, "fail": 0}
    assert all(c["name"] != "box-radius-note" for c in noted["checks"])
    assert report_to_csv(noted).splitlines()[-1].startswith("box-radius-note,,")
    # psi-dims makes no checks, and its note sits at the top level too; with
    # an explicit p it cites p + max(a_i) = 1 + 4, not p_max + max(a_i)
    config = {"command": "psi-dims", "model": {"n": 2, "exponents": [2, 4]}, "p": 1, "alpha": "1/2"}
    noted, code = run({**config, "box": 4})
    plain, _ = run({**config, "box": 5})
    assert code == 0 and [c["name"] for c in noted["notes"]] == ["box-radius-note"]
    assert noted["notes"][0]["note"].startswith("box radius 4 is below p + max(a_i) = 5;")
    assert "notes" not in plain and noted["checks"] == plain["checks"] == []
    assert noted["summary"] == plain["summary"] == {"pass": 0, "fail": 0}


def test_pmax_bound_is_inclusive():
    from minexp_lab.cli import MAX_PMAX

    for command in ("minexp", "psi-dims", "verify-thm42"):
        config = {"command": command, "model": Y2_MODEL, "alpha": "1/2", "box": 1}
        report, code = run(dict(config, pmax=MAX_PMAX))
        assert code == 0 and report["params"].get("pmax", MAX_PMAX) == MAX_PMAX, command
        report, code = run(dict(config, pmax=MAX_PMAX + 1))
        assert code == 1 and "pmax" in report["error"], command


def test_samples_bound_is_inclusive():
    from minexp_lab.cli import MAX_SAMPLES

    config = {"command": "verify-thm42", "model": Y2_MODEL, "alpha": "1/2", "box": 1}
    report, code = run(dict(config, samples=MAX_SAMPLES))
    assert code == 0 and report["params"]["samples"] == MAX_SAMPLES
    report, code = run(dict(config, samples=MAX_SAMPLES + 1))
    assert code == 1 and "samples" in report["error"]


def test_dt_order_bound_is_inclusive():
    # a vfilt element is refused by the dt order of its highest term, on the
    # --alpha path and on the cap path alike
    from minexp_lab.cli import MAX_DT_ORDER

    def config(m, **alpha):
        element = f"dy delta + y^({2 * m},{3 * m}) dy dt^{m} delta"
        return {"command": "vfilt", "model": {"n": 2, "exponents": [2, 3]}, "element": element, **alpha}

    for alpha in ({"alpha": "1/2"}, {}):
        report, code = run(config(MAX_DT_ORDER, **alpha))
        assert code == 0 and report["multidegrees"] == [[0, 0]], alpha
        report, code = run(config(MAX_DT_ORDER + 1, **alpha))
        assert code == 1 and f"dt order above the limit {MAX_DT_ORDER}" in report["error"], alpha


def test_jump_bound_is_inclusive():
    """MAX_JUMPS bounds each count the command would list: sum a_i for a
    model, the range (lo, hi] for jumps (of a model or coeffs), (0, cap] for
    vfilt.  Coeffs are bounded by the range alone."""
    from minexp_lab.cli import MAX_JUMPS

    for config, at, above in [
        # a zero coefficient counts nothing; the bound counts 1/1 twice
        ({"command": "jumps"}, {"coeffs": [0, MAX_JUMPS]}, {"coeffs": [1, MAX_JUMPS]}),
        ({"command": "jumps", "coeffs": [2 * MAX_JUMPS]},
         {"hi": "1/2"}, {"hi": f"{MAX_JUMPS + 1}/{2 * MAX_JUMPS}"}),
        ({"command": "jumps"}, {"model": {"n": 1, "exponents": [MAX_JUMPS]}},
         {"model": {"n": 1, "exponents": [MAX_JUMPS + 1]}}),
        ({"command": "jumps", "model": {"n": 1, "exponents": [1]}, "lo": "5"},
         {"hi": str(MAX_JUMPS + 5)}, {"hi": str(MAX_JUMPS + 6)}),
        ({"command": "vfilt", "model": Y2_MODEL, "element": "dy delta"},
         {"cap": f"{MAX_JUMPS}/2"}, {"cap": f"{MAX_JUMPS + 1}/2"}),
    ]:
        report, code = run({**config, **at})
        listed = report.get("jumps", report.get("members"))
        assert code == 0 and len(listed) == MAX_JUMPS, at
        report, code = run({**config, **above})
        assert code == 1 and f"above the limit {MAX_JUMPS}" in report["error"], above


def test_cli_import_loads_no_argparse_csv_dataclasses_or_multiprocessing():
    """A cold call pays for none of these imports: only main() and --format
    csv import argparse (with its gettext) and csv, the value classes are
    plain, and a sweep over several alphas at --jobs 2 runs in the calling
    process, forking nothing and loading neither multiprocessing nor pickle."""
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def loaded(code):
        out = subprocess.run(
            [sys.executable, "-c", code + "; import sys; print(' '.join(sys.modules))"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        return set(out.split())

    added = loaded("import minexp_lab.cli") - loaded("pass")
    assert "minexp_lab.cli" in added
    assert not added & {
        "argparse", "gettext", "csv", "dataclasses", "inspect", "multiprocessing", "pickle"
    }
    # a fork would end the interpreter with status 3, which check=True fails
    swept = loaded(
        "import os; from minexp_lab import cli; os.cpu_count = lambda: 2; "
        "os.fork = lambda: os._exit(3); "
        "report, code = cli.run({'command': 'verify-cor51', "
        "'model': {'n': 1, 'exponents': [2]}, 'box': 1}, jobs=2); "
        "assert code == 0 and report['params']['alpha'] == ['1/2', '1'], report"
    )
    assert not swept & {"multiprocessing", "pickle"}


# Loaded after each stage of one fresh interpreter: the import of cli, the
# sweep entry points (called as the benchmark's run_sweep_item calls them),
# then run() of verify-axioms, verify-thm42 and vfilt, in that order.
_COLD_PATH = """
import json, sys
from fractions import Fraction
LAZY = ("minexp_lab.commands", "minexp_lab.axioms", "minexp_lab.cbar", "minexp_lab.syntax")
def loaded():
    return [m.split(".")[1] for m in LAZY if m in sys.modules]
stages = []
from minexp_lab import cli
stages.append(["import", loaded()])
from minexp_lab import derham, koszul, minexp, vfilt
from minexp_lab.weyl import MonomialModel
model, alpha = MonomialModel(2, (2, 3)), Fraction(1, 3)
box = vfilt.TruncationBox.radius(2, 2)
reports = [
    koszul.verify_thm42_i(model, alpha, range(-2, 4), box),
    koszul.verify_thm42_ii(model, alpha, range(-2, 4), box),
    derham.verify_cor51(model, alpha, range(0, 2), box),
]
assert minexp.minexp_value(model) >= alpha
reports += [minexp.cor23_check(model, 0, alpha, box), minexp.cor24_check(model, 0, alpha, box)]
assert all(rep["status"] == "PASS" for rep in reports)
stages.append(["sweeps", loaded()])
config = {"model": {"n": 2, "exponents": [2, 3]}, "alpha": "1/3", "box": 1}
for command, extra in (("verify-axioms", {}), ("verify-thm42", {}), ("vfilt", {"element": "dy delta"})):
    report, code = cli.run({"command": command, **config, **extra})
    assert code == 0, report
    stages.append([command, loaded()])
print(json.dumps(stages))
"""


def test_cold_path_compiles_no_check_or_syntax_module_it_does_not_run():
    """A fresh interpreter compiling the package from source compiles the
    command machinery, the axiom check, the operator-level Thm 4.2 checks
    and the element syntax only in the call that runs them: importing cli
    and the sweep entry points load none of them, the first cli.run loads
    the command machinery, and each command loads its own check."""
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", _COLD_PATH], capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert json.loads(out) == [
        ["import", []],
        ["sweeps", []],
        ["verify-axioms", ["commands", "axioms"]],
        ["verify-thm42", ["commands", "axioms", "cbar"]],
        ["vfilt", ["commands", "axioms", "cbar", "syntax"]],
    ]


def _planted_cor51(failing):
    """derham.verify_cor51 that raises a VerificationError naming the alpha
    at the item indices in `failing` (items run in sorted alpha order)."""
    inner = derham.verify_cor51
    alphas = [Fraction(k, 4) for k in range(1, 5)]

    def planted(model, alpha, *args, **kwargs):
        if alphas.index(alpha) in failing:
            raise VerificationError(f"planted at alpha {alpha}")
        return inner(model, alpha, *args, **kwargs)

    return planted


def _assert_no_child_left():
    """No child process of this one exists, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "failing, first",
    [({1, 2}, "1/2"), ({2, 3}, "3/4"), ({3}, "1"), ({0, 3}, "1/4")],
    ids=["second-and-third", "third-and-fourth", "fourth-only", "first-and-fourth"],
)
def test_sweep_reports_the_first_failing_item(failing, first, monkeypatch):
    """The sweep runs the four alphas of (1, [4]) in sorted order in the
    calling process: its one FAIL check names the lowest-index failing
    item, the same report at --jobs 1 and 2, and no child process exists."""
    monkeypatch.setattr(derham, "verify_cor51", _planted_cor51(failing))
    config = {"command": "verify-cor51", "model": {"n": 1, "exponents": [4]}, "box": 2}
    serial, code = run(dict(config), jobs=1)
    assert code == 2 and serial["checks"][0]["invariant"] == f"planted at alpha {first}"
    two, code = run(dict(config), jobs=2)
    assert code == 2 and report_to_json(two) == report_to_json(serial)
    _assert_no_child_left()


def test_sweep_keeps_item_order():
    """Checks come in sorted-alpha order, the same report at --jobs 1, 2
    and 3, and no child process exists."""
    config = {"command": "verify-cor51", "model": {"n": 1, "exponents": [4]}, "box": 2}
    serial, _ = run(dict(config), jobs=1)
    for jobs in (2, 3):
        report, code = run(dict(config), jobs=jobs)
        assert code == 0 and report_to_json(report) == report_to_json(serial)
    assert [c["alpha"] for c in serial["checks"]] == ["1/4", "1/2", "3/4", "1"]
    _assert_no_child_left()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_cli_sweep_writes_one_report(to_file, tmp_path):
    """`python -m minexp_lab.cli` at --jobs 2 on a two-alpha sweep writes
    exactly one report, on stdout or to --out, and nothing on stderr."""
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "report.json"
    args = ["verify-cor51", "--model", '{"n":1,"exponents":[2]}', "--box", "2", "--jobs", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "minexp_lab.cli", *args, *(["--out", str(out)] if to_file else [])],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    serial, _ = run(
        {"command": "verify-cor51", "model": {"n": 1, "exponents": [2]}, "box": 2}, jobs=1
    )
    assert serial["params"]["alpha"] == ["1/2", "1"]
    text = out.read_text() if to_file else proc.stdout
    assert text == report_to_json(serial)
    assert proc.stdout == ("" if to_file else text)


def test_every_job_count_runs_in_the_calling_process(monkeypatch, capsys):
    """--jobs 1, 2 and 500, and MINEXP_LAB_JOBS=0, which nothing reads, on
    eight reported CPUs: no sweep forks, and every report is the --jobs 1
    report."""
    from minexp_lab import cli, commands

    def refuse():
        raise AssertionError("a sweep forked")

    monkeypatch.setattr(commands.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(commands.os, "fork", refuse, raising=False)
    argv = ["verify-axioms", "--model", '{"n":1,"exponents":[4]}', "--box", "1"]

    def report(flag, env_jobs=None):
        if env_jobs is None:
            monkeypatch.delenv("MINEXP_LAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("MINEXP_LAB_JOBS", env_jobs)
        assert cli.main(argv + flag) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    serial = report(["--jobs", "1"])
    assert json.loads(serial)["params"]["alpha"] == ["1/4", "1/2", "3/4", "1"]
    for flag in (["--jobs", "2"], ["--jobs", "500"]):
        assert report(flag) == serial
    assert report([], "0") == serial


FUZZ_KEYS = (
    "command", "model", "alpha", "box", "pmax", "p", "samples",
    "lo", "hi", "cap", "element", "pairs", "coeffs",
)


def _fuzz_base(command):
    base = {"command": command, "model": Y2_MODEL, "box": 1, "alpha": "1/2"}
    if command == "lct":
        base["pairs"] = [[2, 0]]
    if command == "vfilt":
        base["element"] = "dy delta"
    return base


_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.5, 2.9, -1.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(-4, 4),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-2, 3), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 3), max_size=2),
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(COMMANDS), st.sampled_from(FUZZ_KEYS), _junk)
def test_run_fuzz_never_raises(command, key, junk):
    config = dict(_fuzz_base(command), **{key: junk})
    report, code = run(config)
    assert code in (0, 1, 2)
    assert ("error" in report) == (code == 1)
    report_to_json(report)


_SWEPT = {"model": Y2_MODEL, "box": 1, "alpha": ["1/2"]}


@pytest.mark.parametrize(
    "config, params",
    [
        (_fuzz_base("verify-thm42"), {**_SWEPT, "pmax": 3, "samples": 20}),
        (_fuzz_base("verify-axioms"), _SWEPT),
        (_fuzz_base("verify-cor51"), _SWEPT),
        (_fuzz_base("verify-cor23"), _SWEPT),
        (_fuzz_base("verify-cor24"), {**_SWEPT, "p": [0]}),
        (_fuzz_base("lct"), {"pairs": [[2, 0]]}),
        (_fuzz_base("minexp"), {"model": Y2_MODEL, "pmax": 4}),
        (_fuzz_base("jumps"), {"model": Y2_MODEL, "lo": "0", "hi": "1"}),
        (_fuzz_base("vfilt"), {"model": Y2_MODEL, "element": "dy delta", "alpha": "1/2"}),
        (_fuzz_base("psi-dims"), {**_SWEPT, "p": [0, 1, 2, 3, 4], "pmax": 3}),
        (_fuzz_base("catalog"), {}),
        # vfilt without an alpha reads cap instead, given or defaulted
        ({**_fuzz_base("vfilt"), "alpha": None, "cap": "3/2"},
         {"model": Y2_MODEL, "element": "dy delta", "cap": "3/2"}),
        ({"command": "vfilt", "model": Y2_MODEL, "element": "dy delta", "alpha": "all-jumps"},
         {"model": Y2_MODEL, "element": "dy delta", "cap": "1"}),
        ({"command": "jumps", "coeffs": [2, 3], "lo": "1/2", "hi": "2"},
         {"coeffs": [2, 3], "lo": "1/2", "hi": "2"}),
        ({"command": "jumps", "model": N2_MODEL, "hi": "3/2"},
         {"model": N2_MODEL, "lo": "0", "hi": "3/2"}),
        # the resolved lists: every p in {0, 1} the minimal exponent reaches
        # (1 on y1 y2, 1/2 on y^2), every p up to pmax + 1 and every jump in (0, 1]
        ({"command": "verify-cor24", "model": {"n": 2, "exponents": [1, 1]}, "box": 1,
          "alpha": "1/2"},
         {"model": {"n": 2, "exponents": [1, 1]}, "box": 1, "alpha": ["1/2"], "p": [0, 1]}),
        ({"command": "psi-dims", "model": N2_MODEL, "box": 1, "pmax": 1},
         {"model": N2_MODEL, "box": 1, "pmax": 1, "alpha": ["1/2", "1"], "p": [0, 1, 2]}),
        # an explicit p is the only p: pmax, given or not, is not read
        ({"command": "psi-dims", "model": N2_MODEL, "box": 1, "p": 1, "pmax": 1},
         {"model": N2_MODEL, "box": 1, "alpha": ["1/2", "1"], "p": [1]}),
    ],
    ids=[
        "verify-thm42", "verify-axioms", "verify-cor51", "verify-cor23", "verify-cor24",
        "lct", "minexp", "jumps", "vfilt", "psi-dims", "catalog",
        "vfilt-cap", "vfilt-default-cap", "jumps-coeffs", "jumps-model-range",
        "cor24-resolved-p", "psi-dims-resolved-p-and-alpha", "psi-dims-explicit-p",
    ],
)
def test_params_echo_exactly_what_ran(config, params):
    """`params` holds the value of each key the command read, after defaults
    and parsing, and the alpha and p lists it resolved; nothing else."""
    report, code = run(config)
    assert code == 0 and report["params"] == params


N4_SLICE = ([1, 1, 1, 1], [2, 1, 1, 1], [2, 2, 1, 1], [2, 2, 2, 2])


@pytest.mark.parametrize("exponents", N4_SLICE, ids=["1111", "2111", "2211", "2222"])
def test_n4_slice_passes(exponents):
    # n = 4 at radius 2: the axioms, Thm 4.2 and Cor 5.1 at every jump, and
    # Cor 2.3/2.4 where a jump lies in (0, 1); the nilpotency index at each
    # alpha is #{i : alpha a_i in Z}
    model = {"n": 4, "exponents": exponents}
    commands = ["verify-axioms", "verify-thm42", "verify-cor51"]
    if max(exponents) > 1:
        commands += ["verify-cor23", "verify-cor24"]
    for command in commands:
        report, code = run({"command": command, "model": model, "box": 2}, jobs=1)
        assert code == 0 and report["summary"]["fail"] == 0, (command, report)
        assert report["summary"]["pass"] > 0, command
        if command == "verify-axioms":
            got = [c["nilpotency_index"] for c in report["checks"] if c["name"] == "v-axioms"]
            alphas = [Fraction(alpha) for alpha in report["params"]["alpha"]]
            want = [sum(1 for a in exponents if (alpha * a).denominator == 1) for alpha in alphas]
            assert got == want


# every entry point that takes a model and a box, called at alpha = 1/2 on
# (3, [1, 2, 2]); a box of another dimension used to raise IndexError, or to
# report PASS or FAIL off coordinates the model does not have
_BOX_MODEL = MonomialModel(3, [1, 2, 2])
_BOX_ENTRY_POINTS = {
    "verify_thm42_i": lambda box: koszul.verify_thm42_i(_BOX_MODEL, Fraction(1, 2), range(0, 2), box),
    "verify_thm42_ii": lambda box: koszul.verify_thm42_ii(_BOX_MODEL, Fraction(1, 2), range(0, 2), box),
    "verify_cor51": lambda box: derham.verify_cor51(_BOX_MODEL, Fraction(1, 2), range(0, 3), box),
    "gr_dr_psi": lambda box: derham.gr_dr_psi(_BOX_MODEL, Fraction(1, 2), 0, box),
    "cor23_check": lambda box: minexp.cor23_check(_BOX_MODEL, 0, Fraction(1, 2), box),
    "cor24_check": lambda box: minexp.cor24_check(_BOX_MODEL, 0, Fraction(1, 2), box),
    "check_v_axioms": lambda box: axioms.check_v_axioms(_BOX_MODEL, Fraction(1, 2), box),
    "psi_hodge_dim": lambda box: minexp.psi_hodge_dim(1, Fraction(1, 2), box, _BOX_MODEL),
}


@pytest.mark.parametrize("entry", sorted(_BOX_ENTRY_POINTS))
@pytest.mark.parametrize("n", [2, 4])
def test_a_box_of_another_dimension_is_an_input_error(entry, n):
    call = _BOX_ENTRY_POINTS[entry]
    with pytest.raises(InputError, match="box has dimension"):
        call(vfilt.TruncationBox.radius(n, 1))
    call(vfilt.TruncationBox.radius(3, 1))
