"""The harness: dispatch, exit codes, serialization, determinism."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minexp_lab.cli import (
    COMMANDS,
    catalog,
    main,
    report_to_csv,
    report_to_json,
    run,
)
import minexp_lab
from minexp_lab import derham, koszul, vfilt, weyl
from minexp_lab.rationals import exact_rank
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


@pytest.mark.parametrize(
    "config, env_jobs",
    [
        ({"command": "verify-axioms", "model": Y2_MODEL, "box": "x"}, None),
        ({"command": "minexp", "model": {"n": 1, "exponents": ["a"]}}, None),
        ({"command": "minexp", "model": {"n": 1, "exponents": 3}}, None),
        ({"command": "verify-cor51", "model": Y2_MODEL, "alpha": "inf"}, None),
        ({"command": "vfilt", "model": Y2_MODEL, "element": "dy delta", "cap": "inf"}, None),
        ({"command": "jumps", "coeffs": ["a"]}, None),
        ({"command": "verify-thm42", "model": Y2_MODEL, "samples": "x"}, None),
        ({"command": "lct", "pairs": [[1]]}, None),
        ({"command": "lct", "pairs": [[1, 0]]}, "two"),
        ({"command": "minexp", "model": "xx"}, None),
        ({"command": "vfilt", "model": Y2_MODEL, "element": 5}, None),
        ({"command": ["x"]}, None),
        ({"command": "verify-axioms", "model": Y2_MODEL, "box": 2.9}, None),
        ({"command": "verify-axioms", "model": Y2_MODEL, "box": True}, None),
        ({"command": "verify-axioms", "model": Y2_MODEL, "alpha": []}, None),
        ({"command": "verify-cor24", "model": Y2_MODEL, "p": 1}, None),
        ({"command": "verify-axioms", "model": {"n": 40, "exponents": [1]}, "box": 1}, None),
        ({"command": "minexp", "model": {"n": 2.9, "exponents": [1, 2]}}, None),
        ({"command": "minexp", "model": {"n": 2, "exponents": "12"}}, None),
        ({"command": "minexp", "model": {"n": 1, "exponents": [True]}}, None),
        ({"command": "lct", "pairs": [[2.5, 0]]}, None),
        ({"command": "jumps", "coeffs": [2.9]}, None),
        ({"command": "verify-cor23", "model": Y2_MODEL, "alpha": ["2"]}, None),
        ({"command": "verify-cor24", "model": Y2_MODEL, "alpha": ["2"]}, None),
    ],
    ids=[
        "box", "exponents", "exponents-not-list", "alpha-inf", "cap-inf",
        "coeffs", "samples", "pairs", "jobs-env", "model-not-json",
        "element-not-text", "command-unhashable", "box-float", "box-bool",
        "alpha-empty", "cor24-p-above-minexp", "box-volume", "n-float",
        "exponents-text", "exponents-bool", "pairs-float", "coeffs-float",
        "cor23-alpha-outside", "cor24-alpha-outside",
    ],
)
def test_malformed_values_exit_1(config, env_jobs, monkeypatch, capsys):
    if env_jobs is None:
        monkeypatch.delenv("MINEXP_LAB_JOBS", raising=False)
    else:
        monkeypatch.setenv("MINEXP_LAB_JOBS", env_jobs)
    assert main(["run", "--config", json.dumps(config)]) == 1
    err = capsys.readouterr().err
    assert "input error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, env_jobs, want",
    [(["--jobs", "3"], "2", 3), ([], "2", 2), ([], None, 1)],
    ids=["flag-and-env", "env-only", "neither"],
)
def test_jobs_flag_wins_over_env(flag, env_jobs, want, monkeypatch, capsys):
    from minexp_lab import cli

    seen = []

    def fake_run(config, jobs=1):
        seen.append(jobs)
        return {"command": config["command"], "checks": []}, 0

    monkeypatch.setattr(cli, "run", fake_run)
    if env_jobs is None:
        monkeypatch.delenv("MINEXP_LAB_JOBS", raising=False)
    else:
        monkeypatch.setenv("MINEXP_LAB_JOBS", env_jobs)
    assert cli.main(["lct", "--pairs", "[[1,0]]"] + flag) == 0
    assert seen == [want]


N2_MODEL = {"n": 2, "exponents": [1, 2]}


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
            lambda mp: mp.setattr(vfilt, "_orders_theta_plus", _theta_minus_alpha),
        ),
        (
            {"command": "verify-cor51", "model": N2_MODEL},
            lambda mp: mp.setattr(derham, "exact_rank", lambda cols: exact_rank(cols[:-1])),
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


def test_failure_exit_2(monkeypatch):
    from minexp_lab import cli

    def broken(config, jobs):
        return {"checks": [{"name": "x", "status": "FAIL"}], "params": {}}

    monkeypatch.setitem(cli._HANDLERS, "lct", broken)
    report, code = run({"command": "lct"})
    assert code == 2 and report["summary"]["fail"] == 1


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
    assert lines[0] == "degree,p,alpha,q,dim"
    assert "(0),1,1/2,,1" in lines
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


def test_run_subcommand_with_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "lct", "pairs": [[3, 0]]}))
    out = tmp_path / "o.json"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lct"] == "1/3"
    # literal config
    assert main(["run", "--config", '{"command":"lct","pairs":[[1,0]]}', "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lct"] == "1"


def test_console_script_and_jobs_env(tmp_path):
    # the child imports the same minexp_lab as this process, installed or not
    src = os.path.dirname(os.path.dirname(minexp_lab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, MINEXP_LAB_JOBS="2", PYTHONPATH=path)
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
    assert any(c["name"] == "box-radius-note" for c in report["checks"])


def test_pool_size_clamped(monkeypatch):
    """Workers: at most --jobs, one per alpha and one per CPU; no process starts."""
    from minexp_lab import cli

    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(it) for it in items]

    monkeypatch.setattr(cli.multiprocessing, "Pool", FakePool)
    four_jumps = {"command": "verify-axioms", "model": {"n": 1, "exponents": [4]}, "box": 1}
    two_alphas = dict(four_jumps, alpha=["1/4", "1/2"])
    for config, jobs, cpus, want in [
        (four_jumps, 500, 3, [3]),
        (four_jumps, 2, 3, [2]),
        (four_jumps, 1, 3, []),
        (four_jumps, 500, None, []),
        (two_alphas, 500, 8, [2]),
    ]:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        sizes.clear()
        report, code = run(dict(config), jobs=jobs)
        assert code == 0 and report["summary"]["pass"] > 0
        assert sizes == want


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


@pytest.mark.parametrize(
    "command, keys",
    [
        ("verify-thm42", {"model", "alpha", "box", "pmax", "samples"}),
        ("verify-axioms", {"model", "alpha", "box"}),
        ("verify-cor51", {"model", "alpha", "box"}),
        ("verify-cor23", {"model", "alpha", "box"}),
        ("verify-cor24", {"model", "alpha", "box", "p"}),
    ],
)
def test_params_echo_exactly_what_ran(command, keys):
    report, code = run(_fuzz_base(command))
    assert code == 0 and set(report["params"]) == keys
