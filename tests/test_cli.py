"""Command-line interface: exit codes, strict config parsing, idempotence."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minjump import DwellRange, checks, gen_sequence, sim, synth
from minjump.cli import main

from conftest import EX1_A, EX1_B, EX1_J, EX1_PI, EX1_P, EX2_A, EX2_J, EX2_PI, EX2_P


def _fixture_path(name):
    return str(resources.files("minjump.fixtures") / f"{name}.json")


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _ex2_config():
    return {
        "system": {"type": "impulsive", "A": EX2_A, "J": EX2_J},
        "dwell": {"t_min": 0.02, "t_max": 0.02},
        "weights": {"pi": EX2_PI},
        "rule": {"P": [list(map(list, P)) for P in EX2_P]},
    }


def test_verify_bundled_reference_passes(capsys):
    assert main(["verify", _fixture_path("example2")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["worst_margin"] < -1e-7


def test_verify_rejects_indefinite_rule(tmp_path, capsys):
    cfg = _ex2_config()
    cfg["rule"]["P"][1] = [[-1.0, 0.0], [0.0, -1.0]]
    assert main(["verify", _write(tmp_path, "bad.json", cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_failing_certificate_exits_one(tmp_path):
    cfg = _ex2_config()
    cfg["rule"]["P"][1] = [[100.0, 0.0], [0.0, 100.0]]
    assert main(["verify", _write(tmp_path, "fail.json", cfg)]) == 1


def test_verify_stable_flow_identity_jump(tmp_path):
    cfg = {
        "system": {"type": "impulsive", "A": [[-3.0, 0.0], [-1.0, -1.0]],
                   "J": [[[1.0, 0.0], [0.0, 1.0]]]},
        "dwell": {"t_min": 0.01, "t_max": 0.05},
        "weights": {"pi": [[1.0]]},
        "rule": {"P": [[[1.0, 0.0], [0.0, 1.0]]]},
    }
    assert main(["verify", _write(tmp_path, "stable.json", cfg)]) == 0


@pytest.mark.parametrize("block, key", [
    ("rule", "Q"),
    ("reference", "worst_margin"),  # nothing reads it, so it is refused like a typo
    (None, "rules"),
])
def test_unknown_keys_rejected(tmp_path, capsys, block, key):
    cfg = _ex2_config()
    (cfg if block is None else cfg.setdefault(block, {}))[key] = []
    assert main(["verify", _write(tmp_path, "extra.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown key" in err and key in err


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    path.write_bytes(b"\xff{}")  # not UTF-8
    assert main(["verify", str(path)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_non_numeric_config_values_exit_two(tmp_path, capsys):
    for block, key, value in (
        ("system", "A", [["x", 0.0], [1.0, 1.0]]),
        ("weights", "pi", [["y", 0.0], [1.0, 1.0]]),
        ("dwell", "t_min", "soon"),
    ):
        cfg = _ex2_config()
        cfg[block][key] = value
        assert main(["verify", _write(tmp_path, "bad.json", cfg)]) == 2
        assert "error:" in capsys.readouterr().err


def test_pi_scan_file_validated(tmp_path, capsys):
    config = _fixture_path("example1")
    for name, text in (
        ("dict.json", '{"not": "a list"}'),
        ("strings.json", '[[["a", "b"], ["c", "d"]]]'),
        ("colsum.json", '[[[0.5, 0.5], [0.1, 0.5]]]'),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert main(["synth", config, "--pi-scan", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
    assert main(["synth", config, "--pi-scan", str(tmp_path / "gone.json")]) == 2


def test_verify_report_idempotent(capsys):
    path = _fixture_path("example2")
    assert main(["verify", path]) == 0
    first = capsys.readouterr().out
    assert main(["verify", path]) == 0
    assert capsys.readouterr().out == first


def test_synth_infeasible_exits_one(capsys):
    assert main(["synth", _fixture_path("unstabilizable")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] in ("infeasible", "relaxation_gap")
    assert payload["eps"] <= 0.0


def test_synth_result_drives_simulation(tmp_path, capsys):
    result_path = str(tmp_path / "design.json")
    assert main(["synth", _fixture_path("example1"), "--out", result_path]) == 0
    result = json.loads(open(result_path).read())
    assert result["status"] == "success"
    assert np.array(result["gains"][0]).shape == (1, 3)
    assert result["report"]["pass"] is True

    sim_cfg = {
        "system": {"type": "impulsive", "A": EX1_A, "B": EX1_B, "J": EX1_J},
        "dwell": {"t_min": 0.01, "t_max": 0.05},
        "run": {"seed": 5, "steps": 100, "x0": [1.0, 1.0], "u0": [0.0],
                "result": result_path},
    }
    csv_path = tmp_path / "traj.csv"
    code = main(["simulate", _write(tmp_path, "sim.json", sim_cfg),
                 "--out", str(csv_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "completed"
    assert summary["value_decay"] > 1e3
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x1,x2,u1,sigma,V,post"


def test_switched_synth_result_replays_in_simulation(tmp_path, capsys):
    # the stored gains are full input maps, so the replay re-lifts the plant
    # without its update lists; two replays must agree byte for byte
    result_path = str(tmp_path / "design.json")
    assert main(["synth", _fixture_path("example3"), "--out", result_path]) == 0
    cfg = json.loads(open(_fixture_path("example3")).read())
    cfg["run"]["result"] = result_path
    config = _write(tmp_path, "sim.json", cfg)
    outputs = []
    for name in ("a.csv", "b.csv"):
        capsys.readouterr()
        assert main(["simulate", config, "--out", str(tmp_path / name)]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / name).read_text()))
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0][0])
    assert summary["status"] == "completed"
    assert summary["value_decay"] > 1e3


def test_synth_result_file_idempotent(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["synth", _fixture_path("example1"), "--out", a]) == 0
    assert main(["synth", _fixture_path("example1"), "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_simulate_divergence_exits_one(tmp_path, capsys):
    cfg = {
        "system": {"type": "impulsive", "A": [[3.0, 0.0], [1.0, 1.0]],
                   "J": [[[1.0, 0.0], [0.0, 1.0]]]},
        "dwell": {"t_min": 0.5, "t_max": 0.5},
        "weights": {"pi": [[1.0]]},
        "rule": {"P": [[[1.0, 0.0], [0.0, 1.0]]]},
        "run": {"kind": "periodic", "period": 0.5, "steps": 60, "x0": [1.0, 1.0]},
    }
    assert main(["simulate", _write(tmp_path, "div.json", cfg)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "diverged"


def test_simulate_divergence_before_overflow_exits_one(tmp_path, capsys):
    # the first dwell drives the state past 1e12; a later one overflows expm
    cfg = {
        "system": {"type": "impulsive", "A": [[30.0]], "J": [[[1.0]]]},
        "dwell": {"t_min": 1.0, "t_max": 30.0},
        "weights": {"pi": [[1.0]]},
        "rule": {"P": [[[1.0]]]},
        "run": {"kind": "uniform_random", "seed": 1, "steps": 3, "x0": [1.0]},
    }
    dwells = gen_sequence(DwellRange(1.0, 30.0), "uniform_random", count=3, seed=1).dwells
    assert 30.0 * dwells[0] < 700.0 and 30.0 * max(dwells) > 710.0
    assert main(["simulate", _write(tmp_path, "late.json", cfg)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "diverged"
    assert payload["last_time"] == 0.0


def test_simulate_overflow_exits_three(tmp_path, capsys):
    # e^{30 * 30} overflows on the first interval, before any divergence
    cfg = {
        "system": {"type": "impulsive", "A": [[30.0]], "J": [[[1.0]]]},
        "dwell": {"t_min": 30.0, "t_max": 30.0},
        "weights": {"pi": [[1.0]]},
        "rule": {"P": [[[1.0]]]},
        "run": {"kind": "periodic", "period": 30.0, "steps": 2, "x0": [1.0]},
    }
    assert main(["simulate", _write(tmp_path, "over.json", cfg)]) == 3
    assert "overflow" in capsys.readouterr().err
    # a bounded state whose rule form overflows (1e300 * 1e10) is refused too
    cfg["system"]["A"], cfg["rule"]["P"] = [[-1.0]], [[[1e300]]]
    cfg["run"]["x0"] = [1e5]
    assert main(["simulate", _write(tmp_path, "forms.json", cfg)]) == 3
    assert "overflow" in capsys.readouterr().err


def test_synth_stopped_by_the_iteration_cap_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(synth.sdp, "MAX_ITER", 5)
    assert main(["synth", _fixture_path("example1")]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "max_iterations"


def test_simulate_without_x0_exits_two(tmp_path, capsys):
    cfg = _ex2_config()
    cfg["run"] = {"kind": "periodic", "period": 0.02, "steps": 10}
    assert main(["simulate", _write(tmp_path, "nox0.json", cfg)]) == 2
    assert "x0" in capsys.readouterr().err


def test_zero_initial_state_writes_zero_rows(tmp_path):
    cfg = _ex2_config()
    cfg["run"] = {"kind": "periodic", "period": 0.02, "steps": 5,
                  "x0": [0.0, 0.0]}
    csv_path = tmp_path / "zero.csv"
    assert main(["simulate", _write(tmp_path, "zero.json", cfg),
                 "--out", str(csv_path)]) == 0
    for line in csv_path.read_text().splitlines()[1:]:
        cols = line.split(",")
        assert float(cols[1]) == 0.0 and float(cols[2]) == 0.0


def test_bad_log_level_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MINJUMP_LOG", "chatty")
    assert main(["verify", _fixture_path("example2")]) == 2
    assert "MINJUMP_LOG" in capsys.readouterr().err


def test_log_level_emits_diagnostics(monkeypatch, capsys, caplog):
    monkeypatch.setenv("MINJUMP_LOG", "info")
    import logging
    with caplog.at_level(logging.INFO, logger="minjump"):
        assert main(["synth", _fixture_path("unstabilizable")]) == 1
    assert caplog.records


def test_example_two_exits_zero(capsys):
    assert main(["example", "2"]) == 0
    out = capsys.readouterr().out
    assert "reference design" in out
    assert "simulation" in out


def test_long_decaying_run_is_monotone(tmp_path, capsys):
    """V of a 10^4-step example2 run turns subnormal near sample 5466 and
    then repeats or rises by rounding on its way to 0; only its normal
    values count.  The final state, near 1e-283, still has a positive
    norm: the state's norm scaled by its largest entry's binary exponent,
    not sqrt(x'x), which underflows to 0."""
    out = tmp_path / "long.csv"
    assert main(["simulate", _fixture_path("example2"), "--steps", "10000",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["samples"] == 10001 and summary["value_last"] == 0.0
    assert summary["value_monotone"] is True
    last = out.read_text().splitlines()[-1].split(",")  # t, x..., sigma, V, post
    assert last[-1] == "1"
    x = np.array([float(v) for v in last[1:-3]])
    e = np.frexp(np.abs(x).max())[1]
    assert np.linalg.norm(x) == 0.0
    assert 0.0 < summary["final_state_norm"] == np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)
    assert summary["final_state_norm"] == pytest.approx(math.hypot(*x), rel=1e-15)


def _table(text):
    """example's table rows as {label: value}; a label ends at two spaces."""
    rows = [line.strip().split("  ", 1) for line in text.splitlines() if line.startswith("  ")]
    return {label: value.strip() for label, value in rows}


def test_example_rows_agree_with_the_subcommands(capsys):
    """example prints what verify, synth and simulate report on its fixture."""
    assert main(["verify", _fixture_path("example2")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["simulate", _fixture_path("example2")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert main(["example", "2"]) == 0
    rows = _table(capsys.readouterr().out)
    assert rows["worst margin"] == f"{report['worst_margin']:.6e}"
    assert rows["samples"] == str(summary["samples"])
    assert rows["value decay"] == f"{summary['value_decay']:.3e}"
    assert rows["monotone decrease"] == str(summary["value_monotone"])
    assert rows["final state norm"] == f"{summary['final_state_norm']:.3e}"
    assert main(["synth", _fixture_path("example1")]) == 0
    eps = json.loads(capsys.readouterr().out)["eps"]
    assert main(["example", "1"]) == 0
    assert _table(capsys.readouterr().out)["margin variable"] == f"{eps:.6g}"


def _ex2_fixture():
    with open(_fixture_path("example2")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("tol", ["nan", "-5", "inf"])
def test_bad_tolerance_exits_two(tmp_path, capsys, tol):
    # with both rule matrices at I, example 2 fails (worst margin +0.096);
    # a NaN or negative tol must not turn that into a pass
    cfg = _ex2_fixture()
    cfg["rule"]["P"] = [np.eye(2).tolist()] * 2
    path = _write(tmp_path, "identity.json", cfg)
    assert main(["verify", path]) == 1
    capsys.readouterr()
    assert main(["verify", path, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert '"pass": true' not in captured.out
    assert "tolerance" in captured.err


@pytest.mark.parametrize("grid", [["--grid", "0"], ["--grid", "-3"], 0],
                         ids=["flag0", "flag-3", "run0"])
def test_grid_count_below_one_exits_two(tmp_path, capsys, grid):
    # example 2 samples periodically: its grid is one point for any count of
    # one or more, and a count below one is refused as on any other range
    cfg = _ex2_fixture()
    if isinstance(grid, int):
        cfg["run"]["grid"] = grid
        grid = []
    assert main(["verify", _write(tmp_path, "job.json", cfg), *grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "at least one point" in captured.err


def test_floor_setting_is_refused(tmp_path, capsys):
    """The definiteness floor is a constant: synth has no flag for it, and
    a run block that sets it has an unknown key."""
    with pytest.raises(SystemExit) as exc:
        main(["synth", _fixture_path("example2"), "--delta", "1e-6"])
    assert exc.value.code == 2
    capsys.readouterr()
    cfg = _ex2_fixture()
    cfg["run"]["delta"] = 1e-6
    assert main(["synth", _write(tmp_path, "delta.json", cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown key(s) in run: delta\n"


@pytest.mark.parametrize("command", [["verify", "example2"], ["synth", "example2"],
                                     ["simulate", "example2"], ["example", "2"]])
def test_unwritable_out_exits_two(tmp_path, capsys, command):
    sub, arg = command
    path = str(tmp_path / "missing" / "out.json")
    argv = [sub, arg if sub == "example" else _fixture_path(arg), "--out", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["verify", "example2"], ["example", "1"]])
def test_closed_stdout_exits_two(command):
    """stdout is a pipe whose reader has closed: one error line and exit 2,
    whatever the verdict, and no traceback from the interpreter's exit."""
    sub, arg = command
    argv = [sub, arg if sub == "example" else _fixture_path(arg)]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "minjump.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(write)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: cannot write standard output: ")
    assert len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize("key, bad", [("x0", math.nan), ("u0", math.inf)])
def test_non_finite_initial_state_exits_two(tmp_path, capsys, key, bad):
    """Bad input, not a divergence at t = 0; a finite 1e300 still diverges."""
    cfg = _ex3_verify_fixture()
    cfg["run"][key][0] = bad
    assert main(["simulate", _write(tmp_path, "start.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1
    cfg["run"].update(x0=[1e300, 1.0], u0=[0.0, 0.0])
    assert main(["simulate", _write(tmp_path, "huge.json", cfg)]) == 1


def test_nan_rule_eps_exits_two(tmp_path, capsys):
    cfg = _ex2_fixture()
    cfg["rule"]["eps"] = math.nan
    assert main(["verify", _write(tmp_path, "eps.json", cfg)]) == 2
    assert "eps" in capsys.readouterr().err


def test_negative_seed_exits_two(tmp_path, capsys):
    cfg = _ex2_fixture()
    cfg["run"]["kind"] = "uniform_random"
    assert main(["simulate", _write(tmp_path, "rand.json", cfg), "--seed=-1"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "synth", "simulate"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weight_exits_two(tmp_path, capsys, command, bad):
    cfg = _ex2_fixture()
    cfg["weights"]["pi"][0][0] = bad
    assert main([command, _write(tmp_path, "weights.json", cfg)]) == 2
    assert "non-finite" in capsys.readouterr().err


def _ex2_result():
    """A successful synthesis result file for example 2: its own rule."""
    cfg = _ex2_fixture()
    return {"status": "success", "eps": 0.0, "P": cfg["rule"]["P"],
            "weights": cfg["weights"]["pi"]}


_DROP = object()


@pytest.mark.parametrize("command, base, where, value", [
    ("verify", "ex2", ("system", "J"), 5),
    ("verify", "ex2", ("rule", "P"), 5),
    ("verify", "ex1", ("gains", "K"), 5),
    ("verify", "ex3", ("system", "A"), 5),
    ("verify", "ex3", ("system", "B"), 5),
    ("verify", "ex3", ("system", "J"), 5),
    ("verify", "ex3", ("system", "J", 0), 5),
    ("verify", "ex3", ("system", "updates"), 5),
    ("verify", "ex3", ("system", "updates", 0), 5),
    ("verify", "ex3", ("gains", "K"), 5),
    ("verify", "ex3", ("gains", "K", 0), 5),
    ("simulate", "result", (), [1, 2]),
    ("simulate", "result", ("weights",), _DROP),
    ("simulate", "result", ("P",), 5),
    ("verify", "ex2", ("rule", "eps"), None),
    ("verify", "ex2", ("rule", "eps"), [1.0]),
    ("verify", "ex2", ("rule", "eps"), "0.1"),
    ("verify", "ex2", ("rule", "eps"), True),
    ("simulate", "result", ("eps",), None),
    ("simulate", "result", ("eps",), [1.0]),
    ("simulate", "ex2", ("run", "steps"), True),
    ("simulate", "ex2", ("run", "steps"), "7"),
    ("simulate", "ex2", ("run", "steps"), 7.9),
    ("verify", "ex2", ("run", "tol"), True),
    ("verify", "ex2", ("run", "grid"), 200.5),
    ("verify", "ex2", ("dwell", "t_min"), "0.02"),
    ("verify", "ex2", ("dwell", "t_max"), True),
    ("simulate", "ex2", ("run", "period"), "0.02"),
    ("simulate", "ex2", ("run", "result"), 3),
    ("simulate", "ex2", ("run", "result"), True),
    ("simulate", "ex2", ("run", "result"), False),
    ("simulate", "ex2", ("run", "result"), 0),
    ("simulate", "ex2", ("run", "result"), ["result.json"]),
    ("simulate", "ex2", ("run", "result"), ""),
    ("simulate", "result", ("P", 0, 0, 0), "x"),
    ("verify", "ex3", ("system", "updates", 0, 0), 0.9),
    ("verify", "ex3", ("system", "updates", 0, 0), True),
    ("simulate", "ex2", ("run", "x0"), [[1.0], [1.0]]),
    ("verify", "ex1", ("system", "B"), [0.0, 1.0, 2.0]),
    ("verify", "ex2", ("system", "A"), [["2.0", "3.0"], ["1.0", "1.0"]]),
    ("verify", "ex2", ("system", "A"), [[2.0, True], [True, 1.0]]),
    pytest.param("verify", "ex2", ("system", "A", 0, 0), 10**400,
                 id="verify-ex2-system-A-0-0-10**400"),
    ("simulate", "ex2", ("run", "steps"), None),
    ("verify", "ex2", ("run", "tol"), None),
    ("synth", "ex2", ("run", "nodes"), None),
    ("verify", "ex2", ("system", "A"), _DROP),
    ("verify", "ex2", ("system", "J"), _DROP),
    ("verify", "ex2", ("dwell", "t_min"), _DROP),
    ("verify", "ex2", ("dwell", "t_max"), _DROP),
    ("verify", "ex2", ("weights", "pi"), _DROP),
    ("verify", "ex2", ("rule", "P"), _DROP),
    ("simulate", "ex2", ("run", "x0"), _DROP),
    ("simulate", "ex2", ("run", "period"), _DROP),
    ("verify", "ex2", ("dwell",), 5),
    ("verify", "ex2", ("rule",), _DROP),
    ("verify", "ex2", ("system", "type"), "hybrid"),
    ("verify", "ex1", ("system", "updates"), [[0], [0]]),
    ("verify", "ex3", ("system", "updates"), [[0]]),
], ids=lambda v: ("-".join(map(str, v)) or "file") if isinstance(v, tuple)
   else "dropped" if v is _DROP else str(v).replace(" ", ""))
def test_wrong_typed_field_exits_two(tmp_path, capsys, command, base, where, value):
    """A scalar where a per-mode list belongs, a result file that is not an
    object holding P and weights or whose P holds a string, an eps that is
    not a JSON number (in rule or in a result file), a run count,
    tolerance, dwell bound or period that is null, a bool, a string or a
    count with a fraction, an update channel that is a bool or a
    fraction, an x0 that is not a vector, a B that is not a matrix, an A
    holding numeric strings or bools, a
    plant entry too large for a float, or a run.result that is not a
    non-empty path string (open() would take an int as a file descriptor),
    a block that is not an object, a system type other than impulsive or
    switched, updates on an impulsive plant or with one list for two modes
    is refused with one error line; a run or dwell field names its key, and
    so does a key or block the config needs that is missing."""
    if base == "ex1":
        with open(_fixture_path("example1")) as fh:
            cfg = json.load(fh)
    else:
        cfg = {"ex2": _ex2_fixture, "ex3": _ex3_verify_fixture, "result": _ex2_result}[base]()
    if not where:
        cfg = value
    else:
        *path, last = where
        block = cfg
        for key in path:
            block = block[key]
        if value is _DROP:
            del block[last]
        else:
            block[last] = value
    if base == "result":
        result = _write(tmp_path, "result.json", cfg)
        cfg = dict(_ex2_fixture(), run={"x0": [1.0, 1.0], "result": result})
    assert main([command, _write(tmp_path, "job.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if where[:1] in (("run",), ("dwell",)) or (value is _DROP and base != "result"):
        assert ".".join(where) in err


@pytest.mark.parametrize("command", ["verify", "synth", "simulate"])
def test_plant_near_overflow_exits_three(tmp_path, capsys, command):
    """Entries of 1e308 overflow the expm norm, the solver's scaled data
    and the flow: each is one error line and exit 3, with no RuntimeWarning
    (the suite makes one an error) and no traceback."""
    cfg = _ex2_fixture()
    cfg["system"]["A"] = [[1e308, 1e308], [1e308, 1e308]]
    assert main([command, _write(tmp_path, "job.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "overflow" in err


@pytest.mark.parametrize("key", ["grid", "steps", "substeps"])
def test_count_no_array_can_hold_exits_two(tmp_path, capsys, monkeypatch, key):
    """2**60 float entries are 2**63 bytes, past any signed index: refused
    as parsed, before anything is allocated."""
    calls = []
    monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(sim, "gen_sequence", lambda *a, **k: calls.append(a))
    cfg = _ex2_fixture()
    cfg["dwell"]["t_max"] = 0.05  # a dwell range the grid must sample
    cfg["run"][key] = 2**60
    command = "verify" if key == "grid" else "simulate"
    assert main([command, _write(tmp_path, "job.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and len(err.splitlines()) == 1
    assert calls == []


def test_steps_times_substeps_past_any_array_exits_two(tmp_path, capsys):
    cfg = _ex2_fixture()
    cfg["run"]["substeps"] = 2**57  # each count fits, the (100, 2**57, 2) trajectory does not
    assert main(["simulate", _write(tmp_path, "job.json", cfg)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(checks, "check", exhausted)
    assert main(["verify", _fixture_path("example2")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory" in err and len(err.splitlines()) == 1


def test_synth_node_count_past_the_solver_cap_exits_two_before_assembly(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(synth, "_assemble", lambda *a: calls.append(a))
    assert main(["synth", _fixture_path("example2"), "--nodes", "30000"]) == 2
    assert "cap" in capsys.readouterr().err
    assert calls == []


# extreme values any fuzzed number may take instead of an ordinary one
_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1e300])

# ordinary draws per fuzzed key; a weight key redraws one column as (p, 1 - p)
_ORDINARY = {
    "tol": st.floats(0.0, 1.0),
    "seed": st.integers(-3, 2**32),
    "steps": st.integers(-3, 200),
    "substeps": st.integers(-1, 4),
    "grid": st.integers(-1, 2000),
    "t_min": st.floats(1e-3, 0.02),
    "t_max": st.floats(0.02, 0.2),
    "pi col 0": st.floats(0.0, 1.0),
    "pi col 1": st.floats(0.0, 1.0),
}
# drawn for synth only: few nodes, as a large count solves for minutes under
# the solver's cap, and one count far past that cap
_SYNTH_ORDINARY = {
    "nodes": st.one_of(st.integers(2, 10), st.just(10**6)),
}
# a --pi-scan candidate for example 2's two modes: column-stochastic, or
# malformed (columns off one, wrong shape, NaN, not a list)
_PROB = st.floats(0.0, 1.0)
_SCAN_CANDIDATE = st.one_of(
    st.tuples(_PROB, _PROB).map(lambda pq: [[pq[0], pq[1]], [1.0 - pq[0], 1.0 - pq[1]]]),
    st.just([[0.5, 0.5], [0.1, 0.5]]),
    st.sampled_from([[[1.0]], np.eye(3).tolist(), [[0.5, 0.5]], [0.5, 0.5]]),
    st.just([[math.nan, 0.5], [0.5, 0.5]]),
    st.sampled_from([0.5, "pi", None]),
)
# drawn for synth only: no scan file, one of 1-3 candidates, or a file that
# is not a list
_SCAN = st.one_of(st.none(), st.lists(_SCAN_CANDIDATE, min_size=1, max_size=3),
                  st.just({"pi": [[0.5, 0.5], [0.5, 0.5]]}))
# drawn for verify and simulate only, which read rule.eps: a margin or a
# value of the wrong type
_RULE_ORDINARY = {
    "eps": st.one_of(st.floats(0.0, 1.0), st.sampled_from([None, [1.0], "0.1", True, math.nan])),
}


def _ex3_verify_fixture():
    """Example 3 closed by its published gains, with its rule matrices as rule.P."""
    with open(_fixture_path("example3")) as fh:
        cfg = json.load(fh)
    ref = cfg["reference"]
    cfg["rule"] = {"P": [np.linalg.inv(Pt).tolist() for Pt in ref["Ptilde"]]}
    cfg["gains"] = {"K": ref["K"]}
    return cfg


@st.composite
def _fuzzed_jobs(draw):
    """A subcommand and example 2, or verify and example 3, with up to
    three keys redrawn: synth's nodes among them for synth,
    rule.eps for the others; synth may also get a --pi-scan file.
    Example 3's 4x4 stacks are searched for their maximum from 128 grid
    points up and solved densely below."""
    command = draw(st.sampled_from(["verify", "simulate", "synth", "verify ex3"]))
    cfg = _ex3_verify_fixture() if command == "verify ex3" else _ex2_fixture()
    ordinary = dict(_ORDINARY, **(_SYNTH_ORDINARY if command == "synth" else _RULE_ORDINARY))
    keys = draw(st.lists(st.sampled_from(sorted(ordinary)), max_size=3, unique=True))
    for key in keys:
        value = draw(st.one_of(ordinary[key], _EXTREMES))
        if key.startswith("pi"):
            i = int(key[-1])
            cfg["weights"]["pi"][0][i] = value
            cfg["weights"]["pi"][1][i] = 1.0 - value
        elif key.startswith("t_"):
            cfg["dwell"][key] = value
        elif key == "eps":
            cfg["rule"][key] = value
        else:
            cfg["run"][key] = value
    cfg["run"]["kind"] = draw(st.sampled_from(["periodic", "uniform_random"]))
    scan = draw(_SCAN) if command == "synth" else None
    return command.split()[0], cfg, scan


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_fuzzed_jobs())
def test_cli_contract_fuzz(job):
    """Any drawn config ends in exit 0-3 with no traceback, and a verify
    pass always clears its tolerance."""
    command, cfg, scan = job
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, f"{tmp}/job.json"]
        with open(argv[1], "w") as fh:
            json.dump(cfg, fh)
        if scan is not None:
            argv += ["--pi-scan", f"{tmp}/scan.json"]
            with open(argv[-1], "w") as fh:
                json.dump(scan, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if command == "verify" and code in (0, 1):
        report = json.loads(out.getvalue())
        assert report["strict_tol"] == cfg["run"].get("tol", report["strict_tol"])
        if report["pass"]:
            assert report["worst_margin"] < -report["strict_tol"]
