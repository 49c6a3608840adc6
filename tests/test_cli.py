"""Command-line interface: exit codes, strict config parsing, idempotence."""

import json
from importlib import resources

import numpy as np
import pytest

from minjump import DwellRange, gen_sequence
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


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = _ex2_config()
    cfg["rule"]["Q"] = []
    assert main(["verify", _write(tmp_path, "extra.json", cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
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
