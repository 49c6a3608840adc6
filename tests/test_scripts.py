"""Smoke tests of the scripts in scripts/: each runs to exit 0, and a bad
input exits the way `minjump` does."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_run_examples_writes_every_trajectory(tmp_path):
    done = _run(ROOT / "scripts" / "run_examples.py", tmp_path)
    assert done.returncode == 0, done.stderr
    for ident in (1, 2, 3):
        assert (tmp_path / f"example{ident}_trajectory.csv").stat().st_size > 0


def test_dwell_sweep_runs_two_steps():
    config = ROOT / "src" / "minjump" / "fixtures" / "example1.json"
    done = _run(ROOT / "scripts" / "dwell_sweep.py", config, "--steps", "2")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3  # header and one row per step


def test_dwell_sweep_takes_the_node_count_from_the_config():
    """Example 3 is feasible only from its own run.nodes (8) up: at its
    own dwell range the sweep must find the design `minjump synth` finds."""
    config = ROOT / "src" / "minjump" / "fixtures" / "example3.json"
    done = _run(ROOT / "scripts" / "dwell_sweep.py", config, "--steps", "1")
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()
    assert row.split()[1] == "success"


def test_dwell_sweep_reports_a_bad_config_without_a_traceback():
    done = _run(ROOT / "scripts" / "dwell_sweep.py", "example1", "--steps", "2")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("dwell_sweep: ") and len(done.stderr.splitlines()) == 1


def test_gate_pool_passes_every_simulate_input():
    done = _run(ROOT / "scripts" / "gate_pool.py", "simulate")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["simulate: 96 inputs, 0 failed"]
    assert _run(ROOT / "scripts" / "gate_pool.py", "simulate", "bogus").returncode == 2


def test_unreached_lists_statements_only():
    """Run on one test file, stdout holds the list alone, one
    `src/minjump/<file>.py:<line>: <statement>` a line, and the exit code
    is pytest's."""
    done = _run(ROOT / "scripts" / "unreached.py", "tests/test_package.py", "-q",
                "-p", "no:cacheprovider")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines and all(re.fullmatch(r"src/minjump/\w+\.py:\d+: \S.*", line) for line in lines)
