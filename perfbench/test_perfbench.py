"""Tests of the benchmark itself: seeded inputs, the correctness gate, the
traced run's layer mapping, and the output contract.

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bootstrap
import gate
import harness
import tracing
from workloads import WORKLOADS, Design, Simulate, Verify

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
REFERENCE = gate.load_reference()


def plan(workload, passes=4):
    return [[job.keys for job in workload.next_pass()] for _ in range(passes)]


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_deterministic_for_a_seed(name):
    W = WORKLOADS[name]
    assert plan(W(5)) == plan(W(5))
    assert any(plan(W(5)) != plan(W(s)) for s in range(6, 12))


def test_verify_random_systems_are_deterministic():
    a, b = Verify(3), Verify(3)
    assert a.batch == b.batch
    dims = [int(k[1:].split("/")[0]) for k in a.batch]
    assert dims == [n for n in Verify.RANDOM_DIMS for _ in range(Verify.PER_DIM)]
    assert len(set(a.batch)) == len(a.batch)
    for key in a.batch:
        (ma, ca, _, ga), (mb, cb, _, gb) = a.designs[key], b.designs[key]
        assert ga == gb
        np.testing.assert_array_equal(ma.drift(), mb.drift())
        for i in range(ma.modes):
            np.testing.assert_array_equal(ma.jump(i), mb.jump(i))
            np.testing.assert_array_equal(ca.P[i], cb.P[i])
        np.testing.assert_array_equal(ca.weights.pi, cb.weights.pi)
    assert any(Verify(s).batch != a.batch for s in range(4, 10))


def test_simulate_inputs_are_deterministic():
    a, b = Simulate(3), Simulate(3)
    assert a.keys == b.keys
    for key in a.keys:
        xa, ua, sa = a._input(key)
        xb, ub, sb = b._input(key)
        np.testing.assert_array_equal(xa, xb)
        assert sa == sb
        assert (ua is None and ub is None) or np.array_equal(ua, ub)
    assert any(Simulate(s).keys != a.keys for s in range(4, 10))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seeded_input_has_a_reference_answer(name):
    W = WORKLOADS[name]
    pool = set(W(0).all_keys())
    assert pool == set(REFERENCE[name])
    for seed in range(20):
        assert {k for keys in plan(W(seed), 1)[0] for k in keys} <= pool


# -- correctness gate --------------------------------------------------------

def tampered(workload, key, **changes):
    answer = copy.deepcopy(REFERENCE[workload][key])
    answer.update(changes)
    return gate.Gate(workload, REFERENCE).check({key: answer})


def test_gate_accepts_reference_answers():
    for name in WORKLOADS:
        g = gate.Gate(name, REFERENCE)
        assert g.check(copy.deepcopy(REFERENCE[name])) == []


def test_gate_fires_on_tampered_design_answers():
    ref = REFERENCE["design"]["ex1"]
    assert tampered("design", "ex1", status="infeasible")
    assert tampered("design", "infeasible", status="success")
    assert tampered("design", "ex1", eps=ref["eps"] * (1 + 1e-5))
    assert not tampered("design", "ex1", eps=ref["eps"] * (1 + 1e-7))
    assert tampered("design", "ex1", eps=float("nan"))
    assert tampered("design", "ex1", iterations=ref["iterations"] + 3)
    assert not tampered("design", "ex1", iterations=ref["iterations"] - 2)
    assert tampered("design", "ex1", passed=False)


def test_gate_fires_on_tampered_verify_answers():
    ref = REFERENCE["verify"]["ex3"]
    assert tampered("verify", "ex3", passed=False)
    assert tampered("verify", "ex3", worst_margin=ref["worst_margin"] + 1e-11)
    assert not tampered("verify", "ex3", worst_margin=ref["worst_margin"] + 1e-13)
    assert tampered("verify", "d4/0", worst_margin=0.0)


def test_gate_fires_on_tampered_simulate_answers():
    ref = REFERENCE["simulate"]["ex1/0"]
    assert tampered("simulate", "ex1/0", final_V=ref["final_V"] * (1 + 1e-8))
    assert tampered("simulate", "ex1/0", mode_counts=ref["mode_counts"][::-1])
    assert tampered("simulate", "ex1/0", decreasing=False)
    assert tampered("simulate", "ex1/0", samples=ref["samples"] - 1)


def test_gate_fires_on_an_unknown_key():
    assert gate.Gate("verify", REFERENCE).check({"d9/0": {}})


@pytest.mark.parametrize("name, key", [("design", "infeasible"), ("verify", "d3/5"),
                                       ("simulate", "ex2/7"), ("simulate", "ex3/30")])
def test_current_code_passes_the_gate(name, key):
    answer = WORKLOADS[name](0).solve(key)
    assert gate.Gate(name, REFERENCE).check({key: answer}) == []


# -- traced run ----------------------------------------------------------------

def traced_pass(name):
    W = WORKLOADS[name]
    setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
    setup_tracer.install()
    try:
        state = W.setup()
    finally:
        setup_tracer.uninstall()
    workload = W(1, state)
    tracer.install()
    try:
        for job in workload.next_pass():
            job.run()
    finally:
        tracer.uninstall()
    return setup_tracer.summary(), tracer.summary()


@pytest.fixture(scope="module")
def summaries():
    return {name: traced_pass(name) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_reaches_exactly_the_expected_layers(summaries, name):
    setup, run = summaries[name]
    assert tracing.self_test(name, setup, run) == []
    metrics = tracing.layer_metrics(setup, run, 1, 0.1, 0.0)
    assert set(metrics) == {n for n, _ in tracing.LAYER_METRICS}


def test_trace_self_test_flags_a_wrong_mapping(summaries):
    setup, run = summaries["simulate"]
    problems = tracing.self_test("verify", setup, run)
    assert any("rules" in p for p in problems)
    assert any("checks" in p for p in problems)
    assert any("sym_eig_max" in p for p in problems)


def test_trace_counts_the_design_problems(summaries):
    setup, run = summaries["design"]
    metrics = tracing.layer_metrics(setup, run, 1, 0.1, 0.0)
    size = {"ex1": (88, 60), "ex3": (217, 88), "infeasible": (22, 30)}   # unknowns, blocks
    assert metrics["sdp.unknowns"][0] == sum(size[c][0] for c in Design.PASS)
    assert metrics["sdp.blocks"][0] == sum(size[c][1] for c in Design.PASS)
    assert metrics["sdp.non_optimal"][0] == Design.PASS.count("infeasible")
    assert metrics["synth.post_verify.s"][0] > 0
    # the two-mode post-verify grid has 200 points per feasible design
    assert metrics["checks.points"][0] == 200 * 2 * (len(Design.PASS) - Design.PASS.count("infeasible"))


def test_tracer_restores_the_package():
    from minjump import checks, linalg, sim, synth
    originals = (linalg.expm, synth.check_impulsive, sim.select_switched, synth.inv_spd)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.expm is not originals[0]
        assert synth.check_impulsive is not checks.check_impulsive.__wrapped__
    finally:
        tracer.uninstall()
    assert (linalg.expm, synth.check_impulsive, sim.select_switched, synth.inv_spd) == originals


# -- output contract -----------------------------------------------------------

def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    layers = json.loads((bootstrap.ROOT / "perfbench" / "layers.json").read_text())
    assert set(layers["per_layer"]) == {n for n, _ in tracing.LAYER_METRICS}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    out = run_bench(bootstrap.ROOT, "--workload", "simulate", "--seed", "4",
                    "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path, "--workload", "design", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
