"""Module attributes that the benchmark's tracer (perfbench/tracing.py) and
workloads call, wrap or read by name; a refactor that drops one breaks the
traced benchmark run, which the tier-1 suite does not execute."""

import importlib

import pytest

TRACED_NAMES = {
    "checks": ("DwellGrid", "check_impulsive", "check_switched"),
    "cli": ("build_cert", "build_dwell", "build_model", "build_weights", "load_config"),
    "linalg": ("expm", "inv_spd", "sym_eig_max"),
    "model": ("augment_impulsive", "augment_switched"),
    "rules": ("select_impulsive", "select_switched"),
    "sdp": ("residuals", "solve"),
    "sim": ("gen_sequence", "select_switched", "simulate_impulsive", "simulate_switched"),
    "synth": ("SynthesisOptions", "assemble_impulsive", "assemble_switched", "check_impulsive",
              "inv_spd", "recover_design", "synthesize"),
}


@pytest.mark.parametrize("module", sorted(TRACED_NAMES))
def test_traced_names_exist(module):
    mod = importlib.import_module(f"minjump.{module}")
    missing = [name for name in TRACED_NAMES[module] if not callable(getattr(mod, name, None))]
    assert not missing, f"minjump.{module} lacks {missing}"


def test_synth_binds_the_checks_function():
    # the tracer wraps a function at every module attribute that refers to it
    from minjump import checks, synth
    assert synth.check_impulsive is checks.check_impulsive
