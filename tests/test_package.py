"""The package's own surface.

Module attributes that the benchmark's tracer (perfbench/tracing.py) and
workloads call, wrap or read by name; a refactor that drops one breaks the
traced benchmark run, which the tier-1 suite does not execute.  And the
co-design solver (synth, sdp) loads on first use only.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minjump
from minjump import checks

ROOT = Path(__file__).resolve().parents[1]

TRACED_NAMES = {
    "checks": ("DwellGrid", "check_impulsive", "check_switched"),
    "cli": ("build_cert", "build_dwell", "build_model", "build_weights", "load_config"),
    "linalg": ("expm", "inv_spd", "sym_eig_max"),
    "model": ("augment_impulsive", "augment_switched"),
    # the tracer reaches the rules layer during simulate through argmin_forms
    "rules": ("argmin_forms", "select_impulsive", "select_switched"),
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


# read in a fresh process: verify and simulate must leave the solver unloaded,
# then every lazy name must resolve to synth's object however it is read
_FIRST_USE = r"""
import contextlib, io, json, sys

def solver():
    return sorted(m for m in ("minjump.sdp", "minjump.synth") if m in sys.modules)

seen = {}
import minjump
seen["import minjump"] = solver()
import minjump.cli
seen["import minjump.cli"] = solver()
for argv in (["verify", sys.argv[1]], ["simulate", sys.argv[1], "--steps", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[argv[0]] = [minjump.cli.main(argv), solver()]
seen["dir"] = [sorted(set(sys.argv[2:]) - set(dir(minjump))), solver()]
from minjump import sdp
seen["from minjump import sdp"] = [sdp is sys.modules["minjump.sdp"], solver()]
namespace = {}
exec("from minjump import *", namespace)
seen["import *"] = sorted(set(minjump.__all__) - set(namespace))
synth = sys.modules["minjump.synth"]
for name in sys.argv[2:]:
    expected = synth if name == "synth" else getattr(synth, name)
    namespace = {}
    exec(f"from minjump import {name}", namespace)
    seen[name] = [getattr(minjump, name) is expected, namespace[name] is expected,
                  name in dir(minjump)]
seen["sdp.solve"] = minjump.sdp.solve is minjump.synth.sdp.solve
print(json.dumps(seen))
"""

LAZY_NAMES = ("SynthesisOptions", "SynthesisResult", "scan_weights", "sdp", "synth", "synthesize")


def _fresh(code, *args, **env):
    """python -c code args in a fresh process, src/ first on its path."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_the_solver_loads_on_first_use():
    config = ROOT / "src" / "minjump" / "fixtures" / "example2.json"
    done = _fresh(_FIRST_USE, config, *LAZY_NAMES)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen == {
        "import minjump": [], "import minjump.cli": [],
        "verify": [0, []], "simulate": [0, []], "dir": [[], []],
        "from minjump import sdp": [True, ["minjump.sdp", "minjump.synth"]],
        "import *": [], "sdp.solve": True,
        **{name: [True, True, True] for name in LAZY_NAMES},
    }
    # a name the package does not have reads as on any module
    with pytest.raises(AttributeError, match="^module 'minjump' has no attribute 'nonexistent'$"):
        minjump.nonexistent  # noqa: B018


def test_readme_library_example_runs():
    """The README's Library example runs as printed, on one BLAS thread with
    a RuntimeWarning an error, and prints a passing margin and a decay."""
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    before, block = section.split("```python\n", 1)
    assert "\n## " not in before  # the block is the section's own
    done = _fresh(block.split("\n```", 1)[0], OPENBLAS_NUM_THREADS="1",
                  PYTHONWARNINGS="error::RuntimeWarning")
    assert done.returncode == 0, done.stderr
    worst, decay = map(float, done.stdout.split())
    assert worst < -checks.STRICT_TOL and decay > 1.0
