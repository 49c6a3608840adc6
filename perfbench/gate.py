"""Correctness gate: every answer a job returns is checked against the
reference answers stored in reference.json, made with the baseline code.

A job whose answer fails here counts as failed, so a speed-up that changes
a result shows in `failed` and `correct`, not only in its timings.
Tolerances follow the ROADMAP's done-when criteria.
"""

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

EPS_RTOL = 1e-6          # synth eps, relative
ITERATION_SLACK = 2      # IPM iterations, either way
MARGIN_ATOL = 1e-12      # verify worst margin, absolute
FINAL_V_RTOL = 1e-9      # simulated value at the last sample, relative


def load_reference(path=REFERENCE_FILE):
    with open(path) as fh:
        return json.load(fh)


def _close(value, ref, rtol=0.0, atol=0.0):
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def check_design(ans, ref):
    problems = []
    if ans["status"] != ref["status"]:
        problems.append(f"status {ans['status']} != {ref['status']}")
    if not _close(ans["eps"], ref["eps"], rtol=EPS_RTOL):
        problems.append(f"eps {ans['eps']!r} != {ref['eps']!r}")
    if abs(ans["iterations"] - ref["iterations"]) > ITERATION_SLACK:
        problems.append(f"iterations {ans['iterations']} != {ref['iterations']}")
    if ans["passed"] != ref["passed"]:
        problems.append(f"post-verify passed {ans['passed']} != {ref['passed']}")
    return problems


def check_verify(ans, ref):
    problems = []
    if ans["passed"] != ref["passed"]:
        problems.append(f"passed {ans['passed']} != {ref['passed']}")
    if not _close(ans["worst_margin"], ref["worst_margin"], atol=MARGIN_ATOL):
        problems.append(f"worst_margin {ans['worst_margin']!r} != {ref['worst_margin']!r}")
    return problems


def check_simulate(ans, ref):
    problems = []
    if ans["samples"] != ref["samples"]:
        problems.append(f"{ans['samples']} samples, expected {ref['samples']}")
    if not ans["decreasing"]:
        problems.append("V does not decrease strictly")
    if not _close(ans["final_V"], ref["final_V"], rtol=FINAL_V_RTOL):
        problems.append(f"final V {ans['final_V']!r} != {ref['final_V']!r}")
    if ans["mode_counts"] != ref["mode_counts"]:
        problems.append(f"mode counts {ans['mode_counts']} != {ref['mode_counts']}")
    return problems


CHECKS = {"design": check_design, "verify": check_verify, "simulate": check_simulate}


class Gate:
    def __init__(self, workload, reference=None):
        reference = load_reference() if reference is None else reference
        self.expected = reference[workload]
        self.check_one = CHECKS[workload]

    def check(self, answers):
        """Problems found in a job's {reference key: answer}; empty when all match."""
        problems = []
        for key, ans in answers.items():
            if key not in self.expected:
                problems.append(f"{key}: no reference answer")
                continue
            problems += [f"{key}: {p}" for p in self.check_one(ans, self.expected[key])]
        return problems
