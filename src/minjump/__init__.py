"""Aperiodic min-jumping rules for impulsive and switched sampled-data loops.

The package verifies, designs and simulates state-dependent jump rules: at
every sampling instant the rule picks the mode minimizing a quadratic form
in the augmented state (plant state plus held input), and a family of
matrices P_i certifies decay of that minimum for any inter-sample interval
inside a dwell range.

The co-design solver (`synth`, `sdp`, `synthesize`, `scan_weights`,
`SynthesisOptions`, `SynthesisResult`) loads on first use, so `import
minjump`, `minjump verify` and `minjump simulate` never import it.
"""

import sys

from .checks import (
    DEFAULT_GRID_POINTS,
    ClockFamily,
    DwellGrid,
    VerificationReport,
    check,
    check_clock,
    check_impulsive,
    check_switched,
    exact_clock_family,
)
from .errors import (
    CapacityError,
    CertificateError,
    ConfigError,
    DimensionError,
    DivergenceError,
    FactorizationError,
    MinjumpError,
    ModelError,
    NumericError,
    RecoveryError,
)
from .model import (
    AugmentedModel,
    DwellRange,
    ImpulsiveSpec,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
)
from .rules import MinJumpCertificate, select_impulsive, select_switched
from .sim import (
    SamplingSequence,
    Trajectory,
    gen_sequence,
    lyapunov_trace,
    simulate_impulsive,
    simulate_switched,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedModel",
    "CapacityError",
    "CertificateError",
    "ClockFamily",
    "ConfigError",
    "DEFAULT_GRID_POINTS",
    "DimensionError",
    "DivergenceError",
    "DwellGrid",
    "DwellRange",
    "FactorizationError",
    "ImpulsiveSpec",
    "MinJumpCertificate",
    "MinjumpError",
    "ModeWeights",
    "ModelError",
    "NumericError",
    "RecoveryError",
    "SamplingSequence",
    "SwitchedSpec",
    "SynthesisOptions",
    "SynthesisResult",
    "Trajectory",
    "VerificationReport",
    "augment_impulsive",
    "augment_switched",
    "check",
    "check_clock",
    "check_impulsive",
    "check_switched",
    "exact_clock_family",
    "gen_sequence",
    "lyapunov_trace",
    "scan_weights",
    "select_impulsive",
    "select_switched",
    "simulate_impulsive",
    "simulate_switched",
    "synthesize",
    "write_csv",
]

_LAZY = ("SynthesisOptions", "SynthesisResult", "scan_weights", "sdp", "synth", "synthesize")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import synth`, which asks this hook for synth again, nor
    # importlib.import_module, whose loads -X importtime does not list
    __import__(f"{__name__}.synth")
    synth = sys.modules[f"{__name__}.synth"]
    return synth if name == "synth" else getattr(synth, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
