"""Aperiodic min-jumping rules for impulsive and switched sampled-data loops.

The package verifies, designs and simulates state-dependent jump rules: at
every sampling instant the rule picks the mode minimizing a quadratic form
in the augmented state (plant state plus held input), and a family of
matrices P_i certifies decay of that minimum for any inter-sample interval
inside a dwell range.
"""

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
    validate_weights,
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
from .synth import (
    SynthesisOptions,
    SynthesisResult,
    scan_weights,
    synthesize,
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
    "validate_weights",
    "write_csv",
]
