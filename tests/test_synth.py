"""Co-design pipeline: assembly, solving, recovery, post-verification."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from minjump import (
    ConfigError,
    DwellRange,
    ImpulsiveSpec,
    ModeWeights,
    augment_impulsive,
    check_impulsive,
    check_switched,
    scan_weights,
    synthesize,
)
from minjump.checks import DwellGrid
from minjump.synth import PTILDE_CAP, SynthesisOptions, clock_node_grid

from conftest import EX1_PI, EX3_PI


def test_clock_node_grid_contains_dwell_floor():
    nodes = clock_node_grid(DwellRange(0.013, 0.05), 6)
    assert nodes[0] == 0.0 and nodes[-1] == 0.05
    assert any(abs(t - 0.013) < 1e-12 for t in nodes)


def test_options_hold_nodes_and_floor_only():
    assert [f.name for f in fields(SynthesisOptions)] == ["clock_nodes", "delta_pd"]
    for bad in ({"clock_nodes": 1}, {"delta_pd": -1e-6}, {"delta_pd": PTILDE_CAP}):
        with pytest.raises(ConfigError):
            SynthesisOptions(**bad)


def test_impulsive_codesign_end_to_end(ex1_open_model, ex1_dwell):
    result = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                        SynthesisOptions(clock_nodes=6))
    assert result.success
    assert result.eps > 0.0
    # designed row for mode 0, fixed hold row untouched for mode 1
    assert result.gains[0].shape == (1, 3)
    assert np.allclose(result.gains[1], [[0.0, 0.0, 1.0]])
    # the recovered certificate survives an independent fine-grid check
    closed = ex1_open_model.with_gains(result.gains)
    report = check_impulsive(closed, result.cert, ex1_dwell,
                             grid=DwellGrid.uniform(ex1_dwell, 200))
    assert report.passed
    assert report.worst_margin < -1e-7


def test_relaxation_tightens_with_node_count(ex1_open_model, ex1_dwell):
    """Refining every clock interval keeps the achieved margin from shrinking.

    A 2M-1 node grid nests the M node grid, so any feasible piecewise-affine
    family on the coarse grid restricts to one on the fine grid; solver
    tolerance is the only slack allowed here.
    """
    coarse = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                        SynthesisOptions(clock_nodes=4))
    fine = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                      SynthesisOptions(clock_nodes=7))
    assert coarse.success and fine.success
    assert fine.eps >= coarse.eps - 1e-5


def test_gain_recovery_consistency(ex1_open_model, ex1_dwell):
    # K = U Ptilde^{-1} must reproduce the stored gain bit for bit given the
    # same inverse routine
    from minjump.linalg import inv_spd
    result = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                        SynthesisOptions(clock_nodes=6))
    assert result.success
    U0 = result.solution.values["U0"]
    K0 = U0 @ inv_spd(result.solution.values["Pt0"])
    assert np.allclose(K0, result.gains[0], atol=0.0, rtol=0.0)


def test_inputless_synthesis(ex2_model):
    # rule matrices alone must certify the fixed-period loop; the margin sits
    # near the relaxation boundary, so the clock grid has to be fine enough
    result = synthesize(ex2_model, ModeWeights([[0.9, 0.1], [0.1, 0.9]]),
                        DwellRange(0.02, 0.02), SynthesisOptions(clock_nodes=12))
    assert result.success
    assert result.gains is None
    assert result.report.passed


def test_switched_codesign_end_to_end(ex3_open_model, ex3_dwell):
    result = synthesize(ex3_open_model, ModeWeights(EX3_PI), ex3_dwell,
                        SynthesisOptions(clock_nodes=8))
    assert result.success
    for j in range(2):
        for i in range(2):
            assert result.gains[j][i].shape == (1, 4)
    closed = ex3_open_model.with_gains(result.gains)
    report = check_switched(closed, result.cert, ex3_dwell,
                            grid=DwellGrid.uniform(ex3_dwell, 200))
    assert report.passed


def test_unstabilizable_loop_is_refused():
    model = augment_impulsive(
        ImpulsiveSpec([[3.0, 0.0], [1.0, 1.0]], J=[np.eye(2).tolist()]))
    result = synthesize(model, ModeWeights([[1.0]]), DwellRange(0.01, 0.05),
                        SynthesisOptions(clock_nodes=6))
    assert not result.success
    assert result.status in ("infeasible", "relaxation_gap", "numerical_failure")
    assert result.cert is None


def test_vanishing_dwell_is_infeasible_without_warnings(ex1_open_model):
    # dwell 1e-300 puts 1/h terms near 5e300 into the flow blocks; the
    # residual eigenvalues must not overflow on the way to the verdict
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = synthesize(ex1_open_model, ModeWeights(EX1_PI),
                            DwellRange(1e-300, 1e-300))
    assert result.status == "infeasible"


def test_scan_weights_prefers_wider_margin(ex1_open_model, ex1_dwell):
    candidates = [
        ModeWeights([[0.5, 0.5], [0.5, 0.5]]),
        ModeWeights(EX1_PI),
    ]
    best, best_pi, summary = scan_weights(
        ex1_open_model, candidates, ex1_dwell, SynthesisOptions(clock_nodes=4))
    assert len(summary) == 2
    assert best is not None
    statuses = {status for _, status, _ in summary}
    if best.success:
        top = max((eps for _, status, eps in summary if status == "success"),
                  default=None)
        assert best.eps == top
    else:
        assert "success" not in statuses
