"""Co-design pipeline: assembly, solving, recovery, post-verification."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from minjump import (
    ConfigError,
    DwellRange,
    ModelError,
    ImpulsiveSpec,
    RecoveryError,
    ModeWeights,
    augment_impulsive,
    check_impulsive,
    check_switched,
    scan_weights,
    synthesize,
)
from minjump import sdp, synth
from minjump.checks import DwellGrid
from minjump.linalg import inv_spd
from minjump.synth import (
    FLOOR,
    SynthesisOptions,
    _covering,
    assemble_impulsive,
    assemble_switched,
    clock_node_grid,
    recover_design,
)

from conftest import EX1_PI, EX3_PI


def test_clock_node_grid_contains_dwell_floor():
    """Some node lies within dwell.tol of t_min, so the dwell blocks always
    have a covering node: off the grid, on it, a hair off a linspace node,
    and for a single-point range."""
    on_grid = float(np.linspace(0.0, 0.05, 6)[2])
    for t_min, t_max in ((0.013, 0.05), (on_grid, 0.05), (on_grid + 1e-13, 0.05),
                         (on_grid - 1e-13, 0.05), (0.05, 0.05), (0.02, 0.02),
                         (1e-9, 3.0), (5e-13, 0.05)):
        for count in (2, 3, 6, 17):
            dwell = DwellRange(t_min, t_max)
            nodes = clock_node_grid(dwell, count)
            assert nodes[0] == 0.0 and nodes[-1] == t_max
            assert all(b > a for a, b in zip(nodes, nodes[1:]))
            assert len(nodes) in (count, count + 1)
            assert any(abs(t - t_min) <= dwell.tol for t in nodes)
            assert _covering(nodes, dwell)


def test_options_hold_nodes_and_floor_only(ex1_open_model, ex1_dwell):
    """The node count is the one option; the floor on every Ptilde_i and
    S_i(tau_k) is the constant FLOOR."""
    assert [f.name for f in fields(SynthesisOptions)] == ["clock_nodes"]
    with pytest.raises(ConfigError):
        SynthesisOptions(clock_nodes=1)
    problem, nodes = assemble_impulsive(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell)
    floors = [b for b in problem.blocks if b.label.startswith("floor")]
    assert len(floors) == ex1_open_model.modes * (1 + len(nodes))
    assert all(np.array_equal(b.constant, FLOOR * np.eye(b.dim)) for b in floors)


def test_weights_given_as_a_nested_list_are_read_as_mode_weights(ex1_open_model, ex1_dwell):
    """A plain N x N list assembles the blocks that ModeWeights of it does, term for term."""
    def flat(problem):
        return [(b.label, b.strict, b.constant.tolist(),
                 [(t.var, t.left.tolist(), t.right.tolist(), t.sym_pair) for t in b.terms])
                for b in problem.blocks]

    want, _ = assemble_impulsive(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell)
    got, _ = assemble_impulsive(ex1_open_model, EX1_PI, ex1_dwell)
    assert flat(got) == flat(want)


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
    result = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                        SynthesisOptions(clock_nodes=6))
    assert result.success
    U0 = result.solution.values["U0"]
    K0 = U0 @ inv_spd(result.solution.values["Pt0"])
    assert np.allclose(K0, result.gains[0], atol=0.0, rtol=0.0)


def test_switched_gain_recovery_consistency(ex3_open_model, ex3_dwell):
    # the switched anchor is S_i(0): K_ji = U_ji S_i(0)^{-1} bit for bit
    result = synthesize(ex3_open_model, ModeWeights(EX3_PI), ex3_dwell,
                        SynthesisOptions(clock_nodes=8))
    assert result.success
    vals = result.solution.values
    for j in range(2):
        for i in range(2):
            K = vals[f"U{j}_{i}"] @ inv_spd(vals[f"S{i}n0"])
            assert np.array_equal(K, result.gains[j][i])


def _optimal(model, **values):
    """An optimal, eps > 0 solution whose Pt_i are I unless given."""
    vals = {f"Pt{i}": np.eye(model.dim) for i in range(model.modes)}
    return sdp.SdpSolution("optimal", {**vals, **values}, 0.1, 1, 0.0, 0.0, 0.0)


def test_recovery_from_a_singular_pt_raises_recovery_error(ex1_open_model, ex1_dwell):
    solution = _optimal(ex1_open_model, Pt0=np.zeros((ex1_open_model.dim,) * 2))
    with pytest.raises(RecoveryError, match="recovery inverse failed"):
        recover_design(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell, solution)


def test_recovery_lets_an_error_of_another_kind_through(ex1_open_model, ex1_dwell, monkeypatch):
    """Only inv_spd's own errors mean a lost definiteness floor; a bug is a bug."""
    def broken(S):
        raise TypeError("not a recovery failure")

    monkeypatch.setattr(synth, "inv_spd", broken)
    with pytest.raises(TypeError, match="not a recovery failure"):
        recover_design(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell, _optimal(ex1_open_model))


def test_assemblers_refuse_the_other_kind(ex1_open_model, ex1_dwell,
                                          ex3_open_model, ex3_dwell):
    with pytest.raises(ModelError):
        assemble_impulsive(ex3_open_model, ModeWeights(EX3_PI), ex3_dwell)
    with pytest.raises(ModelError):
        assemble_switched(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell)


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


def test_scan_weights_keeps_the_wider_of_two_successes(ex1_open_model, ex1_dwell):
    candidates = [ModeWeights([[0.2, 0.8], [0.8, 0.2]]), ModeWeights([[0.1, 0.9], [0.9, 0.1]]),
                  ModeWeights([[0.5, 0.5], [0.5, 0.5]])]
    best, best_pi, summary = scan_weights(ex1_open_model, candidates, ex1_dwell)
    assert [status for _, status, _ in summary] == ["success", "success", "infeasible"]
    assert summary[0][2] == pytest.approx(0.108164, abs=1e-6)
    assert summary[1][2] == pytest.approx(0.147118, abs=1e-6)
    assert best_pi is candidates[1] and best.eps == summary[1][2]


def test_iteration_cap_ends_the_solve_as_max_iterations(ex1_open_model, ex1_dwell, monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITER", 5)
    result = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell)
    assert result.status == "max_iterations" and result.cert is None
    assert result.solution.iterations == 5 and len(result.solution.history) == 5
