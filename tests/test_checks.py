"""Dwell-grid and clock-function certificate checks.

The single-mode scalar loop has closed-form margins (e^{2a theta} - 1 for
unit jump and rule matrix), which pins the grid check to machine precision.
The frozen worst margins of the reference designs guard against silent
numeric drift anywhere in the expm / eigenvalue chain.
"""

import numpy as np
import pytest

from minjump import (
    ConfigError,
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    augment_impulsive,
    check,
    check_clock,
    check_impulsive,
    check_switched,
    exact_clock_family,
)
from minjump import checks
from minjump.checks import DwellGrid
from minjump.synth import clock_node_grid

import oracles
from conftest import EX2_WORST_MARGIN, random_contractive_impulsive


def _scalar_model(a, j=1.0):
    return augment_impulsive(ImpulsiveSpec([[a]], J=[[[j]]]))


def _scalar_cert():
    return MinJumpCertificate([np.eye(1)], ModeWeights([[1.0]]))


def test_scalar_margin_closed_form():
    # margin(theta) = e^{2 a theta} - 1 for J = P = 1
    for a in (-2.0, 0.5):
        model = _scalar_model(a)
        dwell = DwellRange(0.1, 0.4)
        grid = DwellGrid.uniform(dwell, 7)
        report = (check_impulsive(model, _scalar_cert(), dwell, grid=grid))
        want = np.exp(2.0 * a * 0.4) - 1.0 if a > 0 else np.exp(2.0 * a * 0.1) - 1.0
        assert report.worst_margin == pytest.approx(want, abs=1e-12)
        assert report.passed == (a < 0)


def test_zero_drift_boundary():
    # A = 0, J = I leaves the state exactly in place: margin 0, not a pass
    model = _scalar_model(0.0)
    report = check_impulsive(model, _scalar_cert(), DwellRange(0.1, 0.2))
    assert report.worst_margin == pytest.approx(0.0, abs=1e-14)
    assert not report.passed
    # a contractive jump restores strict decrease
    shrunk = _scalar_model(0.0, j=0.9)
    report = check_impulsive(shrunk, _scalar_cert(), DwellRange(0.1, 0.2))
    assert report.worst_margin == pytest.approx(0.81 - 1.0, abs=1e-12)
    assert report.passed


def test_reference_design_two_is_reproducible(ex2_model, ex2_cert, ex2_dwell):
    report = check_impulsive(ex2_model, ex2_cert, ex2_dwell)
    assert report.passed
    assert report.worst_margin == pytest.approx(EX2_WORST_MARGIN, abs=1e-12)
    assert len(report.grid) == 1  # degenerate dwell range collapses the grid


def test_reference_design_one_passes(ex1_reference_model, ex1_reference_cert, ex1_dwell):
    report = check_impulsive(ex1_reference_model, ex1_reference_cert, ex1_dwell)
    assert report.passed
    assert -1e-3 < report.worst_margin < -1e-7


def test_reference_design_three_passes(ex3_reference_model, ex3_reference_cert, ex3_dwell):
    report = check_switched(ex3_reference_model, ex3_reference_cert, ex3_dwell)
    assert report.passed
    assert -1e-3 < report.worst_margin < -1e-7


def _assert_grid_check_matches_oracle(model, cert, dwell, monkeypatch):
    """Every margin of the batched check equals the per-theta oracle to 1e-12.

    Single-point grids expose each (mode, theta) margin through the public
    report; the full grid is also re-run in slices of 7 points, which must
    not change the report.  check(model, ...) gives the kind's own report.
    """
    kind_check = check_impulsive if model.kind == "impulsive" else check_switched
    grid = DwellGrid.uniform(dwell, 41)
    ref = oracles.grid_margins(model, cert, grid.points)
    for k, theta in enumerate(grid.points):
        point = kind_check(model, cert, dwell, grid=DwellGrid((theta,)))
        np.testing.assert_allclose(point.mode_margins, ref[:, k], rtol=0, atol=1e-12)
    report = kind_check(model, cert, dwell, grid=grid)
    np.testing.assert_allclose(report.mode_margins, ref.max(axis=1), rtol=0, atol=1e-12)
    assert check(model, cert, dwell, grid=grid).to_dict() == report.to_dict()
    monkeypatch.setattr(checks, "_THETA_SLICE", 7)
    sliced = kind_check(model, cert, dwell, grid=grid)
    assert sliced.to_dict() == report.to_dict()


@pytest.mark.parametrize("case", ["ex1", "ex3"])
def test_grid_check_matches_oracle_on_reference_designs(case, request, monkeypatch):
    model = request.getfixturevalue(f"{case}_reference_model")
    cert = request.getfixturevalue(f"{case}_reference_cert")
    dwell = request.getfixturevalue(f"{case}_dwell")
    _assert_grid_check_matches_oracle(model, cert, dwell, monkeypatch)


def test_grid_check_matches_oracle_on_random_systems(monkeypatch):
    rng = np.random.default_rng(2017)
    for _ in range(6):
        model, cert = random_contractive_impulsive(rng)
        _assert_grid_check_matches_oracle(model, cert, DwellRange(0.01, 0.05),
                                          monkeypatch)


def test_broken_certificate_fails(ex2_model, ex2_cert, ex2_dwell):
    broken = MinJumpCertificate(
        [ex2_cert.P[0], 100.0 * np.eye(2)], ex2_cert.weights)
    report = check_impulsive(ex2_model, broken, ex2_dwell)
    assert not report.passed
    assert report.worst_margin > 0.0


def test_worst_margin_monotone_under_grid_refinement(
        ex1_reference_model, ex1_reference_cert, ex1_dwell):
    # a uniform grid with 2k-1 points contains the k-point grid, so the
    # maximum over it can only grow
    worst = []
    for points in (5, 9, 17, 33):
        grid = DwellGrid.uniform(ex1_dwell, points)
        report = check_impulsive(ex1_reference_model, ex1_reference_cert,
                                 ex1_dwell, grid=grid)
        worst.append(report.worst_margin)
    for coarse, fine in zip(worst, worst[1:]):
        assert fine >= coarse - 1e-15


def test_grid_requires_coverage():
    # a = 0.5, J = 0.9 fails on [0.3, 0.4] (margin 0.81 e^{0.4} - 1 = +0.208)
    # but contracts at theta = 0.1: a grid outside the range must not pass it
    model, dwell = _scalar_model(0.5, j=0.9), DwellRange(0.3, 0.4)
    assert check_impulsive(model, _scalar_cert(), dwell).worst_margin == pytest.approx(
        0.81 * np.exp(0.4) - 1.0, abs=1e-12)
    for points in ((0.1,), (0.35, 0.5), (0.1, 0.35)):
        with pytest.raises(ConfigError, match="leaves the dwell range"):
            check(model, _scalar_cert(), dwell, grid=DwellGrid(points))
    # a partial grid inside the range stays allowed
    inside = check(model, _scalar_cert(), dwell, grid=DwellGrid((0.32, 0.33)))
    assert inside.worst_margin == pytest.approx(0.81 * np.exp(0.33) - 1.0, abs=1e-12)


def test_report_dict_shape(ex2_model, ex2_cert, ex2_dwell):
    d = check_impulsive(ex2_model, ex2_cert, ex2_dwell).to_dict()
    assert d["pass"] is True
    assert d["worst_point"]["mode"] == 1  # reported 1-based
    assert set(d) >= {"worst_margin", "per_condition", "per_mode", "grid"}


def test_exact_clock_family_matches_grid_margins(contractive_factory):
    """The exact clock functions replay the grid check inside tolerance.

    With eps set to half the grid margin the clock-form conditions must pass:
    the jump condition equals the grid condition plus eps, the coupling
    condition is tight at zero, and the flow condition holds up to the secant
    interpolation error, which the slow drift keeps far below the tolerance.
    """
    rng = np.random.default_rng(99)
    model, cert = contractive_factory(rng)
    dwell = DwellRange(0.01, 0.05)
    report = check_impulsive(model, cert, dwell)
    assert report.passed
    nodes = tuple(np.linspace(0.0, dwell.t_max, 64))
    clock = exact_clock_family(cert, model, nodes)
    eps = 0.5 * abs(report.worst_margin)
    clock_report = check_clock(model, clock, cert, eps, dwell, tol=1e-6)
    assert clock_report.passed


def test_exact_clock_family_replays_the_switched_grid(
        ex3_reference_model, ex3_reference_cert, ex3_dwell):
    """On the switched loop S_i(theta) = e^{Abar_i' theta} W_i e^{Abar_i theta}:
    the jump condition is the grid margin plus eps and coupling is zero.

    The flow condition is left unasserted: ex3's fast drift makes the secant
    error of 1024 nodes exceed the slack tolerance.
    """
    model, cert, eps = ex3_reference_model, ex3_reference_cert, 1e-3
    clock = exact_clock_family(cert, model, clock_node_grid(ex3_dwell, 1024))
    report = check_clock(model, clock, cert, eps, ex3_dwell)
    grid = check_switched(model, cert, ex3_dwell, grid=DwellGrid(report.grid))
    assert len(report.grid) > 200
    assert report.per_condition["jump"] == pytest.approx(grid.worst_margin + eps, abs=1e-9)
    assert abs(report.per_condition["coupling"]) < 1e-12


def test_exact_clock_family_integrates_the_flow(
        ex1_reference_model, ex1_reference_cert, ex1_dwell):
    # e^{A' theta} S(0) e^{A theta} <= S(theta) + tol I along the family
    from minjump import linalg
    nodes = tuple(np.linspace(0.0, ex1_dwell.t_max, 64))
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model, nodes)
    A = ex1_reference_model.drift()
    for i in range(ex1_reference_model.modes):
        S0 = clock.value(i, 0.0)
        for theta in np.linspace(0.0, ex1_dwell.t_max, 20):
            E = linalg.expm(A, float(theta))
            lhs = E.T @ S0 @ E
            gap = linalg.sym_eig_max(linalg.sym(lhs - clock.value(i, theta)))
            assert gap <= 1e-6


def test_clock_check_flags_nonpositive_eps(
        ex1_reference_model, ex1_reference_cert, ex1_dwell):
    nodes = tuple(np.linspace(0.0, ex1_dwell.t_max, 16))
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model, nodes)
    report = check_clock(
        ex1_reference_model, clock, ex1_reference_cert, 0.0, ex1_dwell)
    assert not report.passed
    assert not report.flags["eps_positive"]["ok"]


def test_clock_check_switched_identity_case(ex3_reference_model):
    """Degenerate data where every block is exactly -I or -eps-shifted."""
    from minjump.checks import ClockFamily
    model = ex3_reference_model
    d = model.dim
    # P_i = 2I, S_i == I: jump block is I - 2I + eps I < 0 for small eps;
    # flow slope is zero and A'S + SA must stay below tol, so shrink A
    nodes = (0.0, 1.0)
    clock = ClockFamily(nodes, [[np.eye(d)] * 2 for _ in range(model.modes)])
    cert = MinJumpCertificate(
        [2.0 * np.eye(d)] * model.modes,
        ModeWeights([[0.5, 0.5], [0.5, 0.5]]))
    # coupling: sum_j pi_ji J'(2I)J - I <= 0 requires small jump maps; the
    # reference gains are not small, so this one must fail at coupling
    report = check_clock(model, clock, cert, 0.5, DwellRange(0.5, 1.0))
    assert "coupling" in report.per_condition
    assert not report.passed
