"""Dwell-grid and clock-function certificate checks.

The single-mode scalar loop has closed-form margins (e^{2a theta} - 1 for
unit jump and rule matrix), which pins the grid check to machine precision.
The frozen worst margins of the reference designs guard against silent
numeric drift anywhere in the expm / eigenvalue chain.
"""

import json

import numpy as np
import pytest

from minjump import (
    ConfigError,
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
    check,
    check_clock,
    check_impulsive,
    check_switched,
    exact_clock_family,
)
from minjump import NumericError, checks, linalg
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


def _dense_report(model, cert, grid):
    """The record-by-record verdict over margins eigensolved at every point."""
    F0, W = checks._loop_data(model, cert)
    margins = oracles.dense_contraction_margins(model, cert, F0, W, np.asarray(grid.points))
    records = oracles.grid_records(margins, grid.points)
    return oracles.record_report(records, model.modes, checks.STRICT_TOL, checks.SLACK_TOL,
                                 grid.points)


def _assert_grid_check_matches_oracle(model, cert, dwell, monkeypatch):
    """Every margin of the batched check equals the per-theta oracle to 1e-12.

    Single-point grids expose each (mode, theta) margin through the public
    report.  The 41-point grid and a 1000-point grid, on which a stack of
    d >= 2 is searched for its maximum, must give the dense oracle's report
    bit for bit, also re-run in slices of 7 points (every slice dense).
    check(model, ...) gives the kind's own report.
    """
    kind_check = check_impulsive if model.kind == "impulsive" else check_switched
    grid = DwellGrid.uniform(dwell, 41)
    ref = oracles.grid_margins(model, cert, grid.points)
    for k, theta in enumerate(grid.points):
        point = kind_check(model, cert, dwell, grid=DwellGrid((theta,)))
        np.testing.assert_allclose(point.mode_margins, ref[:, k], rtol=0, atol=1e-12)
    report = kind_check(model, cert, dwell, grid=grid)
    np.testing.assert_allclose(report.mode_margins, ref.max(axis=1), rtol=0, atol=1e-12)
    fine = DwellGrid.uniform(dwell, 1000)
    reports = [report, kind_check(model, cert, dwell, grid=fine)]
    for got, g in zip(reports, (grid, fine)):
        _assert_same_report(got, _dense_report(model, cert, g))
        assert check(model, cert, dwell, grid=g).to_dict() == got.to_dict()
    monkeypatch.setattr(checks, "_THETA_SLICE", 7)
    for got, g in zip(reports, (grid, fine)):
        _assert_same_report(kind_check(model, cert, dwell, grid=g), got)


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


def _assert_same_report(got, want):
    """Bitwise: json.dumps spells every float exactly, -0.0 included."""
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.worst_condition == want.worst_condition


def test_array_reducer_matches_record_oracle(request):
    """The grid check's verdict equals the record-by-record reduction of
    the dense margins: ex1, ex3 and 6 random systems, at 200 points and at
    1000, where stacks of d >= 2 are searched for their maximum."""
    cases = [tuple(request.getfixturevalue(f"{case}_{part}")
                   for part in ("reference_model", "reference_cert", "dwell"))
             for case in ("ex1", "ex3")]
    rng = np.random.default_rng(6)
    cases += [(*random_contractive_impulsive(rng), DwellRange(0.01, 0.05)) for _ in range(6)]
    for model, cert, dwell in cases:
        for grid in (DwellGrid.uniform(dwell), DwellGrid.uniform(dwell, 1000)):
            _assert_same_report(check(model, cert, dwell, grid=grid),
                                _dense_report(model, cert, grid))


def _random_system(kind, d, modes, seed=0):
    """A random loop of dimension d = n + m, with m = d // 3 inputs under
    random gains, and a random certificate: the verdict may go either way."""
    rng = np.random.default_rng([seed, d, modes, kind == "switched"])
    m = d // 3
    n = d - m

    def mat(rows, cols, scale=1.0):
        return (scale * rng.standard_normal((rows, cols))).tolist()

    def gain():
        return mat(m, d, 0.3) if m else None

    N = range(modes)
    if kind == "impulsive":
        spec = ImpulsiveSpec(mat(n, n), mat(n, m), [mat(n, n, 0.5) for _ in N])
        model = augment_impulsive(spec, gains=[gain() for _ in N])
    else:
        spec = SwitchedSpec([mat(n, n) for _ in N], [mat(n, m) for _ in N],
                            [[mat(n, n, 0.5) for _ in N] for _ in N])
        model = augment_switched(spec, gains=[[gain() for _ in N] for _ in N])
    P = [W @ W.T + 0.1 * np.eye(d) for W in rng.standard_normal((modes, d, d))]
    pi = rng.uniform(0.1, 1.0, (modes, modes))
    return model, MinJumpCertificate(P, ModeWeights(pi / pi.sum(axis=0)))


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("kind", ["impulsive", "switched"])
def test_grid_check_matches_dense_oracle_across_dimensions(kind, d):
    """Reports equal the record-by-record verdict over the dense oracle's
    stacked products bit for bit, on grids just below the search's size
    rule (one eigensolve over every mode) and at and above it (the search
    per mode; never at d = 1).  This is what holds the 2-D GEMMs of the
    check to the stacked per-member products on the BLAS in use."""
    model, cert = _random_system(kind, d, modes=2 + d % 2)
    dwell = DwellRange(0.01, 0.3)
    edge = next((G for G in range(2, 300) if checks._searched(G, d)), 300)  # least G searched
    for points in (max(edge - 1, 2), edge, 300):
        grid = DwellGrid.uniform(dwell, points)
        _assert_same_report(check(model, cert, dwell, grid=grid), _dense_report(model, cert, grid))


def test_small_check_makes_one_eigensolve_over_every_mode(monkeypatch):
    model, cert = _random_system("impulsive", 2, modes=3)
    shapes = []
    dense = linalg.sym_eig_max

    def spy(S):
        shapes.append(np.shape(S))
        return dense(S)

    monkeypatch.setattr(linalg, "sym_eig_max", spy)
    dwell = DwellRange(0.01, 0.05)
    report = check(model, cert, dwell, grid=DwellGrid.uniform(dwell, 40))
    assert shapes == [(3, 40, 2, 2)]
    monkeypatch.undo()
    _assert_same_report(report, _dense_report(model, cert, DwellGrid.uniform(dwell, 40)))


def _fabricated_verdicts(margins, points, strict_tol=checks.STRICT_TOL):
    """Array reducer and record oracle on one fabricated margin array, in
    the one record order (mode-major)."""
    got = checks._grid_verdict(margins, points, strict_tol)
    want = oracles.record_report(oracles.grid_records(margins, points),
                                 len(margins), strict_tol, checks.SLACK_TOL, points)
    _assert_same_report(got, want)
    return [got]


def test_array_reducer_ties_follow_record_order():
    # the largest margin 0.5 sits at (mode 1, theta 0.1) and (mode 0, theta 0.2)
    # first: mode-major order meets the latter first
    margins = np.array([[0.1, 0.5, 0.5], [0.5, 0.2, 0.5]])
    (by_mode,) = _fabricated_verdicts(margins, (0.1, 0.2, 0.3))
    assert (by_mode.worst_mode, by_mode.worst_theta) == (0, 0.2)
    # signed zeros tie: the first one in record order is kept everywhere
    # (np.maximum would return the later one)
    (by_mode,) = _fabricated_verdicts(np.array([[-0.0, 0.0], [0.0, -0.0]]), (0.1, 0.2))
    assert json.dumps(by_mode.mode_margins) == "[-0.0, 0.0]"
    assert json.dumps(by_mode.worst_margin) == "-0.0"
    for report in _fabricated_verdicts(np.array([[0.0, -0.0]]), (0.1, 0.2)):
        assert json.dumps(report.per_condition) == '{"contraction": 0.0}'
    # many exact ties on random shapes
    rng = np.random.default_rng(8)
    for modes, points in ((1, 1), (1, 5), (3, 1), (3, 7), (4, 40)):
        margins = rng.integers(-4, 1, (modes, points)) / 8.0
        _fabricated_verdicts(margins, tuple(np.linspace(0.1, 0.2, points)), strict_tol=0.25)


def test_array_reducer_margin_at_strict_tol_fails():
    tol = checks.STRICT_TOL
    margins = np.full((2, 3), -1.0)
    margins[1, 2] = -tol
    assert not any(r.passed for r in _fabricated_verdicts(margins, (0.1, 0.2, 0.3)))
    margins[1, 2] = np.nextafter(-tol, -np.inf)
    assert all(r.passed for r in _fabricated_verdicts(margins, (0.1, 0.2, 0.3)))


def _planted_stack(top, d=3, seed=4):
    """A (len(top), d, d) stack whose top eigenvalue is top, member by
    member, rotated by one random orthogonal Q."""
    Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    lam = np.asarray(top, dtype=float)[:, None] - np.arange(d)  # well separated
    return linalg.sym(Q @ (lam[:, :, None] * Q.T))


def _hump_stack(peaks, G=1000, d=3, seed=4):
    """A (G, d, d) stack whose top eigenvalue is the max over peaks (k0, w)
    of -((k - k0) / w)^2."""
    k = np.arange(G)[:, None]
    return _planted_stack(np.max([-((k - k0) / w) ** 2 for k0, w in peaks], axis=0)[:, 0],
                          d, seed)


def _assert_search_matches_dense(M):
    """The search's first largest value and index are the dense ones bit for
    bit, every computed member equals its dense value and every -inf member
    is densely below the maximum.  Returns whether members were pruned."""
    want, got = linalg.sym_eig_max(M), checks._max_search(M)
    k = int(want.argmax())
    assert int(got.argmax()) == k
    assert got[k:k + 1].tobytes() == want[k:k + 1].tobytes()  # -0.0 is not 0.0
    kept = got > -np.inf
    assert got[kept].tobytes() == want[kept].tobytes()
    assert (want[~kept] < want[k]).all()
    return not kept.all()


# A 1000-member hump stack: round 1 clears 1..20, below end 999 (member 21
# ties it), so round 2 samples every s-th of the 978 left, s = 22
_SAMPLES = set(range(21, 999, 22))


def _crest(M):
    """The members the search eigensolves besides the ends and _SAMPLES."""
    solved = checks._max_search(M) > -np.inf
    return set(np.flatnonzero(solved).tolist()) - _SAMPLES - {0, 999}


def test_max_search_matches_dense_on_planted_stacks():
    between = _hump_stack([(510, 100.0)])  # 505 and 527 are the nearest samples
    assert _assert_search_matches_dense(between)
    # round 2 eigensolves _SAMPLES; then the crest above sample 505, up to
    # 515 where the hump is back at its value
    assert set(np.flatnonzero(checks._max_search(between) > -np.inf)) >= _SAMPLES
    crest = set(range(506, 516))
    assert _crest(between) == crest
    # one ulp above the stack's maximum: only that member joins the crest
    above = between.copy()
    above[900] = np.diag([np.nextafter(linalg.sym_eig_max(between).max(), np.inf), -1.0, -2.0])
    assert _assert_search_matches_dense(above)
    assert _crest(above) == crest | {900}
    assert int(linalg.sym_eig_max(above).argmax()) == 900
    # equal humps: the samples see only the wide one, the narrow one comes first
    humps = _hump_stack([(115, 2.0), (510, 100.0)])
    humps[115] = humps[510]
    assert _assert_search_matches_dense(humps)
    assert _crest(humps) == crest | {115}
    assert int(checks._max_search(humps).argmax()) == 115
    # every member ties: the first one wins
    assert not _assert_search_matches_dense(np.broadcast_to(between[3], between.shape).copy())
    # M = 0, where the certificate has nothing to spare
    assert not _assert_search_matches_dense(np.zeros((1000, 3, 3)))
    # signed zeros on a flat -1: round 1 clears nothing, round 2 samples
    # 1, 23, 45, ...  -0.0 at 7 (a neighbour) ties 0.0 at 23 (a sample) and
    # is kept; then at 100 and 500, off the samples
    for first, second in ((7, 23), (100, 500)):
        zeros = np.broadcast_to(np.diag([-1.0, -2.0, -3.0]), (1000, 3, 3)).copy()
        zeros[first], zeros[second] = np.diag([-1.0, -0.0, -2.0]), np.diag([0.0, -1.0, -2.0])
        assert json.dumps(linalg.sym_eig_max(zeros[first])) == "-0.0"
        _assert_search_matches_dense(zeros)
        got = checks._max_search(zeros)
        assert json.dumps(float(got[got.argmax()])) == "-0.0"
    # a small stack takes one dense call: 56 * 3^2 < 512 <= 57 * 3^2, and
    # 1 x 1 members never pay a search
    assert not _assert_search_matches_dense(between[:56])
    assert _assert_search_matches_dense(between[:57])
    assert not _assert_search_matches_dense(between[:1000, :1, :1])


_K = np.arange(1000.0)


@pytest.mark.parametrize("top", [
    _K / 1000.0 - 1.0,  # monotone rising: the last point
    -_K / 1000.0,  # monotone falling: the first point
    -((_K - 600.0) / 700.0) ** 2,  # concave, its maximum inside
    np.maximum(-((_K - 300.0) / 2.0) ** 2, -1.0 - _K / 1000.0),  # a sharp hump inside
    np.full(1000, -0.5),  # flat: M constant, as at zero drift
    np.where(_K % 97 == 5, 0.0, -1.0),  # zeros among -1, signed below
], ids=["rising", "falling", "concave", "sharp", "flat", "signed_zeros"])
@pytest.mark.parametrize("d", [3, 4, 12])
def test_planted_search_report_matches_dense_oracle(top, d):
    """Two modes, the second 1/4 below the first, at G = 1000: the report
    over the search's margins is the record oracle's over dense margins."""
    M = np.stack([_planted_stack(top, d), _planted_stack(top - 0.25, d, seed=5)])
    if not np.ptp(top):  # flat: every member one matrix, bit for bit
        M = np.ascontiguousarray(np.broadcast_to(M[:, :1], M.shape))
    signed = (top == 0.0).any()
    if signed:  # exact zeros, the first of mode 0 a -0.0 that the 0.0s after it tie
        zeros, rest = np.flatnonzero(top == 0.0), -1.0 - np.arange(d - 1)
        M[:, zeros] = np.diag(np.r_[0.0, rest])
        M[0, zeros[0]] = np.diag(np.r_[-0.0, rest])
    points = tuple(np.linspace(0.01, 0.3, 1000))
    got = checks._grid_verdict(checks._max_search(M), points, checks.STRICT_TOL)
    want = oracles.record_report(oracles.grid_records(linalg.sym_eig_max(M), points),
                                 2, checks.STRICT_TOL, checks.SLACK_TOL, points)
    _assert_same_report(got, want)
    if signed:
        assert json.dumps([got.worst_margin, *got.mode_margins]) == "[-0.0, -0.0, 0.0]"


def test_max_search_proves_each_mode_below_its_own_top():
    # mode 0 tops out near 0, mode 1 near -10; member 300 of mode 1 sits at
    # -5: below mode 0's top, above its own mode's, so it is eigensolved
    low = _hump_stack([(510, 100.0)])
    M = np.stack([low, low - 10.0 * np.eye(3)])
    M[1, 300] = np.diag([-5.0, -11.0, -12.0])
    want, got = linalg.sym_eig_max(M), checks._max_search(M)
    kept = got > -np.inf
    assert got[kept].tobytes() == want[kept].tobytes()
    for w, g in zip(want, got):
        k = int(w.argmax())
        assert int(g.argmax()) == k and (w[g == -np.inf] < w[k]).all()
    assert got[1, 300] == -5.0 and int(got[1].argmax()) == 300
    assert not kept.all()


def _spied_calls(monkeypatch, run):
    """run() with every eigensolve and proof recorded as (kind, shape)."""
    calls = []
    dense, proven = linalg.sym_eig_max, linalg.proven_below

    def eig_spy(S):
        calls.append(("eig", np.shape(S)))
        return dense(S)

    def proof_spy(M, t):
        calls.append(("proof", np.shape(M)))
        return proven(M, t)

    monkeypatch.setattr(linalg, "sym_eig_max", eig_spy)
    monkeypatch.setattr(linalg, "proven_below", proof_spy)
    result = run()
    monkeypatch.undo()
    return calls, result


def test_search_rounds_take_every_mode_in_one_call(monkeypatch):
    """Each round takes every mode in one call.  On a random system's
    1500-point grid, two slices of 1024 and 476 points, round 1 settles
    every slice: one eigensolve of each mode's two ends, one proof over
    the slice.  A planted two-mode hump stack runs every round."""
    model, cert = _random_system("switched", 4, modes=3)
    dwell = DwellRange(0.01, 0.3)
    grid = DwellGrid.uniform(dwell, 1500)
    calls, report = _spied_calls(monkeypatch, lambda: check(model, cert, dwell, grid=grid))
    assert calls == [("eig", (3, 2, 4, 4)), ("proof", (3 * 1024, 4, 4)),
                     ("eig", (3, 2, 4, 4)), ("proof", (3 * 476, 4, 4))]
    _assert_same_report(report, _dense_report(model, cert, grid))
    # mode 1 is mode 0 less 10 I: each leaves 21..998 after round 1; round 2
    # takes every 22nd of the 1956 left in mode-major order, 45 in mode 0
    # (21, 43, ..., 989) and 44 in mode 1 (33, 55, ..., 979); each mode's
    # crest lies between its best sample (505, 517) and the hump's mirror
    hump = _hump_stack([(510, 100.0)])
    M = np.stack([hump, hump - 10.0 * np.eye(3)])
    calls, got = _spied_calls(monkeypatch, lambda: checks._max_search(M))
    assert calls == [("eig", (2, 2, 3, 3)), ("proof", (2000, 3, 3)), ("eig", (89, 3, 3)),
                     ("proof", (1956 - 89, 3, 3)), ("eig", (10 + 14, 3, 3))]
    solved = [set(np.flatnonzero(row > -np.inf).tolist()) for row in got]
    assert solved[0] == {0, 999} | _SAMPLES | set(range(506, 516))
    assert solved[1] == {0, 999} | set(range(33, 999, 22)) | set(range(503, 517))
    want, kept = linalg.sym_eig_max(M), got > -np.inf
    assert got[kept].tobytes() == want[kept].tobytes()
    assert got.argmax(axis=1).tolist() == want.argmax(axis=1).tolist() == [510, 510]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_max_search_raises_on_a_non_finite_member(bad):
    M = _hump_stack([(510, 100.0)])
    M[777, 1, 1] = bad  # neither a sample nor near the best one
    with pytest.raises(NumericError):
        checks._max_search(M)


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


def test_clock_check_matches_record_oracle(
        ex1_reference_model, ex1_reference_cert, ex1_dwell,
        ex3_reference_model, ex3_reference_cert, ex3_dwell):
    """The stacked clock check equals the one-matrix-at-a-time oracle bit
    for bit: the acceptance-4 systems, ex3's 1024-node exact family, ex1
    with eps = 0 and the switched identity family."""
    rng = np.random.default_rng(1234)
    dwell = DwellRange(0.01, 0.05)
    cases = []
    for _ in range(20):
        model, cert = random_contractive_impulsive(rng)
        eps = 0.5 * abs(check_impulsive(model, cert, dwell).worst_margin)
        clock = exact_clock_family(cert, model, tuple(np.linspace(0.0, dwell.t_max, 64)))
        cases.append((model, clock, cert, eps, dwell, 1e-6))
    clock = exact_clock_family(ex3_reference_cert, ex3_reference_model,
                               clock_node_grid(ex3_dwell, 1024))
    cases.append((ex3_reference_model, clock, ex3_reference_cert, 1e-3, ex3_dwell,
                  checks.SLACK_TOL))
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model,
                               tuple(np.linspace(0.0, ex1_dwell.t_max, 16)))
    cases.append((ex1_reference_model, clock, ex1_reference_cert, 0.0, ex1_dwell,
                  checks.SLACK_TOL))
    d, modes = ex3_reference_model.dim, ex3_reference_model.modes
    cases.append((ex3_reference_model, checks.ClockFamily((0.0, 1.0), [[np.eye(d)] * 2] * modes),
                  MinJumpCertificate([2.0 * np.eye(d)] * modes, ModeWeights([[0.5, 0.5]] * 2)),
                  0.5, DwellRange(0.5, 1.0), checks.SLACK_TOL))
    for case in cases:
        _assert_same_report(check_clock(*case), oracles.loop_check_clock(*case))


def test_exact_clock_family_integrates_the_flow(
        ex1_reference_model, ex1_reference_cert, ex1_dwell):
    # e^{A' theta} S(0) e^{A theta} <= S(theta) + tol I along the family
    from minjump import linalg
    nodes = tuple(np.linspace(0.0, ex1_dwell.t_max, 64))
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model, nodes)
    A = ex1_reference_model.drift()
    for i in range(ex1_reference_model.modes):
        S0 = clock.at([0.0])[i, 0]
        for theta in np.linspace(0.0, ex1_dwell.t_max, 20):
            E = linalg.expm(A, float(theta))
            lhs = E.T @ S0 @ E
            gap = linalg.sym_eig_max(linalg.sym(lhs - clock.at([theta])[i, 0]))
            assert gap <= 1e-6


def test_clock_check_flags_nonpositive_eps(
        ex1_reference_model, ex1_reference_cert, ex1_dwell):
    nodes = tuple(np.linspace(0.0, ex1_dwell.t_max, 16))
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model, nodes)
    report = check_clock(
        ex1_reference_model, clock, ex1_reference_cert, 0.0, ex1_dwell)
    assert not report.passed
    assert not report.flags["eps_positive"]["ok"]


def test_clock_check_needs_positive_eps_where_every_margin_clears():
    # xdot = 0, J = 0.5, P = W = S = 1: flow 0, jump -0.75 + eps, coupling 0
    model, cert, dwell = _scalar_model(0.0, j=0.5), _scalar_cert(), DwellRange(0.5, 1.0)
    clock = checks.ClockFamily((0.0, 1.0), [[np.eye(1)] * 2])
    assert check_clock(model, clock, cert, 0.1, dwell).passed
    report = check_clock(model, clock, cert, 0.0, dwell)
    assert report.worst_margin <= checks.SLACK_TOL
    assert not report.passed


def test_clock_short_of_t_max_is_named_by_one_rule(ex1_reference_model, ex1_reference_cert):
    """A clock whose last node falls 5e-12 short of t_max = 10 is short by
    the clock's own node-span slack (1e-12), though within the dwell range's
    tol (1e-11): the check names the shortfall, not an evaluation outside
    the node span."""
    nodes = np.linspace(0.0, 10.0, 5)
    nodes[-1] = 10.0 - 5e-12
    clock = exact_clock_family(ex1_reference_cert, ex1_reference_model, nodes)
    short = r"^clock nodes end at 9\.999999999995, short of t_max = 10\.0$"
    with pytest.raises(ConfigError, match=short):
        check_clock(ex1_reference_model, clock, ex1_reference_cert, 0.01, DwellRange(5.0, 10.0))


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


@pytest.mark.parametrize("tol", [np.nan, -5.0, np.inf])
def test_bad_tolerance_is_rejected(tol, monkeypatch):
    # m >= -tol is False for NaN and a negative tol loosens the test, so
    # either would let a failing margin pass; it is refused before any
    # exponential of the grid is formed
    model, cert, dwell = _scalar_model(0.5), _scalar_cert(), DwellRange(0.1, 0.2)
    calls = []
    monkeypatch.setattr(linalg, "expm", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="tolerance"):
        check(model, cert, dwell, strict_tol=tol)
    assert calls == []
    monkeypatch.undo()
    clock = exact_clock_family(cert, model, clock_node_grid(dwell, 4))
    with pytest.raises(ConfigError, match="tolerance"):
        check_clock(model, clock, cert, 0.1, dwell, tol=tol)


def test_clock_check_rejects_bad_tolerance_before_eigenvalues(monkeypatch):
    model, cert, dwell = _scalar_model(0.5), _scalar_cert(), DwellRange(0.1, 0.2)
    clock = exact_clock_family(cert, model, clock_node_grid(dwell, 4))
    calls = []
    monkeypatch.setattr(linalg, "sym_eig_max", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="tolerance"):
        check_clock(model, clock, cert, 0.1, dwell, tol=np.nan)
    assert calls == []


def test_clock_check_rejects_non_finite_eps_before_eigenvalues(monkeypatch):
    model, cert, dwell = _scalar_model(0.5), _scalar_cert(), DwellRange(0.1, 0.2)
    clock = exact_clock_family(cert, model, clock_node_grid(dwell, 4))
    calls = []
    monkeypatch.setattr(linalg, "sym_eig_max", lambda *args: calls.append(args))
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="eps must be finite"):
            check_clock(model, clock, cert, eps, dwell)
    assert calls == []


def test_clock_values_must_form_one_stack():
    assert checks.ClockFamily((0.0, 1.0), [[np.eye(2)] * 2] * 3).values.shape == (3, 2, 2, 2)
    for values in ([[np.eye(2)] * 3], [[np.eye(2)] * 2, [np.eye(2)]], [[np.ones((2, 3))] * 2],
                   [[np.eye(2)] * 2, [np.eye(3)] * 2], [[["a"]] * 2], []):
        with pytest.raises(ConfigError, match="clock values"):
            checks.ClockFamily((0.0, 1.0), values)


def test_clock_nodes_must_be_finite_numbers():
    # a nan or inf node would reach the eigensolver; a string is not parsed
    for nodes in ((0.0, np.nan), (0.0, np.inf), (0.0, "x")):
        with pytest.raises(ConfigError, match="clock nodes"):
            checks.ClockFamily(nodes, [[np.eye(2)] * 2])
    # one node spans nothing, a family starts at tau = 0, and ends at its last node
    with pytest.raises(ConfigError, match="at least two nodes"):
        checks.ClockFamily((0.0,), [[np.eye(2)]])
    with pytest.raises(ConfigError, match="must start at 0"):
        checks.ClockFamily((0.5, 1.0), [[np.eye(2)] * 2])
    with pytest.raises(ConfigError, match="tau = 1.5 outside clock node span"):
        checks.ClockFamily((0.0, 1.0), [[np.eye(2)] * 2]).at(np.array([0.5, 1.5]))


def test_dwell_grid_validation():
    assert DwellGrid([0.1, 0.2]).points == (0.1, 0.2)
    # an array, list or tuple of numbers, read by model._increasing: a tuple of Python floats
    arr = np.linspace(0.01, 0.05, 7)
    for points in (arr, list(arr), tuple(arr.tolist())):
        grid = DwellGrid(points)
        assert type(grid.points) is tuple and all(type(p) is float for p in grid.points)
        assert grid.points == tuple(arr.tolist())
    assert DwellGrid(np.float32([0.1])).points == (float(np.float32(0.1)),)
    for points, message in (((), "at least one point"), ((0.1, np.nan), "non-finite"),
                            ((-np.inf, 0.1), "non-finite"), ((0.1, 0.1), "strictly increasing"),
                            ((0.2, 0.1), "strictly increasing")):
        with pytest.raises(ConfigError, match=message):
            DwellGrid(points)
    # strings are not parsed, and an iterator or a nested list is not a sequence of points
    for points in ((str(p) for p in arr.tolist()), iter(arr), [[0.1, 0.2]], ["0.1", "0.2"]):
        with pytest.raises(ConfigError, match="dwell grid"):
            DwellGrid(points)
    # a degenerate range (periodic sampling) keeps its one point for any count of
    # at least one; a count below one is refused on every range
    periodic, ranged = DwellRange(0.02, 0.02), DwellRange(0.01, 0.05)
    for count in (1, 2, 200):
        assert DwellGrid.uniform(periodic, count).points == (0.02,)
    for count in (0, -3):
        for dwell in (periodic, ranged):
            with pytest.raises(ConfigError, match="at least"):
                DwellGrid.uniform(dwell, count)
    with pytest.raises(ConfigError, match="at least two points"):
        DwellGrid.uniform(ranged, 1)


def test_check_takes_a_list_of_points():
    model, cert, dwell = _scalar_model(0.5), _scalar_cert(), DwellRange(0.01, 0.05)
    for points in ([0.02], (0.01, 0.03, 0.05), np.linspace(0.01, 0.05, 9)):
        assert (check(model, cert, dwell, grid=points).to_dict()
                == check(model, cert, dwell, grid=DwellGrid(points)).to_dict())
    with pytest.raises(ConfigError, match="leaves the dwell range"):
        check(model, cert, dwell, grid=[0.02, 0.06])
    with pytest.raises(ConfigError, match="dwell grid"):
        check(model, cert, dwell, grid=0.02)
