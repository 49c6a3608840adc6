"""Certificate container and mode-selection rules."""

import numpy as np
import pytest

from minjump import (
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    SwitchedSpec,
    augment_impulsive,
    augment_switched,
    select_impulsive,
    select_switched,
)
from minjump.errors import CertificateError, NumericError

import oracles
from conftest import EX3_A, EX3_B, EX3_J, EX3_K, EX3_UPDATES, EX3_PI


def _cert(P_list, N=None):
    N = N or len(P_list)
    pi = np.full((N, N), 1.0 / N)
    return MinJumpCertificate(P_list, ModeWeights(pi))


def test_certificate_validation():
    with pytest.raises(CertificateError):
        _cert([np.eye(2), np.diag([1.0, -1.0])])  # not positive definite
    with pytest.raises(CertificateError):
        MinJumpCertificate([np.eye(2)], ModeWeights(np.eye(2)))  # count mismatch
    with pytest.raises(CertificateError):
        _cert([np.eye(2), np.eye(3)])  # mixed dimensions
    for eps in (np.nan, np.inf, -1.0):
        with pytest.raises(CertificateError, match="eps"):
            MinJumpCertificate([np.eye(2)], ModeWeights([[1.0]]), eps=eps)


def test_certificate_scaling():
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    doubled = cert.scaled(2.0)
    assert np.allclose(doubled.P[1], 4.0 * np.eye(2))
    with pytest.raises(CertificateError):
        cert.scaled(-1.0)


def test_select_impulsive_matches_brute_force():
    rng = np.random.default_rng(17)
    P = []
    for _ in range(3):
        W = rng.standard_normal((3, 3))
        P.append(W @ W.T + np.eye(3))
    cert = _cert(P)
    for _ in range(200):
        chi = rng.standard_normal(3)
        want, _ = oracles.brute_min_mode(P, chi)
        assert select_impulsive(chi, cert) == want


def test_select_impulsive_tie_goes_low():
    cert = _cert([np.eye(2), np.eye(2)])
    assert select_impulsive(np.array([1.0, -2.0]), cert) == 0
    assert select_impulsive(np.zeros(2), cert) == 0


def test_select_invariant_under_positive_scaling():
    rng = np.random.default_rng(23)
    P = [np.eye(2) + 0.5 * np.outer(v, v) for v in rng.standard_normal((3, 2))]
    cert = _cert(P)
    for _ in range(100):
        chi = rng.standard_normal(2)
        alpha = float(rng.uniform(1e-6, 1e6))
        assert select_impulsive(chi, cert) == select_impulsive(chi, cert.scaled(alpha))


def test_select_switched_scores_post_jump_forms():
    model = augment_switched(
        SwitchedSpec(EX3_A, EX3_B, EX3_J, updates=EX3_UPDATES), gains=EX3_K)
    rng = np.random.default_rng(5)
    P = []
    for _ in range(2):
        W = rng.standard_normal((4, 4))
        P.append(W @ W.T + np.eye(4))
    cert = MinJumpCertificate(P, ModeWeights(EX3_PI))
    for _ in range(100):
        chi = rng.standard_normal(4)
        i = int(rng.integers(0, 2))
        scores = [oracles.quad_form(P[j], model.jump(j, i) @ chi) for j in range(2)]
        want = int(np.argmin(scores))
        # break ties the same way the rule does
        if scores[0] <= scores[1]:
            want = 0
        assert select_switched(chi, i, cert, model) == want


def test_select_switched_depends_on_current_mode():
    # jump maps differ per source mode, so the winner can too
    spec = SwitchedSpec(
        A=[[[0.0]], [[0.0]]],
        J=[[[[1.0]], [[0.1]]], [[[0.1]], [[1.0]]]],
    )
    model = augment_switched(spec)
    cert = MinJumpCertificate([np.eye(1), np.eye(1)], ModeWeights([[0.5, 0.5], [0.5, 0.5]]))
    chi = np.array([1.0])
    # from mode 0, staying costs 1.0 but jumping to 1 costs 0.01
    assert select_switched(chi, 0, cert, model) == 1
    assert select_switched(chi, 1, cert, model) == 0


def _three_mode_switched(rng, n=2, same=False):
    """Three modes, one input; same=True gives every target the same jump data."""
    def mat(rows, cols):
        return rng.standard_normal((rows, cols)).tolist()

    J = [[mat(n, n) for i in range(3)] for j in range(3)]
    K = [[mat(1, n + 1) for i in range(3)] for j in range(3)]
    if same:
        J, K = [J[0]] * 3, [K[0]] * 3
    spec = SwitchedSpec([mat(n, n)] * 3, [mat(n, 1)] * 3, J)
    return augment_switched(spec, gains=K)


def test_select_switched_three_modes_matches_brute_force():
    rng = np.random.default_rng(31)
    model = _three_mode_switched(rng)
    P = []
    for _ in range(3):
        W = rng.standard_normal((3, 3))
        P.append(W @ W.T + np.eye(3))
    cert = _cert(P)
    hits = set()
    for _ in range(300):
        chi = rng.standard_normal(3)
        i = int(rng.integers(0, 3))
        want, _ = oracles.brute_min_mode_each(P, [model.jump(j, i) @ chi for j in range(3)])
        assert select_switched(chi, i, cert, model) == want
        hits.add(want)
    assert hits == {0, 1, 2}


def test_select_switched_three_way_tie_goes_low():
    rng = np.random.default_rng(37)
    model = _three_mode_switched(rng, same=True)
    W = rng.standard_normal((3, 3))
    cert = _cert([W @ W.T + np.eye(3)] * 3)
    for i in range(3):
        for chi in rng.standard_normal((20, 3)):
            assert select_switched(chi, i, cert, model) == 0


def _zero_column_switched():
    """Two 2-d modes; the jump into mode 0 drops the first coordinate, so
    an inf there meets a zero column (0 inf = nan)."""
    drop, keep = [[0.0, 0.0], [0.0, 1.0]], np.eye(2).tolist()
    spec = SwitchedSpec(A=[np.zeros((2, 2)).tolist()] * 2, J=[[drop, drop], [keep, keep]])
    return augment_switched(spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_raises_numeric_error(bad):
    """The winning form is nan or +-inf, also through the zero column, and no
    RuntimeWarning leaks (pytest makes one an error)."""
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    model = _zero_column_switched()
    for chi in (np.array([bad, 1.0]), np.array([1.0, bad]), np.full(2, bad)):
        with pytest.raises(NumericError):
            select_impulsive(chi, cert)
        for i in range(2):
            with pytest.raises(NumericError):
                select_switched(chi, i, cert, model)


def test_overflowing_forms_raise_numeric_error():
    """A finite state whose every form overflows raises; one that leaves the
    winner finite still selects it."""
    cert = _cert([np.eye(2), 2.0 * np.eye(2)])
    model = _zero_column_switched()
    huge = np.array([0.0, 1e200])  # forms of 1e400, but the jumps stay finite
    with pytest.raises(NumericError):
        select_impulsive(huge, cert)
    for i in range(2):
        with pytest.raises(NumericError):
            select_switched(huge, i, cert, model)
    lopsided = _cert([1e300 * np.eye(2), np.eye(2)])
    chi = np.array([0.0, 1e5])  # forms inf and 1e10, before and after either jump
    assert select_impulsive(chi, lopsided) == 1
    assert select_switched(chi, 0, lopsided, model) == 1
