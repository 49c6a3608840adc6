"""Matrix exponential and symmetric eigenvalue kernels against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minjump import linalg
from minjump.errors import DimensionError, FactorizationError, NumericError


def test_expm_identity_and_zero():
    assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    E = linalg.expm(np.eye(2), 1.0)
    assert np.allclose(E, np.e * np.eye(2), atol=1e-13)


def test_expm_matches_series_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        M = rng.uniform(-1.0, 1.0, (4, 4))
        M *= 5.0 / max(1.0, np.linalg.norm(M, 2))
        t = rng.uniform(0.1, 2.0)
        got = linalg.expm(M, t)
        ref = oracles.series_expm(M, t)
        assert np.linalg.norm(got - ref, np.inf) <= 1e-12 * max(
            1.0, np.linalg.norm(ref, np.inf))


def test_expm_semigroup():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    full = linalg.expm(A, 0.7)
    half = linalg.expm(A, 0.35)
    assert np.allclose(half @ half, full, atol=1e-12)


def test_expm_scalar_case():
    E = linalg.expm(np.array([[-2.0]]), 1.5)
    assert abs(E[0, 0] - np.exp(-3.0)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2.0, 2.0, (3, 3))
    prod = linalg.expm(A) @ linalg.expm(-A)
    assert np.linalg.norm(prod - np.eye(3), np.inf) < 1e-10


def test_expm_stack_matches_scalar_calls_and_series():
    rng = np.random.default_rng(17)
    M = rng.uniform(-1.0, 1.0, (4, 4))
    M *= 3.0 / np.linalg.norm(M, 1)
    # 1-norms of M t from 0.06 to 24: no squaring up to 5.37, then up to three
    thetas = np.array([0.02, 0.5, 1.7, 1.8, 2.5, 4.0, 8.0])
    counts = np.ceil(np.log2(3.0 * thetas / linalg._PADE13_THETA)).clip(0)
    assert len(set(counts)) >= 3
    stack = linalg.expm(M, thetas)
    assert stack.shape == (len(thetas), 4, 4)
    for E, t in zip(stack, thetas):
        np.testing.assert_array_equal(E, linalg.expm(M, t))
        ref = oracles.series_expm(M, t)
        assert np.linalg.norm(E - ref, np.inf) <= 1e-12 * max(
            1.0, np.linalg.norm(ref, np.inf))
    assert linalg.expm(M, 0.5).shape == (4, 4)
    assert linalg.expm(M, np.zeros(0)).shape == (0, 4, 4)


def test_expm_rejects_bad_times():
    with pytest.raises(NumericError):
        linalg.expm(np.eye(2), np.array([0.1, np.inf]))
    with pytest.raises(DimensionError):
        linalg.expm(np.eye(2), np.ones((2, 2)))
    # e^{1000} overflows in the squarings: an error, not a RuntimeWarning
    with pytest.raises(NumericError):
        linalg.expm(np.array([[1000.0]]), np.array([0.1, 1.0]))


def test_sym_eig_max_stack_matches_oracles():
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 6):
        W = rng.standard_normal((5, n, n))
        S = (W + np.swapaxes(W, -1, -2)) / 2.0
        got = linalg.sym_eig_max(S)
        assert got.shape == (5,)
        for g, Sk in zip(got, S):
            assert g == linalg.sym_eig_max(Sk)
            assert abs(g - oracles.jacobi_eigvals(Sk)[-1]) < 1e-10
            assert abs(g - oracles.power_iter_max(Sk)) < 1e-8


def test_sym_eig_max_stack_rejects_one_bad_member():
    S = np.stack([np.eye(3)] * 4)
    S[2, 0, 1] = 1.0
    with pytest.raises(DimensionError):
        linalg.sym_eig_max(S)
    S = np.stack([np.eye(3)] * 4)
    S[3, 1, 1] = np.nan
    with pytest.raises(NumericError):
        linalg.sym_eig_max(S)


def test_sym_eig_max_matches_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 7)
        W = rng.standard_normal((n, n))
        S = (W + W.T) / 2.0
        got = linalg.sym_eig_max(S)
        assert abs(got - oracles.power_iter_max(S)) < 1e-8
        assert abs(got - np.linalg.eigvalsh(S)[-1]) < 1e-10


def test_sym_eig_max_diagonal():
    assert linalg.sym_eig_max(np.diag([-3.0, 5.0, 1.0])) == pytest.approx(5.0, abs=1e-13)


def test_sym_eig_max_rejects_asymmetric():
    with pytest.raises(Exception):
        linalg.sym_eig_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_pd():
    assert linalg.is_pd(np.eye(3))
    assert not linalg.is_pd(np.diag([1.0, -0.1]))
    assert not linalg.is_pd(np.zeros((2, 2)))


def test_inv_spd_round_trip():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((4, 4))
    P = W @ W.T + 4.0 * np.eye(4)
    Pinv = linalg.inv_spd(P)
    assert np.allclose(P @ Pinv, np.eye(4), atol=1e-11)
    assert np.allclose(Pinv, Pinv.T, atol=1e-14)


def test_inv_spd_rejects_indefinite():
    with pytest.raises(FactorizationError):
        linalg.inv_spd(np.diag([1.0, -1.0]))


def test_sym_halves_the_gap():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = linalg.sym(M)
    assert np.allclose(S, [[1.0, 1.0], [1.0, 1.0]])
