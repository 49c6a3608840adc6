"""Matrix exponential and symmetric eigenvalue kernels against oracles."""

import math

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


@settings(max_examples=50, derandomize=True, deadline=None)
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
    # 1-norms of M t from 0.06 to 24: no squaring up to 0.31, then up to seven
    thetas = np.array([0.02, 0.5, 1.7, 1.8, 2.5, 4.0, 8.0])
    counts = np.ceil(np.log2(3.0 * thetas / linalg._TAYLOR12_THETA)).clip(0)
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


def test_taylor_threshold_meets_its_remainder_bound():
    """theta is where sum_{k>12} theta^k/k! reaches (u/2) e^{-theta}, u = 2^-53."""
    def remainder(x):
        return math.fsum(x ** k / math.factorial(k) for k in range(13, 60))

    theta, half_u = linalg._TAYLOR12_THETA, 2.0 ** -54
    assert remainder(theta) <= half_u * math.exp(-theta)
    assert remainder(theta * (1 + 1e-6)) > half_u * math.exp(-theta * (1 + 1e-6))
    assert linalg._TAYLOR12_COEF.tolist() == [1.0 / math.factorial(k) for k in range(13)]
    assert not linalg._TAYLOR12_COEF.flags.writeable


def test_expm_accuracy_across_the_squaring_switch(monkeypatch):
    """Nonnormal matrices, d = 1..12, 1-norms just below and above theta
    (no squaring / one squaring), 5, 50 and 900 (up to 12 squarings).

    The 1-norm error relative to the series oracle must stay below
    20 u max(1, ||M||_1): rounding grows with each squaring, which the
    norm counts.  No LAPACK solve may run.
    """
    def no_solve(*args, **kwargs):
        raise AssertionError("expm ran a linear solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    theta, u = linalg._TAYLOR12_THETA, 2.0 ** -53
    rng = np.random.default_rng(12)
    for d in range(1, 13):
        G = rng.standard_normal((d, d))
        # eigenvalues moved into the left half plane so e^M does not overflow
        G -= (np.linalg.eigvals(G).real.max() + 0.1) * np.eye(d)
        for norm in (theta * (1 - 1e-9), theta * (1 + 1e-9), 5.0, 50.0, 900.0):
            M = G * (norm / np.linalg.norm(G, 1))
            got, ref = linalg.expm(M), oracles.series_expm(M)
            assert np.linalg.norm(got - ref, 1) <= 20 * u * max(1.0, norm) * np.linalg.norm(ref, 1)


def test_expm_without_squaring_is_nearly_correctly_rounded():
    """At 1-norms up to theta no squaring runs, and the polynomial, summed
    from its smallest terms up, is within 2u of the exact exponential for
    every matrix and within u/2 for at least 90 % of them."""
    theta, u = linalg._TAYLOR12_THETA, 2.0 ** -53
    rng = np.random.default_rng(31)
    errors = []
    for d in range(1, 7):
        for _ in range(3):
            G = rng.standard_normal((d, d)) + np.triu(3.0 * rng.standard_normal((d, d)), 1)
            for norm in (theta * (1 - 1e-9), 0.1, 0.01):
                M = G * (norm / np.linalg.norm(G, 1))
                ref = oracles.exact_taylor_expm(M)
                errors.append(np.linalg.norm(linalg.expm(M) - ref, 1) / np.linalg.norm(ref, 1))
    assert max(errors) <= 2 * u
    assert np.mean(np.array(errors) <= u / 2) >= 0.9


def _assert_members_are_their_scalar_calls(M, ts):
    """Every member of expm(M, ts) equals its scalar call bitwise, and the
    same member of the reversed stack and of two sliced stacks."""
    stack = linalg.expm(M, ts)
    for E, t in zip(stack, ts):
        np.testing.assert_array_equal(E, linalg.expm(M, t))
    np.testing.assert_array_equal(linalg.expm(M, ts[::-1]), stack[::-1])
    np.testing.assert_array_equal(linalg.expm(M, ts[1:]), stack[1:])
    np.testing.assert_array_equal(linalg.expm(M, ts[::2]), stack[::2])
    return stack


def test_expm_shuffled_stack_squares_each_member_by_its_own_count():
    """Squaring counts 0 to 7, three members each, in shuffled order: the
    rounds run on the members sorted by count, and every member must still
    be its scalar call, in its own place."""
    theta = linalg._TAYLOR12_THETA
    M = np.array([[-3.0, 1.0, 2.0], [2.0, -1.0, -4.0], [-3.0, 0.0, 1.0]]) / 8.0  # 1-norm 1
    rng = np.random.default_rng(10)
    ts = np.repeat(theta * 2.0 ** np.arange(8), 3) * rng.uniform(0.55, 0.95, 24)
    ts = rng.permutation(ts * rng.choice([-1.0, 1.0], 24))
    counts = np.ceil(np.log2(np.maximum(np.abs(ts), theta)) - np.log2(theta))
    assert sorted(set(counts)) == list(range(8))
    assert (np.diff(counts) != 0).sum() >= 12  # well mixed, not grouped by count
    _assert_members_are_their_scalar_calls(M, ts)


def test_expm_stack_edges_zero_negative_at_theta_and_across_a_switch():
    """t = 0, negative t, a member at norm exactly theta, and members just
    below and above the first and second squaring switch, in one stack."""
    theta, u = linalg._TAYLOR12_THETA, 2.0 ** -53
    # integer entries over a power of two: the 1-norm is exactly 1
    M = np.array([[-3.0, 1.0, 2.0], [2.0, -1.0, -4.0], [-3.0, 0.0, 1.0]]) / 8.0
    assert np.linalg.norm(M, 1) == 1.0
    ts = np.array([0.0, -0.7, theta, theta * (1 - 1e-9), theta * (1 + 1e-9),
                   -theta * (1 + 1e-9), 2 * theta * (1 - 1e-9), 2 * theta * (1 + 1e-9), 5.0])
    counts = np.ceil(np.log2(np.maximum(np.abs(ts), theta)) - np.log2(theta))
    assert counts[2:8].tolist() == [0, 0, 1, 1, 1, 2]
    stack = _assert_members_are_their_scalar_calls(M, ts)
    np.testing.assert_array_equal(stack[0], np.eye(3))
    for E, t in zip(stack, ts):
        ref = oracles.series_expm(M, t)
        assert np.linalg.norm(E - ref, 1) <= 20 * u * max(1.0, abs(t)) * np.linalg.norm(ref, 1)


def test_expm_squares_nothing_up_to_theta_and_once_just_above(monkeypatch):
    """A stack whose largest |t| ||M||_1 is exactly theta takes no squaring
    round and sets no floating-point flag; with that |t| at the next float
    above theta, one round squares that member alone."""
    theta = linalg._TAYLOR12_THETA
    M = np.array([[-3.0, 1.0, 2.0], [2.0, -1.0, -4.0], [-3.0, 0.0, 1.0]]) / 8.0  # 1-norm 1
    rounds, searchsorted = [], np.searchsorted

    def spy(a, v, **kwargs):  # expm asks for one index per squaring round
        rounds.append(len(v))
        return searchsorted(a, v, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    ts = np.array([0.0, -0.5 * theta, theta, 0.25, -theta])
    above = ts.copy()
    above[2] = np.nextafter(theta, 1.0)
    with np.errstate(all="raise"):
        stack = _assert_members_are_their_scalar_calls(M, ts)
        assert rounds == []
        squared = _assert_members_are_their_scalar_calls(M, above)
        half = linalg.expm(M, above[2:3] / 2)  # the member's polynomial, before its round
    assert rounds and set(rounds) == {1}
    np.testing.assert_array_equal(squared[2], (half @ half)[0])
    others = [0, 1, 3, 4]
    np.testing.assert_array_equal(squared[others], stack[others])


def test_expm_fast_path_at_its_boundary_is_the_squaring_path():
    """A stack whose largest |t| ||M||_1 is at most theta takes the path
    without squaring.  At exactly theta, at 1-norms 1 and 3/2, each member
    must equal its scalar call and the same member of a stack that one
    squared member sends down the squaring path; at the next float above
    theta that member alone is squared.  M = 0 takes the fast path at any
    finite time."""
    theta = linalg._TAYLOR12_THETA
    base = np.array([[-3.0, 1.0, 2.0], [2.0, -1.0, -4.0], [-3.0, 0.0, 1.0]]) / 8.0  # 1-norm 1
    for M in (base, 1.5 * base):
        norm = np.abs(M).sum(axis=0).max()
        edge = theta / norm
        assert edge * norm == theta  # the largest product is theta exactly
        ts = np.array([0.0, -0.5 * edge, edge, 0.25 * edge, -edge, np.nextafter(edge, 0.0)])
        with np.errstate(all="raise"):  # the fast path sets no floating-point flag
            fast = _assert_members_are_their_scalar_calls(M, ts)
        above = np.nextafter(edge, 1.0)
        assert above * norm > theta
        mixed = _assert_members_are_their_scalar_calls(M, np.r_[ts, above, 4.0 * edge])
        np.testing.assert_array_equal(mixed[:len(ts)], fast)
        half = linalg.expm(M, above / 2)
        np.testing.assert_array_equal(mixed[len(ts)], half @ half)
    zero = np.zeros((2, 2))
    ts = np.array([0.0, -1e308, 1e308, 5e-324])
    with np.errstate(all="raise"):
        stack = _assert_members_are_their_scalar_calls(zero, ts)
    np.testing.assert_array_equal(stack, np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_expm_zero_and_one_by_one_arguments():
    ts = np.array([0.0, 1.0, -1e300, 1e300, 2.5])
    with np.errstate(over="raise", invalid="raise"):
        stack = _assert_members_are_their_scalar_calls(np.zeros((3, 3)), ts)
    np.testing.assert_array_equal(stack, np.broadcast_to(np.eye(3), (5, 3, 3)))
    ts = np.array([0.0, 0.1, -0.3, 1.5, 7.0, -20.0])
    stack = _assert_members_are_their_scalar_calls(np.array([[-2.0]]), ts)
    for E, t in zip(stack, ts):
        assert abs(E[0, 0] - math.exp(-2.0 * t)) <= 20 * 2.0 ** -53 * max(1.0, abs(2.0 * t)) * math.exp(-2.0 * t)


def test_expm_huge_norm_at_tiny_time_does_not_overflow():
    """||M||_1 = 1.25e300 at t = 1e-300: M t has norm 1.25, and no power
    formed on the way may overflow."""
    M = np.array([[0.5, -1e300], [2e299, 0.25e300]])
    ts = np.array([1e-300, 0.0, -2e-300, 1e-301])
    with np.errstate(over="raise", invalid="raise"):
        stack = _assert_members_are_their_scalar_calls(M, ts)
    for E, t in zip(stack, ts):
        ref = oracles.series_expm(M * t)
        assert np.linalg.norm(E - ref, 1) <= 20 * 2.0 ** -53 * 2.5 * np.linalg.norm(ref, 1)


def test_expm_subnormal_entries():
    """e^{M t} = I + M t exactly in floating point when M t is subnormal."""
    M = np.array([[1e-310, -2e-310], [3e-310, 5e-311]])
    ts = np.array([1.0, -0.5, 3.0, 0.0])
    stack = _assert_members_are_their_scalar_calls(M, ts)
    for E, t in zip(stack, ts):
        np.testing.assert_array_equal(E, np.eye(2) + M * t)


def test_expm_rejects_bad_times():
    with pytest.raises(NumericError):
        linalg.expm(np.eye(2), np.array([0.1, np.inf]))
    with pytest.raises(DimensionError):
        linalg.expm(np.eye(2), np.ones((2, 2)))
    with pytest.raises(DimensionError, match="must be square"):
        linalg.expm([[1.0, 2.0]])
    # e^{1000} overflows in the squarings: an error, not a RuntimeWarning;
    # so does a norm |t| ||M||_1 near or past the float range
    for M, t in (([[1000.0]], np.array([0.1, 1.0])), ([[1e308]], 1.0), ([[1e200]], 1e200)):
        with pytest.raises(NumericError):
            linalg.expm(np.array(M), t)
    assert linalg.expm(np.array([[-1e308]]))[0, 0] == 0.0


def test_sym_eig_max_one_by_one_is_lapacks_eigenvalue_bitwise():
    """A 1 x 1 member's eigenvalue is its entry, as LAPACK returns it: the
    same bits as np.linalg.eigvalsh on signed zeros, subnormals, +-1e308
    and random magnitudes, as a stack and one matrix at a time."""
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308,
               np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0]
    vals = np.r_[special, rng.standard_normal(4000) * 10.0 ** rng.uniform(-320, 300, 4000)]
    S = vals.reshape(-1, 1, 1)
    want = np.linalg.eigvalsh(S)[:, -1]
    got = linalg.sym_eig_max(S)
    assert got.tobytes() == want.tobytes() == vals.tobytes()
    for v in special:
        one = linalg.sym_eig_max(np.array([[v]]))
        assert type(one) is float and math.copysign(1.0, one) == math.copysign(1.0, v) and one == v
    # the shortcut returns a copy, not a view of its argument
    got[0] = 7.0
    assert S[0, 0, 0] == 0.0
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            linalg.sym_eig_max(np.array([[[1.0]], [[bad]]]))


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


def test_sym_eig_max_symmetrizes_only_inexact_input():
    """An exactly symmetric stack is used as given; a member that is
    symmetric only within the tolerance is replaced by its symmetric part."""
    rng = np.random.default_rng(29)
    W = rng.standard_normal((6, 4, 4))
    S = linalg.sym(W)
    np.testing.assert_array_equal(linalg.sym_eig_max(S), np.linalg.eigvalsh(S)[:, -1])
    S[3, 0, 2] += 1e-12
    np.testing.assert_array_equal(linalg.sym_eig_max(S), np.linalg.eigvalsh(linalg.sym(S))[:, -1])


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
    with pytest.raises(DimensionError, match="empty"):  # square and symmetric, with no eigenvalue
        linalg.sym_eig_max(np.zeros((0, 0)))


def test_is_pd():
    assert linalg.is_pd(np.eye(3))
    assert not linalg.is_pd(np.diag([1.0, -0.1]))
    assert not linalg.is_pd(np.zeros((2, 2)))
    # a stack is PD iff every member is
    stack = np.stack([np.eye(3) * (k + 1.0) for k in range(5)])
    assert linalg.is_pd(stack)
    assert linalg.is_pd(stack[:, None])
    stack[3, 1, 1] = -1e-12
    assert not linalg.is_pd(stack)
    assert linalg.is_pd(np.delete(stack, 3, axis=0))
    stack[3, 1, 1] = np.nan
    assert not linalg.is_pd(stack)


def _tau(M, t):
    """The kernel's margin tau_k, as linalg's comment derives it."""
    d = M.shape[-1]
    m = np.abs(M).reshape(len(M), -1).max(axis=1)
    return 8.0 * (d + 1) ** 2 * (2.0 ** -53 * (np.abs(t) + d * m) + 2.0 ** -1074)


def _rotated(rng, tops, d):
    """One member Q diag(top, top - 1 - ..., ...) Q' per top, Q random orthogonal."""
    Q = np.linalg.qr(rng.standard_normal((len(tops), d, d)))[0]
    lam = np.asarray(tops)[:, None] - np.concatenate(
        [np.zeros((len(tops), 1)), 1.0 + rng.uniform(0.0, 2.0, (len(tops), d - 1))], axis=1)
    return linalg.sym(Q @ (lam[:, :, None] * np.swapaxes(Q, -1, -2)))


@pytest.mark.parametrize("d", range(1, 13))
def test_proven_below_refuses_at_and_just_above_t_and_clears_well_below(d):
    rng = np.random.default_rng(100 + d)
    t = np.array([3.0, -2.5, 1e-3, 40.0])
    # a top planted at t: rotated, and exactly on a diagonal
    M = _rotated(rng, t, d)
    assert not linalg.proven_below(M, t).any()
    diag = np.stack([np.diag(np.r_[tk, tk - 1.0 - np.arange(d - 1)]) for tk in t])
    assert not linalg.proven_below(diag, t).any()
    # a top within tau above t
    M = _rotated(rng, t, d)
    M = _rotated(rng, t + 0.5 * _tau(M, t), d)
    assert not linalg.proven_below(M, t).any()
    # tops well below t
    assert linalg.proven_below(_rotated(rng, t - 1e-6, d), t).all()
    assert linalg.proven_below(diag, t + 1e-6).all()


@pytest.mark.parametrize("d", range(1, 13))
def test_proven_below_agrees_with_lapack_cholesky_away_from_the_boundary(d):
    rng = np.random.default_rng(200 + d)
    M = linalg.sym(rng.standard_normal((400, d, d)))
    t = rng.uniform(-1.0, 1.0, 400) * np.sqrt(d)
    A = (t - _tau(M, t))[:, None, None] * np.eye(d) - M
    lam = np.linalg.eigvalsh(A)[:, 0]
    away = np.abs(lam) > 1e-6
    assert away.sum() > 350 and 0 < (lam > 0).sum() < 400
    want = []
    for Ak in A[away]:
        try:
            np.linalg.cholesky(Ak)
            want.append(True)
        except np.linalg.LinAlgError:
            want.append(False)
    got = linalg.proven_below(M[away], t[away])
    assert got.tolist() == want == (lam[away] > 0).tolist()
    # each verdict is the member's own, whatever the stack around it
    assert [bool(linalg.proven_below(M[k:k + 1], t[k:k + 1])[0])
            for k in np.flatnonzero(away)[:20]] == want[:20]


@pytest.mark.parametrize("n", [3, 40, 2000])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_proven_below_small_d_refuses_at_and_within_tau_above_t_on_any_stack_size(d, n):
    """At d = 1..3, where the first column update is one product, on a
    stack of 3, 40 and 2000 members: a top planted at t, or within tau
    above it, is never cleared, whatever its neighbours; one well below is."""
    rng = np.random.default_rng(300 + 10 * d + n % 7)
    t = rng.uniform(-50.0, 50.0, n)
    at_t = _rotated(rng, t, d)
    within = _rotated(rng, t + rng.uniform(0.0, 1.0, n) * _tau(at_t, t), d)
    below = _rotated(rng, t - 1e-6 * np.maximum(1.0, np.abs(t)), d)
    assert not linalg.proven_below(at_t, t).any()
    assert not linalg.proven_below(within, t).any()
    assert linalg.proven_below(below, t).all()
    # planted members among cleared ones keep their own verdict
    mixed, plant = below.copy(), rng.permutation(n)[:max(1, n // 4)]
    mixed[plant] = within[plant]
    want = np.ones(n, dtype=bool)
    want[plant] = False
    assert linalg.proven_below(mixed, t).tolist() == want.tolist()
    diag = np.zeros((n, d, d))
    diag[:, 0, 0] = t
    for k in range(1, d):
        diag[:, k, k] = t - k
    assert not linalg.proven_below(diag, t).any()
    assert linalg.proven_below(diag, t + 1e-6 * np.maximum(1.0, np.abs(t))).all()


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_proven_below_never_clears_a_non_finite_member(d):
    M = np.stack([-np.eye(d)] * 10)
    t = np.zeros(10)
    M[0, 0, 0] = np.nan
    M[1, 0, d - 1] = M[1, d - 1, 0] = np.nan
    M[2, 0, 0] = np.inf
    M[3, d - 1, d - 1] = -np.inf
    M[4, 0, d - 1] = M[4, d - 1, 0] = np.inf
    t[5], t[6], t[7] = np.nan, np.inf, -np.inf
    # finite, but t_k - M_k overflows: no proof is attempted
    M[8], t[8] = -1e308 * np.eye(d), 1e308
    assert linalg.proven_below(M, t).tolist() == [False] * 9 + [True]


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


def test_inv_spd_refuses_an_inverse_past_the_float_range():
    """1e-320 I factors (its Cholesky factor is 1e-160 I), but its inverse
    1e320 I is past the float range: NumericError, not an inf matrix; a
    factor at the bottom of the normal range still inverts."""
    with pytest.raises(NumericError, match="too near singular"):
        linalg.inv_spd(1e-320 * np.eye(3))
    np.testing.assert_allclose(linalg.inv_spd(np.diag([1e-300, 1.0])), np.diag([1e300, 1.0]),
                               rtol=1e-15)


def test_sym_halves_the_gap():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    S = linalg.sym(M)
    assert np.allclose(S, [[1.0, 1.0], [1.0, 1.0]])
