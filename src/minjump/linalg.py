"""Dense matrix kernels: matrix exponential, symmetric eigenvalues, SPD tests.

The matrices handled here are small (at most a dozen rows), so the kernels
favor robustness and auditability over large-scale performance:

- expm uses scaling and squaring with the degree-12 Taylor polynomial,
  which needs matrix products only, no linear solve.  The argument is
  halved until its 1-norm is at most theta = 0.3104, the largest norm with
  remainder sum_{k>12} theta^k/k! <= (u/2) e^{-theta}, u = 2^-53 the unit
  roundoff; below it the truncation is under the rounding of the result.
  A stack of times shares the powers of M, formed once per call; its
  Taylor coefficients are built members last, one vector product per
  power.  When the largest |t| ||M||_1 is at most theta, as on the short
  dwells of a grid check, no member is squared, and the call skips the
  squaring counts, the rounds and the overflow test (no term can overflow
  there): the same arithmetic, so the same bits, as the squaring path.
- both expm and the largest symmetric eigenvalue take stacks, so a check
  over many dwell lengths is one batched call, not a Python loop.
- symmetric eigenvalues come from LAPACK; the test suite keeps a Jacobi
  eigensolver as an independent oracle.  A 1 x 1 member's eigenvalue is
  its entry, which is what LAPACK returns, bit for bit, so that case makes
  no LAPACK call.  Every call checks its argument once for finiteness and
  once for symmetry (skipped at d = 1).
- positive definiteness, of one matrix or of a whole stack at once, and
  SPD inversion go through Cholesky.
- proven_below gives one verdict per member of a stack: a Cholesky
  factorization run members-last in numpy, each step one vector op over
  every member, proves the member's computed largest eigenvalue strictly
  below its own bound.  On a 10-member stack it costs about 17 us at
  d = 1, 29 at d = 3, 54 at d = 6 and 112 at d = 12 on a 2-CPU x86-64
  host, nearly all numpy call overhead: column 0 needs no update, column
  1's is one product, and the last column no division.
"""

import math

import numpy as np

from .errors import DimensionError, FactorizationError, NumericError

# Largest 1-norm at which the degree-12 Taylor remainder meets the bound in
# the module docstring; a larger argument is halved until it is below.
_TAYLOR12_THETA = 0.3103544816243631
_LOG2_THETA = np.log2(_TAYLOR12_THETA)
_TAYLOR12_COEF = np.array([1.0 / math.factorial(k) for k in range(13)])
_TAYLOR12_COEF.setflags(write=False)  # every expm call reads it

# proven_below clears member k of a symmetric (n, d, d) stack M when Cholesky
# runs to the end on A = (t_k - tau_k) I - M_k.  It must then hold that the
# value LAPACK's eigensolver computes, lam^_k, is strictly below t_k.  Write
# m = max |M_k,ij|, so ||M_k||_2 <= d m, and u = 2^-53.
# - Cholesky (Demmel, LAWN 14, 1989): a factorization that runs to the end,
#   its inner products summed in any order, gives A + dA = L L' >= 0 with
#   |dA| <= gamma_{d+1} |L||L'|, and
#   || |L||L'| ||_2 <= ||L||_F^2 <= tr(A) / (1 - gamma_{d+1}) (Rump, BIT
#   46, 2006).  With tr(A) <= d (|t_k| + tau_k + m), and the rounding of A's
#   diagonal, lam_max(M_k) <= t_k - tau_k + ((d+1) d + 2)(1 + O(u)) u
#   (|t_k| + tau_k + m).
# - Eigensolver: lam^_k is an exact eigenvalue of M_k + E with
#   ||E||_2 <= p(d) u ||M_k||_2, p(d) of order d^2 for the Householder
#   tridiagonalization (Higham, ASNA, 19.3), so lam^_k <= lam_max(M_k)
#   + p(d) u d m.
# Both are covered, for any p(d) <= 6 d^2, by
#   tau_k = 8 (d+1)^2 (u (|t_k| + d m) + eta),
# where eta = 2^-1074, the subnormal spacing, bounds each underflowed
# product in either factorization.  Where tau_k is not finite (an entry or
# t_k is not, or is near overflow), the member is not cleared.
_CERT_GROWTH = 8.0
_U, _ETA = math.ldexp(1.0, -53), math.ldexp(1.0, -1074)


def _as_square(M, name="matrix", stacked=False):
    M = np.asarray(M, dtype=float)
    if (M.ndim < 2 or (M.ndim > 2 and not stacked)
            or M.shape[-1] != M.shape[-2]):
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericError(f"{name} contains non-finite entries")
    return M


def _as_symmetric(S, name="matrix", stacked=False):
    S = _as_square(S, name, stacked)
    St = S.swapaxes(-1, -2)
    if S.shape[-1] < 2 or np.equal(S, St).all():
        return S
    scale = np.maximum(1.0, np.abs(S).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(S - St).max(axis=(-2, -1), initial=0.0) > 1e-9 * scale):
        raise DimensionError(f"{name} is not symmetric")
    return 0.5 * (S + St)


def sym(M):
    """Symmetric part (M + M^T)/2, of each matrix in a (..., n, n) stack."""
    M = np.asarray(M, dtype=float)
    S = M + M.swapaxes(-1, -2)
    S *= 0.5
    return S


def expm(M, t=1.0):
    """e^{M t} by scaling and squaring with the degree-12 Taylor polynomial.

    A scalar t gives one n x n matrix; a 1-D array of times gives the
    (len(t), n, n) stack of e^{M t_g} from one batched evaluation.  Each
    time gets its own squaring count s_g, the least with
    |t_g| ||M||_1 / 2^s_g <= theta (see the module docstring).  Then
    W_g = M t_g / 2^s_g = alpha_g Mhat, with Mhat = 2^-e M of 1-norm below 1
    so that no power overflows.  Mhat^0..Mhat^12 are formed once per call,
    alpha_g^k = alpha_g^(k-1) alpha_g members last, one product over all
    members per power, and member g's polynomial is the (1, 13) @ (13, n^2)
    product of its alpha_g^k / k! with them, highest power first.  So every
    member equals its scalar call bitwise, which one 2-D GEMM over all rows
    would not.  Squaring rounds run on the members sorted by count, each on
    a tail slice; with no member above theta, none runs.  An argument whose
    exponential overflows raises NumericError; that is tested once, on the
    largest |t_g| ||M||_1, and after the squarings.
    """
    M = _as_square(M, "expm argument")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"expm times must be a scalar or 1-D, got shape {ts.shape}")
    flat, d = ts.reshape(-1), len(M)
    tmax = float(np.abs(flat).max(initial=0.0))  # nan or inf if any time is
    if not math.isfinite(tmax):
        raise NumericError("expm time must be finite")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    # the largest |t| ||M||_1, in Python floats: the product is monotone in
    # |t|, so it overflows iff some member's does; once it is finite, no
    # member's product below can overflow
    top = tmax * norm
    if not math.isfinite(top):
        raise NumericError("expm overflowed; argument norm too large")
    e = math.frexp(norm)[1]
    # highest power first (P[k] = Mhat^k), so a row product adds small terms first
    R = np.empty((13, d, d))
    P = R[::-1]
    P[0] = 0.0
    P[0].reshape(-1)[::d + 1] = 1.0  # the identity
    np.ldexp(M, -e, out=P[1])
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[1:3], P[2], out=P[3:5])
    np.matmul(P[1:5], P[4], out=P[5:9])
    np.matmul(P[1:5], P[8], out=P[9:])
    # members last: row k is alpha^k = alpha^(k-1) alpha
    coef = np.empty((13, len(flat)))
    coef[0] = 1.0
    if top <= _TAYLOR12_THETA:  # no member is squared: every count below is 0
        squarings = None
        # at M = 0 take alpha = 0: a huge t would make alpha^12 Mhat^12 = inf * 0
        coef[1] = np.ldexp(flat, e) if norm else 0.0 * flat
    else:
        squarings = np.ceil(np.log2(np.maximum(np.abs(flat) * norm, _TAYLOR12_THETA))
                            - _LOG2_THETA).astype(int)
        np.ldexp(flat, e - squarings, out=coef[1])
    for k in range(2, 13):
        np.multiply(coef[k - 1], coef[1], out=coef[k])
    # member g's (1, 13) row alpha_g^k / k!, highest power first
    coef = np.multiply(coef[::-1].T, _TAYLOR12_COEF[::-1], order="C")
    E = (coef[:, None, :] @ R.reshape(13, d * d)).reshape(len(flat), d, d)
    if squarings is not None and squarings.any():
        # members by squaring count: each round squares a tail slice
        order = np.argsort(squarings, kind="stable")
        S = E[order]
        with np.errstate(over="ignore", invalid="ignore"):  # see the check below
            for a in np.searchsorted(squarings[order], range(squarings.max()), side="right"):
                S[a:] = S[a:] @ S[a:]
        E[order] = S
        if not np.isfinite(E).all():
            raise NumericError("expm overflowed; argument norm too large")
    return E if ts.ndim else E[0]


def sym_eig_max(S):
    """Largest eigenvalue of a symmetric matrix, or of each in a (..., d, d) stack.

    LAPACK's symmetric eigensolver does the work.  A single matrix gives a
    float, a stack an array of its leading shape; one asymmetric or
    non-finite member makes the whole call raise.
    """
    S = _as_symmetric(S, "eig argument", stacked=True)
    if S.shape[-1] == 0:
        raise DimensionError("eig argument is empty")
    # LAPACK's solver returns a 1 x 1 matrix's entry, -0.0 and subnormals kept
    top = S[..., 0, 0].copy() if S.shape[-1] == 1 else np.linalg.eigvalsh(S)[..., -1]
    return float(top) if top.ndim == 0 else top


def proven_below(M, t):
    """Per member of a symmetric (n, d, d) stack M, True where its computed
    largest eigenvalue (sym_eig_max's) is proven strictly below t_k.

    t holds one bound per member.  The proof is a Cholesky factorization
    of (t_k - tau_k) I - M_k that runs to the end (see _CERT_GROWTH).  The
    stack is transposed once to d^2 contiguous length-n vectors, so each
    step is one vector op over every member, and each member's rounding
    is that of its own factorization: every column is divided by the
    square root of its pivot.  A non-finite member or bound is not cleared.
    """
    M = np.asarray(M, dtype=float)
    n, d = M.shape[0], M.shape[-1]
    t = np.asarray(t, dtype=float)  # one per member, or one for all
    A = np.negative(M.reshape(n, d * d).T, order="C")  # members last
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        m = np.maximum(A.max(axis=0), -A.min(axis=0))
        at = np.abs(t)
        tau = _CERT_GROWTH * (d + 1) ** 2 * (_U * (at + d * m) + _ETA)
        ok = np.isfinite(at + tau + m)  # also keeps every entry of A finite
        A[::d + 1] += t - tau
        A = A.reshape(d, d, n)
        for j in range(d):  # column j of L from the finished columns left of it
            if j == 1:  # one finished column: a product, not a sum
                A[1:, 1] -= A[1:, 0] * A[1, 0]
            elif j:
                A[j:, j] -= np.einsum("ikn,kn->in", A[j:, :j], A[j, :j])
            if j + 1 < d:
                A[j + 1:, j] /= np.sqrt(A[j, j])
    return ok & (A.reshape(d * d, n)[::d + 1] > 0.0).all(axis=0)  # every pivot


def is_pd(S):
    """True iff the Cholesky factorization of S succeeds.

    S may be one matrix or a (..., d, d) stack, factorized in one call; a
    stack is PD iff every member is.  A non-square, asymmetric or
    non-finite argument is not PD.
    """
    try:
        np.linalg.cholesky(_as_symmetric(S, "is_pd argument", stacked=True))
    except (DimensionError, NumericError, np.linalg.LinAlgError):
        return False
    return True


def inv_spd(S):
    """Inverse of a symmetric positive definite matrix via Cholesky; one
    past the float range (a subnormal factor, say) raises NumericError."""
    S = _as_symmetric(S, "inv_spd argument")
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("matrix is not positive definite") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        X = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(len(S))))
        X = 0.5 * (X + X.T)
    if not np.isfinite(X).all():
        raise NumericError("matrix is too near singular for a finite inverse")
    return X
