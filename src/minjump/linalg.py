"""Dense matrix kernels: matrix exponential, symmetric eigenvalues, SPD tests.

The matrices handled here are small (at most a dozen rows), so the kernels
favor robustness and auditability over large-scale performance:

- expm uses scaling-and-squaring with the order-(13,13) diagonal Pade
  approximant and the standard 1-norm squaring threshold.
- both expm and the largest symmetric eigenvalue take stacks, so a check
  over many dwell lengths is one batched call, not a Python loop.
- symmetric eigenvalues come from LAPACK; the test suite keeps a Jacobi
  eigensolver as an independent oracle.
- positive definiteness and SPD inversion go through Cholesky.
"""

import numpy as np

from .errors import DimensionError, FactorizationError, NumericError

# 1-norm threshold above which the argument is halved before the order-13
# Pade evaluation; below it the approximant is accurate to double precision.
_PADE13_THETA = 5.371920351148152

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)

def _as_square(M, name="matrix", stacked=False):
    M = np.array(M, dtype=float, copy=True)
    if (M.ndim < 2 or (M.ndim > 2 and not stacked)
            or M.shape[-1] != M.shape[-2]):
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericError(f"{name} contains non-finite entries")
    return M


def _as_symmetric(S, name="matrix", stacked=False):
    S = _as_square(S, name, stacked)
    St = np.swapaxes(S, -1, -2)
    scale = np.maximum(1.0, np.abs(S).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(S - St).max(axis=(-2, -1), initial=0.0) > 1e-9 * scale):
        raise DimensionError(f"{name} is not symmetric")
    return 0.5 * (S + St)


def sym(M):
    """Symmetric part (M + M^T)/2, of each matrix in a (..., n, n) stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def expm(M, t=1.0):
    """e^{M t} by Pade-(13,13) scaling and squaring.

    A scalar t gives one n x n matrix; a 1-D array of times gives the
    (len(t), n, n) stack of e^{M t_g} from one batched evaluation.  Each
    time gets its own squaring count from the 1-norm of M t_g, so every
    member is computed exactly as a scalar call would compute it.  Relative
    accuracy is at the double-precision level for the moderate norms
    arising here.
    """
    M = _as_square(M, "expm argument")
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DimensionError(f"expm times must be a scalar or 1-D, got shape {ts.shape}")
    if not np.all(np.isfinite(ts)):
        raise NumericError("expm time must be finite")
    n = M.shape[0]
    W = M * ts.reshape(-1, 1, 1)
    if n == 0:
        return W if ts.ndim else W[0]
    nrm = np.abs(W).sum(axis=1).max(axis=1)
    squarings = np.zeros(len(W), dtype=int)
    big = nrm > _PADE13_THETA
    squarings[big] = np.ceil(np.log2(nrm[big] / _PADE13_THETA))
    W = W / (2.0 ** squarings)[:, None, None]

    b = _PADE13_B
    ident = np.eye(n)
    W2 = W @ W
    W4 = W2 @ W2
    W6 = W4 @ W2
    U = W @ (W6 @ (b[13] * W6 + b[11] * W4 + b[9] * W2)
             + b[7] * W6 + b[5] * W4 + b[3] * W2 + b[1] * ident)
    V = (W6 @ (b[12] * W6 + b[10] * W4 + b[8] * W2)
         + b[6] * W6 + b[4] * W4 + b[2] * W2 + b[0] * ident)
    try:
        E = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"expm Pade solve failed: {exc}") from exc
    # an overflow is reported by the finiteness check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(int(squarings.max(initial=0))):
            live = squarings > s
            E[live] = E[live] @ E[live]
    if not np.all(np.isfinite(E)):
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
    top = np.linalg.eigvalsh(S)[..., -1]
    return float(top) if top.ndim == 0 else top


def is_pd(S, tol=0.0):
    """True iff the Cholesky factorization of S - tol*I succeeds."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    try:
        S = _as_symmetric(S, "is_pd argument")
    except (DimensionError, NumericError):
        return False
    n = S.shape[0]
    try:
        np.linalg.cholesky(S - tol * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def inv_spd(S):
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    S = _as_symmetric(S, "inv_spd argument")
    n = S.shape[0]
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError("matrix is not positive definite") from exc
    Z = np.linalg.solve(L, np.eye(n))
    X = np.linalg.solve(L.T, Z)
    return 0.5 * (X + X.T)
