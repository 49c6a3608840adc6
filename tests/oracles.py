"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different algorithms than the
package under test (Taylor series instead of a rational approximant, power
iteration and cyclic Jacobi sweeps instead of LAPACK, one dwell point at a
time instead of stacked evaluation) so agreement is meaningful.
"""

import numpy as np

_JACOBI_OFF_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def series_expm(M, t=1.0, terms=30):
    """Matrix exponential by scaled Taylor series.

    The argument is halved until its 1-norm is below 0.25, summed as a plain
    truncated power series, then repeatedly squared.  With 30 terms the
    truncation error at norm 0.25 is far below double precision, so the
    dominant error is the float accumulation of the squarings.
    """
    M = np.asarray(M, dtype=float)
    W = M * t
    nrm = np.linalg.norm(W, 1)
    squarings = 0
    while nrm > 0.25:
        W = W / 2.0
        nrm /= 2.0
        squarings += 1
    n = W.shape[0]
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ W / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def power_iter_max(S, iters=20000, tol=1e-14, seed=7):
    """Largest eigenvalue of a symmetric matrix via shifted power iteration.

    Shifting by (1 + ||S||_1) makes the spectrum positive so the iteration
    converges to the algebraically largest eigenvalue, not the largest in
    magnitude.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if n == 1:
        return float(S[0, 0])
    shift = 1.0 + np.linalg.norm(S, 1)
    B = S + shift * np.eye(n)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = v @ B @ v
    for _ in range(iters):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
        lam_new = v @ B @ v
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return float(lam - shift)


def _jacobi_sweeps(S):
    A = S.copy()
    n = A.shape[0]
    if n < 2:
        return A
    scale = max(1.0, float(np.linalg.norm(A)))
    tol = _JACOBI_OFF_TOL * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(max(0.0, np.sum(A * A) - np.sum(np.diag(A) ** 2)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 0.1 * tol / (n * n):
                    continue
                app = A[p, p]
                aqq = A[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    tnum = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    tnum = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + tnum * tnum)
                s = tnum * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0
    return A


def jacobi_eigvals(S):
    """All eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi.

    Sweeps run until the off-diagonal Frobenius norm is below 1e-12 of the
    matrix norm (at least 1e-12 absolute).
    """
    S = np.asarray(S, dtype=float)
    return np.sort(np.diag(_jacobi_sweeps(0.5 * (S + S.T))))


def grid_margins(model, cert, thetas):
    """Contraction margins of the dwell-grid check, one (mode, theta) at a time.

    Returns the (modes, len(thetas)) array of
    lambda_max(F_i(theta)' W_i F_i(theta) - P_i), with F_i = e^{A theta} J_i
    and W_i = sum_j pi_ji P_j for an impulsive model, and F_i = e^{A_i theta}
    and W_i = sum_j pi_ji J_ji' P_j J_ji for a switched one.  Exponentials
    come from series_expm and eigenvalues from jacobi_eigvals.
    """
    pi = cert.weights.pi
    N = model.modes
    out = np.empty((N, len(thetas)))
    for i in range(N):
        if model.kind == "impulsive":
            W = sum(pi[j, i] * cert.P[j] for j in range(N))
        else:
            W = sum(pi[j, i] * model.jump(j, i).T @ cert.P[j] @ model.jump(j, i)
                    for j in range(N))
        for k, theta in enumerate(thetas):
            if model.kind == "impulsive":
                F = series_expm(model.drift(), theta) @ model.jump(i)
            else:
                F = series_expm(model.drift(i), theta)
            out[i, k] = jacobi_eigvals(F.T @ W @ F - cert.P[i])[-1]
    return out


def quad_form(P, v):
    v = np.asarray(v, dtype=float)
    return float(v @ np.asarray(P, dtype=float) @ v)


def brute_min_mode(P_list, v):
    """Argmin of the quadratic forms, smallest index on ties."""
    vals = [quad_form(P, v) for P in P_list]
    best = 0
    for i in range(1, len(vals)):
        if vals[i] < vals[best]:
            best = i
    return best, vals
