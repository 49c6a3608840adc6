"""Numerical verification of min-jumping stability certificates.

The impulsive and the switched loop differ only in two per-mode
quantities, which one adapter (_loop_data) supplies to every condition:

  impulsive  F0_i = Jbar_i   W_i = sum_j pi_ji P_j
  switched   F0_i = I        W_i = sum_j pi_ji Jbar_ji' P_j Jbar_ji

F0_i is the map applied before the flow and W_i the weighted storage the
flow carries.  The condition checked on them is the direct contraction
test: for every admissible dwell length theta,
F_i(theta)' W_i F_i(theta) - P_i < 0 with F_i(theta) = e^{Abar_i theta} F0_i.
It is evaluated on a dwell grid inside [t_min, t_max] whose density is
recorded in the report; the grid is a sampled relaxation of the all-theta
condition.  (The clock-function form of the same conditions, which the
co-design imposes through its own blocks, is checked independently by the
test suite's oracles.)

A margin must clear -STRICT_TOL.  Eigenvalue margins come from LAPACK's
symmetric eigensolver through linalg.sym_eig_max, a code path separate
from the interior-point solver that produced the data.  On a large dwell
grid the eigensolver runs only where a mode's maximum can be (_max_search):
at each mode's two dwell ends, then where linalg.proven_below cannot prove
a point below the better of them; every report field is a maximum, so the
report is a full eigensolve's, bit for bit.  A stack times one fixed
matrix is one 2-D GEMM (_times), bitwise the stacked per-member products
on the BLAS in use, which the oracle tests hold.

Every entry point first asks rules._fit whether its model and certificate
fit together: the wrong kind is a ModelError, a certificate of another
mode count or dimension a CertificateError.  The report holds what this one
condition gives: its largest margin, where it falls, each mode's largest
and the grid.  It reduces a (modes, len(grid)) margin array in the one
record order, mode-major (_grid_verdict): every maximum is the first
largest in that order, so an exact tie goes to the lowest mode.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError
from .model import _increasing, _num
from .rules import _fit

STRICT_TOL = 1e-7
DEFAULT_GRID_POINTS = 200

# Below this many points or stacked entries (G d^2), or at d = 1, one
# eigensolve costs less than the search.  Two-mode stacks of random
# contractive loops, timed at d = 2..12, G = 4..256 on a 2-CPU x86-64 host:
# the search's fixed cost is about 45 us at d = 2, 55 at d = 3, 85 at d = 6,
# so it pays from about 75 points at d = 2, 32 at d = 3 and 20 at d = 4..6.
_SEARCH_MIN_POINTS, _SEARCH_MIN_ENTRIES = 20, 288

# dwell points per batched grid evaluation.  The stacked temporaries of a
# 2-mode check peak near 1.0 KB per point at d = 4 and 7 KB at d = 12, so
# a slice stays near 1 MB and 7 MB however dense the user's grid is.
_THETA_SLICE = 1024


@dataclass(frozen=True)
class DwellGrid:
    """Dwell-length samples, strictly increasing; uniform() spans [t_min, t_max]
    with one point on a degenerate range (periodic sampling), else count."""

    points: tuple

    def __init__(self, points):
        arr = _increasing(points, "dwell grid")
        object.__setattr__(self, "points", tuple(arr.tolist()))
        object.__setattr__(self, "_array", arr)  # the points as floats, made once

    @classmethod
    def uniform(cls, dwell, count=DEFAULT_GRID_POINTS):
        count = _num(count, "grid count", int)
        if dwell.t_min != dwell.t_max:
            if count < 2:
                raise ConfigError("uniform dwell grid needs at least two points")
            return cls(np.linspace(dwell.t_min, dwell.t_max, count))
        if count < 1:
            raise ConfigError("uniform dwell grid needs at least one point")
        return cls((dwell.t_min,))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of a dwell-grid check: worst_margin is the largest contraction
    margin on the grid, at worst_mode and worst_theta, and mode_margins each
    mode's largest; it passes when worst_margin clears -strict_tol."""

    passed: bool
    worst_margin: float
    worst_mode: int
    worst_theta: float
    mode_margins: tuple
    grid: tuple
    strict_tol: float

    def to_dict(self):
        """JSON-ready form; mode indices are reported 1-based."""
        return {
            "pass": bool(self.passed),
            "worst_margin": self.worst_margin,
            "worst_point": {"mode": self.worst_mode + 1, "theta": self.worst_theta},
            "per_mode": list(self.mode_margins),
            "grid": {
                "points": len(self.grid),
                "first": self.grid[0] if self.grid else None,
                "last": self.grid[-1] if self.grid else None,
            },
            "strict_tol": self.strict_tol,
        }


def _tol(value, name):
    """A tolerance as a float; a NaN or negative one would pass failing margins."""
    tol = _num(value, f"{name} tolerance")
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"{name} tolerance must be finite and nonnegative, got {tol}")
    return tol


def _loop_data(model, cert):
    """(F0, W): per mode, the map applied before the flow (I on a switched
    loop) and the weighted storage: the kind-specific data of every condition."""
    _fit(model, cert)
    pi, N, J = cert.weights.pi, range(model.modes), model.jump_table
    if model.kind == "impulsive":  # W[i] = pi[0, i] P[0] + pi[1, i] P[1] + ..., from 0.0
        return J[:, 0], np.add.reduce(pi[:, :, None, None] * cert.P[:, None], axis=0,
                                      initial=0.0)
    return ([np.eye(model.dim)] * model.modes,
            [linalg.sym(sum(pi[j, i] * (J[j, i].T @ cert.P[j] @ J[j, i]) for j in N))
             for i in N])


def _flows(model, times):
    """Per mode i, the (len(times), d, d) stack of e^{Abar_i t}: one expm per drift."""
    stacks = [linalg.expm(A, times) for A in model.abar]
    return [stacks[i if model.kind == "switched" else 0] for i in range(model.modes)]


def _searched(G, d):
    """Whether the search pays on a (G, d, d) stack."""
    return d > 1 and G >= _SEARCH_MIN_POINTS and G * d * d >= _SEARCH_MIN_ENTRIES


def _max_search(M):
    """lambda_max of each member of the symmetric (..., G, d, d) stack M
    where its (G, d, d) stack's maximum can be; -inf where proven below it.

    Each stack's first largest value and its index are those of
    sym_eig_max(M) bit for bit.  One eigensolve takes every stack's two
    ends; one linalg.proven_below call clears the members strictly below
    their stack's best end; one last eigensolve takes what the proof left,
    if anything.  A cleared member never ties.
    """
    G, d = M.shape[-3], M.shape[-1]
    if not _searched(G, d):
        return linalg.sym_eig_max(M)
    shape, M = M.shape[:-2], M.reshape(-1, G, d, d)
    out = np.full(M.shape[:2], -np.inf)
    out[:, ::G - 1] = linalg.sym_eig_max(M[:, ::G - 1])
    best = out.max(axis=1)
    left = ~linalg.proven_below(M.reshape(-1, d, d), np.repeat(best, G)).reshape(out.shape)
    left[:, ::G - 1] = False
    if left.any():
        out[left] = linalg.sym_eig_max(M[left])
    return out.reshape(shape)


def _times(S, B):
    """S @ B for a (G, d, d) stack S and one d x d matrix B, as one 2-D GEMM."""
    return (S.reshape(-1, B.shape[0]) @ B).reshape(S.shape)


def _contraction_margins(model, cert, F0, W, thetas):
    """(modes, len(thetas)) array of lambda_max(F_i(theta)' W_i F_i(theta) - P_i)
    where it can be a slice's maximum, -inf elsewhere (_max_search), so the
    report is the full array's.  F = E on a switched loop, where F0_i = I."""
    P = linalg.sym(cert.P)[:, None]  # exactly symmetric, so every M below is too
    margins = np.empty((model.modes, len(thetas)))
    for lo in range(0, len(thetas), _THETA_SLICE):
        hi = min(lo + _THETA_SLICE, len(thetas))
        M = np.empty((model.modes, hi - lo, model.dim, model.dim))
        for i, E in enumerate(_flows(model, thetas[lo:hi])):
            F = E if model.kind == "switched" else _times(E, F0[i])
            np.matmul(_times(F.swapaxes(-1, -2), W[i]), F, out=M[i])
        M = linalg.sym(M)  # its one temporary replaces the products
        M -= P
        margins[:, lo:hi] = _max_search(M)
    return margins


def _contraction_report(model, cert, dwell, grid, strict_tol):
    """The contraction margin at every grid point, reduced by _grid_verdict."""
    strict_tol = _tol(strict_tol, "strict")  # before the grid is evaluated
    F0, W = _loop_data(model, cert)
    if not isinstance(grid, DwellGrid):
        grid = DwellGrid.uniform(dwell) if grid is None else DwellGrid(grid)
    thetas = grid._array
    if dwell.outside(thetas[[0, -1]]).any():
        raise ConfigError(f"dwell grid [{thetas[0]}, {thetas[-1]}] leaves the dwell range "
                          f"[{dwell.t_min}, {dwell.t_max}]")
    margins = _contraction_margins(model, cert, F0, W, thetas)
    return _grid_verdict(margins, grid.points, strict_tol)


def _grid_verdict(margins, points, strict_tol):
    """Report of a (modes, len(points)) contraction-margin array.  Records
    run mode-major, so an exact tie for the worst point goes to the first
    mode, then the first theta.  Every maximum is taken by argmax, the
    first largest in record order, as a record-by-record scan would keep
    it (np.max may return either zero of a -0.0/0.0 tie)."""
    ks = margins.argmax(axis=1)
    tops = margins[np.arange(len(margins)), ks]  # each mode's first largest
    mode = int(tops.argmax())  # the first mode holding the first largest record
    worst = float(tops[mode])
    return VerificationReport(
        passed=worst < -strict_tol, worst_margin=worst, worst_mode=mode,
        worst_theta=float(points[ks[mode]]), mode_margins=tuple(tops.tolist()),
        grid=tuple(points), strict_tol=strict_tol)


def check_impulsive(model, cert, dwell, grid=None, strict_tol=STRICT_TOL):
    """Dwell-grid contraction test for the impulsive loop (see _grid_verdict)."""
    _fit(model, kind="impulsive", what="check_impulsive")
    return _contraction_report(model, cert, dwell, grid, strict_tol)


def check_switched(model, cert, dwell, grid=None, strict_tol=STRICT_TOL):
    """Dwell-grid contraction test for the switched loop (see _grid_verdict)."""
    _fit(model, kind="switched", what="check_switched")
    return _contraction_report(model, cert, dwell, grid, strict_tol)


def check(model, cert, dwell, grid=None, strict_tol=STRICT_TOL):
    """Dwell-grid contraction test of the model's kind.

    grid, a DwellGrid or a sequence of points, need not reach the ends of
    the dwell range; a point outside it (DwellRange.outside) is a ConfigError.
    """
    kind_check = check_impulsive if model.kind == "impulsive" else check_switched
    return kind_check(model, cert, dwell, grid, strict_tol)
