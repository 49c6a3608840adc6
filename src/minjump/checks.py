"""Numerical verification of min-jumping stability certificates.

The impulsive and the switched loop differ only in two per-mode
quantities, which one adapter (_loop_data) supplies to every condition:

  impulsive  F0_i = Jbar_i   W_i = sum_j pi_ji P_j
  switched   F0_i = I        W_i = sum_j pi_ji Jbar_ji' P_j Jbar_ji

F0_i is the map applied before the flow and W_i the weighted storage the
flow carries.  Two families of conditions are checked on them:

- direct contraction tests: for every admissible dwell length theta,
  F_i(theta)' W_i F_i(theta) - P_i < 0 with F_i(theta) = e^{Abar_i theta} F0_i.
  These are evaluated on a dwell grid inside [t_min, t_max] whose density is
  recorded in the report; the grid is a sampled relaxation of the all-theta
  condition.

- clock-function tests: a piecewise-affine matrix family S_i(tau) on
  [0, t_max], stored for every mode as one (modes, nodes, d, d) array,
  replaces the explicit exponentials.  The differential condition
  is affine in tau on each interval, so checking both interval endpoints is
  exact, not a sampling approximation; the same holds for the theta-dependent
  blocks at the clock nodes covering [t_min, t_max].

Strict conditions must clear -STRICT_TOL; non-strict ones may sit up to the
slack tolerance above zero.  Eigenvalue margins come from LAPACK's
symmetric eigensolver through linalg.sym_eig_max, a code path separate
from the interior-point solver that produced the data.  Every field of a
dwell-grid report is a maximum over the grid, so on a large grid the
eigensolver runs only where a mode's maximum can be: one call takes
spaced samples of every mode, linalg.proven_below proves each other member
strictly below its own mode's best sample (it holds -inf), and one more
call takes the members it could not clear; the report is the one a full
eigensolve would give, bit for bit.  A stack times one fixed matrix
is a single 2-D GEMM (_times), bitwise the stacked per-member products on
the BLAS in use, which the oracle tests hold.

Every entry point first asks rules._fit whether its model, certificate
and clock fit together: the wrong kind is a ModelError, a certificate or
clock of another mode count or dimension a CertificateError.  Both
families reduce through one function, _verdict, over a (modes, R)
margin array in the one record order, mode-major: every maximum is the
first largest in that order, so an exact tie goes to the lowest mode.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError
from .model import _numeric
from .rules import _fit

STRICT_TOL = 1e-7
SLACK_TOL = 1e-9
DEFAULT_GRID_POINTS = 200

# Below this many stacked entries (G d^2) one eigensolve of the whole
# stack costs less than the search.
_SEARCH_MIN_ENTRIES = 2048

_COVER_TOL = 1e-12
# dwell points per batched grid evaluation.  The stacked temporaries of a
# 2-mode check peak near 1.0 KB per point at d = 4 and 7 KB at d = 12, so
# a slice stays near 1 MB and 7 MB however dense the user's grid is.
_THETA_SLICE = 1024


@dataclass(frozen=True)
class DwellGrid:
    """Sorted dwell-length samples inside [t_min, t_max], endpoints included.

    A degenerate range (t_min == t_max, periodic sampling) collapses to a
    single point; otherwise at least two strictly increasing points are
    required.
    """

    points: tuple

    def __init__(self, points):
        pts = tuple(map(float, points))
        arr = np.array(pts)
        if not pts:
            raise ConfigError("dwell grid needs at least one point")
        if not np.isfinite(arr).all():
            raise ConfigError("dwell grid contains non-finite points")
        if (arr[1:] <= arr[:-1]).any():
            raise ConfigError("dwell grid must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_array", arr)  # the points as floats, made once

    @classmethod
    def uniform(cls, dwell, count=DEFAULT_GRID_POINTS):
        if dwell.t_min == dwell.t_max:
            return cls((dwell.t_min,))
        if count < 2:
            raise ConfigError("uniform dwell grid needs at least two points")
        return cls(np.linspace(dwell.t_min, dwell.t_max, count))

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True, eq=False)
class ClockFamily:
    """Piecewise-affine matrix functions on a shared node grid.

    nodes run from 0 to the horizon; values is the read-only
    (modes, len(nodes), d, d) array, values[i, k] mode i's symmetric matrix
    at node k, and evaluation interpolates affinely between nodes, so the
    slope is piecewise constant.
    """

    nodes: tuple
    values: np.ndarray

    def __init__(self, nodes, values):
        nds = tuple(_numeric(nodes, "clock nodes", ("nodes",), ConfigError).tolist())
        if len(nds) < 2:
            raise ConfigError("clock family needs at least two nodes")
        if abs(nds[0]) > _COVER_TOL:
            raise ConfigError("clock nodes must start at 0")
        if any(b <= a for a, b in zip(nds, nds[1:])):
            raise ConfigError("clock nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nds)
        object.__setattr__(self, "values", _numeric(values, "clock values",
                                                  ("modes", len(nds), "d", "d"), ConfigError))

    def at(self, taus):
        """Every mode's S at each tau of a 1-D array: the (modes, len(taus), d, d) stack."""
        taus, nodes = np.asarray(taus, dtype=float), np.asarray(self.nodes)
        outside = (taus < nodes[0] - _COVER_TOL) | (taus > nodes[-1] + _COVER_TOL)
        if outside.any():
            raise ConfigError(f"tau = {taus[outside][0]} outside clock node span")
        k = np.clip(np.searchsorted(nodes, taus, side="right") - 1, 0, len(nodes) - 2)
        a, b = nodes[k], nodes[k + 1]
        w = ((taus - a) / (b - a))[:, None, None]
        return (1.0 - w) * self.values[:, k] + w * self.values[:, k + 1]

    def slopes(self):
        """The (modes, len(nodes) - 1, d, d) stack of the slope on each interval."""
        return np.diff(self.values, axis=1) / np.diff(self.nodes)[:, None, None]


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of a certificate check.

    worst_margin is the largest eigenvalue margin found anywhere; a check
    passes when every strict condition clears -strict_tol and every
    non-strict condition stays within slack_tol of zero, with any required
    positivity flags satisfied.
    """

    passed: bool
    worst_margin: float
    worst_condition: str
    worst_mode: int
    worst_theta: float
    per_condition: dict
    mode_margins: tuple
    grid: tuple
    strict_tol: float
    slack_tol: float
    flags: dict = field(default_factory=dict)

    def to_dict(self):
        """JSON-ready form; mode indices are reported 1-based."""
        return {
            "pass": bool(self.passed),
            "worst_margin": self.worst_margin,
            "worst_point": {
                "condition": self.worst_condition,
                "mode": self.worst_mode + 1,
                "theta": self.worst_theta,
            },
            "per_condition": dict(self.per_condition),
            "per_mode": list(self.mode_margins),
            "grid": {
                "points": len(self.grid),
                "first": self.grid[0] if self.grid else None,
                "last": self.grid[-1] if self.grid else None,
            },
            "strict_tol": self.strict_tol,
            "slack_tol": self.slack_tol,
            "flags": dict(self.flags),
        }


def _validate(strict_tol, slack_tol):
    for name, tol in (("strict", strict_tol), ("slack", slack_tol)):
        if not 0.0 <= tol < np.inf:  # a NaN or negative tol would pass failing margins
            raise ConfigError(f"{name} tolerance must be finite and nonnegative, got {tol}")


def _verdict(margins, segments, thetas, passed, grid, strict_tol, slack_tol, flags=None):
    """Report of a (modes, R) margin array whose records run mode-major.

    segments holds the (condition, count) runs of each mode's R records and
    thetas the theta of each record.  Every maximum is taken by argmax, the
    first largest in record order, as a record-by-record scan would keep it
    (np.max may return either zero of a -0.0/0.0 tie).
    """
    mode, k = divmod(int(margins.argmax()), margins.shape[1])
    per_condition, lo = {}, 0
    for condition, n in segments:
        block = margins[:, lo:lo + n].ravel()
        per_condition[condition] = float(block[block.argmax()])
        if lo <= k:  # the last segment starting at or before k holds it
            worst_condition = condition
        lo += n
    return VerificationReport(
        passed=bool(passed), worst_margin=float(margins[mode, k]), worst_condition=worst_condition,
        worst_mode=mode, worst_theta=float(thetas[k]), per_condition=per_condition,
        mode_margins=tuple(float(row[row.argmax()]) for row in margins),
        grid=tuple(grid), strict_tol=strict_tol, slack_tol=slack_tol, flags=dict(flags or {}))


def _loop_data(model, cert):
    """(F0, W): per mode, the map applied before the flow (I on a switched
    loop) and the weighted storage: the kind-specific data of every condition."""
    _fit(model, cert)
    pi, N, J = cert.weights.pi, range(model.modes), model.jump_table
    if model.kind == "impulsive":
        return list(J[:, 0]), [sum(pi[j, i] * cert.P[j] for j in N) for i in N]
    return ([np.eye(model.dim)] * model.modes,
            [linalg.sym(sum(pi[j, i] * (J[j, i].T @ cert.P[j] @ J[j, i]) for j in N))
             for i in N])


def _flows(model, times):
    """Per mode i, the (len(times), d, d) stack of e^{Abar_i t}: one expm per drift."""
    stacks = [linalg.expm(A, times) for A in model.abar]
    return [stacks[i if model.kind == "switched" else 0] for i in range(model.modes)]


def _max_search(M):
    """lambda_max of each member of the symmetric (..., G, d, d) stack M
    where its (G, d, d) stack's maximum can be; -inf where proven below it.

    Each stack's first largest value and its index are those of
    sym_eig_max(M) bit for bit.  Below _SEARCH_MIN_ENTRIES entries per
    stack, M is one eigensolve.  Otherwise one eigensolve over every stack
    takes every s-th member and the last, s = floor(sqrt(G / 2)); one
    linalg.proven_below call clears members strictly below their own
    stack's best sample, and one more eigensolve takes the other members
    it did not clear.  A cleared member is never a maximum, nor ties one.
    """
    G, d = M.shape[-3], M.shape[-1]
    if G * d * d < _SEARCH_MIN_ENTRIES:
        return linalg.sym_eig_max(M)
    shape, M = M.shape[:-2], M.reshape(-1, G, d, d)
    out = np.full(M.shape[:2], -np.inf)
    known = np.zeros(G, dtype=bool)
    known[::max(math.isqrt(G // 2), 1)] = known[-1] = True
    out[:, known] = linalg.sym_eig_max(M[:, known])
    cleared = linalg.proven_below(M.reshape(-1, d, d), np.repeat(out.max(axis=1), G))
    solve = ~known & ~cleared.reshape(out.shape)
    if solve.any():
        out[solve] = linalg.sym_eig_max(M[solve])
    return out.reshape(shape)


def _times(S, B):
    """S @ B for a (G, d, d) stack S and one d x d matrix B, as one 2-D GEMM."""
    return (S.reshape(-1, B.shape[0]) @ B).reshape(S.shape)


def _contraction_margins(model, cert, F0, W, thetas):
    """(modes, len(thetas)) array of lambda_max(F_i(theta)' W_i F_i(theta) - P_i)
    wherever it can be a slice's maximum, -inf elsewhere (see _max_search).

    Every report field is a maximum over the grid, so the report is the
    one of the full array.  F = E on a switched loop, where F0_i = I.
    """
    P = linalg.sym(cert.P)[:, None]  # exactly symmetric, so every M below is too
    margins = np.empty((model.modes, len(thetas)))
    for lo in range(0, len(thetas), _THETA_SLICE):
        hi = min(lo + _THETA_SLICE, len(thetas))
        M = np.empty((model.modes, hi - lo, model.dim, model.dim))
        for i, E in enumerate(_flows(model, thetas[lo:hi])):
            F = E if model.kind == "switched" else _times(E, F0[i])
            np.matmul(_times(np.swapaxes(F, -1, -2), W[i]), F, out=M[i])
        M = linalg.sym(M)  # its one temporary replaces the products
        M -= P
        margins[:, lo:hi] = _max_search(M)
    return margins


def _contraction_report(model, cert, dwell, grid, strict_tol):
    """The contraction margin at every grid point, reduced by _grid_verdict."""
    _validate(strict_tol, SLACK_TOL)  # before the grid is evaluated
    F0, W = _loop_data(model, cert)
    if grid is None:
        grid = DwellGrid.uniform(dwell)
    thetas = grid._array
    if thetas[0] < dwell.t_min - _COVER_TOL or thetas[-1] > dwell.t_max + _COVER_TOL:
        raise ConfigError(
            f"dwell grid [{thetas[0]}, {thetas[-1]}] leaves the dwell range "
            f"[{dwell.t_min}, {dwell.t_max}]"
        )
    margins = _contraction_margins(model, cert, F0, W, thetas)
    return _grid_verdict(margins, grid.points, strict_tol)


def _grid_verdict(margins, points, strict_tol):
    """Report of a (modes, len(points)) contraction-margin array: every
    margin is strict.  Records run mode-major, so an exact tie for the
    worst point goes to the first mode, then the first theta."""
    return _verdict(margins, [("contraction", len(points))], points,
                    margins.max() < -strict_tol, points, strict_tol, SLACK_TOL)


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

    A grid point outside [t_min, t_max] raises ConfigError; a grid inside
    the range need not reach its endpoints.
    """
    if model.kind == "impulsive":
        return check_impulsive(model, cert, dwell, grid, strict_tol)
    return check_switched(model, cert, dwell, grid, strict_tol)


def _theta_nodes(clock, dwell):
    if clock.nodes[-1] < dwell.t_max - _COVER_TOL:
        raise ConfigError(
            f"clock nodes end at {clock.nodes[-1]}, short of t_max = {dwell.t_max}"
        )
    thetas = {dwell.t_min, dwell.t_max}
    for t in clock.nodes:
        if dwell.t_min - _COVER_TOL <= t <= dwell.t_max + _COVER_TOL:
            thetas.add(min(max(t, dwell.t_min), dwell.t_max))
    return sorted(thetas)


def check_clock(model, clock, cert, eps, dwell, tol=SLACK_TOL):
    """Clock-function certificate test for either kind.

    Conditions, all non-strict up to tol:
      flow      -Sdot_i + Abar_i' S_i(tau) + S_i(tau) Abar_i <= 0 on [0, t_max]
      jump      -P_i + F0_i' S_i(theta) F0_i + eps I <= 0 on the range
      coupling  W_i - S_i(0) <= 0
    A positive eps is required for the certificate to count as passing, and
    a non-finite one is refused.  Each condition is one stacked eigenvalue
    call over every mode; records run mode-major: flow at both ends of each
    interval, jump, coupling.
    """
    _validate(STRICT_TOL, tol)  # before any eigenvalue work
    if not math.isfinite(eps):
        raise ConfigError(f"eps must be finite, got {eps}")
    F0, W = _loop_data(model, cert)
    _fit(model, clock.values)
    thetas = _theta_nodes(clock, dwell)
    taus = np.repeat(clock.nodes, 2)[1:-1]
    A = np.stack([model.drift(i) for i in range(model.modes)])[:, None]
    S, Sdot = clock.at(taus), np.repeat(clock.slopes(), 2, axis=1)
    flow = linalg.sym_eig_max(linalg.sym(-Sdot + np.swapaxes(A, -1, -2) @ S + S @ A))
    F, S = np.stack(F0)[:, None], clock.at(thetas)
    M = -cert.P[:, None] + np.swapaxes(F, -1, -2) @ S @ F
    jump = linalg.sym_eig_max(linalg.sym(M) + eps * np.eye(model.dim))
    coupling = linalg.sym_eig_max(linalg.sym(np.stack(W)) - clock.at([0.0])[:, 0])
    margins = np.concatenate([flow, jump, coupling[:, None]], axis=1)
    return _verdict(margins, [("flow", len(taus)), ("jump", len(thetas)), ("coupling", 1)],
                    np.concatenate([taus, thetas, [0.0]]),
                    eps > 0.0 and not (margins > tol).any(), thetas, STRICT_TOL, tol,
                    {"eps_positive": {"ok": bool(eps > 0.0), "value": eps}})


def exact_clock_family(cert, model, nodes):
    """Closed-form clock functions S_i(tau) = e^{Abar_i' tau} W_i e^{Abar_i tau}.

    Sampled exactly at the nodes; between nodes the family interpolates
    affinely, so downstream checks see the interpolant, not the exact curve.
    """
    _, W = _loop_data(model, cert)
    flows = _flows(model, np.asarray(nodes, dtype=float))
    return ClockFamily(nodes, [linalg.sym(np.swapaxes(E, -1, -2) @ linalg.sym(Wi) @ E)
                               for E, Wi in zip(flows, W)])
