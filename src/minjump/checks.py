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
from the interior-point solver that produced the data.  On a large dwell
grid the eigensolver runs only where a mode's maximum can be (_max_search):
at each mode's two dwell ends, then where linalg.proven_below cannot prove
a point below its mode's best so far; every report field is a maximum, so
the report is a full eigensolve's, bit for bit.  A stack times one fixed
matrix is one 2-D GEMM (_times), bitwise the stacked per-member products
on the BLAS in use, which the oracle tests hold.

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
from .model import _increasing, _num, _numeric
from .rules import _fit

STRICT_TOL = 1e-7
SLACK_TOL = 1e-9
DEFAULT_GRID_POINTS = 200

# Below this many points or stacked entries (G d^2), or at d = 1, one
# eigensolve costs less than the search (timed at d = 1..12, G = 4..1024).
_SEARCH_MIN_POINTS, _SEARCH_MIN_ENTRIES = 20, 512

_COVER_TOL = 1e-12  # a clock family's own slack: first node to 0, a tau to the node span
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
    at node k, interpolated affinely between nodes (a piecewise constant slope).
    """

    nodes: tuple
    values: np.ndarray

    def __init__(self, nodes, values):
        nds = tuple(_increasing(nodes, "clock nodes").tolist())
        if len(nds) < 2:
            raise ConfigError("clock family needs at least two nodes")
        if abs(nds[0]) > _COVER_TOL:
            raise ConfigError("clock nodes must start at 0")
        object.__setattr__(self, "nodes", nds)
        object.__setattr__(self, "values", _numeric(values, "clock values",
                                                  ("modes", len(nds), "d", "d"), ConfigError))

    def outside(self, taus):
        """Mask of the taus more than _COVER_TOL outside the node span: the one
        rule on where the family is defined, t_max included."""
        return (np.less(taus, self.nodes[0] - _COVER_TOL)
                | np.greater(taus, self.nodes[-1] + _COVER_TOL))

    def at(self, taus):
        """Every mode's S at each tau of a 1-D array: the (modes, len(taus), d, d) stack."""
        taus, nodes = np.asarray(taus, dtype=float), np.asarray(self.nodes)
        outside = self.outside(taus)
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
    """Outcome of a certificate check: worst_margin is the largest eigenvalue
    margin found anywhere; it passes when every strict condition clears
    -strict_tol, every non-strict one stays within slack_tol of zero and
    every required positivity flag holds."""

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


def _tol(value, name):
    """A tolerance as a float; a NaN or negative one would pass failing margins."""
    tol = _num(value, f"{name} tolerance")
    if not 0.0 <= tol < np.inf:
        raise ConfigError(f"{name} tolerance must be finite and nonnegative, got {tol}")
    return tol


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


def _searched(G, d):
    """Whether the search pays on a (G, d, d) stack."""
    return d > 1 and G >= _SEARCH_MIN_POINTS and G * d * d >= _SEARCH_MIN_ENTRIES


def _max_search(M):
    """lambda_max of each member of the symmetric (..., G, d, d) stack M
    where its (G, d, d) stack's maximum can be; -inf where proven below it.

    Each stack's first largest value and its index are those of
    sym_eig_max(M) bit for bit.  Each round is one call over every stack.
    Round 1 eigensolves the two ends; linalg.proven_below clears members
    strictly below their stack's best end.  If the most any stack left, c,
    pays a search, round 2 eigensolves every s-th member left, s =
    floor(sqrt(c / 2)), and, if that raised a best, proves the rest again.
    A last eigensolve takes what is open.  A cleared member never ties.
    """
    G, d = M.shape[-3], M.shape[-1]
    if not _searched(G, d):
        return linalg.sym_eig_max(M)
    shape, M = M.shape[:-2], M.reshape(-1, G, d, d)
    out = np.full(M.shape[:2], -np.inf)
    out[:, ::G - 1] = linalg.sym_eig_max(M[:, ::G - 1])
    flat, best = M.reshape(-1, d, d), out.max(axis=1)
    left = ~linalg.proven_below(flat, np.repeat(best, G)).reshape(out.shape)
    left[:, ::G - 1] = False
    most = int(left.sum(axis=1).max())
    if _searched(most, d):
        idx = np.flatnonzero(left)[::math.isqrt(most // 2)]
        out.reshape(-1)[idx] = linalg.sym_eig_max(flat[idx])
        left.reshape(-1)[idx] = False
        top = out.max(axis=1)
        if (top > best).any():  # else the proof would clear nothing new
            left[left] = ~linalg.proven_below(M[left], np.repeat(top, left.sum(axis=1)))
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
            np.matmul(_times(np.swapaxes(F, -1, -2), W[i]), F, out=M[i])
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
    if dwell.outside((thetas[0], thetas[-1])).any():
        raise ConfigError(f"dwell grid [{thetas[0]}, {thetas[-1]}] leaves the dwell range "
                          f"[{dwell.t_min}, {dwell.t_max}]")
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

    grid, a DwellGrid or a sequence of points, need not reach the ends of
    the dwell range; a point outside it (DwellRange.outside) is a ConfigError.
    """
    kind_check = check_impulsive if model.kind == "impulsive" else check_switched
    return kind_check(model, cert, dwell, grid, strict_tol)


def _covering(nodes, dwell):
    """Indices of the clock nodes in the dwell range, where its conditions are imposed."""
    return np.flatnonzero(~dwell.outside(nodes)).tolist()


def _theta_nodes(clock, dwell):
    if clock.outside(dwell.t_max):
        raise ConfigError(f"clock nodes end at {clock.nodes[-1]}, short of t_max = {dwell.t_max}")
    inside = (min(max(clock.nodes[k], dwell.t_min), dwell.t_max)
              for k in _covering(clock.nodes, dwell))
    return sorted({dwell.t_min, dwell.t_max, *inside})


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
    tol = _tol(tol, "slack")  # before any eigenvalue work
    eps = _num(eps, "eps")
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
    flows = _flows(model, _increasing(nodes, "clock nodes"))
    return ClockFamily(nodes, [linalg.sym(np.swapaxes(E, -1, -2) @ linalg.sym(Wi) @ E)
                               for E, Wi in zip(flows, W)])
