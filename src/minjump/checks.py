"""Numerical verification of min-jumping stability certificates.

Two families of conditions are checked:

- direct contraction tests: for every admissible dwell length theta the
  weighted post-jump storage must contract, e.g.
  Jbar_i' e^{Abar' theta} (sum_j pi_ji P_j) e^{Abar theta} Jbar_i - P_i < 0
  for the impulsive loop (the switched variant folds the jump maps into the
  weighted sum instead).  These are evaluated on a dwell grid whose density
  is recorded in the report; the grid is a sampled relaxation of the
  all-theta condition.

- clock-function tests: a piecewise-affine matrix family S_i(tau) on
  [0, t_max] replaces the explicit exponentials.  The differential condition
  is affine in tau on each interval, so checking both interval endpoints is
  exact, not a sampling approximation; the same holds for the theta-dependent
  blocks at the clock nodes covering [t_min, t_max].

Strict conditions must clear -STRICT_TOL; non-strict ones may sit up to the
slack tolerance above zero.  Eigenvalue margins come from LAPACK's
symmetric eigensolver through linalg.sym_eig_max, a code path separate
from the interior-point solver that produced the data.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CertificateError, ConfigError, ModelError

STRICT_TOL = 1e-7
SLACK_TOL = 1e-9
DEFAULT_GRID_POINTS = 200

_COVER_TOL = 1e-12
# dwell points per batched grid evaluation.  The stacked temporaries take
# about 1.2 KB per point at d = 4 and 10 KB at d = 12, so a slice stays
# near 1 MB and 10 MB however dense the user's grid is.
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
        pts = tuple(float(p) for p in points)
        if not pts:
            raise ConfigError("dwell grid needs at least one point")
        if any(not np.isfinite(p) for p in pts):
            raise ConfigError("dwell grid contains non-finite points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ConfigError("dwell grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

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

    nodes run from 0 to the horizon; values[i][k] is the symmetric matrix of
    mode i at node k and evaluation interpolates affinely between nodes, so
    the slope is piecewise constant.
    """

    nodes: tuple
    values: tuple

    def __init__(self, nodes, values):
        nds = tuple(float(t) for t in nodes)
        if len(nds) < 2:
            raise ConfigError("clock family needs at least two nodes")
        if abs(nds[0]) > _COVER_TOL:
            raise ConfigError("clock nodes must start at 0")
        if any(b <= a for a, b in zip(nds, nds[1:])):
            raise ConfigError("clock nodes must be strictly increasing")
        vals = []
        dim = None
        for i, per_mode in enumerate(values):
            mats = tuple(np.array(M, dtype=float) for M in per_mode)
            if len(mats) != len(nds):
                raise ConfigError(f"mode {i} has {len(mats)} values for {len(nds)} nodes")
            for M in mats:
                if dim is None:
                    dim = M.shape[0]
                if M.shape != (dim, dim):
                    raise ConfigError("clock values must share one square dimension")
                M.setflags(write=False)
            vals.append(mats)
        object.__setattr__(self, "nodes", nds)
        object.__setattr__(self, "values", tuple(vals))

    @property
    def modes(self):
        return len(self.values)

    @property
    def dim(self):
        return self.values[0][0].shape[0]

    @property
    def horizon(self):
        return self.nodes[-1]

    def interval_of(self, tau):
        """Index k with nodes[k] <= tau <= nodes[k+1]."""
        if tau < self.nodes[0] - _COVER_TOL or tau > self.nodes[-1] + _COVER_TOL:
            raise ConfigError(f"tau = {tau} outside clock node span")
        k = int(np.searchsorted(self.nodes, tau, side="right")) - 1
        return min(max(k, 0), len(self.nodes) - 2)

    def value(self, mode, tau):
        k = self.interval_of(tau)
        a, b = self.nodes[k], self.nodes[k + 1]
        w = (tau - a) / (b - a)
        return (1.0 - w) * self.values[mode][k] + w * self.values[mode][k + 1]

    def slope(self, mode, k):
        h = self.nodes[k + 1] - self.nodes[k]
        return (self.values[mode][k + 1] - self.values[mode][k]) / h


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

    @property
    def worst_point(self):
        return (self.worst_mode, self.worst_theta)

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


class _Collector:
    def __init__(self, modes, strict_tol, slack_tol):
        self.records = []
        self.modes = modes
        self.strict_tol = strict_tol
        self.slack_tol = slack_tol
        self.flags = {}

    def add(self, condition, mode, theta, margin, strict):
        self.records.append((condition, mode, theta, float(margin), strict))

    def flag(self, name, ok, detail):
        self.flags[name] = {"ok": bool(ok), "value": detail}

    def report(self, grid):
        ok = all(f["ok"] for f in self.flags.values())
        per_condition = {}
        mode_worst = [-np.inf] * self.modes
        worst = None
        for condition, mode, theta, margin, strict in self.records:
            limit = -self.strict_tol if strict else self.slack_tol
            violated = margin >= limit if strict else margin > limit
            if violated:
                ok = False
            if condition not in per_condition or margin > per_condition[condition]:
                per_condition[condition] = margin
            if margin > mode_worst[mode]:
                mode_worst[mode] = margin
            if worst is None or margin > worst[3]:
                worst = (condition, mode, theta, margin)
        if worst is None:
            raise ConfigError("no conditions were evaluated")
        return VerificationReport(
            passed=ok,
            worst_margin=worst[3],
            worst_condition=worst[0],
            worst_mode=worst[1],
            worst_theta=worst[2],
            per_condition=per_condition,
            mode_margins=tuple(mode_worst),
            grid=tuple(grid),
            strict_tol=self.strict_tol,
            slack_tol=self.slack_tol,
            flags=dict(self.flags),
        )


def _require_kind(model, kind, what):
    if model.kind != kind:
        raise ModelError(f"{what} requires a {kind} model")


def _require_cert(model, cert):
    if cert.dim != model.dim:
        raise CertificateError(
            f"certificate dimension {cert.dim} does not match model dimension {model.dim}"
        )
    if cert.modes != model.modes:
        raise CertificateError(
            f"certificate has {cert.modes} modes, model has {model.modes}"
        )


def _contraction_report(model, cert, dwell, grid, strict_tol, weighted, flows,
                        theta_major):
    """lambda_max(F_i(theta)' W_i F_i(theta) - P_i) at every grid point.

    flows(thetas) returns, per mode, the (len(thetas), d, d) stack of
    F_i(theta).  The record order, theta-major or mode-major, fixes how
    ties in the worst point resolve.
    """
    if grid is None:
        grid = DwellGrid.uniform(dwell)
    thetas = np.asarray(grid.points)
    margins = np.empty((model.modes, len(thetas)))
    for lo in range(0, len(thetas), _THETA_SLICE):
        hi = lo + _THETA_SLICE
        for i, F in enumerate(flows(thetas[lo:hi])):
            M = linalg.sym(np.swapaxes(F, -1, -2) @ weighted[i] @ F) - cert.P[i]
            margins[i, lo:hi] = linalg.sym_eig_max(M)
    modes, points = range(model.modes), range(len(thetas))
    if theta_major:
        order = ((i, k) for k in points for i in modes)
    else:
        order = ((i, k) for i in modes for k in points)
    coll = _Collector(model.modes, strict_tol, SLACK_TOL)
    for i, k in order:
        coll.add("contraction", i, grid.points[k], margins[i, k], strict=True)
    return coll.report(grid.points)


def check_impulsive(model, cert, dwell, grid=None, strict_tol=STRICT_TOL):
    """Dwell-grid contraction test for the impulsive min-jumping loop.

    F_i(theta) = e^{Abar theta} Jbar_i and W_i = sum_j pi_ji P_j.
    """
    _require_kind(model, "impulsive", "check_impulsive")
    _require_cert(model, cert)
    pi = cert.weights.pi
    weighted = [
        sum(pi[j, i] * cert.P[j] for j in range(model.modes))
        for i in range(model.modes)
    ]
    jumps = [model.jump(i) for i in range(model.modes)]

    def flows(thetas):
        E = linalg.expm(model.drift(), thetas)
        return [E @ J for J in jumps]

    return _contraction_report(model, cert, dwell, grid, strict_tol, weighted,
                               flows, theta_major=True)


def check_switched(model, cert, dwell, grid=None, strict_tol=STRICT_TOL):
    """Dwell-grid contraction test for the switched min-jumping loop.

    F_i(theta) = e^{Abar_i theta} and W_i = sum_j pi_ji Jbar_ji' P_j Jbar_ji.
    """
    _require_kind(model, "switched", "check_switched")
    _require_cert(model, cert)
    pi = cert.weights.pi
    weighted = [
        linalg.sym(sum(pi[j, i] * (model.jump(j, i).T @ cert.P[j] @ model.jump(j, i))
                       for j in range(model.modes)))
        for i in range(model.modes)
    ]

    def flows(thetas):
        return [linalg.expm(model.drift(i), thetas) for i in range(model.modes)]

    return _contraction_report(model, cert, dwell, grid, strict_tol, weighted,
                               flows, theta_major=False)


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


def check_clock_impulsive(model, clock, cert, eps, dwell, tol=SLACK_TOL):
    """Clock-function certificate test for the impulsive loop.

    Conditions, all non-strict up to tol:
      flow      -Sdot_i + Abar' S_i(tau) + S_i(tau) Abar <= 0 on [0, t_max]
      jump      -P_i + Jbar_i' S_i(theta) Jbar_i + eps I <= 0 on the range
      coupling  sum_j pi_ji P_j - S_i(0) <= 0
    A positive eps is required for the certificate to count as passing.
    """
    _require_kind(model, "impulsive", "check_clock_impulsive")
    _require_cert(model, cert)
    thetas = _theta_nodes(clock, dwell)
    A = model.drift()
    pi = cert.weights.pi
    d = model.dim
    coll = _Collector(model.modes, STRICT_TOL, tol)
    coll.flag("eps_positive", eps > 0.0, eps)
    for i in range(model.modes):
        for k in range(len(clock.nodes) - 1):
            Sdot = clock.slope(i, k)
            for tau in (clock.nodes[k], clock.nodes[k + 1]):
                S = clock.value(i, tau)
                margin = linalg.sym_eig_max(linalg.sym(-Sdot + A.T @ S + S @ A))
                coll.add("flow", i, tau, margin, strict=False)
        Ji = model.jump(i)
        for theta in thetas:
            S = clock.value(i, theta)
            margin = linalg.sym_eig_max(
                linalg.sym(-cert.P[i] + Ji.T @ S @ Ji) + eps * np.eye(d)
            )
            coll.add("jump", i, theta, margin, strict=False)
        Q = sum(pi[j, i] * cert.P[j] for j in range(model.modes))
        margin = linalg.sym_eig_max(linalg.sym(Q) - clock.value(i, 0.0))
        coll.add("coupling", i, 0.0, margin, strict=False)
    return coll.report(thetas)


def check_clock_switched(model, clock, cert, eps, dwell, tol=SLACK_TOL):
    """Clock-function certificate test for the switched loop.

    flow      -Sdot_i + Abar_i' S_i(tau) + S_i(tau) Abar_i <= 0
    jump      -P_i + S_i(theta) + eps I <= 0 on the range
    coupling  sum_j pi_ji Jbar_ji' P_j Jbar_ji - S_i(0) <= 0
    """
    _require_kind(model, "switched", "check_clock_switched")
    _require_cert(model, cert)
    thetas = _theta_nodes(clock, dwell)
    pi = cert.weights.pi
    d = model.dim
    coll = _Collector(model.modes, STRICT_TOL, tol)
    coll.flag("eps_positive", eps > 0.0, eps)
    for i in range(model.modes):
        A = model.drift(i)
        for k in range(len(clock.nodes) - 1):
            Sdot = clock.slope(i, k)
            for tau in (clock.nodes[k], clock.nodes[k + 1]):
                S = clock.value(i, tau)
                margin = linalg.sym_eig_max(linalg.sym(-Sdot + A.T @ S + S @ A))
                coll.add("flow", i, tau, margin, strict=False)
        for theta in thetas:
            S = clock.value(i, theta)
            margin = linalg.sym_eig_max(
                linalg.sym(-cert.P[i] + S) + eps * np.eye(d)
            )
            coll.add("jump", i, theta, margin, strict=False)
        Q = np.zeros((d, d))
        for j in range(model.modes):
            Jji = model.jump(j, i)
            Q = Q + pi[j, i] * (Jji.T @ cert.P[j] @ Jji)
        margin = linalg.sym_eig_max(linalg.sym(Q) - clock.value(i, 0.0))
        coll.add("coupling", i, 0.0, margin, strict=False)
    return coll.report(thetas)


def exact_clock_family(cert, model, nodes):
    """Closed-form clock functions S_i(tau) = e^{A' tau} (sum_j pi_ji P_j) e^{A tau}.

    Sampled exactly at the nodes; between nodes the family interpolates
    affinely, so downstream checks see the interpolant, not the exact curve.
    """
    _require_kind(model, "impulsive", "exact_clock_family")
    _require_cert(model, cert)
    A = model.drift()
    pi = cert.weights.pi
    E = linalg.expm(A, np.asarray(nodes, dtype=float))
    Et = np.swapaxes(E, -1, -2)
    values = []
    for i in range(model.modes):
        Q = linalg.sym(sum(pi[j, i] * cert.P[j] for j in range(model.modes)))
        values.append(linalg.sym(Et @ Q @ E))
    return ClockFamily(nodes, values)
