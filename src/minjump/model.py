"""System specifications and the augmented-state lift.

An impulsive plant flows with xdot = A x + B u between samples and jumps
through one of N maps J_i at each sample; the held input u makes the
closed loop a pure impulsive system on the augmented state chi = (x, u).
The lift produces

    Abar = [[A, B], [0, 0]],   Jbar_i = [[J_i, 0], [K1_i, K2_i]]

and splits Jbar_i = Jbar0_i + Jbar1 K_i so gains stay an affine factor.
The switched variant carries one drift per mode and one jump map per
ordered mode pair (new mode j, previous mode i).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ModelError

WEIGHT_ENTRY_TOL = 1e-14
WEIGHT_COLSUM_TOL = 1e-12


def _numeric(value, name):
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{name} is not a numeric matrix: {exc}") from exc


def _mat(value, rows, cols, name):
    M = _numeric(value, name)
    if M.shape != (rows, cols):
        raise ModelError(f"{name} must have shape ({rows}, {cols}), got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ModelError(f"{name} contains non-finite entries")
    M.setflags(write=False)
    return M


@dataclass(frozen=True, eq=False)
class ImpulsiveSpec:
    """Single-drift plant with N jump maps; m = 0 means no input channel."""

    A: np.ndarray
    B: np.ndarray
    J: tuple

    def __init__(self, A, B=None, J=()):
        A = _numeric(A, "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ModelError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B is None:
            B = np.zeros((n, 0))
        B = _numeric(B, "B")
        if B.ndim == 1:
            B = B.reshape(n, -1)
        if B.ndim != 2:
            raise ModelError(f"B must be a matrix, got {B.ndim} dimensions")
        m = B.shape[1]
        object.__setattr__(self, "A", _mat(A, n, n, "A"))
        object.__setattr__(self, "B", _mat(B, n, m, "B"))
        maps = tuple(_mat(Ji, n, n, f"J[{i}]") for i, Ji in enumerate(J))
        if not maps:
            raise ModelError("at least one jump map is required")
        object.__setattr__(self, "J", maps)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def modes(self):
        return len(self.J)


@dataclass(frozen=True, eq=False)
class SwitchedSpec:
    """Per-mode drifts A_i, B_i and an N x N table of jump maps J[j][i].

    updates[j] lists the input channels reassigned on a jump into mode j;
    channels not listed hold their previous value across that jump.  The
    default reassigns every channel in every mode.
    """

    A: tuple
    B: tuple
    J: tuple
    updates: tuple

    def __init__(self, A, B=None, J=(), updates=None):
        drifts = [_numeric(Ai, f"A[{i}]") for i, Ai in enumerate(A)]
        if not drifts:
            raise ModelError("at least one mode is required")
        n = drifts[0].shape[0]
        N = len(drifts)
        if B is None:
            B = [np.zeros((n, 0))] * N
        inputs = [_numeric(Bi, f"B[{i}]") for i, Bi in enumerate(B)]
        if len(inputs) != N:
            raise ModelError(f"expected {N} input maps, got {len(inputs)}")
        for i, Bi in enumerate(inputs):
            if Bi.ndim == 1:
                inputs[i] = Bi.reshape(n, -1)
        if inputs[0].ndim != 2:
            raise ModelError("B entries must be matrices")
        m = inputs[0].shape[1]
        object.__setattr__(
            self, "A", tuple(_mat(Ai, n, n, f"A[{i}]") for i, Ai in enumerate(drifts))
        )
        object.__setattr__(
            self, "B", tuple(_mat(Bi, n, m, f"B[{i}]") for i, Bi in enumerate(inputs))
        )
        if len(J) != N or any(len(row) != N for row in J):
            raise ModelError("jump table must be N x N (new mode j, old mode i)")
        table = tuple(
            tuple(_mat(J[j][i], n, n, f"J[{j}][{i}]") for i in range(N))
            for j in range(N)
        )
        object.__setattr__(self, "J", table)
        if updates is None:
            updates = [range(m)] * N
        if len(updates) != N:
            raise ModelError(f"expected {N} update index lists, got {len(updates)}")
        checked = []
        for j, idx in enumerate(updates):
            try:
                idx = tuple(int(k) for k in idx)
            except (TypeError, ValueError) as exc:
                raise ModelError(f"updates[{j}] must hold channel indices: {exc}") from exc
            if len(set(idx)) != len(idx) or any(k < 0 or k >= m for k in idx):
                raise ModelError(f"updates[{j}] must be distinct channels below {m}")
            checked.append(idx)
        object.__setattr__(self, "updates", tuple(checked))

    @property
    def n(self):
        return self.A[0].shape[0]

    @property
    def m(self):
        return self.B[0].shape[1]

    @property
    def modes(self):
        return len(self.A)


@dataclass(frozen=True)
class DwellRange:
    """Admissible inter-sample interval [t_min, t_max], both in seconds."""

    t_min: float
    t_max: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "t_min", float(self.t_min))
            object.__setattr__(self, "t_max", float(self.t_max))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"dwell bounds must be numbers: {exc}") from exc
        if not (0.0 < self.t_min <= self.t_max < np.inf):
            raise ConfigError(
                f"dwell range must satisfy 0 < t_min <= t_max, got "
                f"[{self.t_min}, {self.t_max}]"
            )


@dataclass(frozen=True, eq=False)
class ModeWeights:
    """Nonnegative N x N weight matrix with unit column sums.

    Entry pi[j, i] weighs target mode j when mode i is the candidate being
    scored, so each column is a probability vector over successor modes.
    """

    pi: np.ndarray

    def __init__(self, pi):
        try:
            P = np.array(pi, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"weight matrix is not numeric: {exc}") from exc
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ConfigError(f"weight matrix must be square, got shape {P.shape}")
        P.setflags(write=False)
        object.__setattr__(self, "pi", P)

    @property
    def modes(self):
        return self.pi.shape[0]


@dataclass(frozen=True)
class WeightDiagnostics:
    ok: bool
    message: str
    column_sums: tuple
    min_entry: float

    def __bool__(self):
        return self.ok


def validate_weights(weights):
    """Check nonnegativity and unit column sums; returns truthy diagnostics."""
    P = weights.pi if isinstance(weights, ModeWeights) else np.asarray(weights, dtype=float)
    sums = tuple(float(s) for s in P.sum(axis=0))
    mn = float(P.min()) if P.size else 0.0
    problems = []
    if mn < -WEIGHT_ENTRY_TOL:
        problems.append(f"negative entry {mn:.3e}")
    bad = [i for i, s in enumerate(sums) if abs(s - 1.0) > WEIGHT_COLSUM_TOL]
    if bad:
        problems.append(
            "column sums off unity: " + ", ".join(f"col {i}: {sums[i]:.12f}" for i in bad)
        )
    ok = not problems
    msg = "ok" if ok else "; ".join(problems)
    return WeightDiagnostics(ok=ok, message=msg, column_sums=sums, min_entry=mn)


@dataclass(frozen=True, eq=False)
class AugmentedModel:
    """Lifted closed loop on chi = (x, u).

    kind is "impulsive" (one drift, per-mode jumps) or "switched" (per-mode
    drifts, jump table indexed [new mode][old mode]).  gains entries may be
    None for modes whose feedback is still to be designed; jump() requires
    the gain (or m = 0) for the mode it is asked about.
    """

    kind: str
    n: int
    m: int
    modes: int
    abar: tuple
    jbar0: tuple
    jbar1: object  # impulsive: one injection matrix; switched: tuple per target mode
    gains: tuple

    @property
    def dim(self):
        return self.n + self.m

    def drift(self, i=0):
        return self.abar[i if self.kind == "switched" else 0]

    def gain(self, *idx):
        g = self.gains
        for k in idx:
            g = g[k]
        return g

    @property
    def gain_slots(self):
        """Index of every gain in order: (i,) when impulsive, (j, i) when switched."""
        N = range(self.modes)
        return [(i,) for i in N] if self.kind == "impulsive" else [(j, i) for j in N for i in N]

    def nest(self, flat):
        """One value per gain slot, nested like gains: [i] or [j][i]."""
        if self.kind == "impulsive":
            return list(flat)
        return [list(flat[j:j + self.modes]) for j in range(0, len(flat), self.modes)]

    def injection(self, j=None):
        """Input-injection matrix: columns reach the channels updated on a jump."""
        return self.jbar1 if self.kind == "impulsive" else self.jbar1[j]

    def _assemble(self, jbar0, jbar1, gain, label):
        if jbar1.shape[1] == 0:
            return jbar0
        if gain is None:
            raise ModelError(f"no gain available for {label}")
        return jbar0 + jbar1 @ gain

    def jump(self, *idx):
        """Assembled jump map Jbar for mode i, or pair (j, i) when switched."""
        if self.kind == "impulsive":
            (i,) = idx
            return self._assemble(self.jbar0[i], self.jbar1, self.gains[i], f"mode {i}")
        j, i = idx
        return self._assemble(
            self.jbar0[j][i], self.jbar1[j], self.gains[j][i], f"modes ({j}, {i})"
        )

    @cached_property
    def jump_table(self):
        """Every jump map in one read-only (modes, sources, dim, dim) array:
        [j, i] = jump(j, i) when switched, [j, 0] = jump(j) when impulsive."""
        table = np.array([self.jump(*idx) for idx in self.gain_slots])
        table = table.reshape(self.modes, -1, self.dim, self.dim)
        table.setflags(write=False)
        return table

    def with_gains(self, gains):
        rows = self.jbar1.shape[1] if self.kind == "impulsive" else [
            jb.shape[1] for jb in self.jbar1
        ]
        checked = _check_gains(self.kind, gains, self.modes, rows, self.dim)
        return AugmentedModel(
            kind=self.kind, n=self.n, m=self.m, modes=self.modes,
            abar=self.abar, jbar0=self.jbar0, jbar1=self.jbar1, gains=checked,
        )


def _check_gains(kind, gains, N, rows, dim):
    """rows: gain row count, per target mode for switched (list) else scalar."""

    def one(g, r, label):
        if g is None:
            return None
        return _mat(g, r, dim, f"gain {label}")

    if gains is None:
        if kind == "impulsive":
            return (None,) * N
        return tuple((None,) * N for _ in range(N))
    if kind == "impulsive":
        if len(gains) != N:
            raise ModelError(f"expected {N} gains, got {len(gains)}")
        return tuple(one(g, rows, str(i)) for i, g in enumerate(gains))
    if len(gains) != N or any(len(row) != N for row in gains):
        raise ModelError("switched gains must form an N x N table")
    return tuple(
        tuple(one(gains[j][i], rows[j], f"({j}, {i})") for i in range(N))
        for j in range(N)
    )


def _lift_drift(A, B):
    n, m = A.shape[0], B.shape[1]
    Ab = np.zeros((n + m, n + m))
    Ab[:n, :n] = A
    Ab[:n, n:] = B
    return Ab


def _lift_jump(J, n, m):
    Jb = np.zeros((n + m, n + m))
    Jb[:n, :n] = J
    return Jb


def augment_impulsive(spec, gains=None):
    """Lift an impulsive plant to the augmented state chi = (x, u)."""
    n, m, N = spec.n, spec.m, spec.modes
    jbar1 = np.vstack([np.zeros((n, m)), np.eye(m)])
    return AugmentedModel(
        kind="impulsive",
        n=n,
        m=m,
        modes=N,
        abar=(_lift_drift(spec.A, spec.B),),
        jbar0=tuple(_lift_jump(Ji, n, m) for Ji in spec.J),
        jbar1=jbar1,
        gains=_check_gains("impulsive", gains, N, m, n + m),
    )


def augment_switched(spec, gains=None):
    """Lift a switched-impulsive plant; jump table stays indexed [j][i].

    Input channels outside spec.updates[j] get identity hold rows in the
    base jump map for target mode j; the designed rows enter through a
    per-mode injection matrix.
    """
    n, m, N = spec.n, spec.m, spec.modes
    eye = np.eye(n + m)
    jbar1 = tuple(eye[:, [n + k for k in spec.updates[j]]] for j in range(N))
    jbar0 = []
    for j in range(N):
        hold = np.zeros((n + m, n + m))
        for k in range(m):
            if k not in spec.updates[j]:
                hold[n + k, n + k] = 1.0
        jbar0.append(
            tuple(_lift_jump(spec.J[j][i], n, m) + hold for i in range(N))
        )
    return AugmentedModel(
        kind="switched",
        n=n,
        m=m,
        modes=N,
        abar=tuple(_lift_drift(spec.A[i], spec.B[i]) for i in range(N)),
        jbar0=tuple(jbar0),
        jbar1=jbar1,
        gains=_check_gains(
            "switched", gains, N, [len(spec.updates[j]) for j in range(N)], n + m
        ),
    )
