"""System specifications and the augmented-state lift.

An impulsive plant flows with xdot = A x + B u between samples and jumps
through one of N maps J_i at each sample; the held input u makes the
closed loop a pure impulsive system on the augmented state chi = (x, u).
The lift produces

    Abar = [[A, B], [0, 0]],   Jbar_i = [[J_i, 0], [K1_i, K2_i]]

and splits Jbar_i = Jbar0_i + Jbar1 K_i so gains stay an affine factor.
The switched variant carries one drift per mode and one jump map per
ordered mode pair (new mode j, previous mode i).

Every value from outside the program (a JSON config, a result file or a
library caller) is converted here, by one of two readers: _num takes a
number, _numeric an array of an exact shape.  Each refuses what it cannot
read with the error class its caller names, so the other modules only
ever see floats, ints and read-only float arrays.
"""

import numbers
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import getitem

import numpy as np

from .errors import ConfigError, ModelError

WEIGHT_ENTRY_TOL = 1e-14
WEIGHT_COLSUM_TOL = 1e-12

# no float array has more entries: its byte count must fit a signed index
MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(float).itemsize


def _num(value, what, conv=float, error=ConfigError):
    """A number as conv.  None, bools and strings are refused, and a count
    (conv int) must be whole and small enough to size an array."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        out = conv(value)
    except (ValueError, OverflowError) as exc:  # int(nan), int(inf), float(10**400)
        raise error(f"{what} must be a number, got {value!r}") from exc
    if conv is int and out != value:
        raise error(f"{what} must be a whole number, got {value!r}")
    if conv is int and abs(out) > MAX_ENTRIES:
        raise error(f"{what} is out of range, got {value!r}")
    return out


def _numeric(value, what, shape, error=ModelError):
    """A finite array of exactly shape, as a read-only float copy.

    An int in shape is that length; a name is any length, the same at each
    place it appears, so ("d", "d") is a square matrix.
    """
    try:
        M = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not a numeric array: {exc}") from exc
    named = {}  # the length each name took where it first appeared
    if M.ndim != len(shape) or not all(
            named.setdefault(want, have) == have if isinstance(want, str) else want == have
            for want, have in zip(shape, M.shape)):
        raise error(f"{what} must have shape ({', '.join(map(str, shape))}), got {M.shape}")
    if not np.isfinite(M).all():
        raise error(f"{what} contains non-finite entries")
    M.setflags(write=False)
    return M


def _items(value, name, error=ModelError):
    """The entries of a per-mode list; a scalar, which has none, raises error."""
    try:
        return list(value)
    except TypeError as exc:
        raise error(f"{name} must be a list, got {value!r}") from exc


@dataclass(frozen=True, eq=False)
class ImpulsiveSpec:
    """Single-drift plant with N jump maps; m = 0 means no input channel."""

    A: np.ndarray
    B: np.ndarray
    J: tuple

    def __init__(self, A, B=None, J=()):
        A = _numeric(A, "A", ("n", "n"))
        n = len(A)
        B = np.zeros((n, 0)) if B is None else B
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", _numeric(B, "B", (n, "m")))
        object.__setattr__(self, "J", tuple(_numeric(J, "J", ("modes", n, n))))
        if not self.J:
            raise ModelError("at least one jump map is required")

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
        A = _numeric(A, "A", ("modes", "n", "n"))
        N, n = A.shape[:2]
        if not N:
            raise ModelError("at least one mode is required")
        B = _numeric(np.zeros((N, n, 0)) if B is None else B, "B", (N, n, "m"))
        m = B.shape[2]
        object.__setattr__(self, "A", tuple(A))
        object.__setattr__(self, "B", tuple(B))
        object.__setattr__(self, "J", tuple(map(tuple, _numeric(J, "J", (N, N, n, n)))))
        if updates is None:
            updates = [range(m)] * N
        updates = _items(updates, "updates")
        if len(updates) != N:
            raise ModelError(f"expected {N} update index lists, got {len(updates)}")
        checked = []
        for j, idx in enumerate(updates):
            idx = tuple(_num(k, f"updates[{j}]", int, ModelError)
                        for k in _items(idx, f"updates[{j}]"))
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
        object.__setattr__(self, "t_min", _num(self.t_min, "dwell.t_min"))
        object.__setattr__(self, "t_max", _num(self.t_max, "dwell.t_max"))
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
    The constructor is the one place this is checked: entries finite and
    >= -WEIGHT_ENTRY_TOL, column sums within WEIGHT_COLSUM_TOL of one.
    """

    pi: np.ndarray

    def __init__(self, pi):
        P = _numeric(pi, "weight matrix", ("N", "N"), ConfigError)
        low = P.min() if P.size else 0.0
        problems = [f"negative entry {low:.3e}"] if low < -WEIGHT_ENTRY_TOL else []
        bad = ", ".join(f"col {i}: {s:.12f}" for i, s in enumerate(P.sum(axis=0))
                        if abs(s - 1.0) > WEIGHT_COLSUM_TOL)
        if bad:
            problems.append("column sums off unity: " + bad)
        if problems:
            raise ConfigError("invalid mode weights: " + "; ".join(problems))
        object.__setattr__(self, "pi", P)

    @property
    def modes(self):
        return self.pi.shape[0]


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
        """Gain K of slot idx, None while it is to be designed."""
        return reduce(getitem, idx, self.gains)

    def base(self, *idx):
        """Jbar0 of gain slot idx: the jump map before its gain enters."""
        return reduce(getitem, idx, self.jbar0)

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

    def jump(self, *idx):
        """Assembled jump map Jbar0 + Jbar1 K of gain slot idx: (i,) when
        impulsive, (j, i) when switched."""
        base, inj = self.base(*idx), self.injection(*idx[:-1])
        if inj.shape[1] == 0:
            return base
        gain = self.gain(*idx)
        if gain is None:
            where = f"mode {idx[0]}" if len(idx) == 1 else f"modes {idx}"
            raise ModelError(f"no gain available for {where}")
        return base + inj @ gain

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
        return _numeric(g, f"gain {label}", (r, dim))

    if gains is None:
        if kind == "impulsive":
            return (None,) * N
        return tuple((None,) * N for _ in range(N))
    gains = _items(gains, "gains")
    if kind == "impulsive":
        if len(gains) != N:
            raise ModelError(f"expected {N} gains, got {len(gains)}")
        return tuple(one(g, rows, str(i)) for i, g in enumerate(gains))
    gains = [_items(row, f"gains[{j}]") for j, row in enumerate(gains)]
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
