"""System specifications and the augmented-state lift.

An impulsive plant flows with xdot = A x + B u between samples and jumps
through one of N maps J_i at each sample; the held input u makes the
closed loop a pure impulsive system on the augmented state chi = (x, u).
The lift produces

    Abar = [[A, B], [0, 0]],   Jbar_i = [[J_i, 0], [K1_i, K2_i]]

and splits Jbar_i = Jbar0_i + Jbar1 K_i so gains stay an affine factor.
The switched variant carries one drift per mode and one jump map per
ordered mode pair (new mode j, previous mode i).

One lift serves both kinds.  It keeps every base map Jbar0, gain K and
injection Jbar1 in one [target][source] table: Jbar0[j][s] and K[j][s]
for target mode j and source column s, Jbar1[j] per target mode.  A
switched model has a column per previous mode; an impulsive one is the
case of the single column s = 0, every channel updated on every jump.
Only the drifts (one, or one per mode), the gain slots with their nesting
in configs and result files, and the reading of a gains argument stay per
kind.

Every value from outside the program is converted here, by _num (a
number), _numeric (an array of an exact shape) or _increasing (a strictly
increasing sequence: grid points, clock nodes, sampling times).  Each
refuses what it cannot read with the error class its caller names, so the
other modules only see floats, ints and read-only float arrays.
DwellRange.outside is the one rule on whether a dwell lies in its range.
"""

import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, ModelError

WEIGHT_ENTRY_TOL = 1e-14
WEIGHT_COLSUM_TOL = 1e-12
DWELL_TOL = 1e-12  # DwellRange.tol per unit of max(1, t_max)

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

    Every entry must be a real number: a string or a bool is refused, not
    read as one.  An int in shape is that length; a name is any length, the
    same at each place it appears, so ("d", "d") is a square matrix.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        M = np.array(value, dtype=float)
    else:
        try:
            M = np.array(value, dtype=object)
            for t in dict.fromkeys(map(type, M.flat)):  # each type once, in order
                if issubclass(t, bool) or not issubclass(t, numbers.Real):
                    raise TypeError(f"an entry of type {t.__name__} is not a real number")
            M = M.astype(float)
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


def _increasing(value, what):
    """_numeric's finite 1-D array, nonempty and strictly increasing, or a ConfigError."""
    M = _numeric(value, what, ("K",), ConfigError)
    if not M.size or np.count_nonzero(M[1:] <= M[:-1]):
        raise ConfigError(f"{what} must hold at least one point, strictly increasing")
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
    """Admissible inter-sample interval [t_min, t_max], both in seconds.  outside()
    is the one membership rule: within tol = DWELL_TOL * max(1, t_max) of an end."""

    t_min: float
    t_max: float
    tol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t_min", _num(self.t_min, "dwell.t_min"))
        object.__setattr__(self, "t_max", _num(self.t_max, "dwell.t_max"))
        if not (0.0 < self.t_min <= self.t_max < np.inf):
            raise ConfigError(f"dwell range must satisfy 0 < t_min <= t_max, got "
                              f"[{self.t_min}, {self.t_max}]")
        object.__setattr__(self, "tol", DWELL_TOL * max(1.0, self.t_max))

    def outside(self, values):
        """Mask of the values more than tol below t_min or above t_max."""
        return np.less(values, self.t_min - self.tol) | np.greater(values, self.t_max + self.tol)


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
    """Lifted closed loop on chi = (x, u), in one [target][source] table.

    jbar0[j][s] is the base map into mode j from source column s,
    gains[j][s] its gain (None while it is to be designed) and jbar1[j] the
    injection of target mode j.  A switched model has a column per previous
    mode and slots (j, s); an impulsive one the single column s = 0, its
    slot (i,) meaning (i, 0).  Per kind stay abar (one drift, or one per
    mode), the gain slots with their nesting in configs and result files,
    and the reading of a gains argument.
    """

    kind: str
    n: int
    m: int
    modes: int
    abar: tuple
    jbar0: tuple
    jbar1: tuple
    gains: tuple

    @property
    def dim(self):
        return self.n + self.m

    def drift(self, i=0):
        return self.abar[i if self.kind == "switched" else 0]

    def gain(self, *idx):
        """Gain K of slot idx, None while it is to be designed."""
        return _at(self.gains, idx)

    def base(self, *idx):
        """Jbar0 of gain slot idx: the jump map before its gain enters."""
        return _at(self.jbar0, idx)

    @property
    def gain_slots(self):
        """Index of every gain in order: (i,) when impulsive, (j, i) when switched."""
        N = range(self.modes)
        return [(i,) for i in N] if self.kind == "impulsive" else [(j, i) for j in N for i in N]

    def nest(self, flat):
        """One value per gain slot, nested like gains in a config: [i] or [j][i]."""
        if self.kind == "impulsive":
            return list(flat)
        return [list(flat[j:j + self.modes]) for j in range(0, len(flat), self.modes)]

    def injection(self, j=0):
        """Input-injection matrix of target mode j: its columns reach the
        channels updated on a jump into j."""
        return self.jbar1[j]

    def jump(self, *idx):
        """Assembled jump map Jbar0 + Jbar1 K of gain slot idx: (i,) when
        impulsive, (j, i) when switched."""
        base, inj = self.base(*idx), self.injection(idx[0])
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

    def _unnest(self, gains):
        """nest's inverse: one entry of gains per slot.  None is every slot
        open; a table of the wrong shape raises ModelError."""
        N = self.modes
        if gains is None:
            return [None] * len(self.gain_slots)
        if self.kind == "impulsive":
            flat = _items(gains, "gains")
            if len(flat) != N:
                raise ModelError(f"expected {N} gains, got {len(flat)}")
            return flat
        rows = [_items(row, f"gains[{j}]") for j, row in enumerate(_items(gains, "gains"))]
        if len(rows) != N or any(len(row) != N for row in rows):
            raise ModelError("switched gains must form an N x N table")
        return [g for row in rows for g in row]

    def with_gains(self, gains):
        """The same plant with gains nested as nest() makes them, each
        None or a finite (updated channels) x dim matrix."""
        flat = [None if g is None else _numeric(
                    g, f"gain {idx[0] if len(idx) == 1 else idx}",
                    (self.injection(idx[0]).shape[1], self.dim))
                for idx, g in zip(self.gain_slots, self._unnest(gains))]
        S = len(self.jbar0[0])
        return replace(self, gains=tuple(tuple(flat[k:k + S]) for k in range(0, len(flat), S)))


def _at(table, idx):
    """Cell idx of a [target][source] table; an impulsive slot (i,) is (i, 0)."""
    j, s = (*idx, 0)[:2]
    return table[j][s]


def _lift(kind, A, B, J, updates, gains):
    """The one lift: drifts A[i], B[i], base maps J[j][s] into target mode
    j from source column s, and updates[j] the channels reassigned on a
    jump into j.  Every other channel gets an identity hold row in mode
    j's base maps; the reassigned ones enter through its injection."""
    n, m = B[0].shape

    def lifted(top, held=()):
        """top's n rows over m zero rows, with a 1 on each held channel."""
        out = np.zeros((n + m, n + m))
        out[:n, :top.shape[1]] = top
        out[held, held] = 1.0
        return out

    eye = np.eye(n + m)
    return AugmentedModel(
        kind=kind, n=n, m=m, modes=len(J),
        abar=tuple(lifted(np.hstack([Ai, Bi])) for Ai, Bi in zip(A, B)),
        jbar0=tuple(tuple(lifted(Jjs, [n + k for k in range(m) if k not in upd]) for Jjs in Jj)
                    for Jj, upd in zip(J, updates)),
        jbar1=tuple(eye[:, [n + k for k in upd]] for upd in updates),
        gains=None,
    ).with_gains(gains)


def augment_impulsive(spec, gains=None):
    """Lift an impulsive plant: one drift, one source column, every channel updated."""
    return _lift("impulsive", [spec.A], [spec.B], [[Ji] for Ji in spec.J],
                 [range(spec.m)] * spec.modes, gains)


def augment_switched(spec, gains=None):
    """Lift a switched-impulsive plant; its jump table stays indexed [j][i]."""
    return _lift("switched", spec.A, spec.B, spec.J, spec.updates, gains)
