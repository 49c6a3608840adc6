"""Closed-loop simulation under the min-jumping rules.

Flows are computed with the matrix exponential only (no ODE integrator),
so dense samples are exact up to rounding.  Both loops run through one
sample kernel, which validates a run once and holds one rule form stack
per jump-table source column and one expm stack per drift over the
distinct dwells only (periodic sampling costs one exponential).  A sample
is one ndarray.dot per jump and flow substep, writing into the stored
rows, plus two that give the guard's chi' chi and the next rule's forms
at once; a decaying state is carried times an exact power of two, so a
long run never computes on subnormal numbers.
Trajectories are recorded with both the pre-jump and the post-jump state
at every sampling instant; the state stored at t_k in the dense arrays is
the pre-jump limit.

V(k) is the value the jump rule minimized at sample k: the selected mode's
quadratic form at chi(t_k) for the impulsive rule, and at chi(t_k+) for
the switched rule.  That quantity is the one the certificate conditions
make strictly decreasing.
"""

import csv
from dataclasses import dataclass
from math import frexp, inf

import numpy as np

from . import linalg
from .errors import ConfigError, DivergenceError, NumericError
from .model import _increasing, _num, _numeric
# select_switched is unused: pinned by test_tracer_restores_the_package, TRACED_NAMES["sim"]
from .rules import _FORM_FLOOR, _fit, _form_stack, _forms, argmin_forms, select_switched  # noqa: F401

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class SamplingSequence:
    """Jump instants t_0 = 0 < t_1 < ... < t_K and the dwells between them.

    Given times, the dwells are their differences; given dwells, the times
    are their running sums and the flows use the dwells as given, so a
    periodic sequence keeps one dwell value.  All lie in `dwell` if given.
    """

    times: tuple
    dwells: tuple

    def __init__(self, times=None, dwell=None, dwells=None):
        if dwells is not None:
            dwells = _numeric(dwells, "dwells", ("K",), ConfigError)
            times = np.zeros(len(dwells) + 1)
            with np.errstate(over="ignore"):  # a sum past the float range is refused below
                np.cumsum(dwells, out=times[1:])
        times = _increasing(times, "sampling times")
        if times[0] != 0.0:
            raise ConfigError("sampling sequence must start at t = 0")
        dwells = np.diff(times) if dwells is None else dwells
        if dwell is not None:
            bad = dwell.outside(dwells)
            if bad.any():
                raise ConfigError(f"dwell {float(dwells[bad.argmax()])!r} outside"
                                  f" [{dwell.t_min}, {dwell.t_max}]")
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "dwells", tuple(dwells.tolist()))


def gen_sequence(dwell, kind, count, seed=None, period=None):
    """Admissible sampling sequence with `count` dwell intervals.

    kind "periodic" repeats the given period; kind "uniform_random" draws
    dwells uniformly from [t_min, t_max] (deterministic given an int seed).
    """
    count = _num(count, "count", int)
    if count < 1:
        raise ConfigError("count must be at least 1")
    if kind == "periodic":
        dwells = np.full(count, _num(period, "period"))  # None too: "period must be a number"
    elif kind == "uniform_random":
        seed = None if seed is None else _num(seed, "seed", int)
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
        dwells = np.random.default_rng(seed).uniform(dwell.t_min, dwell.t_max, size=count)
    else:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    return SamplingSequence(dwell=dwell, dwells=dwells)


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run.

    Per sample k: times[k], modes[k] = sigma(t_k+), pre_states[k] =
    chi(t_k), post_states[k] = chi(t_k+), lyapunov[k] = V(k).  Dense
    samples cover each interval at substeps equispaced points, endpoint
    included (the endpoint equals the next pre-jump state).
    """

    kind: str
    n: int
    times: np.ndarray
    modes: np.ndarray
    pre_states: np.ndarray
    post_states: np.ndarray
    lyapunov: np.ndarray
    dense_times: np.ndarray
    dense_states: np.ndarray
    dense_modes: np.ndarray
    substeps: int

    @property
    def samples(self):
        return len(self.times)

    @property
    def m(self):
        return self.pre_states.shape[1] - self.n


def _initial_state(model, x0, u0):
    """chi(0) = (x0, u0), vectors of exactly n and m entries (u0 None: zero),
    named by their config keys."""
    x0 = _numeric(x0, "run.x0", (model.n,), ConfigError)
    u0 = np.zeros(model.m) if u0 is None else _numeric(u0, "run.u0", (model.m,), ConfigError)
    return np.concatenate([x0, u0])


def _exponentials(A, steps):
    """e^{A h} for each step h.  A member that overflows is nan, so it is an
    error only once the march reaches it, after any earlier divergence."""
    try:
        return linalg.expm(A, steps)
    except NumericError:  # bisect down to the members that overflow
        if len(steps) == 1:
            return np.full((1,) + A.shape, np.nan)
        half = len(steps) // 2
        return np.concatenate([_exponentials(A, steps[:half]),
                               _exponentials(A, steps[half:])])


class _Scaled(Exception):
    """A guard failed on a state carried times 2^shift, shift > 0."""


def _diverged(t, last_ok, E=None, shift=0):
    if shift:  # the true state may be in range: the run is redone unscaled
        raise _Scaled
    if E is not None and not np.all(np.isfinite(E)):
        raise NumericError(f"expm overflowed on the flow ending at t = {t:g}")
    raise DivergenceError(f"state norm exceeded {DIVERGENCE_LIMIT:g} at t = {t:g}"
                          f" (last finite time {last_ok:g})", last_time=last_ok)


def _rescale(chi, shift, head):
    """(chi 2^delta, shift + delta), max|chi 2^delta| in [2^-head / 2, 2^-head)
    unless shift + delta would fall below 0; chi is finite."""
    delta = max(-shift, -frexp(np.abs(chi).max())[1] - head)
    return (np.ldexp(chi, delta), shift + delta) if delta else (chi, shift)


def _march(model, cert, seq, x0, u0, substeps, kind, current=0, carry=True):
    """The sample loop both simulators share: fire the rule, jump, flow.

    The run is validated here, once.  current is the jump table's source
    column and the drift of the interval that follows: 0 for an impulsive
    model, the selected mode for a switched one.  The jump and each flow
    substep are one gemv, written into the state's stored row.  After the
    last substep a gemv on column c's form stack [I; Q_c] and one on its
    result give chi' chi, for the guard chi' chi <= DIVERGENCE_LIMIT^2
    (which also rejects inf and nan), and the next rule's forms, ties to
    the lowest mode, with `argmin_forms`' arithmetic; it decides the first
    sample and any whose smallest form is below 2^-900 or some form is not
    finite.  With carry,
    a state with chi' chi below 2^-500 is carried times an exact 2^shift,
    scaled back once chi' chi passes 1, and the rows are unscaled after
    the loop; a guard failing while shift > 0 redoes the run without it.
    """
    _fit(model, cert, kind, current, f"simulate_{kind}")
    substeps = _num(substeps, "substeps", int)
    if substeps < 1:
        raise ConfigError("substeps must be at least 1")
    chi = start = _initial_state(model, x0, u0)
    initial = current
    times = np.asarray(seq.times)
    K, d = len(times) - 1, model.dim
    steps = np.asarray(seq.dwells) / substeps
    # one exponential per distinct step, made on the drift's first use
    distinct, where = np.unique(steps, return_inverse=True)
    where = where.tolist()
    table, P = model.jump_table, cert.P
    switched = kind == "switched"
    forms = [_form_stack(P, J if switched else None) for J in table.swapaxes(0, 1)]
    jumps = [list(J) for J in table.swapaxes(0, 1)]
    flows = [None] * model.modes
    limit, tiny = DIVERGENCE_LIMIT ** 2, 2.0 ** -500 if carry else 0.0
    head = (d - 1).bit_length() + 1 >> 1  # 4^head >= d
    post, dense = np.empty((K + 1, d)), np.empty((K * substeps, d))
    posts, flowed = iter(post), iter(dense)  # the row each product writes
    z, w = np.empty(len(forms[0])), np.empty(model.modes + 1)
    zrows, inner = z.reshape(-1, d), range(1, substeps)
    shift, shifts, modes = 0, [], []
    with np.errstate(over="ignore", invalid="ignore"):
        w0 = chi.dot(chi)
        if not w0 <= limit:
            _diverged(0.0, 0.0)
        mode = argmin_forms(forms[current], chi)
        try:
            for k in range(K + 1):
                if w0 < tiny or shift and w0 > 1.0:
                    chi, new = _rescale(chi, shift, head)
                    if new != shift:
                        shift = new
                        shifts.append((k, shift))
                modes.append(mode)
                chi = jumps[current][mode].dot(chi, next(posts))
                if k == K:
                    break
                current = mode if switched else 0
                if flows[current] is None:
                    flows[current] = list(_exponentials(model.drift(current), distinct))
                E = flows[current][where[k]]
                for q in inner:
                    chi = E.dot(chi, next(flowed))
                    if not chi.dot(chi) <= limit:
                        _diverged(times[k] + q * steps[k], times[k] + (q - 1) * steps[k], E, shift)
                chi = E.dot(chi, next(flowed))
                forms[current].dot(chi, z)
                w0, *v = zrows.dot(chi, w).tolist()
                if not w0 <= limit:
                    _diverged(times[k] + substeps * steps[k],
                              times[k] + (substeps - 1) * steps[k], E, shift)
                mode = v.index(best := min(v))
                if not (best >= _FORM_FLOOR and sum(v) < inf):
                    mode = argmin_forms(forms[current], chi)
        except _Scaled:
            return _march(model, cert, seq, x0, u0, substeps, kind, initial, False)
    modes = np.array(modes)
    if shifts:  # post-jump state k and interval k's rows carry sample k's shift
        s = np.zeros(K + 1, dtype=int)
        for k, shift in shifts:
            s[k:] = shift
        post = np.ldexp(post, -s[:, None])
        dense = np.ldexp(dense, -np.repeat(s[:-1], substeps)[:, None])
    pre = np.concatenate([start[None], dense[substeps - 1::substeps]])
    dense_t = times[:-1, None] + np.arange(1, substeps + 1) * steps[:, None]
    arrays = (times, modes, pre, post,
              _forms(post if switched else pre, P[modes]),
              dense_t.ravel(), dense, np.repeat(modes[:-1], substeps))
    for a in arrays:
        a.setflags(write=False)
    return Trajectory(kind, model.n, *arrays, substeps)


def simulate_impulsive(model, cert, seq, x0, u0=None, substeps=1):
    """Run the impulsive loop: select by pre-jump forms, jump, flow, repeat.

    The rule fires at every sampling instant including t_0 = 0.  Raises
    DivergenceError when the state norm passes DIVERGENCE_LIMIT.
    """
    return _march(model, cert, seq, x0, u0, substeps, "impulsive")


def simulate_switched(model, cert, seq, x0, u0=None, initial_mode=0,
                      substeps=1):
    """Run the switched loop.

    At each sample the rule scores every candidate target by its own
    post-jump form from the current mode; the winner's jump map is applied
    and its drift governs the next interval.
    """
    return _march(model, cert, seq, x0, u0, substeps, "switched", initial_mode)


def simulate(model, cert, seq, x0, u0=None, initial_mode=0, substeps=1):
    """Run the loop of the model's kind; initial_mode applies to switched models."""
    if model.kind == "impulsive":
        return simulate_impulsive(model, cert, seq, x0, u0, substeps)
    return simulate_switched(model, cert, seq, x0, u0, initial_mode, substeps)


def lyapunov_trace(traj, cert):
    """Recompute V(k) from the recorded states and selected modes."""
    states = traj.pre_states if traj.kind == "impulsive" else traj.post_states
    return _forms(states, cert.P[traj.modes])


def write_csv(traj, path):
    """Trajectory export: t, x1..xn, u1..um, sigma, V, post.

    Sampling instants appear twice, pre-jump (post = 0) then post-jump
    (post = 1); interior flow samples follow with post = 0.  The sigma
    column is the 1-based active mode; pre-jump rows carry the previous
    sample's mode and V.  Floats are written with 17 significant digits.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{j + 1}" for j in range(traj.n)]
                   + [f"u{j + 1}" for j in range(traj.m)] + ["sigma", "V", "post"])

        def row(t, state, sigma, value, post):
            w.writerow([f"{v:.17g}" for v in (t, *state)] + [sigma + 1, f"{value:.17g}", post])

        sub = traj.substeps
        for k in range(traj.samples):
            prev = max(k - 1, 0)
            row(traj.times[k], traj.pre_states[k], traj.modes[prev],
                traj.lyapunov[prev], 0)
            row(traj.times[k], traj.post_states[k], traj.modes[k],
                traj.lyapunov[k], 1)
            if k < traj.samples - 1:
                # interior flow samples; the endpoint is the next pre-jump row
                for q in range(sub - 1):
                    at = k * sub + q
                    row(traj.dense_times[at], traj.dense_states[at],
                        traj.dense_modes[at], traj.lyapunov[k], 0)
