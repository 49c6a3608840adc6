"""Closed-loop simulation under the min-jumping rules.

Flows are computed with the matrix exponential only (no ODE integrator),
so dense samples are exact up to rounding.  Trajectories are recorded with
both the pre-jump and the post-jump state at every sampling instant; the
state stored at t_k in the dense arrays is the pre-jump limit.

V(k) is the value the jump rule minimized at sample k: the selected mode's
quadratic form at chi(t_k) for the impulsive rule, and at chi(t_k+) for
the switched rule.  That quantity is the one the certificate conditions
make strictly decreasing.
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DivergenceError, ModelError
from .rules import select_impulsive, select_switched

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class SamplingSequence:
    """Jump instants t_0 = 0 < t_1 < ... < t_K."""

    times: tuple

    def __init__(self, times, dwell=None):
        times = tuple(float(t) for t in times)
        if not times or times[0] != 0.0:
            raise ConfigError("sampling sequence must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("sampling times must be strictly increasing")
        if dwell is not None:
            tol = 1e-12 * max(1.0, dwell.t_max)
            for a, b in zip(times, times[1:]):
                if not (dwell.t_min - tol <= b - a <= dwell.t_max + tol):
                    raise ConfigError(
                        f"dwell {b - a!r} outside [{dwell.t_min}, {dwell.t_max}]"
                    )
        object.__setattr__(self, "times", times)

    @property
    def dwells(self):
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))

    def __len__(self):
        return len(self.times)


def gen_sequence(dwell, kind, count, seed=None, period=None):
    """Admissible sampling sequence with `count` dwell intervals.

    kind "periodic" repeats the given period; kind "uniform_random" draws
    dwells uniformly from [t_min, t_max] (deterministic given seed).
    """
    if count < 1:
        raise ConfigError("count must be at least 1")
    if kind == "periodic":
        if period is None:
            raise ConfigError("periodic sequences need a period")
        try:
            period = float(period)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"period must be a number: {exc}") from exc
        if not dwell.t_min <= period <= dwell.t_max:
            raise ConfigError(
                f"period {period} outside [{dwell.t_min}, {dwell.t_max}]"
            )
        dwells = np.full(count, period)
    elif kind == "uniform_random":
        rng = np.random.default_rng(seed)
        dwells = rng.uniform(dwell.t_min, dwell.t_max, size=count)
    else:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    times = np.concatenate([[0.0], np.cumsum(dwells)])
    return SamplingSequence(times, dwell)


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


class _Recorder:
    def __init__(self, samples, intervals, dim, substeps):
        self.modes = np.zeros(samples, dtype=int)
        self.pre = np.zeros((samples, dim))
        self.post = np.zeros((samples, dim))
        self.V = np.zeros(samples)
        self.dense_t = np.zeros(intervals * substeps)
        self.dense_x = np.zeros((intervals * substeps, dim))
        self.dense_m = np.zeros(intervals * substeps, dtype=int)
        self.substeps = substeps

    def sample(self, k, mode, pre, post, value):
        self.modes[k] = mode
        self.pre[k] = pre
        self.post[k] = post
        self.V[k] = value

    def finish(self, kind, n, times):
        times = np.asarray(times, dtype=float)
        arrays = (times, self.modes, self.pre, self.post, self.V,
                  self.dense_t, self.dense_x, self.dense_m)
        for a in arrays:
            a.setflags(write=False)
        return Trajectory(kind, n, times, self.modes, self.pre, self.post,
                          self.V, self.dense_t, self.dense_x, self.dense_m,
                          self.substeps)


def _initial_state(model, x0, u0):
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n:
        raise ModelError(f"x0 has length {x0.shape[0]}, expected {model.n}")
    if u0 is None:
        u0 = np.zeros(model.m)
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    if u0.shape[0] != model.m:
        raise ModelError(f"u0 has length {u0.shape[0]}, expected {model.m}")
    return np.concatenate([x0, u0])


def _guard(chi, t, last_ok):
    if not np.all(np.isfinite(chi)) or np.linalg.norm(chi) > DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"state norm exceeded {DIVERGENCE_LIMIT:g} at t = {t:g}"
            f" (last finite time {last_ok:g})",
            last_time=last_ok,
        )


def _flow(rec, k, E, t0, step, chi, mode):
    """March chi through interval k in steps E = e^{A step}; returns the pre-jump state."""
    at = k * rec.substeps
    for q in range(1, rec.substeps + 1):
        chi = E @ chi
        t = t0 + q * step
        _guard(chi, t, t0 + (q - 1) * step)
        rec.dense_t[at + q - 1] = t
        rec.dense_x[at + q - 1] = chi
        rec.dense_m[at + q - 1] = mode
    return chi


def _common(model, cert, seq, x0, u0, substeps, kind):
    if model.kind != kind:
        raise ModelError(f"simulate_{kind} requires a {kind} model")
    if substeps < 1:
        raise ConfigError("substeps must be at least 1")
    if cert.dim != model.dim:
        raise ModelError(
            f"certificate dimension {cert.dim} does not match model {model.dim}"
        )
    if cert.modes != model.modes:
        raise ModelError(
            f"certificate has {cert.modes} modes, model has {model.modes}"
        )
    chi = _initial_state(model, x0, u0)
    K = len(seq.times) - 1
    steps = np.diff(seq.times) / substeps
    return chi, K, steps, _Recorder(K + 1, K, model.dim, substeps)


def simulate_impulsive(model, cert, seq, x0, u0=None, substeps=1):
    """Run the impulsive loop: select by pre-jump forms, jump, flow, repeat.

    The rule fires at every sampling instant including t_0 = 0.  Raises
    DivergenceError when the state norm passes DIVERGENCE_LIMIT.
    """
    chi, K, steps, rec = _common(model, cert, seq, x0, u0, substeps, "impulsive")
    flow = linalg.expm(model.drift(), steps)
    for k in range(K + 1):
        t = seq.times[k]
        _guard(chi, t, seq.times[max(k - 1, 0)])
        mode = select_impulsive(chi, cert)
        value = float(chi @ cert.P[mode] @ chi)
        post = model.jump(mode) @ chi
        rec.sample(k, mode, chi, post, value)
        if k < K:
            chi = _flow(rec, k, flow[k], t, steps[k], post, mode)
    return rec.finish("impulsive", model.n, seq.times)


def simulate_switched(model, cert, seq, x0, u0=None, initial_mode=0,
                      substeps=1):
    """Run the switched loop.

    At each sample the rule scores every candidate target by its own
    post-jump form from the current mode; the winner's jump map is applied
    and its drift governs the next interval.
    """
    chi, K, steps, rec = _common(model, cert, seq, x0, u0, substeps, "switched")
    if not 0 <= initial_mode < model.modes:
        raise ModelError(f"initial mode {initial_mode} out of range")
    # each mode's exponentials for every interval, made on the mode's first
    # visit so that a mode the rule never selects costs nothing
    flows = {}
    current = initial_mode
    for k in range(K + 1):
        t = seq.times[k]
        _guard(chi, t, seq.times[max(k - 1, 0)])
        mode = select_switched(chi, current, cert, model)
        post = model.jump(mode, current) @ chi
        value = float(post @ cert.P[mode] @ post)
        rec.sample(k, mode, chi, post, value)
        if k < K:
            if mode not in flows:
                flows[mode] = linalg.expm(model.drift(mode), steps)
            chi = _flow(rec, k, flows[mode][k], t, steps[k], post, mode)
        current = mode
    return rec.finish("switched", model.n, seq.times)


def lyapunov_trace(traj, cert):
    """Recompute V(k) from the recorded states and selected modes."""
    states = traj.pre_states if traj.kind == "impulsive" else traj.post_states
    return np.array([
        float(states[k] @ cert.P[traj.modes[k]] @ states[k])
        for k in range(traj.samples)
    ])


def write_csv(traj, path):
    """Trajectory export: t, x1..xn, u1..um, sigma, V, post.

    Sampling instants appear twice, pre-jump (post = 0) then post-jump
    (post = 1); interior flow samples follow with post = 0.  The sigma
    column is the 1-based active mode; pre-jump rows carry the previous
    sample's mode and V.  Floats are written with 17 significant digits.
    """
    def fmt(v):
        return f"{v:.17g}"

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"x{j + 1}" for j in range(traj.n)]
                   + [f"u{j + 1}" for j in range(traj.m)] + ["sigma", "V", "post"])

        def row(t, state, sigma, value, post):
            w.writerow([fmt(t)] + [fmt(s) for s in state]
                       + [str(sigma + 1), fmt(value), str(post)])

        sub = traj.substeps
        for k in range(traj.samples):
            prev = max(k - 1, 0)
            row(traj.times[k], traj.pre_states[k], traj.modes[prev],
                traj.lyapunov[prev], 0)
            row(traj.times[k], traj.post_states[k], traj.modes[k],
                traj.lyapunov[k], 1)
            if k < traj.samples - 1:
                # interior flow samples; the interval endpoint is the next
                # pre-jump row, so it is not repeated here
                for q in range(sub - 1):
                    at = k * sub + q
                    row(traj.dense_times[at], traj.dense_states[at],
                        traj.dense_modes[at], traj.lyapunov[k], 0)
