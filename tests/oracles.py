"""Independent reference implementations used only by the test suite.

Everything here is deliberately written with different algorithms than the
package under test (a plain 30-term Taylor sum, in floats or in exact
rationals, instead of the package's degree-12 polynomial evaluated as one
row product against shared powers of M, power iteration and cyclic
Jacobi sweeps instead of LAPACK, one dwell point at a time instead of
stacked evaluation) so agreement is meaningful. Some are the package's
earlier loops, kept as references for their stacked replacements, which
must reproduce their floating-point results exactly: blockwise_iterate, the
interior-point loop of minjump.sdp written one constraint block at a time,
where the package runs member-wise steps once per block dimension and
contractions once per stack, and also the dense reference for the package's
sparse Schur kernel (_Stack.left, which visits only the nonzero entries of
each constraint matrix where this loop's einsum visits them all);
loop_scalarize, the scalarization of the constraint blocks one basis matrix
of one term at a time, where the package forms each term over a stacked
basis; loop_simulate, the per-sample simulator that scores one mode and
assembles one jump map at a time; record_report, the record-by-record
reduction of a check's margins into its verdict, fed the records in the
package's one record order (mode-major), as a ConditionReport: the
package's report fields (grid_report gives those alone) plus what several
conditions need and the package's one does not, each condition's
maximum, the non-strict slack SLACK_TOL and flags; the clock-function
form of the certificate conditions, which the package does not check
(the co-design imposes it through its own blocks): ClockFamily,
check_clock, stacked over every mode, and exact_clock_family, the
closed-form family a valid certificate gives; loop_check_clock, the same check one matrix at a time;
and dense_contraction_margins, the dwell-grid margins from stacked per-member
products and one eigensolve at every (mode, theta), where the package forms
products with a fixed matrix as single 2-D GEMMs and solves only where a
maximum can be.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from minjump import checks, linalg, sdp
from minjump.checks import STRICT_TOL, VerificationReport
from minjump.errors import CertificateError, ConfigError, DivergenceError
from minjump.model import _increasing, _num, _numeric
from minjump.sim import DIVERGENCE_LIMIT

SLACK_TOL = 1e-9  # how far above zero a non-strict clock condition may reach
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


def exact_taylor_expm(M, terms=30):
    """e^M from a Taylor sum of `terms` terms in exact integer arithmetic,
    rounded once to floats at the end.

    Every entry of M is an integer over 2^E, so with A = 2^E M the sum
    sum_k M^k / k! is the integer matrix sum_k A^k 2^((terms - k) E)
    terms! / k! over the one denominator 2^(terms E) terms!.  Meant for
    1-norms below about 1, where the truncation error is far below the last
    bit; no scaling, no squaring, no rounding on the way.
    """
    fracs = [Fraction(float(x)) for x in np.asarray(M, dtype=float).ravel()]
    E = max((f.denominator.bit_length() - 1 for f in fracs), default=0)
    A = np.array([f.numerator << (E - f.denominator.bit_length() + 1) for f in fracs],
                 dtype=object).reshape(np.shape(M))
    term = np.identity(len(A), dtype=object)  # A^k, in Python integers
    total = term * (math.factorial(terms) << (terms * E))
    for k in range(1, terms + 1):
        term = term @ A
        total = total + term * (math.factorial(terms) // math.factorial(k) << (terms - k) * E)
    den = math.factorial(terms) << (terms * E)
    return np.array([[float(Fraction(x, den)) for x in row] for row in total])


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


def dense_contraction_margins(model, cert, F0, W, thetas):
    """(modes, len(thetas)) array of lambda_max(F_i(theta)' W_i F_i(theta) - P_i),
    every entry from the eigensolver, on the package's own stacks of M."""
    P = linalg.sym(cert.P)
    margins = np.empty((model.modes, len(thetas)))
    for lo in range(0, len(thetas), checks._THETA_SLICE):
        hi = lo + checks._THETA_SLICE
        for i, E in enumerate(checks._flows(model, thetas[lo:hi])):
            F = E @ F0[i]
            M = linalg.sym(np.swapaxes(F, -1, -2) @ W[i] @ F) - P[i]
            margins[i, lo:hi] = linalg.sym_eig_max(M)
    return margins


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """A verdict over several conditions: the package's report fields, plus
    the condition holding the worst point, each condition's largest margin,
    the slack of the non-strict ones and the flags that must hold."""

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
    flags: dict

    def report(self):
        """The package's VerificationReport of the fields the two share."""
        return VerificationReport(self.passed, self.worst_margin, self.worst_mode,
                                  self.worst_theta, self.mode_margins, self.grid,
                                  self.strict_tol)

    def to_dict(self):
        out = self.report().to_dict()
        out["worst_point"]["condition"] = self.worst_condition
        return dict(out, per_condition=dict(self.per_condition), slack_tol=self.slack_tol,
                    flags=dict(self.flags))


def record_report(records, modes, strict_tol, slack_tol, grid, flags=None):
    """The ConditionReport of (condition, mode, theta, margin, strict) records,
    scanned one record at a time.

    This is the per-record reduction the package used before it reduced
    array blocks: a later record replaces the worst point, a condition's or
    a mode's maximum only when it is strictly larger.
    """
    flags = dict(flags or {})
    ok = all(f["ok"] for f in flags.values())
    per_condition = {}
    mode_worst = [-np.inf] * modes
    worst = None
    for condition, mode, theta, margin, strict in records:
        margin = float(margin)
        violated = margin >= -strict_tol if strict else margin > slack_tol
        if violated:
            ok = False
        if condition not in per_condition or margin > per_condition[condition]:
            per_condition[condition] = margin
        if margin > mode_worst[mode]:
            mode_worst[mode] = margin
        if worst is None or margin > worst[3]:
            worst = (condition, mode, theta, margin)
    return ConditionReport(
        passed=ok, worst_margin=worst[3], worst_condition=worst[0],
        worst_mode=worst[1], worst_theta=worst[2], per_condition=per_condition,
        mode_margins=tuple(mode_worst), grid=tuple(grid), strict_tol=strict_tol,
        slack_tol=slack_tol, flags=flags)


def grid_records(margins, points):
    """Records of a (modes, len(points)) contraction-margin array in the
    package's one record order, mode-major."""
    return [("contraction", i, points[k], margins[i, k], True)
            for i in range(len(margins)) for k in range(len(points))]


def grid_report(margins, points, strict_tol=STRICT_TOL):
    """The package's report of a contraction-margin array, by record_report."""
    return record_report(grid_records(margins, points), len(margins), strict_tol,
                         SLACK_TOL, points).report()


_COVER_TOL = 1e-12  # a clock family's own slack: first node to 0, a tau to the node span


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


def segment_verdict(margins, segments, thetas, passed, grid, strict_tol, slack_tol, flags=None):
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
    return ConditionReport(
        passed=bool(passed), worst_margin=float(margins[mode, k]), worst_condition=worst_condition,
        worst_mode=mode, worst_theta=float(thetas[k]), per_condition=per_condition,
        mode_margins=tuple(float(row[row.argmax()]) for row in margins),
        grid=tuple(grid), strict_tol=strict_tol, slack_tol=slack_tol, flags=dict(flags or {}))


def _theta_nodes(clock, dwell):
    if clock.outside(dwell.t_max):
        raise ConfigError(f"clock nodes end at {clock.nodes[-1]}, short of t_max = {dwell.t_max}")
    inside = (min(max(t, dwell.t_min), dwell.t_max)
              for t, out in zip(clock.nodes, dwell.outside(clock.nodes)) if not out)
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
    tol = checks._tol(tol, "slack")  # before any eigenvalue work
    eps = _num(eps, "eps")
    if not math.isfinite(eps):
        raise ConfigError(f"eps must be finite, got {eps}")
    F0, W = checks._loop_data(model, cert)
    have = clock.values.shape
    if have != (want := (model.modes, have[1], model.dim, model.dim)):
        raise CertificateError(f"clock of shape {have} does not fit the model's {want}")
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
    return segment_verdict(margins, [("flow", len(taus)), ("jump", len(thetas)), ("coupling", 1)],
                           np.concatenate([taus, thetas, [0.0]]),
                           eps > 0.0 and not (margins > tol).any(), thetas, STRICT_TOL, tol,
                           {"eps_positive": {"ok": bool(eps > 0.0), "value": eps}})


def exact_clock_family(cert, model, nodes):
    """Closed-form clock functions S_i(tau) = e^{Abar_i' tau} W_i e^{Abar_i tau}.

    Sampled exactly at the nodes; between nodes the family interpolates
    affinely, so downstream checks see the interpolant, not the exact curve.
    """
    _, W = checks._loop_data(model, cert)
    flows = checks._flows(model, _increasing(nodes, "clock nodes"))
    return ClockFamily(nodes, [linalg.sym(np.swapaxes(E, -1, -2) @ linalg.sym(Wi) @ E)
                               for E, Wi in zip(flows, W)])


def _clock_value(clock, mode, tau):
    k = int(np.searchsorted(clock.nodes, tau, side="right")) - 1
    k = min(max(k, 0), len(clock.nodes) - 2)
    a, b = clock.nodes[k], clock.nodes[k + 1]
    w = (tau - a) / (b - a)
    return (1.0 - w) * clock.values[mode][k] + w * clock.values[mode][k + 1]


def loop_check_clock(model, clock, cert, eps, dwell, tol):
    """The clock-function check one record at a time, reduced by record_report.

    Per mode: flow at both ends of every node interval, jump at every dwell
    node, coupling at 0.  The matrices are formed in the package's
    arithmetic order, so its stacked check must agree bit for bit.
    """
    pi, N = cert.weights.pi, range(model.modes)
    if model.kind == "impulsive":
        F0 = [model.jump(i) for i in N]
        W = [sum(pi[j, i] * cert.P[j] for j in N) for i in N]
    else:
        F0 = [np.eye(model.dim)] * model.modes
        W = [linalg.sym(sum(pi[j, i] * (model.jump(j, i).T @ cert.P[j] @ model.jump(j, i))
                            for j in N)) for i in N]
    thetas = {dwell.t_min, dwell.t_max}
    for t in clock.nodes:
        if dwell.t_min - 1e-12 <= t <= dwell.t_max + 1e-12:
            thetas.add(min(max(t, dwell.t_min), dwell.t_max))
    thetas = sorted(thetas)
    eps_I = eps * np.eye(model.dim)
    records = []
    for i in N:
        A = model.drift(i)
        for k in range(len(clock.nodes) - 1):
            h = clock.nodes[k + 1] - clock.nodes[k]
            Sdot = (clock.values[i][k + 1] - clock.values[i][k]) / h
            for tau in (clock.nodes[k], clock.nodes[k + 1]):
                S = _clock_value(clock, i, tau)
                margin = linalg.sym_eig_max(linalg.sym(-Sdot + A.T @ S + S @ A))
                records.append(("flow", i, tau, margin, False))
        for theta in thetas:
            S = _clock_value(clock, i, theta)
            margin = linalg.sym_eig_max(linalg.sym(-cert.P[i] + F0[i].T @ S @ F0[i]) + eps_I)
            records.append(("jump", i, theta, margin, False))
        margin = linalg.sym_eig_max(linalg.sym(W[i]) - _clock_value(clock, i, 0.0))
        records.append(("coupling", i, 0.0, margin, False))
    flags = {"eps_positive": {"ok": bool(eps > 0.0), "value": eps}}
    return record_report(records, model.modes, STRICT_TOL, tol, thetas, flags)


def quad_form(P, v):
    v = np.asarray(v, dtype=float)
    return float(v @ np.asarray(P, dtype=float) @ v)


def brute_min_mode(P_list, v):
    """Argmin of the quadratic forms, smallest index on ties."""
    return brute_min_mode_each(P_list, [v] * len(P_list))


def brute_min_mode_each(P_list, vs):
    """Argmin over i of vs[i]' P_i vs[i], smallest index on ties."""
    vals = [quad_form(P, v) for P, v in zip(P_list, vs)]
    best = 0
    for i in range(1, len(vals)):
        if vals[i] < vals[best]:
            best = i
    return best, vals


def _loop_guard(chi, t, last_ok):
    if not np.all(np.isfinite(chi)) or np.linalg.norm(chi) > DIVERGENCE_LIMIT:
        raise DivergenceError(
            f"state norm exceeded {DIVERGENCE_LIMIT:g} at t = {t:g}"
            f" (last finite time {last_ok:g})",
            last_time=last_ok,
        )


def loop_simulate(model, cert, seq, x0, u0=None, initial_mode=0, substeps=1):
    """Closed loop of either kind, one sample, one mode and one step at a time.

    At each sample the state is guarded, every candidate mode is scored by
    its own form (pre-jump chi for the impulsive rule, the candidate's
    post-jump state for the switched rule) with ties to the lowest index,
    the winner's jump map is assembled and applied, and the interval is
    marched in substeps with that drift's exponential from one stacked
    call over every interval.  Returns the per-sample modes, pre- and
    post-jump states, values V and the dense times and states; raises
    DivergenceError as the package's simulators do.
    """
    switched = model.kind == "switched"
    u0 = np.zeros(model.m) if u0 is None else u0
    chi = np.concatenate([np.asarray(x0, dtype=float), np.asarray(u0, dtype=float)])
    times = seq.times
    K = len(times) - 1
    steps = np.asarray(seq.dwells) / substeps
    out = SimpleNamespace(modes=[], pre=[], post=[], V=[], dense_t=[], dense=[])
    flows = {}
    current = initial_mode
    for k in range(K + 1):
        t = times[k]
        _loop_guard(chi, t, times[max(k - 1, 0)])
        if switched:
            cands = [model.jump(j, current) @ chi for j in range(model.modes)]
        else:
            cands = [chi] * model.modes
        mode, _ = brute_min_mode_each(cert.P, cands)
        post = model.jump(mode, current) @ chi if switched else model.jump(mode) @ chi
        scored = post if switched else chi
        out.modes.append(mode)
        out.pre.append(chi)
        out.post.append(post)
        out.V.append(float(scored @ cert.P[mode] @ scored))
        if k < K:
            drift = mode if switched else 0
            if drift not in flows:
                flows[drift] = linalg.expm(model.drift(drift), steps)
            chi = post
            for q in range(1, substeps + 1):
                chi = flows[drift][k] @ chi
                _loop_guard(chi, t + q * steps[k], t + (q - 1) * steps[k])
                out.dense_t.append(t + q * steps[k])
                out.dense.append(chi)
        current = mode
    return SimpleNamespace(modes=np.array(out.modes), pre=np.array(out.pre),
                           post=np.array(out.post), V=np.array(out.V),
                           dense_t=np.array(out.dense_t),
                           dense=np.array(out.dense).reshape(-1, model.dim))


def _loop_basis(v):
    """A declared unknown's unit directions, one matrix at a time: a
    symmetric one's upper triangle row by row, a rectangular one's entries
    row by row."""
    if v.kind == "scalar":
        yield np.ones((1, 1))
        return
    for a in range(v.rows):
        for b in range(a if v.kind == "sym" else 0, v.cols):
            E = np.zeros((v.rows, v.cols))
            E[a, b] = 1.0
            if v.kind == "sym":
                E[b, a] = 1.0
            yield E


def loop_scalarize(problem):
    """The scaled constraint matrices of sdp._Scalarized, one basis matrix
    of one term at a time.

    Returns {(dim, active unknowns): (blocks, G, idx, Chat)}, laid out as
    the fields of the package's stacks, and raises the same ConfigError on
    an asymmetric contribution.
    """
    offset, at = {}, 0
    for v in problem.variables:
        offset[v.name] = at
        at += v.size
    byname = {v.name: v for v in problem.variables}
    shapes = {}
    for l, blk in enumerate(list(problem.blocks) + [sdp._CAP_BLOCK]):
        contrib = {}
        for t in blk.terms:
            for k, E in enumerate(_loop_basis(byname[t.var])):
                G = t.left @ E @ t.right
                if t.sym_pair:
                    G = G + G.T
                key = offset[t.var] + k
                contrib[key] = contrib.get(key, 0.0) + G
        if blk.strict:
            key = offset[sdp.EPS_NAME]
            contrib[key] = contrib.get(key, 0.0) + np.eye(blk.dim)
        idxs = sorted(contrib)
        stack = np.zeros((len(idxs), blk.dim, blk.dim))
        for r, key in enumerate(idxs):
            G = contrib[key]
            if np.abs(G - G.T).max() > 1e-10 * max(1.0, np.abs(G).max()):
                raise ConfigError(f"block {blk.label!r}: asymmetric contribution for scalar {key}")
            stack[r] = 0.5 * (G + G.T)
        scale = 1.0 / max(1.0, float(np.linalg.norm(blk.constant)),
                          float(np.abs(stack).max()) if len(idxs) else 0.0)
        shapes.setdefault((blk.dim, len(idxs)), []).append(
            (l, scale * stack, idxs, scale * 0.5 * (blk.constant + blk.constant.T)))
    out = {}
    for shape, members in shapes.items():
        blocks, G, idx, C = zip(*members)
        out[shape] = (np.array(blocks, dtype=int), np.array(G), np.array(idx, dtype=int),
                      -np.array(C))
    return out


def _blockwise_view(sc):
    """Per-block dims, negated constants, active indices and G stacks, the
    margin cap, which the solver keeps apart as scalars, last as a 1 x 1
    block."""
    members = sorted((l, s, j) for s in sc.stacks for j, l in enumerate(s.blocks))
    dims = [s.G.shape[-1] for _, s, _ in members] + [1]
    Chat = [s.Chat[j] for _, s, j in members] + [np.full((1, 1), sc.cap[1])]
    idxs = [s.idx[j] for _, s, j in members] + [np.array([sc.eps_index])]
    G = [s.G[j] for _, s, j in members] + [np.full((1, 1, 1), sc.cap[0])]
    return dims, Chat, idxs, G


def _blockwise_max_step(Li, D):
    """Largest alpha with X + alpha*D >= 0, given X = L L' and Li = L^-1."""
    Y = Li @ D @ Li.T
    lam = float(np.linalg.eigvalsh(0.5 * (Y + Y.T)).min())
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


def blockwise_iterate(sc):
    """The interior-point iteration of minjump.sdp, one block at a time.

    sc is the solver's scalarized problem; its shape stacks are split back
    into per-block lists in the problem's block order.  Returns (status, y,
    iterations, gap, pinf, dinf, history), history one sdp.IterationRecord
    per iteration (mu, residuals, gap, eps, then the step lengths, centering
    and Schur-complement jitter of a step taken).  The stacked solver must
    reproduce every one of these bit for bit.
    """
    dims, Chat, idxs, G = _blockwise_view(sc)
    total_dim = sum(dims)
    nblk = len(dims)
    b = sc.b()

    X = [np.eye(d) * (1.0 + np.linalg.norm(Ch)) for d, Ch in zip(dims, Chat)]
    S = [np.eye(d) * (1.0 + np.linalg.norm(Ch)) for d, Ch in zip(dims, Chat)]
    y = np.zeros(sc.K)

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + max(np.linalg.norm(Ch) for Ch in Chat)
    status = "max_iterations"
    it = 0
    slow = 0
    hist = []
    records = []
    gap = pinf = dinf = np.inf
    best = None
    best_worst = np.inf

    for it in range(1, sdp.MAX_ITER + 1):
        # residuals of the stationarity system
        rp = b.copy()
        for l in range(nblk):
            rp[idxs[l]] -= np.einsum("kab,ab->k", G[l], X[l])
        Rd = []
        for l in range(nblk):
            M = Chat[l] - S[l] - np.tensordot(y[idxs[l]], G[l], axes=(0, 0))
            Rd.append(0.5 * (M + M.T))
        mu = sum(np.tensordot(X[l], S[l]) for l in range(nblk)) / total_dim
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = max(float(np.linalg.norm(R)) for R in Rd) / cnorm
        ip_cx = sum(np.tensordot(Chat[l], X[l]) for l in range(nblk))
        gap = abs(mu * total_dim) / (1.0 + abs(b @ y) + abs(ip_cx))
        records.append(sdp.IterationRecord(*map(float, (mu, pinf, dinf, gap, y[sc.eps_index]))))
        if pinf <= sdp.TOL and dinf <= sdp.TOL and gap <= sdp.TOL:
            status = "converged"
            break
        worst = max(pinf, dinf, gap)
        if worst < best_worst:
            best_worst, best = worst, (y.copy(), gap, pinf, dinf)
        hist.append(worst)
        # rounding floor: already acceptably accurate, and the last 8 sweeps
        # failed to improve on the earlier best, so more polishing is futile
        if (best_worst <= 1e-7 and len(hist) > 8
                and min(hist[-8:]) > 0.9 * min(hist[:-8])):
            break

        try:
            Sinv = [np.linalg.inv(S[l]) for l in range(nblk)]
            Sinv = [0.5 * (Si + Si.T) for Si in Sinv]
            M = np.zeros((sc.K, sc.K))
            for l in range(nblk):
                T2 = np.einsum("ab,kbc,cd->kad", X[l], G[l], Sinv[l])
                M[np.ix_(idxs[l], idxs[l])] += np.einsum("kab,jab->kj", T2, G[l])
            M = 0.5 * (M + M.T)
            Li, jitter = sdp._inv_chol(M)

            t1 = np.zeros(sc.K)
            t3 = np.zeros(sc.K)
            for l in range(nblk):
                t1[idxs[l]] += np.einsum("kab,ab->k", G[l], Sinv[l])
                W = Sinv[l] @ Rd[l] @ X[l]
                t3[idxs[l]] += np.einsum("kab,ab->k", G[l], 0.5 * (W + W.T))

            def solve_dy(rhs):
                dy = Li.T @ (Li @ rhs)
                r = rhs - M @ dy  # one refinement pass; M gets badly conditioned
                return dy + Li.T @ (Li @ r)

            def directions(dy, sigmu, corr=None):
                dS = []
                dX = []
                for l in range(nblk):
                    dSl = Rd[l] - np.tensordot(dy[idxs[l]], G[l], axes=(0, 0))
                    dSl = 0.5 * (dSl + dSl.T)
                    A = sigmu * Sinv[l] - X[l] - Sinv[l] @ dSl @ X[l]
                    if corr is not None:
                        A = A - Sinv[l] @ corr[1][l] @ corr[0][l]
                    dX.append(0.5 * (A + A.T))
                    dS.append(dSl)
                return dX, dS

            # predictor (affine scaling)
            dy_aff = solve_dy(b + t3)
            dX_aff, dS_aff = directions(dy_aff, 0.0)

            # Iterates can round to marginally indefinite near the boundary.
            Lx = [sdp._inv_chol(0.5 * (X[l] + X[l].T))[0] for l in range(nblk)]
            Ls = [sdp._inv_chol(0.5 * (S[l] + S[l].T))[0] for l in range(nblk)]
            ap = min([1.0] + [_blockwise_max_step(Lx[l], dX_aff[l]) for l in range(nblk)])
            ad = min([1.0] + [_blockwise_max_step(Ls[l], dS_aff[l]) for l in range(nblk)])
            mu_aff = sum(
                np.tensordot(X[l] + ap * dX_aff[l], S[l] + ad * dS_aff[l])
                for l in range(nblk)
            ) / total_dim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            # corrector
            t4 = np.zeros(sc.K)
            for l in range(nblk):
                W = Sinv[l] @ dS_aff[l] @ dX_aff[l]
                t4[idxs[l]] += np.einsum("kab,ab->k", G[l], 0.5 * (W + W.T))
            dy = solve_dy(b - sigma * mu * t1 + t3 + t4)
            dX, dS = directions(dy, sigma * mu, corr=(dX_aff, dS_aff))

            ap = min(1.0, sdp.STEP_FRAC * min(_blockwise_max_step(Lx[l], dX[l]) for l in range(nblk)))
            ad = min(1.0, sdp.STEP_FRAC * min(_blockwise_max_step(Ls[l], dS[l]) for l in range(nblk)))
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
        records[-1] = records[-1]._replace(
            alpha_p=float(ap), alpha_d=float(ad), sigma=float(sigma), jitter=float(jitter))
        if ap < 1e-10 and ad < 1e-10:
            slow += 1
            if slow >= 3:
                break
        else:
            slow = 0
        for l in range(nblk):
            X[l] = X[l] + ap * dX[l]
            S[l] = S[l] + ad * dS[l]
        y = y + ad * dy
        if not (np.isfinite(y).all() and all(np.isfinite(a).all() for a in X + S)):
            status = "breakdown"
            y = best[0] if best is not None else np.zeros(sc.K)
            break

    if status != "converged" and best is not None and best_worst < max(pinf, dinf, gap):
        y, gap, pinf, dinf = best
    eps = float(y[sc.eps_index])
    loose = 1e-7
    if status == "converged" or (pinf <= loose and dinf <= loose and gap <= loose):
        status = "infeasible" if eps < -sdp.TOL else "optimal"
    elif status == "breakdown":
        status = "numerical_failure"
    else:
        status = "max_iterations"
    return status, y, it, gap, pinf, dinf, tuple(records)
