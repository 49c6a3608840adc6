"""Co-design of min-jumping rule matrices and state-feedback gains.

The clock-dependent synthesis conditions are relaxed by restricting the
matrix functions S_i to piecewise-affine families on a uniform node grid
over [0, t_max] (t_min inserted as an extra node when missing).  The
differential inequality is affine in tau on each interval, so imposing it
at both interval endpoints is exact; the dwell-dependent blocks are affine
in theta between nodes, so imposing them at the covering nodes is exact as
well.  The relaxation is therefore sound: any solution satisfies the
original conditions, and refining the grid only enlarges the searched
family.

Beyond the printed conditions the assembler adds:
- floors Ptilde_i >= delta*I and S_i(tau_k) >= delta*I so the recovery
  inverses exist,
- box bounds S_i(tau_k) <= BOUND*I plus a cap on the margin variable
  (sdp.SdpOptions.eps_cap), keeping the maximization bounded (the printed
  conditions are homogeneous),
- a tighter box Ptilde_i <= PTILDE_CAP*I.  The margin variable lives in
  the inverse coordinates; converting it to a guaranteed margin on the
  recovered rule matrices divides by the square of Ptilde's top
  eigenvalue, so letting Ptilde grow to the outer bound can leave a
  certificate that is feasible but numerically worthless.

Recovered rule matrices are scaled so their smallest eigenvalue is at
least one; the min-jumping rule is invariant under positive scaling and
the verification margins only grow with it.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import sdp
# check_impulsive stays importable from synth: perfbench/tracing.py wraps it here
from .checks import ClockFamily, DwellGrid, check, check_impulsive  # noqa: F401
from .errors import ConfigError, ModelError, RecoveryError
from .linalg import inv_spd
from .model import ModeWeights, validate_weights
from .rules import MinJumpCertificate

log = logging.getLogger("minjump.synth")

_NODE_SNAP = 1e-12
BOUND = 1e6
PTILDE_CAP = 1e3


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs for the piecewise-affine synthesis pipeline.

    clock_nodes counts the uniform nodes on [0, t_max]; delta_pd is the
    definiteness floor on Ptilde_i and S_i(tau_k).
    """

    clock_nodes: int = 6
    delta_pd: float = 1e-6

    def __post_init__(self):
        if self.clock_nodes < 2:
            raise ConfigError("need at least two clock nodes")
        if self.delta_pd < 0:
            raise ConfigError("delta_pd must be nonnegative")
        if self.delta_pd >= min(BOUND, PTILDE_CAP):
            raise ConfigError(f"delta_pd must stay below {min(BOUND, PTILDE_CAP):g}")


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Outcome of a synthesis run.

    status: success | infeasible | relaxation_gap | max_iterations |
    numerical_failure.  cert/gains/report are None unless recovery ran.
    """

    status: str
    eps: float
    cert: object
    gains: object
    ptilde: tuple
    u: tuple
    clock: object
    report: object
    solution: object

    @property
    def success(self):
        return self.status == "success"


def clock_node_grid(dwell, count):
    """Uniform nodes on [0, t_max] with t_min snapped in as a node."""
    nodes = list(np.linspace(0.0, dwell.t_max, count))
    if not any(abs(t - dwell.t_min) <= _NODE_SNAP for t in nodes):
        nodes.append(dwell.t_min)
        nodes.sort()
    return tuple(nodes)


def _range_node_indices(nodes, dwell):
    out = [k for k, t in enumerate(nodes)
           if dwell.t_min - _NODE_SNAP <= t <= dwell.t_max + _NODE_SNAP]
    if not out:
        raise ConfigError("no clock nodes inside the dwell range")
    return out


def _weights(model, weights):
    if not isinstance(weights, ModeWeights):
        weights = ModeWeights(weights)
    diag = validate_weights(weights)
    if not diag:
        raise ConfigError(f"invalid mode weights: {diag.message}")
    if weights.pi.shape[0] != model.modes:
        raise ConfigError(
            f"weights are {weights.pi.shape[0]}x{weights.pi.shape[0]} "
            f"for a model with {model.modes} modes"
        )
    return weights


def _free(model, *idx):
    """True when the gain at slot idx, (i,) or (j, i), is a synthesis unknown."""
    return model.injection(*idx[:-1]).shape[1] > 0 and model.gain(*idx) is None


def _gain_name(*idx):
    return "U" + "_".join(str(k) for k in idx)


def _common_blocks(model, nodes, opts):
    """Every unknown, then flow LMIs at interval endpoints plus floors and
    boxes for all S, Ptilde."""
    d = model.dim
    I = np.eye(d)
    blocks = []
    variables = []
    for i in range(model.modes):
        variables.append(sdp.VarSpec(f"Pt{i}", "sym", d, d))
        for k in range(len(nodes)):
            variables.append(sdp.VarSpec(f"S{i}n{k}", "sym", d, d))
    variables += [sdp.VarSpec(_gain_name(*idx), "rect", model.injection(*idx[:-1]).shape[1], d)
                  for idx in model.gain_slots if _free(model, *idx)]
    variables.append(sdp.VarSpec("eps", "scalar"))
    for i in range(model.modes):
        A = model.drift(i)
        for k in range(len(nodes) - 1):
            h = nodes[k + 1] - nodes[k]
            for v in (k, k + 1):
                terms = [
                    sdp.BlockTerm(f"S{i}n{k + 1}", I / h, I),
                    sdp.BlockTerm(f"S{i}n{k}", -I / h, I),
                    sdp.BlockTerm(f"S{i}n{v}", A, I, sym_pair=True),
                ]
                blocks.append(sdp.AffineBlock(
                    np.zeros((d, d)), terms, label=f"flow i={i} k={k} v={v}"))
        floor = opts.delta_pd * I
        blocks.append(sdp.AffineBlock(
            floor, [sdp.BlockTerm(f"Pt{i}", -I, I)], label=f"floor Pt{i}"))
        blocks.append(sdp.AffineBlock(
            -PTILDE_CAP * I, [sdp.BlockTerm(f"Pt{i}", I, I)],
            label=f"box Pt{i}"))
        for k in range(len(nodes)):
            blocks.append(sdp.AffineBlock(
                floor, [sdp.BlockTerm(f"S{i}n{k}", -I, I)], label=f"floor S{i}n{k}"))
            blocks.append(sdp.AffineBlock(
                -BOUND * I, [sdp.BlockTerm(f"S{i}n{k}", I, I)],
                label=f"box S{i}n{k}"))
    return variables, blocks


def assemble_impulsive(model, weights, dwell, opts=None):
    """Build the margin-maximization problem for the impulsive co-design.

    Per mode: flow LMI on every clock interval, the 2d x 2d strict jump
    block at every in-range node, and the weighted coupling LMI.  Modes with
    fixed gains keep their jump map as data; free modes get a gain unknown.
    """
    opts = opts or SynthesisOptions()
    if model.kind != "impulsive":
        raise ModelError("assemble_impulsive requires an impulsive model")
    weights = _weights(model, weights)
    pi = weights.pi
    nodes = clock_node_grid(dwell, opts.clock_nodes)
    d, N = model.dim, model.modes

    variables, blocks = _common_blocks(model, nodes, opts)

    top = np.vstack([np.eye(d), np.zeros((d, d))])
    bot = np.vstack([np.zeros((d, d)), np.eye(d)])
    for i in range(N):
        for k in _range_node_indices(nodes, dwell):
            terms = [sdp.BlockTerm(f"Pt{i}", -top, top.T),
                     sdp.BlockTerm(f"S{i}n{k}", -bot, bot.T)]
            if _free(model, i):
                terms.append(sdp.BlockTerm(
                    f"Pt{i}", bot @ model.jbar0[i], top.T, sym_pair=True))
                terms.append(sdp.BlockTerm(
                    _gain_name(i), bot @ model.jbar1, top.T, sym_pair=True))
            else:
                terms.append(sdp.BlockTerm(
                    f"Pt{i}", bot @ model.jump(i), top.T, sym_pair=True))
            blocks.append(sdp.AffineBlock(
                np.zeros((2 * d, 2 * d)), terms, strict=True,
                label=f"jump i={i} node={k}"))

        Vi = np.vstack([np.sqrt(pi[j, i]) * np.eye(d) for j in range(N)])
        terms = [sdp.BlockTerm(f"S{i}n0", Vi, Vi.T)]
        for j in range(N):
            sel = np.zeros((N * d, d))
            sel[j * d:(j + 1) * d] = np.eye(d)
            terms.append(sdp.BlockTerm(f"Pt{j}", -sel, sel.T))
        blocks.append(sdp.AffineBlock(
            np.zeros((N * d, N * d)), terms, label=f"coupling i={i}"))

    return sdp.SdpProblem(variables, blocks), nodes


def assemble_switched(model, weights, dwell, opts=None):
    """Build the margin-maximization problem for the switched co-design.

    The dwell-dependent condition Ptilde_i - S_i(theta) + eps*I <= 0 is a
    plain d x d strict block; gains enter through the coupling block rows
    sqrt(pi_ji) (Jbar0_ji S_i(0) + Jbar1 U_ji).
    """
    opts = opts or SynthesisOptions()
    if model.kind != "switched":
        raise ModelError("assemble_switched requires a switched model")
    weights = _weights(model, weights)
    pi = weights.pi
    nodes = clock_node_grid(dwell, opts.clock_nodes)
    d, N = model.dim, model.modes

    variables, blocks = _common_blocks(model, nodes, opts)

    I = np.eye(d)
    for i in range(N):
        for k in _range_node_indices(nodes, dwell):
            blocks.append(sdp.AffineBlock(
                np.zeros((d, d)),
                [sdp.BlockTerm(f"Pt{i}", I, I),
                 sdp.BlockTerm(f"S{i}n{k}", -I, I)],
                strict=True, label=f"bound i={i} node={k}"))

        big = (N + 1) * d
        sel0 = np.zeros((big, d)); sel0[:d] = I
        terms = [sdp.BlockTerm(f"S{i}n0", -sel0, sel0.T)]
        for j in range(N):
            sel = np.zeros((big, d)); sel[(j + 1) * d:(j + 2) * d] = I
            terms.append(sdp.BlockTerm(f"Pt{j}", -sel, sel.T))
            w = np.sqrt(pi[j, i])
            if _free(model, j, i):
                terms.append(sdp.BlockTerm(
                    f"S{i}n0", sel @ (w * model.jbar0[j][i]), sel0.T, sym_pair=True))
                terms.append(sdp.BlockTerm(
                    _gain_name(j, i), sel @ (w * model.injection(j)), sel0.T, sym_pair=True))
            else:
                terms.append(sdp.BlockTerm(
                    f"S{i}n0", sel @ (w * model.jump(j, i)), sel0.T, sym_pair=True))
        blocks.append(sdp.AffineBlock(
            np.zeros((big, big)), terms, label=f"coupling i={i}"))

    return sdp.SdpProblem(variables, blocks), nodes


def _failure(status, solution):
    return SynthesisResult(status=status, eps=solution.eps, cert=None,
                           gains=None, ptilde=(), u=(), clock=None,
                           report=None, solution=solution)


def recover_design(model, weights, dwell, solution, nodes):
    """Invert the solved variables into a certificate, gains, and a report.

    Raises RecoveryError when an inverse does not exist (delta floor too
    small for the solver's accuracy).
    """
    weights = _weights(model, weights)
    if solution.status != "optimal":
        return _failure(solution.status, solution)
    if solution.eps <= 0.0:
        return _failure("infeasible", solution)

    N = model.modes
    vals = solution.values
    ptilde = tuple(vals[f"Pt{i}"] for i in range(N))
    svals = [[vals[f"S{i}n{k}"] for k in range(len(nodes))] for i in range(N)]
    clock = ClockFamily(nodes, svals)
    # the unknown of a gain slot is U = K X, with X = Ptilde_i (impulsive) or
    # S_i(0) (switched) of the slot's source mode i
    anchors = ptilde if model.kind == "impulsive" else [S[0] for S in clock.values]
    slots = model.gain_slots
    u = model.nest([vals.get(_gain_name(*idx)) for idx in slots])

    try:
        P = [inv_spd(Pt) for Pt in ptilde]
        gains = [vals[_gain_name(*idx)] @ inv_spd(anchors[idx[-1]]) if _free(model, *idx)
                 else model.gain(*idx) for idx in slots]
    except Exception as exc:
        raise RecoveryError(
            f"recovery inverse failed ({exc}); delta floor may be too small"
        ) from exc

    # scaling up only widens verification margins; never scale down
    scale = max(1.0, 1.0 / min(np.linalg.eigvalsh(Pi).min() for Pi in P))
    P = [scale * Pi for Pi in P]
    cert = MinJumpCertificate(P, weights.pi, eps=solution.eps)
    new_gains = model.nest(gains) if model.m > 0 else None
    closed = model.with_gains(new_gains) if model.m > 0 else model
    report = check(closed, cert, dwell, grid=DwellGrid.uniform(dwell))
    status = "success" if report.passed else "relaxation_gap"
    if status == "relaxation_gap":
        log.info("post-verification failed at margin %.3e; consider more clock nodes",
                 report.worst_margin)
    return SynthesisResult(status=status, eps=solution.eps, cert=cert,
                           gains=new_gains, ptilde=ptilde, u=u, clock=clock,
                           report=report, solution=solution)


def synthesize(model, weights, dwell, opts=None):
    """assemble -> solve -> recover -> post-verify, for either system kind."""
    opts = opts or SynthesisOptions()
    if model.kind == "impulsive":
        problem, nodes = assemble_impulsive(model, weights, dwell, opts)
    else:
        problem, nodes = assemble_switched(model, weights, dwell, opts)
    log.info("assembled %d blocks over %d scalar unknowns",
             len(problem.blocks), problem.scalar_count)
    solution = sdp.solve(problem, sdp.SdpOptions())
    return recover_design(model, weights, dwell, solution, nodes)


def scan_weights(model, candidates, dwell, opts=None):
    """Synthesize over a finite list of weight matrices; keep the best margin.

    Returns (best result or None, its weights or None, list of
    (weights, status, eps)).
    """
    best = None
    best_pi = None
    summary = []
    for pi in candidates:
        result = synthesize(model, pi, dwell, opts)
        summary.append((pi, result.status, result.eps))
        better = result.success and (best is None or not best.success
                                     or result.eps > best.eps)
        if better or (best is None):
            best = result
            best_pi = pi
    return best, best_pi, summary
