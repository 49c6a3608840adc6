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
- floors Ptilde_i >= FLOOR*I and S_i(tau_k) >= FLOOR*I so the recovery
  inverses exist,
- box bounds S_i(tau_k) <= BOUND*I plus a cap on the margin variable
  (sdp.EPS_CAP), keeping the maximization bounded (the printed conditions
  are homogeneous),
- a tighter box Ptilde_i <= PTILDE_CAP*I.  The margin variable lives in
  the inverse coordinates; converting it to a guaranteed margin on the
  recovered rule matrices divides by the square of Ptilde's top
  eigenvalue, so letting Ptilde grow to the outer bound can leave a
  certificate that is feasible but numerically worthless.

Both kinds share one assembler (_assemble) and one recovery; gains enter
linearly through U = K X.  The kind enters only through the per-mode block
builders (_impulsive_blocks, _switched_blocks) and _anchor, which names X:
Ptilde_i when the jump precedes the flow (impulsive), S_i(0) when it
follows it (switched).

Recovered rule matrices are scaled so their smallest eigenvalue is at
least one; the min-jumping rule is invariant under positive scaling and
the verification margins only grow with it.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import sdp
# check_impulsive stays importable from synth: perfbench/tracing.py wraps it here
from .checks import DwellGrid, _covering, check, check_impulsive  # noqa: F401
from .errors import CapacityError, ConfigError, RecoveryError
from .linalg import inv_spd
from .model import ModeWeights, _num
from .rules import MinJumpCertificate, _fit

log = logging.getLogger("minjump.synth")

FLOOR = 1e-6
BOUND = 1e6
PTILDE_CAP = 1e3


@dataclass(frozen=True)
class SynthesisOptions:
    """The one setting of the piecewise-affine synthesis pipeline.

    clock_nodes counts the uniform nodes on [0, t_max]; a count past the
    solver's scalar cap is refused before assembly.  The definiteness
    floor on Ptilde_i and S_i(tau_k) is the constant FLOOR.
    """

    clock_nodes: int = 6

    def __post_init__(self):
        object.__setattr__(self, "clock_nodes", _num(self.clock_nodes, "clock_nodes", int))
        if self.clock_nodes < 2:
            raise ConfigError("need at least two clock nodes")
        if self.clock_nodes + 2 > sdp.SCALAR_CAP:  # S_0 at every node, Pt0 and eps at least
            raise CapacityError(f"{self.clock_nodes} clock nodes exceed the solver's cap "
                                f"of {sdp.SCALAR_CAP} scalar unknowns")


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
    report: object
    solution: object

    @property
    def success(self):
        return self.status == "success"


def clock_node_grid(dwell, count):
    """Uniform nodes on [0, t_max] with t_min inserted unless a node lies
    within dwell.tol of it, so some node always covers [t_min, t_max]."""
    nodes = np.linspace(0.0, dwell.t_max, count)
    if not (abs(nodes - dwell.t_min) <= dwell.tol).any():
        nodes = np.sort(np.append(nodes, dwell.t_min))
    return tuple(nodes.tolist())


def _weights(model, weights):
    if not isinstance(weights, ModeWeights):
        weights = ModeWeights(weights)
    if weights.modes != model.modes:
        raise ConfigError(
            f"weights are {weights.modes}x{weights.modes} "
            f"for a model with {model.modes} modes"
        )
    return weights


def _free(model, *idx):
    """True when the gain at slot idx, (i,) or (j, i), is a synthesis unknown."""
    return model.injection(idx[0]).shape[1] > 0 and model.gain(*idx) is None


def _gain_name(*idx):
    return "U" + "_".join(str(k) for k in idx)


def _anchor(model, i):
    """The unknown X in U = K X for gains out of mode i: Ptilde_i when the
    jump comes before the flow (impulsive), S_i(0) when it comes after
    (switched)."""
    return f"Pt{i}" if model.kind == "impulsive" else f"S{i}n0"


def _jump_terms(model, idx, left, right, w=1.0):
    """left (w Jbar) X right plus its transpose for gain slot idx, X its
    anchor: Jbar0 on X and the injection on U when the gain is free, the
    assembled jump map on X when it is fixed."""
    X = _anchor(model, idx[-1])
    pairs = ([(X, model.base(*idx)), (_gain_name(*idx), model.injection(idx[0]))]
             if _free(model, *idx) else [(X, model.jump(*idx))])
    return [sdp.BlockTerm(var, left @ (w * M), right, sym_pair=True) for var, M in pairs]


def _common_blocks(model, nodes):
    """Every unknown, then flow LMIs at interval endpoints plus floors and
    boxes for all S, Ptilde."""
    d = model.dim
    I = np.eye(d)
    boxed = [[(f"Pt{i}", PTILDE_CAP)] + [(f"S{i}n{k}", BOUND) for k in range(len(nodes))]
             for i in range(model.modes)]  # every matrix unknown with its cap
    variables = [sdp.VarSpec(var, "sym", d, d) for caps in boxed for var, _ in caps]
    variables += [sdp.VarSpec(_gain_name(*idx), "rect", model.injection(idx[0]).shape[1], d)
                  for idx in model.gain_slots if _free(model, *idx)]
    variables.append(sdp.VarSpec("eps", "scalar"))
    blocks = []
    for i, caps in enumerate(boxed):
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
        for var, cap in caps:
            blocks.append(sdp.AffineBlock(
                FLOOR * I, [sdp.BlockTerm(var, -I, I)], label=f"floor {var}"))
            blocks.append(sdp.AffineBlock(
                -cap * I, [sdp.BlockTerm(var, I, I)], label=f"box {var}"))
    return variables, blocks


def _impulsive_blocks(model, pi, i, in_range):
    """Mode i's 2d x 2d strict jump block at every in-range node, then the
    weighted coupling LMI."""
    d, N = model.dim, model.modes
    top, bot = np.eye(2 * d)[:, :d], np.eye(2 * d)[:, d:]
    blocks = []
    for k in in_range:
        terms = [sdp.BlockTerm(f"Pt{i}", -top, top.T),
                 sdp.BlockTerm(f"S{i}n{k}", -bot, bot.T)]
        blocks.append(sdp.AffineBlock(
            np.zeros((2 * d, 2 * d)), terms + _jump_terms(model, (i,), bot, top.T),
            strict=True, label=f"jump i={i} node={k}"))

    Vi = np.vstack([np.sqrt(pi[j, i]) * np.eye(d) for j in range(N)])
    terms = [sdp.BlockTerm(f"S{i}n0", Vi, Vi.T)]
    for j in range(N):
        sel = np.eye(N * d)[:, j * d:(j + 1) * d]
        terms.append(sdp.BlockTerm(f"Pt{j}", -sel, sel.T))
    blocks.append(sdp.AffineBlock(
        np.zeros((N * d, N * d)), terms, label=f"coupling i={i}"))
    return blocks


def _switched_blocks(model, pi, i, in_range):
    """Mode i's plain d x d strict block Ptilde_i - S_i(theta) + eps*I at
    every in-range node, then the (N+1)d coupling block whose rows carry
    sqrt(pi_ji) (Jbar0_ji S_i(0) + Jbar1 U_ji)."""
    d, N = model.dim, model.modes
    I = np.eye(d)
    blocks = [sdp.AffineBlock(np.zeros((d, d)),
                              [sdp.BlockTerm(f"Pt{i}", I, I), sdp.BlockTerm(f"S{i}n{k}", -I, I)],
                              strict=True, label=f"bound i={i} node={k}")
              for k in in_range]

    big = (N + 1) * d
    sel0 = np.eye(big)[:, :d]
    terms = [sdp.BlockTerm(f"S{i}n0", -sel0, sel0.T)]
    for j in range(N):
        sel = np.eye(big)[:, (j + 1) * d:(j + 2) * d]
        terms.append(sdp.BlockTerm(f"Pt{j}", -sel, sel.T))
        terms += _jump_terms(model, (j, i), sel, sel0.T, w=np.sqrt(pi[j, i]))
    blocks.append(sdp.AffineBlock(
        np.zeros((big, big)), terms, label=f"coupling i={i}"))
    return blocks


def _assemble(model, weights, dwell, opts, mode_blocks):
    """The margin-maximization problem: the blocks both kinds share, then
    per mode the kind's own blocks from mode_blocks."""
    opts = opts or SynthesisOptions()
    pi = _weights(model, weights).pi
    nodes = clock_node_grid(dwell, opts.clock_nodes)
    in_range = _covering(nodes, dwell)
    variables, blocks = _common_blocks(model, nodes)
    for i in range(model.modes):
        blocks += mode_blocks(model, pi, i, in_range)
    return sdp.SdpProblem(variables, blocks), nodes


def assemble_impulsive(model, weights, dwell, opts=None):
    """Build the margin-maximization problem for the impulsive co-design.

    Per mode: flow LMI on every clock interval, the 2d x 2d strict jump
    block at every in-range node, and the weighted coupling LMI.  Modes with
    fixed gains keep their jump map as data; free modes get a gain unknown.
    """
    _fit(model, kind="impulsive", what="assemble_impulsive")
    return _assemble(model, weights, dwell, opts, _impulsive_blocks)


def assemble_switched(model, weights, dwell, opts=None):
    """Build the margin-maximization problem for the switched co-design.

    The dwell-dependent condition Ptilde_i - S_i(theta) + eps*I <= 0 is a
    plain d x d strict block; gains enter through the coupling block.
    """
    _fit(model, kind="switched", what="assemble_switched")
    return _assemble(model, weights, dwell, opts, _switched_blocks)


def _failure(status, solution):
    return SynthesisResult(status=status, eps=solution.eps, cert=None,
                           gains=None, report=None, solution=solution)


def recover_design(model, weights, dwell, solution):
    """Invert the solved variables into a certificate, gains, and a report.

    Raises RecoveryError when an inverse does not exist: the solver's
    accuracy did not hold the FLOOR on Ptilde_i and S_i(tau_k).
    """
    weights = _weights(model, weights)
    if solution.status != "optimal":
        return _failure(solution.status, solution)
    if solution.eps <= 0.0:
        return _failure("infeasible", solution)

    vals = solution.values
    try:
        P = [inv_spd(vals[f"Pt{i}"]) for i in range(model.modes)]
        gains = [vals[_gain_name(*idx)] @ inv_spd(vals[_anchor(model, idx[-1])])
                 if _free(model, *idx) else model.gain(*idx) for idx in model.gain_slots]
    except Exception as exc:
        raise RecoveryError(
            f"recovery inverse failed ({exc}); the solve lost the definiteness floor"
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
                           gains=new_gains, report=report, solution=solution)


def synthesize(model, weights, dwell, opts=None):
    """assemble -> solve -> recover -> post-verify, for either system kind."""
    assemble = assemble_impulsive if model.kind == "impulsive" else assemble_switched
    problem, _ = assemble(model, weights, dwell, opts)
    log.info("assembled %d blocks over %d scalar unknowns",
             len(problem.blocks), problem.scalar_count)
    solution = sdp.solve(problem)
    return recover_design(model, weights, dwell, solution)


def scan_weights(model, candidates, dwell, opts=None):
    """Synthesize over a finite list of weight matrices; keep the best margin.

    Returns (best result or None, its weights or None, list of
    (weights, status, eps)).
    """
    best = best_pi = None
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
