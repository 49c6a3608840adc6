"""End-to-end acceptance gate.

Eight checks covering the full pipeline: reference designs re-verify inside
a rounding band, co-design succeeds end to end on the worked systems,
clock-form and grid-form certificates agree on random feasible loops, the
sampled value function decreases along every simulated run, mode selection
is scale invariant, the numeric kernels match independent oracles, and an
unstabilizable loop is refused.  Each check prints one verdict line so a
full run reads as a scoreboard.
"""

import time

import numpy as np

import conftest
import oracles
from minjump import (
    DwellRange,
    ImpulsiveSpec,
    MinJumpCertificate,
    ModeWeights,
    augment_impulsive,
    check_clock,
    check_impulsive,
    check_switched,
    exact_clock_family,
    gen_sequence,
    sdp,
    select_impulsive,
    select_switched,
    simulate_impulsive,
    simulate_switched,
    synthesize,
)
from minjump.checks import DwellGrid
from minjump.linalg import expm, sym_eig_max
from minjump.synth import SynthesisOptions

from conftest import (
    EX1_PI,
    EX2_WORST_MARGIN,
    EX3_PI,
    random_contractive_impulsive,
)

ROUNDING_BAND = 1e-3  # absorbs the 4-decimal rounding of reference values


def _verdict(number, ok, detail):
    line = f"acceptance {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    conftest.record_verdict(line)
    assert ok, line


def test_acceptance_1_reference_certificate_reproduction(ex2_model, ex2_cert,
                                                         ex2_dwell):
    start = time.perf_counter()
    report = check_impulsive(ex2_model, ex2_cert, ex2_dwell)
    elapsed = time.perf_counter() - start
    ok = (report.passed
          and report.worst_margin < 0.0
          and report.worst_margin < ROUNDING_BAND
          and abs(report.worst_margin - EX2_WORST_MARGIN) < ROUNDING_BAND
          and elapsed < 1.0)
    _verdict(1, ok, f"worst margin {report.worst_margin:.6e}, {elapsed:.3f}s")


def test_acceptance_2_impulsive_codesign_end_to_end(
        ex1_open_model, ex1_dwell, ex1_reference_model, ex1_reference_cert):
    start = time.perf_counter()
    result = synthesize(ex1_open_model, ModeWeights(EX1_PI), ex1_dwell,
                        SynthesisOptions(clock_nodes=6))
    ok = result.success and result.eps > 0.0

    fine = None
    decay = 0.0
    if ok:
        closed = ex1_open_model.with_gains(result.gains)
        fine = check_impulsive(closed, result.cert, ex1_dwell,
                               grid=DwellGrid.uniform(ex1_dwell, 200))
        ok = fine.passed and fine.worst_margin < -1e-7
        seq = gen_sequence(ex1_dwell, "uniform_random", count=100, seed=7)
        traj = simulate_impulsive(closed, result.cert, seq, [1.0, 1.0], u0=[0.0])
        decay = traj.lyapunov[0] / traj.lyapunov[-1]
        ok = ok and decay >= 1e3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0

    # reference design re-verified inside the rounding band, margins reported
    published = check_impulsive(ex1_reference_model, ex1_reference_cert, ex1_dwell)
    ok = ok and published.passed and published.worst_margin < ROUNDING_BAND
    _verdict(
        2, ok,
        f"eps {result.eps:.4g}, fine-grid margin "
        f"{fine.worst_margin if fine else float('nan'):.3e}, V decay {decay:.3e}, "
        f"reference margin {published.worst_margin:.3e}, {elapsed:.1f}s")


def test_acceptance_3_switched_codesign_end_to_end(
        ex3_open_model, ex3_dwell, ex3_reference_model, ex3_reference_cert):
    start = time.perf_counter()
    result = synthesize(ex3_open_model, ModeWeights(EX3_PI), ex3_dwell,
                        SynthesisOptions(clock_nodes=8))
    ok = result.success and result.eps > 0.0

    decay = 0.0
    post = None
    if ok:
        closed = ex3_open_model.with_gains(result.gains)
        post = check_switched(closed, result.cert, ex3_dwell,
                              grid=DwellGrid.uniform(ex3_dwell, 200))
        ok = post.passed
        seq = gen_sequence(ex3_dwell, "uniform_random", count=100, seed=13)
        traj = simulate_switched(closed, result.cert, seq, [1.0, 1.0],
                                 u0=[0.0, 0.0])
        decay = traj.lyapunov[0] / traj.lyapunov[-1]
        ok = ok and decay >= 1e3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0

    published = check_switched(ex3_reference_model, ex3_reference_cert, ex3_dwell)
    ok = ok and published.passed and published.worst_margin < ROUNDING_BAND
    _verdict(
        3, ok,
        f"eps {result.eps:.4g}, post margin "
        f"{post.worst_margin if post else float('nan'):.3e}, V decay {decay:.3e}, "
        f"reference margin {published.worst_margin:.3e}, {elapsed:.1f}s")


def test_acceptance_4_clock_form_equivalence():
    rng = np.random.default_rng(1234)
    dwell = DwellRange(0.01, 0.05)
    nodes = tuple(np.linspace(0.0, dwell.t_max, 64))
    worst_clock = -np.inf
    ok = True
    for _ in range(20):
        model, cert = random_contractive_impulsive(rng)
        grid_report = check_impulsive(model, cert, dwell)
        ok = ok and grid_report.passed
        clock = exact_clock_family(cert, model, nodes)
        eps = 0.5 * abs(grid_report.worst_margin)
        clock_report = check_clock(model, clock, cert, eps, dwell, tol=1e-6)
        ok = ok and clock_report.passed
        worst_clock = max(worst_clock, clock_report.worst_margin)
    _verdict(4, ok, f"20 systems, worst clock-form margin {worst_clock:.3e}")


def test_acceptance_5_sampled_value_strictly_decreases(
        ex1_reference_model, ex1_reference_cert, ex2_model, ex2_cert,
        ex3_reference_model, ex3_reference_cert):
    checked = 0
    ok = True

    def monotone(traj):
        v = traj.lyapunov
        live = v > 1e-300  # strict decrease is meaningless at flush-to-zero
        return bool(np.all(np.diff(v[live]) < 0.0))

    for run in range(100):
        seq = gen_sequence(DwellRange(0.01, 0.05), "uniform_random",
                           count=40, seed=run)
        ok = ok and monotone(simulate_impulsive(
            ex1_reference_model, ex1_reference_cert, seq, [1.0, 1.0], u0=[0.0]))
        ok = ok and monotone(simulate_switched(
            ex3_reference_model, ex3_reference_cert, seq, [1.0, 1.0],
            u0=[0.0, 0.0]))
        per = gen_sequence(DwellRange(0.02, 0.02), "periodic", count=40,
                           period=0.02, seed=run)
        ok = ok and monotone(simulate_impulsive(ex2_model, ex2_cert, per,
                                                [1.0, 1.0]))
        checked += 3

    rng = np.random.default_rng(77)
    for k in range(20):
        model, cert = random_contractive_impulsive(rng)
        grid_report = check_impulsive(model, cert, DwellRange(0.01, 0.05))
        ok = ok and grid_report.passed
        x0 = rng.standard_normal(model.n)
        for run in range(100):
            seq = gen_sequence(DwellRange(0.01, 0.05), "uniform_random",
                               count=25, seed=1000 * k + run)
            ok = ok and monotone(simulate_impulsive(model, cert, seq, x0))
            checked += 1
        if not ok:
            break
    _verdict(5, ok, f"{checked} runs, all strictly decreasing")


def test_acceptance_6_selection_scale_invariance(ex3_reference_model,
                                                 ex3_reference_cert):
    rng = np.random.default_rng(4321)
    P = []
    for _ in range(3):
        W = rng.standard_normal((3, 3))
        P.append(W @ W.T + np.eye(3))
    cert = MinJumpCertificate(P, ModeWeights(np.full((3, 3), 1.0 / 3.0)))
    ok = True
    for _ in range(1000):
        chi = rng.standard_normal(3)
        alpha = float(10.0 ** rng.uniform(-8, 8))
        ok = ok and (select_impulsive(chi, cert)
                     == select_impulsive(chi, cert.scaled(alpha)))
    for _ in range(1000):
        chi = rng.standard_normal(4)
        i = int(rng.integers(0, 2))
        alpha = float(10.0 ** rng.uniform(-8, 8))
        ok = ok and (
            select_switched(chi, i, ex3_reference_cert, ex3_reference_model)
            == select_switched(chi, i, ex3_reference_cert.scaled(alpha),
                               ex3_reference_model))
    _verdict(6, ok, "1000 impulsive + 1000 switched trials")


def test_acceptance_7_numeric_oracles():
    rng = np.random.default_rng(42)
    worst_expm = 0.0
    for _ in range(100):
        M = rng.uniform(-1.0, 1.0, (4, 4))
        M *= 5.0 / max(1.0, np.linalg.norm(M, 2))
        t = rng.uniform(0.1, 2.0)
        err = np.linalg.norm(expm(M, t) - oracles.series_expm(M, t), np.inf)
        worst_expm = max(worst_expm, err / max(1.0, np.linalg.norm(
            oracles.series_expm(M, t), np.inf)))
    ok = worst_expm <= 1e-12

    worst_eig = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        W = rng.standard_normal((n, n))
        S = (W + W.T) / 2.0
        worst_eig = max(worst_eig,
                        abs(sym_eig_max(S) - oracles.power_iter_max(S)))
    ok = ok and worst_eig <= 1e-8

    # scalar margin pair with hand-computed optima
    one = np.eye(1)

    def scalar_problem(a):
        variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("p", "sym", 1, 1)]
        blocks = [
            sdp.AffineBlock(np.zeros((1, 1)),
                            [sdp.BlockTerm("p", a * one, one, sym_pair=True)],
                            strict=True, label="decay"),
            sdp.AffineBlock(one, [sdp.BlockTerm("p", -one, one)], label="floor"),
            sdp.AffineBlock(-2.0 * one, [sdp.BlockTerm("p", one, one)],
                            label="cap"),
        ]
        return sdp.SdpProblem(variables, blocks)

    stable = sdp.solve(scalar_problem(-1.0))
    unstable = sdp.solve(scalar_problem(1.0))
    ok = ok and stable.status == "optimal" and abs(stable.eps - 4.0) < 1e-6
    ok = ok and unstable.status == "infeasible" and abs(unstable.eps + 2.0) < 1e-6

    # 2x2 cross-check: closed-form optimum and residual consistency
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    I2 = np.eye(2)
    problem = sdp.SdpProblem(
        [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("P", "sym", 2, 2)],
        [
            sdp.AffineBlock(np.zeros((2, 2)),
                            [sdp.BlockTerm("P", A.T, I2, sym_pair=True)],
                            strict=True, label="decay"),
            sdp.AffineBlock(I2, [sdp.BlockTerm("P", -I2, I2)], label="floor"),
            sdp.AffineBlock(-10.0 * I2, [sdp.BlockTerm("P", I2, I2)], label="cap"),
        ])
    sol = sdp.solve(problem)
    want = 10.0 - 2.0 * np.sqrt(5.0)
    res = sdp.residuals(problem, {**sol.values, "eps": sol.eps})
    ok = ok and sol.status == "optimal" and abs(sol.eps - want) < 1e-5
    ok = ok and max(res) <= 1e-6
    _verdict(7, ok,
             f"expm err {worst_expm:.2e}, eig err {worst_eig:.2e}, "
             f"margins {stable.eps:.6f}/{unstable.eps:.6f}/{sol.eps:.6f}")


def test_acceptance_8_unstabilizable_loop_refused():
    model = augment_impulsive(
        ImpulsiveSpec([[3.0, 0.0], [1.0, 1.0]], J=[np.eye(2).tolist()]))
    result = synthesize(model, ModeWeights([[1.0]]), DwellRange(0.01, 0.05),
                        SynthesisOptions(clock_nodes=6))
    ok = (not result.success) and result.status in (
        "infeasible", "relaxation_gap", "max_iterations", "numerical_failure")
    _verdict(8, ok, f"status {result.status}, eps {result.eps:.3e}")
