"""Embedded semidefinite feasibility solver against closed-form optima.

Every reference problem here has a margin optimum computable by hand, so
the solver is tested for the value it returns, not just for status flags.
"""

from importlib import resources

import numpy as np
import pytest

import oracles
from minjump import cli, linalg, sdp, synth
from minjump.errors import CapacityError, ConfigError


def _scalar_problem(a, extra=()):
    """max eps s.t. 2 a p + eps <= 0, p >= 1, p <= 2.

    For a < 0 the margin grows with p, so the optimum -4a sits at the box
    ceiling p = 2 unless the eps cap binds first; for a > 0 every feasible
    p >= 1 forces eps <= -2a < 0, with the least violation at the floor.
    """
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("p", "sym", 1, 1)]
    one = np.eye(1)
    blocks = [
        sdp.AffineBlock(np.zeros((1, 1)),
                        [sdp.BlockTerm("p", a * one, one, sym_pair=True)],
                        strict=True, label="decay"),
        sdp.AffineBlock(one, [sdp.BlockTerm("p", -one, one)], label="floor"),
        sdp.AffineBlock(-2.0 * one, [sdp.BlockTerm("p", one, one)], label="cap"),
    ]
    return sdp.SdpProblem(variables, blocks + list(extra))


def _scalar_lyapunov(a, cap=1e3):
    return sdp.solve(_scalar_problem(a), sdp.SdpOptions(eps_cap=cap))


def _matrix_box():
    """max eps s.t. eps I <= P <= 2 I in 2x2: optimum 2 at P = 2I."""
    I = np.eye(2)
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("P", "sym", 2, 2)]
    blocks = [
        sdp.AffineBlock(np.zeros((2, 2)), [sdp.BlockTerm("P", -I, I)],
                        strict=True, label="floor"),
        sdp.AffineBlock(-2.0 * I, [sdp.BlockTerm("P", I, I)], label="box"),
    ]
    return sdp.SdpProblem(variables, blocks)


def _oscillator():
    A = np.array([[0.0, 1.0], [-1.0, -1.0]])
    I = np.eye(2)
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("P", "sym", 2, 2)]
    blocks = [
        sdp.AffineBlock(np.zeros((2, 2)),
                        [sdp.BlockTerm("P", A.T, I, sym_pair=True)],
                        strict=True, label="decay"),
        sdp.AffineBlock(I, [sdp.BlockTerm("P", -I, I)], label="floor"),
        sdp.AffineBlock(-10.0 * I, [sdp.BlockTerm("P", I, I)], label="cap"),
    ]
    return sdp.SdpProblem(variables, blocks)


def _scaled_scalar(alpha):
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("p", "sym", 1, 1)]
    one = np.eye(1)
    blocks = [
        sdp.AffineBlock(np.zeros((1, 1)),
                        [sdp.BlockTerm("p", -one, one, sym_pair=True)],
                        strict=True, label="decay"),
        sdp.AffineBlock(alpha * one, [sdp.BlockTerm("p", -one, one)], label="floor"),
        sdp.AffineBlock(-2.0 * alpha * one, [sdp.BlockTerm("p", one, one)], label="cap"),
    ]
    return sdp.SdpProblem(variables, blocks)


def test_scalar_stable_hits_exact_optimum():
    sol = _scalar_lyapunov(-1.0)
    assert sol.status == "optimal"
    assert sol.eps == pytest.approx(4.0, abs=1e-6)
    assert sol.values["p"][0, 0] == pytest.approx(2.0, abs=1e-5)


def test_scalar_unstable_is_infeasible():
    sol = _scalar_lyapunov(1.0)
    assert sol.status == "infeasible"
    assert sol.eps == pytest.approx(-2.0, abs=1e-6)


def test_eps_cap_binds():
    # a = -600: uncapped optimum would be 2400, the default cap stops at 1000
    sol = _scalar_lyapunov(-600.0)
    assert sol.status == "optimal"
    assert sol.eps == pytest.approx(1000.0, rel=1e-6)


def test_matrix_box_interior_optimum():
    sol = sdp.solve(_matrix_box())
    assert sol.status == "optimal"
    assert sol.eps == pytest.approx(2.0, abs=1e-6)
    assert np.allclose(sol.values["P"], 2.0 * np.eye(2), atol=1e-4)


def test_oscillator_closed_form():
    """Lyapunov margin for A = [[0,1],[-1,-1]] inside the box I <= P <= 10I.

    Maximizing eps with A'P + PA + eps I <= 0 over that box has optimum
    10 - 2 sqrt(5): the eps-optimal P pushes to the cap and the binding
    eigenvalue comes from the box corner, computable by hand.
    """
    sol = sdp.solve(_oscillator())
    assert sol.status == "optimal"
    assert sol.eps == pytest.approx(10.0 - 2.0 * np.sqrt(5.0), abs=1e-5)


def test_objective_scales_with_constant_scaling():
    """Scaling all constants by alpha scales the achieved margin by alpha."""
    base = _scalar_lyapunov(-1.0, cap=1e6)
    alpha = 7.5
    scaled = sdp.solve(_scaled_scalar(alpha), sdp.SdpOptions(eps_cap=1e6))
    assert scaled.status == "optimal"
    assert scaled.eps == pytest.approx(alpha * base.eps, rel=1e-5)


def test_solver_is_deterministic():
    a = _scalar_lyapunov(-3.0)
    b = _scalar_lyapunov(-3.0)
    assert a.eps == b.eps
    assert np.array_equal(a.values["p"], b.values["p"])
    assert a.iterations == b.iterations


def test_residuals_report_worst_violation():
    sol = _scalar_lyapunov(-1.0)
    res = sdp.residuals(
        sdp.SdpProblem(
            [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("p", "sym", 1, 1)],
            [sdp.AffineBlock(np.eye(1), [sdp.BlockTerm("p", np.eye(1), np.eye(1))],
                             label="shifted")],
        ),
        {"eps": sol.eps, "p": np.array([[2.0]])},
    )
    # block value is p + 1 = 3, a violation of exactly +3
    assert res[0] == pytest.approx(3.0, abs=1e-12)


def test_problem_validation():
    one = np.eye(1)
    with pytest.raises(ConfigError):
        sdp.SdpProblem([sdp.VarSpec("p", "sym", 1, 1)],
                       [sdp.AffineBlock(one, [], label="x")])  # no eps
    with pytest.raises(ConfigError):
        sdp.SdpProblem(
            [sdp.VarSpec("eps", "scalar")],
            [sdp.AffineBlock(one, [sdp.BlockTerm("ghost", one, one)], label="x")],
        )
    with pytest.raises(ConfigError):
        sdp.VarSpec("bad", "diagonal", 2, 2)


def test_scalar_capacity_guard():
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("P", "sym", 80, 80)]
    blocks = [sdp.AffineBlock(np.zeros((80, 80)),
                              [sdp.BlockTerm("P", np.eye(80), np.eye(80))],
                              strict=True, label="big")]
    with pytest.raises(CapacityError):
        sdp.solve(sdp.SdpProblem(variables, blocks))


def _constant_block():
    """The scalar problem plus a block with no unknowns (-I <= 0): optimum 4."""
    return _scalar_problem(-1.0, extra=[sdp.AffineBlock(-np.eye(2), [], label="constant")])


def _distinct_shapes():
    """Every block of its own (dim, unknowns) shape: optimum eps = 1.

    2 a p + eps <= 0 with a = -1 and 1 <= p <= 2 allows eps up to 4, but
    I <= P and P + eps I <= 2 I cap it at 1, reached at P = I.
    """
    one, I2, emb = np.eye(1), np.eye(2), np.eye(3)[:, :2]
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("p", "sym", 1, 1),
                 sdp.VarSpec("P", "sym", 2, 2)]
    blocks = [
        sdp.AffineBlock(np.zeros((1, 1)),
                        [sdp.BlockTerm("p", -one, one, sym_pair=True)],
                        strict=True, label="decay"),
        sdp.AffineBlock(np.diag([1.0, -2.0]),
                        [sdp.BlockTerm("p", [[-1.0], [0.0]], [[1.0, 0.0]]),
                         sdp.BlockTerm("p", [[0.0], [1.0]], [[0.0, 1.0]])],
                        label="p box"),
        sdp.AffineBlock(-2.0 * np.eye(3), [sdp.BlockTerm("P", emb, emb.T)],
                        strict=True, label="P cap"),
        sdp.AffineBlock(I2, [sdp.BlockTerm("P", -I2, I2)], label="P floor"),
    ]
    return sdp.SdpProblem(variables, blocks)


def _one_shape():
    """Only 1x1 blocks in eps alone, the margin cap's shape: optimum eps = 1."""
    blocks = [sdp.AffineBlock([[c]], [sdp.BlockTerm("eps", [[1.0]], [[1.0]])],
                              label=f"eps <= {-c}") for c in (-3.0, -1.0, -2.5)]
    return sdp.SdpProblem([sdp.VarSpec("eps", "scalar")], blocks)


def _design(fixture):
    """The co-design problem synth.synthesize solves for a bundled fixture."""
    cfg = cli.load_config(str(resources.files("minjump.fixtures") / f"{fixture}.json"))
    model = cli.build_model(cfg)
    opts = synth.SynthesisOptions(clock_nodes=int(cfg.get("run", {}).get("nodes", 6)))
    assemble = synth.assemble_impulsive if model.kind == "impulsive" else synth.assemble_switched
    problem, _ = assemble(model, cli.build_weights(cfg), cli.build_dwell(cfg), opts)
    return problem, sdp.SdpOptions()


_ORACLE_CASES = {
    "ex1": lambda: _design("example1"),
    "ex3": lambda: _design("example3"),
    "unstabilizable": lambda: _design("unstabilizable"),
    "scalar_stable": lambda: (_scalar_problem(-1.0), sdp.SdpOptions()),
    "scalar_unstable": lambda: (_scalar_problem(1.0), sdp.SdpOptions()),
    "scalar_capped": lambda: (_scalar_problem(-600.0), sdp.SdpOptions()),
    "scalar_wide_cap": lambda: (_scalar_problem(-1.0), sdp.SdpOptions(eps_cap=1e6)),
    "scalar_deterministic": lambda: (_scalar_problem(-3.0), sdp.SdpOptions()),
    "matrix_box": lambda: (_matrix_box(), sdp.SdpOptions()),
    "oscillator": lambda: (_oscillator(), sdp.SdpOptions()),
    "scaled": lambda: (_scaled_scalar(7.5), sdp.SdpOptions(eps_cap=1e6)),
    "constant_block": lambda: (_constant_block(), sdp.SdpOptions()),
    "distinct_shapes": lambda: (_distinct_shapes(), sdp.SdpOptions()),
    "one_shape": lambda: (_one_shape(), sdp.SdpOptions()),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_stacked_solver_matches_blockwise_oracle_bitwise(case):
    problem, options = _ORACLE_CASES[case]()
    sol = sdp.solve(problem, options)
    status, y, iters, gap, pinf, dinf = oracles.blockwise_iterate(
        sdp._Scalarized(problem, options), options)
    assert (sol.status, sol.iterations) == (status, iters)
    expected = sdp._unflatten(problem, y)
    for name, value in sol.values.items():
        assert np.asarray(value).tobytes() == np.asarray(expected[name]).tobytes(), name
    assert (sol.gap, sol.primal_infeas, sol.dual_infeas) == (gap, pinf, dinf)


def test_edge_problems_stack_as_intended():
    def shapes(problem):
        stacks = sdp._Scalarized(problem, sdp.SdpOptions()).stacks
        return sorted((s.G.shape[-1], s.G.shape[1], len(s.blocks)) for s in stacks)

    assert shapes(_one_shape()) == [(1, 1, 4)]
    assert shapes(_distinct_shapes()) == [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 3, 1), (3, 4, 1)]
    assert (2, 0, 1) in shapes(_constant_block())
    for problem, eps in ((_one_shape(), 1.0), (_distinct_shapes(), 1.0), (_constant_block(), 4.0)):
        sol = sdp.solve(problem)
        assert sol.status == "optimal"
        assert sol.eps == pytest.approx(eps, abs=1e-6)


def test_cholesky_jitter_reaches_only_the_failing_member(monkeypatch):
    good = np.array([[4.0, 1.0], [1.0, 3.0]])
    bad = np.diag([1.0, -1e-13])
    jitter = sdp._chol_with_jitter
    calls = []

    def spy(M):
        calls.append(M.copy())
        return jitter(M)

    monkeypatch.setattr(sdp, "_chol_with_jitter", spy)
    L = sdp._chol_stack(np.array([good, bad, 2.0 * good]))
    assert len(calls) == 1 and np.array_equal(calls[0], bad)
    expected = [np.linalg.cholesky(good), jitter(bad), np.linalg.cholesky(2.0 * good)]
    assert L.tobytes() == np.array(expected).tobytes()


def test_history_keeps_every_iteration():
    sol = sdp.solve(_oscillator())
    assert len(sol.history) == sol.iterations
    *stepped, last = sol.history
    for rec in stepped:
        assert 0.0 < rec.alpha_p <= 1.0 and 0.0 < rec.alpha_d <= 1.0
        assert 0.0 < rec.sigma <= 1.0
    # the loop converged at its last record, before taking a step
    assert np.isnan([last.alpha_p, last.alpha_d, last.sigma]).all()
    assert (last.gap, last.pinf, last.eps) == (sol.gap, sol.primal_infeas, sol.eps)
    assert max(last.pinf, last.dinf, last.gap) <= sdp.SdpOptions().tol


def test_residuals_take_one_eigenvalue_call_per_dimension(monkeypatch):
    problem = _distinct_shapes()
    sol = sdp.solve(problem)
    eig = linalg.sym_eig_max
    shapes = []

    def spy(S):
        shapes.append(S.shape)
        return eig(S)

    monkeypatch.setattr(linalg, "sym_eig_max", spy)
    res = sdp.residuals(problem, sol.values)
    assert sorted(shapes) == [(1, 1, 1), (1, 3, 3), (2, 2, 2)]
    for r, blk in zip(res, problem.blocks):
        M = blk.constant + sum(t.value(sol.values[t.var]) for t in blk.terms)
        assert r == pytest.approx(oracles.jacobi_eigvals(M)[-1], abs=1e-12)
