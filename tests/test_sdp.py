"""Embedded semidefinite feasibility solver against closed-form optima.

Every reference problem here has a margin optimum computable by hand, so
the solver is tested for the value it returns, not just for status flags.
"""

import itertools
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


def _scalar_lyapunov(a):
    return sdp.solve(_scalar_problem(a))


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
    # a = -600: uncapped optimum would be 2400, sdp.EPS_CAP stops it at 1000
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
    """Scaling all constants by alpha scales the achieved margin by alpha;
    both optima, 4 and 30, sit below sdp.EPS_CAP."""
    base = _scalar_lyapunov(-1.0)
    alpha = 7.5
    scaled = sdp.solve(_scaled_scalar(alpha))
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
    return problem


_ORACLE_CASES = {
    "ex1": lambda: _design("example1"),
    "ex3": lambda: _design("example3"),
    "unstabilizable": lambda: _design("unstabilizable"),
    "scalar_stable": lambda: _scalar_problem(-1.0),
    "scalar_unstable": lambda: _scalar_problem(1.0),
    "scalar_capped": lambda: _scalar_problem(-600.0),
    "scalar_deterministic": lambda: _scalar_problem(-3.0),
    "matrix_box": _matrix_box,
    "oscillator": _oscillator,
    "scaled": lambda: _scaled_scalar(7.5),
    "constant_block": _constant_block,
    "distinct_shapes": _distinct_shapes,
    "one_shape": _one_shape,
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_stacked_solver_matches_blockwise_oracle_bitwise(case):
    """Status, iterations, values, residuals and every field of every
    iteration record (mu, pinf, dinf, gap, eps, both step lengths, sigma and
    the Schur jitter) equal the blockwise loop's, which takes the margin cap
    as a 1 x 1 block, bit for bit."""
    problem = _ORACLE_CASES[case]()
    sol = sdp.solve(problem)
    status, y, iters, gap, pinf, dinf, history = oracles.blockwise_iterate(sdp._Scalarized(problem))
    assert (sol.status, sol.iterations) == (status, iters)
    expected = sdp._unflatten(problem, y)
    for name, value in sol.values.items():
        assert np.asarray(value).tobytes() == np.asarray(expected[name]).tobytes(), name
    assert (sol.gap, sol.primal_infeas, sol.dual_infeas) == (gap, pinf, dinf)
    assert len(sol.history) == len(history) == iters
    assert np.array(sol.history).tobytes() == np.array(history).tobytes()


def _planted(rng, shape):
    """Entries over sixteen decades, about a fifth of them +0.0 or -0.0."""
    A = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    zero = rng.random(shape) < 0.2
    A[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    return A


def _edge_stacks():
    """A stack whose unknown 2 is zero in every member and unknown 0 in
    member 1, one of +0.0 throughout and one of -0.0 throughout."""
    G = _planted(np.random.default_rng(5), (3, 4, 5, 5))
    G[:, 2] = G[1, 0] = 0.0
    zero = np.zeros((2, 3, 4, 4))
    return [sdp._Stack(0, slice(0, len(g)), range(len(g)), g,
                       np.zeros(g.shape[:2], int), np.zeros((len(g),) + g.shape[2:]))
            for g in (G, zero, -zero)]


_KERNEL_CASES = {**_ORACLE_CASES, "ex2": lambda: _design("example2"), "edge": None}


@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_sparse_schur_kernel_matches_dense_einsum_bitwise(case):
    """_Stack.left against the einsum it replaces, on random X and Sinv
    with planted signed zeros: same dtype, shape and bytes, signs of zeros
    included."""
    if case == "edge":
        stacks = _edge_stacks()
    else:
        stacks = sdp._Scalarized(_KERNEL_CASES[case]()).stacks
    rng = np.random.default_rng(15)
    for s in stacks:
        n, _, d, _ = s.G.shape
        for _ in range(3):
            X, Sinv = _planted(rng, (n, d, d)), _planted(rng, (n, d, d))
            got = s.left(X, Sinv)
            want = np.einsum("nab,nkbc,ncd->nkad", X, s.G, Sinv)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_schur_build_makes_no_three_operand_einsum(monkeypatch):
    """The solver's first Schur contraction goes through _Stack.left; the
    blockwise oracle keeps its dense three-operand einsum."""
    einsum = np.einsum
    calls = []

    def spy(subscripts, *operands, **kwargs):
        calls.append((subscripts, len(operands)))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    problem = _distinct_shapes()
    assert sdp.solve(problem).status == "optimal"
    assert calls and all(count < 3 for _, count in calls)
    calls.clear()
    oracles.blockwise_iterate(sdp._Scalarized(problem))
    assert ("ab,kbc,cd->kad", 3) in calls


def test_nonfinite_iterate_ends_the_solve(monkeypatch):
    """A corrector step with one infinite member of dX would carry inf into
    X: the loop ends there as a breakdown and returns its best iterate."""
    steps = sdp._steps
    calls = []

    def planted(Lxs, dX, dS, cap):
        out = steps(Lxs, dX, dS, cap)
        calls.append(dX[0].shape)
        if len(calls) == 4:  # the second iteration's corrector step
            dX[0][0, 0, 0] = np.inf
        return out

    monkeypatch.setattr(sdp, "_steps", planted)
    problem = _oscillator()
    sol = sdp.solve(problem)
    assert (sol.status, sol.iterations, len(calls)) == ("numerical_failure", 2, 4)
    assert np.isfinite(sol.eps)
    assert all(np.isfinite(v).all() for v in sol.values.values())
    assert np.isfinite(sdp.residuals(problem, sol.values)).all()


def _without_cap(problem, expected):
    """loop_scalarize's shapes less the margin cap, the last member of its
    (1, 1) shape (dropped when it is alone there), and the cap's scaled
    coefficient, negated constant and unknown."""
    blocks, G, idx, Chat = expected.pop((1, 1))
    assert blocks[-1] == len(problem.blocks)
    if len(blocks) > 1:
        expected[1, 1] = (blocks[:-1], G[:-1], idx[:-1], Chat[:-1])
    return expected, (G[-1, 0, 0, 0], Chat[-1, 0, 0], idx[-1, 0])


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_scalarization_matches_loop_oracle_bytewise(case):
    """Every stack's fields, and the margin cap's two scalars, held apart
    from the stacks, equal the loop oracle's bytes."""
    problem = _ORACLE_CASES[case]()
    expected, cap = _without_cap(problem, oracles.loop_scalarize(problem))
    sc = sdp._Scalarized(problem)
    stacks = sc.stacks
    assert sorted((s.G.shape[-1], s.G.shape[1]) for s in stacks) == sorted(expected)
    for s in stacks:
        want_fields = expected[s.G.shape[-1], s.G.shape[1]]
        for got, want in zip((s.blocks, s.G, s.idx, s.Chat), want_fields):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
    assert [type(v) for v in sc.cap] == [np.float64] * 2
    assert np.array(sc.cap).tobytes() == np.array(cap[:2]).tobytes()
    assert sc.eps_index == cap[2]


@pytest.mark.parametrize("fixture", ["example1", "example2", "example3", "unstabilizable"])
def test_fixture_scalarization_holds_the_cap_once_outside_the_stacks(fixture):
    """No fixture declares a 1 x 1 block: with the cap held apart, no stack
    has dimension 1, no stack holds the cap's block position, and the cap's
    scalars are the loop oracle's 1e-3 and 1.0."""
    problem = _design(fixture)
    sc = sdp._Scalarized(problem)
    assert all(s.G.shape[-1] > 1 for s in sc.stacks) and sc.one is None
    assert all(len(problem.blocks) not in s.blocks for s in sc.stacks)
    assert sorted(l for s in sc.stacks for l in s.blocks) == list(range(len(problem.blocks)))
    assert sc.total_dim == sum(blk.dim for blk in problem.blocks) + 1
    _, cap = _without_cap(problem, oracles.loop_scalarize(problem))
    assert np.array(sc.cap).tobytes() == np.array(cap[:2]).tobytes()
    assert np.array(sc.cap).tobytes() == np.array([1e-3, 1.0]).tobytes()


@pytest.mark.parametrize("scalarize", [sdp._Scalarized, oracles.loop_scalarize])
def test_asymmetric_contribution_names_block_and_scalar(scalarize):
    """x (scalar 2) enters the 2x2 block as [[0, x], [0, 0]]; a before it is symmetric."""
    variables = [sdp.VarSpec("eps", "scalar"), sdp.VarSpec("a", "sym", 1, 1),
                 sdp.VarSpec("x", "scalar")]
    blocks = [sdp.AffineBlock(-np.eye(2), [sdp.BlockTerm("a", [[1.0], [0.0]], [[1.0, 0.0]]),
                                           sdp.BlockTerm("x", [[1.0], [0.0]], [[0.0, 1.0]])],
                              label="skewed")]
    message = r"^block 'skewed': asymmetric contribution for scalar 2$"
    with pytest.raises(ConfigError, match=message):
        scalarize(sdp.SdpProblem(variables, blocks))


def test_member_wise_steps_take_one_call_per_dimension(monkeypatch):
    """_distinct_shapes' four stacks span dimensions 1, 2 and 3 over K = 5
    unknowns, the margin cap apart: every stepped iteration inverts S once
    per dimension above 1,
    factors and inverts the Schur complement once and the stacked X and S
    once per dimension above 1, and takes one eigensolve per dimension above
    1 for each of its two step lengths, over that dimension's X and S.  The
    dimension-1 members make no LAPACK call."""
    calls = []

    def spy(name, f):
        def wrapped(A):
            calls.append((name, A.shape))
            return f(A)
        monkeypatch.setattr(np.linalg, name, wrapped)

    for name in ("inv", "cholesky", "eigvalsh"):
        spy(name, getattr(np.linalg, name))
    sol = sdp.solve(_distinct_shapes())
    assert sol.status == "optimal"
    stepped = sol.iterations - 1
    assert [np.isnan(r.alpha_p) for r in sol.history] == [False] * stepped + [True]
    s_inverses = [("inv", (2, 2, 2)), ("inv", (1, 3, 3))]
    schur = [("cholesky", (5, 5)), ("inv", (5, 5))]
    factors = [("cholesky", (4, 2, 2)), ("inv", (4, 2, 2)),
               ("cholesky", (2, 3, 3)), ("inv", (2, 3, 3))]
    search = [("eigvalsh", (4, 2, 2)), ("eigvalsh", (2, 3, 3))]
    assert calls == (s_inverses + schur + factors + search * 2) * stepped


def test_solve_makes_no_linear_solve(monkeypatch):
    """Every solve with a Cholesky factor is a product with its inverse:
    np.linalg.solve is never called, on a well-posed or an infeasible
    problem."""
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(a))
    assert sdp.solve(_distinct_shapes()).status == "optimal"
    assert sdp.solve(_scalar_problem(1.0)).status == "infeasible"
    assert calls == []


def _two_lu_solve(L, M, rhs):
    """The Schur solve _schur_solve replaces: two triangular systems by LU,
    then one refinement pass."""
    dy = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
    return dy + np.linalg.solve(L.T, np.linalg.solve(L, rhs - M @ dy))


@pytest.mark.parametrize("n, decades, jittered", [
    (40, 10.5, False), (120, 12.0, False), (217, 11.0, False), (40, 10.5, True),
    (217, 11.0, True)])
def test_inverse_factor_schur_solve_is_as_accurate_as_two_lu_solves(n, decades, jittered):
    """On symmetric matrices of condition 1e10 or more, one of them
    factoring only after jitter (three eigenvalues at -1e-15), the
    product with the inverse factor plus refinement leaves a relative
    residual at most 10x that of the LU path on the same factor."""
    rng = np.random.default_rng(n + int(jittered))
    eigenvalues = np.logspace(0.0, -decades, n)
    if jittered:
        eigenvalues[-3:] = -1e-15 * np.arange(1.0, 4.0)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = sdp._sym((Q * eigenvalues) @ Q.T)
    assert np.linalg.cond(M) >= 1e10
    Li, jitter = sdp._inv_chol(M)
    assert (jitter > 0.0) == jittered
    L = np.linalg.cholesky(M + jitter * np.eye(n))
    assert np.linalg.inv(L).tobytes() == Li.tobytes()
    for rhs in rng.standard_normal((3, n)):
        got = np.linalg.norm(M @ sdp._schur_solve(Li, M, rhs) - rhs)
        want = np.linalg.norm(M @ _two_lu_solve(L, M, rhs) - rhs)
        assert got <= 10.0 * want, (got, want)


def _solved_steps(L, D):
    """Each member's step computed from two LU solves."""
    Y = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, D), -1, -2))
    lam = np.linalg.eigvalsh(sdp._sym(Y))
    low = lam.min(axis=-1)
    steps = np.full(len(D), np.inf)
    steps[low < -1e-16] = -1.0 / low[low < -1e-16]
    return steps, np.abs(lam).max(axis=-1)


# a margin cap whose steps are inf: factors 1, directions 0
_FREE_CAP = (1.0, 1.0, 0.0, 0.0)


def _member_steps(Li, D):
    """Each member's step from _steps, the member as both X and S."""
    return np.array([sdp._steps([Li[[m, m]]], [D[[m]]], [D[[m]]], _FREE_CAP)[0]
                     for m in range(len(D))])


@pytest.mark.parametrize("d", [1, 2, 4, 12])
def test_inverse_factor_step_matches_solved_step(d):
    """The step search on stacked inverse factors against the LU-solve form,
    on random stacks with a member that factors only after jitter (member
    2, an eigenvalue at -1e-13) and one with no negative direction (member
    4, step inf).  Steps agree within 1e-12 relative on the factored
    members.  The jittered member has condition about 1e13, so both forms
    carry rounding of order 1e-16 times the spectral radius of L^-1 D L^-T:
    there its eigenvalue -1/step agrees within 1e-12 of that radius, and
    within 1e-12 relative when D points into its nearly singular
    direction, where its step is the one that binds."""
    rng = np.random.default_rng(d)
    B = rng.standard_normal((6, d, d))
    X = sdp._sym(B @ np.swapaxes(B, 1, 2)) + 1e-3 * np.eye(d)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    X[2] = np.eye(d) - (1.0 + 1e-13) * np.outer(v, v)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(X[2])
    Li, jitter = sdp._inv_chol(X)
    assert jitter > 0.0
    shift = np.zeros((6, 1, 1))
    shift[2] = jitter  # the failing member's
    L = np.linalg.cholesky(X + shift * np.eye(d))
    assert np.linalg.inv(L).tobytes() == Li.tobytes()
    for binding in (False, True):
        D = sdp._sym(rng.standard_normal((6, d, d)))
        if binding:
            D[2] = -np.outer(v, v) - 1e-3 * np.eye(d)
        D[4] = np.eye(d)
        got = _member_steps(Li, D)
        want, radius = _solved_steps(L, D)
        assert np.array_equal(np.isinf(got), np.isinf(want)) and np.isinf(got[4])
        factored = [0, 1, 3, 5]
        np.testing.assert_allclose(got[factored], want[factored], rtol=1e-12)
        assert abs(1.0 / got[2] - 1.0 / want[2]) <= 1e-12 * radius[2]
        if binding:
            np.testing.assert_allclose(got[2], want[2], rtol=1e-12)


@pytest.mark.parametrize("case", ["ex1", "ex3", "unstabilizable"])
def test_step_search_matches_blockwise_oracle_bitwise(case, monkeypatch):
    """On every iterate of a fixture's solve, each step length equals the
    least of oracles._blockwise_max_step over the blocks' X (primal) or S
    (dual) members and the margin cap's x (or s), each its own 2-D
    eigensolve and division, bit for bit."""
    steps = sdp._steps
    seen = []

    def spy(Lxs, dX, dS, cap):
        out = steps(Lxs, dX, dS, cap)
        seen.append((Lxs, dX, dS, cap, out))
        return out

    monkeypatch.setattr(sdp, "_steps", spy)
    sol = sdp.solve(_ORACLE_CASES[case]())
    assert len(seen) == 2 * sum(not np.isnan(r.alpha_p) for r in sol.history) > 0
    for Lxs, dX, dS, (lx, ls, dxe, dse), (primal, dual) in seen:
        cap_x, cap_s = ([oracles._blockwise_max_step(np.full((1, 1), l), np.full((1, 1), d))]
                        for l, d in ((lx, dxe), (ls, dse)))
        assert primal == min([oracles._blockwise_max_step(L[m], dx[m])
                              for L, dx in zip(Lxs, dX) for m in range(len(dx))] + cap_x)
        assert dual == min([oracles._blockwise_max_step(L[len(dx) + m], ds[m])
                            for L, dx, ds in zip(Lxs, dX, dS) for m in range(len(ds))] + cap_s)
    assert sum(np.isfinite([p for *_, out in seen for p in out])) > len(seen) // 2


def test_step_search_bounds_match_the_member_wise_rule_bitwise():
    """Each step is the least member-wise bound -1/lam, inf where lam >=
    -1e-16 or lam is nan: values at and around the threshold, signed
    zeros, -inf (step 0) and nan as 1 x 1 entries, the margin cap's
    included, and finite values as the least eigenvalue of diagonal 2 x 2
    members, on identity factors."""
    def bound(lam):
        return -1.0 / lam if lam < -1e-16 else np.inf

    pool = [-2e-16, -1.5e-16, -1e-16, -1e-14, -0.0, 0.0, -3.0, 2.0]
    rng = np.random.default_rng(3)
    for _ in range(200):
        ones = rng.choice(pool + [np.nan, -np.inf], size=(2, 4))  # the last is the cap's
        twos = rng.choice(pool, size=(2, 2))
        D1 = ones[:, :3].reshape(2, 3, 1, 1)
        D2 = np.zeros((2, 2, 2, 2))
        D2[..., 0, 0], D2[..., 1, 1] = twos, 1.0
        Lxs = [np.ones((6, 1, 1)), np.broadcast_to(np.eye(2), (4, 2, 2))]
        cap = (np.float64(1.0), np.float64(1.0), ones[0, 3], ones[1, 3])
        got = sdp._steps(Lxs, [D1[0], D2[0]], [D1[1], D2[1]], cap)
        want = [min(map(bound, np.concatenate([ones[i], np.minimum(twos[i], 1.0)])))
                for i in range(2)]
        assert [np.float64(g).tobytes() for g in got] == [np.float64(w).tobytes() for w in want]


def _one_by_one_values():
    """Positive 1 x 1 entries over the whole float range: random decades,
    subnormals down to the least one, 1e308 and the largest float."""
    rng = np.random.default_rng(11)
    return np.concatenate([10.0 ** rng.uniform(-307.0, 308.0, 2000),
                           rng.uniform(0.0, 1.0, 500) * 2.0 ** -1022,
                           [5e-324, 1e-320, 2.0 ** -1022, 1.0, 1e308, np.finfo(float).max]])


def test_one_by_one_inv_chol_and_inverse_match_lapack_bitwise(monkeypatch):
    """A 1 x 1 member's inverse factor 1/sqrt(x) and its S^-1, 1/s, equal
    LAPACK's inv(cholesky(x)) and inv(s) bit for bit, subnormals, 1e308
    and the largest float included, with no LAPACK call.  Members that
    are zero, negative, nan or inf send the stack to LAPACK and the jitter
    ladder, which gives every positive member the same bits and climbs for
    the others alone; nan and inf, whose factors LAPACK returns unfinite,
    fail every rung.  For a normal s
    (an iterate's s stays above 1e-170) the solver's _sym(inv(s)) is also
    1/s."""
    A = _one_by_one_values().reshape(-1, 1, 1)
    with np.errstate(over="ignore", divide="ignore"):  # 1/s past the float range is inf
        want_inv = np.linalg.inv(A)
        got_inv = 1.0 / A
    assert got_inv.tobytes() == want_inv.tobytes()
    normal = A[A[:, 0, 0] >= 2.0 ** -1022]
    assert (1.0 / normal).tobytes() == sdp._sym(np.linalg.inv(normal)).tobytes()
    want = np.linalg.inv(np.linalg.cholesky(A))
    lapack = []
    cholesky = np.linalg.cholesky

    def spy(M):
        lapack.append(M.shape)
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    for part in (slice(None), slice(0, 1), slice(-1, None)):
        Li, jitter = sdp._inv_chol(A[part])
        assert (Li.tobytes(), jitter) == (want[part].tobytes(), 0.0)
    Li, jitter = sdp._inv_chol(A[3, :, :])  # one 2-D matrix
    assert (Li.tobytes(), jitter) == (want[3].tobytes(), 0.0)
    assert lapack == []

    bad = np.array([0.0, -1e-13])
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for x in bad:  # the ladder's first rung factors 0 and -1e-13
        Li, jitter = sdp._inv_chol(np.array([[x]]))
        assert jitter == 1e-12
        assert Li.tobytes() == np.linalg.inv(cholesky(np.array([[x + 1e-12]]))).tobytes()
    mixed = np.concatenate([A[:5, :, 0], bad[:, None]]).reshape(-1, 1, 1)
    Li, jitter = sdp._inv_chol(mixed)
    assert jitter == 1e-12
    assert Li[:5].tobytes() == want[:5].tobytes()
    assert Li.tobytes() == np.array([sdp._inv_chol(m)[0] for m in mixed]).tobytes()
    for x in (np.nan, np.inf):
        for M in (np.array([[x]]), np.concatenate([mixed, [[[x]]]])):
            with pytest.raises(np.linalg.LinAlgError):
                sdp._inv_chol(M)


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e-3, -1.5, 1e308, -1e308,
          np.inf, -np.inf, np.nan]


def test_cap_scalar_arithmetic_matches_one_by_one_stacks_bitwise():
    """Every formula _iterate applies to the margin cap's scalars equals the
    numpy call it stands for on a one-member 1 x 1 stack with the cap's
    coefficient, on every combination of signed zeros, subnormals, +-1e308,
    +-inf and nan: the same bits (signed zeros included) and the same
    overflow, invalid and divide flags, so the same RuntimeWarnings.  Where
    two nans meet, numpy's scalar and array loops keep different ones, so
    there both results must be nan: IEEE 754 gives a nan's sign no meaning."""
    g, c = sdp._Scalarized(_oscillator()).cap
    stack = sdp._Stack(0, slice(0, 1), [0], [[[[g]]]], [[0]], [[[-c]]])

    def one(v):
        return np.full((1, 1, 1), v)

    formulas = {  # arity, the cap's formula, the 1 x 1 stack's
        "rp": (1, lambda x: sdp._dot(g, x), lambda x: stack.apply(one(x))[0, 0]),
        "sum_k y_k G_k": (1, lambda v: sdp._dot(v, g),
                          lambda v: stack.adjoint(np.array([v]))[0, 0, 0]),
        "Rd": (3, lambda c, s, v: sdp._half(c - s - sdp._dot(v, g)),
               lambda c, s, v: sdp._sym(one(c) - one(s) - stack.adjoint(np.array([v])))[0, 0, 0]),
        "mu": (2, sdp._dot, lambda x, s: sdp._inner(one(x), one(s))[0]),
        "dinf": (1, lambda r: np.sqrt(sdp._dot(r, r)),
                 lambda r: np.sqrt(sdp._inner(one(r), one(r)))[0]),
        "S^-1": (1, lambda s: 1.0 / s, lambda s: (1.0 / one(s))[0, 0, 0]),
        "M": (2, lambda x, si: sdp._dot(sdp._dot(x * g, si), g),
              lambda x, si: np.einsum("nkab,njab->nkj", stack.left(one(x), one(si)),
                                      stack.G)[0, 0, 0]),
        "t3, t4": (3, lambda si, r, x: sdp._dot(g, sdp._half(sdp._dot(sdp._dot(si, r), x))),
                   lambda si, r, x: stack.apply(sdp._sym(one(si) @ one(r) @ one(x)))[0, 0]),
        "dX": (4, lambda m, si, x, ds: sdp._half(m * si - x - sdp._dot(sdp._dot(si, ds), x)),
               lambda m, si, x, ds: sdp._sym(m * one(si) - one(x)
                                             - one(si) @ one(ds) @ one(x))[0, 0, 0]),
        "corrector": (3, lambda a, si, ds: a - sdp._dot(sdp._dot(si, ds), si),
                      lambda a, si, ds: (one(a) - one(si) @ one(ds) @ one(si))[0, 0, 0]),
        "factor": (1, lambda v: sdp._inv_sqrt(sdp._half(v)),
                   lambda v: sdp._inv_chol(sdp._sym(one(v)))[0][0, 0, 0]),
        "steps": (2, lambda l, d: sdp._steps([], [], [], (l, l, d, d)),
                  lambda l, d: sdp._steps([np.full((2, 1, 1), l)], [one(d)], [one(d)], _FREE_CAP)),
        "update": (3, lambda x, a, d: x + a * d, lambda x, a, d: (one(x) + a * one(d))[0, 0, 0]),
    }

    def run(f, args):
        flags = []
        with np.errstate(all="call", under="ignore", call=lambda kind, flag: flags.append(kind)):
            try:
                out = np.asarray(f(*map(np.float64, args)), dtype=float)
            except np.linalg.LinAlgError:
                out = None
        return out, sorted(set(flags))

    for name, (arity, scalar, stacked) in formulas.items():
        for args in itertools.product(_EDGES, repeat=arity):
            (got, got_flags), (want, want_flags) = run(scalar, args), run(stacked, args)
            assert got_flags == want_flags, (name, args)
            if want is None or got is None:  # LinAlgError
                assert got is want, (name, args)
            elif np.isnan(want).all():
                assert np.isnan(got).all(), (name, args)
            else:
                assert got.tobytes() == want.tobytes(), (name, args)


@pytest.mark.parametrize("case", ["distinct_shapes", "one_shape", "oscillator"])
def test_cap_maximum_matches_its_one_by_one_member_bitwise(case):
    """_Scalarized.top, the largest of per-dimension maxima with the cap's
    value, equals max() over np.max of each dimension's members with the
    cap appended to dimension 1's (a new last dimension when there is
    none), on members that hold nan, inf and signed zeros: a nan in
    dimension 1 hides the cap's value there, and only there."""
    sc = sdp._Scalarized(_ORACLE_CASES[case]())
    dims = [Ch.shape[-1] for Ch in sc.Chat]
    rng = np.random.default_rng(21)
    pool = np.array([0.0, 0.5, 2.0, 1e308, np.inf, np.nan])
    for _ in range(300):
        members = [rng.choice(pool, size=len(Ch)) for Ch in sc.Chat]
        cap = np.float64(rng.choice(pool))
        got = sc.top([m.max() for m in members], cap)
        if 1 in dims:
            members[dims.index(1)] = np.append(members[dims.index(1)], cap)
        else:
            members.append(np.array([cap]))
        want = max(m.max() for m in members)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_edge_problems_stack_as_intended():
    """Shapes as (dimension, unknowns, members), the margin cap counted as
    the (1, 1) member it is scaled as: with a (1, 1) stack it would join
    it, so it is one more member there, else a shape of its own."""
    def shapes(problem):
        sc = sdp._Scalarized(problem)
        assert sc.cap == (1e-3, 1.0)
        out = [[s.G.shape[-1], s.G.shape[1], len(s.blocks)] for s in sc.stacks]
        ones = [shape for shape in out if shape[:2] == [1, 1]]
        if ones:
            ones[0][2] += 1
        else:
            out.append([1, 1, 1])
        return sorted(map(tuple, out))

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
    inv_chol = sdp._inv_chol
    calls = []

    def spy(A):
        Li, jitter = inv_chol(A)
        calls.append((A.copy(), jitter))
        return Li, jitter

    monkeypatch.setattr(sdp, "_inv_chol", spy)
    Li, jitter = inv_chol(np.array([good, bad, 2.0 * good]))
    assert [A.tobytes() for A, _ in calls] == [A.tobytes() for A in (good, bad, 2.0 * good)]
    assert [j > 0.0 for _, j in calls] == [False, True, False]
    assert jitter == calls[1][1]
    expected = [np.linalg.inv(np.linalg.cholesky(good)), inv_chol(bad)[0],
                np.linalg.inv(np.linalg.cholesky(2.0 * good))]
    assert Li.tobytes() == np.array(expected).tobytes()


def test_inv_chol_climbs_the_jitter_ladder_once(monkeypatch):
    """A matrix is factored as it is first; only a failing one is
    refactored, at b*1e-12*I and ten times more on each failure, b =
    max(tr/d, 1), nine factorizations in all; a stack is factored whole,
    then member by member, and only its failing member climbs.  No matrix
    is factored twice at the same jitter."""
    cholesky = np.linalg.cholesky
    calls = []

    def spy(A):
        calls.append(A.copy())
        return cholesky(A)

    def ladder(A, steps):
        jitters = [max(np.trace(A) / len(A), 1.0) * 1e-12]
        while len(jitters) < steps:
            jitters.append(jitters[-1] * 10.0)
        return jitters, [A + j * np.eye(len(A)) for j in jitters]

    def distinct(mats):
        return len({(A.shape, A.tobytes()) for A in mats}) == len(mats)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    bad = np.array([[40.0, 1.0], [1.0, 0.025 - 3e-9]])  # eigenvalue -3e-9, b = 20.0125
    _, jitter = sdp._inv_chol(bad)
    jitters, shifted = ladder(bad, 4)  # 2e-11, 2e-10 and 2e-9 fail
    assert [A.tobytes() for A in calls] == [A.tobytes() for A in [bad] + shifted]
    assert jitter == jitters[-1] and jitters[0] == pytest.approx(2.00125e-11) and distinct(calls)

    calls.clear()
    never = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inv_chol(never)
    assert [A.tobytes() for A in calls] == [A.tobytes() for A in [never] + ladder(never, 8)[1]]
    assert distinct(calls)

    calls.clear()
    good = np.array([[4.0, 1.0], [1.0, 3.0]])
    stack = np.array([good, bad, 2.0 * good])
    _, stacked_jitter = sdp._inv_chol(stack)
    want = [stack, good, bad] + shifted + [2.0 * good]
    assert [A.tobytes() for A in calls] == [A.tobytes() for A in want]
    assert [A.shape for A in calls] == [(3, 2, 2)] + [(2, 2)] * 7
    assert stacked_jitter == jitter and distinct(calls)


def test_inv_chol_refuses_a_nan_that_lapack_factors(monkeypatch):
    """LAPACK factors a nan without failing, and a nan it reads reaches the
    factor's diagonal.  A stack member with a nan, or a K x K matrix with a
    nan entry, counts as failed: it climbs the whole jitter ladder alone,
    nine factorizations, and ends in LinAlgError.  So does an inf on the
    diagonal, whose jitter is inf, without a RuntimeWarning.  A solve whose
    data hold a nan ends at its first Schur factorization, before taking a
    step."""
    cholesky = np.linalg.cholesky
    calls = []

    def spy(A):
        calls.append(A.shape)
        return cholesky(A)

    good = np.array([[4.0, 1.0], [1.0, 3.0]])
    member = np.array([[np.nan, 0.0], [0.0, 1.0]])
    B = np.random.default_rng(9).standard_normal((6, 6))
    K = B @ B.T + np.eye(6)
    K[4, 1] = K[1, 4] = np.nan
    monkeypatch.setattr(np.linalg, "cholesky", spy)
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inv_chol(np.array([good, member, 2.0 * good]))
    assert calls == [(3, 2, 2), (2, 2), (2, 2)] + [(2, 2)] * 8
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inv_chol(K)
    assert calls == [(6, 6)] * 9
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError):
        sdp._inv_chol(np.diag([np.inf, 1.0]))
    assert calls == [(2, 2)] * 9
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)

    sol = sdp.solve(_scalar_problem(np.nan))
    assert (sol.status, sol.iterations, len(sol.history)) == ("numerical_failure", 1, 1)
    assert np.isnan(sol.history[0][5:]).all()


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
    assert max(last.pinf, last.dinf, last.gap) <= sdp.TOL


def test_history_records_the_schur_complement_jitter(monkeypatch):
    """The first Schur complement's factorization fails once: its record
    holds the jitter that let it succeed, every other step 0.0."""
    cholesky = np.linalg.cholesky
    failed = []

    def fails_once(A):
        if A.ndim == 2 and not failed:
            failed.append(A.copy())
            raise np.linalg.LinAlgError("planted failure")
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", fails_once)
    sol = sdp.solve(_oscillator())
    assert sol.status == "optimal"
    M = failed[0]
    first, *rest, last = sol.history
    assert first.jitter == 1e-12 * max(np.trace(M) / len(M), 1.0) > 0.0
    assert [r.jitter for r in rest] == [0.0] * len(rest)
    assert np.isnan(last.jitter)


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
