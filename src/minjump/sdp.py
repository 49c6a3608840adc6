"""Small dense semidefinite feasibility solver.

Problems are posed as margin maximization: find variable values and the
largest scalar eps such that every listed affine symmetric block satisfies
F(x) + eps*I <= 0 (strict blocks) or F(x) <= 0 (non-strict blocks).  A
positive optimal eps certifies strict feasibility; a negative optimum at
convergence is reported as infeasibility.  The confidence of that report is
the duality gap tolerance: at convergence the achieved eps is optimal within
tol, so no point with margin above eps + tol exists.  No Farkas ray is
extracted.

The algorithm is a standard infeasible-start primal-dual interior-point
method with the HKM search direction and a Mehrotra predictor-corrector
step.  Problem sizes here are tiny (blocks up to ~12x12, a few hundred
scalar unknowns), so iterates are dense and the Schur complement is formed
explicitly.  Work runs once per block dimension, on stacked arrays;
contractions with the constraint matrices run per stack of equal dimension
and number of active unknowns, X G_k S^-1 over G_k's nonzero entries only,
in the dense einsum's order.  One helper forms every Cholesky factor,
jittering only a member that fails (b*1e-12*I, then tenfold, b = max(tr/d,
1)), and inverts it once per iteration; solves with it are products with
that inverse; a factor whose diagonal is not finite has failed too (LAPACK
passes a nan through).  A 1 x 1 member makes no LAPACK call: its inverse
factor is 1/sqrt(x), its S^-1 is 1/s and its eigenvalue is its entry,
LAPACK's answers bit for bit.  The step search solves one eigenproblem per
dimension, over X and S together, and divides once per step length.  _sym runs where rounding can leave a result asymmetric
(products, inverses, sums with sum_k y_k G_k), and before the X and S
factors: X and S are exactly symmetric, but an entry past half the float
range makes X + X' overflow there, a breakdown that skipping it would hide.
Stacked calls compute member by member, and sums and scatters over blocks
run in block order, so this reproduces a loop over single blocks bit for
bit; the test suite keeps that loop as its reference.  Each iteration's
mu, residuals, gap, eps, step lengths, centering parameter and
Schur-complement jitter are kept in SdpSolution.history, which the stop
rules read.

eps is always bounded above by EPS_CAP through an internally added scalar
inequality, the margin cap; without it the margin objective is unbounded
whenever the remaining constraints are homogeneous.  The cap is scaled as a
1 x 1 block, then kept out of the stacks: its x and s are np.float64
scalars whose every term rounds, and warns, as the 1 x 1 member's numpy
call would, added after the stacked terms, where block order puts the cap.
"""

import logging
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import CapacityError, ConfigError, NumericError

log = logging.getLogger("minjump.sdp")

EPS_NAME = "eps"  # the margin variable every problem declares
MAX_ITER = 100
TOL = 1e-9         # stop on residuals and gap at or below this
EPS_CAP = 1e3      # the margin never exceeds this
SCALAR_CAP = 2000  # most scalar unknowns a problem may have
STEP_FRAC = 0.98   # fraction of the step to the cone's boundary taken


@dataclass(frozen=True)
class VarSpec:
    """Declared unknown: symmetric d x d, rectangular rows x cols, or scalar."""

    name: str
    kind: str
    rows: int = 1
    cols: int = 1

    def __post_init__(self):
        if self.kind not in ("sym", "rect", "scalar"):
            raise ConfigError(f"unknown variable kind {self.kind!r}")
        if self.kind == "sym" and self.rows != self.cols:
            raise ConfigError(f"symmetric variable {self.name} must be square")
        if self.kind == "scalar" and (self.rows, self.cols) != (1, 1):
            raise ConfigError(f"scalar variable {self.name} has no shape")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"variable {self.name} has empty shape")

    @property
    def size(self):
        if self.kind == "sym":
            return self.rows * (self.rows + 1) // 2
        return self.rows * self.cols

    def basis(self):
        """Unit-direction matrices, one per scalar component: a (size, rows,
        cols) stack, symmetric components in np.triu_indices order."""
        if self.kind != "sym":
            return np.eye(self.size).reshape(self.size, self.rows, self.cols)
        a, b = np.triu_indices(self.rows)
        E = np.zeros((self.size, self.rows, self.rows))
        E[np.arange(self.size), a, b] = E[np.arange(self.size), b, a] = 1.0
        return E

    def assemble(self, flat):
        """Matrix (or scalar) value from the flat component vector."""
        if self.kind == "scalar":
            return float(flat[0])
        out = np.zeros((self.rows, self.cols))
        if self.kind == "sym":
            a, b = np.triu_indices(self.rows)
            out[a, b] = out[b, a] = flat
        else:
            out[:] = np.reshape(flat, (self.rows, self.cols))
        return out


@dataclass(frozen=True, eq=False)
class BlockTerm:
    """One affine contribution left @ V @ right, optionally plus its transpose.

    sym_pair=True adds the transposed product, which is how expressions like
    A V + V A' or the off-diagonal pairs of a symmetric block are written.
    """

    var: str
    left: np.ndarray
    right: np.ndarray
    sym_pair: bool = False

    def __init__(self, var, left, right, sym_pair=False):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "left", np.array(left, dtype=float))
        object.__setattr__(self, "right", np.array(right, dtype=float))
        object.__setattr__(self, "sym_pair", bool(sym_pair))

    def value(self, V):
        """The term at V, or at every member of a (n, rows, cols) stack V."""
        M = self.left @ np.atleast_2d(V) @ self.right
        if self.sym_pair:
            M = M + M.swapaxes(-1, -2)
        return M


@dataclass(frozen=True, eq=False)
class AffineBlock:
    """Constraint block constant + sum of terms (+ eps*I when strict) <= 0."""

    constant: np.ndarray
    terms: tuple
    strict: bool = False
    label: str = ""

    def __init__(self, constant, terms, strict=False, label=""):
        C = np.array(constant, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ConfigError(f"block {label!r}: constant must be square")
        object.__setattr__(self, "constant", C)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "strict", bool(strict))
        object.__setattr__(self, "label", label)

    @property
    def dim(self):
        return self.constant.shape[0]


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Margin-maximization problem over declared variables.

    The scalar variable named EPS_NAME is the maximized margin; it must be
    declared among the variables.  Strict blocks receive an implicit +eps*I.
    """

    variables: tuple
    blocks: tuple

    def __init__(self, variables, blocks):
        variables = tuple(variables)
        blocks = tuple(blocks)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names")
        byname = {v.name: v for v in variables}
        if EPS_NAME not in byname or byname[EPS_NAME].kind != "scalar":
            raise ConfigError(f"margin variable {EPS_NAME!r} must be a declared scalar")
        if not blocks:
            raise ConfigError("problem needs at least one block")
        for blk in blocks:
            for t in blk.terms:
                if t.var not in byname:
                    raise ConfigError(f"block {blk.label!r} references unknown variable {t.var!r}")
                v = byname[t.var]
                if t.left.shape[1] != v.rows or t.right.shape[0] != v.cols:
                    raise ConfigError(
                        f"block {blk.label!r}, variable {t.var!r}: factor shapes "
                        f"{t.left.shape}x({v.rows},{v.cols})x{t.right.shape} do not chain"
                    )
                if t.left.shape[0] != blk.dim or t.right.shape[1] != blk.dim:
                    raise ConfigError(f"block {blk.label!r}: term does not fill the block")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "blocks", blocks)

    @property
    def scalar_count(self):
        return sum(v.size for v in self.variables)


@dataclass(frozen=True, eq=False)
class SdpSolution:
    status: str
    values: dict
    eps: float
    iterations: int
    gap: float
    primal_infeas: float
    dual_infeas: float
    history: tuple = ()


class IterationRecord(NamedTuple):
    """One solver iteration: the residuals it started from, then its step.

    jitter is the diagonal shift the Schur complement needed to factor, 0.0
    when none.  The step fields stay nan on the iteration that ends the loop
    before taking a step.
    """

    mu: float
    pinf: float
    dinf: float
    gap: float
    eps: float
    alpha_p: float = np.nan
    alpha_d: float = np.nan
    sigma: float = np.nan
    jitter: float = np.nan


class _Stack:
    """Scaled blocks of one shape: dimension d with k active unknowns.

    G (n, k, d, d) holds the constraint matrices, idx (n, k) the unknowns
    they belong to, Chat (n, d, d) the negated constants, blocks (n,) each
    member's block position, and rows its rows in dimension group `group`;
    left() visits G's nonzero entries, found once in C order.
    """

    def __init__(self, group, rows, blocks, G, idx, C):
        self.group, self.rows = group, rows
        self.blocks = np.array(blocks, dtype=int)
        self.G = np.array(G)
        self.idx = np.array(idx, dtype=int)
        self.Chat = -np.array(C)
        k, d = self.G.shape[1:3]
        m, j, b, c = np.nonzero(self.G)
        self._g, r = self.G[m, j, b, c], np.arange(d)
        # per entry, the flat positions of X[m, :, b] and the row Sinv[m, c];
        # per (entry, a, d) term, its flat (member, unknown, a, d) position
        self._x_at, self._s_row = ((m * d)[:, None] + r) * d + b[:, None], m * d + c
        self._at = ((((m * k + j) * d)[:, None, None] + r[:, None]) * d + r).ravel()

    def left(self, X, Sinv):
        """X G_k Sinv for every member and unknown, bit for bit the einsum
        "nab,nkbc,ncd->nkad": it sums (X_ab G_kbc) Sinv_cd from +0 in b-major
        order, and bincount adds in input order from 0.  For finite X and
        Sinv a term with G_kbc = 0 is +-0 and changes no sum, so it is skipped."""
        rows = Sinv.reshape(-1, Sinv.shape[-1]).take(self._s_row, axis=0)
        terms = (X.reshape(-1).take(self._x_at) * self._g[:, None])[:, :, None] * rows[:, None, :]
        sums = np.bincount(self._at, terms.ravel(), minlength=self.G.size)  # int if empty
        return sums.astype(float, copy=False).reshape(self.G.shape)

    def adjoint(self, v):
        """sum_k v[idx_k] G_k for every member."""
        n, k, d, _ = self.G.shape
        return (v[self.idx][:, None, :] @ self.G.reshape(n, k, d * d)).reshape(n, d, d)

    def apply(self, A):
        """<G_k, A> for every member and active unknown: an (n, k) array."""
        return np.einsum("nkab,nab->nk", self.G, A)


class _Scalarized:
    """Flat view: constraint matrices over active unknowns, grouped by dimension.

    Blocks with the same dimension and number of active unknowns share one
    _Stack; the stacks of one dimension follow each other in self.stacks
    and own consecutive rows of that dimension's (N, d, d) arrays, such as
    self.Chat.  Every sum or scatter over blocks goes through block_sum or
    scatter, which visit the members in the problem's block order, so the
    iteration rounds exactly as a loop over single blocks would.  The
    margin cap, the last block, is scaled with the others and then kept
    apart: self.cap holds its scaled coefficient and negated constant.
    """

    def __init__(self, problem):
        sizes = [v.size for v in problem.variables]
        self.var_offset = dict(zip([v.name for v in problem.variables],
                                   np.cumsum([0] + sizes).tolist()))
        self.K = sum(sizes)
        if self.K > SCALAR_CAP:
            raise CapacityError(f"{self.K} scalar unknowns exceed the cap {SCALAR_CAP}")
        self.eps_index = self.var_offset[EPS_NAME]
        basis = {v.name: v.basis() for v in problem.variables}

        blocks = list(problem.blocks) + [_CAP_BLOCK]
        shapes = {}        # (dim, active unknowns) -> members (position, stack, idx, C)
        for l, blk in enumerate(blocks):
            # every component of each variable the block names, and of the
            # margin when strict, in offset order; terms add in order, the margin last
            names = sorted({t.var for t in blk.terms} | ({EPS_NAME} if blk.strict else set()),
                           key=self.var_offset.get)
            idx = [self.var_offset[n] + k for n in names for k in range(len(basis[n]))]
            stack = np.zeros((len(idx), blk.dim, blk.dim))
            for t in blk.terms:
                at = idx.index(self.var_offset[t.var])
                stack[at:at + len(basis[t.var])] += t.value(basis[t.var])
            if blk.strict:
                stack[idx.index(self.eps_index)] += np.eye(blk.dim)
            shapes.setdefault((blk.dim, len(idx)), []).append((l, stack, idx, blk.constant))
        # per shape from here on; the first asymmetric block in block order is named
        shapes = [[np.array(f) for f in zip(*members)] for members in shapes.values()]
        bad = [(l[m], idx[m, j]) for l, G, idx, _ in shapes for m, j in zip(*np.nonzero(
            np.abs(G - G.swapaxes(2, 3)).max(axis=(2, 3))
            > 1e-10 * np.maximum(1.0, np.abs(G).max(axis=(2, 3)))))]
        if bad:
            l, k = min(bad)
            raise ConfigError(f"block {blocks[l].label!r}: asymmetric contribution for scalar {k}")
        groups = {}        # dim -> its stacks
        for l, G, idx, C in shapes:
            G = 0.5 * (G + G.swapaxes(2, 3))
            # 1 / max(1, |C|, max |G|) per block, the norm in its own call;
            # fmax skips a nan as Python's max does
            scale = 1.0 / np.fmax(np.fmax(1.0, [float(np.linalg.norm(c)) for c in C]),
                                  np.abs(G).max(axis=(1, 2, 3), initial=0.0))
            G = scale[:, None, None, None] * G
            C = (scale * 0.5)[:, None, None] * (C + C.swapaxes(1, 2))
            if l[-1] == len(problem.blocks):  # the cap, its shape's last member
                self.cap = (G[-1, 0, 0, 0], -C[-1, 0, 0])
                l, G, idx, C = l[:-1], G[:-1], idx[:-1], C[:-1]
                if not len(l):
                    continue
            stacks = groups.setdefault(G.shape[-1], [])
            at = stacks[-1].rows.stop if stacks else 0
            stacks.append(_Stack(list(groups).index(G.shape[-1]), slice(at, at + len(l)), l,
                                 G, idx, C))
        self.stacks = [s for stacks in groups.values() for s in stacks]
        self.Chat = [np.concatenate([s.Chat for s in stacks]) for stacks in groups.values()]
        self.one = list(groups).index(1) if 1 in groups else None  # dimension 1's group
        self.total_dim = sum(blk.dim for blk in blocks)

        # Where each block's outputs sit once the stacks' per-member outputs
        # (1, k or k*k values each) are flattened and concatenated.
        self._block_order = self._order(lambda s: 1)
        self._vector_order = self._order(lambda s: s.idx.shape[1])
        self._matrix_order = self._order(lambda s: s.idx.shape[1] ** 2)
        self._vector_at = self._ordered([s.idx for s in self.stacks], self._vector_order)
        self._matrix_at = self._ordered(
            [s.idx[:, :, None] * self.K + s.idx[:, None, :] for s in self.stacks],
            self._matrix_order)

    def _order(self, width):
        owner = np.concatenate([np.repeat(s.blocks, width(s)) for s in self.stacks])
        return np.argsort(owner, kind="stable")

    @staticmethod
    def _ordered(parts, order):
        return np.concatenate(parts, axis=None)[order]

    def split(self, arrays):
        """Each stack's rows of per-dimension (N, d, d) arrays, in stack order."""
        return [arrays[s.group][s.rows] for s in self.stacks]

    def apply(self, arrays):
        """Each stack's (n, k) array <G_k, A> for per-dimension arrays A."""
        return [s.apply(A) for s, A in zip(self.stacks, self.split(arrays))]

    def adjoint(self, v):
        """sum_k v[idx_k] G_k for every member, one (N, d, d) array per dimension."""
        return [np.concatenate([s.adjoint(v) for s in self.stacks if s.group == g])
                for g in range(len(self.Chat))]

    def block_sum(self, parts, cap):
        """Sum of per-member scalars (one (N,) array per dimension), then the
        cap's, in block order, left to right from 0.0 (sum() compensates from
        Python 3.12)."""
        parts = self._ordered(parts, self._block_order).tolist()
        return reduce(float.__add__, parts, 0.0) + float(cap)

    def top(self, maxima, cap):
        """max() of per-dimension maxima and the cap's value, which sits in
        dimension 1's maximum (np.max keeps a nan) or, with no such group, last."""
        if self.one is None:
            return max(maxima + [cap])
        maxima[self.one] = np.maximum(maxima[self.one], cap)
        return max(maxima)

    def scatter(self, ufunc, out, parts):
        """ufunc.at per-member (n, k) vectors into out (K,), or (n, k, k)
        matrices into out (K, K), one array per stack, visiting the blocks
        in order."""
        if out.ndim == 1:
            ufunc.at(out, self._vector_at, self._ordered(parts, self._vector_order))
        else:
            ufunc.at(out.reshape(-1), self._matrix_at,
                     self._ordered(parts, self._matrix_order))
        return out

    def b(self):
        return np.eye(1, self.K, self.eps_index)[0]


_CAP_BLOCK = AffineBlock([[-EPS_CAP]], [BlockTerm(EPS_NAME, [[1.0]], [[1.0]])],
                         strict=False, label="margin-cap")


def _inv_chol(A):
    """L^-1 for the Cholesky factor L of A, or of each member of an (n, d,
    d) stack, and the largest jitter used (0.0 when none).

    A is factored as it is.  A member that fails, or whose factor's diagonal
    is not finite (LAPACK factors a nan, and a nan or inf in the lower
    triangle it reads reaches the diagonal), is refactored alone, at jitter
    b*1e-12*I and ten times more on each failure, b = max(tr/d, 1): nine
    factorizations in all, then LinAlgError.  1 x 1 members that are all
    positive and finite give 1/sqrt(x) with no LAPACK call.
    """
    if A.shape[-1] == 1 and all(0.0 < x < np.inf for x in A.ravel().tolist()):
        return 1.0 / np.sqrt(A), 0.0

    def inv_factor(A):
        L = np.linalg.cholesky(A)
        # a factor's diagonal is positive, so its sum is finite unless an entry is not
        if not L.diagonal(0, -2, -1).sum() < np.inf:
            raise np.linalg.LinAlgError("factor is not finite")
        return np.linalg.inv(L)

    try:
        return inv_factor(A), 0.0
    except np.linalg.LinAlgError:
        if A.ndim == 3:
            Li, jitters = zip(*map(_inv_chol, A))
            return np.array(Li), max(jitters)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A fails every rung
        jitter = max(np.trace(A) / len(A), 1.0) * 1e-12
        for _ in range(8):
            try:
                return inv_factor(A + jitter * np.eye(len(A))), jitter
            except np.linalg.LinAlgError:
                jitter *= 10.0
    raise np.linalg.LinAlgError("matrix not positive definite")


def _inv_sqrt(v):
    """_inv_chol's factor of the 1 x 1 matrix [[v]], as a scalar."""
    return 1.0 / np.sqrt(v) if 0.0 < v < np.inf else _inv_chol(np.reshape(v, (1, 1)))[0][0, 0]


def _dot(a, b):
    """a*b summed from +0.0, as a 1 x 1 matmul, einsum or bincount sums it."""
    return 0.0 + a * b


def _half(v):
    """_sym of a 1 x 1 member, (v + v)*0.5: past half the float range, inf."""
    return (v + v) * 0.5


def _schur_solve(Li, M, rhs):
    """M^-1 rhs, given M ~ L L' and Li = L^-1, with one refinement pass."""
    dy = Li.T @ (Li @ rhs)
    return dy + Li.T @ (Li @ (rhs - M @ dy))  # M gets badly conditioned


def _steps(Lxs, dX, dS, cap):
    """Largest primal and dual steps keeping every member semidefinite.

    Lxs[g] holds the inverse Cholesky factors Li of dimension g's X
    members, then its S members; cap holds the margin cap's factors of x
    and s and its directions dx and ds.  X + alpha*D >= 0 up to -1/lam, lam
    the least eigenvalue of Li D Li', or for every alpha if lam >= -1e-16.
    Rounded division is monotone, so the least -1/lam is -1/(least lam);
    fmin skips a nan lam, whose member-wise bound would be inf.
    """
    lows = []
    for L, dx, ds in zip(Lxs, dX, dS):
        Y = _sym(L @ np.concatenate([dx, ds]) @ L.swapaxes(-1, -2))
        lam = Y[:, 0, 0] if Y.shape[-1] == 1 else np.linalg.eigvalsh(Y).min(axis=-1)
        lows.append((np.fmin.reduce(lam[:len(dx)]), np.fmin.reduce(lam[len(dx):])))
    lx, ls, dx, ds = cap
    lows.append((_half(_dot(_dot(lx, dx), lx)), _half(_dot(_dot(ls, ds), ls))))
    return [-1.0 / low if low < -1e-16 else np.inf for low in np.fmin.reduce(lows)]


def _sym(A):
    # linalg.sym's arithmetic, kept private: the loop calls it dozens of
    # times an iteration, and linalg's public functions are what a trace
    # of the package records.
    S = A + A.swapaxes(-1, -2)
    S *= 0.5
    return S


def _inner(A, B):
    """Per-member Frobenius inner products of two (n, d, d) stacks."""
    n = len(A)
    return (A.reshape(n, 1, -1) @ B.reshape(n, -1, 1)).reshape(n)


def solve(problem):
    """Run the interior-point iteration; never raises on its numerical breakdown.

    Returns an SdpSolution whose status is one of optimal, infeasible,
    max_iterations, numerical_failure.  Data whose scalarization overflows
    (entries near the top of the float range) raise NumericError before
    the iteration starts.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            sc = _Scalarized(problem)
    except FloatingPointError as exc:
        raise NumericError(f"problem data overflow when scaled ({exc})") from exc
    try:
        status, y, iters, gap, pinf, dinf, history = _iterate(sc)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError):
        status, y = "numerical_failure", np.zeros(sc.K)
        iters, gap, pinf, dinf, history = 0, np.inf, np.inf, np.inf, ()
    values = _unflatten(problem, y)
    eps = float(y[sc.eps_index])
    log.info("solve: status=%s eps=%.3e iters=%d gap=%.2e", status, eps, iters, gap)
    return SdpSolution(status, values, eps, iters, gap, pinf, dinf, history)


def _unflatten(problem, y):
    at = np.cumsum([0] + [v.size for v in problem.variables]).tolist()
    return {v.name: v.assemble(y[a:a + v.size]) for v, a in zip(problem.variables, at)}


def _iterate(sc):
    # X, S, Chat and everything member-wise: one (N, d, d) array per
    # dimension; the cap's x and s (xe, se) and its directions are scalars,
    # each of its terms added after the stacked ones
    b, e = sc.b(), sc.eps_index
    g, c = sc.cap
    Chat = sc.Chat
    norms = [np.sqrt(_inner(Ch, Ch)) for Ch in Chat]
    nrm_e = np.sqrt(_dot(c, c))

    X = [np.eye(Ch.shape[-1]) * (1.0 + nrm)[:, None, None] for Ch, nrm in zip(Chat, norms)]
    S = [x.copy() for x in X]
    xe = se = 1.0 + nrm_e
    y = np.zeros(sc.K)

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + sc.top([nrm.max() for nrm in norms], nrm_e)
    status, it, history, worst = "max_iterations", 0, [], []  # worst: max(pinf, dinf, gap)
    gap = pinf = dinf = best_worst = np.inf
    best = None

    for it in range(1, MAX_ITER + 1):
        # residuals of the stationarity system
        rp = sc.scatter(np.subtract, b.copy(), sc.apply(X))
        rp[e] -= _dot(g, xe)
        Rd = [_sym(Ch - Sl - A) for Ch, Sl, A in zip(Chat, S, sc.adjoint(y))]
        re = _half(c - se - _dot(y[e], g))
        mu = sc.block_sum([_inner(x, Sl) for x, Sl in zip(X, S)], _dot(xe, se)) / sc.total_dim
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = sc.top([float(np.sqrt(_inner(R, R)).max()) for R in Rd],
                      np.sqrt(_dot(re, re))) / cnorm
        ip_cx = sc.block_sum([_inner(Ch, x) for Ch, x in zip(Chat, X)], _dot(c, xe))
        gap = abs(mu * sc.total_dim) / (1.0 + abs(b @ y) + abs(ip_cx))
        history.append(IterationRecord(*map(float, (mu, pinf, dinf, gap, y[e]))))
        log.debug("it %d mu=%.3e pinf=%.3e dinf=%.3e gap=%.3e eps=%.6e", it, *history[-1][:5])
        if pinf <= TOL and dinf <= TOL and gap <= TOL:
            status = "converged"
            break
        worst.append(max(pinf, dinf, gap))
        if worst[-1] < best_worst:
            best_worst, best = worst[-1], (y.copy(), gap, pinf, dinf)
        # rounding floor: already acceptably accurate, and the last 8 sweeps
        # failed to improve on the earlier best, so more polishing is futile
        if best_worst <= 1e-7 and len(worst) > 8 and min(worst[-8:]) > 0.9 * min(worst[:-8]):
            break

        try:
            Sinv = [1.0 / Sl if Sl.shape[-1] == 1 else _sym(np.linalg.inv(Sl)) for Sl in S]
            sie = 1.0 / se
            M = sc.scatter(np.add, np.zeros((sc.K, sc.K)), [
                np.einsum("nkab,njab->nkj", s.left(x, Si), s.G)
                for s, x, Si in zip(sc.stacks, sc.split(X), sc.split(Sinv))])
            M[e, e] += _dot(_dot(xe * g, sie), g)
            M = 0.5 * (M + M.T)
            Li, jitter = _inv_chol(M)  # factored once; every solve below is a product

            t1 = sc.scatter(np.add, np.zeros(sc.K), sc.apply(Sinv))
            t1[e] += _dot(g, sie)
            t3 = sc.scatter(np.add, np.zeros(sc.K), sc.apply(
                [_sym(Si @ R @ x) for Si, R, x in zip(Sinv, Rd, X)]))
            t3[e] += _dot(g, _half(_dot(_dot(sie, re), xe)))

            def directions(dy, sigmu, corr=None):
                dS = [_sym(R - A) for R, A in zip(Rd, sc.adjoint(dy))]
                dse = _half(re - _dot(dy[e], g))
                dX = []
                for l, (Si, dSl, x) in enumerate(zip(Sinv, dS, X)):
                    A = sigmu * Si - x - Si @ dSl @ x
                    if corr is not None:
                        A = A - Si @ corr[1][l] @ corr[0][l]
                    dX.append(_sym(A))
                A = sigmu * sie - xe - _dot(_dot(sie, dse), xe)
                if corr is not None:
                    A = A - _dot(_dot(sie, corr[3]), corr[2])
                return dX, dS, _half(A), dse

            # predictor (affine scaling)
            dy_aff = _schur_solve(Li, M, b + t3)
            aff = dX_aff, dS_aff, dxe_aff, dse_aff = directions(dy_aff, 0.0)

            # Iterates can round to marginally indefinite near the boundary.
            Lxs = [_inv_chol(_sym(np.concatenate([x, Sl])))[0] for x, Sl in zip(X, S)]
            Le = _inv_sqrt(_half(xe)), _inv_sqrt(_half(se))
            ap, ad = (min(1.0, a) for a in _steps(Lxs, dX_aff, dS_aff, (*Le, dxe_aff, dse_aff)))
            mu_aff = sc.block_sum([
                _inner(x + ap * dx, Sl + ad * ds)
                for x, dx, Sl, ds in zip(X, dX_aff, S, dS_aff)],
                _dot(xe + ap * dxe_aff, se + ad * dse_aff)) / sc.total_dim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            # corrector
            t4 = sc.scatter(np.add, np.zeros(sc.K), sc.apply(
                [_sym(Si @ ds @ dx) for Si, ds, dx in zip(Sinv, dS_aff, dX_aff)]))
            t4[e] += _dot(g, _half(_dot(_dot(sie, dse_aff), dxe_aff)))
            dy = _schur_solve(Li, M, b - sigma * mu * t1 + t3 + t4)
            dX, dS, dxe, dse = directions(dy, sigma * mu, corr=aff)

            ap, ad = (min(1.0, STEP_FRAC * a) for a in _steps(Lxs, dX, dS, (*Le, dxe, dse)))
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
        history[-1] = history[-1]._replace(
            alpha_p=float(ap), alpha_d=float(ad), sigma=float(sigma), jitter=float(jitter))
        if len(history) >= 3 and all(r.alpha_p < 1e-10 and r.alpha_d < 1e-10
                                     for r in history[-3:]):
            break  # three steps in a row that barely moved
        X = [x + ap * dx for x, dx in zip(X, dX)]
        S = [Sl + ad * ds for Sl, ds in zip(S, dS)]
        xe, se = xe + ap * dxe, se + ad * dse
        y = y + ad * dy
        if not (np.isfinite(y).all() and abs(xe) < np.inf and abs(se) < np.inf
                and all(np.isfinite(a).all() for a in X + S)):
            status = "breakdown"
            y = best[0] if best is not None else np.zeros(sc.K)
            break

    if status != "converged" and best is not None and best_worst < max(pinf, dinf, gap):
        y, gap, pinf, dinf = best
    eps = float(y[e])
    loose = 1e-7
    if status == "converged" or (pinf <= loose and dinf <= loose and gap <= loose):
        status = "infeasible" if eps < -TOL else "optimal"
    elif status == "breakdown":
        status = "numerical_failure"
    else:
        status = "max_iterations"
    return status, y, it, gap, pinf, dinf, tuple(history)


def residuals(problem, values):
    """Recompute each block's largest eigenvalue at the given variable values.

    Works from the structured block definitions (unscaled), independent of
    the solve() internals; the blocks of each dimension go through one
    stacked linalg.sym_eig_max call.  The implicit eps*I on strict blocks is
    NOT included: for a strictly feasible solution with margin eps the
    returned residuals sit at or below -eps.
    """
    by_dim = {}
    for l, blk in enumerate(problem.blocks):
        M = np.array(blk.constant, dtype=float)
        for t in blk.terms:
            M = M + t.value(values[t.var])
        by_dim.setdefault(blk.dim, []).append((l, 0.5 * (M + M.T)))
    out = [None] * len(problem.blocks)
    for members in by_dim.values():
        positions, stack = zip(*members)
        for l, top in zip(positions, linalg.sym_eig_max(np.array(stack))):
            out[l] = float(top)
    return out
