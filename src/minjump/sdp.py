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
step, operating on dense per-block matrices.  Problem sizes here are tiny
(blocks up to ~12x12, a few hundred scalar unknowns), so everything is
dense and the Schur complement is formed explicitly.

eps is always bounded above by options.eps_cap through an internally added
1x1 block; without it the margin objective is unbounded whenever the
remaining constraints are homogeneous.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CapacityError, ConfigError

log = logging.getLogger("minjump.sdp")


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
        """Unit-direction matrices, one per scalar component."""
        if self.kind == "scalar":
            yield np.ones((1, 1))
            return
        if self.kind == "sym":
            d = self.rows
            for a in range(d):
                for b in range(a, d):
                    E = np.zeros((d, d))
                    E[a, b] = 1.0
                    E[b, a] = 1.0
                    yield E
            return
        for a in range(self.rows):
            for b in range(self.cols):
                E = np.zeros((self.rows, self.cols))
                E[a, b] = 1.0
                yield E

    def assemble(self, flat):
        """Matrix (or scalar) value from the flat component vector."""
        if self.kind == "scalar":
            return float(flat[0])
        out = np.zeros((self.rows, self.cols))
        if self.kind == "sym":
            k = 0
            for a in range(self.rows):
                for b in range(a, self.cols):
                    out[a, b] = flat[k]
                    out[b, a] = flat[k]
                    k += 1
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
        M = self.left @ np.atleast_2d(V) @ self.right
        if self.sym_pair:
            M = M + M.T
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

    The scalar variable named by eps_name is the maximized margin; it must be
    declared among the variables.  Strict blocks receive an implicit +eps*I.
    """

    variables: tuple
    blocks: tuple
    eps_name: str = "eps"

    def __init__(self, variables, blocks, eps_name="eps"):
        variables = tuple(variables)
        blocks = tuple(blocks)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names")
        byname = {v.name: v for v in variables}
        if eps_name not in byname or byname[eps_name].kind != "scalar":
            raise ConfigError(f"margin variable {eps_name!r} must be a declared scalar")
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
        object.__setattr__(self, "eps_name", eps_name)

    @property
    def scalar_count(self):
        return sum(v.size for v in self.variables)


@dataclass(frozen=True)
class SdpOptions:
    max_iter: int = 100
    tol: float = 1e-9
    eps_cap: float = 1e3
    scalar_cap: int = 2000
    step_frac: float = 0.98


@dataclass(frozen=True, eq=False)
class SdpSolution:
    status: str
    values: dict
    eps: float
    residuals: tuple
    iterations: int
    gap: float
    primal_infeas: float
    dual_infeas: float


class _Scalarized:
    """Flat view: per-block stacks of constraint matrices over active unknowns."""

    def __init__(self, problem, options):
        self.var_offset = {}
        at = 0
        for v in problem.variables:
            self.var_offset[v.name] = at
            at += v.size
        self.K = at
        if self.K > options.scalar_cap:
            raise CapacityError(
                f"{self.K} scalar unknowns exceed the cap {options.scalar_cap}"
            )
        self.eps_index = self.var_offset[problem.eps_name]
        byname = {v.name: v for v in problem.variables}

        blocks = list(problem.blocks) + [_cap_block(problem.eps_name, options.eps_cap)]
        self.dims = []
        self.C = []        # scaled constants
        self.scales = []
        self.idxs = []     # active scalar indices per block
        self.G = []        # scaled constraint stacks, aligned with idxs
        for blk in blocks:
            contrib = {}
            for t in blk.terms:
                v = byname[t.var]
                base = self.var_offset[t.var]
                for k, E in enumerate(v.basis()):
                    G = t.value(E)
                    key = base + k
                    contrib[key] = contrib.get(key, 0.0) + G
            if blk.strict:
                key = self.eps_index
                contrib[key] = contrib.get(key, 0.0) + np.eye(blk.dim)
            idxs = sorted(contrib)
            stack = np.zeros((len(idxs), blk.dim, blk.dim))
            for r, key in enumerate(idxs):
                G = contrib[key]
                skew = np.abs(G - G.T).max()
                if skew > 1e-10 * max(1.0, np.abs(G).max()):
                    raise ConfigError(
                        f"block {blk.label!r}: asymmetric contribution for scalar {key}"
                    )
                stack[r] = 0.5 * (G + G.T)
            scale = 1.0 / max(
                1.0,
                float(np.linalg.norm(blk.constant)),
                float(np.abs(stack).max()) if len(idxs) else 0.0,
            )
            self.dims.append(blk.dim)
            self.scales.append(scale)
            self.C.append(scale * 0.5 * (blk.constant + blk.constant.T))
            self.idxs.append(np.array(idxs, dtype=int))
            self.G.append(scale * stack)
        self.total_dim = sum(self.dims)

    def b(self):
        out = np.zeros(self.K)
        out[self.eps_index] = 1.0
        return out


def _cap_block(eps_name, cap):
    return AffineBlock(
        [[-float(cap)]],
        [BlockTerm(eps_name, [[1.0]], [[1.0]])],
        strict=False,
        label="margin-cap",
    )


def _chol_with_jitter(M):
    jitter = 0.0
    base = max(np.trace(M) / max(len(M), 1), 1.0)
    for attempt in range(9):
        try:
            return np.linalg.cholesky(M + jitter * np.eye(len(M)))
        except np.linalg.LinAlgError:
            jitter = base * (1e-12 if jitter == 0.0 else 0.0) + jitter * 10.0
    raise np.linalg.LinAlgError("matrix not positive definite")


def _max_step(L, D):
    """Largest alpha with X + alpha*D >= 0, given X = L L'."""
    Y = np.linalg.solve(L, np.linalg.solve(L, D).T)
    lam = float(np.linalg.eigvalsh(0.5 * (Y + Y.T)).min())
    if lam >= -1e-16:
        return np.inf
    return -1.0 / lam


def solve(problem, options=None):
    """Run the interior-point iteration; never raises on numerical breakdown.

    Returns an SdpSolution whose status is one of optimal, infeasible,
    max_iterations, numerical_failure.
    """
    options = options or SdpOptions()
    sc = _Scalarized(problem, options)
    try:
        status, y, iters, gap, pinf, dinf = _iterate(sc, options)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError):
        status, y = "numerical_failure", np.zeros(sc.K)
        iters, gap, pinf, dinf = 0, np.inf, np.inf, np.inf
    values = _unflatten(problem, y)
    eps = float(y[sc.eps_index])
    res = residuals(problem, values)
    log.info("solve: status=%s eps=%.3e iters=%d gap=%.2e", status, eps, iters, gap)
    return SdpSolution(
        status=status,
        values=values,
        eps=eps,
        residuals=tuple(res),
        iterations=iters,
        gap=gap,
        primal_infeas=pinf,
        dual_infeas=dinf,
    )


def _unflatten(problem, y):
    values = {}
    at = 0
    for v in problem.variables:
        values[v.name] = v.assemble(y[at:at + v.size])
        at += v.size
    return values


def _iterate(sc, options):
    nblk = len(sc.dims)
    b = sc.b()
    Chat = [-C for C in sc.C]

    X = [np.eye(d) * (1.0 + np.linalg.norm(Ch)) for d, Ch in zip(sc.dims, Chat)]
    S = [np.eye(d) * (1.0 + np.linalg.norm(Ch)) for d, Ch in zip(sc.dims, Chat)]
    y = np.zeros(sc.K)

    bnorm = 1.0 + np.linalg.norm(b)
    cnorm = 1.0 + max(np.linalg.norm(Ch) for Ch in Chat)
    status = "max_iterations"
    it = 0
    slow = 0
    hist = []
    gap = pinf = dinf = np.inf
    best = None
    best_worst = np.inf

    for it in range(1, options.max_iter + 1):
        # residuals of the stationarity system
        rp = b.copy()
        for l in range(nblk):
            rp[sc.idxs[l]] -= np.einsum("kab,ab->k", sc.G[l], X[l])
        Rd = []
        for l in range(nblk):
            M = Chat[l] - S[l] - np.tensordot(y[sc.idxs[l]], sc.G[l], axes=(0, 0))
            Rd.append(0.5 * (M + M.T))
        mu = sum(np.tensordot(X[l], S[l]) for l in range(nblk)) / sc.total_dim
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = max(float(np.linalg.norm(R)) for R in Rd) / cnorm
        ip_cx = sum(np.tensordot(Chat[l], X[l]) for l in range(nblk))
        gap = abs(mu * sc.total_dim) / (1.0 + abs(b @ y) + abs(ip_cx))
        log.debug("it %d mu=%.3e pinf=%.3e dinf=%.3e gap=%.3e eps=%.6e",
                  it, mu, pinf, dinf, gap, y[sc.eps_index])
        if pinf <= options.tol and dinf <= options.tol and gap <= options.tol:
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
                T2 = np.einsum("ab,kbc,cd->kad", X[l], sc.G[l], Sinv[l])
                M[np.ix_(sc.idxs[l], sc.idxs[l])] += np.einsum("kab,jab->kj", T2, sc.G[l])
            M = 0.5 * (M + M.T)
            L = _chol_with_jitter(M)

            t1 = np.zeros(sc.K)
            t3 = np.zeros(sc.K)
            for l in range(nblk):
                t1[sc.idxs[l]] += np.einsum("kab,ab->k", sc.G[l], Sinv[l])
                W = Sinv[l] @ Rd[l] @ X[l]
                t3[sc.idxs[l]] += np.einsum("kab,ab->k", sc.G[l], 0.5 * (W + W.T))

            def solve_dy(rhs):
                dy = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
                r = rhs - M @ dy  # one refinement pass; M gets badly conditioned
                return dy + np.linalg.solve(L.T, np.linalg.solve(L, r))

            def directions(dy, sigmu, corr=None):
                dS = []
                dX = []
                for l in range(nblk):
                    dSl = Rd[l] - np.tensordot(dy[sc.idxs[l]], sc.G[l], axes=(0, 0))
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
            Lx = [_chol_with_jitter(0.5 * (X[l] + X[l].T)) for l in range(nblk)]
            Ls = [_chol_with_jitter(0.5 * (S[l] + S[l].T)) for l in range(nblk)]
            ap = min([1.0] + [_max_step(Lx[l], dX_aff[l]) for l in range(nblk)])
            ad = min([1.0] + [_max_step(Ls[l], dS_aff[l]) for l in range(nblk)])
            mu_aff = sum(
                np.tensordot(X[l] + ap * dX_aff[l], S[l] + ad * dS_aff[l])
                for l in range(nblk)
            ) / sc.total_dim
            sigma = min(1.0, max((max(mu_aff, 0.0) / mu) ** 3, 1e-8))

            # corrector
            t4 = np.zeros(sc.K)
            for l in range(nblk):
                W = Sinv[l] @ dS_aff[l] @ dX_aff[l]
                t4[sc.idxs[l]] += np.einsum("kab,ab->k", sc.G[l], 0.5 * (W + W.T))
            dy = solve_dy(b - sigma * mu * t1 + t3 + t4)
            dX, dS = directions(dy, sigma * mu, corr=(dX_aff, dS_aff))

            ap = min(1.0, options.step_frac * min(_max_step(Lx[l], dX[l]) for l in range(nblk)))
            ad = min(1.0, options.step_frac * min(_max_step(Ls[l], dS[l]) for l in range(nblk)))
        except np.linalg.LinAlgError:
            status = "breakdown"
            break
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
        if not np.isfinite(y).all():
            status = "breakdown"
            y = best[0] if best is not None else np.zeros(sc.K)
            break

    if status != "converged" and best is not None and best_worst < max(pinf, dinf, gap):
        y, gap, pinf, dinf = best
    eps = float(y[sc.eps_index])
    loose = 1e-7
    if status == "converged" or (pinf <= loose and dinf <= loose and gap <= loose):
        status = "infeasible" if eps < -options.tol else "optimal"
    elif status == "breakdown":
        status = "numerical_failure"
    else:
        status = "max_iterations"
    return status, y, it, gap, pinf, dinf


def residuals(problem, values):
    """Recompute each block's largest eigenvalue at the given variable values.

    Works from the structured block definitions (unscaled) and
    linalg.sym_eig_max, independent of the solve() internals.  The implicit
    eps*I on strict blocks is NOT included: for a strictly feasible solution
    with margin eps the returned residuals sit at or below -eps.
    """
    out = []
    for blk in problem.blocks:
        M = np.array(blk.constant, dtype=float)
        for t in blk.terms:
            M = M + t.value(values[t.var])
        out.append(linalg.sym_eig_max(0.5 * (M + M.T)))
    return out
