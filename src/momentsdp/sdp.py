"""Dense primal-dual interior-point solver for block conic programs.

Standard form.  The primal is

    min  <C, X>   s.t.  <A_k, X> = b_k  (k = 1..m),   X in K,

where K is a product of blocks of three kinds: ``psd`` (symmetric positive
semidefinite), ``nonneg`` (entrywise nonnegative vector) and ``zero`` (free
vector entries whose dual slack is pinned to zero).  The dual is

    max  b'y      s.t.  Z = C - sum_k y_k A_k,   Z in K',

with K' matching K blockwise (psd and nonneg are self-dual; the dual of a
free block is the zero block, i.e. equality constraints on y).  Moment
relaxations arrive in the dual picture: the moments are the vector y, PSD
blocks carry the moment and localizing matrices, and zero blocks carry
normalization and equality rows.

The algorithm is infeasible-start path following on X Z = mu I with the
HKM-style direction (linearize using Z^{-1} and symmetrize the X step) and a
Mehrotra predictor-corrector.  Free entries enter the Newton system directly:
eliminating the cone part leaves a saddle system in (dy, dx_free) which is
solved by two Cholesky factorizations (LAPACK's, called directly).  Step
lengths use a fraction-to-boundary rule.  The cone boundary of a psd block is
located by bisection on numpy's Cholesky kernel, which stops early once the
block cannot bind the step; each side searches first the block that bound
its last search, which changes how much is searched, not the step.

Storage.  A program stores each block's constraint data as its nonzeros
(`BlockData`: constraint index, cell, coefficient), since moment relaxations
fill well under 1% of the dense (m, s, s) arrays.  `solve` expands each cone
block once, on entry, into a dense working copy, and writes the zero blocks
straight into one stacked (m, p) matrix.  Its dense working set is two
(m, s^2) arrays per psd block: that copy of A and one buffer of the Schur
products Z^{-1} A_k X, which `_schur_psd` fills a chunk of constraints at a
time.  Both live only as long as the solve; each iteration frees the last
Schur system and its factors before it forms the next.  A psd block's
residual terms and products run over its row span, the rows from the first
to the last one that touch it (all rows at side 1); the buffer stays zero
outside the span, the bits the product of a zero A_k gives.

This module holds the program and its solver only; `problemfile` reads and
writes programs as ``kind: sdp`` text.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dpotrf, dpotrs

BlockKind = Literal["psd", "nonneg", "zero"]

_log = logging.getLogger(__name__)

_REG = 1e-12  # diagonal regularization applied once on Cholesky failure
_SCHUR_CHUNK = 1 << 17  # floats per stacked product chunk in `_schur_psd`
_STEP_FRACTION = 0.98  # fraction of the way to the cone boundary each step takes


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    size: int

    def __post_init__(self) -> None:
        if self.kind not in ("psd", "nonneg", "zero"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("block size must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of one constraint's data, and of C, on this block."""
        return (self.size, self.size) if self.kind == "psd" else (self.size,)


@dataclass(eq=False)
class BlockData:
    """Nonzeros of one block's constraint data: A_k[cols[t]] = vals[t] for k = rows[t].

    ``cols`` holds the flattened cell i*s + j of a psd block (both triangles
    are stored) or the entry index of a nonneg or zero block.  Each
    (row, col) pair occurs at most once.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def copy(self) -> "BlockData":
        return BlockData(self.rows.copy(), self.cols.copy(), self.vals.copy())


def _block_data(A, m: int, shape: tuple[int, ...], bi: int) -> BlockData:
    """Checked nonzeros of block bi, sorted by (row, col), from BlockData or a dense array."""
    width = math.prod(shape)
    if not isinstance(A, BlockData):
        A = np.asarray(A, dtype=float)
        if A.shape != (m, *shape):
            raise ValueError(f"block {bi}: A has shape {A.shape}")
        flat = A.reshape(m, width)
        rows, cols = np.nonzero(flat)
        A = BlockData(rows, cols, flat[rows, cols])
    rows, cols = np.asarray(A.rows), np.asarray(A.cols)
    vals = np.asarray(A.vals, dtype=float)
    if not (rows.ndim == 1 and rows.shape == cols.shape == vals.shape):
        raise ValueError(f"block {bi}: rows, cols and vals must be 1-d and of one length")
    if vals.size:  # an empty block may carry float indices: np.array([]) is float
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise ValueError(f"block {bi}: rows and cols must be integer arrays")
        if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= width:
            raise ValueError(f"block {bi}: entry index outside the ({m}, {width}) data")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"block {bi}: nonfinite data")
    nonzero = vals != 0.0
    rows, cols, vals = rows[nonzero].astype(np.intp), cols[nonzero].astype(np.intp), vals[nonzero]
    order = np.argsort(rows * width + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
        raise ValueError(f"block {bi}: an entry occurs more than once")
    return BlockData(rows, cols, vals)


@dataclass
class ConicProgram:
    """Block conic program data.

    ``A[bi]`` is block ``bi``'s constraint data as `BlockData`, sorted by
    (constraint, cell) with explicit zeros dropped.  A dense array is also
    accepted and converted at once: shape (m, s, s) for psd blocks and (m, s)
    for vector blocks, the k-th constraint along axis 0.  ``C[bi]`` is dense,
    (s, s) or (s,) accordingly.  PSD data must be symmetric.
    """

    blocks: list[Block]
    A: list[BlockData]
    b: np.ndarray
    C: list[np.ndarray]

    def __post_init__(self) -> None:
        self.b = np.asarray(self.b, dtype=float)
        m = len(self.b)
        if len(self.A) != len(self.blocks) or len(self.C) != len(self.blocks):
            raise ValueError("A and C must have one entry per block")
        for bi, blk in enumerate(self.blocks):
            self.A[bi] = _block_data(self.A[bi], m, blk.shape, bi)
            self.C[bi] = np.asarray(self.C[bi], dtype=float)
            if self.C[bi].shape != blk.shape:
                raise ValueError(f"block {bi}: C has shape {self.C[bi].shape}")
            if not np.all(np.isfinite(self.C[bi])):
                raise ValueError(f"block {bi}: nonfinite data")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")

    @property
    def m(self) -> int:
        return len(self.b)


@dataclass
class SolveOptions:
    gap_tol: float = 1e-9
    feas_tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not all(0.0 < tol < math.inf for tol in (self.gap_tol, self.feas_tol)):
            raise ValueError("tolerances must be finite and positive")
        if isinstance(self.max_iter, bool):
            raise TypeError("iteration budget must be an integer, not bool")
        self.max_iter = operator.index(self.max_iter)  # TypeError for 2.0 or 3.5
        if self.max_iter <= 0:
            raise ValueError("iteration budget must be positive")


Status = Literal["optimal", "infeasible", "unbounded", "max_iter", "numerical_failure"]


@dataclass
class SDPSolution:
    status: Status
    X: list[np.ndarray]
    y: np.ndarray
    Z: list[np.ndarray]
    primal_obj: float
    dual_obj: float
    gap: float  # <X, Z> over the cone blocks
    primal_residual: float
    dual_residual: float
    iterations: int
    mu_final: float
    blocks: list[Block] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    fallback_used: bool = False  # the best earlier iterate was returned, not the last
    stats: dict = field(default_factory=dict)  # psd row spans and work counts; see `solve`

    @property
    def objective_gap(self) -> float:
        return self.primal_obj - self.dual_obj


def psd_project_check(M: np.ndarray, tol: float = 1e-9) -> tuple[float, bool]:
    """Minimum eigenvalue of a symmetric matrix and whether it clears -tol."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    if not np.allclose(M, M.T, atol=1e-12 * max(1.0, float(np.abs(M).max(initial=0.0)))):
        raise ValueError("matrix is not symmetric")
    min_eig = float(np.linalg.eigvalsh(M)[0])
    return min_eig, min_eig >= -tol


def cho_factor(a: np.ndarray):
    """scipy.linalg.cho_factor(a, lower=True, check_finite=False) minus its wrapper: same bits."""
    c, info = dpotrf(a, lower=1, clean=0)  # on a copy of a
    if info > 0:  # where scipy raises
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def cho_solve(c_and_lower, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve(c_and_lower, b, check_finite=False) for a lower factor: same bits."""
    return dpotrs(c_and_lower[0], b, lower=1)[0]  # on a copy of b


def _chol_ok(M: np.ndarray) -> bool:
    # numpy's Cholesky gufunc without np.linalg.cholesky's exception path: a
    # failed factor comes back all NaN (with the invalid flag raised), a good
    # one with a zero strict upper triangle
    return not math.isnan(_umath_linalg.cholesky_lo(M)[0, -1])


def _max_step_psd(X: np.ndarray, D: np.ndarray, cap: float, stats: Optional[dict] = None) -> float:
    """Largest step t <= 1 keeping X + t D positive definite, as far as min(cap, t) needs.

    Bisection on `_chol_ok` over one trial buffer (the roundings of X + t * D);
    its lower end only grows, so the search stops once that end reaches ``cap``.
    A caller that passes ``stats`` has the invalid flag ignored already (a
    failed factor raises it) and gets its "step_chol_calls" counted.
    """
    if stats is None:
        with np.errstate(invalid="ignore"):
            return _max_step_psd(X, D, cap, {"step_chol_calls": 0})
    buf = X + D
    stats["step_chol_calls"] += 1
    if _chol_ok(buf):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        if lo >= cap:
            break
        mid = 0.5 * (lo + hi)
        np.multiply(D, mid, out=buf)
        np.add(buf, X, out=buf)
        stats["step_chol_calls"] += 1
        if _chol_ok(buf):
            lo = mid
        else:
            hi = mid
    return lo


def _max_step_nonneg(x: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-x[neg] / d[neg])))


def _steps(X: dict, dX: dict, Z: dict, dZ: dict, nonneg: list[int], orders: list[list[int]],
           stats: dict) -> tuple[float, float]:
    """Primal and dual steps: the largest t <= 1 keeping X + t dX, resp. Z + t dZ, in the cone.

    The cheap nonneg ratios come first, then the psd blocks in ``orders[0]``
    (primal) or ``orders[1]`` (dual), each search stopping at the running cap.
    A search returns its uncapped result or some value >= its cap, so the
    result is the same in every order; the block that bound a side moves to
    the front of that side's order, as it most likely binds the next search.
    """
    out = []
    with np.errstate(invalid="ignore"):
        for V, D, order in ((X, dX, orders[0]), (Z, dZ, orders[1])):
            a = 1.0
            for bi in nonneg:
                a = min(a, _max_step_nonneg(V[bi], D[bi]))
            bound = None
            for bi in order:
                t = _max_step_psd(V[bi], D[bi], a, stats)
                if t < a:
                    a, bound = t, bi
            if bound is not None:
                order.remove(bound)
                order.insert(0, bound)
            out.append(a)
    return out[0], out[1]


def _row_spans(prog: ConicProgram, psd: list[int]) -> dict[int, tuple[int, int]]:
    """[first, last + 1) of the (sorted) constraint rows that touch each psd block bi.

    A block of side 1, or of no rows, keeps all of them, (0, m): the A^T y term
    of side 1 is a plain dot, which numpy sums in SIMD lanes set by the start.
    """
    return {bi: (int(r[0]), int(r[-1]) + 1) if (r := prog.A[bi].rows).size and prog.blocks[bi].size > 1
            else (0, prog.m) for bi in psd}


class _Factorization:
    """Cholesky of the Schur complement, with the free-variable bordering; counted in ``stats``."""

    def __init__(self, M: np.ndarray, F: Optional[np.ndarray], stats: dict):
        self.stats = stats
        self.cho_M = self._factor(M)
        self.F = F  # None, or at least one free column
        if F is not None:
            self.W = cho_solve(self.cho_M, F)  # M^{-1} F
            self.cho_S = self._factor(F.T @ self.W)

    def _factor(self, M: np.ndarray):
        # the solve loop checks finiteness first, so no input here needs a scan
        self.stats["factorizations"] += 1
        try:
            return cho_factor(M)
        except np.linalg.LinAlgError:
            pass
        self.stats["regularized"] += 1
        scale = max(1.0, float(np.max(np.abs(np.diag(M)), initial=0.0)))
        Mreg = M + (_REG * scale) * np.eye(M.shape[0])
        return cho_factor(Mreg)  # second failure propagates

    def _solve_once(self, h: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u = cho_solve(self.cho_M, h)
        if self.F is None:
            return u, np.zeros(0)
        dxf = cho_solve(self.cho_S, self.F.T @ u - rf)
        return u - self.W @ dxf, dxf

    def solve(self, h: np.ndarray, rf: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve [[M, F], [F', 0]] [dy, dxf] = [h, rf], with one refinement pass."""
        dy, dxf = self._solve_once(h, rf)
        r1, r2 = h - M @ dy, rf
        if self.F is not None:
            r1 -= self.F @ dxf
            r2 = rf - self.F.T @ dy
        e1, e2 = self._solve_once(r1, r2)
        return dy + e1, dxf + e2


def _stacked_data(prog: ConicProgram, bis: list[int]) -> np.ndarray:
    """The constraint data of blocks bis side by side, dense: (m, total data width)."""
    widths = [math.prod(prog.blocks[bi].shape) for bi in bis]
    out = np.zeros((prog.m, sum(widths)))
    offset = 0
    for bi, width in zip(bis, widths):
        data = prog.A[bi]
        out[data.rows, data.cols + offset] = data.vals
        offset += width
    return out


def _dense_data(prog: ConicProgram, bis: Optional[list[int]] = None) -> list[np.ndarray]:
    """Dense (m, s, s) / (m, s) copies of the constraint data of blocks bis (default: all)."""
    bis = range(len(prog.blocks)) if bis is None else bis
    return [_stacked_data(prog, [bi]).reshape(prog.m, *prog.blocks[bi].shape) for bi in bis]


def _schur_psd(M: np.ndarray, A: np.ndarray, X: np.ndarray, Zinv: np.ndarray, P: np.ndarray,
               span: Optional[tuple[int, int]] = None) -> None:
    """Add one psd block's Schur terms tr(A_k Z^{-1} A_l X) to M.

    Row k of the (m, s^2) buffer ``P`` receives (Z^{-1} A_k X)^T, flattened,
    from stacked products over a chunk of constraints at a time.  numpy's
    stacked matmul computes each slice on its own, so every entry of P, and
    so of M, is independent of the chunk size.  Only the rows k in ``span``
    (default: all) are formed; the others must hold zeros, which is what the
    product gives for an A_k that is zero on the block.
    """
    m, s, _ = A.shape
    lo, hi = span or (0, m)
    P3 = P.reshape(m, s, s)
    step = max(1, _SCHUR_CHUNK // (s * s))
    for k0 in range(lo, hi, step):
        k1 = min(hi, k0 + step)
        P3[k0:k1] = np.matmul(Zinv, np.matmul(A[k0:k1], X)).transpose(0, 2, 1)
    M += A.reshape(m, s * s) @ P.T


def solve(prog: ConicProgram, options: SolveOptions | None = None) -> SDPSolution:
    """Run the interior-point iteration on a conic program."""
    opt = options or SolveOptions()
    m = prog.m
    cone = [bi for bi, blk in enumerate(prog.blocks) if blk.kind != "zero"]
    free = [bi for bi, blk in enumerate(prog.blocks) if blk.kind == "zero"]
    psd = [bi for bi in cone if prog.blocks[bi].kind == "psd"]
    nonneg = [bi for bi in cone if prog.blocks[bi].kind == "nonneg"]
    if not cone:
        raise ValueError("program has no cone blocks")
    nu = sum(prog.blocks[bi].size for bi in cone)
    A = dict(zip(cone, _dense_data(prog, cone)))
    # a psd block's residual and Schur terms run over the rows that touch it only
    span = _row_spans(prog, psd)
    Aspan = {bi: A[bi][slice(*span[bi])] for bi in psd}
    # Schur product buffers, one (m, s^2) per psd block, zero outside its span (see `_schur_psd`)
    P = {bi: np.zeros((m, prog.blocks[bi].size ** 2)) for bi in psd}
    eye = {bi: np.eye(prog.blocks[bi].size) for bi in psd}
    orders = [list(psd), list(psd)]  # primal and dual psd search orders (see `_steps`)

    # stacked free-variable data: F (m, p), c_f (p,)
    if free:
        F = _stacked_data(prog, free)
        c_f = np.concatenate([prog.C[bi] for bi in free])
        p = F.shape[1]
    else:
        F, c_f, p = None, np.zeros(0), 0

    scale = max(
        1.0,
        float(np.max(np.abs(prog.b), initial=0.0)),
        max(float(np.max(np.abs(prog.C[bi]), initial=0.0)) for bi in range(len(prog.blocks))),
    )
    X: dict[int, np.ndarray] = {}
    Z: dict[int, np.ndarray] = {}
    for bi in cone:
        s = prog.blocks[bi].size
        if prog.blocks[bi].kind == "psd":
            X[bi] = scale * np.eye(s)
            Z[bi] = scale * np.eye(s)
        else:
            X[bi] = scale * np.ones(s)
            Z[bi] = scale * np.ones(s)
    xf = np.zeros(p)
    y = np.zeros(m)
    # the psd row spans, the `_chol_ok` calls of the step search, the Cholesky
    # factorizations of the Schur system and those that needed the diagonal shift
    stats = {"row_spans": span, "step_chol_calls": 0, "factorizations": 0, "regularized": 0}

    bnorm = 1.0 + float(np.linalg.norm(prog.b))
    cnorm = 1.0 + float(
        np.sqrt(sum(np.sum(prog.C[bi] ** 2) for bi in range(len(prog.blocks))))
    )

    status: Status = "max_iter"
    trace: list[dict] = []
    it = 0
    mu = float("nan")
    pres = dres = float("inf")
    pobj = dobj = float("nan")
    gap = float("nan")
    last_steps = (0.0, 0.0)
    best_merit = float("inf")
    best_point = None
    regressions = 0

    def _stats():
        rp = prog.b.copy()
        for bi in cone:
            if prog.blocks[bi].kind == "psd":
                rp[slice(*span[bi])] -= np.einsum("kij,ij->k", Aspan[bi], X[bi])
            else:
                rp -= A[bi] @ X[bi]
        if p:
            rp -= F @ xf
        Rd: dict[int, np.ndarray] = {}
        dnorm2 = 0.0
        for bi in cone:
            At = (
                np.einsum("kij,k->ij", Aspan[bi], y[slice(*span[bi])])
                if prog.blocks[bi].kind == "psd"
                else A[bi].T @ y
            )
            Rd[bi] = prog.C[bi] - At - Z[bi]
            dnorm2 += float(np.sum(Rd[bi] ** 2))
        rf = (c_f - F.T @ y) if p else np.zeros(0)
        dnorm2 += float(np.sum(rf**2))
        g = 0.0
        for bi in cone:
            g += float(np.sum(X[bi] * Z[bi]))
        po = float(sum(np.sum(prog.C[bi] * X[bi]) for bi in cone))
        if p:
            po += float(c_f @ xf)
        do = float(prog.b @ y)
        return rp, Rd, rf, g, po, do, float(np.linalg.norm(rp)) / bnorm, float(np.sqrt(dnorm2)) / cnorm

    for it in range(opt.max_iter + 1):
        r_p, Rd, r_f, gap, pobj, dobj, pres, dres = _stats()
        mu = gap / nu

        trace.append(
            {
                "iter": it,
                "mu": mu,
                "gap": gap,
                "pobj": pobj,
                "dobj": dobj,
                "pres": pres,
                "dres": dres,
                "step_p": last_steps[0],
                "step_d": last_steps[1],
            }
        )
        _log.debug(
            "it %3d  mu %9.2e  gap %10.3e  pres %8.2e  dres %8.2e",
            it, mu, pobj - dobj, pres, dres,
        )

        if not (np.isfinite(mu) and np.isfinite(pobj) and np.isfinite(dobj)):
            status = "numerical_failure"
            break
        merit = max(pres, dres, abs(pobj - dobj) / (1.0 + abs(dobj)))
        if merit < best_merit:
            best_merit = merit
            best_point = (
                {bi: X[bi].copy() for bi in cone},
                {bi: Z[bi].copy() for bi in cone},
                xf.copy(),
                y.copy(),
            )
            regressions = 0
        elif merit > 5.0 * best_merit and mu < 1e-8 * (1.0 + abs(dobj)):
            # endgame degradation; keep the best point seen instead of
            # grinding the Newton system into the floating-point floor
            regressions += 1
            if regressions >= 3:
                status = "max_iter"
                break
        if (
            abs(pobj - dobj) <= opt.gap_tol * (1.0 + abs(dobj))
            and pres <= opt.feas_tol
            and dres <= opt.feas_tol
        ):
            status = "optimal"
            break
        # divergence heuristics: residual stalls while an objective blows up
        if dobj > 1e10 * scale and dres <= 1e-6:
            status = "infeasible"
            break
        if pobj < -1e10 * scale and pres <= 1e-6:
            status = "unbounded"
            break
        if it == opt.max_iter:
            status = "max_iter"
            break
        # at the floating-point floor of the barrier there is nothing left to
        # gain; stop with the current iterate rather than breaking the Newton
        # system (max_iter flags that the requested tolerances were not met)
        if mu < 1e-16 * (1.0 + abs(dobj)):
            status = "max_iter"
            break

        # Schur complement M_kl = sum_blocks tr(A_k Z^{-1} A_l X); the last
        # iteration's system and factors are freed first, not held beside it
        M = fact = None
        M = np.zeros((m, m))
        Zinv: dict[int, np.ndarray] = {}
        ZRX: dict[int, np.ndarray] = {}  # Z^{-1} Rd X, a term of both directions
        try:
            for bi in cone:
                if prog.blocks[bi].kind == "psd":
                    Zinv[bi] = cho_solve(cho_factor(Z[bi]), eye[bi])
                    ZRX[bi] = Zinv[bi] @ (Rd[bi] @ X[bi])
                    _schur_psd(M, A[bi], X[bi], Zinv[bi], P[bi], span[bi])
                else:
                    w = X[bi] / Z[bi]
                    M += (A[bi] * w) @ A[bi].T
            M = 0.5 * (M + M.T)
            fact = _Factorization(M, F, stats)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def _direction(sigma_mu: float, E: dict[int, np.ndarray]):
            h = r_p.copy()
            G: dict[int, np.ndarray] = {}
            for bi in cone:
                if prog.blocks[bi].kind == "psd":
                    g = sigma_mu * Zinv[bi] - X[bi] - ZRX[bi]
                    if bi in E:
                        g = g - Zinv[bi] @ E[bi]
                    G[bi] = g
                    h[slice(*span[bi])] -= np.einsum("kij,ij->k", Aspan[bi], g)
                else:
                    g = sigma_mu / Z[bi] - X[bi] - Rd[bi] * X[bi] / Z[bi]
                    if bi in E:
                        g = g - E[bi] / Z[bi]
                    G[bi] = g
                    h -= A[bi] @ g
            dy, dxf = fact.solve(h, r_f, M)
            dX: dict[int, np.ndarray] = {}
            dZ: dict[int, np.ndarray] = {}
            for bi in cone:
                if prog.blocks[bi].kind == "psd":
                    Aty = np.einsum("kij,k->ij", Aspan[bi], dy[slice(*span[bi])])
                    dZ[bi] = Rd[bi] - Aty
                    dxb = G[bi] + Zinv[bi] @ (Aty @ X[bi])
                    dX[bi] = 0.5 * (dxb + dxb.T)
                else:
                    Aty = A[bi].T @ dy
                    dZ[bi] = Rd[bi] - Aty
                    dX[bi] = G[bi] + Aty * X[bi] / Z[bi]
            return dX, dy, dZ, dxf

        try:
            # predictor (affine scaling)
            dXa, dya, dZa, dxfa = _direction(0.0, {})
            apa, ada = _steps(X, dXa, Z, dZa, nonneg, orders, stats)
            gap_aff = 0.0
            for bi in cone:
                gap_aff += float(np.sum((X[bi] + apa * dXa[bi]) * (Z[bi] + ada * dZa[bi])))
            sigma = min(1.0, max(1e-8, (gap_aff / gap) ** 3)) if gap > 0 else 0.1

            # corrector with second-order term dZ_aff dX_aff
            E = {}
            for bi in cone:
                if prog.blocks[bi].kind == "psd":
                    E[bi] = dZa[bi] @ dXa[bi]
                else:
                    E[bi] = dZa[bi] * dXa[bi]
            dX, dy, dZ, dxf = _direction(sigma * mu, E)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        ap, ad = _steps(X, dX, Z, dZ, nonneg, orders, stats)
        ap = min(1.0, _STEP_FRACTION * ap)
        ad = min(1.0, _STEP_FRACTION * ad)
        if max(ap, ad) < 1e-10:
            status = "max_iter"  # step collapse: no further progress possible
            break
        last_steps = (ap, ad)
        for bi in cone:
            X[bi] = X[bi] + ap * dX[bi]
            Z[bi] = Z[bi] + ad * dZ[bi]
            if prog.blocks[bi].kind == "psd":
                X[bi] = 0.5 * (X[bi] + X[bi].T)
                Z[bi] = 0.5 * (Z[bi] + Z[bi].T)
        xf = xf + ap * dxf
        y = y + ad * dy

    fallback_used = False
    if status in ("max_iter", "numerical_failure") and best_point is not None:
        cur_merit = max(pres, dres, abs(pobj - dobj) / (1.0 + abs(dobj)))
        if not np.isfinite(cur_merit) or best_merit < cur_merit:
            fallback_used = True
            Xb, Zb, xf, y = best_point
            for bi in cone:
                X[bi] = Xb[bi]
                Z[bi] = Zb[bi]
            _, _, _, gap, pobj, dobj, pres, dres = _stats()
            mu = gap / nu

    # assemble block solutions in declared order
    Xout: list[np.ndarray] = []
    Zout: list[np.ndarray] = []
    fpos = 0
    for bi, blk in enumerate(prog.blocks):
        if blk.kind == "zero":
            Xout.append(xf[fpos : fpos + blk.size].copy())
            Zout.append(np.zeros(blk.size))
            fpos += blk.size
        else:
            Xout.append(np.asarray(X[bi]).copy())
            Zout.append(np.asarray(Z[bi]).copy())

    return SDPSolution(
        status=status,
        X=Xout,
        y=y.copy(),
        Z=Zout,
        primal_obj=pobj,
        dual_obj=dobj,
        gap=gap,
        primal_residual=pres,
        dual_residual=dres,
        iterations=it,
        mu_final=mu,
        blocks=list(prog.blocks),
        trace=trace,
        fallback_used=fallback_used,
        stats=stats,
    )


@dataclass
class DualityReport:
    inner_gap: float  # <X, Z>
    objective_gap: float  # <C,X> - b'y
    complementarity: float  # ||XZ + ZX||_F over psd blocks (plus |xz| on nonneg)
    primal_residual: float
    dual_residual: float
    converged: bool

    def lines(self) -> list[str]:
        return [
            f"inner_gap = {self.inner_gap:.12g}",
            f"objective_gap = {self.objective_gap:.12g}",
            f"complementarity = {self.complementarity:.12g}",
            f"primal_residual = {self.primal_residual:.12g}",
            f"dual_residual = {self.dual_residual:.12g}",
            f"converged = {str(self.converged).lower()}",
        ]


def duality_report(sol: SDPSolution) -> DualityReport:
    """Inner-product gap and complementarity diagnostics of a solve."""
    if sol.status not in ("optimal", "max_iter"):
        raise ValueError(f"duality report needs an optimal or max_iter solve, got {sol.status}")
    inner = 0.0
    comp2 = 0.0
    for blk, Xb, Zb in zip(sol.blocks, sol.X, sol.Z):
        if blk.kind == "zero":
            continue
        inner += float(np.sum(Xb * Zb))
        if blk.kind == "psd":
            S = Xb @ Zb + Zb @ Xb
            comp2 += float(np.sum(S**2))
        else:
            comp2 += float(np.sum((2.0 * Xb * Zb) ** 2))
    if inner < -1e-8:
        raise RuntimeError(f"weak duality violated: <X,Z> = {inner:.3e} < -1e-8")
    return DualityReport(
        inner_gap=inner,
        objective_gap=sol.primal_obj - sol.dual_obj,
        complementarity=float(np.sqrt(comp2)),
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        converged=sol.status == "optimal",
    )

