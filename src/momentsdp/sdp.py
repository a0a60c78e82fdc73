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
Mehrotra predictor-corrector.  `solve` holds the loop, the stop tests and the
best-iterate fallback; each phase of an iteration is a step of its own on one
record, `_Point`, the iterate and the search direction alike, and adds its
wall seconds to ``stats``: `_Layout.residuals`; `_Layout.schur`, the Schur
complement M and the Newton system's factors (`_Factorization`): the free
entries' data F pin dy to F'dy = rf, so only M's projection onto the null
space of F' is factored, by LAPACK's Cholesky called directly;
`_Layout.direction`, the predictor or the corrector; and `_steps`, the
largest steps in the cone, of which `solve` takes a fixed fraction.  The cone
boundary of a psd block is found by bisection on numpy's Cholesky kernel
(`_max_step_psd`); the order in which the blocks are searched and the stacked
trials change how much is factored, not the step.

Storage.  A program stores each block's constraint data as its nonzeros
(`BlockData`: constraint index, cell, coefficient), since moment relaxations
fill well under 1% of the dense (m, s, s) arrays.  `_Layout` splits the
blocks by kind once per solve.  It expands each psd block into a dense
working copy over its row span, the rows [lo, hi) from the first to the last
one that touch it (all rows at side 1), and writes the nonneg blocks straight
into one stacked (m, n_l) matrix and the zero blocks into one stacked (m, p)
matrix F, each with one vector of unknowns, and takes one QR of F
(`_free_basis`), which refuses dependent columns; X and Z are sliced back into
declared block order once, at the end.  Every sum over blocks takes the psd
blocks first, then the nonneg part, then the free part.  A psd block's
residual and A^T y terms run over its span on the dense copy, and its Schur
terms fill only M[lo:hi, lo:hi].  A block whose copy holds at most
`_SCHUR_CHUNK` floats forms them by `_schur_psd`: stacked products and one
GEMM.  A larger block forms them by `_schur_psd_nonzeros` from its nonzeros
as a CSR (hi - lo, s^2) array, a chunk of rows at a time, which agrees with
the GEMM to rounding; its dense copy serves only the residual terms.  The
working set lives only as long as the solve; each iteration frees the last
Schur system and its factors before it forms the next.

This module holds the program and its solver only; `problemfile` reads and
writes programs as ``kind: sdp`` text.
"""

from __future__ import annotations

import logging
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field
from time import perf_counter
from typing import Literal, Optional

import numpy as np
from numpy.linalg import _umath_linalg
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs, dsygv, dtrtrs

BlockKind = Literal["psd", "nonneg", "zero"]

_log = logging.getLogger(__name__)

_REG = 1e-12  # diagonal regularization applied once on Cholesky failure
# floats of a psd block's dense span copy above which it forms its Schur terms from its
# nonzeros, and per chunk of the products that `_schur_psd_nonzeros` forms
_SCHUR_CHUNK = 1 << 17
_STEP_FRACTION = 0.98  # fraction of the way to the cone boundary each step takes
# largest psd side whose step search starts with a stacked path (see
# `_follow_guessed_path`).  On the step searches that `tools/step_bench.py`
# records (one BLAS thread, 15 replays), stacking every side took 0.63-0.66
# of the one-trial time at side 10 and 0.75-0.77 at 15, but 0.92-1.03 at 20
# and 1.02-1.47 at sides 21, 35 and 56, where a wrong guess wastes costlier
# trials
_BATCH_SIDE = 15


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
    (s, s) or (s,) accordingly.  PSD data must be symmetric.  Construction
    checks every shape, index and value, and refuses the programs `solve`
    cannot run: those without a psd or nonneg block or without constraints.
    `solve` also refuses, as it starts, zero blocks whose constraint columns
    are linearly dependent (`_free_basis`).
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
        if all(blk.kind == "zero" for blk in self.blocks):
            raise ValueError("program has no cone blocks")
        if m == 0:
            raise ValueError("program has no constraints")

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
    stats: dict = field(default_factory=dict)  # psd row spans, work counts, phase seconds; see `_Layout`


def cho_factor(a: np.ndarray):
    """scipy.linalg.cho_factor(a, lower=True, check_finite=False) minus its wrapper: same bits."""
    c, info = dpotrf(a, lower=1, clean=0)  # on a copy of a
    if info > 0:  # where scipy raises
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def cho_solve(c_and_lower, b: np.ndarray) -> np.ndarray:
    """scipy.linalg.cho_solve(c_and_lower, b, check_finite=False) for a lower factor: same bits."""
    return dpotrs(c_and_lower[0], b, lower=1)[0]  # on a copy of b


def _chol_ok(M: np.ndarray):
    """Whether numpy's Cholesky kernel factors M: a bool for one matrix, a bool array for a stack.

    This is numpy's Cholesky gufunc without np.linalg.cholesky's exception
    path: a failed factor comes back all NaN (with the invalid flag raised), a
    good one with a zero strict upper triangle.  The gufunc runs LAPACK on each
    matrix of a stack (..., s, s) on its own, so each decision is the one the
    2-D call gives.
    """
    L = _umath_linalg.cholesky_lo(M)
    if L.ndim == 2:  # a Python float test: about 1 us less per one-trial step than numpy's
        return not math.isnan(L[0, -1])
    corner = L[..., 0, -1]
    return corner == corner  # False where NaN


def _boundary_guess(X: np.ndarray, D: np.ndarray) -> float:
    """1 / -lambda_min(L^{-1} D L^{-T}), L = chol(X): where X + t D leaves the cone, up to rounding.

    LAPACK's dsygv reduces D x = lambda X x to that symmetric problem.  0.5
    when X does not factor or the estimate is not a number; 1.0 when no
    eigenvalue is negative.
    """
    w, _, info = dsygv(D, X, jobz="N")  # ascending eigenvalues
    if info or math.isnan(w[0]):
        return 0.5
    return -1.0 / w[0] if w[0] < 0.0 else 1.0


def _max_step_psd(X: np.ndarray, D: np.ndarray, cap: float, stats: Optional[dict] = None) -> float:
    """Largest step t <= 1 keeping X + t D positive definite, as far as min(cap, t) needs.

    After a check of t = 1, 40 halvings of [0, 1], each decided by `_chol_ok`
    on the rounding of X + t * D that ``np.multiply`` then ``np.add`` give;
    the lower end only grows, so the search stops once that end reaches
    ``cap``.  Up to side `_BATCH_SIDE` the first halvings are decided from
    one stack of trials (`_follow_guessed_path`), the rest one trial at a
    time; the decisions read and the points they are read at are those of
    the one-trial loop alone, so the result is too.  A caller that passes
    ``stats`` has the invalid flag ignored already (a failed factor raises
    it) and gets "step_chol_calls" (decisions read), "step_trials"
    (matrices factored) and "step_batches" (`_chol_ok` calls) counted.
    """
    if stats is None:
        with np.errstate(invalid="ignore"):
            return _max_step_psd(X, D, cap, {"step_chol_calls": 0, "step_trials": 0,
                                             "step_batches": 0})
    buf = X + D
    stats["step_chol_calls"] += 1
    stats["step_trials"] += 1
    stats["step_batches"] += 1
    if _chol_ok(buf):
        return 1.0
    lo, hi, calls = 0.0, 1.0, 0
    if cap > 0.0 and X.shape[0] <= _BATCH_SIDE:
        lo, hi, calls = _follow_guessed_path(X, D, cap, stats)
    single = 0
    while calls < 40 and lo < cap:
        mid = 0.5 * (lo + hi)
        np.multiply(D, mid, out=buf)
        np.add(buf, X, out=buf)
        calls += 1
        single += 1
        if _chol_ok(buf):
            lo = mid
        else:
            hi = mid
    stats["step_chol_calls"] += calls
    stats["step_trials"] += single
    stats["step_batches"] += single
    return lo


def _follow_guessed_path(X: np.ndarray, D: np.ndarray, cap: float,
                         stats: dict) -> tuple[float, float, int]:
    """The first halvings of `_max_step_psd`'s bisection, decided from one stacked `_chol_ok` call.

    The stack holds the trials of the midpoints the bisection of (0, 1)
    visits if X + t D factors exactly for t <= `_boundary_guess`, at most 40
    and none once the predicted lower end reaches ``cap``.  The bisection
    reads their decisions in order while each point is its own next
    midpoint: up to and including the first decision the guess got wrong,
    after which its midpoints leave the path.  A point on the path is
    computed by the same expression from the same bounds as that midpoint,
    so it is the same float, and its trial the same bits.  Returns the
    bounds and the number of decisions read.
    """
    guess = _boundary_guess(X, D)
    path: list[float] = []
    lo, hi = 0.0, 1.0
    while len(path) < 40 and lo < cap:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        if mid <= guess:
            lo = mid
        else:
            hi = mid
    trials = np.multiply(D, np.array(path)[:, None, None])
    np.add(trials, X, out=trials)
    stats["step_trials"] += len(path)
    stats["step_batches"] += 1
    lo, hi, calls = 0.0, 1.0, 0
    for t, ok in zip(path, _chol_ok(trials).tolist()):
        if lo >= cap or t != 0.5 * (lo + hi):
            break
        calls += 1
        if ok:
            lo = t
        else:
            hi = t
    return lo, hi, calls


def _max_step_nonneg(x: np.ndarray, d: np.ndarray) -> float:
    neg = d < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-x[neg] / d[neg])))


@dataclass
class _Point:
    """An iterate, or a search direction: psd blocks X and Z by block index, the stacked nonneg
    part xl and its dual slack zl, the free entries xf and the multipliers y."""

    X: dict[int, np.ndarray]
    Z: dict[int, np.ndarray]
    xl: np.ndarray
    zl: np.ndarray
    xf: np.ndarray
    y: np.ndarray

    def moved(self, d: "_Point", ap: float, ad: float) -> "_Point":
        """The point a primal step ap and a dual step ad along d reach, each psd block symmetrized."""
        sym = lambda V: 0.5 * (V + V.T)  # noqa: E731
        return _Point({bi: sym(V + ap * d.X[bi]) for bi, V in self.X.items()},
                      {bi: sym(V + ad * d.Z[bi]) for bi, V in self.Z.items()},
                      self.xl + ap * d.xl, self.zl + ad * d.zl, self.xf + ap * d.xf, self.y + ad * d.y)


# an iterate's residuals (primal; dual by psd block, nonneg and free), <X, Z>, objectives and relative norms
_Residuals = namedtuple("_Residuals", "rp Rd rl rf gap pobj dobj pres dres")


def _steps(pt: _Point, d: _Point, orders: list[list[int]], stats: dict) -> tuple[float, float]:
    """Primal and dual steps: the largest t <= 1 keeping X + t dX, resp. Z + t dZ, in the cone.

    The cheap ratios of the stacked nonneg part, xl + t dxl and zl + t dzl,
    come first, then the psd blocks of X and Z in ``orders[0]`` (primal) or
    ``orders[1]`` (dual), each search stopping at the running cap.  A search
    returns its uncapped result or some value >= its cap, so the result is the
    same in every order; the block that bound a side moves to the front of
    that side's order, as it most likely binds the next search.
    """
    start = perf_counter()
    out = []
    with np.errstate(invalid="ignore"):
        for V, D, v, dv, order in ((pt.X, d.X, pt.xl, d.xl, orders[0]),
                                   (pt.Z, d.Z, pt.zl, d.zl, orders[1])):
            a = _max_step_nonneg(v, dv)
            bound = None
            for bi in order:
                t = _max_step_psd(V[bi], D[bi], a, stats)
                if t < a:
                    a, bound = t, bi
            if bound is not None:
                order.remove(bound)
                order.insert(0, bound)
            out.append(a)
    stats["seconds"]["step"] += perf_counter() - start
    return out[0], out[1]


def _row_spans(prog: ConicProgram, psd: list[int]) -> dict[int, tuple[int, int]]:
    """[first, last + 1) of the (sorted) constraint rows that touch each psd block bi.

    A block of side 1, or of no rows, keeps all of them, (0, m): the A^T y term
    of side 1 is a plain dot, which numpy sums in SIMD lanes set by the start.
    """
    return {bi: (int(r[0]), int(r[-1]) + 1) if (r := prog.A[bi].rows).size and prog.blocks[bi].size > 1
            else (0, prog.m) for bi in psd}


class _Factorization:
    """The Newton system [[M, F], [F', 0]] [dy, dxf] = [h, rf], factored on the null space of F'.

    With F = [Q1 Q2] [R; 0] and T = Q1 R^{-T} from `_free_basis`, F'T = I and
    F'Q2 = 0, so the dy with F'dy = rf are T rf + Q2 z, and the first block
    row projected by Q2' leaves K z = Q2'(h - M T rf) with K = Q2' M Q2, of side
    m - p, the only matrix factored.  K is positive definite when M is on the
    null space of F', also where M itself is singular on the range of F.  Then
    dxf = T'(h - M dy).  Without free entries (T is None) K is M itself; with
    p = m, dy = T rf and nothing is factored.  Counted in ``stats``.
    """

    def __init__(self, M: np.ndarray, F: np.ndarray, T: Optional[np.ndarray], Q2: Optional[np.ndarray],
                 stats: dict):
        self.stats = stats
        self.M, self.F, self.T, self.Q2 = M, F, T, Q2
        K = M if T is None else Q2.T @ (M @ Q2)
        self.cho = self._factor(K) if K.size else None

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
        if self.T is None:
            return cho_solve(self.cho, h), np.zeros(0)
        dy = self.T @ rf
        if self.cho is not None:
            dy += self.Q2 @ cho_solve(self.cho, self.Q2.T @ (h - self.M @ dy))
        return dy, self.T.T @ (h - self.M @ dy)

    def solve(self, h: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve [[M, F], [F', 0]] [dy, dxf] = [h, rf], with one refinement pass."""
        dy, dxf = self._solve_once(h, rf)
        e1, e2 = self._solve_once(h - self.M @ dy - self.F @ dxf, rf - self.F.T @ dy)
        return dy + e1, dxf + e2


def _free_basis(F: np.ndarray, blocks: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """T = Q1 R^{-T}, (m, p), and Q2, (m, m - p), of the complete QR F = [Q1 Q2] [R; 0] of the free columns.

    ``blocks`` lists the (index, size) of the zero blocks stacked in F.  F of
    dependent columns is refused, since the Newton system is singular then:
    column j counts as dependent on the columns before it when j >= m or
    |R_jj| <= m p eps ||F_j||, a bound on the rounding of Householder QR that
    does not depend on the column's scale.  The ValueError names each such
    column by its block and entry.
    """
    m, p = F.shape
    Q, R = np.linalg.qr(F, mode="complete")
    diag = np.abs(np.diagonal(R))
    limit = m * p * np.finfo(float).eps * np.linalg.norm(F, axis=0)
    dependent = [j for j in range(p) if j >= m or diag[j] <= limit[j]]
    if dependent:
        owner = [(bi, e) for bi, size in blocks for e in range(size)]
        raise ValueError("zero-block entries whose constraint columns depend on earlier ones: "
                         + ", ".join("block {} entry {}".format(*owner[j]) for j in dependent))
    Tt, _ = dtrtrs(R[:p], Q[:, :p].T)  # R^{-1} Q1'; R's diagonal has no zero
    return np.ascontiguousarray(Tt.T), np.ascontiguousarray(Q[:, p:])


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


def _span_data(prog: ConicProgram, bi: int, span: tuple[int, int]) -> np.ndarray:
    """Dense (hi - lo, s, s) copy of psd block bi's constraint data over the rows [lo, hi) of ``span``."""
    (lo, hi), s, data = span, prog.blocks[bi].size, prog.A[bi]
    out = np.zeros((hi - lo, s * s))
    out[data.rows - lo, data.cols] = data.vals
    return out.reshape(hi - lo, s, s)


def _span_csr(prog: ConicProgram, bi: int, span: tuple[int, int]) -> scipy.sparse.csr_array:
    """psd block bi's constraint data over the rows [lo, hi) of ``span`` as a (hi - lo, s^2) CSR array."""
    (lo, hi), s, data = span, prog.blocks[bi].size, prog.A[bi]
    indptr = np.searchsorted(data.rows, np.arange(lo, hi + 1))
    return scipy.sparse.csr_array((data.vals, data.cols, indptr), shape=(hi - lo, s * s))


def _schur_psd(M: np.ndarray, A: np.ndarray, X: np.ndarray, Zinv: np.ndarray) -> None:
    """Add one psd block's Schur terms tr(A_k Z^{-1} A_l X) over its n rows to the (n, n) M.

    ``A`` is the dense (n, s, s) data of the rows of the block's span, and
    ``M`` the view of the Schur complement on those rows and columns.  Row k
    of the (n, s^2) products P is (Z^{-1} A_k X)^T, flattened, from two
    stacked products, and M += A P^T is one GEMM.
    """
    n, s, _ = A.shape
    P = np.matmul(Zinv, np.matmul(A, X)).transpose(0, 2, 1).reshape(n, s * s)
    M += A.reshape(n, s * s) @ P.T


def _schur_psd_nonzeros(M: np.ndarray, A: scipy.sparse.csr_array, X: np.ndarray, Zinv: np.ndarray) -> None:
    """`_schur_psd` from the block's nonzeros: ``A`` is its (n, s^2) data over the span, as CSR.

    Row k of P is (Z^{-1} A_k X)^T = sum_t v_t X[j_t, :]^T Z^{-1}[:, i_t]^T
    over row k's nonzeros (i_t, j_t, v_t), one (s, q) by (q, s) product for
    q nonzeros.  P is formed a chunk of `_SCHUR_CHUNK` floats of rows at a
    time, and M[:, chunk] += A P_chunk^T is a sparse product: nnz (s^2 + n)
    multiply-adds in all, against the n^2 s^2 of the dense GEMM.
    """
    n, s = A.shape[0], X.shape[0]
    step = max(1, _SCHUR_CHUNK // (s * s))
    ptr = A.indptr.tolist()
    Zt = Zinv.T
    P = np.empty((min(step, n), s, s))
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        p0, p1 = ptr[k0], ptr[k1]
        i, j = np.divmod(A.indices[p0:p1], s)
        U, V = X[j] * A.data[p0:p1, None], Zt[i]
        for k in range(k0, k1):
            t0, t1 = ptr[k] - p0, ptr[k + 1] - p0
            np.matmul(U[t0:t1].T, V[t0:t1], out=P[k - k0])
        M[:, k0:k1] += A @ P[:k1 - k0].reshape(k1 - k0, s * s).T


class _Layout:
    """A program split by cone kind once per solve (see "Storage" above), with its working
    buffers and ``stats``; the methods are the phases of one iteration."""

    def __init__(self, prog: ConicProgram):
        self.prog = prog
        psd, self.nonneg, self.free = ([bi for bi, blk in enumerate(prog.blocks) if blk.kind == kind]
                                       for kind in ("psd", "nonneg", "zero"))
        self.psd = psd
        self.span = _row_spans(prog, psd)
        self.A = {bi: _span_data(prog, bi, self.span[bi]) for bi in psd}
        side = {bi: prog.blocks[bi].size for bi in psd}
        # the blocks whose dense span copy exceeds one chunk form their Schur terms from their nonzeros
        self.csr = {bi: _span_csr(prog, bi, (lo, hi)) for bi, (lo, hi) in self.span.items()
                    if (hi - lo) * side[bi] ** 2 > _SCHUR_CHUNK}
        self.eye = {bi: np.eye(prog.blocks[bi].size) for bi in psd}
        # Al (m, n_l), cl (n_l,) of the nonneg blocks and F (m, p), c_f (p,) of the zero blocks
        self.Al, self.F = _stacked_data(prog, self.nonneg), _stacked_data(prog, self.free)
        self.cl, self.c_f = (np.concatenate([np.zeros(0), *(prog.C[bi] for bi in bis)])
                             for bis in (self.nonneg, self.free))
        # T and Q2 of the null-space Newton step (see `_Factorization`), from one QR of F per solve
        start = perf_counter()
        self.T = self.Q2 = None
        if self.F.shape[1]:
            self.T, self.Q2 = _free_basis(self.F, [(bi, prog.blocks[bi].size) for bi in self.free])
        qr_seconds = perf_counter() - start
        self.nu = sum(prog.blocks[bi].size for bi in psd) + len(self.cl)
        self.scale = max(1.0, float(np.max(np.abs(prog.b), initial=0.0)),
                         *(float(np.max(np.abs(C), initial=0.0)) for C in prog.C))
        self.bnorm = 1.0 + float(np.linalg.norm(prog.b))
        self.cnorm = 1.0 + float(np.sqrt(sum(np.sum(C ** 2) for C in prog.C)))
        # the psd row spans, nonzeros and blocks on the nonzero path, and the multiply-adds of one
        # Schur formation, nnz (s^2 + hi - lo) on that path and (hi - lo)^2 s^2 on the dense one;
        # the step search's bisection decisions, the trial matrices it factored and its `_chol_ok`
        # calls; the Cholesky factorizations of the Schur system and those that needed the diagonal
        # shift; the free columns p and the side m - p of the matrix each iteration factors; the wall
        # seconds of each phase, which each step adds itself, the QR of F counted as factoring
        seconds = {"schur": 0.0, "factor": qr_seconds, "direction": 0.0, "step": 0.0}
        nnz = {bi: len(prog.A[bi].vals) for bi in psd}
        madds = sum(nnz[bi] * (side[bi] ** 2 + hi - lo) if bi in self.csr else (hi - lo) ** 2 * side[bi] ** 2
                    for bi, (lo, hi) in self.span.items())
        self.stats = {"row_spans": self.span, "nonzeros": nnz, "sparse_schur": sorted(self.csr),
                      "schur_madds": madds, "step_chol_calls": 0, "step_trials": 0, "step_batches": 0,
                      "factorizations": 0, "regularized": 0, "free_columns": len(self.c_f),
                      "factored_side": prog.m - len(self.c_f), "seconds": seconds}

    def start(self) -> _Point:
        """X = Z = scale * I, xl = zl = scale, xf = 0 and y = 0."""
        s, n_l = self.scale, len(self.cl)
        return _Point({bi: s * I for bi, I in self.eye.items()}, {bi: s * I for bi, I in self.eye.items()},
                      s * np.ones(n_l), s * np.ones(n_l), np.zeros(len(self.c_f)), np.zeros(self.prog.m))

    def residuals(self, pt: _Point) -> _Residuals:
        X, Z, xl, zl, xf, y = pt.X, pt.Z, pt.xl, pt.zl, pt.xf, pt.y
        C, span, A = self.prog.C, self.span, self.A
        rp = self.prog.b.copy()
        for bi in self.psd:
            rp[slice(*span[bi])] -= np.einsum("kij,ij->k", A[bi], X[bi])
        rp -= self.Al @ xl
        rp -= self.F @ xf
        Rd = {bi: C[bi] - np.einsum("kij,k->ij", A[bi], y[slice(*span[bi])]) - Z[bi] for bi in self.psd}
        rl = self.cl - self.Al.T @ y - zl
        rf = self.c_f - self.F.T @ y
        dnorm2 = sum(float(np.sum(R**2)) for R in (*Rd.values(), rl, rf))
        gap = sum(float(np.sum(X[bi] * Z[bi])) for bi in self.psd) + float(np.sum(xl * zl))
        pobj = float(sum(np.sum(C[bi] * X[bi]) for bi in self.psd) + np.sum(self.cl * xl))
        pobj += float(self.c_f @ xf)
        dobj = float(self.prog.b @ y)
        return _Residuals(rp, Rd, rl, rf, gap, pobj, dobj, float(np.linalg.norm(rp)) / self.bnorm,
                          float(np.sqrt(dnorm2)) / self.cnorm)

    def schur(self, pt: _Point, res: _Residuals) -> tuple[dict, dict, _Factorization]:
        """Z^{-1} and Z^{-1} Rd X by psd block, and the factored Schur complement
        M_kl = sum_blocks tr(A_k Z^{-1} A_l X) plus the nonneg terms."""
        start = perf_counter()
        M = np.zeros((self.prog.m, self.prog.m))
        Zinv, ZRX = {}, {}  # Z^{-1} Rd X is a term of both directions
        for bi in self.psd:
            Zinv[bi] = cho_solve(cho_factor(pt.Z[bi]), self.eye[bi])
            ZRX[bi] = Zinv[bi] @ (res.Rd[bi] @ pt.X[bi])
            lo, hi = self.span[bi]
            if bi in self.csr:
                _schur_psd_nonzeros(M[lo:hi, lo:hi], self.csr[bi], pt.X[bi], Zinv[bi])
            else:
                _schur_psd(M[lo:hi, lo:hi], self.A[bi], pt.X[bi], Zinv[bi])
        M += (self.Al * (pt.xl / pt.zl)) @ self.Al.T
        M = 0.5 * (M + M.T)
        formed = perf_counter()
        fact = _Factorization(M, self.F, self.T, self.Q2, self.stats)
        self.stats["seconds"]["schur"] += formed - start
        self.stats["seconds"]["factor"] += perf_counter() - formed
        return Zinv, ZRX, fact

    def direction(self, pt: _Point, res: _Residuals, newton: tuple, pred: Optional[_Point] = None,
                  steps: Optional[tuple[float, float]] = None) -> _Point:
        """The predictor direction from `schur`'s ``newton``; given the predictor ``pred`` and its
        ``steps``, the corrector: toward Mehrotra's sigma mu, with the second-order term dZ dX."""
        start = perf_counter()
        Zinv, ZRX, fact = newton
        X, xl, zl = pt.X, pt.xl, pt.zl
        sigma_mu = 0.0
        if pred is not None:  # sigma is the cube of the ratio of <X, Z> after the predictor step
            (ap, ad), gap = steps, res.gap
            gap_aff = sum(float(np.sum((X[bi] + ap * pred.X[bi]) * (pt.Z[bi] + ad * pred.Z[bi])))
                          for bi in self.psd) + float(np.sum((xl + ap * pred.xl) * (zl + ad * pred.zl)))
            sigma_mu = (min(1.0, max(1e-8, (gap_aff / gap) ** 3)) if gap > 0 else 0.1) * (gap / self.nu)
        h = res.rp.copy()
        G: dict[int, np.ndarray] = {}
        for bi in self.psd:
            G[bi] = sigma_mu * Zinv[bi] - X[bi] - ZRX[bi]
            if pred is not None:
                G[bi] = G[bi] - Zinv[bi] @ (pred.Z[bi] @ pred.X[bi])
            h[slice(*self.span[bi])] -= np.einsum("kij,ij->k", self.A[bi], G[bi])
        gl = sigma_mu / zl - xl - res.rl * xl / zl
        if pred is not None:
            gl = gl - pred.zl * pred.xl / zl
        h -= self.Al @ gl
        dy, dxf = fact.solve(h, res.rf)
        dX, dZ = {}, {}
        for bi in self.psd:
            Aty = np.einsum("kij,k->ij", self.A[bi], dy[slice(*self.span[bi])])
            dZ[bi] = res.Rd[bi] - Aty
            dxb = G[bi] + Zinv[bi] @ (Aty @ X[bi])
            dX[bi] = 0.5 * (dxb + dxb.T)
        Aty = self.Al.T @ dy
        self.stats["seconds"]["direction"] += perf_counter() - start
        return _Point(dX, dZ, gl + Aty * xl / zl, res.rl - Aty, dxf, dy)


def solve(prog: ConicProgram, options: SolveOptions | None = None) -> SDPSolution:
    """Run the interior-point iteration on a conic program.

    The blocks are split by kind once, on entry (see "Storage" above); X and Z
    return in declared block order, with Z = 0 on the zero blocks.
    """
    opt = options or SolveOptions()
    lay = _Layout(prog)
    orders = [list(lay.psd), list(lay.psd)]  # primal and dual psd search orders (see `_steps`)
    pt = lay.start()
    status: Status = "max_iter"  # also where the loop breaks without naming a status
    trace: list[dict] = []
    last_steps = (0.0, 0.0)
    best_merit = float("inf")
    best = None
    regressions = 0

    for it in range(opt.max_iter + 1):
        res = lay.residuals(pt)
        mu = res.gap / lay.nu
        merit = max(res.pres, res.dres, abs(res.pobj - res.dobj) / (1.0 + abs(res.dobj)))

        trace.append(
            {
                "iter": it,
                "mu": mu,
                "gap": res.gap,
                "pobj": res.pobj,
                "dobj": res.dobj,
                "pres": res.pres,
                "dres": res.dres,
                "step_p": last_steps[0],
                "step_d": last_steps[1],
            }
        )
        _log.debug(
            "it %3d  mu %9.2e  gap %10.3e  pres %8.2e  dres %8.2e",
            it, mu, res.pobj - res.dobj, res.pres, res.dres,
        )

        if not (np.isfinite(mu) and np.isfinite(res.pobj) and np.isfinite(res.dobj)):
            status = "numerical_failure"
            break
        if merit < best_merit:
            best_merit = merit
            best = pt  # no step changes a point in place
            regressions = 0
        elif merit > 5.0 * best_merit and mu < 1e-8 * (1.0 + abs(res.dobj)):
            # endgame degradation; keep the best point seen instead of
            # grinding the Newton system into the floating-point floor
            regressions += 1
            if regressions >= 3:
                break
        if (
            abs(res.pobj - res.dobj) <= opt.gap_tol * (1.0 + abs(res.dobj))
            and res.pres <= opt.feas_tol
            and res.dres <= opt.feas_tol
        ):
            status = "optimal"
            break
        # divergence heuristics: residual stalls while an objective blows up
        if res.dobj > 1e10 * lay.scale and res.dres <= 1e-6:
            status = "infeasible"
            break
        if res.pobj < -1e10 * lay.scale and res.pres <= 1e-6:
            status = "unbounded"
            break
        # out of iterations, or at the floating-point floor of the barrier,
        # where there is nothing left to gain: stop with the current iterate
        # rather than breaking the Newton system (max_iter flags that the
        # requested tolerances were not met)
        if it == opt.max_iter or mu < 1e-16 * (1.0 + abs(res.dobj)):
            break

        newton = None  # the last system and its factors are freed before the next is formed
        try:
            newton = lay.schur(pt, res)
            pred = lay.direction(pt, res, newton)
            d = lay.direction(pt, res, newton, pred, _steps(pt, pred, orders, lay.stats))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        ap, ad = _steps(pt, d, orders, lay.stats)
        ap = min(1.0, _STEP_FRACTION * ap)
        ad = min(1.0, _STEP_FRACTION * ad)
        if max(ap, ad) < 1e-10:
            break  # step collapse: no further progress possible
        last_steps = (ap, ad)
        pt = pt.moved(d, ap, ad)

    # return the best earlier iterate when the last one is worse or not finite
    fallback_used = (status in ("max_iter", "numerical_failure") and best is not None
                     and (not np.isfinite(merit) or best_merit < merit))
    if fallback_used:
        pt, res = best, lay.residuals(best)

    # slice the stacked parts back into their blocks, in declared order
    out = {bi: (pt.X[bi], pt.Z[bi]) for bi in lay.psd}
    for bis, x, z in ((lay.nonneg, pt.xl, pt.zl), (lay.free, pt.xf, np.zeros(len(pt.xf)))):
        cuts = np.cumsum([prog.blocks[bi].size for bi in bis[:-1]], dtype=int)
        out.update(zip(bis, zip(np.split(x, cuts), np.split(z, cuts))))

    return SDPSolution(
        status=status,
        X=[out[bi][0].copy() for bi in range(len(prog.blocks))],
        y=pt.y.copy(),
        Z=[out[bi][1].copy() for bi in range(len(prog.blocks))],
        primal_obj=res.pobj,
        dual_obj=res.dobj,
        gap=res.gap,
        primal_residual=res.pres,
        dual_residual=res.dres,
        iterations=it,
        mu_final=res.gap / lay.nu,
        blocks=list(prog.blocks),
        trace=trace,
        fallback_used=fallback_used,
        stats=lay.stats,
    )

