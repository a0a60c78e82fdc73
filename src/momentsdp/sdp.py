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
Mehrotra predictor-corrector.  `solve` holds the loop and the stop tests, and
returns the last iterate under a status that says why it stopped; each phase
of an iteration is a step of its own on one record, `_Point`, the iterate and
the search direction alike, and adds its wall seconds to ``stats``:
`_Layout.residuals`; `_Layout.schur`, the Schur complement M and the Newton
system's factors (`_Factorization`): the free entries' data F pin dy to
F'dy = rf, so only M's projection onto the null space of F' is factored, by
LAPACK's Cholesky called directly, and a failed factorization ends the solve
as ``numerical_failure``; `_Layout.direction`, the predictor or the
corrector, from two solves with those factors, the second a refinement pass
on the primal equation; and `_Layout.steps`, the largest steps in the cone,
of which `solve` takes a fixed fraction.  A psd block's step to its boundary
is an eigenvalue of the pencil (D, X), from one LAPACK dsygv call
(`_max_step_psd`).

Storage.  A program stores each block's constraint data as its nonzeros
(`BlockData`: constraint index, cell, coefficient), since moment relaxations
fill well under 1% of the dense (m, s, s) arrays.  `_Layout` splits the
blocks by kind once per solve.  It stacks the nonneg blocks into one dense
(m, n_l) matrix and the zero blocks into one dense (m, p) matrix F, and takes
one QR of F (`_free_basis`), which refuses dependent columns.  Every matrix
of the psd blocks (X, Z, C, Z^{-1}, ...) is one flat vector of N = sum s^2
cells, the blocks ordered by side so that each run of equal sides is one
(k, s, s) stack, and their data one (row, cell, value) triple, block by
block: A(X), <A_k, G> and A^T y are one `np.bincount` each (in the order of
scipy's CSR and CSC sums), every sum and the symmetrization (a gather
through the transpose permutation) act on whole vectors, and each Z^{-1} V W
is one stacked product per run.  Z^{-1}, the Schur terms and the steps run per
block on views of the flat vectors; X and Z are sliced back into declared
block order once, at the end.  Every sum over blocks takes the psd blocks
first, by side, then the nonneg part, then the free part.  A block's Schur
terms fill only M[lo:hi, lo:hi], over its row span, the rows [lo, hi) from
the first to the last one that touch it.  A block whose dense span copy
would hold at most `_SCHUR_CHUNK` floats gets that copy, and `_schur_psd`
forms its terms by stacked products and one GEMM; a larger block keeps its
span data as CSR, and `_schur_psd_nonzeros` forms them from its nonzeros, in
agreement with the dense path to rounding.  The working set lives only as
long as the solve; each iteration frees the last Schur system and its
factors before it forms the next.

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
import scipy.sparse
from scipy.linalg.lapack import dpotrf, dpotrs, dsygv, dtrtrs

BlockKind = Literal["psd", "nonneg", "zero"]

_log = logging.getLogger(__name__)

# floats of a psd block's dense span copy above which it forms its Schur terms from its nonzeros
# and gets no such copy, and per chunk (of at least 16 rows) of the products they take
_SCHUR_CHUNK = 1 << 17
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


Status = Literal["optimal", "max_iter", "numerical_failure"]


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


def _max_step_psd(X: np.ndarray, D: np.ndarray) -> float:
    """Largest step t <= 1 keeping X + t D positive definite: min(1, -1/lambda_min(L^-1 D L^-T)), L = chol(X).

    LAPACK's dsygv reduces D v = lambda X v to that symmetric problem (Toh,
    Comput. Optim. Appl. 21, 2002); 1.0 when no eigenvalue is negative.  Where
    dsygv fails, as on an X that does not factor, a rounding outside the cone,
    the step is 1.0 if X + D factors and 0.0 otherwise.
    """
    w, _, info = dsygv(D, X, jobz="N")  # ascending eigenvalues
    if info:
        return 0.0 if dpotrf(X + D, lower=1, clean=0)[1] else 1.0
    return min(1.0, -1.0 / w[0]) if w[0] < 0.0 else 1.0


def _max_step_nonneg(x: np.ndarray, d: np.ndarray) -> float:
    if not x.size or not np.any(neg := d < 0):
        return 1.0
    return float(min(1.0, np.min(-x[neg] / d[neg])))


@dataclass
class _Point:
    """An iterate, or a search direction: X and Z of every psd block as flat vectors over the
    layout's cells (see `_Layout`), the stacked nonneg part xl and its dual slack zl, the free
    entries xf and the multipliers y."""

    X: np.ndarray
    Z: np.ndarray
    xl: np.ndarray
    zl: np.ndarray
    xf: np.ndarray
    y: np.ndarray


# an iterate's residuals (primal; dual on psd cells, nonneg and free), <X, Z>, objectives and relative norms
_Residuals = namedtuple("_Residuals", "rp Rd rl rf gap pobj dobj pres dres")


def _row_spans(prog: ConicProgram, psd: list[int]) -> dict[int, tuple[int, int]]:
    """[first, last + 1) of the (sorted) constraint rows that touch each psd block bi; (0, 0) without rows."""
    return {bi: (int(r[0]), int(r[-1]) + 1) if (r := prog.A[bi].rows).size else (0, 0) for bi in psd}


class _Factorization:
    """The Newton system [[M, F], [F', 0]] [dy, dxf] = [h, rf], factored on the null space of F'.

    With F = [Q1 Q2] [R; 0] and T = Q1 R^{-T} from `_free_basis`, F'T = I and
    F'Q2 = 0, so the dy with F'dy = rf are T rf + Q2 z, and the first block
    row projected by Q2' leaves K z = Q2'(h - M T rf) with K = Q2' M Q2, of side
    m - p, the only matrix factored.  K is positive definite when M is on the
    null space of F', also where M itself is singular on the range of F.  Then
    dxf = T'(h - M dy).  Without free entries (T is None) K is M itself; with
    p = m, dy = T rf and nothing is factored.  A K that is not numerically
    positive definite raises LinAlgError.  Counted in ``stats``.
    """

    def __init__(self, M: np.ndarray, T: Optional[np.ndarray], Q2: Optional[np.ndarray], stats: dict):
        self.M, self.T, self.Q2 = M, T, Q2
        K = M if T is None else Q2.T @ (M @ Q2)
        self.cho = None
        if K.size:  # the solve loop checks finiteness first, so K needs no scan
            stats["factorizations"] += 1
            self.cho = cho_factor(K)

    def solve(self, h: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve [[M, F], [F', 0]] [dy, dxf] = [h, rf]."""
        if self.T is None:
            return cho_solve(self.cho, h), np.zeros(0)
        dy = self.T @ rf
        if self.cho is not None:
            dy += self.Q2 @ cho_solve(self.cho, self.Q2.T @ (h - self.M @ dy))
        return dy, self.T.T @ (h - self.M @ dy)


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


def _stacked_data(prog: ConicProgram, bis: list[int], span: Optional[tuple[int, int]] = None) -> np.ndarray:
    """The constraint data of blocks bis side by side, dense, over the rows [lo, hi) of ``span``,
    which must hold every row of their nonzeros (all m rows by default): (hi - lo, total width)."""
    lo, hi = span or (0, prog.m)
    widths = [math.prod(prog.blocks[bi].shape) for bi in bis]
    out = np.zeros((hi - lo, sum(widths)))
    offset = 0
    for bi, width in zip(bis, widths):
        data = prog.A[bi]
        out[data.rows - lo, data.cols + offset] = data.vals
        offset += width
    return out


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
    q nonzeros.  P is formed a chunk of rows at a time, at least 16 and as
    many as `_SCHUR_CHUNK` floats hold, and M[:, chunk] += A P_chunk^T is a
    sparse product: nnz (s^2 + n) multiply-adds in all, against the n^2 s^2
    of the dense GEMM.  Each column of M sums the same terms in the same
    order whatever the chunk, so M's bits do not depend on it.
    """
    n, s = A.shape[0], X.shape[0]
    step = max(16, _SCHUR_CHUNK // (s * s))
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
    """A program split by cone kind once per solve (see "Storage" above), with its working buffers
    and ``stats``.  ``psd`` lists the psd blocks by side, in declared order within a side; ``cuts``
    holds each one's (side, offset) in the flat cell vectors of length ``N``, ``runs`` the (side,
    start, stop) of each run of equal sides, ``stacks`` and ``slices`` the (slice, shape) of the
    views of each run and block, and ``tperm`` the gather that transposes every block.  ``rows``,
    ``cols`` and ``vals`` hold the nonzeros of all psd blocks over the flat cells, block by block,
    for `apply` and `adjoint`.  The Schur terms read ``dense``, the (hi - lo, s, s) span
    copies of the blocks on the dense path, and ``csr``, the (hi - lo, s^2) CSR span data of the
    others.  The other methods are the phases of one iteration."""

    def __init__(self, prog: ConicProgram):
        built = perf_counter()
        self.prog = prog
        psd, self.nonneg, self.free = ([bi for bi, blk in enumerate(prog.blocks) if blk.kind == kind]
                                       for kind in ("psd", "nonneg", "zero"))
        side = {bi: prog.blocks[bi].size for bi in psd}
        self.psd = sorted(psd, key=side.get)
        offsets = np.cumsum([0] + [side[bi] ** 2 for bi in self.psd]).tolist()
        self.N = offsets[-1]
        self.cuts = [(side[bi], o) for bi, o in zip(self.psd, offsets)]
        runs: dict[int, tuple[int, int]] = {}
        for s, o in self.cuts:
            runs[s] = (runs.get(s, (o,))[0], o + s * s)
        self.runs = [(s, lo, hi) for s, (lo, hi) in runs.items()]
        self.stacks = [(slice(lo, hi), (-1, s, s)) for s, lo, hi in self.runs]
        self.slices = [(slice(o, o + s * s), (s, s)) for s, o in self.cuts]
        self.tperm = np.arange(self.N)
        for s, lo, hi in self.runs:
            self.tperm[lo:hi] = self.tperm[lo:hi].reshape(-1, s, s).transpose(0, 2, 1).ravel()
        self.ident = np.concatenate([np.zeros(0), *(np.eye(s).ravel() for s, _ in self.cuts)])
        self.eyes = self.blocks(self.ident)
        self.c = np.concatenate([np.zeros(0), *(prog.C[bi].ravel() for bi in self.psd)])
        # each block's nonzeros, sorted by (row, cell), at its cell offset: every row's cells and
        # every cell's rows come in ascending order, the orders in which scipy's CSR and CSC sum
        data = [prog.A[bi] for bi in self.psd]
        self.rows = np.concatenate([np.zeros(0, np.intp), *(d.rows for d in data)])
        self.cols = np.concatenate([np.zeros(0, np.intp), *(d.cols + o for d, (_, o) in zip(data, self.cuts))])
        self.vals = np.concatenate([np.zeros(0), *(d.vals for d in data)])
        self.span = _row_spans(prog, psd)
        # a block whose dense span copy would exceed one chunk keeps, in place of that copy, its data
        # over the span as CSR
        self.csr = {bi: _span_csr(prog, bi, (lo, hi)) for bi, (lo, hi) in self.span.items()
                    if (hi - lo) * side[bi] ** 2 > _SCHUR_CHUNK}
        self.dense = {bi: _stacked_data(prog, [bi], self.span[bi]).reshape(-1, side[bi], side[bi])
                      for bi in psd if bi not in self.csr}
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
        # the Cholesky factorizations of the Schur system; the free columns p and the side
        # m - p of the matrix each iteration factors; the wall seconds of this build and of each
        # phase, which each step adds itself, the QR of F counted as factoring, not as the build
        seconds = {"layout": 0.0, "residuals": 0.0, "schur": 0.0, "factor": qr_seconds, "direction": 0.0,
                   "step": 0.0}
        nnz = {bi: len(prog.A[bi].vals) for bi in psd}
        madds = sum(nnz[bi] * (side[bi] ** 2 + hi - lo) if bi in self.csr else (hi - lo) ** 2 * side[bi] ** 2
                    for bi, (lo, hi) in self.span.items())
        self.stats = {"row_spans": self.span, "nonzeros": nnz, "sparse_schur": sorted(self.csr),
                      "schur_madds": madds, "factorizations": 0, "free_columns": len(self.c_f),
                      "factored_side": prog.m - len(self.c_f), "seconds": seconds}
        seconds["layout"] = perf_counter() - built - qr_seconds

    def blocks(self, V: np.ndarray) -> list[np.ndarray]:
        """The (s, s) views of flat cell vector V's psd blocks, in the order of ``psd``."""
        return [V[cells].reshape(shape) for cells, shape in self.slices]

    def apply(self, V: np.ndarray) -> np.ndarray:
        """A(V) = (<A_k, V>)_k over every psd block of flat cell vector V."""
        return np.bincount(self.rows, self.vals * V[self.cols], minlength=self.prog.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T y = sum_k y_k A_k over every psd block, as a flat cell vector."""
        return np.bincount(self.cols, self.vals * y[self.rows], minlength=self.N)

    def sym(self, V: np.ndarray) -> np.ndarray:
        """Every psd block of flat cell vector V symmetrized, (V + V^T) / 2."""
        return 0.5 * (V + V[self.tperm])

    def zinv_product(self, Zinv: np.ndarray, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Z^{-1} (V W) on every psd block, as a flat cell vector: one stacked product per run."""
        out = np.empty(self.N)
        for cells, shape in self.stacks:
            Zs, Vs, Ws, Os = (U[cells].reshape(shape) for U in (Zinv, V, W, out))
            np.matmul(Zs, np.matmul(Vs, Ws), out=Os)
        return out

    def start(self) -> _Point:
        """X = Z = scale * I, xl = zl = scale, xf = 0 and y = 0."""
        s, n_l = self.scale, len(self.cl)
        return _Point(s * self.ident, s * self.ident, s * np.ones(n_l), s * np.ones(n_l),
                      np.zeros(len(self.c_f)), np.zeros(self.prog.m))

    def primal_residual(self, rhs: np.ndarray, X: np.ndarray, xl: np.ndarray, xf: np.ndarray) -> np.ndarray:
        """rhs - A(X) - Al xl - F xf."""
        return rhs - self.apply(X) - self.Al @ xl - self.F @ xf

    def residuals(self, pt: _Point) -> _Residuals:
        start = perf_counter()
        rp = self.primal_residual(self.prog.b, pt.X, pt.xl, pt.xf)
        Rd = self.c - self.adjoint(pt.y) - pt.Z
        rl = self.cl - self.Al.T @ pt.y - pt.zl
        rf = self.c_f - self.F.T @ pt.y
        dnorm = math.sqrt(float(Rd @ Rd) + float(rl @ rl) + float(rf @ rf))
        gap = float(pt.X @ pt.Z) + float(pt.xl @ pt.zl)
        pobj = float(self.c @ pt.X) + float(self.cl @ pt.xl) + float(self.c_f @ pt.xf)
        dobj = float(self.prog.b @ pt.y)
        self.stats["seconds"]["residuals"] += perf_counter() - start
        return _Residuals(rp, Rd, rl, rf, gap, pobj, dobj, float(np.linalg.norm(rp)) / self.bnorm,
                          dnorm / self.cnorm)

    def schur(self, pt: _Point, res: _Residuals) -> tuple[np.ndarray, np.ndarray, _Factorization]:
        """Z^{-1} and Z^{-1} Rd X as flat cell vectors, and the factored Schur complement
        M_kl = sum_blocks tr(A_k Z^{-1} A_l X) plus the nonneg terms."""
        start = perf_counter()
        M = np.zeros((self.prog.m, self.prog.m))
        Zinv = np.empty(self.N)
        for bi, X, Z, Zi, I in zip(self.psd, *map(self.blocks, (pt.X, pt.Z, Zinv)), self.eyes):
            Zi[...] = cho_solve(cho_factor(Z), I)
            lo, hi = self.span[bi]
            if bi in self.csr:
                _schur_psd_nonzeros(M[lo:hi, lo:hi], self.csr[bi], X, Zi)
            else:
                _schur_psd(M[lo:hi, lo:hi], self.dense[bi], X, Zi)
        ZRX = self.zinv_product(Zinv, res.Rd, pt.X)  # a term of both directions
        if self.cl.size:  # M holds no -0.0, so adding the zero term of no nonneg entries keeps its bits
            M += (self.Al * (pt.xl / pt.zl)) @ self.Al.T
        M += M.T
        M *= 0.5
        formed = perf_counter()
        fact = _Factorization(M, self.T, self.Q2, self.stats)
        self.stats["seconds"]["schur"] += formed - start
        self.stats["seconds"]["factor"] += perf_counter() - formed
        return Zinv, ZRX, fact

    def direction(self, pt: _Point, res: _Residuals, newton: tuple, pred: Optional[_Point] = None,
                  steps: Optional[tuple[float, float]] = None) -> _Point:
        """The predictor direction from `schur`'s ``newton``; given the predictor ``pred`` and its
        ``steps``, the corrector: toward Mehrotra's sigma mu, with the second-order term dZ dX.

        One refinement pass follows the first solve.  Its right-hand side is what the step leaves of
        the primal equation A(dX) + Al dxl + F dxf = rp, of which dX's rounding, growing with
        ||Z^{-1}|| ~ 1/mu, takes the largest share, and of the free one F'dy = rf; its increments
        are added to every part of the step."""
        start = perf_counter()
        Zinv, ZRX, fact = newton
        X, xl, zl = pt.X, pt.xl, pt.zl
        sigma_mu = 0.0
        if pred is not None:  # sigma is the cube of the ratio of <X, Z> after the predictor step
            (ap, ad), gap = steps, res.gap
            gap_aff = (float((X + ap * pred.X) @ (pt.Z + ad * pred.Z))
                       + float((xl + ap * pred.xl) @ (zl + ad * pred.zl)))
            sigma_mu = (min(1.0, max(1e-8, (gap_aff / gap) ** 3)) if gap > 0 else 0.1) * (gap / self.nu)
        G = sigma_mu * Zinv - X - ZRX
        gl = sigma_mu / zl - xl - res.rl * xl / zl
        if pred is not None:
            G -= self.zinv_product(Zinv, pred.Z, pred.X)
            gl -= pred.zl * pred.xl / zl
        h = res.rp - self.apply(G) - self.Al @ gl

        def lifted(v, GX, R, gx, r):
            """The step of multipliers v, from the primal parts GX, gx and the dual parts R, r."""
            Aty, aty = self.adjoint(v), self.Al.T @ v
            return self.sym(GX + self.zinv_product(Zinv, Aty, X)), R - Aty, gx + aty * xl / zl, r - aty

        dy, dxf = fact.solve(h, res.rf)
        dX, dZ, dxl, dzl = lifted(dy, G, res.Rd, gl, res.rl)
        ey, exf = fact.solve(self.primal_residual(res.rp, dX, dxl, dxf), res.rf - self.F.T @ dy)
        dX, dZ, dxl, dzl = lifted(ey, dX, dZ, dxl, dzl)
        self.stats["seconds"]["direction"] += perf_counter() - start
        return _Point(dX, dZ, dxl, dzl, dxf + exf, dy + ey)

    def steps(self, pt: _Point, d: _Point) -> tuple[float, float]:
        """Primal and dual steps: the largest t <= 1 keeping X + t dX, resp. Z + t dZ, in the cone,
        the least of the stacked nonneg part's ratio and every psd block's step."""
        start = perf_counter()
        ap, ad = (min((_max_step_nonneg(v, dv), *map(_max_step_psd, self.blocks(V), self.blocks(D))))
                  for V, D, v, dv in ((pt.X, d.X, pt.xl, d.xl), (pt.Z, d.Z, pt.zl, d.zl)))
        self.stats["seconds"]["step"] += perf_counter() - start
        return ap, ad

    def moved(self, pt: _Point, d: _Point, ap: float, ad: float) -> _Point:
        """The point a primal step ap and a dual step ad along d reach, each psd block symmetrized."""
        return _Point(self.sym(pt.X + ap * d.X), self.sym(pt.Z + ad * d.Z), pt.xl + ap * d.xl,
                      pt.zl + ad * d.zl, pt.xf + ap * d.xf, pt.y + ad * d.y)


def solve(prog: ConicProgram, options: SolveOptions | None = None) -> SDPSolution:
    """Run the interior-point iteration on a conic program.

    The blocks are split by kind once, on entry (see "Storage" above); X and Z
    return in declared block order, with Z = 0 on the zero blocks.  The
    returned point is the last iterate, except after a non-finite one: then
    it is the iterate before, with its residuals, under the status
    ``numerical_failure``, and ``iterations`` and the trace still count the
    non-finite one.  A failed factorization also ends the solve as
    ``numerical_failure``, on the iterate it was formed at.
    """
    opt = options or SolveOptions()
    lay = _Layout(prog)
    pt = lay.start()
    status: Status = "max_iter"  # also where the loop breaks without naming a status
    trace: list[dict] = []
    last_steps = (0.0, 0.0)
    finite = None  # the last finite iterate and its residuals

    for it in range(opt.max_iter + 1):
        res = lay.residuals(pt)
        mu = res.gap / lay.nu

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

        if not (math.isfinite(mu) and math.isfinite(res.pobj) and math.isfinite(res.dobj)):
            status = "numerical_failure"
            pt, res = finite or (pt, res)  # the start is finite, whatever its residuals
            break
        finite = (pt, res)  # no step changes a point in place
        if (
            abs(res.pobj - res.dobj) <= opt.gap_tol * (1.0 + abs(res.dobj))
            and res.pres <= opt.feas_tol
            and res.dres <= opt.feas_tol
        ):
            status = "optimal"
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
            d = lay.direction(pt, res, newton, pred, lay.steps(pt, pred))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        ap, ad = lay.steps(pt, d)
        ap = min(1.0, _STEP_FRACTION * ap)
        ad = min(1.0, _STEP_FRACTION * ad)
        if max(ap, ad) < 1e-10:
            break  # step collapse: no further progress possible
        last_steps = (ap, ad)
        pt = lay.moved(pt, d, ap, ad)

    # slice the flat and stacked parts back into their blocks, in declared order
    out = dict(zip(lay.psd, zip(lay.blocks(pt.X), lay.blocks(pt.Z))))
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
        stats=lay.stats,
    )
