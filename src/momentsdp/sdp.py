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
Mehrotra predictor-corrector.  `solve_batch` holds the loop and the stop
tests, and returns the last iterate under a status that says why it stopped;
`solve` is its batch of one.  The loop runs a batch of right-hand sides b of
one program at once: every iterate array carries a leading batch axis, one
row per b.  A row ends when its stop tests end it, and on the iterate where
its Newton systems do not factor or its steps collapse; the loop applies
every end in one place, after the stop tests of an iterate, where the rows
that end leave the batch (`_rows`).  Each phase of an iteration is a step
of its own on one record, `_Point`, the iterates and the search directions
alike, and adds its wall seconds to ``stats``, those of the whole
batch, which its solutions share: `_Layout.residuals`; `_Layout.schur`, the
Schur complements M and the Newton systems' factors (`_Factorization`), in
one `_Newton` record: the free entries' data F pin dy to F'dy = rf, so only
M's projection onto the null space of F' is factored, and a failed
factorization ends its row as ``numerical_failure``; `_Layout.direction`,
the predictors or the correctors, from two solves with those factors, the
second a refinement pass on the primal equation; and `_Layout.steps`, the
largest steps in the cone, of which the loop takes a fixed fraction.  A psd
block's step to its boundary is min(1, -1/lambda_min(L^{-1} D L^{-T})), L the
Cholesky factor of X (or of Z), and 1 where no eigenvalue is negative.
`schur` factors each run of equal sides' Z and X once per iteration and
inverts the factors, each by one stacked call; the steps of the predictor
and of the corrector stack each run of equal sides' dX and dZ and take every
eigenvalue from one stacked whitening and eigensolve (`_psd_steps`).  An X
that does not factor, a rounding outside the cone, takes `_unfactored_step`.

Factorizations.  `_cholesky` and `_tril_inverse` call the gufuncs behind
`np.linalg` on stacks, without scipy: a Newton system keeps K's inverse
factor W, Z^{-1} is W'W of Z's, and T comes from the inverse of R'.
`_pivoted_cholesky`, dpstrf's rule in numpy, serves the relaxation's row
prune and the atom extraction, not the solver.

Batches.  Each row computes what a solve of its b alone computes, in the
same order: the numpy calls that a batch shares act on each row as on a lone
vector.  LAPACK runs once per matrix of a stack (the Cholesky factors,
the inverses and the eigenvalues), `np.matmul`
takes a product of each row's own shapes, `np.vecdot` and `np.matvec` take
each row's dot and matrix-vector products by the BLAS call a lone vector
gets, and one `np.bincount` bins every row's products apart, at row and cell
offsets; Mehrotra's sigma is a float power per row.  So every row carries
the bits of its own solve.  The batch a loop runs is as large as its (m, m)
Schur complements fit `_SCHUR_CHUNK` floats, at least one row.

Storage.  A program stores each block's constraint data as its nonzeros
(`BlockData`: constraint index, cell, coefficient), since moment relaxations
fill well under 1% of the dense (m, s, s) arrays.  `_Layout` splits the
blocks by kind once per program.  It stacks the nonneg blocks into one dense
(m, n_l) matrix and the zero blocks into one dense (m, p) matrix F, and takes
one QR of F (`_free_basis`), which refuses dependent columns.  Every matrix
of the psd blocks (X, Z, C, Z^{-1}, ...) is one flat vector of N = sum s^2
cells, the blocks ordered by side so that each run of equal sides is one
(k, s, s) stack, and their data one (row, cell, value) triple, block by
block: A(X), <A_k, G> and A^T y are one `np.bincount` each (in the order of
scipy's CSR and CSC sums), every sum and the symmetrization (a gather
through the transpose permutation) act on whole vectors, and each Z^{-1} V W
is one stacked product per run, as are Z^{-1}, the factors and their
inverses, and each step's whitening and eigensolve.  The Schur terms run
per block on views of the flat vectors; X and Z are sliced back into declared block order once,
at the end.  Every sum over blocks takes the psd blocks
first, by side, then the nonneg part, then the free part.  A block's Schur
terms fill only M[lo:hi, lo:hi], over its row span, the rows [lo, hi) from
the first to the last one that touch it.  A block whose dense span copy
would hold at most `_SCHUR_CHUNK` floats gets that copy, and `_schur_psd`
forms its terms by stacked products and one GEMM; a larger block keeps its
span data as CSR, and `_schur_psd_nonzeros` forms them from its nonzeros, in
agreement with the dense path to rounding.  The working set lives only as
long as the solve; each iteration frees the last Schur systems and their
factors before it forms the next.

This module holds the program and its solver only; `problemfile` reads
programs from ``kind: sdp`` text.
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


def _cholesky(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factors of the (..., s, s) stack S, upper triangles zero, and the mask of
    those that do not factor, which the gufunc behind `np.linalg.cholesky` fills with NaN, raising
    the flag that wrapper raises on.  Each matrix takes its own LAPACK call, as it does alone."""
    with np.errstate(invalid="ignore"):
        L = _umath_linalg.cholesky_lo(S)
    return L, np.isnan(L[..., 0, 0])


def _pivoted_cholesky(G: np.ndarray, k: int) -> tuple[np.ndarray, list[int]]:
    """(R, pivots): at most k steps of the diagonally pivoted Cholesky factorization of the
    symmetric positive semidefinite G by LAPACK dpstrf's rule, G ~= R R' with R of shape
    (n, len(pivots)) in G's row order and R[pivots] lower triangular.

    Each step pivots on the largest remaining diagonal entry, the first on ties; the loop stops
    before one not above n * 2^-53 (LAPACK's DLAMCH('E')) times G's largest diagonal entry, or not
    positive at the first step, or NaN.  As in dpstrf's unblocked loop, a remaining diagonal entry
    is G's less the running sum of its squares, and a column is scaled by its pivot's 1 / root.
    """
    n = len(G)
    diag = G.diagonal().copy()
    d, squares, sq = diag.copy(), np.zeros(n), np.empty(n)
    Lt = np.empty((min(k, n), n))  # row t holds column t of R
    pivots: list[int] = []
    stop = 0.0
    for t, col in enumerate(Lt):
        p = int(d.argmax())
        ajj = float(d[p])
        if not ajj > stop:
            break
        stop = stop or n * 2.0**-53 * ajj
        np.matmul(Lt[:t, p], Lt[:t], out=col)
        np.subtract(G[p], col, out=col)
        root = math.sqrt(ajj)
        col *= 1.0 / root
        col[p] = root
        squares += np.square(col, out=sq)
        diag[p] = -np.inf  # never a pivot again
        np.subtract(diag, squares, out=d)
        pivots.append(p)
    R = Lt[: len(pivots)].T.copy()
    R[pivots] = np.tril(R[pivots])  # above the diagonal: roundings of zero, at earlier pivots
    return R, pivots


_LEAF = 32  # side up to which `_tril_inverse` inverts a diagonal block by LU
_UPPER = [np.triu(np.ones((n, n), dtype=bool), 1) for n in range(_LEAF + 1)]  # strict upper triangles


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} of each lower-triangular matrix of the (..., n, n) stack L, upper triangle zero, by the
    recursion [[A, 0], [C, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} C A^{-1}, D^{-1}]] with A of side
    32 * 2^j < n, the largest, so that A's halves are of one side and recurse as one stack: the
    gufunc behind `np.linalg.inv` at sides up to `_LEAF`, two stacked products a level.  Each
    matrix takes its own calls, as it does alone; a NaN factor gives a NaN lower triangle."""
    n = L.shape[-1]
    if n <= _LEAF:
        W = _umath_linalg.inv(L)
        np.copyto(W, 0.0, where=_UPPER[n])  # LU's row swaps may leave roundings above the diagonal
        return W
    h = _LEAF << (((n - 1) // _LEAF).bit_length() - 1)
    W = np.zeros(L.shape)
    if 2 * h == n:
        halves = _tril_inverse(np.stack((L[..., :h, :h], L[..., h:, h:]), axis=-3))
        W[..., :h, :h], W[..., h:, h:] = halves[..., 0, :, :], halves[..., 1, :, :]
    else:
        W[..., :h, :h], W[..., h:, h:] = _tril_inverse(L[..., :h, :h]), _tril_inverse(L[..., h:, h:])
    C = W[..., h:, :h]
    np.matmul(W[..., h:, h:], np.matmul(L[..., h:, :h], W[..., :h, :h]), out=C)
    np.negative(C, out=C)
    return W


def _psd_steps(L: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Largest step t <= 1 keeping X + t D positive definite, for each (s, s) matrix of the stacks D
    and L = chol(X)^{-1}, lower triangular with a zero upper triangle: -1/min(w, -1), w the least
    eigenvalue of L D L' (Toh, Comput. Optim. Appl. 21, 2002).

    Two stacked products whiten D, and one call of the gufunc behind `np.linalg.eigvalsh` takes every
    matrix's eigenvalues by its own LAPACK call, so a stack gives each matrix the bits it gets alone.
    The gufunc is called without that wrapper's checks, which cost more than the call on a batch of
    one: a D with a NaN gives a NaN step, which the `min` of `_Layout.steps` passes over.
    """
    w = _umath_linalg.eigvalsh_lo(np.matmul(np.matmul(L, D), L.swapaxes(-1, -2)))[..., 0]
    return -1.0 / np.minimum(w, -1.0)


def _unfactored_step(X: np.ndarray, D: np.ndarray) -> float:
    """The step from an X that does not factor, a rounding outside the cone: 1.0 if X + D factors, else 0.0."""
    return 0.0 if _cholesky(X + D)[1] else 1.0


def _column(values: list[float]):
    """One value per row of a batch as a (B, 1) column; for a batch of one, its float, which numpy
    applies without broadcasting."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _dots(U: np.ndarray, V: np.ndarray) -> list[float]:
    """The dot product of each row of U and V, as floats; that of empty rows is 0.0, as from BLAS."""
    return np.vecdot(U, V).tolist() if U.shape[-1] else [0.0] * len(U)


def _max_steps_nonneg(x: np.ndarray, d: np.ndarray) -> list[float]:
    """Largest step t <= 1 keeping each row of x + t d nonnegative, for (B, n) x and d."""
    if not x.shape[-1]:
        return [1.0] * len(x)
    ratio = np.divide(-x, d, out=np.full(x.shape, np.inf), where=d < 0)
    return [min(1.0, r) for r in ratio.min(axis=-1).tolist()]


@dataclass
class _Point:
    """Iterates, or search directions, of a batch of right-hand sides: X and Z of every psd block
    as flat vectors over the layout's cells (see `_Layout`), the stacked nonneg part xl and its
    dual slack zl, the free entries xf and the multipliers y, each with a leading batch axis, and
    ``ids``, the index of each row's right-hand side among the layout's."""

    X: np.ndarray
    Z: np.ndarray
    xl: np.ndarray
    zl: np.ndarray
    xf: np.ndarray
    y: np.ndarray
    ids: np.ndarray


class _Residuals(namedtuple("_Residuals", "rp Rd rl rf gap pobj dobj pres dres")):
    """A batch's residuals (primal; dual on psd cells, nonneg and free), each with a leading batch
    axis, and <X, Z>, the objectives and the relative norms, a sequence of floats each."""

    __slots__ = ()


def _rows(batch, keep: list[int]):
    """The rows ``keep`` of a `_Point` or of `_Residuals`: of each field, an array with a leading batch
    axis or a sequence of one float per row."""
    fields = vars(batch).values() if isinstance(batch, _Point) else batch
    return type(batch)(*(v[keep] if isinstance(v, np.ndarray) else [v[i] for i in keep] for v in fields))


class _Whitening(namedtuple("_Whitening", "runs unfactored")):
    """The inverse Cholesky factors of a batch's psd iterates, for its step lengths: ``runs`` holds,
    for each run of equal sides, the (B, 2, k, s, s) stack of L^{-1} of each row's X = L L' (index 0)
    and Z (index 1), upper triangles zero, and ``unfactored`` lists, for each row, the positions in
    ``psd`` of the blocks whose X does not factor, whose L^{-1} is zero."""

    __slots__ = ()


def _row_spans(prog: ConicProgram, psd: list[int]) -> dict[int, tuple[int, int]]:
    """[first, last + 1) of the (sorted) constraint rows that touch each psd block bi; (0, 0) without rows."""
    return {bi: (int(r[0]), int(r[-1]) + 1) if (r := prog.A[bi].rows).size else (0, 0) for bi in psd}


class _Factorization:
    """The Newton systems [[M, F], [F', 0]] [dy, dxf] = [h, rf] of a batch, factored on the null
    space of F'.

    With F = [Q1 Q2] [R; 0] and T = Q1 R^{-T} from `_free_basis`, F'T = I and
    F'Q2 = 0, so the dy with F'dy = rf are T rf + Q2 z, and the first block
    row projected by Q2' leaves K z = Q2'(h - M T rf) with K = Q2' M Q2, of side
    m - p, the only matrix factored.  K is positive definite when M is on the
    null space of F', also where M itself is singular on the range of F.  Then
    dxf = T'(h - M dy).  Without free entries (T is None) K is M itself; with
    p = m, dy = T rf and nothing is factored.  ``M`` is the (B, m, m) stack of
    the batch's Schur complements; one `_cholesky` factors their K, each kept
    as W = L^{-1}, so that a solve with K is W'(W r).  ``failed`` lists the
    rows of ``skip`` and those whose K is not numerically positive definite,
    whose W is zero, so that their solves stay finite.
    """

    def __init__(self, M: np.ndarray, T: Optional[np.ndarray], Q2: Optional[np.ndarray],
                 skip: set = frozenset()):
        self.M, self.T, self.Q2 = M, T, Q2
        self.W = K = M if T is None else np.matmul(Q2.T, np.matmul(M, Q2))
        if K.shape[-1]:  # the solve loop checks finiteness first, so K needs no scan
            L, failed = _cholesky(K)
            self.W, skip = _tril_inverse(L), skip.union(np.flatnonzero(failed).tolist())
            if failed.any():
                self.W[failed] = 0.0
        self.failed = sorted(skip)

    def _k_solve(self, r: np.ndarray) -> np.ndarray:
        """K^{-1} r for each row of r."""
        return np.matvec(self.W.swapaxes(-1, -2), np.matvec(self.W, r))

    def solve(self, h: np.ndarray, rf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve [[M, F], [F', 0]] [dy, dxf] = [h, rf] for each row of (B, m) h and (B, p) rf."""
        if self.T is None:
            return self._k_solve(h), np.zeros((len(h), 0))
        dy = np.matvec(self.T, rf)
        if self.Q2.shape[1]:
            dy += np.matvec(self.Q2, self._k_solve(np.matvec(self.Q2.T, h - np.matvec(self.M, dy))))
        return dy, np.matvec(self.T.T, h - np.matvec(self.M, dy))


class _Newton(namedtuple("_Newton", "Zinv ZRX fact whitening")):
    """What `_Layout.schur` forms at a batch's iterate for its directions and steps, row for row:
    Z^{-1} and Z^{-1} Rd X as flat cell vectors, the factored Newton systems and the whitening."""

    __slots__ = ()


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
    T = np.matmul(Q[:, :p], _tril_inverse(R[:p].T))  # Q1 R^{-T}; R's diagonal has no zero
    return T, np.ascontiguousarray(Q[:, p:])


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
    """psd block bi's constraint data over the rows [lo, hi) of ``span`` as a (hi - lo, s^2) CSR array;
    scipy is imported here, for the blocks on the nonzero path only, whose solves amortize it."""
    import scipy.sparse
    (lo, hi), s, data = span, prog.blocks[bi].size, prog.A[bi]
    indptr = np.searchsorted(data.rows, np.arange(lo, hi + 1))
    return scipy.sparse.csr_array((data.vals, data.cols, indptr), shape=(hi - lo, s * s))


def _schur_psd(M: np.ndarray, A: np.ndarray, X: np.ndarray, Zinv: np.ndarray) -> None:
    """Add one psd block's Schur terms tr(A_k Z^{-1} A_l X) over its n rows to the (n, n) M.

    ``A`` is the dense (n, s, s) data of the rows of the block's span, and
    ``M`` the view of the Schur complement on those rows and columns.  Row k
    of the (n, s^2) products P is (Z^{-1} A_k X)^T, flattened, from two
    stacked products, and M += A P^T is one GEMM.  X, Z^{-1} and M carry
    the leading batch axis, and each system takes the products of its own
    shapes.
    """
    n, s, _ = A.shape
    P = np.matmul(Zinv[:, None], np.matmul(A, X[:, None])).transpose(0, 1, 3, 2).reshape(len(X), n, s * s)
    M += np.matmul(A.reshape(n, s * s), P.transpose(0, 2, 1))


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
    """A program split by cone kind once, with the right-hand sides it is solved for, its working
    buffers and ``stats`` (see "Storage" above).  ``psd`` lists the psd blocks by side, in
    declared order within a side; ``cuts`` holds each one's (side, offset) in the flat cell
    vectors of length ``N``, ``runs`` the (side, start, stop) of each run of equal sides,
    ``stacks`` the (slice, shape) of the stacked views of each run, ``slices`` the (slice, side)
    of each block and ``tperm`` the gather that transposes every block.
    ``b`` holds the right-hand sides, one row each, and ``group`` the most of them one batch
    solves (see `solve_batch`).  ``data[B]`` holds the (rows, cols, vals) of the nonzeros of all psd blocks
    over the flat cells, block by block, once for each row k of a batch of B, at row offset k m
    and cell offset k N, for `apply` and `adjoint`.  The Schur terms read ``dense``, the
    (hi - lo, s, s) span copies of the blocks on the dense path, and ``csr``, the (hi - lo, s^2)
    CSR span data of the others.  The other methods are the phases of one iteration of a
    batch: the `_Newton` that `schur` returns goes to the two `direction`s and, by its
    ``whitening`` of the batch's X and Z, to the two `steps` of the iteration."""

    def __init__(self, prog: ConicProgram, b: Optional[np.ndarray] = None):
        built = perf_counter()
        self.prog = prog
        m = self.m = prog.m
        self.b = prog.b[None] if b is None else b
        self.group = min(len(self.b), max(1, _SCHUR_CHUNK // m ** 2))
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
        self.slices = [(slice(o, o + s * s), s) for s, o in self.cuts]
        self.tperm = np.arange(self.N)
        for s, lo, hi in self.runs:
            self.tperm[lo:hi] = self.tperm[lo:hi].reshape(-1, s, s).transpose(0, 2, 1).ravel()
        self.ident = np.concatenate([np.zeros(0), *(np.eye(s).ravel() for s, _ in self.cuts)])
        # the costs of the psd cells, the nonneg and the free entries are (1, .) rows, of the shape a
        # batch of one has, so that such a batch takes them without broadcasting
        self.c = np.concatenate([np.zeros(0), *(prog.C[bi].ravel() for bi in self.psd)])[None]
        # each block's nonzeros, sorted by (row, cell), at its cell offset: every row's cells and
        # every cell's rows come in ascending order, the orders in which scipy's CSR and CSC sum
        data = [prog.A[bi] for bi in self.psd]
        rows = np.concatenate([np.zeros(0, np.intp), *(d.rows for d in data)])
        cols = np.concatenate([np.zeros(0, np.intp), *(d.cols + o for d, (_, o) in zip(data, self.cuts))])
        vals = np.concatenate([np.zeros(0), *(d.vals for d in data)])
        width = len(vals)
        rows = np.concatenate([rows + m * k for k in range(self.group)])
        cols = np.concatenate([cols + self.N * k for k in range(self.group)])
        vals = np.concatenate([vals] * self.group)
        self.data = [(rows[:B * width], cols[:B * width], vals[:B * width]) for B in range(self.group + 1)]
        self.span = _row_spans(prog, psd)
        # a block whose dense span copy would exceed one chunk keeps, in place of that copy, its data
        # over the span as CSR
        self.csr = {bi: _span_csr(prog, bi, (lo, hi)) for bi, (lo, hi) in self.span.items()
                    if (hi - lo) * side[bi] ** 2 > _SCHUR_CHUNK}
        self.dense = {bi: _stacked_data(prog, [bi], self.span[bi]).reshape(-1, side[bi], side[bi])
                      for bi in psd if bi not in self.csr}
        # Al (m, n_l), cl (1, n_l) of the nonneg blocks and F (m, p), c_f (1, p) of the zero blocks
        self.Al, self.F = _stacked_data(prog, self.nonneg), _stacked_data(prog, self.free)
        self.cl, self.c_f = (np.concatenate([np.zeros(0), *(prog.C[bi] for bi in bis)])[None]
                             for bis in (self.nonneg, self.free))
        # T and Q2 of the null-space Newton step (see `_Factorization`), from one QR of F
        start = perf_counter()
        self.T = self.Q2 = None
        if self.F.shape[1]:
            self.T, self.Q2 = _free_basis(self.F, [(bi, prog.blocks[bi].size) for bi in self.free])
        qr_seconds = perf_counter() - start
        n_l, p = self.cl.shape[1], self.c_f.shape[1]
        self.nu = sum(prog.blocks[bi].size for bi in psd) + n_l
        c_max = [float(np.max(np.abs(C), initial=0.0)) for C in prog.C]
        b_max = np.abs(self.b).max(axis=1, initial=0.0).tolist()
        self.scale = np.array([max(1.0, row_max, *c_max) for row_max in b_max])
        self.bnorm = 1.0 + np.sqrt(np.vecdot(self.b, self.b))  # 1 + np.linalg.norm of each row, to the bit
        self.cnorm = 1.0 + float(np.sqrt(sum(np.sum(C ** 2) for C in prog.C)))
        # the psd row spans, nonzeros and blocks on the nonzero path, and the multiply-adds of one
        # Schur formation, nnz (s^2 + hi - lo) on that path and (hi - lo)^2 s^2 on the dense one;
        # the Cholesky factorizations of the Schur system of each right-hand side; the free columns
        # p and the side m - p of the matrix each iteration factors; the wall seconds of this build
        # and of each phase, which each step adds itself, the QR of F counted as factoring, not as
        # the build.  `solve_batch` restarts the phase seconds for each batch, from ``built``
        self.built = {"layout": 0.0, "residuals": 0.0, "schur": 0.0, "factor": qr_seconds, "direction": 0.0,
                      "step": 0.0}
        nnz = {bi: len(prog.A[bi].vals) for bi in psd}
        madds = sum(nnz[bi] * (side[bi] ** 2 + hi - lo) if bi in self.csr else (hi - lo) ** 2 * side[bi] ** 2
                    for bi, (lo, hi) in self.span.items())
        self.stats = {"row_spans": self.span, "nonzeros": nnz, "sparse_schur": sorted(self.csr),
                      "schur_madds": madds, "factorizations": [0] * len(self.b), "free_columns": p,
                      "factored_side": m - p}
        self.built["layout"] = perf_counter() - built - qr_seconds
        self.stats["seconds"] = dict(self.built)

    def blocks(self, V: np.ndarray) -> list[np.ndarray]:
        """The views of the psd blocks of flat cell vectors V, (..., N), in the order of ``psd``: (..., s, s) each."""
        return [V[..., cells].reshape(*V.shape[:-1], s, s) for cells, s in self.slices]

    def apply(self, V: np.ndarray) -> np.ndarray:
        """A(V) = (<A_k, V>)_k over every psd block of each row of (B, N) V, flat cell vectors."""
        B = len(V)
        rows, cols, vals = self.data[B]
        return np.bincount(rows, vals * V.ravel()[cols], minlength=B * self.m).reshape(B, self.m)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T y = sum_k y_k A_k over every psd block, as a flat cell vector, for each row of (B, m) y."""
        B = len(y)
        rows, cols, vals = self.data[B]
        return np.bincount(cols, vals * y.ravel()[rows], minlength=B * self.N).reshape(B, self.N)

    def sym(self, V: np.ndarray) -> np.ndarray:
        """Every psd block of flat cell vectors V symmetrized, (V + V^T) / 2."""
        return 0.5 * (V + V.take(self.tperm, axis=-1))

    def zinv_product(self, Zinv: np.ndarray, V: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Z^{-1} (V W) on every psd block of each row of (B, N) V, W and Z^{-1}, as flat cell vectors:
        one stacked product per run.  Blocks of one side are one run, of the whole vectors, without
        the slices and the copy into ``out``, which take half of a side-10 block's 8 us."""
        if len(self.stacks) == 1:
            (_, shape), = self.stacks
            return np.matmul(Zinv.reshape(shape), np.matmul(V.reshape(shape), W.reshape(shape))).reshape(V.shape)
        out = np.empty(V.shape)
        for cells, shape in self.stacks:
            Zs, Vs, Ws = (U[:, cells].reshape(shape) for U in (Zinv, V, W))
            out[:, cells] = np.matmul(Zs, np.matmul(Vs, Ws)).reshape(len(out), -1)
        return out

    def start(self, ids) -> _Point:
        """X = Z = scale * I, xl = zl = scale, xf = 0 and y = 0 for the right-hand sides ``ids``."""
        ids = np.asarray(ids, dtype=np.intp)
        s, B = self.scale[ids][:, None], len(ids)
        n_l, p = self.cl.shape[1], self.c_f.shape[1]
        return _Point(s * self.ident, s * self.ident, s * np.ones((B, n_l)), s * np.ones((B, n_l)),
                      np.zeros((B, p)), np.zeros((B, self.m)), ids)

    def primal_residual(self, rhs: np.ndarray, X: np.ndarray, xl: np.ndarray, xf: np.ndarray) -> np.ndarray:
        """rhs - A(X) - Al xl - F xf, of which an empty part subtracts nothing."""
        r = rhs - self.apply(X)
        if self.nonneg:
            r -= np.matvec(self.Al, xl)
        if self.free:
            r -= np.matvec(self.F, xf)
        return r

    def residuals(self, pt: _Point) -> _Residuals:
        start = perf_counter()
        b = self.b.take(pt.ids, axis=0)
        rp = self.primal_residual(b, pt.X, pt.xl, pt.xf)
        Rd = self.c - self.adjoint(pt.y) - pt.Z
        # an empty nonneg or free part has an empty residual
        rl = self.cl - np.matvec(self.Al.T, pt.y) - pt.zl if self.nonneg else pt.zl
        rf = self.c_f - np.matvec(self.F.T, pt.y) if self.free else pt.xf
        # the dot products of each row, as floats, summed and scaled row by row
        xz, xc, dobj, rr, dd = (np.vecdot(pt.X, pt.Z).tolist(), np.vecdot(pt.X, self.c).tolist(),
                                np.vecdot(b, pt.y).tolist(), np.vecdot(rp, rp).tolist(), np.vecdot(Rd, Rd).tolist())
        lz, lc, ll, fc, ff = (_dots(pt.xl, pt.zl), _dots(pt.xl, self.cl), _dots(rl, rl), _dots(pt.xf, self.c_f),
                              _dots(rf, rf))
        gap, pobj, pres, dres = zip(*[
            (xz_k + lz_k, xc_k + lc_k + fc_k, math.sqrt(rr_k) / bnorm, math.sqrt(dd_k + ll_k + ff_k) / self.cnorm)
            for xz_k, lz_k, xc_k, lc_k, fc_k, rr_k, dd_k, ll_k, ff_k, bnorm in
            zip(xz, lz, xc, lc, fc, rr, dd, ll, ff, self.bnorm[pt.ids].tolist())])
        self.stats["seconds"]["residuals"] += perf_counter() - start
        return _Residuals(rp, Rd, rl, rf, gap, pobj, dobj, pres, dres)

    def schur(self, pt: _Point, res: _Residuals) -> _Newton:
        """The `_Newton` of each row of the batch: Z^{-1} and Z^{-1} Rd X as flat cell vectors, the
        factored Schur complements M_kl = sum_blocks tr(A_k Z^{-1} A_l X) plus the nonneg terms, and
        the inverse factors of X and Z that this iteration's steps take.

        Each run of equal sides' X and Z, stacked (B, 2, k, s, s), take one `_cholesky` and one
        `_tril_inverse`, and Z^{-1} = W'W, W = L^{-1} of Z.  A row whose Z or K does not factor is
        listed in the factorization's ``failed``; a factor that does not exist has a zero inverse,
        and its Z a zero Z^{-1}, so that the row's other terms stay finite."""
        start = perf_counter()
        B = len(pt.X)
        M = np.zeros((B, self.m, self.m))
        Zinv = np.empty(pt.Z.shape)
        Ws, singular, unfactored = [], set(), [[] for _ in range(B)]
        for s, lo, hi in self.runs:
            XZ = np.concatenate((pt.X[:, None, lo:hi], pt.Z[:, None, lo:hi]), axis=1)
            L, failed = _cholesky(XZ.reshape(B, 2, -1, s, s))
            W = _tril_inverse(L)
            if failed.any():
                W[failed] = 0.0
                singular.update(np.flatnonzero(failed[:, 1].any(axis=1)).tolist())
                for i, q in np.argwhere(failed[:, 0]).tolist():  # q: the position in the run
                    unfactored[i].append(self.cuts.index((s, lo)) + q)
            Zinv[:, lo:hi] = np.matmul(W[:, 1].swapaxes(-1, -2), W[:, 1]).reshape(B, -1)
            Ws.append(W)
        whitening = _Whitening(Ws, unfactored)
        for bi, X, Zi in zip(self.psd, self.blocks(pt.X), self.blocks(Zinv)):
            lo, hi = self.span[bi]
            if bi in self.csr:
                for Mk, Xk, Zik in zip(M, X, Zi):
                    _schur_psd_nonzeros(Mk[lo:hi, lo:hi], self.csr[bi], Xk, Zik)
            else:
                _schur_psd(M[:, lo:hi, lo:hi], self.dense[bi], X, Zi)
        ZRX = self.zinv_product(Zinv, res.Rd, pt.X)  # a term of both directions
        if self.cl.size:  # M holds no -0.0, so adding the zero term of no nonneg entries keeps its bits
            M += np.matmul(self.Al * (pt.xl / pt.zl)[:, None, :], self.Al.T)
        M += M.swapaxes(1, 2)
        M *= 0.5
        formed = perf_counter()
        fact = _Factorization(M, self.T, self.Q2, singular)
        if self.stats["factored_side"]:
            for i, k in enumerate(pt.ids.tolist()):
                self.stats["factorizations"][k] += i not in singular
        self.stats["seconds"]["schur"] += formed - start
        self.stats["seconds"]["factor"] += perf_counter() - formed
        return _Newton(Zinv, ZRX, fact, whitening)

    def direction(self, pt: _Point, res: _Residuals, newton: _Newton, pred: Optional[_Point] = None,
                  steps: Optional[tuple[list, list]] = None) -> _Point:
        """The predictor directions from `schur`'s ``newton``; given the predictors ``pred`` and
        their ``steps``, the correctors: toward Mehrotra's sigma mu, with the second-order term dZ dX.

        One refinement pass follows the first solve.  Its right-hand side is what the step leaves of
        the primal equation A(dX) + Al dxl + F dxf = rp, of which dX's rounding, growing with
        ||Z^{-1}|| ~ 1/mu, takes the largest share, and of the free one F'dy = rf; its increments
        are added to every part of the step."""
        start = perf_counter()
        Zinv, ZRX, fact, _ = newton
        X, xl, zl = pt.X, pt.xl, pt.zl
        sigma_mu = 0.0
        if pred is not None:  # sigma is the cube of the ratio of <X, Z> after the predictor step
            ap, ad = map(_column, steps)
            aff_l = _dots(xl + ap * pred.xl, zl + ad * pred.zl) if self.nonneg else _dots(xl, zl)
            sigma_mu = _column([(min(1.0, max(1e-8, ((a + b) / gap) ** 3)) if gap > 0 else 0.1) * (gap / self.nu)
                                for a, b, gap in zip(_dots(X + ap * pred.X, pt.Z + ad * pred.Z), aff_l, res.gap)])
        G = sigma_mu * Zinv - X - ZRX
        if pred is not None:
            G -= self.zinv_product(Zinv, pred.Z, pred.X)
        h = res.rp - self.apply(G)
        gl = xl  # the nonneg part, empty without nonneg entries
        if self.nonneg:
            gl = sigma_mu / zl - xl - res.rl * xl / zl
            if pred is not None:
                gl -= pred.zl * pred.xl / zl
            h -= np.matvec(self.Al, gl)

        def lifted(v, GX, R, gx, r):
            """The step of multipliers v, from the primal parts GX, gx and the dual parts R, r."""
            Aty = self.adjoint(v)
            dX, dZ = self.sym(GX + self.zinv_product(Zinv, Aty, X)), R - Aty
            if not self.nonneg:
                return dX, dZ, gx, r
            aty = np.matvec(self.Al.T, v)
            return dX, dZ, gx + aty * xl / zl, r - aty

        dy, dxf = fact.solve(h, res.rf)
        dX, dZ, dxl, dzl = lifted(dy, G, res.Rd, gl, res.rl)
        rf = res.rf - np.matvec(self.F.T, dy) if self.free else res.rf
        ey, exf = fact.solve(self.primal_residual(res.rp, dX, dxl, dxf), rf)
        dX, dZ, dxl, dzl = lifted(ey, dX, dZ, dxl, dzl)
        self.stats["seconds"]["direction"] += perf_counter() - start
        return _Point(dX, dZ, dxl, dzl, dxf + exf if self.free else dxf, dy + ey, pt.ids)

    def steps(self, pt: _Point, d: _Point, whitening: _Whitening) -> tuple[list[float], list[float]]:
        """Primal and dual steps of each row: the largest t <= 1 keeping X + t dX, resp. Z + t dZ, in
        the cone, the least of the stacked nonneg part's ratio and every psd block's step.

        Each run of equal sides stacks its dX and dZ as its ``whitening`` factors are stacked and
        takes their steps by one `_psd_steps`; a block whose X does not factor takes
        `_unfactored_step`."""
        start = perf_counter()
        psd = np.ones((len(pt.X), 2))
        for (cells, _), L in zip(self.stacks, whitening.runs):
            D = np.concatenate((d.X[:, None, cells], d.Z[:, None, cells]), axis=1).reshape(L.shape)
            psd = np.minimum(psd, _psd_steps(L, D).min(axis=-1))
        ap, ad = psd.T.tolist()
        for i, js in enumerate(whitening.unfactored):
            for j in js:
                ap[i] = min(ap[i], _unfactored_step(self.blocks(pt.X[i])[j], self.blocks(d.X[i])[j]))
        ap, ad = ([min(nonneg, step) for nonneg, step in zip(_max_steps_nonneg(v, dv), steps)]
                  for steps, v, dv in ((ap, pt.xl, d.xl), (ad, pt.zl, d.zl)))
        self.stats["seconds"]["step"] += perf_counter() - start
        return ap, ad

    def moved(self, pt: _Point, d: _Point, ap, ad) -> _Point:
        """The points the primal steps ap and the dual steps ad along d reach, each a (B, 1) column
        of one step per row (see `_column`) or one float for all, each psd block symmetrized."""
        xl, zl, xf = ((pt.xl + ap * d.xl, pt.zl + ad * d.zl) if self.nonneg else (pt.xl, pt.zl)) + (
            (pt.xf + ap * d.xf,) if self.free else (pt.xf,))
        return _Point(self.sym(pt.X + ap * d.X), self.sym(pt.Z + ad * d.Z), xl, zl, xf, pt.y + ad * d.y, pt.ids)

    def solution(self, pt: _Point, res: _Residuals, i: int, status: Status, trace: list[dict]) -> SDPSolution:
        """Row i of the batch ``pt`` and of its residuals as the solution of its right-hand side, the
        flat and stacked parts sliced back into their blocks, in declared order, and copied, after
        as many iterations as ``trace`` holds records past the start's."""
        out = dict(zip(self.psd, zip(self.blocks(pt.X[i]), self.blocks(pt.Z[i]))))
        for bis, x, z in ((self.nonneg, pt.xl[i], pt.zl[i]), (self.free, pt.xf[i], np.zeros(pt.xf.shape[1]))):
            cuts = np.cumsum([self.prog.blocks[bi].size for bi in bis[:-1]], dtype=int)
            out.update(zip(bis, zip(np.split(x, cuts), np.split(z, cuts))))
        blocks = range(len(self.prog.blocks))
        return SDPSolution(
            status=status,
            X=[out[bi][0].copy() for bi in blocks],
            y=pt.y[i].copy(),
            Z=[out[bi][1].copy() for bi in blocks],
            primal_obj=res.pobj[i],
            dual_obj=res.dobj[i],
            gap=res.gap[i],
            primal_residual=res.pres[i],
            dual_residual=res.dres[i],
            iterations=len(trace) - 1,
            mu_final=res.gap[i] / self.nu,
            blocks=list(self.prog.blocks),
            trace=trace,
            stats={**self.stats, "factorizations": self.stats["factorizations"][int(pt.ids[i])]},
        )


def solve(prog: ConicProgram, options: SolveOptions | None = None) -> SDPSolution:
    """Run the interior-point iteration on a conic program: `solve_batch` of its own b alone.

    The blocks are split by kind once, on entry (see "Storage" above); X and Z
    return in declared block order, with Z = 0 on the zero blocks.  The
    returned point is the last iterate, except after a non-finite one: then
    it is the iterate before, with its residuals, under the status
    ``numerical_failure``, and ``iterations`` and the trace still count the
    non-finite one.  A failed factorization also ends the solve as
    ``numerical_failure``, on the iterate it was formed at.
    """
    return solve_batch(prog, [prog.b], options)[0]


def solve_batch(prog: ConicProgram, objectives, options: SolveOptions | None = None) -> list[SDPSolution]:
    """`solve` of ``prog`` with each right-hand side b of ``objectives`` in place of its own, in order.

    The layout, the QR of F and the data copies are built once for all of
    them.  The right-hand sides are solved in batches of as many as
    (m, m) Schur complements fit `_SCHUR_CHUNK` floats, at least one: a
    batch runs one iteration loop whose every phase takes all its rows at
    once, each row with its own scale, stop tests, statuses, steps, trace
    and count of factorizations, and leaves the batch when it stops.  A Z
    or K that does not factor ends only its own row.  Each row's iterates
    carry the bits a `solve` of that b alone gives.  The phase seconds in
    ``stats`` are those of the batch, shared by its solutions, each with the
    layout's build.
    """
    opt = options or SolveOptions()
    if not len(objectives):
        return []
    b = np.array(objectives, dtype=float)
    if b.shape != (len(b), prog.m):
        raise ValueError(f"each right-hand side must have the program's {prog.m} entries")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    lay = _Layout(prog, b)
    sols: list[SDPSolution] = []
    for first in range(0, len(b), lay.group):
        lay.stats["seconds"] = dict(lay.built)  # the batch's, which its solutions share
        pt = lay.start(np.arange(first, min(len(b), first + lay.group)))
        traces: dict[int, list[dict]] = {k: [] for k in pt.ids.tolist()}
        last_steps = dict.fromkeys(traces, (0.0, 0.0))
        ends: dict[int, SDPSolution] = {}
        moved_from = None  # the last batch moved and its residuals: each row's last finite iterate
        halted: dict[int, Status] = {}  # the rows of that batch that end on it, with their status
        for it in range(opt.max_iter + 1):
            res = lay.residuals(pt)
            ended = {}  # the rows that end here, each with its status, iterate and residuals
            for i, (k, gap, pobj, dobj, pres, dres) in enumerate(zip(pt.ids.tolist(), *res[4:])):
                if i in halted:
                    ended[i] = (halted[i], *moved_from)
                    continue
                mu = gap / lay.nu
                last = last_steps[k]
                traces[k].append({"iter": it, "mu": mu, "gap": gap, "pobj": pobj, "dobj": dobj, "pres": pres,
                                  "dres": dres, "step_p": last[0], "step_d": last[1]})
                _log.debug("b %d it %3d  mu %9.2e  gap %10.3e  pres %8.2e  dres %8.2e",
                           k, it, mu, pobj - dobj, pres, dres)
                if not (math.isfinite(mu) and math.isfinite(pobj) and math.isfinite(dobj)):
                    ended[i] = ("numerical_failure", *(moved_from or (pt, res)))  # the start is finite
                elif abs(pobj - dobj) <= opt.gap_tol * (1.0 + abs(dobj)) and pres <= opt.feas_tol \
                        and dres <= opt.feas_tol:
                    ended[i] = ("optimal", pt, res)
                # out of iterations, or at the floating-point floor of the barrier, where there is
                # nothing left to gain: stop with the current iterate rather than breaking the Newton
                # system (max_iter flags that the requested tolerances were not met)
                elif it == opt.max_iter or mu < 1e-16 * (1.0 + abs(dobj)):
                    ended[i] = ("max_iter", pt, res)
            for i, (status, at, at_res) in ended.items():
                k = int(at.ids[i])
                ends[k] = lay.solution(at, at_res, i, status, traces[k])
            if len(ended) == len(pt.ids):
                break
            if ended:
                keep = [i for i in range(len(pt.ids)) if i not in ended]
                pt, res = _rows(pt, keep), _rows(res, keep)

            newton = None  # the last systems and their factors are freed before the next are formed
            newton = lay.schur(pt, res)
            pred = lay.direction(pt, res, newton)
            d = lay.direction(pt, res, newton, pred, lay.steps(pt, pred, newton.whitening))
            steps = [(min(1.0, _STEP_FRACTION * ap), min(1.0, _STEP_FRACTION * ad))
                     for ap, ad in zip(*lay.steps(pt, d, newton.whitening))]
            # a row whose steps collapse can make no further progress, and one whose Z or K does not
            # factor steps along no Newton direction: each ends on this iterate, when the next is checked
            halted = {i: "max_iter" for i, step in enumerate(steps) if max(step) < 1e-10}
            halted.update(dict.fromkeys(newton.fact.failed, "numerical_failure"))
            last_steps.update(zip(pt.ids.tolist(), steps))
            moved_from = (pt, res)
            pt = lay.moved(pt, d, *map(_column, zip(*steps)))
        sols += [ends[k] for k in traces]
    return sols
