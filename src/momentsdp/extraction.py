"""Rank analysis of moment matrices, flatness certification, atom extraction.

Flatness (rank M_{r-r_X}(y) equal to rank M_r(y)) certifies that the
truncated moments come from an atomic measure, and the number of atoms is
that common rank.  Extraction then proceeds by pivoted Cholesky of the
moment matrix (`sdp._pivoted_cholesky`, LAPACK dpstrf's rule in numpy),
column-echelon reduction of the factor to identify a monomial basis of the
quotient, formation of single-variable shift matrices, and simultaneous
triangularization of the shifts in an orthonormal Schur basis of a random
convex combination of them (seeded, hence reproducible): the QR factor of
its eigenvectors, which must be real.  A Vandermonde-type least-squares fit
gives the weights.  A rebuilt-moment residual guards every answer: if the
extracted atoms fail to reproduce the input moments, extraction reports
failure rather than returning garbage.  No step imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .moments import MomentVector, evaluate_stencil, moment_matrix_stencil
from .polynomials import exponents_up_to, monomial_count
from .sdp import _pivoted_cholesky


class ExtractionError(RuntimeError):
    """Atom extraction could not reproduce the input moments."""


def numerical_rank(M: np.ndarray, tol: float = 1e-6) -> int:
    """Count of eigenvalues above tol * max(1, lambda_max)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("square matrix required")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    lam_max = float(w[-1])
    return int(np.sum(w > tol * max(1.0, lam_max)))


def moment_matrix(y: MomentVector, order: int) -> np.ndarray:
    return evaluate_stencil(moment_matrix_stencil(y.nvars, order), y)


def _column_echelon_basis(R: np.ndarray, tol: float) -> tuple[np.ndarray, list[int]]:
    """Reduce the factor so pivot rows form an identity.

    Scanning rows top-down (grlex-ascending monomials) picks the lowest
    monomials as the basis.  Returns (U, basis) with row j of U giving the
    coordinates of monomial j in the basis monomials.
    """
    n, k = R.shape
    A = R.T.copy()  # k x n; row-reduce
    basis: list[int] = []
    row = 0
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    for col in range(n):
        if row >= k:
            break
        p = row + int(np.argmax(np.abs(A[row:, col])))
        if abs(A[p, col]) <= tol * scale:
            continue
        A[[row, p]] = A[[p, row]]
        A[row] = A[row] / A[row, col]
        for rr in range(k):
            if rr != row:
                A[rr] -= A[rr, col] * A[row]
        basis.append(col)
        row += 1
    if row < k:
        raise ExtractionError("moment-matrix factor is rank deficient beyond tolerance")
    return A.T.copy(), basis  # n x k


def extract_atoms(
    y: MomentVector,
    r: int,
    tol: float = 1e-6,
    r_x: int = 1,
    seed: int = 0,
) -> list[tuple[np.ndarray, float]]:
    """Atoms (point, weight) of an atomic measure certified by flatness.

    A rank-one moment matrix gives its one atom directly; higher ranks go
    through the general extraction.  Raises `ExtractionError` when the
    rebuilt moments of the atomic candidate miss the input beyond
    ``1e-6 * (1 + max |y|)`` through degree 2 (r - r_x).
    """
    M = moment_matrix(y, r)
    return _atoms(y, M, numerical_rank(M, tol), r, tol, r_x, seed)


def _atoms(
    y: MomentVector, M: np.ndarray, rank: int, r: int, tol: float, r_x: int, seed: int
) -> list[tuple[np.ndarray, float]]:
    """`extract_atoms` given M = M_r(y) and its numerical rank."""
    n = y.nvars
    if rank == 0:
        raise ExtractionError("moment matrix is numerically zero")

    if rank == 1:
        mass = float(y.values[0])
        if mass <= 0:
            raise ExtractionError("nonpositive mass")
        point = np.array(
            [float(y.value(tuple(int(i == j) for j in range(n)))) for i in range(n)]
        )
        atoms = [(point / mass, mass)]
    else:
        atoms = _extract_general(y, M, rank, r, tol, seed)

    _check_rebuilt(y, atoms, r, r_x, tol=1e-6)
    return atoms


def _extract_general(
    y: MomentVector, M: np.ndarray, rank: int, r: int, tol: float, seed: int
) -> list[tuple[np.ndarray, float]]:
    n = y.nvars
    R, _ = _pivoted_cholesky(M, rank)
    rank = R.shape[1]
    if rank == 0:
        raise ExtractionError("pivoted Cholesky found no positive pivots")
    U, basis = _column_echelon_basis(R, tol)
    exps = exponents_up_to(n, r)
    index_of = {e: i for i, e in enumerate(exps)}

    shifts: list[np.ndarray] = []
    for i in range(n):
        N = np.zeros((rank, rank))
        for j, bidx in enumerate(basis):
            shifted = list(exps[bidx])
            shifted[i] += 1
            s = tuple(shifted)
            if sum(s) > r:
                raise ExtractionError(
                    "basis monomial shifted out of the truncation; flatness too weak to extract"
                )
            N[:, j] = U[index_of[s], :]
        shifts.append(N)

    rng = np.random.default_rng(seed)
    lam = rng.random(n) + 0.1
    lam /= lam.sum()
    combo = sum(l * N for l, N in zip(lam, shifts))
    Q = _schur_basis(combo)
    points = np.empty((rank, n))
    for j in range(rank):
        q = Q[:, j]
        for i in range(n):
            points[j, i] = float(q @ shifts[i] @ q)

    # weights from moment matching (Vandermonde least squares over all moments)
    all_exps = exponents_up_to(n, y.degree)
    V = np.empty((len(all_exps), rank))
    for a, e in enumerate(all_exps):
        V[a] = np.prod(points ** np.asarray(e, dtype=float), axis=1)
    w, *_ = np.linalg.lstsq(V, np.asarray(y.values, dtype=float), rcond=None)
    atoms = [(points[j].copy(), float(w[j])) for j in range(rank)]
    atoms.sort(key=lambda pw: tuple(pw[0]))
    return atoms


def _schur_basis(combo: np.ndarray) -> np.ndarray:
    """An orthonormal basis Q in which combo is upper triangular: with its eigenvectors V = QR,
    Q' combo Q = R diag(values) R^{-1}.  The eigenvalues must be real."""
    values, V = np.linalg.eig(combo)
    if np.iscomplexobj(values):
        raise ExtractionError(
            "the random combination of the shift matrices has complex eigenvalues: "
            "these moments give no real atoms at this rank"
        )
    return np.linalg.qr(V)[0]


def _check_rebuilt(
    y: MomentVector, atoms: Sequence[tuple[np.ndarray, float]], r: int, r_x: int, tol: float
) -> None:
    check_deg = max(0, 2 * (r - r_x))
    scale = 1.0 + float(np.abs(np.asarray(y.values, dtype=float)).max())
    rebuilt = MomentVector.from_atoms(
        [list(map(float, p)) for p, _ in atoms], [w for _, w in atoms], check_deg
    )
    count = monomial_count(y.nvars, check_deg)
    err = float(np.abs(rebuilt.values - np.asarray(y.values[:count], dtype=float)).max())
    if err > tol * scale:
        raise ExtractionError(
            f"extracted atoms miss the input moments by {err:.3e} "
            f"(allowed {tol * scale:.3e} through degree {check_deg})"
        )
    for _, w in atoms:
        if w < -tol * scale:
            raise ExtractionError(f"extracted negative weight {w:.3e}")


@dataclass
class Certificate:
    """Rank profile of a solved relaxation and the recovered atoms."""

    order: int
    ranks: list[int]  # rank M_s(y) for s = 0..order
    flat: bool
    atoms: list[tuple[np.ndarray, float]]
    residual: float  # max constraint violation of the atoms (0 when no atoms)
    rank_tol: float

    def lines(self) -> list[str]:
        out = [
            f"order = {self.order}",
            "ranks = " + " ".join(str(rk) for rk in self.ranks),
            f"flat = {str(self.flat).lower()}",
            f"rank_tol = {self.rank_tol:.12g}",
            f"residual = {self.residual:.12g}",
        ]
        for i, (p, w) in enumerate(self.atoms, start=1):
            coords = " ".join(f"{v:.12g}" for v in p)
            out.append(f"atom {i}: weight = {w:.12g} point = {coords}")
        return out


def certify(
    y: MomentVector,
    r: int,
    r_x: int,
    rank_tol: float = 1e-6,
    seed: int = 0,
    constraints: Optional[Sequence] = None,
) -> Certificate:
    """Rank profile, flatness flag, and atoms (when flat) of solved moments.

    `constraints` is an optional sequence of polynomials (inequalities
    understood as >= 0 and equalities as = 0 pairs ("ineq"/"eq", poly));
    the certificate residual is the worst violation over the atoms.
    """
    # M_s(y) is the leading block of M_r(y) on the monomials of degree <= s (grlex order)
    M = moment_matrix(y, r)
    counts = [monomial_count(y.nvars, s) for s in range(r + 1)]
    ranks = [numerical_rank(M[:c, :c], rank_tol) for c in counts]
    flat = ranks[max(0, r - r_x)] == ranks[r]
    atoms: list[tuple[np.ndarray, float]] = []
    residual = 0.0
    if flat:
        atoms = _atoms(y, M, ranks[r], r, rank_tol, r_x, seed)
        if constraints:
            worst = 0.0
            for kind, poly in constraints:
                for point, _ in atoms:
                    v = float(poly.evaluate([float(t) for t in point]))
                    worst = max(worst, -v if kind == "ineq" else abs(v))
            residual = worst
    return Certificate(
        order=r, ranks=ranks, flat=flat, atoms=atoms, residual=residual, rank_tol=rank_tol
    )
