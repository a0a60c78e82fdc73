"""Truncated moment vectors and matrix stencils.

A moment vector holds the values y_alpha for all exponents alpha up to a
degree bound, laid out in grlex order.  A stencil describes, symbolically,
which linear combination of moments occupies each cell of a moment matrix
(entry (i,j) reads y_{e_i+e_j}) or of a localizing matrix (entry (i,j) reads
sum_gamma q_gamma y_{e_i+e_j+gamma} for a fixed polynomial q).  It is held as
integer arrays: each cell's (i, j) and, per term of q, the term index and the
grlex rank of e_i + e_j + gamma, all computed by one broadcast over the row
exponents.  The relaxation assembler reads these arrays to place solver
coefficients, converting each exact coefficient of q once, and
`evaluate_stencil` reads them to reconstruct matrices from solved moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .polynomials import (
    Coeff,
    Exponent,
    Polynomial,
    exponent_array,
    exponents_up_to,
    grlex_exponent,
    grlex_index,
    grlex_ranks,
    monomial_count,
)


class MissingMomentError(KeyError):
    """A required moment lies beyond the truncation degree."""

    def __init__(self, exponent: Exponent, degree: int):
        super().__init__(f"moment y_{exponent} is not available at truncation degree {degree}")
        self.exponent = exponent


@dataclass
class MomentVector:
    """Moments (y_alpha), |alpha| <= degree, indexed by grlex rank."""

    nvars: int
    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = monomial_count(self.nvars, self.degree)
        self.values = np.asarray(self.values)
        if self.values.shape != (expected,):
            raise ValueError(
                f"moment vector needs {expected} entries for nvars={self.nvars}, "
                f"degree={self.degree}; got shape {self.values.shape}"
            )

    @property
    def mass(self):
        return self.values[0]

    def value(self, exponent: Exponent):
        exponent = tuple(exponent)
        if sum(exponent) > self.degree:
            raise MissingMomentError(exponent, self.degree)
        return self.values[grlex_index(exponent)]

    def exponents(self) -> list[Exponent]:
        return exponents_up_to(self.nvars, self.degree)

    @staticmethod
    def from_atoms(
        points: Sequence[Sequence[Union[int, float, Fraction]]],
        weights: Sequence[Union[int, float, Fraction]],
        degree: int,
    ) -> "MomentVector":
        """Moments of the atomic measure sum_i weights[i] * delta_{points[i]}."""
        if len(points) != len(weights):
            raise ValueError("need one weight per point")
        if len(points) == 0:
            raise ValueError("need at least one atom")
        nvars = len(points[0])
        exps = exponents_up_to(nvars, degree)
        pts = np.asarray(points, dtype=float)
        ws = np.asarray(weights, dtype=float)
        vals = np.empty(len(exps))
        for k, e in enumerate(exps):
            vals[k] = float(np.sum(ws * np.prod(pts ** np.asarray(e, dtype=float), axis=1)))
        return MomentVector(nvars, degree, vals)


@dataclass(eq=False)
class MatrixStencil:
    """Symbolic symmetric matrix whose cells are linear functionals of y.

    Cell (i, j) of the order-d localizing matrix of q reads
    sum_gamma q_gamma y_{e_i+e_j+gamma}.  The cells i <= j, row-major, are
    ``(i[c], j[c])``; entry c * len(coeffs) + t is ``coeffs[term] * y[rank]``
    for the t-th term of q in grlex order, a monomial order, so the ranks
    ascend within a cell.  ``row_exponents`` index the rows and columns.
    """

    nvars: int
    order: int
    coeffs: list[Coeff]
    i: np.ndarray
    j: np.ndarray
    term: np.ndarray
    rank: np.ndarray
    row_exponents: list[Exponent]

    @property
    def side(self) -> int:
        return len(self.row_exponents)

    @property
    def cells(self) -> dict[tuple[int, int], list[tuple[Exponent, Coeff]]]:
        """Cell (i, j), i <= j, as its (exponent, coefficient) pairs."""
        exps = {k: grlex_exponent(self.nvars, k) for k in set(self.rank.tolist())}
        pairs = [(exps[k], self.coeffs[t]) for k, t in zip(self.rank.tolist(), self.term.tolist())]
        w = len(self.coeffs)
        return {ij: pairs[c * w : (c + 1) * w] for c, ij in enumerate(zip(self.i.tolist(), self.j.tolist()))}

    def cell(self, i: int, j: int) -> list[tuple[Exponent, Coeff]]:
        return self.cells[(min(i, j), max(i, j))]


def _stencil(nvars: int, order: int, terms: list[tuple[Exponent, Coeff]]) -> MatrixStencil:
    # every cell i <= j and term gamma at once: the rank of R[i] + R[j] + gamma
    R = exponent_array(nvars, order)
    i, j = np.triu_indices(len(R))
    gammas = np.array([e for e, _ in terms], dtype=np.int64).reshape(len(terms), nvars)
    rank = grlex_ranks((R[i] + R[j])[:, None, :] + gammas).ravel()
    term = np.tile(np.arange(len(terms)), len(i))
    return MatrixStencil(nvars, order, [c for _, c in terms], i, j, term, rank, list(map(tuple, R.tolist())))


def moment_matrix_stencil(nvars: int, order: int) -> MatrixStencil:
    """Stencil of the order-d moment matrix: cell (i,j) reads y_{e_i+e_j}."""
    return _stencil(nvars, order, [((0,) * nvars, Fraction(1))])


def localizing_matrix_stencil(q: Polynomial, order: int) -> MatrixStencil:
    """Stencil of the order-d localizing matrix of q.

    Cell (i,j) reads sum_gamma q_gamma y_{e_i+e_j+gamma}; with q = 1 this is
    exactly the moment matrix stencil.
    """
    return _stencil(q.nvars, order, sorted(q.terms.items(), key=lambda ec: grlex_index(ec[0])))


def evaluate_stencil(stencil: MatrixStencil, y: MomentVector) -> np.ndarray:
    """Numeric symmetric matrix of a stencil at a moment vector.

    Symmetry is structural: only the upper triangle is computed and the
    result is mirrored.
    """
    if stencil.nvars != y.nvars:
        raise ValueError("stencil and moment vector use different variable counts")
    beyond = np.flatnonzero(stencil.rank >= len(y.values))
    if beyond.size:
        raise MissingMomentError(grlex_exponent(y.nvars, int(stencil.rank[beyond[0]])), y.degree)
    values, w = np.asarray(y.values, dtype=float), len(stencil.coeffs)
    v = np.zeros(len(stencil.i))
    for t, c in enumerate(stencil.coeffs):
        v += float(c) * values[stencil.rank[t::w]]
    out = np.zeros((stencil.side, stencil.side))
    out[stencil.i, stencil.j] = v
    out[stencil.j, stencil.i] = v
    return out

