"""Moment relaxations: one builder for polynomial and generalized moment problems.

`assemble` is the only relaxation builder.  It takes named measures with
semialgebraic supports, the order r, linear moment constraints and a linear
moment objective, and returns one conic program over the stacked truncated
moment vectors (grlex order, degree up to 2r per measure).  Each measure gets
one PSD block for its order-r moment matrix, one PSD block per inequality for
its localizing matrix of order r - ceil(deg/2), and one equality row per
product of an equality constraint with a monomial that fits the truncation.
Stencils and products are integer arrays of moment ranks, and each exact
coefficient becomes a float once per polynomial term.  The rows, explicit
moment constraints first, travel as CSR arrays (`SparseRows`); the prune
factors their Gram matrix by pivoted Cholesky, in numpy up to
`_NUMPY_PRUNE_ROWS` rows, by scipy's dpstrf above.  The
moments are the dual vector of the conic program, so the solver's dual
objective is the relaxation bound.

A polynomial minimization ``min p0(x) s.t. p_k(x) >= 0 / = 0`` is the
generalized moment problem of one probability measure: `build_relaxation`
assembles the measure "mu" with the mass row <1, mu> = 1 and the objective
<p0, mu>.  The objective is filled in a separate step
(`AssembledProgram.set_objective`), so problems that differ only in their
objective share one assembly.

`bound_and_moments`, the one entry that solves a POP, first eliminates its
linear equalities, one variable at a time, in exact arithmetic
(`eliminate_linear_equalities`): each pivots on its variable of largest
|coefficient|, whose affine form is substituted into the objective, the
inequalities (the ball included) and the other equalities.  The reduced POP,
in fewer variables, goes through `build_relaxation` and `sdp.solve` like any
other, and its moments are lifted back in floats, y_gamma = L'(pi^gamma)
with pi the affine map from the kept variables to all of them.  Both
relaxations have the same value in exact arithmetic: f - f(pi) is a sum of
products p h of linear equalities p with deg h <= deg f - 1, and every such
product is a combination of rows of the unreduced relaxation.  Where a
degree drops, the reduced relaxation is at least as tight.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from math import ceil
from operator import add
from time import perf_counter
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .moments import (
    MatrixStencil,
    MomentVector,
    localizing_matrix_stencil,
    moment_matrix_stencil,
)
from .polynomials import (
    Coeff,
    Exponent,
    Polynomial,
    VarSpace,
    exponent_array,
    exponents_up_to,
    grlex_index,
    grlex_ranks,
)
from .sdp import Block, BlockData, ConicProgram, SDPSolution, SolveOptions, _pivoted_cholesky, solve


def half_degree(p: Polynomial) -> int:
    """Smallest integer at or above half the total degree (0 for constants)."""
    return ceil(p.degree / 2)


def minimal_order(polys: Iterable[Polynomial]) -> int:
    """Least relaxation order r >= 1 whose moment degree 2r holds every polynomial."""
    return max([1] + [half_degree(p) for p in polys])


@dataclass
class SemialgebraicSet:
    """Basic closed set {x : inequalities >= 0, equalities = 0}.

    When `ball_radius` is set, the constraint R - sum x_i^2 >= 0 is appended
    at assembly time to certify compactness.
    """

    space: VarSpace
    inequalities: list[Polynomial] = field(default_factory=list)
    equalities: list[Polynomial] = field(default_factory=list)
    ball_radius: Optional[Fraction | float | int] = None

    def __post_init__(self) -> None:
        for p in list(self.inequalities) + list(self.equalities):
            if p.nvars != self.space.n:
                raise ValueError("constraint polynomial does not match the variable space")
        if self.ball_radius is not None and not self.ball_radius > 0:
            raise ValueError("ball radius must be positive")

    @property
    def nvars(self) -> int:
        return self.space.n

    def ball_polynomial(self) -> Optional[Polynomial]:
        if self.ball_radius is None:
            return None
        n = self.space.n
        terms = {(0,) * n: self.ball_radius}
        terms.update(((0,) * i + (2,) + (0,) * (n - i - 1), -1) for i in range(n))
        return Polynomial(n, terms)

    def effective_inequalities(self) -> list[Polynomial]:
        out = list(self.inequalities)
        ball = self.ball_polynomial()
        if ball is not None:
            out.append(ball)
        return out

    def certifies_compactness(self) -> bool:
        """True when some inequality's top form is a negative definite quadratic.

        That covers R - |x|^2 and affine perturbations of it; anything subtler
        is the caller's responsibility and is merely flagged, not rejected.
        """
        if self.ball_radius is not None:
            return True
        n = self.space.n
        for q in self.inequalities:
            if q.degree != 2:
                continue
            top = q.top_form()
            H = np.zeros((n, n))
            for exp, c in top.terms.items():
                idx = [i for i, e in enumerate(exp) if e]
                if len(idx) == 1:
                    H[idx[0], idx[0]] = float(c)
                else:
                    H[idx[0], idx[1]] += float(c) / 2.0
                    H[idx[1], idx[0]] += float(c) / 2.0
            if np.linalg.eigvalsh(H)[-1] < 0:
                return True
        return False

    def contains(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        for q in self.effective_inequalities():
            if float(q.evaluate(point)) < -tol:
                return False
        for q in self.equalities:
            if abs(float(q.evaluate(point))) > tol:
                return False
        return True


@dataclass
class POPProblem:
    """Minimize a polynomial over a basic closed semialgebraic set."""

    objective: Polynomial
    feasible_set: SemialgebraicSet

    def __post_init__(self) -> None:
        if self.objective.nvars != self.feasible_set.space.n:
            raise ValueError("objective does not match the variable space")

    def minimal_order(self) -> int:
        fs = self.feasible_set
        return minimal_order([self.objective, *fs.effective_inequalities(), *fs.equalities])


@dataclass
class RelaxationInfo:
    """What an assembled program keeps of one measure's plan."""

    order: int
    r_k: list[int]
    r_x: int
    block_sizes: list[int]
    moment_dim: int
    compactness_certified: bool


class OrderTooSmallError(ValueError):
    def __init__(self, r: int, r_x: int, message: Optional[str] = None):
        super().__init__(message or f"relaxation order {r} is below the minimal order {r_x}")
        self.minimal_order = r_x


class DegreeTooHighError(OrderTooSmallError):
    def __init__(self, what: str, degree: int, r: int):
        super().__init__(
            r,
            ceil(degree / 2),
            f"{what} has degree {degree}, above the relaxation's moment degree 2r = {2 * r}",
        )


@dataclass
class MomentConstraint:
    """Linear constraint sum_i <p_i, measure_i>  REL  rhs."""

    terms: list[tuple[str, Polynomial]]
    rhs: Union[Fraction, float]
    relation: str = "eq"  # eq | le | ge
    label: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.relation not in ("eq", "le", "ge"):
            raise ValueError(f"unknown relation {self.relation!r}")


# -- linear rows over the moment vector --------------------------------------


@dataclass
class LinearRow:
    """Exact row sum_k coeffs[k] * y_k  REL  rhs over global moment indices."""

    coeffs: dict[int, Fraction]
    rhs: Fraction
    relation: str  # "eq", "ge"  (le rows are stored negated as ge)

    def family(self) -> tuple[list[Coeff], np.ndarray, Fraction]:
        """The row as a one-row family for `SparseRows.of`."""
        return list(self.coeffs.values()), np.array([list(self.coeffs)]), self.rhs


@dataclass
class SparseRows:
    """Linear rows sum_k a_k y_k  REL  b as CSR arrays, in the float forms assembly reads.

    Row r holds the columns ``cols[indptr[r]:indptr[r + 1]]``.  ``coeffs`` and
    ``rhs`` are float(a_k) and float(b), which the prune weighs; ``scaled`` and
    ``rhs_scaled`` are -float(a_k / s) and -float(b / s), the row's entries in
    its nonneg or zero block, with s the row's largest |a_k| (1 if none is
    nonzero): mixed scales (constant terms like 1/1575 against unit leading
    coefficients) otherwise drag the Newton system's conditioning down.
    """

    indptr: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    scaled: np.ndarray
    rhs: np.ndarray
    rhs_scaled: np.ndarray

    def __len__(self) -> int:
        return len(self.rhs)

    @staticmethod
    def of(families: Iterable[tuple[Sequence[Coeff], np.ndarray, Coeff]]) -> "SparseRows":
        """Rows of families (coefficients, cols, rhs): row r has coefficients[t] at cols[r, t].

        The rows of a family share its exact coefficients and rhs, so each
        float is computed once per coefficient, not once per row.
        """
        parts = [(np.zeros(0, np.intp),) + (np.zeros(0),) * 4 + (np.zeros(0, np.intp),)]
        for coeffs, cols, rhs in families:
            exact, rhs, n = list(map(_exact, coeffs)), _exact(rhs), len(cols)
            scale = max(map(abs, exact), default=0) or Fraction(1)
            parts.append((cols.astype(np.intp).ravel(), np.tile(list(map(float, exact)), n),
                          np.tile([-_over(c, scale) for c in exact], n), np.full(n, float(rhs)),
                          np.full(n, -_over(rhs, scale)), np.full(n, len(exact))))
        cols, coeffs, scaled, rhs, rhs_scaled, widths = map(np.concatenate, zip(*parts))
        return SparseRows(np.concatenate([[0], np.cumsum(widths)]), cols, coeffs, scaled, rhs, rhs_scaled)

    def take(self, keep: np.ndarray) -> "SparseRows":
        """The rows at positions `keep`, in that order."""
        lo, widths = self.indptr[keep], np.diff(self.indptr)[keep]
        indptr = np.concatenate([[0], np.cumsum(widths)])
        at = np.repeat(lo - indptr[:-1], widths) + np.arange(indptr[-1])
        return SparseRows(indptr, self.cols[at], self.coeffs[at], self.scaled[at],
                          self.rhs[keep], self.rhs_scaled[keep])


def _exact(c: Union[Coeff, int]) -> Fraction:
    """c as a Fraction; a Fraction is returned as it is."""
    return c if type(c) is Fraction else Fraction(c)


def _over(c: Fraction, s: Fraction) -> float:
    """float(c / s) for s > 0, without reducing the quotient to lowest terms.

    int / int rounds correctly, as float() of a Fraction does, so both give
    the float nearest to the same rational.
    """
    return c.numerator * s.denominator / (c.denominator * s.numerator)


# The prune weights row i by 1 + (n - 1 - i) * _TIE_WEIGHT so that exact ties go
# to the earlier row.  It must stay far above rounding and below real gaps:
# 2**-36 overrode a real gap on eig-assign n = 4 at r = 4; 2**-40 to 2**-48 did not.
_TIE_WEIGHT = 2.0**-40


# Equality sets up to this many rows are pruned in numpy (`sdp._pivoted_cholesky` of
# `_dense_gram`), larger ones by dpstrf of `_weighted_gram`: the numpy loop makes a few
# calls a pivot where dpstrf factors by blocks.  At one BLAS thread on a 2-core Xeon the
# numpy prune took 0.9-1.1x dpstrf's time at 66-211 eig-assign rows, 3.4x at 287
# saturation-cell rows and 7x and 9x at 1,689 and 3,425 eig-assign rows.
_NUMPY_PRUNE_ROWS = 256


def prune_dependent_rows(rows: SparseRows, n_cols: int) -> np.ndarray:
    """Positions of a maximal independent subset of equality rows, ascending.

    Equality families built from products of one polynomial carry many exact
    linear dependencies; leaving them in makes the Newton systems singular.
    Ranks are those of the augmented [coefficients | rhs] rows: an inconsistent
    row stays (and `sdp.solve` refuses the program, whose zero-block columns
    are then dependent), a redundant consistent row, exact duplicates
    included, goes.  A pivoted Cholesky factorization of the Gram matrix of the
    rows, each scaled to unit infinity-norm, picks them greedily by largest
    remaining norm, as a column-pivoted QR would, with exact ties to the
    earlier row, so the kept set depends neither on rounding nor on how the
    moments are numbered.  It stops at LAPACK dpstrf's cutoff: a remaining
    squared norm at most n * 2^-53 times the largest row's, n the number of
    rows.  On eig-assign (n = 2..6) at r <= 4 the smallest kept pivot is
    >= 2.0e-4 of the largest, the next <= 2.6e-15.

    Two paths follow that rule and differ only in rounding: up to
    `_NUMPY_PRUNE_ROWS` rows `sdp._pivoted_cholesky` of `_dense_gram`, without
    scipy; above it dpstrf of `_weighted_gram`.
    """
    if len(rows) <= _NUMPY_PRUNE_ROWS:
        piv = _pivoted_cholesky(_dense_gram(rows, n_cols), len(rows))[1]
    else:
        from scipy.linalg.lapack import dpstrf
        _, piv, rank, info = dpstrf(_weighted_gram(rows, n_cols), lower=1, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpstrf")
        piv = piv[:rank] - 1
    return np.sort(piv).astype(np.intp)


def _weighted_entries(rows: SparseRows, n_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, value) of each nonzero of the [coefficients | rhs] rows, each row scaled to unit
    infinity-norm and weighted by 1 + (n - 1 - i) * _TIE_WEIGHT; the rhs is column n_cols."""
    n = len(rows)
    row_of = np.repeat(np.arange(n), np.diff(rows.indptr))
    nz, with_rhs = rows.coeffs != 0, np.flatnonzero(rows.rhs)
    r = np.concatenate([row_of[nz], with_rhs])
    c = np.concatenate([rows.cols[nz], np.full(len(with_rhs), n_cols)])
    v = np.concatenate([rows.coeffs[nz], rows.rhs[with_rhs]])
    top = np.zeros(n)
    np.maximum.at(top, r, np.abs(v))
    top[top == 0] = 1.0  # a row without entries gets no weight
    w = (1.0 + (n - 1 - np.arange(n)) * _TIE_WEIGHT) / top
    return r, c, v * w[r]


def _dense_gram(rows: SparseRows, n_cols: int) -> np.ndarray:
    """The Gram matrix of the `_weighted_entries` rows, dense, by one BLAS product of the rows
    over the columns they use; its entries round as BLAS sums them, not as `_weighted_gram`'s."""
    r, c, v = _weighted_entries(rows, n_cols)
    used = np.bincount(c, minlength=n_cols + 1) > 0
    W = np.zeros((len(rows), np.count_nonzero(used)))
    W[r, (np.cumsum(used) - 1)[c]] = v
    return W @ W.T


def _weighted_gram(rows: SparseRows, n_cols: int) -> np.ndarray:
    """Fortran-ordered Gram matrix of the `_weighted_entries` rows.

    The lower triangle comes from the sparse product W W^T of those rows with
    their columns sorted, whose kernel (SMMP) sums each entry from 0 in
    ascending column order; the strict upper triangle is left zero and,
    mostly, unmapped.
    """
    import scipy.sparse
    n = len(rows)
    r, c, v = _weighted_entries(rows, n_cols)
    order = np.lexsort((c, r))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=n))])
    W = scipy.sparse.csr_array((v[order], c[order], indptr), shape=(n, n_cols + 1))
    P = (W @ W.T).tocoo()
    lower = P.row >= P.col
    # An anonymous mapping (np.zeros asks for huge pages) claims a page only when
    # written, and neither the fill nor dpstrf(lower=1) writes the upper triangle
    G = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=np.float64).reshape((n, n), order="F")
    G[P.row[lower], P.col[lower]] = P.data[lower]
    return G


# -- assembly -----------------------------------------------------------------


@dataclass
class MeasurePlan:
    """PSD stencils and equality-product families contributed by one measure's support."""

    psd_stencils: list[MatrixStencil]
    # per equality q: its coefficients, and the ranks of alpha + gamma (a row per alpha)
    equality_families: list[tuple[list[Coeff], np.ndarray]]
    r_k: list[int]
    r_x: int
    compactness_certified: bool


def measure_plan(supp: SemialgebraicSet, r: int) -> MeasurePlan:
    """Moment-matrix and localizer structure of one measure at order r."""
    n = supp.space.n
    ineqs = supp.effective_inequalities()
    r_k = [half_degree(q) for q in ineqs] + [half_degree(q) for q in supp.equalities]
    r_x = minimal_order(ineqs + supp.equalities)
    if r < r_x:
        raise OrderTooSmallError(r, r_x)
    stencils = [moment_matrix_stencil(n, r)]
    for q in ineqs:
        stencils.append(localizing_matrix_stencil(q, r - half_degree(q)))
    # Equality constraints pin every product q * x^alpha that the truncation
    # can express: l(q x^alpha) = 0 for |alpha| <= 2r - deg q.  This covers
    # every cell of the order r - ceil(deg/2) localizing matrix and, for odd
    # degrees, the top-degree products that the matrix misses; dropping those
    # demonstrably loses tightness (and rank-one certificates) at the minimal
    # order.  The alpha + gamma never collide, so each product's coefficients
    # are exactly q's.
    families = []
    for q in supp.equalities:
        alphas = exponent_array(n, 2 * r - q.degree)
        gammas = np.array(list(q.terms), dtype=np.int64).reshape(len(q.terms), n)
        families.append((list(q.terms.values()), grlex_ranks(alphas[:, None, :] + gammas)))
    return MeasurePlan(
        psd_stencils=stencils,
        equality_families=families,
        r_k=r_k,
        r_x=r_x,
        compactness_certified=supp.certifies_compactness(),
    )


@dataclass
class AssembledProgram:
    """A conic program plus the bookkeeping to read moments back out of it."""

    program: ConicProgram
    measures: dict[str, RelaxationInfo]  # what is kept of each measure's plan
    measure_offsets: dict[str, int]
    measure_exponents: dict[str, list[Exponent]]
    # filled by set_objective: cost c over the moment vector, bound = c'y + constant
    objective: Optional[np.ndarray] = None
    objective_constant: float = 0.0
    # filled by `assemble`: the wall seconds of the build without the prune and of
    # `prune_dependent_rows`, and the equality rows handed to the prune and kept by it
    stats: dict = field(default_factory=dict)

    def moments_of(self, name: str, y: np.ndarray) -> MomentVector:
        off = self.measure_offsets[name]
        exps = self.measure_exponents[name]
        return MomentVector(len(exps[0]), 2 * self.measures[name].order, y[off : off + len(exps)])

    def bound_from(self, sol: SDPSolution) -> float:
        return float(self.objective @ sol.y) + self.objective_constant

    def set_objective(
        self, objective: Sequence[tuple[str, Polynomial]], sense: str, constant: float = 0.0
    ) -> None:
        """Fill the cost c over the moment vector and the program's b; A and C stay.

        Orientation: the moments y are the conic dual vector.  For sense "min"
        the solver maximizes b'y with b = -c so that the relaxation bound is
        c'y* = -max b'y; for "max", b = +c.
        """
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        summed: dict[str, Polynomial] = {}
        for name, poly in objective:
            if name not in self.measures:
                raise KeyError(f"objective references unknown measure {name!r}")
            r = self.measures[name].order
            if poly.degree > 2 * r:
                raise DegreeTooHighError(f"objective term on measure {name!r}", poly.degree, r)
            summed[name] = summed[name] + poly if name in summed else poly
        c = np.zeros(self.program.m)
        for name, poly in summed.items():
            off = self.measure_offsets[name]
            for exp, coef in poly.terms.items():
                c[off + grlex_index(exp)] += float(coef)
        if not np.all(np.isfinite(c)):
            raise ValueError("objective coefficients must be finite")
        self.objective, self.objective_constant = c, constant
        self.program.b = -c if sense == "min" else c.copy()


def _measure_data(plan: MeasurePlan, off: int) -> tuple[list[BlockData], list[tuple]]:
    """A measure's PSD data, A_k = -S_k, and its equality families for `SparseRows.of`."""
    data: list[BlockData] = []
    for st in plan.psd_stencils:
        s, w = st.side, len(st.coeffs)
        i, j = np.repeat(st.i, w), np.repeat(st.j, w)
        # each entry fills (i, j) and, off the diagonal, (j, i) right after
        twice = 1 + (i != j)
        cells = np.stack([i * s + j, j * s + i], axis=1)[np.arange(2) < twice[:, None]]
        vals = np.array([-float(c) for c in st.coeffs])[st.term]
        data.append(BlockData(np.repeat(off + st.rank, twice), cells, np.repeat(vals, twice)))
    return data, [(c, off + ranks, 0) for c, ranks in plan.equality_families]


def assemble(
    supports: dict[str, SemialgebraicSet],
    r: int,
    constraints: Sequence[MomentConstraint],
    objective: Sequence[tuple[str, Polynomial]],
    sense: str,
    objective_constant: float = 0.0,
) -> AssembledProgram:
    """Order-r relaxation of measures on `supports` under moment constraints.

    Rows are the explicit constraints first, then each measure's equality
    products.  Each inequality row keeps its own nonneg slack, so a repeated
    one is harmless; `prune_dependent_rows` keeps a maximal independent subset
    of the equality rows.  Each measure's plan is freed once its rows and PSD
    data are out.  Constraint data is built as its nonzeros; no dense
    (m, s, s) array is allocated.
    """
    start = perf_counter()
    plans = {name: measure_plan(supp, r) for name, supp in supports.items()}
    exps = {name: exponents_up_to(supp.space.n, 2 * r) for name, supp in supports.items()}
    measures = {
        name: RelaxationInfo(r, p.r_k, p.r_x, [st.side for st in p.psd_stencils],
                             len(exps[name]), p.compactness_certified)
        for name, p in plans.items()
    }
    starts = list(accumulate((len(e) for e in exps.values()), initial=0))
    offsets, m = dict(zip(exps, starts)), starts[-1]

    eq_rows: list[LinearRow] = []
    ge_rows: list[LinearRow] = []
    for ci, con in enumerate(constraints):
        coeffs: dict[int, Fraction] = {}
        for name, poly in con.terms:
            if poly.degree > 2 * r:
                raise DegreeTooHighError(f"constraint {ci + 1} (measure {name!r})", poly.degree, r)
            off = offsets[name]
            for exp, c in poly.terms.items():
                k, c = off + grlex_index(exp), _exact(c)
                acc = coeffs.get(k)
                coeffs[k] = c if acc is None else acc + c
        rhs = _exact(con.rhs)
        if con.relation == "eq":
            eq_rows.append(LinearRow(coeffs, rhs, "eq"))
        elif con.relation == "ge":
            ge_rows.append(LinearRow(coeffs, rhs, "ge"))
        else:  # le: negate into a ge row
            ge_rows.append(LinearRow({k: -c for k, c in coeffs.items()}, -rhs, "ge"))

    A: list[BlockData] = []
    eq_families = [row.family() for row in eq_rows]
    for name, off in offsets.items():
        data, families = _measure_data(plans.pop(name), off)
        A += data
        eq_families += families
    blocks = [Block("psd", s) for mi in measures.values() for s in mi.block_sizes]
    C: list[np.ndarray] = [np.zeros((blk.size, blk.size)) for blk in blocks]
    eq = SparseRows.of(eq_families)
    pruning = perf_counter()
    eq_in, eq = len(eq), eq.take(prune_dependent_rows(eq, m))
    pruned = perf_counter()
    ge = SparseRows.of(row.family() for row in ge_rows)

    for kind, rows in (("nonneg", ge), ("zero", eq)):
        if not len(rows):
            continue
        blocks.append(Block(kind, len(rows)))
        A.append(BlockData(rows.cols, np.repeat(np.arange(len(rows)), np.diff(rows.indptr)), rows.scaled))
        C.append(rows.rhs_scaled)

    prog = ConicProgram(blocks=blocks, A=A, b=np.zeros(m), C=C)
    asm = AssembledProgram(prog, measures, offsets, exps)
    asm.set_objective(objective, sense, objective_constant)
    prune = pruned - pruning
    asm.stats = {"seconds": {"build": perf_counter() - start - prune, "prune": prune},
                 "equality_rows": eq_in, "equality_rows_kept": len(eq)}
    return asm


_POP_MEASURE = "mu"


def build_relaxation(pop: POPProblem, r: int) -> tuple[AssembledProgram, RelaxationInfo]:
    """Order-r moment relaxation of a polynomial minimization problem.

    This is the generalized moment problem of one probability measure on the
    feasible set: the mass row <1, mu> = 1 and the objective <p0, mu>.
    """
    n = pop.feasible_set.space.n
    mass = MomentConstraint([(_POP_MEASURE, Polynomial.constant(n, 1))], Fraction(1), "eq")
    asm = assemble(
        {_POP_MEASURE: pop.feasible_set}, r, [mass], [(_POP_MEASURE, pop.objective)], "min"
    )
    return asm, asm.measures[_POP_MEASURE]


def _substitute(p: Polynomial, v: int, form: Polynomial) -> Polynomial:
    """p with x_v replaced by `form`, a polynomial without x_v, exactly."""
    powers = [Polynomial.constant(p.nvars, 1)]  # form^k
    out: dict[Exponent, Coeff] = {}
    for e, c in p.terms.items():
        while len(powers) <= e[v]:
            powers.append(powers[-1] * form)
        rest = e[:v] + (0,) + e[v + 1:]
        for f, d in powers[e[v]].terms.items():
            g = tuple(map(add, rest, f))
            out[g] = out.get(g, 0) + c * d
    return Polynomial(p.nvars, out)


def _pivot(q: Polynomial) -> tuple[int, Polynomial]:
    """The variable of largest |coefficient| in the affine, nonconstant q (the first
    on ties) and its affine form on q = 0."""
    lin = {e.index(1): c for e, c in q.terms.items() if sum(e) == 1}
    v = max(lin, key=lambda i: (abs(lin[i]), -i))
    return v, (Polynomial.variable(q.nvars, v) * lin[v] - q) * (1 / lin[v])


def eliminate_linear_equalities(pop: POPProblem) -> tuple[POPProblem, list[tuple[int, Polynomial]]]:
    """The POP on the affine subspace of its linear equalities, and the variables eliminated.

    While some equality is affine once the substitutions so far are made, it
    is taken in turn: 0 is dropped, a nonzero constant is refused with a
    `ValueError` that names the equality, and otherwise its variable of
    largest |coefficient| is eliminated, its affine form substituted exactly
    into the objective, the inequalities (the ball included) and the other
    equalities.  At most n - 1 variables go: an affine equality after that,
    in the one variable left, stays an equality, and the later ones are
    checked against it.  An inequality that becomes a constant >= 0 holds
    everywhere and is dropped.  The reduced POP's variables are the kept
    ones in their order; each eliminated variable comes with its affine form
    over them, written in the original n variables.  A POP without an affine
    equality is returned as it is.
    """
    fs, n = pop.feasible_set, pop.feasible_set.space.n
    objective, ineqs = pop.objective, fs.effective_inequalities()
    rest = list(enumerate(fs.equalities, start=1))  # equalities not yet taken, by number
    kept: list[tuple[int, Polynomial]] = []
    eliminated: list[tuple[int, Polynomial]] = []
    pin: Optional[tuple[int, Polynomial]] = None  # the equality in the last variable
    while (at := next((i for i, (_, q) in enumerate(rest) if q.degree <= 1), None)) is not None:
        k, q = rest.pop(at)
        if pin is not None:
            q = _substitute(q, *pin)
        if q.degree == 0:
            if q.is_zero():
                continue
            raise ValueError(
                f"equality {k}, {fs.equalities[k - 1].to_string(fs.space)} = 0, reduces to "
                f"{q.to_string()} = 0 under the linear equalities: the feasible set is empty"
            )
        v, form = _pivot(q)
        if len(eliminated) == n - 1:
            pin = v, form
            kept.append((k, q))
            continue
        eliminated = [(u, _substitute(f, v, form)) for u, f in eliminated] + [(v, form)]
        objective = _substitute(objective, v, form)
        ineqs = [_substitute(g, v, form) for g in ineqs]
        rest = [(j, _substitute(p, v, form)) for j, p in rest]
    if not eliminated:
        return pop, []
    keep = [i for i in range(n) if i not in dict(eliminated)]
    mapping = [keep.index(i) if i in keep else 0 for i in range(n)]  # eliminated ones occur nowhere

    def on_kept(p: Polynomial) -> Polynomial:
        return p.map_variables(len(keep), mapping)

    ineqs = [g for g in ineqs if g.degree > 0 or g.coeff((0,) * n) < 0]
    equalities = [q for _, q in sorted(kept + rest, key=lambda kq: kq[0])]
    space = VarSpace(tuple(fs.space.names[i] for i in keep))
    reduced = SemialgebraicSet(space, list(map(on_kept, ineqs)), list(map(on_kept, equalities)))
    return POPProblem(on_kept(objective), reduced), sorted(eliminated, key=lambda vf: vf[0])


def _lift(z: np.ndarray, n: int, degree: int, eliminated: list[tuple[int, Polynomial]]) -> np.ndarray:
    """The moments y_gamma = L'(pi^gamma), |gamma| <= degree, of the n variables, in floats.

    z holds L' on the monomials of the kept variables, and pi maps them to
    all n: x_v is its affine form c_v + sum_u c_vu x_u for each eliminated v,
    and a kept x_u is itself.  So y_gamma is z's where gamma has no
    eliminated variable, and otherwise, with v the first eliminated variable
    of gamma and beta = gamma - e_v,
    y_gamma = L'(pi^beta (c_v + sum_u c_vu x_u)) = c_v y_beta + sum_u c_vu y_(beta + e_u),
    which the y of one less eliminated degree give.  No form is ever raised
    to a power.
    """
    E = exponent_array(n, degree)
    elim = np.array([v for v, _ in eliminated])
    keep = np.setdiff1d(np.arange(n), elim)
    units = np.eye(n, dtype=np.int64)
    monomials = [(0,) * n, *map(tuple, units[keep].tolist())]  # 1 and the kept x_u
    forms = np.array([[float(f.coeff(e)) for e in monomials] for _, f in eliminated])
    depth = E[:, elim].sum(axis=1)
    y = np.empty(len(E))
    y[depth == 0] = z[grlex_ranks(E[depth == 0][:, keep])]
    for d in range(1, degree + 1):
        at = np.flatnonzero(depth == d)
        first = np.argmax(E[at][:, elim] > 0, axis=1)
        beta = E[at] - units[elim[first]]
        acc = forms[first, 0] * y[grlex_ranks(beta)]
        for j, u in enumerate(keep, start=1):
            acc += forms[first, j] * y[grlex_ranks(beta + units[u])]
        y[at] = acc
    return y


@dataclass
class POPResult:
    """A POP's relaxation solve.

    `moments` and `info.r_x` are the POP's own: its n-variable moments and
    its minimal order.  `solution`, `assembled`, and the rest of `info`
    describe the program actually solved, that of the POP with its linear
    equalities eliminated.  `eliminated` lists each eliminated variable's
    index with its exact affine form over the kept variables.
    """

    bound: float
    moments: MomentVector
    solution: SDPSolution
    info: RelaxationInfo
    assembled: AssembledProgram
    eliminated: list[tuple[int, Polynomial]] = field(default_factory=list)


def bound_and_moments(
    pop: POPProblem, r: int, options: SolveOptions | None = None
) -> POPResult:
    """Solve the order-r relaxation: lower bound and optimal truncated moments.

    The relaxation solved is that of `eliminate_linear_equalities(pop)`,
    whose moments are lifted back to pop's variables.  The order is checked
    against pop itself, as `build_relaxation(pop, r)` would.  Solver failure
    statuses pass through in `result.solution.status`.
    """
    fs, n = pop.feasible_set, pop.feasible_set.space.n
    r_x = minimal_order(fs.effective_inequalities() + fs.equalities)
    if r < r_x:
        raise OrderTooSmallError(r, r_x)
    if pop.objective.degree > 2 * r:
        raise DegreeTooHighError(f"objective term on measure {_POP_MEASURE!r}", pop.objective.degree, r)
    reduced, eliminated = eliminate_linear_equalities(pop)
    asm, info = build_relaxation(reduced, r)
    sol = solve(asm.program, options)
    y = asm.moments_of(_POP_MEASURE, sol.y)
    if eliminated:
        y = MomentVector(n, 2 * r, _lift(y.values, n, 2 * r, eliminated))
        info = replace(info, r_x=r_x, compactness_certified=fs.certifies_compactness())
    return POPResult(asm.bound_from(sol), y, sol, info, asm, eliminated)
