"""Moment relaxations: one builder for polynomial and generalized moment problems.

`assemble` is the only relaxation builder.  It takes named measures with
semialgebraic supports, the order r, linear moment constraints and a linear
moment objective, and returns one conic program over the stacked truncated
moment vectors (grlex order, degree up to 2r per measure).  Each measure gets
one PSD block for its order-r moment matrix, one PSD block per inequality for
its localizing matrix of order r - ceil(deg/2), and one equality row per
product of an equality constraint with a monomial that fits the truncation.
The explicit moment constraints come first among the rows.  The moments are
the dual vector of the conic program, so the solver's dual objective is the
relaxation bound.

A polynomial minimization ``min p0(x) s.t. p_k(x) >= 0 / = 0`` is the
generalized moment problem of one probability measure: `build_relaxation`
assembles the measure "mu" with the mass row <1, mu> = 1 and the objective
<p0, mu>.  The objective is filled in a separate step
(`AssembledProgram.set_objective`), so problems that differ only in their
objective share one assembly.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import ceil
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import scipy.linalg

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
    exponents_up_to,
    grlex_index,
)
from .sdp import Block, BlockData, ConicProgram, SDPSolution, SolveOptions, solve


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
        p = Polynomial.constant(n, self.ball_radius)
        for i in range(n):
            p = p - Polynomial.variable(n, i) ** 2
        return p

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

    def normalized_key(self) -> Optional[tuple]:
        """The row and its rhs divided by the leading coefficient; None for a zero row."""
        items = sorted((k, c) for k, c in self.coeffs.items() if c != 0)
        if not items:
            return None
        lead = items[0][1]
        return tuple((k, c / lead) for k, c in items), self.rhs / lead, self.relation


def dedupe_rows(rows: list[LinearRow]) -> list[LinearRow]:
    """Drop exact duplicates (rows proportional with proportional rhs), keeping the first."""
    seen: set[tuple] = set()
    out: list[LinearRow] = []
    for row in rows:
        key = row.normalized_key()
        if key is None:
            if row.rhs != 0:
                out.append(row)  # infeasible 0 = c row: keep, solver will report
            continue
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


# The prune weights row i by 1 + (n - 1 - i) * _TIE_WEIGHT so that exact ties go
# to the earlier row.  It must stay far above rounding and below real gaps:
# 2**-36 overrode a real gap on eig-assign n = 4 at r = 4; 2**-40 to 2**-48 did not.
_TIE_WEIGHT = 2.0**-40


def prune_dependent_rows(rows: list[LinearRow], n_cols: int) -> list[LinearRow]:
    """Keep a maximal independent subset of equality rows, in their given order.

    Equality families built from products of one polynomial carry many exact
    linear dependencies; leaving them in makes the Newton systems singular.
    Ranks are those of the augmented [coefficients | rhs] rows: an inconsistent
    row stays (and the solve reports infeasibility), a redundant consistent
    row, exact duplicates included, goes.  LAPACK's pivoted Cholesky (dpstrf)
    of the Gram matrix of the rows, each scaled to unit infinity-norm, picks
    them greedily by largest remaining norm, as a column-pivoted QR would, with
    exact ties to the earlier row, so the kept set depends neither on rounding
    nor on how the moments are numbered.  The cutoff is dpstrf's n * eps *
    (largest pivot) on the squared scale; on eig-assign (n = 2..6) at r <= 4
    the smallest kept pivot is >= 2.0e-4 of the largest, the next <= 2.6e-15.
    """
    if not rows:
        return rows
    G = _weighted_gram(rows, n_cols)
    _, piv, rank, info = scipy.linalg.lapack.dpstrf(G, lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpstrf")
    return [rows[i] for i in sorted(piv[:rank] - 1)]


def _weighted_gram(rows: list[LinearRow], n_cols: int) -> np.ndarray:
    """Fortran-ordered Gram matrix of the scaled, tie-weighted [coefficients | rhs] rows.

    The lower triangle is filled one column of the rows at a time from their
    nonzeros; the strict upper triangle is left zero and, mostly, unmapped.
    """
    n = len(rows)
    cols: dict[int, tuple[list[int], list[float]]] = {}
    for i, row in enumerate(rows):
        entries = [(k, float(c)) for k, c in [*row.coeffs.items(), (n_cols, row.rhs)] if c != 0]
        if not entries:
            continue
        w = (1.0 + (n - 1 - i) * _TIE_WEIGHT) / max(abs(v) for _, v in entries)
        for k, v in entries:
            idx, vals = cols.setdefault(k, ([], []))
            idx.append(i)
            vals.append(v * w)
    # An anonymous mapping (np.zeros asks for huge pages) claims a page only when
    # written, and neither the fill nor dpstrf(lower=1) writes the upper triangle
    G = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=np.float64).reshape((n, n), order="F")
    for k in sorted(cols):
        idx, vals = (np.array(a) for a in cols[k])
        # idx ascends, so (idx[i], idx[j]) lies on or below the diagonal
        i, j = np.tril_indices(len(idx))
        G[idx[i], idx[j]] += vals[i] * vals[j]
    return G


# -- assembly -----------------------------------------------------------------


@dataclass
class MeasurePlan:
    """PSD stencils and equality rows contributed by one measure's support."""

    nvars: int
    order: int
    psd_stencils: list[MatrixStencil]
    equality_rows: list[tuple[dict[Exponent, Coeff], Fraction]]  # lhs terms, rhs
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
    # order.
    rows: list[tuple[dict[Exponent, Coeff], Fraction]] = []
    for q in supp.equalities:
        for alpha in exponents_up_to(n, 2 * r - q.degree):
            lhs: dict[Exponent, Coeff] = {}
            for exp, c in q.terms.items():
                s = tuple(a + b for a, b in zip(exp, alpha))
                lhs[s] = lhs.get(s, Fraction(0)) + c
            rows.append(({e: c for e, c in lhs.items() if c != 0}, Fraction(0)))
    return MeasurePlan(
        nvars=n,
        order=r,
        psd_stencils=stencils,
        equality_rows=rows,
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

    @property
    def num_moments(self) -> int:
        return self.program.m

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


def _measure_data(plan: MeasurePlan, off: int, eq_rows: list[LinearRow]) -> list[BlockData]:
    """Append a measure's equality rows to `eq_rows`; return its PSD data, A_k = -S_k."""
    eq_rows += [
        LinearRow({off + grlex_index(e): Fraction(c) for e, c in lhs.items()}, Fraction(rhs), "eq")
        for lhs, rhs in plan.equality_rows
    ]
    data: list[BlockData] = []
    for st in plan.psd_stencils:
        s = st.side
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for (i, j), pairs in st.cells.items():
            cells = (i * s + j,) if i == j else (i * s + j, j * s + i)
            for exp, c in pairs:
                k = off + grlex_index(exp)
                for cell in cells:
                    rows.append(k)
                    cols.append(cell)
                    vals.append(-float(c))
        data.append(BlockData(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)))
    return data


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
    products.  Exact duplicates among the inequality rows go, and
    `prune_dependent_rows` keeps a maximal independent subset of the equality
    rows.  Each measure's plan is freed once its rows and PSD data are out.
    Constraint data is built as its nonzeros; no dense (m, s, s) array is
    allocated.
    """
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
                k = off + grlex_index(exp)
                coeffs[k] = coeffs.get(k, Fraction(0)) + Fraction(c)
        rhs = Fraction(con.rhs)
        if con.relation == "eq":
            eq_rows.append(LinearRow(coeffs, rhs, "eq"))
        elif con.relation == "ge":
            ge_rows.append(LinearRow(coeffs, rhs, "ge"))
        else:  # le: negate into a ge row
            ge_rows.append(LinearRow({k: -c for k, c in coeffs.items()}, -rhs, "ge"))

    A: list[BlockData] = []
    for name, off in offsets.items():
        A += _measure_data(plans.pop(name), off, eq_rows)
    blocks = [Block("psd", s) for mi in measures.values() for s in mi.block_sizes]
    C: list[np.ndarray] = [np.zeros((blk.size, blk.size)) for blk in blocks]
    eq_rows = prune_dependent_rows(eq_rows, m)
    ge_rows = dedupe_rows(ge_rows)

    # rows are rescaled to unit maximum coefficient: mixed scales (constant
    # terms like 1/1575 against unit leading coefficients) otherwise drag
    # the Newton system's conditioning down
    for kind, block_rows in (("nonneg", ge_rows), ("zero", eq_rows)):
        if not block_rows:
            continue
        rows, cols, vals = [], [], []
        rhs = np.zeros(len(block_rows))
        for ri, row in enumerate(block_rows):
            scale = max((abs(c) for c in row.coeffs.values()), default=Fraction(1))
            if scale == 0:
                scale = Fraction(1)
            rhs[ri] = -float(row.rhs / scale)
            for k, c in row.coeffs.items():
                rows.append(k)
                cols.append(ri)
                vals.append(-float(c / scale))
        blocks.append(Block(kind, len(block_rows)))
        A.append(BlockData(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)))
        C.append(rhs)

    prog = ConicProgram(blocks=blocks, A=A, b=np.zeros(m), C=C)
    asm = AssembledProgram(prog, measures, offsets, exps)
    asm.set_objective(objective, sense, objective_constant)
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


@dataclass
class POPResult:
    bound: float
    moments: MomentVector
    solution: SDPSolution
    info: RelaxationInfo
    assembled: AssembledProgram


def bound_and_moments(
    pop: POPProblem, r: int, options: SolveOptions | None = None
) -> POPResult:
    """Solve the order-r relaxation: lower bound and optimal truncated moments.

    Solver failure statuses pass through in `result.solution.status`.
    """
    asm, info = build_relaxation(pop, r)
    sol = solve(asm.program, options)
    y = asm.moments_of(_POP_MEASURE, sol.y)
    return POPResult(bound=asm.bound_from(sol), moments=y, solution=sol, info=info, assembled=asm)


def moment_vector_of_point(point: Sequence[float], degree: int) -> MomentVector:
    """Truncated moments of the unit point mass at `point`."""
    return MomentVector.from_atoms([list(point)], [1.0], degree)
