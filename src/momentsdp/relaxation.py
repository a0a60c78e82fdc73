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

from dataclasses import dataclass, field
from fractions import Fraction
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
        items = sorted((k, c) for k, c in self.coeffs.items() if c != 0)
        if not items:
            return None
        lead = items[0][1]
        return tuple((k, c / lead) for k, c in items), self.relation

    def normalized_rhs(self) -> Fraction:
        items = sorted((k, c) for k, c in self.coeffs.items() if c != 0)
        lead = items[0][1]
        return self.rhs / lead


def dedupe_rows(rows: list[LinearRow]) -> list[LinearRow]:
    """Drop exact duplicates (rows proportional with proportional rhs)."""
    seen: dict[tuple, Fraction] = {}
    out: list[LinearRow] = []
    for row in rows:
        key = row.normalized_key()
        if key is None:
            if row.rhs != 0:
                out.append(row)  # infeasible 0 = c row: keep, solver will report
            continue
        rhs = row.normalized_rhs()
        if key in seen and seen[key] == rhs:
            continue
        seen[key] = rhs
        out.append(row)
    return out


def prune_dependent_rows(rows: list[LinearRow], n_cols: int, rel_tol: float = 1e-11) -> list[LinearRow]:
    """Keep a maximal independent subset of equality rows, in their given order.

    Equality families built from products of one polynomial carry many exact
    linear dependencies; leaving them in makes the Newton systems singular.
    Rank analysis runs on the augmented [coefficients | rhs] matrix, so a row
    that is inconsistent with the others stays (and the solve reports
    infeasibility) while a redundant consistent row is dropped.  Rows enter
    with unit infinity-norm, so the cutoff is scale-free.  The subset is the
    first `rank` pivots of a column-pivoted QR of the transposed matrix, which
    picks rows by remaining norm: it need not be the earliest independent rows.
    """
    if len(rows) <= 1:
        return rows
    piv, diag = _pivoted_qr(rows, n_cols)
    if diag.size == 0 or diag[0] == 0:
        return []
    rank = int(np.sum(diag > rel_tol * diag[0]))
    keep = sorted(piv[:rank])
    return [rows[i] for i in keep]


def _pivoted_qr(rows: list[LinearRow], n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivots and |diag R| of the column-pivoted QR of the rows' [coefficients | rhs] transpose.

    Each row is scaled to unit infinity-norm.  This is the LAPACK geqp3 call,
    with the same workspace query, that ``scipy.linalg.qr(A.T, mode="r",
    pivoting=True)`` makes, so pivots and diagonal are the same; but the
    Fortran-ordered transpose is filled directly and factored in place, and
    the diagonal is read off the factor, so no copy of the matrix is made.
    """
    AT = np.zeros((n_cols + 1, len(rows)), order="F")
    for ri, row in enumerate(rows):
        col = AT[:, ri]
        for k, c in row.coeffs.items():
            col[k] = float(c)
        col[n_cols] = float(row.rhs)
        norm = np.abs(col).max()
        if norm > 0:
            col /= norm
    (geqp3,) = scipy.linalg.get_lapack_funcs(("geqp3",), (AT,))
    lwork = geqp3(AT, lwork=-1, overwrite_a=True)[-2][0].real.astype(np.int_)
    qr, piv, _, _, info = geqp3(AT, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    return piv - 1, np.abs(np.diagonal(qr))


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
    plans: dict[str, MeasurePlan]
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
        return MomentVector(len(exps[0]), 2 * self.plans[name].order, y[off : off + len(exps)])

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
            if name not in self.plans:
                raise KeyError(f"objective references unknown measure {name!r}")
            r = self.plans[name].order
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
    products; exact duplicates go, and `prune_dependent_rows` keeps a maximal
    independent subset of the equality rows (which subset is up to its
    column-pivoted QR, not the row order).  Constraint data is built as its
    nonzeros; no dense (m, s, s) array is allocated.
    """
    plans = {name: measure_plan(supp, r) for name, supp in supports.items()}
    offsets: dict[str, int] = {}
    exps: dict[str, list[Exponent]] = {}
    m = 0
    for name, plan in plans.items():
        offsets[name] = m
        exps[name] = exponents_up_to(plan.nvars, 2 * r)
        m += len(exps[name])

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
    for name, plan in plans.items():
        off = offsets[name]
        for lhs, rhs in plan.equality_rows:
            coeffs = {off + grlex_index(e): Fraction(c) for e, c in lhs.items()}
            eq_rows.append(LinearRow(coeffs, Fraction(rhs), "eq"))
    eq_rows = prune_dependent_rows(dedupe_rows(eq_rows), m)
    ge_rows = dedupe_rows(ge_rows)
    row_blocks = [(kind, rows) for kind, rows in (("nonneg", ge_rows), ("zero", eq_rows)) if rows]

    blocks: list[Block] = []
    block_sources: list[tuple[str, MatrixStencil]] = []
    for name, plan in plans.items():
        for st in plan.psd_stencils:
            blocks.append(Block("psd", st.side))
            block_sources.append((name, st))
    blocks += [Block(kind, len(rows)) for kind, rows in row_blocks]

    A: list[BlockData] = []
    C: list[np.ndarray] = []

    # PSD blocks: Z_block = sum_k y_k S_k, i.e. C = 0 and A_k = -S_k
    for name, st in block_sources:
        off, s = offsets[name], st.side
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
        A.append(BlockData(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)))
        C.append(np.zeros((s, s)))

    # rows are rescaled to unit maximum coefficient: mixed scales (constant
    # terms like 1/1575 against unit leading coefficients) otherwise drag
    # the Newton system's conditioning down
    for _, block_rows in row_blocks:
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
        A.append(BlockData(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)))
        C.append(rhs)

    prog = ConicProgram(blocks=blocks, A=A, b=np.zeros(m), C=C)
    asm = AssembledProgram(prog, plans, offsets, exps)
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
    plan = asm.plans[_POP_MEASURE]
    info = RelaxationInfo(
        order=r,
        r_k=plan.r_k,
        r_x=plan.r_x,
        block_sizes=[st.side for st in plan.psd_stencils],
        moment_dim=len(asm.measure_exponents[_POP_MEASURE]),
        compactness_certified=plan.compactness_certified,
    )
    return asm, info


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
