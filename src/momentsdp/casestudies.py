"""Built-in benchmark problems with exactly rational data.

`build_eig_assign` generates the structured pole-placement system: find x
with det(s I - B^{-1} diag x) matching a prescribed stable characteristic
polynomial, written as n polynomial equations obtained by comparing
elementary symmetric functions.  All coefficients are exact rationals
(n = 3 produces denominators like 1575), which is why the generator works
over Fractions end to end.

The trajectory problems (`build_occtraj`, `build_lqr`, `build_bolza`,
`build_saturation_cells`) package the dynamics, supports and normalizations
used across the test-suite and the shipped fixture files.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from .gmp import (
    DynamicsProblem,
    DynamicsSpec,
    MomentConstraint,
    build_dynamics_gmp,
)
from .polynomials import Polynomial, VarSpace, parse_polynomial
from .relaxation import POPProblem, SemialgebraicSet


def _fraction_determinant(M: list[list[Fraction]]) -> Fraction:
    n = len(M)
    A = [row[:] for row in M]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if A[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            A[col], A[pivot] = A[pivot], A[col]
            det = -det
        det *= A[col][col]
        inv = Fraction(1) / A[col][col]
        for r in range(col + 1, n):
            if A[r][col] != 0:
                f = A[r][col] * inv
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return det


def eig_assign_targets(n: int) -> list[Fraction]:
    """The prescribed eigenvalues a_k = 1/((2k)^2 - 1)."""
    return [Fraction(1, (2 * k) ** 2 - 1) for k in range(1, n + 1)]


def build_eig_assign(n: int, ball_radius: Fraction | float = 1) -> POPProblem:
    """Pole-placement system as a polynomial minimization problem.

    Matching det(s I + B^{-1} diag x) = prod_k (s + a_k) coefficient by
    coefficient gives equations p_k(x) = e_k(B^{-1} diag x) - e_k(a) = 0 of
    degrees 1..n; the objective sum_{i,j} (x_i - x_j)^2 singles out the
    solution with the most uniform entries.  (The k-th symmetric function
    of B^{-1} diag x is multilinear: sum over k-subsets S of
    det(B^{-1}[S,S]) * prod_{i in S} x_i, and Jacobi's complementary-minor
    identity gives det(B^{-1}[S,S]) = det(B[S',S']) / det B exactly, S' the
    complement of S, with the empty determinant 1; so B is never inverted.)
    """
    if not 2 <= n <= 8:
        raise ValueError("supported range is 2 <= n <= 8")
    B = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        B[i][i] = Fraction(2)
        if i + 1 < n:
            B[i][i + 1] = Fraction(-1)
            B[i + 1][i] = Fraction(-1)
    B[n - 1][n - 1] = Fraction(n + 1, n)
    det_B = _fraction_determinant(B)

    a = eig_assign_targets(n)
    # elementary symmetric functions of the targets via prod (s + a_k)
    esym = [Fraction(1)] + [Fraction(0)] * n
    for ak in a:
        for k in range(n, 0, -1):
            esym[k] = esym[k] + ak * esym[k - 1]

    equalities: list[Polynomial] = []
    for k in range(1, n + 1):
        terms: dict[tuple[int, ...], Fraction] = {}
        for subset in combinations(range(n), k):
            rest = [i for i in range(n) if i not in subset]
            coeff = _fraction_determinant([[B[i][j] for j in rest] for i in rest]) / det_B
            if coeff != 0:
                exp = [0] * n
                for i in subset:
                    exp[i] = 1
                terms[tuple(exp)] = terms.get(tuple(exp), Fraction(0)) + coeff
        terms[(0,) * n] = terms.get((0,) * n, Fraction(0)) - esym[k]
        equalities.append(Polynomial(n, terms))

    objective = Polynomial.zero(n)
    for i in range(n):
        for j in range(n):
            diff = Polynomial.variable(n, i) - Polynomial.variable(n, j)
            objective = objective + diff * diff

    space = VarSpace(tuple(f"x{i+1}" for i in range(n)))
    feasible = SemialgebraicSet(space, equalities=equalities, ball_radius=ball_radius)
    return POPProblem(objective=objective, feasible_set=feasible)


def build_polyopt() -> POPProblem:
    """Planar nonconvex benchmark: min -x2 over a disk cut by two curves.

    Bounds: -2 at order 1, -(1+sqrt(5))/2 from order 2 on, with the optimum
    at ((1-sqrt(5))/2, (1+sqrt(5))/2) certified by a rank-one moment matrix.
    """
    sp = VarSpace.of("x1", "x2")
    P = lambda s: parse_polynomial(s, sp)
    feasible = SemialgebraicSet(
        sp,
        inequalities=[
            P("3 + 2*x2 - x1^2 - x2^2"),
            P("-x1 - x2 - x1*x2"),
            P("1 + x1*x2"),
        ],
    )
    return POPProblem(objective=P("-x2"), feasible_set=feasible)


def build_unit_disk() -> SemialgebraicSet:
    sp = VarSpace.of("x1", "x2")
    return SemialgebraicSet(sp, inequalities=[parse_polynomial("1 - x1^2 - x2^2", sp)])


def build_occtraj(r: int) -> DynamicsProblem:
    """Free-time state-energy minimization along xdot = -x.

    Start distribution on [1, 2] (normalized), target set [-1/2, 1/2],
    trajectories confined to [-2, 2].  The optimal trajectory runs from 1 to
    1/2 in time log 2 with cost 3/8; the occupation-measure moments are
    y_a = (1 - 2^-a)/a.
    """
    dspace = VarSpace.of("t", "x1")
    dyn = DynamicsSpec(
        states=("x1",),
        cells=[("occ", [parse_polynomial("-x1", dspace)])],
        lagrangian=parse_polynomial("x1^2", dspace),
        initial="init",
        terminal="term",
    )
    x1 = VarSpace.of("x1")
    P = lambda s: parse_polynomial(s, x1)
    supports = {
        "occ": SemialgebraicSet(x1, inequalities=[P("4 - x1^2")]),
        "init": SemialgebraicSet(x1, inequalities=[P("1/4 - (x1 - 3/2)^2")]),
        "term": SemialgebraicSet(x1, inequalities=[P("1/4 - x1^2")]),
    }
    mass_one = MomentConstraint([("init", Polynomial.constant(1, 1))], Fraction(1), "eq")
    return build_dynamics_gmp(dyn, r, supports, extra_constraints=[mass_one])


LQR_MASS_CAP = 20


def build_lqr(r: int) -> DynamicsProblem:
    """Scalar free-time regulator: min int x^2 + u^2, xdot = u, 1 -> 0.

    The analytic optimum is the feedback u = -x with cost 1.  The occupation
    measure's support is all of (x, u); its mass (the horizon) is capped by
    an explicit constraint row because the true optimum needs infinite time
    and the moment problem's mass is otherwise unbounded above.
    """
    dspace = VarSpace.of("t", "x1", "u1")
    dyn = DynamicsSpec(
        states=("x1",),
        cells=[("occ", [parse_polynomial("u1", dspace)])],
        lagrangian=parse_polynomial("x1^2 + u1^2", dspace),
        initial=(1,),
        terminal=(0,),
        controls=("u1",),
    )
    cap = MomentConstraint(
        [("occ", Polynomial.constant(2, 1))], Fraction(LQR_MASS_CAP), "le"
    )
    return build_dynamics_gmp(dyn, r, {}, extra_constraints=[cap])


def build_bolza(r: int) -> DynamicsProblem:
    """Oscillation-limit problem: min int x^4 + (u^2 - 1)^2, xdot = u.

    Fixed unit horizon, both endpoints pinned at 0, |u| <= 1 and |x| <= 1.
    No admissible function attains the infimum, but chattering controls push
    the cost to 0, and every relaxation order bounds it below by 0 exactly.
    """
    occ = VarSpace.of("t", "x1", "u1")
    P = lambda s: parse_polynomial(s, occ)
    dyn = DynamicsSpec(
        states=("x1",),
        cells=[("occ", [P("u1")])],
        lagrangian=P("x1^4 + (u1^2 - 1)^2"),
        initial=(0,),
        terminal=(0,),
        controls=("u1",),
        horizon=Fraction(1),
    )
    supports = {
        "occ": SemialgebraicSet(occ, inequalities=[P("1 - u1^2"), P("1 - x1^2")]),
    }
    return build_dynamics_gmp(dyn, r, supports)


def build_saturation_cells(r: int) -> DynamicsProblem:
    """Desk-scale saturated double integrator over three regimes.

    xdot1 = x2 and xdot2 = -sat(x1 + x2) with unit saturation level, split
    into the linear cell |x1 + x2| <= 1 and the two saturated cells, all
    inside the ball of radius 2, over a fixed unit horizon.  Initial states
    fill the box [1/2, 1] x [-1/2, 1/2] (normalized), so the flow is a
    bundle crossing the saturation boundary; the objective chases the
    largest terminal squared norm.
    """
    dspace = VarSpace.of("t", "x1", "x2")
    P = lambda s: parse_polynomial(s, dspace)
    dyn = DynamicsSpec(
        states=("x1", "x2"),
        cells=[
            ("lin", [P("x2"), P("-x1 - x2")]),
            ("upper", [P("x2"), P("-1")]),
            ("lower", [P("x2"), P("1")]),
        ],
        lagrangian=Polynomial.zero(3),
        initial="init",
        terminal="term",
        horizon=Fraction(1),
    )
    ball = P("4 - x1^2 - x2^2")
    x12 = VarSpace.of("x1", "x2")
    R = lambda s: parse_polynomial(s, x12)
    supports = {
        "lin": SemialgebraicSet(dspace, inequalities=[P("1 - (x1 + x2)^2"), ball]),
        "upper": SemialgebraicSet(dspace, inequalities=[P("x1 + x2 - 1"), ball]),
        "lower": SemialgebraicSet(dspace, inequalities=[P("-1 - x1 - x2"), ball]),
        "init": SemialgebraicSet(
            x12,
            inequalities=[R("x1 - 1/2"), R("1 - x1"), R("x2 + 1/2"), R("1/2 - x2")],
        ),
        "term": SemialgebraicSet(x12, inequalities=[R("4 - x1^2 - x2^2")]),
    }
    mass_one = MomentConstraint([("init", Polynomial.constant(2, 1))], Fraction(1), "eq")
    return build_dynamics_gmp(
        dyn,
        r,
        supports,
        extra_constraints=[mass_one],
        objective=[("term", R("x1^2 + x2^2"))],
        sense="max",
    )


def build_two_cell_transport(r: int) -> DynamicsProblem:
    """Constant drift xdot = 1 from -1/2 to 1/2 across the cells [-1,0], [0,1].

    Free horizon; the trajectory spends exactly time 1/2 in each cell, so
    the two occupation masses are pinned near 1/2 as the order grows.
    """
    dspace = VarSpace.of("t", "x1")
    one = parse_polynomial("1", dspace)
    dyn = DynamicsSpec(
        states=("x1",),
        cells=[("left", [one]), ("right", [one])],
        lagrangian=Polynomial.zero(2),
        initial=(Fraction(-1, 2),),
        terminal=(Fraction(1, 2),),
    )
    x1 = VarSpace.of("x1")
    P = lambda s: parse_polynomial(s, x1)
    supports = {
        "left": SemialgebraicSet(x1, inequalities=[P("-x1"), P("1 + x1")]),
        "right": SemialgebraicSet(x1, inequalities=[P("x1"), P("1 - x1")]),
    }
    return build_dynamics_gmp(
        dyn,
        r,
        supports,
        objective=[
            ("left", parse_polynomial("x1^2", x1)),
            ("right", parse_polynomial("x1^2", x1)),
        ],
        sense="min",
    )
