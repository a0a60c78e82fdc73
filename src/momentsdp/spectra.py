"""Affine matrix pencils: defining polynomials, membership, shadow sampling.

The feasible set of F(x) = F0 + sum_k x_k F_k >= 0 is cut out by the
coefficients of det(t I + F(x)) in t: the sums f_k(x) of all k-by-k
principal minors of F(x), which are the elementary symmetric functions of
its eigenvalues.  They are expanded here symbolically over exact rationals.

`shadow_support_points` probes the projection of a moment relaxation's
feasible set onto two chosen first-order moments: for each direction it
maximizes the projected linear functional, returning support points and
values whose halfspaces sandwich the projected set from outside.  The
relaxation is assembled once, and the directions differ only in its
right-hand side b: `sdp.solve_batch` solves them all over one layout, in
one iteration loop, each with the bits of its own solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .polynomials import Polynomial
from .relaxation import POPProblem, SemialgebraicSet, build_relaxation
from .sdp import SolveOptions, solve_batch

MAX_SYMBOLIC_SIDE = 8


@dataclass
class Pencil:
    """F(x) = F0 + sum x_k F_k with symmetric rational matrices.

    `coefficients[k]` holds F_k as a tuple-of-tuples of Fractions
    (k = 0 is the constant matrix).
    """

    nvars: int
    side: int
    coefficients: list[tuple[tuple[Fraction, ...], ...]]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.nvars + 1:
            raise ValueError("need the constant matrix plus one matrix per variable")
        clean = []
        for M in self.coefficients:
            rows = tuple(tuple(Fraction(v) for v in row) for row in M)
            if len(rows) != self.side or any(len(r) != self.side for r in rows):
                raise ValueError(f"matrices must be {self.side}x{self.side}")
            for i in range(self.side):
                for j in range(i + 1, self.side):
                    if rows[i][j] != rows[j][i]:
                        raise ValueError("pencil matrices must be symmetric")
            clean.append(rows)
        self.coefficients = clean

    @staticmethod
    def from_arrays(mats: Sequence[Sequence[Sequence]]) -> "Pencil":
        mats = list(mats)
        side = len(mats[0])
        return Pencil(nvars=len(mats) - 1, side=side, coefficients=[
            tuple(tuple(Fraction(v) for v in row) for row in M) for M in mats
        ])

    def float_matrices(self) -> list[np.ndarray]:
        return [np.array([[float(v) for v in row] for row in M]) for M in self.coefficients]

    def evaluate(self, x: Sequence[float]) -> np.ndarray:
        if len(x) != self.nvars:
            raise ValueError(f"point has dimension {len(x)}, expected {self.nvars}")
        mats = self.float_matrices()
        F = mats[0].copy()
        for k, xk in enumerate(x):
            F += float(xk) * mats[k + 1]
        return F

    def entry_polynomial(self, i: int, j: int) -> Polynomial:
        terms = {}
        c0 = self.coefficients[0][i][j]
        if c0 != 0:
            terms[(0,) * self.nvars] = c0
        for k in range(self.nvars):
            c = self.coefficients[k + 1][i][j]
            if c != 0:
                e = [0] * self.nvars
                e[k] = 1
                terms[tuple(e)] = c
        return Polynomial(self.nvars, terms)


def _minor_determinant(
    entries: dict[tuple[int, int], Polynomial],
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    nvars: int,
    memo: dict,
) -> Polynomial:
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not rows:
        out = Polynomial.constant(nvars, 1)
    else:
        out = Polynomial.zero(nvars)
        r0 = rows[0]
        rest = rows[1:]
        for pos, c in enumerate(cols):
            e = entries[(r0, c)]
            if e.is_zero():
                continue
            sub = _minor_determinant(entries, rest, cols[:pos] + cols[pos + 1 :], nvars, memo)
            term = e * sub
            out = out + term if pos % 2 == 0 else out - term
    memo[key] = out
    return out


def defining_polynomials(pencil: Pencil) -> list[Polynomial]:
    """f_k(x) = sum of all k-by-k principal minors of F(x), k = 1..side.

    Exact rational expansion; the feasible set of the pencil equals
    {x : f_k(x) >= 0 for all k}.  Limited to side <= 8, where direct minor
    expansion stays cheap.
    """
    m = pencil.side
    if m > MAX_SYMBOLIC_SIDE:
        raise ValueError(f"symbolic minors are limited to side {MAX_SYMBOLIC_SIDE}, got {m}")
    n = pencil.nvars
    entries = {
        (i, j): pencil.entry_polynomial(i, j) for i in range(m) for j in range(m)
    }
    memo: dict = {}
    out: list[Polynomial] = []
    from itertools import combinations

    for k in range(1, m + 1):
        f_k = Polynomial.zero(n)
        for subset in combinations(range(m), k):
            f_k = f_k + _minor_determinant(entries, subset, subset, n, memo)
        out.append(f_k)
    return out


def membership(pencil: Pencil, x: Sequence[float], tol: float = 1e-9) -> bool:
    """Whether F(x) is positive semidefinite up to -tol on the spectrum."""
    F = pencil.evaluate(x)
    return bool(np.linalg.eigvalsh(F)[0] >= -tol)


@dataclass
class ShadowPoint:
    direction: tuple[float, float]
    point: tuple[float, float]  # projected first-order moments of the maximizer
    value: float  # support value: max over the shadow of <direction, .>
    status: str


def shadow_support_points(
    pop_set: SemialgebraicSet,
    r: int,
    directions: Sequence[Sequence[float]],
    projection: tuple[int, int] = (0, 1),
    options: Optional[SolveOptions] = None,
) -> list[ShadowPoint]:
    """Support points of the order-r relaxation's projected moment set.

    For each unit direction c, maximizes c1*y_{e_i} + c2*y_{e_j} over the
    relaxation feasible set (y_0 = 1, moment and localizing blocks) and
    reports the optimizer's projected first-order moments together with the
    support value, and the status of that direction's solve.  The halfspace
    {p : <c, p> <= value} of an ``optimal`` point contains the projection of
    the original set; a point of another status is no support point (see
    `shadow_table`).
    """
    n = pop_set.space.n
    i, j = projection
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"projection index out of range: the problem has {n} variables")
    if i == j:
        raise ValueError("projection must name two distinct variables")
    asm, _ = build_relaxation(POPProblem(Polynomial.zero(n), pop_set), r)
    ei = tuple(int(t == i) for t in range(n))
    ej = tuple(int(t == j) for t in range(n))
    functionals = [[("mu", Polynomial(n, {ei: float(c[0]), ej: float(c[1])}))] for c in directions]
    objectives = []
    for functional in functionals:
        asm.set_objective(functional, "max")
        objectives.append(asm.program.b)
    out: list[ShadowPoint] = []
    for c, functional, sol in zip(directions, functionals, solve_batch(asm.program, objectives, options)):
        asm.set_objective(functional, "max")
        y = asm.moments_of("mu", sol.y)
        out.append(
            ShadowPoint(
                direction=(float(c[0]), float(c[1])),
                point=(float(y.value(ei)), float(y.value(ej))),
                value=asm.bound_from(sol),
                status=sol.status,
            )
        )
    return out


def shadow_table(points: Sequence[ShadowPoint]) -> str:
    """Plain-text table `cx cy sx sy value status`, one row per direction.

    The status is the solve's: a row that is not `optimal` is no support point.
    """
    lines = ["# cx cy sx sy value status"]
    for p in points:
        lines.append(
            f"{p.direction[0]:.12g} {p.direction[1]:.12g} "
            f"{p.point[0]:.12g} {p.point[1]:.12g} {p.value:.12g} {p.status}"
        )
    return "\n".join(lines) + "\n"


def unit_directions(k: int) -> list[tuple[float, float]]:
    """k evenly spaced unit vectors on the circle, starting at (1, 0)."""
    if k <= 0:
        raise ValueError("need at least one direction")
    return [
        (float(np.cos(2 * np.pi * t / k)), float(np.sin(2 * np.pi * t / k))) for t in range(k)
    ]
