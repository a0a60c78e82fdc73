"""Reference relaxation assembly: stencils as dicts, one row per equality product.

This is the assembly as it stood before stencils, equality families and the
prune's Gram matrix moved onto integer index arrays: per-cell dicts of
(exponent, Fraction) pairs, one `LinearRow` per product q * x^alpha, a
loop-based grlex rank, and a Gram matrix filled one column of the rows at a
time.  The tests hold the array code to it bit for bit.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Sequence

import numpy as np
import scipy.linalg

from momentsdp.moments import MissingMomentError, MomentVector
from momentsdp.polynomials import Coeff, Exponent, Polynomial, monomial_count
from momentsdp.relaxation import (
    _TIE_WEIGHT,
    AssembledProgram,
    DegreeTooHighError,
    LinearRow,
    MomentConstraint,
    OrderTooSmallError,
    RelaxationInfo,
    SemialgebraicSet,
    half_degree,
    minimal_order,
)
from momentsdp.sdp import Block, BlockData, ConicProgram

# -- ranks and exponents ------------------------------------------------------

_RANKS: dict[tuple, int] = {}


def grlex_rank(exponent: Exponent) -> int:
    """Grlex rank by counting, entry by entry, the exponents that precede it."""
    key = tuple(exponent)
    if key in _RANKS:
        return _RANKS[key]
    n = len(key)
    if n == 0:
        return 0
    d = 0
    for e in key:
        if e < 0:
            raise ValueError(f"negative exponent in {key}")
        d += e
    idx = monomial_count(n, d - 1) if d > 0 else 0
    rem = d
    for i in range(n - 1):
        ei = key[i]
        # exponents whose i-th entry exceeds ei precede this one
        for a in range(rem, ei, -1):
            idx += _count_exact(n - i - 1, rem - a)
        rem -= ei
    _RANKS[key] = idx
    return idx


def _count_exact(nvars: int, deg: int) -> int:
    # monomials of exactly `deg` in `nvars` variables
    if nvars == 0:
        return 1 if deg == 0 else 0
    return comb(deg + nvars - 1, nvars - 1)


def grlex_exponent(n: int, k: int) -> Exponent:
    """The k-th exponent of n variables, chosen entry by entry."""
    d = 0
    while monomial_count(n, d) <= k:
        d += 1
    rem_k = k - (monomial_count(n, d - 1) if d > 0 else 0)
    rem_d = d
    out: list[int] = []
    for i in range(n - 1):
        for a in range(rem_d, -1, -1):
            c = _count_exact(n - i - 1, rem_d - a)
            if rem_k < c:
                out.append(a)
                rem_d -= a
                break
            rem_k -= c
    out.append(rem_d)
    return tuple(out)


def exponents_up_to(n: int, d: int) -> list[Exponent]:
    return [grlex_exponent(n, k) for k in range(monomial_count(n, d))]


# -- stencils -----------------------------------------------------------------


@dataclass
class Stencil:
    """``cells[(i, j)]`` for i <= j lists the cell's (exponent, coefficient) pairs."""

    nvars: int
    order: int
    cells: dict[tuple[int, int], list[tuple[Exponent, Coeff]]]
    row_exponents: list[Exponent] = field(default_factory=list)

    @property
    def side(self) -> int:
        return len(self.row_exponents)


def moment_matrix_stencil(nvars: int, order: int) -> Stencil:
    rows = exponents_up_to(nvars, order)
    cells: dict[tuple[int, int], list[tuple[Exponent, Coeff]]] = {}
    for i, ei in enumerate(rows):
        for j in range(i, len(rows)):
            s = tuple(a + b for a, b in zip(ei, rows[j]))
            cells[(i, j)] = [(s, Fraction(1))]
    return Stencil(nvars, order, cells, rows)


def localizing_matrix_stencil(q: Polynomial, order: int) -> Stencil:
    rows = exponents_up_to(q.nvars, order)
    cells: dict[tuple[int, int], list[tuple[Exponent, Coeff]]] = {}
    for i, ei in enumerate(rows):
        for j in range(i, len(rows)):
            base = tuple(a + b for a, b in zip(ei, rows[j]))
            pairs: list[tuple[Exponent, Coeff]] = []
            for gamma, c in q.terms.items():
                pairs.append((tuple(a + b for a, b in zip(base, gamma)), c))
            pairs.sort(key=lambda pc: grlex_rank(pc[0]))
            cells[(i, j)] = pairs
    return Stencil(q.nvars, order, cells, rows)


def evaluate_stencil(stencil: Stencil, y: MomentVector) -> np.ndarray:
    n = stencil.side
    out = np.zeros((n, n))
    for (i, j), pairs in stencil.cells.items():
        v = 0.0
        for exp, c in pairs:
            if sum(exp) > y.degree:
                raise MissingMomentError(exp, y.degree)
            v += float(c) * float(y.values[grlex_rank(exp)])
        out[i, j] = v
        out[j, i] = v
    return out


# -- one measure --------------------------------------------------------------


@dataclass
class Plan:
    psd_stencils: list[Stencil]
    equality_rows: list[tuple[dict[Exponent, Coeff], Fraction]]  # lhs terms, rhs
    r_k: list[int]
    r_x: int
    compactness_certified: bool


def measure_plan(supp: SemialgebraicSet, r: int) -> Plan:
    n = supp.space.n
    ineqs = supp.effective_inequalities()
    r_k = [half_degree(q) for q in ineqs] + [half_degree(q) for q in supp.equalities]
    r_x = minimal_order(ineqs + supp.equalities)
    if r < r_x:
        raise OrderTooSmallError(r, r_x)
    stencils = [moment_matrix_stencil(n, r)]
    for q in ineqs:
        stencils.append(localizing_matrix_stencil(q, r - half_degree(q)))
    rows: list[tuple[dict[Exponent, Coeff], Fraction]] = []
    for q in supp.equalities:
        for alpha in exponents_up_to(n, 2 * r - q.degree):
            lhs: dict[Exponent, Coeff] = {}
            for exp, c in q.terms.items():
                s = tuple(a + b for a, b in zip(exp, alpha))
                lhs[s] = lhs.get(s, Fraction(0)) + c
            rows.append(({e: c for e, c in lhs.items() if c != 0}, Fraction(0)))
    return Plan(stencils, rows, r_k, r_x, supp.certifies_compactness())


def measure_data(plan: Plan, off: int, eq_rows: list[LinearRow]) -> list[BlockData]:
    """Append a measure's equality rows to `eq_rows`; return its PSD data, A_k = -S_k."""
    eq_rows += [
        LinearRow({off + grlex_rank(e): Fraction(c) for e, c in lhs.items()}, Fraction(rhs), "eq")
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
                k = off + grlex_rank(exp)
                for cell in cells:
                    rows.append(k)
                    cols.append(cell)
                    vals.append(-float(c))
        data.append(BlockData(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(vals)))
    return data


# -- the prune ----------------------------------------------------------------


def prune_dependent_rows(rows: list[LinearRow], n_cols: int) -> list[LinearRow]:
    if not rows:
        return rows
    G = weighted_gram(rows, n_cols)
    _, piv, rank, info = scipy.linalg.lapack.dpstrf(G, lower=1, overwrite_a=1)
    assert info >= 0
    return [rows[i] for i in sorted(piv[:rank] - 1)]


def weighted_gram(rows: list[LinearRow], n_cols: int) -> np.ndarray:
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
    G = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=np.float64).reshape((n, n), order="F")
    for k in sorted(cols):
        idx, vals = (np.array(a) for a in cols[k])
        i, j = np.tril_indices(len(idx))
        G[idx[i], idx[j]] += vals[i] * vals[j]
    return G


# -- the program --------------------------------------------------------------


def rows_and_data(
    supports: dict[str, SemialgebraicSet], r: int, constraints: Sequence[MomentConstraint]
):
    """Plans, offsets, the equality and inequality rows and the PSD data, as assembled."""
    plans = {name: measure_plan(supp, r) for name, supp in supports.items()}
    exps = {name: exponents_up_to(supp.space.n, 2 * r) for name, supp in supports.items()}
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
                k = off + grlex_rank(exp)
                coeffs[k] = coeffs.get(k, Fraction(0)) + Fraction(c)
        rhs = Fraction(con.rhs)
        if con.relation == "eq":
            eq_rows.append(LinearRow(coeffs, rhs, "eq"))
        elif con.relation == "ge":
            ge_rows.append(LinearRow(coeffs, rhs, "ge"))
        else:
            ge_rows.append(LinearRow({k: -c for k, c in coeffs.items()}, -rhs, "ge"))
    A: list[BlockData] = []
    for name, off in offsets.items():
        A += measure_data(plans[name], off, eq_rows)
    return plans, exps, offsets, m, eq_rows, ge_rows, A


def assemble(
    supports: dict[str, SemialgebraicSet],
    r: int,
    constraints: Sequence[MomentConstraint],
    objective: Sequence[tuple[str, Polynomial]],
    sense: str,
    objective_constant: float = 0.0,
) -> AssembledProgram:
    plans, exps, offsets, m, eq_rows, ge_rows, A = rows_and_data(supports, r, constraints)
    measures = {
        name: RelaxationInfo(r, p.r_k, p.r_x, [st.side for st in p.psd_stencils],
                             len(exps[name]), p.compactness_certified)
        for name, p in plans.items()
    }
    blocks = [Block("psd", s) for mi in measures.values() for s in mi.block_sizes]
    C: list[np.ndarray] = [np.zeros((blk.size, blk.size)) for blk in blocks]
    eq_rows = prune_dependent_rows(eq_rows, m)
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
