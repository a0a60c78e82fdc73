"""Reference transport rows: one `Polynomial` per partial, product and sum.

This is `gmp.piecewise_liouville` as it stood before the rows were read
straight off the fields' term tables: for every test monomial v it forms
Lv = dv/dt + sum_i v.partial(i) * f_i in `Polynomial` arithmetic.  The
tests hold the term-table code to it term for term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from momentsdp.gmp import DynamicsSpec
from momentsdp.polynomials import Polynomial, VarSpace, exponents_up_to
from momentsdp.relaxation import MomentConstraint, OrderTooSmallError, minimal_order


def piecewise_liouville(dyn: DynamicsSpec, r: int) -> list[MomentConstraint]:
    cells = [(name, [dyn.to_occupation(p) for p in fs]) for name, fs in dyn.cells]
    fields = [p for _, fs in cells for p in fs]
    vmax = 2 * r - max(0, max((p.degree for p in fields), default=0) - 1)
    if vmax < 1:
        raise OrderTooSmallError(r, minimal_order(fields))

    nt = 0 if dyn.autonomous else 1
    test_space = VarSpace(dyn.occupation_names()[: nt + len(dyn.states)])
    pad = (0,) * len(dyn.controls)
    n_occ = len(dyn.occupation_names())
    rows: list[MomentConstraint] = []
    for exp in exponents_up_to(test_space.n, vmax):
        v = Polynomial.monomial(exp + pad)
        terms: list[tuple[str, Polynomial]] = []
        for name, fs in cells:
            lv = Polynomial.zero(n_occ)
            if nt:
                lv = lv + v.partial(0)
            for i, f in enumerate(fs):
                lv = lv + v.partial(nt + i) * f
            if not lv.is_zero():
                terms.append((name, lv))

        v_end = Polynomial.monomial(exp[nt:])
        v_start = Polynomial.zero(len(dyn.states)) if nt and exp[0] else v_end
        rhs: Union[Fraction, float] = Fraction(0)
        for end, v_at, sign in ((dyn.terminal, v_end, -1), (dyn.initial, v_start, 1)):
            if not isinstance(end, str):
                point = [Fraction(c) if isinstance(c, (int, Fraction)) else c for c in end]
                rhs = rhs - sign * v_at.evaluate(point)
            elif not v_at.is_zero():
                terms.append((end, sign * v_at))

        if not terms and rhs == 0:
            continue
        label = Polynomial.monomial(exp).to_string(test_space)
        rows.append(MomentConstraint(terms=terms, rhs=rhs, relation="eq", label=label))
    return rows
