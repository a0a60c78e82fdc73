"""Generalized moment problems over several measures.

A problem consists of named measures with semialgebraic supports, linear
constraints between their moments, and a linear moment objective.  The
order-r relaxation is one call to `relaxation.assemble`, which gives every
measure its own truncated moment vector (degree 2r), a moment-matrix block
and localizing blocks per support constraint, and stacks the cross-measure
rows on top.

A trajectory problem is one record, `DynamicsSpec`: polynomial dynamics on
one or more disjoint cells, each with its own vector field and occupation
measure, between an initial and a terminal endpoint, over a free or fixed
horizon.  `piecewise_liouville` generates its weak-form transport rows: for
every test monomial v the row

    sum_j <dv/dt + (grad_x v)' f_j, mu_j>  =  <v(T,.), mu_T> - <v(0,.), mu_0>

becomes a linear moment constraint, and `build_dynamics_gmp` adds the
measures, their supports and the objective.  Endpoints may be unknown
measures or fixed points (whose contribution folds into the right-hand
side).  Fixed horizons are rescaled to [0, 1] internally for conditioning;
free-horizon problems must be autonomous, drop the time variable altogether,
and read the terminal time off as the mass of the occupation measures.
Controls never get their own measure: the joint occupation measure over
(t, x, u) carries them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import Optional, Sequence, Union

import numpy as np

from .moments import MomentVector
from .polynomials import Coeff, Exponent, Polynomial, VarSpace, exponents_up_to
from .relaxation import (
    AssembledProgram,
    DegreeTooHighError,  # re-exported for callers of momentsdp.gmp
    MomentConstraint,
    OrderTooSmallError,
    RelaxationInfo,
    SemialgebraicSet,
    assemble,
    minimal_order,
)
from .sdp import SDPSolution, SolveOptions, solve

TIME_VAR = "t"


@dataclass
class MeasureDecl:
    """An unknown positive measure with a named variable list and support."""

    name: str
    support: SemialgebraicSet

    @property
    def variables(self) -> tuple[str, ...]:
        return self.support.space.names

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError(f"measure {self.name!r} needs at least one variable")


@dataclass
class GMPProblem:
    measures: list[MeasureDecl]
    constraints: list[MomentConstraint]
    objective: list[tuple[str, Polynomial]]
    sense: str = "min"
    objective_constant: float = 0.0

    def __post_init__(self) -> None:
        names = [m.name for m in self.measures]
        if len(set(names)) != len(names):
            raise ValueError("measure names must be unique")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        byname = self.by_name()
        for con in self.constraints:
            for name, poly in con.terms:
                decl = byname.get(name)
                if decl is None:
                    raise KeyError(f"constraint references unknown measure {name!r}")
                if poly.nvars != len(decl.variables):
                    raise ValueError(f"constraint polynomial does not match measure {name!r}")
        for name, poly in self.objective:
            decl = byname.get(name)
            if decl is None:
                raise KeyError(f"objective references unknown measure {name!r}")
            if poly.nvars != len(decl.variables):
                raise ValueError(f"objective polynomial does not match measure {name!r}")

    def by_name(self) -> dict[str, MeasureDecl]:
        return {m.name: m for m in self.measures}

    def minimal_order(self) -> int:
        """Least order whose moment degree 2r holds every support, row and cost."""
        polys = [p for _, p in self.objective]
        for m in self.measures:
            polys += m.support.effective_inequalities() + m.support.equalities
        for con in self.constraints:
            polys += [p for _, p in con.terms]
        return minimal_order(polys)


# -- dynamics ----------------------------------------------------------------


EndpointSpec = Union[str, Sequence[Union[int, float, Fraction]]]


@dataclass
class DynamicsSpec:
    """Polynomial dynamics on disjoint cells between two endpoints.

    Each cell `(name, [f1, ..., fn])` is one occupation measure with its own
    vector field xdot = f(t, x, u); the cells' measures sum to the global
    occupation measure, and their disjointness is the caller's assertion.
    The fields and `lagrangian` live over (t, states..., controls...),
    `terminal_cost` over the states.  An endpoint is a measure name or a
    point of the states.  A free horizon (`horizon=None`) requires
    autonomous data: neither a field nor the lagrangian may involve t.
    """

    states: tuple[str, ...]
    cells: list[tuple[str, list[Polynomial]]]
    lagrangian: Polynomial
    initial: EndpointSpec
    terminal: EndpointSpec
    controls: tuple[str, ...] = ()
    terminal_cost: Optional[Polynomial] = None
    horizon: Optional[Union[float, Fraction]] = None

    def __post_init__(self) -> None:
        n = 1 + len(self.states) + len(self.controls)
        if not self.cells:
            raise ValueError("need at least one dynamics cell")
        for name, fs in self.cells:
            if len(fs) != len(self.states):
                raise ValueError(f"cell {name!r} needs one dynamics polynomial per state")
            if any(p.nvars != n for p in fs):
                raise ValueError(f"cell {name!r}: dynamics must live over (t, states, controls)")
        if self.lagrangian.nvars != n:
            raise ValueError("lagrangian must live over (t, states, controls)")
        if self.terminal_cost is not None and self.terminal_cost.nvars != len(self.states):
            raise ValueError("terminal cost must live over the states")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError("fixed horizon must be positive")
        data = [p for _, fs in self.cells for p in fs] + [self.lagrangian]
        if self.autonomous and any(0 in p.used_variables() for p in data):
            raise ValueError("free-horizon dynamics must not depend on time")
        for which, end in (("initial", self.initial), ("terminal", self.terminal)):
            if not isinstance(end, str) and len(tuple(end)) != len(self.states):
                raise ValueError(f"{which} point dimension does not match the states")
        names = [name for name, _ in self.cells]
        names += [e for e in (self.initial, self.terminal) if isinstance(e, str)]
        if len(set(names)) != len(names):
            raise ValueError("measure names must be unique")

    @property
    def autonomous(self) -> bool:
        return self.horizon is None

    def dynamics_space(self) -> VarSpace:
        return VarSpace((TIME_VAR,) + self.states + self.controls)

    def occupation_names(self) -> tuple[str, ...]:
        time = () if self.autonomous else (TIME_VAR,)
        return time + self.states + self.controls

    def measure_spaces(self) -> dict[str, VarSpace]:
        """Each measure's variables: the cells', then the endpoint measures'."""
        out = {name: VarSpace(self.occupation_names()) for name, _ in self.cells}
        for end in (self.initial, self.terminal):
            if isinstance(end, str):
                out[end] = VarSpace(self.states)
        return out

    def to_occupation(self, p: Polynomial) -> Polynomial:
        """A (t, x, u) polynomial over the occupation measure's variables.

        A free horizon drops t; a fixed horizon T rescales time to [0, 1]
        (t -> T*t, and dt -> T dt), exactly when T is rational.
        """
        if self.autonomous:
            k = len(self.states) + len(self.controls)
            return p.map_variables(k, [0] + list(range(k)))
        h = self.horizon
        T = Fraction(h) if isinstance(h, (int, Fraction)) else h
        scaled = {exp: c * T ** exp[0] if exp[0] else c for exp, c in p.terms.items()}
        return Polynomial(p.nvars, scaled) * T


def time_box(nvars: int) -> Polynomial:
    """t(1 - t), t the first of `nvars` variables: the rescaled fixed horizon."""
    t = Polynomial.variable(nvars, 0)
    return t * (Polynomial.constant(nvars, 1) - t)


@dataclass
class LiouvilleInfo:
    test_degree: int
    trimmed: bool
    rows: int


def _transport(a: Exponent, nt: int, fs: list[Polynomial]) -> dict[Exponent, Coeff]:
    """The terms of Lv for v = x^a: dv/dt when `nt`, then each a_i x^(a - e_i) f_i.

    dv/dx_i f_i is read straight off f_i's terms.  They are summed in the
    order of the `Polynomial` sum dv/dt + sum_i v.partial(i) * f_i, and
    zeros are dropped after each field as `+` drops them, so the result is
    that sum's terms, in the same order.
    """
    lv: dict[Exponent, Coeff] = {}
    if nt and a[0]:
        lv[(a[0] - 1,) + a[1:]] = Fraction(a[0])
    for i, f in enumerate(fs, start=nt):
        k = a[i]
        if not k:
            continue
        base = a[:i] + (k - 1,) + a[i + 1 :]
        for e, c in f.terms.items():
            e = tuple(map(add, base, e))
            acc = lv.get(e)
            lv[e] = k * c if acc is None else acc + k * c
        if 0 in lv.values():
            lv = {e: c for e, c in lv.items() if c != 0}
    return lv


def piecewise_liouville(
    dyn: DynamicsSpec, r: int
) -> tuple[list[MomentConstraint], LiouvilleInfo]:
    """Transport rows of the dynamics, one per nonvanishing test monomial.

    Each cell contributes <Lv, mu_j> with its own vector field.  A test
    monomial v lives over (t, x) for a fixed horizon and over x for a free
    one; it becomes a monomial over the occupation variables by padding its
    exponent with zeros for the controls.
    """
    cells = [(name, [dyn.to_occupation(p) for p in fs]) for name, fs in dyn.cells]
    fields = [p for _, fs in cells for p in fs]
    vmax = 2 * r - max(0, max((p.degree for p in fields), default=0) - 1)
    if vmax < 1:
        raise OrderTooSmallError(r, minimal_order(fields))

    nt = 0 if dyn.autonomous else 1  # the time slot of a test exponent
    test_space = VarSpace(dyn.occupation_names()[: nt + len(dyn.states)])
    pad = (0,) * len(dyn.controls)
    n_occ = len(dyn.occupation_names())
    rows: list[MomentConstraint] = []
    for exp in exponents_up_to(test_space.n, vmax):
        terms: list[tuple[str, Polynomial]] = []
        for name, fs in cells:
            lv = _transport(exp + pad, nt, fs)
            if lv:
                terms.append((name, Polynomial._of(n_occ, lv)))

        # v over the states at the (scaled) terminal time 1 and at time 0,
        # where a factor of t vanishes; point endpoints fold into the rhs
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

    return rows, LiouvilleInfo(test_degree=vmax, trimmed=vmax < 2 * r, rows=len(rows))


# -- dynamics problems as GMPs -------------------------------------------------


@dataclass
class DynamicsProblem:
    """A trajectory-optimization GMP plus the data needed to interpret it."""

    dynamics: DynamicsSpec
    gmp: GMPProblem
    liouville_rows: list[MomentConstraint]
    info: LiouvilleInfo


def build_dynamics_gmp(
    dyn: DynamicsSpec,
    r: int,
    supports: dict[str, SemialgebraicSet],
    extra_constraints: Optional[list[MomentConstraint]] = None,
    objective: Optional[list[tuple[str, Polynomial]]] = None,
    sense: str = "min",
) -> DynamicsProblem:
    """Expand dynamics into a GMP: measures, transport rows, objective.

    `supports` maps measure names to sets over their variables
    (`DynamicsSpec.measure_spaces`); a measure without one is unconstrained.
    For a fixed horizon the time box t(1-t) >= 0 is appended to every
    occupation support that does not already hold it.  The default
    objective is the lagrangian on every cell plus the terminal cost.

    Free-horizon problems leave the occupation mass (the terminal time)
    unbounded above; a problem whose support does not bound it needs a
    mass(mu_j) <= cap row among `extra_constraints`.
    """
    spaces = dyn.measure_spaces()
    for name in supports:
        if name not in spaces:
            raise ValueError(f"support given for undeclared measure {name!r}")
    rows, info = piecewise_liouville(dyn, r)

    cells = [name for name, _ in dyn.cells]
    measures: list[MeasureDecl] = []
    for name, space in spaces.items():
        supp = supports[name] if name in supports else SemialgebraicSet(space)
        if supp.space.names != space.names:
            raise ValueError(
                f"support of {name!r} must be over {space.names}, got {supp.space.names}"
            )
        if name in cells and not dyn.autonomous:
            box = time_box(space.n)
            if box not in supp.inequalities:
                supp = replace(supp, inequalities=list(supp.inequalities) + [box])
        measures.append(MeasureDecl(name, supp))

    obj_const = 0.0
    if objective is None:
        objective = []
        if not dyn.lagrangian.is_zero():
            objective = [(name, dyn.to_occupation(dyn.lagrangian)) for name in cells]
        cost = dyn.terminal_cost
        if cost is not None and not cost.is_zero():
            if isinstance(dyn.terminal, str):
                objective.append((dyn.terminal, cost))
            else:
                obj_const += float(cost.evaluate(list(dyn.terminal)))

    gmp = GMPProblem(
        measures=measures,
        constraints=rows + list(extra_constraints or []),
        objective=objective,
        sense=sense,
        objective_constant=obj_const,
    )
    return DynamicsProblem(dynamics=dyn, gmp=gmp, liouville_rows=rows, info=info)


def unscale_time_moments(dp: DynamicsProblem, moments: dict[str, MomentVector]) -> dict[str, MomentVector]:
    """Undo the internal [0,1] time scaling on occupation-measure moments.

    A monomial t^a x^b u^c integrates to T^(a+1) times its scaled value.
    Endpoint measures are over states only and need no rescaling.
    """
    dyn = dp.dynamics
    if dyn.autonomous or float(dyn.horizon) == 1.0:
        return moments
    T = float(dyn.horizon)
    out = dict(moments)
    for name, _ in dyn.cells:
        y = moments[name]
        vals = np.asarray(y.values, dtype=float).copy()
        for k, exp in enumerate(y.exponents()):
            vals[k] *= T ** (exp[0] + 1)
        out[name] = MomentVector(y.nvars, y.degree, vals)
    return out


# -- relaxation ----------------------------------------------------------------


def build_gmp_relaxation(
    g: GMPProblem, r: int
) -> tuple[AssembledProgram, dict[str, RelaxationInfo]]:
    """Order-r relaxation: per-measure moment/localizing blocks plus the rows.

    The info is one `RelaxationInfo` per measure; the row counts are the
    sizes of the program's zero (equality) and nonneg (inequality) blocks.
    """
    asm = assemble(
        {m.name: m.support for m in g.measures},
        r,
        g.constraints,
        g.objective,
        g.sense,
        g.objective_constant,
    )
    return asm, asm.measures


@dataclass
class GMPResult:
    bound: float
    moments: dict[str, MomentVector]
    solution: SDPSolution
    info: dict[str, RelaxationInfo]
    assembled: AssembledProgram
    # the second, minimal-time solve of `resolve_minimal_time`, kept whatever
    # its status; its moments replaced the occupation moments only if optimal
    minimal_time: Optional[SDPSolution] = None


def solve_gmp(g: GMPProblem, r: int, options: SolveOptions | None = None) -> GMPResult:
    """Relax at order r and solve; the bound and per-measure moments."""
    asm, info = build_gmp_relaxation(g, r)
    sol = solve(asm.program, options)
    moments = {m.name: asm.moments_of(m.name, sol.y) for m in g.measures}
    return GMPResult(
        bound=asm.bound_from(sol), moments=moments, solution=sol, info=info, assembled=asm
    )


# least relative width of the slab that pins the cost in the minimal-time solve
_PIN_SLACK = 1e-8


def resolve_minimal_time(
    dp: DynamicsProblem,
    r: int,
    first: GMPResult,
    options: SolveOptions | None = None,
) -> GMPResult:
    """Among near-optimal solutions, pick the one of least occupation mass.

    A free-horizon occupation measure may park spurious mass at equilibria
    without changing the objective or any transport row, so the solver's
    mass is only bounded below.  This second solve pins the cost within the
    first solve's gap tolerance (at least `_PIN_SLACK`, relative) of its
    bound, which that solve knows no better, and minimizes the total
    occupation mass, i.e. the terminal time.  The returned result keeps the
    first phase's bound and status and records the second solve as
    ``minimal_time``; the moments are replaced only when that ends ``optimal``.

    The second problem sits on a thin slab of the first one's feasible set,
    so its primal/dual objectives agree only to a few digits; the default
    tolerances reflect that.
    """
    g = dp.gmp
    if not dp.dynamics.autonomous:
        return first
    base = options or SolveOptions()
    eps = max(_PIN_SLACK, base.gap_tol) * (1.0 + abs(first.bound))
    pin_rel = "le" if g.sense == "min" else "ge"
    pin_rhs = first.bound + eps if g.sense == "min" else first.bound - eps
    pin = MomentConstraint(list(g.objective), pin_rhs - g.objective_constant, pin_rel)
    one = Polynomial.constant(len(dp.dynamics.occupation_names()), 1)
    g2 = GMPProblem(
        measures=g.measures,
        constraints=list(g.constraints) + [pin],
        objective=[(name, one) for name, _ in dp.dynamics.cells],
        sense="min",
    )
    phase2_options = replace(
        base, gap_tol=max(1e-4, base.gap_tol), feas_tol=max(1e-5, base.feas_tol)
    )
    second = solve_gmp(g2, r, phase2_options)
    if second.solution.status != "optimal":
        return replace(first, minimal_time=second.solution)
    # only the occupation measures carried the indeterminate mass; endpoint
    # moments were already pinned at the optimum and the first (tighter)
    # solve knows them best
    moments = dict(first.moments)
    for name, _ in dp.dynamics.cells:
        moments[name] = second.moments[name]
    return GMPResult(
        bound=first.bound,
        moments=moments,
        solution=first.solution,
        info=first.info,
        assembled=first.assembled,
        minimal_time=second.solution,
    )
