"""Generalized moment problems over several measures.

A problem consists of named measures with semialgebraic supports, linear
constraints between their moments, and a linear moment objective.  The
order-r relaxation is one call to `relaxation.assemble`, which gives every
measure its own truncated moment vector (degree 2r), a moment-matrix block
and localizing blocks per support constraint, and stacks the cross-measure
rows on top.

The module also generates the weak-form transport rows that tie an
occupation measure of a polynomial ODE to its initial and terminal measures:
for every test monomial v the row

    <dv/dt + (grad_x v)' f, mu>  =  <v(T,.), mu_T> - <v(0,.), mu_0>

becomes a linear moment constraint.  Endpoints may be unknown measures or
fixed points (whose contribution folds into the right-hand side).  Fixed
horizons are rescaled to [0, 1] internally for conditioning; free-horizon
problems must be autonomous, drop the time variable altogether, and read the
terminal time off as the mass of the occupation measure.  Controls never get
their own measure: the joint occupation measure over (t, x, u) carries them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .moments import MomentVector
from .polynomials import Exponent, Polynomial, VarSpace, exponents_up_to
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
    """Polynomial controlled dynamics xdot = f(t, x, u) with running cost.

    `f` and `lagrangian` live over the space (t, states..., controls...);
    `terminal_cost` over the states alone.  A free horizon (`horizon=None`)
    requires autonomous data: f and lagrangian must not involve t.
    """

    states: tuple[str, ...]
    f: list[Polynomial]
    lagrangian: Polynomial
    controls: tuple[str, ...] = ()
    terminal_cost: Optional[Polynomial] = None
    horizon: Optional[Union[float, Fraction]] = None

    def __post_init__(self) -> None:
        n = 1 + len(self.states) + len(self.controls)
        if len(self.f) != len(self.states):
            raise ValueError("need one dynamics polynomial per state")
        for p in self.f:
            if p.nvars != n:
                raise ValueError("dynamics polynomials must live over (t, states, controls)")
        if self.lagrangian.nvars != n:
            raise ValueError("lagrangian must live over (t, states, controls)")
        if self.terminal_cost is not None and self.terminal_cost.nvars != len(self.states):
            raise ValueError("terminal cost must live over the states")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError("fixed horizon must be positive")
        if self.autonomous:
            for p in list(self.f) + [self.lagrangian]:
                if 0 in p.used_variables():
                    raise ValueError("free-horizon dynamics must not depend on time")

    @property
    def autonomous(self) -> bool:
        return self.horizon is None

    @property
    def state_dim(self) -> int:
        return len(self.states)

    @property
    def control_dim(self) -> int:
        return len(self.controls)

    def dynamics_space(self) -> VarSpace:
        return VarSpace((TIME_VAR,) + self.states + self.controls)

    def occupation_names(self) -> tuple[str, ...]:
        if self.autonomous:
            return self.states + self.controls
        return (TIME_VAR,) + self.states + self.controls

    def state_names(self) -> tuple[str, ...]:
        return self.states


@dataclass
class LiouvilleInfo:
    test_degree: int
    trimmed: bool
    time_scale: float  # fixed horizon T folded into the dynamics (1.0 otherwise)
    rows: int


def _scale_time(p: Polynomial, T: Union[Fraction, float]) -> Polynomial:
    """Substitute t -> T*t (variable 0), exactly when T is rational."""
    out: dict[Exponent, object] = {}
    for exp, c in p.terms.items():
        k = exp[0]
        out[exp] = c * (Fraction(T) if isinstance(T, (int, Fraction)) else T) ** k if k else c
    return Polynomial(p.nvars, out)


def _to_occupation(p: Polynomial, dyn: DynamicsSpec) -> Polynomial:
    """Map a (t, x, u) polynomial onto the occupation measure's variables."""
    if dyn.autonomous:
        if 0 in p.used_variables():
            raise ValueError("autonomous occupation measure carries no time variable")
        mapping = [0] + list(range(len(dyn.states) + len(dyn.controls)))
        return p.map_variables(len(dyn.states) + len(dyn.controls), mapping)
    return p


def piecewise_liouville(
    dyn: DynamicsSpec,
    r: int,
    cells: list[tuple[str, list[Polynomial]]],
    initial: EndpointSpec,
    terminal: EndpointSpec,
) -> tuple[list[MomentConstraint], LiouvilleInfo]:
    """Transport rows for dynamics that switch between disjoint cells.

    Each cell contributes <Lv, mu_j> with its own vector field; the cells'
    occupation measures sum to the global one.  Disjointness of the cells is
    the caller's assertion.  With a single cell this is the plain transport
    family.
    """
    if not cells:
        raise ValueError("need at least one dynamics cell")
    nx = dyn.state_dim
    for name, fs in cells:
        if len(fs) != nx:
            raise ValueError(f"cell {name!r} needs one dynamics polynomial per state")
        for p in fs:
            if p.nvars != 1 + nx + dyn.control_dim:
                raise ValueError(f"cell {name!r}: dynamics must live over (t, states, controls)")
            if dyn.autonomous and 0 in p.used_variables():
                raise ValueError("free-horizon dynamics must not depend on time")

    T: Union[Fraction, float] = Fraction(1)
    if not dyn.autonomous:
        T = Fraction(dyn.horizon) if isinstance(dyn.horizon, (int, Fraction)) else dyn.horizon
    # occupation-space dynamics; fixed horizons are rescaled to [0, 1]
    cell_f: list[tuple[str, list[Polynomial]]] = []
    for name, fs in cells:
        if dyn.autonomous:
            cell_f.append((name, [_to_occupation(p, dyn) for p in fs]))
        else:
            cell_f.append((name, [_to_occupation(_scale_time(p, T) * T, dyn) for p in fs]))

    deg_f = max((p.degree for _, fs in cell_f for p in fs), default=0)
    vmax = 2 * r - max(0, deg_f - 1)
    if vmax < 1:
        raise OrderTooSmallError(r, minimal_order(p for _, fs in cell_f for p in fs))
    trimmed = vmax < 2 * r

    n_occ = len(dyn.occupation_names())
    nv_test = nx if dyn.autonomous else 1 + nx

    def _embed_test(exp: Exponent) -> Polynomial:
        # test monomial (over (t,x) or x) as a polynomial over occupation vars
        full = [0] * n_occ
        if dyn.autonomous:
            for i, e in enumerate(exp):
                full[i] = e
        else:
            full[0] = exp[0]
            for i, e in enumerate(exp[1:]):
                full[1 + i] = e
        return Polynomial.monomial(tuple(full))

    def _endpoint_value(point: Sequence, poly: Polynomial):
        vals = [Fraction(v) if isinstance(v, (int, Fraction)) else v for v in point]
        return poly.evaluate(vals)

    init_fixed = not isinstance(initial, str)
    term_fixed = not isinstance(terminal, str)
    if init_fixed and len(tuple(initial)) != nx:
        raise ValueError("initial point dimension does not match the states")
    if term_fixed and len(tuple(terminal)) != nx:
        raise ValueError("terminal point dimension does not match the states")

    rows: list[MomentConstraint] = []
    for exp in exponents_up_to(nv_test, vmax):
        v = _embed_test(exp)
        terms: list[tuple[str, Polynomial]] = []
        rhs: Union[Fraction, float] = Fraction(0)

        for name, fs in cell_f:
            lv = Polynomial.zero(n_occ)
            if not dyn.autonomous:
                lv = lv + v.partial(0)
            x_base = 0 if dyn.autonomous else 1
            for i in range(nx):
                lv = lv + v.partial(x_base + i) * fs[i]
            if not lv.is_zero():
                terms.append((name, lv))

        # v at the endpoints, as a polynomial over the states alone
        if dyn.autonomous:
            v_states = Polynomial.monomial(exp)  # test exponent is over the states
            v_end0 = v_states
            v_end1 = v_states
        else:
            vx = Polynomial.monomial(tuple(exp[1:]))  # state part
            t_pow = exp[0]
            v_end0 = vx if t_pow == 0 else Polynomial.zero(nx)  # t = 0
            v_end1 = vx  # scaled terminal time is 1

        if term_fixed:
            rhs = rhs + _endpoint_value(terminal, v_end1)
        elif not v_end1.is_zero():
            terms.append((terminal, -v_end1))
        if init_fixed:
            rhs = rhs - _endpoint_value(initial, v_end0)
        elif not v_end0.is_zero():
            terms.append((initial, v_end0))

        if not terms and rhs == 0:
            continue
        vspace = VarSpace(
            dyn.state_names() if dyn.autonomous else (TIME_VAR,) + dyn.state_names()
        )
        label = Polynomial.monomial(exp).to_string(vspace)
        rows.append(MomentConstraint(terms=terms, rhs=rhs, relation="eq", label=label))

    info = LiouvilleInfo(
        test_degree=vmax,
        trimmed=trimmed,
        time_scale=float(T),
        rows=len(rows),
    )
    return rows, info


def liouville_constraints(
    dyn: DynamicsSpec,
    r: int,
    occupation: str,
    initial: EndpointSpec,
    terminal: EndpointSpec,
) -> tuple[list[MomentConstraint], LiouvilleInfo]:
    """Transport rows of a single-field dynamics (one occupation measure)."""
    return piecewise_liouville(dyn, r, [(occupation, dyn.f)], initial, terminal)


# -- dynamics problems as GMPs -------------------------------------------------


@dataclass
class DynamicsProblem:
    """A trajectory-optimization GMP plus the data needed to interpret it."""

    dynamics: DynamicsSpec
    cells: list[tuple[str, list[Polynomial]]]
    initial: EndpointSpec
    terminal: EndpointSpec
    gmp: GMPProblem
    liouville_rows: list[MomentConstraint]
    info: LiouvilleInfo


def build_dynamics_gmp(
    dyn: DynamicsSpec,
    r: int,
    cells: list[tuple[str, list[Polynomial]]],
    initial: EndpointSpec,
    terminal: EndpointSpec,
    supports: dict[str, SemialgebraicSet],
    extra_constraints: Optional[list[MomentConstraint]] = None,
    objective: Optional[list[tuple[str, Polynomial]]] = None,
    sense: str = "min",
    mass_cap: Optional[float] = None,
) -> DynamicsProblem:
    """Expand dynamics into a GMP: measures, transport rows, objective.

    `supports` maps occupation-measure names to sets over (x, u) / (t, x, u)
    variables as declared, and endpoint names to sets over the states.  For a
    fixed horizon the time-box constraint t(1-t) >= 0 is appended to every
    occupation support that does not already constrain time.

    Free-horizon problems leave the occupation mass (the terminal time)
    unbounded above, which kills the interior the solver needs; `mass_cap`
    adds mass(mu_j) <= cap rows in that case.  The cap is inactive at any
    optimum a desk-scale problem has, and `resolve_minimal_time` pins the
    mass from below afterwards.  Fixed horizons never need it.
    """
    rows, info = piecewise_liouville(dyn, r, cells, initial, terminal)

    occ_space = VarSpace(dyn.occupation_names())
    measures: list[MeasureDecl] = []
    for name, _ in cells:
        supp = supports.get(name)
        if supp is None:
            supp = SemialgebraicSet(occ_space)
        if supp.space.names != occ_space.names:
            raise ValueError(
                f"support of {name!r} must be over {occ_space.names}, got {supp.space.names}"
            )
        if not dyn.autonomous:
            t_idx = 0
            tvar = Polynomial.variable(occ_space.n, t_idx)
            timebox = tvar * (Polynomial.constant(occ_space.n, 1) - tvar)
            if all(q != timebox for q in supp.inequalities):
                supp = SemialgebraicSet(
                    supp.space,
                    inequalities=list(supp.inequalities) + [timebox],
                    equalities=list(supp.equalities),
                    ball_radius=supp.ball_radius,
                )
        measures.append(MeasureDecl(name, supp))

    state_space = VarSpace(dyn.state_names())
    for endpoint in (initial, terminal):
        if isinstance(endpoint, str):
            supp = supports.get(endpoint)
            if supp is None:
                supp = SemialgebraicSet(state_space)
            if supp.space.names != state_space.names:
                raise ValueError(f"support of {endpoint!r} must be over the states")
            measures.append(MeasureDecl(endpoint, supp))

    obj_const = 0.0
    if objective is None:
        T = Fraction(1) if dyn.autonomous else dyn.horizon
        objective = []
        if not dyn.lagrangian.is_zero():
            if dyn.autonomous:
                l_occ = _to_occupation(dyn.lagrangian, dyn)
            else:
                l_occ = _to_occupation(_scale_time(dyn.lagrangian, T) * T, dyn)
            for name, _ in cells:
                objective.append((name, l_occ))
        if dyn.terminal_cost is not None and not dyn.terminal_cost.is_zero():
            if isinstance(terminal, str):
                objective.append((terminal, dyn.terminal_cost))
            else:
                obj_const += float(dyn.terminal_cost.evaluate(list(terminal)))

    cap_rows: list[MomentConstraint] = []
    if dyn.autonomous and mass_cap is not None:
        one = Polynomial.constant(occ_space.n, 1)
        for name, _ in cells:
            cap_rows.append(MomentConstraint([(name, one)], Fraction(mass_cap), "le"))

    gmp = GMPProblem(
        measures=measures,
        constraints=rows + list(extra_constraints or []) + cap_rows,
        objective=objective,
        sense=sense,
        objective_constant=obj_const,
    )
    return DynamicsProblem(
        dynamics=dyn,
        cells=cells,
        initial=initial,
        terminal=terminal,
        gmp=gmp,
        liouville_rows=rows,
        info=info,
    )


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
    occ_names = {name for name, _ in dp.cells}
    for name in occ_names:
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


def resolve_minimal_time(
    dp: DynamicsProblem,
    r: int,
    first: GMPResult,
    options: SolveOptions | None = None,
    slack: float = 1e-8,
) -> GMPResult:
    """Among near-optimal solutions, pick the one of least occupation mass.

    A free-horizon occupation measure may park spurious mass at equilibria
    without changing the objective or any transport row, so the solver's
    mass is only bounded below.  This second solve pins the cost to the
    first-phase bound (within `slack`, relative) and minimizes the total
    occupation mass, i.e. the terminal time.  The returned result keeps the
    first phase's bound and status and records the second solve as
    ``minimal_time``; the moments are replaced only when that solve ends
    ``optimal``.

    The second problem sits on a thin slab of the first one's feasible set,
    so its primal/dual objectives agree only to a few digits; the default
    tolerances reflect that.
    """
    g = dp.gmp
    if not dp.dynamics.autonomous:
        return first
    eps = slack * (1.0 + abs(first.bound))
    pin_rel = "le" if g.sense == "min" else "ge"
    pin_rhs = first.bound + eps if g.sense == "min" else first.bound - eps
    pin = MomentConstraint(list(g.objective), pin_rhs - g.objective_constant, pin_rel)
    occ_space_n = len(dp.dynamics.occupation_names())
    one = Polynomial.constant(occ_space_n, 1)
    g2 = GMPProblem(
        measures=g.measures,
        constraints=list(g.constraints) + [pin],
        objective=[(name, one) for name, _ in dp.cells],
        sense="min",
    )
    base = options or SolveOptions()
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
    for name, _ in dp.cells:
        moments[name] = second.moments[name]
    return GMPResult(
        bound=first.bound,
        moments=moments,
        solution=first.solution,
        info=first.info,
        assembled=first.assembled,
        minimal_time=second.solution,
    )
