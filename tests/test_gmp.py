from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentsdp.casestudies import (
    build_bolza,
    build_lqr,
    build_occtraj,
    build_polyopt,
    build_saturation_cells,
    build_two_cell_transport,
)
from momentsdp.gmp import (
    DegreeTooHighError,
    DynamicsSpec,
    GMPProblem,
    MeasureDecl,
    MomentConstraint,
    build_dynamics_gmp,
    build_gmp_relaxation,
    piecewise_liouville,
    resolve_minimal_time,
    solve_gmp,
    unscale_time_moments,
)
from momentsdp.polynomials import Polynomial, VarSpace, parse_polynomial
from momentsdp.relaxation import SemialgebraicSet, build_relaxation, minimal_order

import reference_liouville
from momentsdp.sdp import SolveOptions

GMP_OPTS = SolveOptions(gap_tol=1e-6, feas_tol=1e-6)

TX = VarSpace.of("t", "x1")
TXU = VarSpace.of("t", "x1", "u1")
X1 = VarSpace.of("x1")


def decay_dynamics() -> DynamicsSpec:
    return DynamicsSpec(
        states=("x1",),
        cells=[("occ", [parse_polynomial("-x1", TX)])],
        lagrangian=parse_polynomial("x1^2", TX),
        initial="init",
        terminal="term",
    )


def control_dynamics() -> DynamicsSpec:
    return DynamicsSpec(
        states=("x1",),
        cells=[("occ", [parse_polynomial("u1", TXU)])],
        lagrangian=parse_polynomial("x1^2 + u1^2", TXU),
        initial=(1,),
        terminal=(0,),
        controls=("u1",),
    )


def row_count(asm, kind: str) -> int:
    """Rows of an assembled program: "zero" blocks hold equalities, "nonneg" inequalities."""
    return sum(b.size for b in asm.program.blocks if b.kind == kind)


class TestLiouvilleRows:
    def test_decay_rows(self):
        rows, info = piecewise_liouville(decay_dynamics(), 2)
        assert info.rows == 5 and info.test_degree == 4 and not info.trimmed
        # alpha = 0: pure mass conservation between the endpoint measures
        mass_row = rows[0]
        assert dict((n, p.to_string(X1)) for n, p in mass_row.terms) == {
            "term": "-1",
            "init": "1",
        }
        assert mass_row.rhs == 0
        # alpha >= 1: <-(alpha) x^alpha, occ> - <x^alpha, term> + <x^alpha, init> = 0
        for alpha, row in enumerate(rows[1:], start=1):
            terms = dict(row.terms)
            assert terms["occ"] == Polynomial(1, {(alpha,): -alpha})
            assert terms["term"] == Polynomial(1, {(alpha,): -1})
            assert terms["init"] == Polynomial(1, {(alpha,): 1})
            assert row.rhs == 0

    def test_controlled_rows_with_fixed_endpoints(self):
        rows, info = piecewise_liouville(control_dynamics(), 1)
        # alpha = 0 degenerates to 0 = 0 and is dropped
        assert info.rows == 2
        XU = VarSpace.of("x1", "u1")
        assert rows[0].terms == [("occ", parse_polynomial("u1", XU))]
        assert rows[0].rhs == -1
        assert rows[1].terms == [("occ", parse_polynomial("2*x1*u1", XU))]
        assert rows[1].rhs == -1

    def test_bolza_rows_substitute_horizon_endpoints(self):
        dyn = DynamicsSpec(
            states=("x1",),
            cells=[("occ", [parse_polynomial("u1", TXU)])],
            lagrangian=parse_polynomial("x1^4 + (u1^2 - 1)^2", TXU),
            initial=(0,),
            terminal=(0,),
            controls=("u1",),
            horizon=Fraction(1),
        )
        rows, info = piecewise_liouville(dyn, 2)
        assert info.test_degree == 4
        # v = t: <1, occ> = v(1,0) - v(0,0) = 1, pinning the occupation mass
        trow = next(r for r in rows if r.label == "t")
        assert trow.terms == [("occ", Polynomial.constant(3, 1))]
        assert trow.rhs == 1
        # v = x1: <u1, occ> = 0 (both endpoints at the origin)
        xrow = next(r for r in rows if r.label == "x1")
        assert xrow.terms == [("occ", parse_polynomial("u1", VarSpace.of("t", "x1", "u1")))]
        assert xrow.rhs == 0

    def test_nonlinear_dynamics_trim_reported(self):
        dyn = replace(decay_dynamics(), cells=[("occ", [parse_polynomial("x1^2", TX)])])
        rows, info = piecewise_liouville(dyn, 2)
        assert info.trimmed
        assert info.test_degree == 3  # deg v + deg f - 1 <= 2r
        assert max(sum(p.degree for _ in [0]) for _, p in rows[-1].terms if _ == "occ") <= 4

    def test_free_horizon_requires_autonomous_data(self):
        with pytest.raises(ValueError, match="must not depend on time"):
            replace(decay_dynamics(), cells=[("occ", [parse_polynomial("t*x1", TX)])])


def _row_terms(row: MomentConstraint) -> list:
    """A row's measures and terms, in order, each coefficient with its type."""
    return [(name, p.nvars, [(e, type(c), c) for e, c in p.terms.items()]) for name, p in row.terms]


def _cancelling_dynamics(horizon) -> DynamicsSpec:
    """A field whose partials cancel: for v = x1 x2 x3 the first two fields sum
    to zero, and the third brings the cancelled term back; float data enters
    through 0.5 and a float horizon."""
    space = VarSpace.of("t", "x1", "x2", "x3")
    P = lambda s: parse_polynomial(s, space)
    return DynamicsSpec(
        states=("x1", "x2", "x3"),
        cells=[
            ("a", [P("x1"), P("-x2"), P("1/2*x3 + x1*x2")]),
            ("b", [P("x1") * 0.5, P("-x2"), P("x3 - x2^2")]),
        ],
        lagrangian=Polynomial.zero(4),
        initial=(0, 1, 0),
        terminal="term",
        horizon=horizon,
    )


class TestLiouvilleMatchesReference:
    """Rows read off the fields' term tables equal the `Polynomial` arithmetic's."""

    @staticmethod
    def assert_rows_match(dyn: DynamicsSpec, r: int) -> None:
        rows, info = piecewise_liouville(dyn, r)
        ref = reference_liouville.piecewise_liouville(dyn, r)
        assert info.rows == len(rows) == len(ref) > 0
        for got, want in zip(rows, ref):
            assert (got.label, got.relation) == (want.label, want.relation)
            assert (type(got.rhs), got.rhs) == (type(want.rhs), want.rhs)
            assert _row_terms(got) == _row_terms(want)

    @pytest.mark.parametrize(
        "build",
        [build_occtraj, build_lqr, build_bolza, build_saturation_cells, build_two_cell_transport],
    )
    def test_case_studies(self, build):
        dyn = build(1).dynamics
        r_f = minimal_order(p for _, fs in dyn.cells for p in fs)
        r = max(r_f, build(r_f).gmp.minimal_order())
        for order in (r, r + 1):
            self.assert_rows_match(dyn, order)

    @pytest.mark.parametrize(
        "name", ["bolza.gmp", "decay_energy.gmp", "lqr_scalar.gmp", "saturation3.gmp"]
    )
    def test_gmp_fixtures(self, name):
        from momentsdp.cli import _minimal_gmp_order
        from momentsdp.problemfile import load_problem

        data = load_problem(Path(__file__).resolve().parent.parent / "fixtures" / name).gmp
        r = _minimal_gmp_order(data)
        for order in (r, r + 1):
            self.assert_rows_match(data.dynamics, order)

    @pytest.mark.parametrize("horizon", [None, Fraction(3, 4), 0.75])
    def test_cancelling_and_float_fields(self, horizon):
        dyn = _cancelling_dynamics(horizon)
        self.assert_rows_match(dyn, 2)
        self.assert_rows_match(dyn, 3)


class TestAnalyticOccupationMoments:
    def test_decay_moments_satisfy_every_row_exactly(self):
        # the optimal trajectory runs from 1 to 1/2; its occupation moments
        # are y_a = (1 - 2^-a)/a, endpoint moments are point evaluations
        r = 4
        rows, _ = piecewise_liouville(decay_dynamics(), r)
        occ = {(0,): Fraction(0)}  # mass never enters a row; any placeholder
        for a in range(1, 2 * r + 1):
            occ[(a,)] = Fraction(1 - Fraction(1, 2**a), a)
        init = {(a,): Fraction(1) for a in range(2 * r + 1)}
        term = {(a,): Fraction(1, 2**a) for a in range(2 * r + 1)}
        values = {"occ": occ, "init": init, "term": term}
        for row in rows:
            total = Fraction(0)
            for name, poly in row.terms:
                for exp, c in poly.terms.items():
                    total += Fraction(c) * values[name][exp]
            assert total == Fraction(row.rhs)  # exact: error 0 <= 1e-12


class TestBuildRelaxation:
    def test_decay_structure(self):
        dp = build_occtraj(2)
        asm, info = build_gmp_relaxation(dp.gmp, 2)
        # per measure: M_2(y) 3x3 and a 2x2 localizer for the quadratic support
        for name in ("occ", "init", "term"):
            assert info[name].block_sizes == [3, 2]
            assert info[name].moment_dim == 5
        kinds = [b.kind for b in asm.program.blocks]
        assert kinds.count("psd") == 6 and kinds.count("zero") == 1
        # rows: mass(init) = 1 plus the 2r + 1 transport rows
        assert row_count(asm, "zero") == 1 + 5

    def test_one_measure_gmp_matches_pop_relaxation(self):
        pop = build_polyopt()
        asm_pop, _ = build_relaxation(pop, 2)
        decl = MeasureDecl("mu", pop.feasible_set)
        mass = MomentConstraint([("mu", Polynomial.constant(2, 1))], Fraction(1), "eq")
        g = GMPProblem(
            measures=[decl], constraints=[mass], objective=[("mu", pop.objective)]
        )
        asm_gmp, _ = build_gmp_relaxation(g, 2)
        pa, pb = asm_pop.program, asm_gmp.program
        assert [(b.kind, b.size) for b in pa.blocks] == [(b.kind, b.size) for b in pb.blocks]
        assert np.array_equal(pa.b, pb.b)
        for bi in range(len(pa.blocks)):
            for part in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(pa.A[bi], part), getattr(pb.A[bi], part))
            assert np.array_equal(pa.C[bi], pb.C[bi])

    def test_lqr_first_relaxation_structure(self):
        dp = build_lqr(1)
        # without the mass cap the structure is one 3x3 moment block plus
        # the two transport rows
        dp0 = build_dynamics_gmp(control_dynamics(), 1, {})
        asm, info = build_gmp_relaxation(dp0.gmp, 1)
        assert info["occ"].block_sizes == [3]
        assert row_count(asm, "zero") == 2 and row_count(asm, "nonneg") == 0
        assert not info["occ"].compactness_certified

    def test_degree_above_truncation_names_constraint(self):
        decl = MeasureDecl("mu", SemialgebraicSet(X1))
        bad = MomentConstraint(
            [("mu", parse_polynomial("x1^6", X1))], Fraction(1), "eq"
        )
        g = GMPProblem(
            measures=[decl],
            constraints=[bad],
            objective=[("mu", parse_polynomial("x1", X1))],
        )
        with pytest.raises(DegreeTooHighError) as ei:
            build_gmp_relaxation(g, 2)
        assert "constraint 1" in str(ei.value)

    def test_unknown_measure_rejected(self):
        decl = MeasureDecl("mu", SemialgebraicSet(X1))
        with pytest.raises(KeyError):
            GMPProblem(
                measures=[decl],
                constraints=[],
                objective=[("nu", parse_polynomial("x1", X1))],
            )


class TestSolves:
    def test_decay_order_three(self):
        dp = build_occtraj(3)
        res = solve_gmp(dp.gmp, 3, GMP_OPTS)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(0.375, abs=1e-4)
        # mass conservation holds in the solved relaxation
        assert abs(res.moments["term"].mass - res.moments["init"].mass) <= 1e-8

    def test_decay_monotone_bounds(self):
        bounds = []
        for r in (2, 3, 4):
            dp = build_occtraj(r)
            bounds.append(solve_gmp(dp.gmp, r, GMP_OPTS).bound)
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi + 1e-6

    def test_decay_minimal_time_pins_mass(self):
        dp = build_occtraj(4)
        first = solve_gmp(dp.gmp, 4, GMP_OPTS)
        assert first.solution.status == "optimal"
        res = resolve_minimal_time(dp, 4, first, GMP_OPTS)
        assert res.moments["occ"].mass == pytest.approx(np.log(2.0), abs=1e-3)
        assert res.bound == first.bound

    def test_minimal_time_solve_is_recorded_whatever_its_status(self):
        # lqr_scalar at r = 3: the minimal-time solve needs several times the
        # first solve's iterations; it is recorded when it converges and when
        # its budget runs out, and only in the first case are its moments used
        from pathlib import Path

        from momentsdp.problemfile import load_problem

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "lqr_scalar.gmp"
        g, dp = load_problem(fixture).gmp.instantiate(3)
        first = solve_gmp(g, 3, GMP_OPTS)
        assert first.solution.status == "optimal" and first.minimal_time is None
        res = resolve_minimal_time(dp, 3, first, GMP_OPTS)
        second = res.minimal_time
        assert second is not None and second.status == "optimal"
        assert second.iterations > first.solution.iterations
        assert res.solution is first.solution and res.bound == first.bound
        assert not np.array_equal(res.moments["occ"].values, first.moments["occ"].values)

        budget = second.iterations // 2
        short = resolve_minimal_time(dp, 3, first, SolveOptions(gap_tol=1e-6, feas_tol=1e-6,
                                                                 max_iter=budget))
        assert short.minimal_time is not None
        assert short.minimal_time.status != "optimal"
        assert short.minimal_time.iterations <= budget
        assert short.moments.keys() == first.moments.keys()
        for name, y in first.moments.items():
            assert np.array_equal(short.moments[name].values, y.values), name

    def test_lqr_first_order(self):
        dp = build_lqr(1)
        res = solve_gmp(dp.gmp, 1, GMP_OPTS)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(1.0, abs=1e-6)
        y = res.moments["occ"]
        assert y.value((0, 1)) == pytest.approx(-1.0, abs=1e-8)
        assert y.value((1, 1)) == pytest.approx(-0.5, abs=1e-8)

    def test_bolza_nonnegative_bound(self):
        dp = build_bolza(2)
        res = solve_gmp(dp.gmp, 2, GMP_OPTS)
        assert res.solution.status == "optimal"
        assert -1e-6 <= res.bound <= 1e-3

    def test_two_cell_transport_masses(self):
        dp = build_two_cell_transport(4)
        res = solve_gmp(dp.gmp, 4, GMP_OPTS)
        assert res.solution.status == "optimal"
        left = float(res.moments["left"].mass)
        right = float(res.moments["right"].mass)
        # total transit time is pinned exactly; the split is pinned by the
        # cell supports up to the relaxation width at this order
        assert left + right == pytest.approx(1.0, abs=1e-7)
        assert left == pytest.approx(0.5, abs=5e-3)
        assert right == pytest.approx(0.5, abs=5e-3)

    def test_saturation_cells_masses_telescope(self):
        dp = build_saturation_cells(2)
        res = solve_gmp(dp.gmp, 2, GMP_OPTS)
        assert res.solution.status == "optimal"
        total = sum(float(res.moments[name].mass) for name in ("lin", "upper", "lower"))
        assert total == pytest.approx(1.0, abs=1e-7)  # fixed unit horizon
        assert float(res.moments["term"].mass) == pytest.approx(1.0, abs=1e-7)


class TestTimeScaling:
    def test_fixed_horizon_unscaling(self):
        # xdot = 1 from 0 to 2 over T = 2: x(t) = t, moments of the
        # occupation measure are integrals of t^a x^b = t^(a+b) over [0, 2]
        dspace = VarSpace.of("t", "x1")
        dyn = DynamicsSpec(
            states=("x1",),
            cells=[("occ", [parse_polynomial("1", dspace)])],
            lagrangian=Polynomial.zero(2),
            initial=(0,),
            terminal=(2,),
            horizon=Fraction(2),
        )
        occ = VarSpace.of("t", "x1")
        P = lambda s: parse_polynomial(s, occ)
        supports = {
            "occ": SemialgebraicSet(occ, inequalities=[P("x1"), P("2 - x1")]),
        }
        dp = build_dynamics_gmp(
            dyn,
            2,
            supports,
            objective=[("occ", parse_polynomial("x1^2", occ))],
        )
        res = solve_gmp(dp.gmp, 2, GMP_OPTS)
        assert res.solution.status == "optimal"
        unscaled = unscale_time_moments(dp, res.moments)
        y = unscaled["occ"]
        assert float(y.mass) == pytest.approx(2.0, abs=1e-6)
        for a, b in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            want = 2.0 ** (a + b + 1) / (a + b + 1)
            assert float(y.value((a, b))) == pytest.approx(want, abs=1e-5)


class TestRegulatorMomentMatrix:
    def test_first_order_moment_matrix_display(self):
        from momentsdp.moments import evaluate_stencil, moment_matrix_stencil

        dp = build_lqr(1)
        res = solve_gmp(dp.gmp, 1, SolveOptions(gap_tol=1e-7, feas_tol=1e-6))
        M = evaluate_stencil(moment_matrix_stencil(2, 1), res.moments["occ"])
        assert np.array_equal(M, M.T)
        # everything but the free mass corner is pinned at the optimum
        want = np.array([[np.nan, 1.0, -1.0], [1.0, 0.5, -0.5], [-1.0, -0.5, 0.5]])
        mask = ~np.isnan(want)
        assert np.abs(M[mask] - want[mask]).max() < 1e-2
        assert M[0, 0] >= 2.0 - 1e-3


class TestLiouvilleValidation:
    def test_cell_dynamics_dimension_checked(self):
        dyn = decay_dynamics()
        wrong = [parse_polynomial("u1", TXU)]  # lives over (t, x1, u1), not (t, x1)
        with pytest.raises(ValueError, match="must live over"):
            replace(dyn, cells=[("occ", wrong)])

    def test_cell_count_checked(self):
        dyn = decay_dynamics()
        with pytest.raises(ValueError, match="one dynamics polynomial per state"):
            replace(dyn, cells=[("occ", [])])
        with pytest.raises(ValueError, match="at least one dynamics cell"):
            replace(dyn, cells=[])

    def test_endpoint_dimension_checked(self):
        dyn = decay_dynamics()
        with pytest.raises(ValueError, match="initial point dimension"):
            replace(dyn, initial=(1.0, 2.0))

    def test_measure_names_unique(self):
        # a cell and an endpoint, or both endpoints, under one name
        with pytest.raises(ValueError, match="measure names must be unique"):
            replace(decay_dynamics(), terminal="occ")
        with pytest.raises(ValueError, match="measure names must be unique"):
            replace(decay_dynamics(), terminal="init")

    def test_support_of_an_unknown_measure_rejected(self):
        # a typo, and a support for an endpoint that is a point, not a measure
        with pytest.raises(ValueError, match="undeclared measure 'ocx'"):
            build_dynamics_gmp(decay_dynamics(), 2, {"ocx": SemialgebraicSet(X1)})
        with pytest.raises(ValueError, match="undeclared measure 'init'"):
            build_dynamics_gmp(control_dynamics(), 1, {"init": SemialgebraicSet(X1)})
        dp = build_dynamics_gmp(decay_dynamics(), 2, {"init": SemialgebraicSet(X1)})
        assert [m.name for m in dp.gmp.measures] == ["occ", "init", "term"]

    def test_degree_heavy_dynamics_need_higher_order(self):
        from momentsdp.relaxation import OrderTooSmallError

        p = parse_polynomial("x1^4", TX)
        dyn = replace(decay_dynamics(), cells=[("occ", [p])], lagrangian=Polynomial.zero(2))
        with pytest.raises(OrderTooSmallError):
            piecewise_liouville(dyn, 1)


class TestConstraintRelations:
    def test_ge_rows_enter_as_nonneg_slack(self):
        # measure on [0, 1] with mass 1 and first moment at least 3/4:
        # minimizing the first moment must return exactly 3/4
        decl = MeasureDecl(
            "mu",
            SemialgebraicSet(
                X1,
                inequalities=[parse_polynomial("x1", X1), parse_polynomial("1 - x1", X1)],
            ),
        )
        x = parse_polynomial("x1", X1)
        g = GMPProblem(
            measures=[decl],
            constraints=[
                MomentConstraint([("mu", Polynomial.constant(1, 1))], Fraction(1), "eq"),
                MomentConstraint([("mu", x)], Fraction(3, 4), "ge"),
            ],
            objective=[("mu", x)],
        )
        asm, info = build_gmp_relaxation(g, 2)
        assert row_count(asm, "nonneg") == 1
        res = solve_gmp(g, 2, GMP_OPTS)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(0.75, abs=1e-6)

    def test_repeated_ge_row_keeps_its_own_slack(self, tmp_path):
        # lqr_scalar's cap written three ways: twice as is and once scaled;
        # each row gets its own nonneg slack and the bound does not move
        from pathlib import Path

        from momentsdp.cli import _minimal_gmp_order
        from momentsdp.problemfile import load_problem

        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "lqr_scalar.gmp"
        text = fixture.read_text()
        assert text.count("mass(occ) <= 20\n") == 1
        repeated = tmp_path / "lqr_scalar_repeated_cap.gmp"
        repeated.write_text(
            text.replace("mass(occ) <= 20\n", "mass(occ) <= 20\nmass(occ) <= 20\n<2, occ> <= 40\n")
        )
        bounds = []
        for path, caps in ((fixture, 1), (repeated, 3)):
            data = load_problem(path).gmp
            r = _minimal_gmp_order(data)
            g, _ = data.instantiate(r)
            res = solve_gmp(g, r, GMP_OPTS)
            assert row_count(res.assembled, "nonneg") == caps
            assert res.solution.status == "optimal"
            bounds.append(res.bound)
        assert bounds[1] == pytest.approx(bounds[0], abs=1e-6)

    def test_equality_support_pins_measure_to_a_point(self):
        decl = MeasureDecl(
            "mu",
            SemialgebraicSet(X1, equalities=[parse_polynomial("x1 - 1/2", X1)]),
        )
        g = GMPProblem(
            measures=[decl],
            constraints=[
                MomentConstraint([("mu", Polynomial.constant(1, 1))], Fraction(2), "eq")
            ],
            objective=[("mu", parse_polynomial("x1^2", X1))],
        )
        res = solve_gmp(g, 2, SolveOptions(gap_tol=1e-6, feas_tol=1e-7))
        y = res.moments["mu"]
        # all moments are those of 2*delta_{1/2}
        for a in range(5):
            assert float(y.values[a]) == pytest.approx(2.0 * 0.5**a, abs=1e-6)
