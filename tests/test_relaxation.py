import contextlib
import glob
import io
import os
from fractions import Fraction

import numpy as np
import pytest
import reference_assembly as reference
import scipy.linalg

from momentsdp import cli, gmp, relaxation
from momentsdp.casestudies import (
    build_eig_assign,
    build_polyopt,
    build_saturation_cells,
    build_unit_disk,
)
from momentsdp.cli import _minimal_gmp_order
from momentsdp.gmp import DynamicsSpec, build_dynamics_gmp, build_gmp_relaxation
from momentsdp.moments import MomentVector, evaluate_stencil, moment_matrix_stencil
from momentsdp.polynomials import (
    Polynomial,
    VarSpace,
    monomial_count,
    parse_polynomial,
)
from momentsdp.relaxation import (
    LinearRow,
    OrderTooSmallError,
    POPProblem,
    SemialgebraicSet,
    SparseRows,
    bound_and_moments,
    build_relaxation,
    eliminate_linear_equalities,
    half_degree,
    measure_plan,
    prune_dependent_rows,
)
from momentsdp.problemfile import load_problem
from momentsdp.sdp import SolveOptions, _pivoted_cholesky
from momentsdp.spectra import shadow_support_points

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

HI = SolveOptions(gap_tol=1e-8, feas_tol=1e-8)
PHI_BOUND = -(1 + np.sqrt(5.0)) / 2


def _dedupe(rows: list[LinearRow]) -> list[LinearRow]:
    """Rows without exact duplicates (proportional rows with proportional rhs), the first kept."""
    seen, out = set(), []
    for row in rows:
        items = sorted((k, c) for k, c in row.coeffs.items() if c != 0)
        if not items:
            if row.rhs != 0:
                out.append(row)
            continue
        key = tuple((k, c / items[0][1]) for k, c in items), row.rhs / items[0][1], row.relation
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


class TestHalfDegree:
    @pytest.mark.parametrize(
        "text,expected",
        [("x1^3", 2), ("x1^2 + x2", 1), ("5", 0), ("x1*x2^2 + x1^4", 2)],
    )
    def test_examples(self, text, expected):
        p = parse_polynomial(text, VarSpace.of("x1", "x2"))
        assert half_degree(p) == expected

    def test_zero(self):
        assert half_degree(Polynomial.zero(2)) == 0


class TestStructure:
    def test_polyopt_order_one(self):
        asm, info = build_relaxation(build_polyopt(), 1)
        assert info.block_sizes == [3, 1, 1, 1]
        assert info.moment_dim == 6
        assert asm.program.m == 6
        assert info.r_x == 1 and info.r_k == [1, 1, 1]
        assert [b.kind for b in asm.program.blocks] == ["psd"] * 4 + ["zero"]

    def test_polyopt_order_two(self):
        asm, info = build_relaxation(build_polyopt(), 2)
        assert info.block_sizes == [6, 3, 3, 3]
        assert info.moment_dim == 15
        assert asm.program.m == monomial_count(2, 4)

    def test_moment_dim_general(self):
        pop = build_polyopt()
        for r in (1, 2, 3):
            asm, info = build_relaxation(pop, r)
            assert asm.program.m == monomial_count(2, 2 * r)

    def test_assembly_stats(self):
        # the build and prune seconds, and the equality rows the prune got and
        # kept; a zero block holds exactly the kept rows
        asms = [build_relaxation(build_polyopt(), 2)[0], build_relaxation(build_eig_assign(4), 3)[0],
                build_gmp_relaxation(build_saturation_cells(2).gmp, 2)[0]]
        for asm in asms:
            stats = asm.stats
            assert set(stats) == {"seconds", "equality_rows", "equality_rows_kept"}
            assert set(stats["seconds"]) == {"build", "prune"}
            assert 0 <= stats["equality_rows_kept"] <= stats["equality_rows"]
            zero = [blk.size for blk in asm.program.blocks if blk.kind == "zero"]
            assert zero == ([stats["equality_rows_kept"]] if stats["equality_rows_kept"] else [])
        assert asms[0].stats["equality_rows"] == asms[0].stats["equality_rows_kept"] == 1  # the mass row
        assert asms[1].stats["equality_rows_kept"] < asms[1].stats["equality_rows"]

    def test_order_below_minimum_reports_it(self):
        sp = VarSpace.of("x1")
        pop = POPProblem(
            parse_polynomial("x1", sp),
            SemialgebraicSet(sp, inequalities=[parse_polynomial("1 - x1^4", sp)]),
        )
        with pytest.raises(OrderTooSmallError) as ei:
            build_relaxation(pop, 1)
        assert ei.value.minimal_order == 2

    def test_compactness_flag(self):
        sp = VarSpace.of("x1", "x2")
        no_ball = SemialgebraicSet(sp, inequalities=[parse_polynomial("x1", sp)])
        assert not no_ball.certifies_compactness()
        asm, info = build_relaxation(POPProblem(parse_polynomial("x1", sp), no_ball), 1)
        assert not info.compactness_certified
        assert build_polyopt().feasible_set.certifies_compactness()
        with_ball = SemialgebraicSet(sp, ball_radius=Fraction(4))
        assert with_ball.certifies_compactness()

    def test_ball_constraint_appended(self):
        sp = VarSpace.of("x1")
        feas = SemialgebraicSet(sp, ball_radius=Fraction(4))
        pop = POPProblem(parse_polynomial("x1^2", sp), feas)
        asm, info = build_relaxation(pop, 1)
        # moment block 2x2 plus the 1x1 ball localizer l(4 - x^2) >= 0
        assert info.block_sizes == [2, 1]
        res = bound_and_moments(pop, 1, HI)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(0.0, abs=1e-8)


class TestBounds:
    def test_polyopt_bounds(self):
        pop = build_polyopt()
        r1 = bound_and_moments(pop, 1, HI)
        r2 = bound_and_moments(pop, 2, HI)
        assert r1.solution.status == "optimal"
        assert r2.solution.status == "optimal"
        assert r1.bound == pytest.approx(-2.0, abs=1e-8)
        assert r2.bound == pytest.approx(PHI_BOUND, abs=1e-8)

    def test_monotone_in_order(self):
        pop = build_polyopt()
        b1 = bound_and_moments(pop, 1, HI).bound
        b2 = bound_and_moments(pop, 2, HI).bound
        assert b1 <= b2 + 1e-6

    def test_positive_orthant_corner(self):
        sp = VarSpace.of("x1", "x2")
        feas = SemialgebraicSet(
            sp,
            inequalities=[parse_polynomial("x1", sp), parse_polynomial("x2", sp)],
            ball_radius=Fraction(1),
        )
        pop = POPProblem(parse_polynomial("x1 + x2", sp), feas)
        res = bound_and_moments(pop, 1, HI)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(0.0, abs=1e-7)

    def test_bound_below_sampled_feasible_values(self):
        pop = build_polyopt()
        res = bound_and_moments(pop, 2, HI)
        rng = np.random.default_rng(2)
        found = 0
        while found < 50:
            x = rng.uniform([-3, -3], [3, 3])
            if pop.feasible_set.contains(x):
                found += 1
                assert res.bound <= float(pop.objective.evaluate(list(x))) + 1e-6

    def test_dirac_moments_of_feasible_points_satisfy_blocks(self):
        pop = build_polyopt()
        plan = measure_plan(pop.feasible_set, 2)
        rng = np.random.default_rng(8)
        found = 0
        while found < 25:
            x = rng.uniform([-3, -3], [3, 3])
            if not pop.feasible_set.contains(x):
                continue
            found += 1
            y = MomentVector.from_atoms([list(x)], [1.0], 4)
            for st in plan.psd_stencils:
                M = evaluate_stencil(st, y)
                assert np.linalg.eigvalsh(M)[0] >= -1e-9


class TestEqualityHandling:
    def test_equality_rows_pin_products(self):
        # x1^2 = x2 on the segment: moments must satisfy every product row
        sp = VarSpace.of("x1", "x2")
        feas = SemialgebraicSet(
            sp,
            equalities=[parse_polynomial("x1^2 - x2", sp)],
            ball_radius=Fraction(4),
        )
        pop = POPProblem(parse_polynomial("x2 - x1", sp), feas)
        # equality constraints leave no strictly feasible moment matrix, so
        # the objective gap floors around 1e-6; ask only for what is there
        res = bound_and_moments(pop, 2, SolveOptions(gap_tol=1e-5, feas_tol=1e-8))
        assert res.solution.status == "optimal"
        y = res.moments
        # l((x1^2 - x2) * x^alpha) = 0 for every alpha with |alpha| <= 2
        for alpha_idx, alpha in enumerate(y.exponents()):
            if sum(alpha) > 2:
                continue
            v = y.value((alpha[0] + 2, alpha[1])) - y.value((alpha[0], alpha[1] + 1))
            assert abs(v) < 1e-7
        # minimum of x^2 - x on the parabola is -1/4 at x = 1/2
        assert res.bound == pytest.approx(-0.25, abs=1e-4)

    def test_moment_matrix_of_solution_is_psd(self):
        res = bound_and_moments(build_polyopt(), 2, HI)
        M = evaluate_stencil(moment_matrix_stencil(2, 2), res.moments)
        assert np.linalg.eigvalsh(M)[0] >= -1e-8



def _on_subspace(pop: POPProblem, eliminated, z) -> list:
    """The point of pop's variables that the kept coordinates z map to."""
    n, done = pop.feasible_set.space.n, dict(eliminated)
    x, it = [Fraction(0)] * n, iter(z)
    for i in range(n):
        if i not in done:
            x[i] = next(it)
    return [done[i].evaluate(x) if i in done else x[i] for i in range(n)]


def _two_linear_pop() -> POPProblem:
    """Three variables, two linear equalities, a cubic equality and a quadratic inequality."""
    sp = VarSpace.of("x1", "x2", "x3")
    P = lambda t: parse_polynomial(t, sp)
    feas = SemialgebraicSet(
        sp,
        inequalities=[P("x1*x2 + 1/4")],
        equalities=[P("x1 + 2*x2 - x3 - 1/2"), P("x1^3 - x2*x3"), P("x1 - 3*x3 + 1/5")],
        ball_radius=2,
    )
    return POPProblem(P("x1^2 + x2*x3 - x3"), feas)


class TestLinearElimination:
    def test_substitution_is_exact(self):
        rng = np.random.default_rng(3)
        for pop in (build_eig_assign(3), build_eig_assign(5), _two_linear_pop()):
            fs = pop.feasible_set
            reduced, eliminated = relaxation.eliminate_linear_equalities(pop)
            rs = reduced.feasible_set
            linear = [q for q in fs.equalities if q.degree == 1]
            assert len(eliminated) == len(linear) and rs.space.n == fs.space.n - len(linear)
            assert all(q.degree > 1 for q in rs.equalities) and rs.ball_radius is None
            for _ in range(5):
                z = [Fraction(int(k), 97) for k in rng.integers(-97, 98, size=rs.space.n)]
                x = _on_subspace(pop, eliminated, z)
                assert all(type(v) is Fraction for v in x)
                assert reduced.objective.evaluate(z) == pop.objective.evaluate(x)
                pairs = zip(rs.inequalities, fs.effective_inequalities(), strict=True)
                assert all(g.evaluate(z) == q.evaluate(x) for g, q in pairs)
                pairs = zip(rs.equalities, [q for q in fs.equalities if q.degree > 1], strict=True)
                assert all(g.evaluate(z) == q.evaluate(x) for g, q in pairs)
                assert all(q.evaluate(x) == 0 for q in linear)

    def test_pivot_is_the_largest_coefficient(self):
        reduced, eliminated = relaxation.eliminate_linear_equalities(build_eig_assign(4))
        sp = build_eig_assign(4).feasible_set.space
        assert [(v, f.to_string(sp)) for v, f in eliminated] == [(3, "2/9 - 7/16*x1 - 3/4*x2 - 15/16*x3")]
        assert reduced.feasible_set.space.names == ("x1", "x2", "x3")
        # _two_linear_pop's linear equalities pivot on x2 (|2|), then on x3 (|-3|),
        # and both forms end up over x1, the one variable kept
        _, eliminated = relaxation.eliminate_linear_equalities(_two_linear_pop())
        assert [v for v, _ in eliminated] == [1, 2]
        assert all(f.used_variables() == {0} for _, f in eliminated)
        # on a tie the first variable goes
        sp = VarSpace.of("x1", "x2")
        tie = POPProblem(parse_polynomial("x1", sp), SemialgebraicSet(sp, equalities=[parse_polynomial("x2 - x1", sp)]))
        assert relaxation.eliminate_linear_equalities(tie)[1] == [(0, parse_polynomial("x2", sp))]

    def test_lift_of_atoms_is_the_atoms_moments(self):
        pop = _two_linear_pop()
        _, eliminated = relaxation.eliminate_linear_equalities(pop)
        zs, weights = [[Fraction(1, 3)], [Fraction(-2, 7)]], [0.25, 0.75]
        for degree in (0, 1, 4, 6):
            z = MomentVector.from_atoms(zs, weights, degree).values
            want = MomentVector.from_atoms([_on_subspace(pop, eliminated, p) for p in zs], weights, degree)
            y = relaxation._lift(np.asarray(z, dtype=float), 3, degree, eliminated)
            assert np.abs(y - np.asarray(want.values, dtype=float)).max() <= 1e-14

    def test_lifted_moments_satisfy_the_unreduced_relaxation(self):
        for pop, r in ((build_eig_assign(4), 3), (_two_linear_pop(), 3)):
            res = bound_and_moments(pop, r, HI)
            assert res.solution.status == "optimal" and res.eliminated
            asm, _ = build_relaxation(pop, r)
            prog, y = asm.program, np.asarray(res.moments.values, dtype=float)
            assert res.moments.nvars == pop.feasible_set.space.n and len(y) == prog.m
            assert asm.objective @ y == pytest.approx(res.bound, abs=1e-12)
            for blk, data, C in zip(prog.blocks, prog.A, prog.C):
                if blk.kind == "zero":  # every row p x^alpha: C_j - sum_k y_k A_k[j] = 0
                    Ay = np.bincount(data.cols, data.vals * y[data.rows], minlength=blk.size)
                    assert np.abs(C - Ay).max() <= 1e-9
                else:  # Z = -sum_k y_k A_k is the moment or a localizing matrix
                    Z = -np.bincount(data.cols, data.vals * y[data.rows], minlength=blk.size**2)
                    assert np.linalg.eigvalsh(Z.reshape(blk.size, blk.size))[0] >= -1e-9

    def test_eig4_tight_bound_and_flat_certificate(self):
        from momentsdp.extraction import certify

        pop = build_eig_assign(4)
        res = bound_and_moments(pop, 3, HI)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(0.0119411, abs=1e-7)
        assert res.assembled.program.m == 84 and res.info.block_sizes == [20, 10]
        assert res.info.r_x == 2 and res.moments.nvars == 4 and res.moments.degree == 6
        cert = certify(res.moments, 3, res.info.r_x, constraints=[("eq", q) for q in pop.feasible_set.equalities])
        assert cert.flat and len(cert.atoms) == 1

    def test_equality_that_reduces_to_zero_is_dropped(self):
        sp = VarSpace.of("x1", "x2")
        P = lambda t: parse_polynomial(t, sp)
        pop = POPProblem(P("x1^2 + x2^2"), SemialgebraicSet(
            sp, equalities=[P("x1 + x2 - 1"), P("2*x1 + 2*x2 - 2")], ball_radius=4))
        reduced, eliminated = relaxation.eliminate_linear_equalities(pop)
        assert len(eliminated) == 1 and reduced.feasible_set.equalities == []
        assert bound_and_moments(pop, 1, HI).bound == pytest.approx(0.5, abs=1e-7)

    def test_equality_that_reduces_to_a_constant_is_refused(self):
        sp = VarSpace.of("x1", "x2")
        P = lambda t: parse_polynomial(t, sp)
        pop = POPProblem(P("x1"), SemialgebraicSet(
            sp, equalities=[P("x1^2 - x2"), P("x1 + x2 - 1"), P("x1 + x2 - 2")]))
        with pytest.raises(ValueError, match=r"^equality 3, -2 \+ x1 \+ x2 = 0, reduces to -1 = 0 "):
            bound_and_moments(pop, 1, HI)

    def test_at_most_n_minus_one_variables_go(self):
        sp = VarSpace.of("x1", "x2")
        P = lambda t: parse_polynomial(t, sp)
        eqs = [P("x1 + x2 - 1"), P("x1^2 - x2^2"), P("x1 - x2"), P("2*x1 - 1")]
        pop = POPProblem(P("x1^2 + x2^2"), SemialgebraicSet(sp, equalities=eqs, ball_radius=4))
        reduced, eliminated = relaxation.eliminate_linear_equalities(pop)
        # x1 = 1 - x2 turns x1^2 - x2^2 into 1 - 2 x2, the second affine equality:
        # it stays, in the variable left, and the two after it reduce to 0 under it
        assert [v for v, _ in eliminated] == [0]
        assert reduced.feasible_set.equalities == [parse_polynomial("1 - 2*x2", VarSpace.of("x2"))]
        res = bound_and_moments(pop, 1, HI)
        assert res.bound == pytest.approx(0.5, abs=1e-7)
        assert [b.kind for b in res.assembled.program.blocks] == ["psd", "psd", "zero"]
        one = POPProblem(P("x1"), SemialgebraicSet(sp, equalities=eqs[:1] + [P("x1 - x2 - 1")] + eqs[2:]))
        with pytest.raises(ValueError, match="^equality 3, "):
            relaxation.eliminate_linear_equalities(one)

    def test_without_linear_equality_nothing_changes(self):
        disk = POPProblem(parse_polynomial("x1 - x2", VarSpace.of("x1", "x2")), build_unit_disk())
        for pop in (build_polyopt(), disk):
            reduced, eliminated = relaxation.eliminate_linear_equalities(pop)
            assert reduced is pop and eliminated == []
            res = bound_and_moments(pop, 2, HI)
            assert res.eliminated == [] and res.assembled.program.m == build_relaxation(pop, 2)[0].program.m

    def test_order_and_flags_are_the_pops_own(self):
        # x1 = x2 makes the cubic inequality 1 >= 0, which is dropped: the reduced
        # problem needs order 1 only, and its blocks are those of one variable
        sp = VarSpace.of("x1", "x2")
        P = lambda t: parse_polynomial(t, sp)
        pop = POPProblem(P("x1 + x2"), SemialgebraicSet(
            sp, inequalities=[P("x1^3 - x2^3 + 1")], equalities=[P("x1 - x2")], ball_radius=1))
        with pytest.raises(OrderTooSmallError) as ei:
            bound_and_moments(pop, 1, HI)
        assert ei.value.minimal_order == 2
        res = bound_and_moments(pop, 2, HI)
        assert res.info.r_x == 2 and res.info.block_sizes == [3, 2]
        assert res.info.compactness_certified
        assert res.bound == pytest.approx(-np.sqrt(2), abs=1e-6)


class TestUnitDisk:
    def test_linear_objective_exact_at_order_one(self):
        disk = build_unit_disk()
        pop = POPProblem(parse_polynomial("x1 + x2", disk.space), disk)
        res = bound_and_moments(pop, 1, HI)
        assert res.solution.status == "optimal"
        assert res.bound == pytest.approx(-np.sqrt(2.0), abs=1e-7)


def _augmented(row: LinearRow, n_cols: int) -> dict[int, Fraction]:
    """Exact [coefficients | rhs] row, the rhs in column n_cols."""
    v = {k: Fraction(c) for k, c in row.coeffs.items() if c != 0}
    if row.rhs != 0:
        v[n_cols] = Fraction(row.rhs)
    return v


def _reduce(v: dict[int, Fraction], basis: dict[int, dict[int, Fraction]]) -> dict[int, Fraction]:
    """Remainder of v after exact elimination against an echelon basis.

    Each basis row has a unit entry at its pivot and zeros at the pivots of
    the rows inserted before it, so one pass in insertion order suffices.
    """
    v = dict(v)
    for piv, row in basis.items():
        f = v.get(piv, 0)
        if f:
            for k, c in row.items():
                v[k] = v.get(k, 0) - f * c
            v = {k: c for k, c in v.items() if c != 0}
    return v


def _prune(rows: list[LinearRow], n_cols: int) -> list[LinearRow]:
    """`prune_dependent_rows` on exact rows: the rows it keeps, in order."""
    return [rows[i] for i in prune_dependent_rows(SparseRows.of(row.family() for row in rows), n_cols)]


def _assemblies(monkeypatch, build) -> list[tuple[tuple, relaxation.AssembledProgram]]:
    """The arguments and result of every `assemble` call a build makes."""
    calls = []
    real = relaxation.assemble

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with monkeypatch.context() as m:
        m.setattr(relaxation, "assemble", record)
        m.setattr(gmp, "assemble", record)
        build()
    return calls


def _assert_same_rows(got: SparseRows, want: SparseRows) -> None:
    for f in ("indptr", "cols", "coeffs", "scaled", "rhs", "rhs_scaled"):
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype.kind == b.dtype.kind and a.tobytes() == b.tobytes(), f


class TestRowPrune:
    def _check_prune(self, rows: list[LinearRow], n_cols: int) -> list[LinearRow]:
        kept = _prune(rows, n_cols)
        ids = {id(row) for row in kept}
        assert [row for row in rows if id(row) in ids] == kept  # given order kept
        basis: dict[int, dict[int, Fraction]] = {}
        for row in kept:
            v = _reduce(_augmented(row, n_cols), basis)
            assert v, "a kept row lies in the span of the rows kept before it"
            piv = min(v)
            basis[piv] = {k: c / v[piv] for k, c in v.items()}
        for row in rows:
            if id(row) not in ids:
                assert not _reduce(_augmented(row, n_cols), basis), "a dropped row is independent"
        return kept

    @pytest.mark.parametrize("coeffs, rhs, kept", [
        ({3: Fraction(-2), 4: Fraction(1, 3)}, Fraction(0), [0]),  # a nonzero row
        ({}, Fraction(5), [0]),  # rhs only
        ({}, Fraction(0), []),  # all zero
        ({3: Fraction(0)}, Fraction(0), []),  # all zero, with an explicit zero
    ])
    def test_one_row_is_kept_as_dpstrf_keeps_it(self, coeffs, rhs, kept):
        # one row against dpstrf of its 1 x 1 Gram matrix
        rows = SparseRows.of([LinearRow(coeffs, rhs, "eq").family()])
        _, piv, rank, info = scipy.linalg.lapack.dpstrf(relaxation._weighted_gram(rows, 5), lower=1)
        assert info >= 0 and sorted(piv[:rank] - 1) == kept
        assert prune_dependent_rows(rows, 5).tolist() == kept

    def test_eig_assign_equality_products(self):
        # eig-assign n = 3 at r = 3: the products of the equality constraints
        # with every monomial that fits carry many exact dependencies
        pop = build_eig_assign(3)
        plan = measure_plan(pop.feasible_set, 3)
        n_cols = monomial_count(3, 6)
        rows = [LinearRow({0: Fraction(1)}, Fraction(1), "eq")] + [
            LinearRow({int(k): Fraction(c) for k, c in zip(ranks, coeffs)}, Fraction(0), "eq")
            for coeffs, family in plan.equality_families
            for ranks in family
        ]
        kept = self._check_prune(rows, n_cols)
        assert 0 < len(kept) < len(rows)

    @staticmethod
    def _pruned_inputs(monkeypatch, build) -> list[tuple[list[LinearRow], int]]:
        # the (rows, n_cols) of every prune a relaxation build makes, as exact
        # rows: the reference assembly's, which must be what the prune saw
        seen = []

        def record(rows, n_cols):
            seen.append((rows, n_cols))
            return prune(rows, n_cols)

        prune = relaxation.prune_dependent_rows
        with monkeypatch.context() as m:
            m.setattr(relaxation, "prune_dependent_rows", record)
            calls = _assemblies(m, build)
        out = []
        for (rows, n_cols), (args, _) in zip(seen, calls, strict=True):
            eq_rows = reference.rows_and_data(*args[:3])[4]
            _assert_same_rows(rows, SparseRows.of(row.family() for row in eq_rows))
            out.append((eq_rows, n_cols))
        return out

    @staticmethod
    def _fixed_horizon():
        occ = VarSpace.of("t", "x1")
        dyn = DynamicsSpec(
            states=("x1",),
            cells=[("occ", [parse_polynomial("1", occ)])],
            lagrangian=Polynomial.zero(2),
            initial=(0,),
            terminal=(2,),
            horizon=Fraction(2),
        )
        supp = SemialgebraicSet(
            occ, inequalities=[parse_polynomial("x1", occ), parse_polynomial("2 - x1", occ)]
        )
        dp = build_dynamics_gmp(
            dyn, 2, {"occ": supp},
            objective=[("occ", parse_polynomial("x1^2", occ))],
        )
        build_gmp_relaxation(dp.gmp, 2)

    def _builds(self):
        return {
            "eig3-r2": lambda: build_relaxation(build_eig_assign(3), 2),
            "eig3-r3": lambda: build_relaxation(build_eig_assign(3), 3),
            "eig4-r3": lambda: build_relaxation(build_eig_assign(4), 3),
            "saturation-r3": lambda: build_gmp_relaxation(build_saturation_cells(3).gmp, 3),
            "fixed-horizon": self._fixed_horizon,
        }

    def _prune_inputs_of(self, monkeypatch, name) -> tuple[list[LinearRow], int]:
        (case,) = self._pruned_inputs(monkeypatch, self._builds()[name])
        return case

    @staticmethod
    def _kept_positions(rows: list[LinearRow], n_cols: int) -> list[int]:
        pos = {id(row): i for i, row in enumerate(rows)}
        return [pos[id(row)] for row in _prune(rows, n_cols)]

    def test_kept_rows_are_a_basis(self, monkeypatch):
        # exact rational check on every build: kept rows independent, dropped
        # rows in their span
        sizes = {}
        for name in self._builds():
            rows, n_cols = self._prune_inputs_of(monkeypatch, name)
            sizes[name] = (len(rows), len(self._check_prune(rows, n_cols)))
        assert sizes["eig3-r2"] == (35, 30)
        assert sizes["fixed-horizon"] == (14, 10)
        assert all(0 < k < n for name, (n, k) in sizes.items() if name.startswith("eig")), sizes

    def test_kept_rows_match_scipy_qr_without_ties(self, monkeypatch):
        # where no exact tie in the row norms decides a pick, the greedy rule
        # is the column-pivoted QR's: the kept rows are those of scipy.linalg.qr
        # on the rows after an exact dedupe (fixed-horizon repeats y0 = 1)
        for name in ("eig4-r3", "saturation-r3", "fixed-horizon"):
            all_rows, n_cols = self._prune_inputs_of(monkeypatch, name)
            rows = _dedupe(all_rows)
            A = np.zeros((len(rows), n_cols + 1))
            for ri, row in enumerate(rows):
                for k, c in row.coeffs.items():
                    A[ri, k] = float(c)
                A[ri, n_cols] = float(row.rhs)
                A[ri] /= np.abs(A[ri]).max()
            R, piv = scipy.linalg.qr(A.T, mode="r", pivoting=True)
            diag = np.abs(np.diag(R))
            rank = int(np.sum(diag > 1e-11 * diag[0]))
            kept = _prune(all_rows, n_cols)
            assert [id(row) for row in kept] == [id(rows[i]) for i in sorted(piv[:rank])], name

    def test_exact_tie_keeps_the_earlier_row(self, monkeypatch):
        # eig-assign n = 3 at r = 2: rows 13 and 15 tie exactly when one of
        # them is picked, and only one of the two is kept; whichever comes
        # first in the given order is the one kept
        rows, n_cols = self._prune_inputs_of(monkeypatch, "eig3-r2")
        kept = self._kept_positions(rows, n_cols)
        assert 13 in kept and 15 not in kept
        swapped = list(rows)
        swapped[13], swapped[15] = rows[15], rows[13]
        assert self._kept_positions(swapped, n_cols) == kept

    def test_kept_set_invariant_under_moment_relabeling(self, monkeypatch):
        rng = np.random.default_rng(3)
        for name in self._builds():
            rows, n_cols = self._prune_inputs_of(monkeypatch, name)
            kept = self._kept_positions(rows, n_cols)
            for _ in range(3):
                perm = rng.permutation(n_cols)
                relabeled = [
                    LinearRow({int(perm[k]): c for k, c in row.coeffs.items()}, row.rhs, row.relation)
                    for row in rows
                ]
                assert self._kept_positions(relabeled, n_cols) == kept, name

    def test_prune_drops_duplicates_as_dedupe_does(self, monkeypatch):
        # equality rows reach the prune without a dedupe pass: with exact
        # duplicates (scaled copies) injected, it keeps the same rows either way
        rng = np.random.default_rng(5)
        for name in self._builds():
            rows, n_cols = self._prune_inputs_of(monkeypatch, name)
            rows = list(rows)
            for src in rng.choice(len(rows), size=max(2, len(rows) // 5), replace=False):
                row = rows[src]
                f = Fraction(int(rng.choice([-3, -2, -1, 1, 2, 3])), int(rng.integers(1, 4)))
                copy = LinearRow({k: f * c for k, c in row.coeffs.items()}, f * row.rhs, "eq")
                rows.insert(int(rng.integers(0, len(rows) + 1)), copy)
            deduped = _dedupe(rows)
            assert len(deduped) < len(rows)
            kept = _prune(rows, n_cols)
            assert [id(row) for row in _prune(deduped, n_cols)] == [id(row) for row in kept], name

    def test_inconsistent_row_is_kept(self):
        # y0 = 1 next to y0 = 2: the coefficients alone are dependent, the
        # augmented rows are not, so both stay and the solve can see it
        y0_is_1 = LinearRow({0: Fraction(1)}, Fraction(1), "eq")
        y0_is_2 = LinearRow({0: Fraction(1)}, Fraction(2), "eq")
        assert self._check_prune([y0_is_1, y0_is_2], 2) == [y0_is_1, y0_is_2]
        # a consistent multiple of y0 = 1 is redundant; the inconsistency stays
        twice = LinearRow({0: Fraction(2)}, Fraction(2), "eq")
        kept = self._check_prune([y0_is_1, twice, y0_is_2], 2)
        assert len(kept) == 2 and y0_is_2 in kept


# the orders at which perfbench's fixtures-cli workload solves each fixture (None: the minimal one)
CLI_ORDERS = {"bolza.gmp": 3, "decay_energy.gmp": 4, "eigassign2.pop": None, "eigassign3.pop": None,
              "eigassign4.pop": 3, "lqr_scalar.gmp": 3, "pillow.pencil": None, "planar_nonconvex.pop": 3,
              "power_chain.pencil": None, "saturation3.gmp": 3, "sqrt2.sdp": None, "sqrt2_point.sdp": None,
              "unit_disk.pop": None}


class TestNumpyPrune:
    """`sdp._pivoted_cholesky` of `_dense_gram` keeps exactly the rows that dpstrf keeps of
    `_weighted_gram`, and `prune_dependent_rows` keeps them whatever its row limit."""

    @staticmethod
    def _received(monkeypatch, run) -> list[tuple[SparseRows, int]]:
        """The (rows, n_cols) of every prune that run() makes."""
        seen = []
        prune = relaxation.prune_dependent_rows

        def record(rows, n_cols):
            seen.append((rows, n_cols))
            return prune(rows, n_cols)

        with monkeypatch.context() as m:
            m.setattr(relaxation, "prune_dependent_rows", record)
            run()
        return seen

    @staticmethod
    def _kept(monkeypatch, rows: SparseRows, n_cols: int) -> list[int]:
        """dpstrf's kept rows, after checking that the numpy helper and the prune at either
        limit keep the same and that the dense Gram matrix is the sparse one to rounding."""
        G = relaxation._weighted_gram(rows, n_cols)
        lower = np.tril(np.asarray(G))
        dense = relaxation._dense_gram(rows, n_cols)
        assert np.abs(dense - (lower + np.tril(lower, -1).T)).max() <= 1e-14 * np.abs(lower).max()
        _, piv, rank, info = scipy.linalg.lapack.dpstrf(G, lower=1)
        assert info >= 0
        kept = sorted((piv[:rank] - 1).tolist())
        assert sorted(_pivoted_cholesky(dense, len(rows))[1]) == kept
        for limit in (0, len(rows)):  # the dpstrf path, then the numpy one
            with monkeypatch.context() as m:
                m.setattr(relaxation, "_NUMPY_PRUNE_ROWS", limit)
                assert prune_dependent_rows(rows, n_cols).tolist() == kept
        return kept

    def test_fixtures_at_the_benchmark_orders(self, monkeypatch):
        def run():
            for name, order in CLI_ORDERS.items():
                argv = ["solve", os.path.join(FIXTURES, name), "--extract"]
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(argv + (["--order", str(order)] if order else []))

        sets = self._received(monkeypatch, run)
        # bolza, decay_energy and lqr_scalar (two phases each), eigassign2-4, planar_nonconvex,
        # saturation3 and unit_disk
        assert len(sets) == 11
        for rows, n_cols in sets:
            self._kept(monkeypatch, rows, n_cols)

    def test_eig_ladder_saturation_cells_and_eig_assign(self, monkeypatch):
        builds = [lambda n=n: build_relaxation(eliminate_linear_equalities(build_eig_assign(n))[0], 3)
                  for n in (4, 5, 6)]
        builds += [lambda k=k: build_gmp_relaxation(build_saturation_cells(k).gmp, k) for k in (2, 3, 4, 5)]
        builds += [lambda n=n, r=r: build_relaxation(build_eig_assign(n), r)
                   for n in (2, 3, 4) for r in range(build_eig_assign(n).minimal_order(), 5)]
        sizes = []
        for build in builds:
            ((rows, n_cols),) = self._received(monkeypatch, build)
            sizes.append((len(rows), len(self._kept(monkeypatch, rows, n_cols))))
        assert sizes[:3] == [(66, 61), (126, 120), (211, 204)]  # the eig-ladder's reduced programs
        assert max(sizes) == (737, 472)  # eig-assign n = 4 at r = 4

    def test_planted_rows(self, monkeypatch):
        ((rows, n_cols),) = self._received(monkeypatch, lambda: build_relaxation(build_eig_assign(3), 2))
        kept = self._kept(monkeypatch, rows, n_cols)
        first = kept[0]
        planted = [row.family() for row in (
            LinearRow({}, Fraction(3), "eq"),  # rhs only: independent of every row, stays
            LinearRow({}, Fraction(0), "eq"),  # all zero: goes
        )]
        families = [(rows.coeffs[lo:hi], rows.cols[lo:hi][None], rows.rhs[i])
                    for i, (lo, hi) in enumerate(zip(rows.indptr[:-1], rows.indptr[1:]))]
        duplicate = len(families)  # an exact duplicate of a kept row, after it: goes
        families.append(families[first])
        grown = SparseRows.of(families + planted)
        assert self._kept(monkeypatch, grown, n_cols) == kept + [duplicate + 1]


def _eig_builds():
    out = {}
    for n in (2, 3, 4, 5):
        for r in range(build_eig_assign(n).minimal_order(), 5):
            out[f"eig{n}-r{r}"] = lambda n=n, r=r: build_relaxation(build_eig_assign(n), r)
    out["eig6-r3"] = lambda: build_relaxation(build_eig_assign(6), 3)
    return out


def _gmp_fixture_builds():
    out = {}
    explicit = {"bolza": 3, "decay_energy": 4, "lqr_scalar": 3, "saturation3": 3}
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.gmp"))):
        name = os.path.basename(path)[:-4]
        data = load_problem(path).gmp
        for r in sorted({_minimal_gmp_order(data), explicit[name]}):
            out[f"{name}-r{r}"] = lambda data=data, r=r: build_gmp_relaxation(data.instantiate(r)[0], r)
    return out


# every build the array assembly must reproduce bit for bit
PROGRAM_BUILDS = {
    **_eig_builds(),
    **{f"saturation-r{r}": (lambda r=r: build_gmp_relaxation(build_saturation_cells(r).gmp, r))
       for r in (2, 3, 4)},
    "planar-shadow-r2": lambda: shadow_support_points(build_polyopt().feasible_set, 2, []),
    **_gmp_fixture_builds(),
}


class TestAgainstReferenceAssembly:
    """The index-array assembly against the dict-and-Fraction one it replaced."""

    @pytest.mark.parametrize("name", list(PROGRAM_BUILDS))
    def test_program_is_bit_identical(self, monkeypatch, name):
        calls = _assemblies(monkeypatch, PROGRAM_BUILDS[name])
        assert calls
        for args, asm in calls:
            ref = reference.assemble(*args)
            assert asm.measure_offsets == ref.measure_offsets
            assert asm.measure_exponents == ref.measure_exponents
            assert asm.measures == ref.measures
            assert asm.objective.tobytes() == ref.objective.tobytes()
            assert asm.objective_constant == ref.objective_constant
            got, want = asm.program, ref.program
            assert got.blocks == want.blocks
            assert got.b.tobytes() == want.b.tobytes()
            for x, y in zip(got.A, want.A, strict=True):
                for f in ("rows", "cols", "vals"):
                    a, b = getattr(x, f), getattr(y, f)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f
            for x, y in zip(got.C, want.C, strict=True):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name", ["eig3-r3", "eig4-r4", "saturation-r3", "bolza-r2", "planar-shadow-r2"])
    def test_measure_data_and_rows_are_bit_identical(self, monkeypatch, name):
        # before validation sorts them: the PSD triplets in the same order,
        # and the equality rows the prune sees
        for args, _ in _assemblies(monkeypatch, PROGRAM_BUILDS[name]):
            supports, r, constraints = args[:3]
            _, _, offsets, _, eq_rows, _, ref_data = reference.rows_and_data(supports, r, constraints)
            n_explicit = sum(con.relation == "eq" for con in constraints)
            data, families = [], [row.family() for row in eq_rows[:n_explicit]]
            for measure, off in offsets.items():
                d, f = relaxation._measure_data(measure_plan(supports[measure], r), off)
                data += d
                families += f
            for x, y in zip(data, ref_data, strict=True):
                for f in ("rows", "cols", "vals"):
                    a, b = getattr(x, f), getattr(y, f)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f
            rows = SparseRows.of(families)
            _assert_same_rows(rows, SparseRows.of(row.family() for row in eq_rows))

    @pytest.mark.parametrize("name", ["eig3-r2", "eig4-r3", "eig5-r4", "eig6-r3", "saturation-r4", "lqr_scalar-r3"])
    def test_gram_and_kept_rows_are_identical(self, monkeypatch, name):
        for args, _ in _assemblies(monkeypatch, PROGRAM_BUILDS[name]):
            _, _, _, m, eq_rows, _, _ = reference.rows_and_data(*args[:3])
            rows = SparseRows.of(row.family() for row in eq_rows)
            G = relaxation._weighted_gram(rows, m)
            assert G.tobytes() == reference.weighted_gram(eq_rows, m).tobytes()
            kept = {id(row) for row in reference.prune_dependent_rows(eq_rows, m)}
            want = [i for i, row in enumerate(eq_rows) if id(row) in kept]
            assert prune_dependent_rows(rows, m).tolist() == want

