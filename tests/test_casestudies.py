import math
from fractions import Fraction

import numpy as np
import pytest

from momentsdp.casestudies import (
    build_bolza,
    build_eig_assign,
    build_lqr,
    build_occtraj,
    build_polyopt,
    build_saturation_cells,
    eig_assign_targets,
)
from momentsdp.extraction import certify
from momentsdp.polynomials import VarSpace, parse_polynomial
from momentsdp.relaxation import bound_and_moments
from momentsdp.sdp import SolveOptions

EQ_OPTS = SolveOptions(gap_tol=1e-5, feas_tol=1e-7)


def eig_assign_oracle_n2():
    """Quadratic-formula roots of 3/4 x1 + x2 = 2/5, x1 x2 = 2/45.

    Substituting gives 135 x1^2 - 72 x1 + 8 = 0; of the two root pairs the
    one minimizing (x1 - x2)^2 is the target.
    """
    disc = math.sqrt(72.0**2 - 4 * 135 * 8)
    pairs = []
    for x1 in ((72 - disc) / 270, (72 + disc) / 270):
        pairs.append((x1, 0.4 - 0.75 * x1))
    return min(pairs, key=lambda p: (p[0] - p[1]) ** 2)


class TestGenerator:
    def test_targets(self):
        assert eig_assign_targets(3) == [Fraction(1, 3), Fraction(1, 15), Fraction(1, 35)]

    def test_n2_system_exact(self):
        pop = build_eig_assign(2)
        sp = VarSpace.of("x1", "x2")
        want = [
            parse_polynomial("3/4*x1 + x2 - 2/5", sp),
            parse_polynomial("1/2*x1*x2 - 1/45", sp),
        ]
        assert pop.feasible_set.equalities == want

    def test_n3_system_exact(self):
        pop = build_eig_assign(3)
        sp = VarSpace.of("x1", "x2", "x3")
        want = [
            parse_polynomial("5/6*x1 + 4/3*x2 + 3/2*x3 - 3/7", sp),
            parse_polynomial("2/3*x1*x2 + x1*x3 + x2*x3 - 53/1575", sp),
            parse_polynomial("1/2*x1*x2*x3 - 1/1575", sp),
        ]
        assert pop.feasible_set.equalities == want

    def test_degrees_run_one_to_n(self):
        for n in (2, 3, 4, 5):
            pop = build_eig_assign(n)
            assert [p.degree for p in pop.feasible_set.equalities] == list(range(1, n + 1))
            for p in pop.feasible_set.equalities:
                assert all(isinstance(c, Fraction) for c in p.terms.values())

    def test_objective_is_pairwise_square_spread(self):
        pop = build_eig_assign(3)
        x = [0.3, -0.2, 0.5]
        want = sum((xi - xj) ** 2 for xi in x for xj in x)
        assert float(pop.objective.evaluate(x)) == pytest.approx(want)

    def test_ball_radius_default(self):
        assert build_eig_assign(2).feasible_set.ball_radius == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            build_eig_assign(1)
        with pytest.raises(ValueError):
            build_eig_assign(9)

    def test_equalities_vanish_at_derived_n2_solution(self):
        pop = build_eig_assign(2)
        x = eig_assign_oracle_n2()
        for p in pop.feasible_set.equalities:
            assert abs(float(p.evaluate(list(x)))) <= 1e-12


class TestSolutions:
    def test_n2_atom_matches_quadratic_formula(self):
        pop = build_eig_assign(2)
        res = bound_and_moments(pop, 2, EQ_OPTS)
        cert = certify(res.moments, 2, res.info.r_x)
        assert cert.flat and len(cert.atoms) == 1
        oracle = eig_assign_oracle_n2()
        assert np.abs(np.asarray(cert.atoms[0][0]) - np.asarray(oracle)).max() < 1e-6

    def test_n3_minimal_order_rank_one(self):
        pop = build_eig_assign(3)
        res = bound_and_moments(pop, 2, EQ_OPTS)
        cert = certify(res.moments, 2, res.info.r_x)
        assert cert.flat and cert.ranks[-1] == 1
        point = np.asarray(cert.atoms[0][0])
        printed = np.array([9.3786e-2, 8.6296e-2, 1.5690e-1])
        assert np.abs(point - printed).max() < 1e-3

    def test_n4_first_flat_order_self_certifies(self):
        pop = build_eig_assign(4)
        # at gap 1e-5 the solve stops at 0.0119444, where the second eigenvalue
        # of M_3 (1.7e-6) is still above certify's rank tolerance of 1e-6
        res = bound_and_moments(pop, 3, SolveOptions(gap_tol=1e-6, feas_tol=1e-7))
        cert = certify(
            res.moments,
            3,
            res.info.r_x,
            constraints=[("eq", q) for q in pop.feasible_set.equalities],
        )
        assert cert.flat and len(cert.atoms) == 1
        # the atom is feasible and its value meets the certified lower bound,
        # so it is a global minimizer up to the tolerance
        assert cert.residual <= 1e-5
        value = float(pop.objective.evaluate([float(v) for v in cert.atoms[0][0]]))
        assert value - res.bound <= 1e-4

    def test_n5_bound_is_valid(self):
        from scipy.optimize import fsolve

        pop = build_eig_assign(5)
        res = bound_and_moments(pop, 3, SolveOptions(gap_tol=1e-4, feas_tol=1e-5))
        assert res.solution.status == "optimal"
        # polish a real root from the first-order moments and check the bound
        # sits below its objective value
        x0 = [float(res.moments.value(tuple(int(i == j) for j in range(5)))) for i in range(5)]
        fn = lambda x: [float(q.evaluate(list(x))) for q in pop.feasible_set.equalities]
        xhat = x0
        for _ in range(3):  # fsolve may stall short of a root (ier 4): go on from where it stopped
            xhat, _, ier, _ = fsolve(fn, xhat, full_output=True)
            if ier == 1:
                break
        assert ier == 1
        assert res.bound <= float(pop.objective.evaluate(list(xhat))) + 1e-6


class TestTrajectoryBuilders:
    def test_occtraj_supports(self):
        dp = build_occtraj(2)
        byname = dp.gmp.by_name()
        x1 = VarSpace.of("x1")
        assert byname["occ"].support.inequalities == [parse_polynomial("4 - x1^2", x1)]
        assert byname["init"].support.inequalities == [
            parse_polynomial("1/4 - (x1 - 3/2)^2", x1)
        ]
        assert byname["term"].support.inequalities == [parse_polynomial("1/4 - x1^2", x1)]
        # normalization plus one transport row per test monomial
        assert len(dp.gmp.constraints) == 1 + (2 * 2 + 1)

    def test_lqr_shape(self):
        dp = build_lqr(1)
        names = [m.name for m in dp.gmp.measures]
        assert names == ["occ"]  # endpoint point masses never become measures
        assert dp.gmp.measures[0].variables == ("x1", "u1")
        rels = [c.relation for c in dp.gmp.constraints]
        assert rels.count("le") == 1  # the horizon cap row

    def test_bolza_shape(self):
        dp = build_bolza(2)
        assert [m.name for m in dp.gmp.measures] == ["occ"]
        assert dp.gmp.measures[0].variables == ("t", "x1", "u1")
        # time box added once on top of the two declared supports
        assert len(dp.gmp.measures[0].support.inequalities) == 3
        assert dp.gmp.sense == "min"

    def test_saturation_shape(self):
        dp = build_saturation_cells(1)
        names = [m.name for m in dp.gmp.measures]
        assert names == ["lin", "upper", "lower", "init", "term"]
        assert dp.gmp.sense == "max"

    def test_polyopt_problem(self):
        pop = build_polyopt()
        assert pop.minimal_order() == 1
        assert len(pop.feasible_set.inequalities) == 3


def test_n6_long_running_bound_is_valid():
    from scipy.optimize import fsolve

    pop = build_eig_assign(6)
    res = bound_and_moments(pop, 3, SolveOptions(gap_tol=1e-4, feas_tol=1e-5, max_iter=100))
    x0 = [float(res.moments.value(tuple(int(i == j) for j in range(6)))) for i in range(6)]
    fn = lambda x: [float(q.evaluate(list(x))) for q in pop.feasible_set.equalities]
    xhat, _, ier, _ = fsolve(fn, x0, full_output=True)
    if ier == 1:
        assert res.bound <= float(pop.objective.evaluate(list(xhat))) + 1e-6
