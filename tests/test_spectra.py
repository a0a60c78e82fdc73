from fractions import Fraction

import numpy as np
import pytest

from momentsdp.casestudies import build_polyopt, build_unit_disk
from momentsdp.gmp import GMPProblem, MeasureDecl, MomentConstraint, solve_gmp
from momentsdp.polynomials import Polynomial, VarSpace, parse_polynomial
from momentsdp.sdp import SolveOptions
from momentsdp.spectra import (
    Pencil,
    defining_polynomials,
    membership,
    shadow_support_points,
    shadow_table,
    unit_directions,
)

SP3 = VarSpace.of("x1", "x2", "x3")
HI = SolveOptions(gap_tol=1e-9, feas_tol=1e-8)


def pillow_pencil() -> Pencil:
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    F1 = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    F2 = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    F3 = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    return Pencil.from_arrays([I3, F1, F2, F3])


def power_chain_pencil() -> Pencil:
    def sym(entries):
        M = [[Fraction(0)] * 6 for _ in range(6)]
        for i, j, v in entries:
            M[i][j] = M[j][i] = Fraction(v)
        return tuple(tuple(row) for row in M)

    return Pencil(
        3,
        6,
        [
            sym([(0, 0, 1), (0, 1, 2), (2, 2, 1), (4, 4, 1)]),
            sym([(1, 1, 1), (2, 3, 1)]),
            sym([(3, 3, 1), (4, 5, 1)]),
            sym([(5, 5, 1)]),
        ],
    )


class TestDefiningPolynomials:
    def test_pillow_exact(self):
        fs = defining_polynomials(pillow_pencil())
        P = lambda s: parse_polynomial(s, SP3)
        assert fs[0] == P("3")
        assert fs[1] == P("3 - x1^2 - x2^2 - x3^2")
        assert fs[2] == P("1 + 2*x1*x2*x3 - x1^2 - x2^2 - x3^2")

    def test_diagonal_pencil_elementary_symmetric(self):
        D1 = [[1, 0], [0, 0]]
        D2 = [[0, 0], [0, 1]]
        p = Pencil.from_arrays([[[0, 0], [0, 0]], D1, D2])
        fs = defining_polynomials(p)
        SP2 = VarSpace.of("x1", "x2")
        assert fs[0] == parse_polynomial("x1 + x2", SP2)
        assert fs[1] == parse_polynomial("x1*x2", SP2)

    def test_two_by_two_trace_and_det(self):
        p = Pencil.from_arrays([[[1, 0], [0, 2]], [[0, 1], [1, 0]]])
        fs = defining_polynomials(p)
        SP1 = VarSpace.of("x1")
        assert fs[0] == parse_polynomial("3", SP1)
        assert fs[1] == parse_polynomial("2 - x1^2", SP1)

    def test_side_limit(self):
        big = Pencil.from_arrays([np.eye(9).tolist()])
        with pytest.raises(ValueError):
            defining_polynomials(big)

    def test_exact_rational_output(self):
        p = Pencil.from_arrays(
            [[[Fraction(1, 3), 0], [0, Fraction(1, 5)]], [[0, 1], [1, 0]]]
        )
        fs = defining_polynomials(p)
        assert fs[1].coeff((0,)) == Fraction(1, 15)
        assert fs[1].coeff((2,)) == Fraction(-1)


class TestMembership:
    def test_pillow_origin_and_corner(self):
        p = pillow_pencil()
        assert membership(p, [0, 0, 0])
        assert membership(p, [1, 1, 1], tol=1e-9)  # boundary point
        assert not membership(p, [1.05, 1, 1])

    def test_power_chain(self):
        p = power_chain_pencil()
        assert membership(p, [4, 16, 256], tol=1e-9)
        assert not membership(p, [4, 16, 255.9])
        assert not membership(p, [4, 16, 255])
        assert membership(p, [5, 30, 1000])

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            membership(pillow_pencil(), [0, 0])

    def test_matches_defining_polynomials(self):
        # membership iff every defining polynomial is nonnegative, checked on
        # random rational pencils of side <= 5
        rng = np.random.default_rng(15)
        for _ in range(6):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 4))
            mats = []
            for k in range(n + 1):
                T = rng.integers(-2, 3, size=(m, m))
                M = (T + T.T).tolist()
                if k == 0:
                    M = (np.array(M) + (m + 1) * np.eye(m, dtype=int)).tolist()
                mats.append([[Fraction(int(v)) for v in row] for row in M])
            pencil = Pencil.from_arrays(mats)
            fs = defining_polynomials(pencil)
            for _ in range(40):
                x = rng.uniform(-1.5, 1.5, size=n)
                F = pencil.evaluate(x)
                scale = max(1.0, float(np.abs(F).max()))
                inside = membership(pencil, x, tol=1e-9 * scale)
                by_polys = all(
                    float(f.evaluate(list(x))) >= -1e-7 * scale ** f.degree for f in fs
                )
                assert inside == by_polys, (x, inside, by_polys)


class TestShadow:
    def test_unit_disk_is_its_own_shadow(self):
        disk = build_unit_disk()
        pts = shadow_support_points(disk, 1, unit_directions(4), options=HI)
        for p in pts:
            assert p.status == "optimal"
            assert p.value == pytest.approx(1.0, abs=1e-7)
            assert np.hypot(*p.point) == pytest.approx(1.0, abs=1e-6)

    def test_planar_benchmark_vertical_direction(self):
        feas = build_polyopt().feasible_set
        up = [(0.0, 1.0)]
        v1 = shadow_support_points(feas, 1, up, options=HI)[0]
        v2 = shadow_support_points(feas, 2, up, options=HI)[0]
        assert v1.value == pytest.approx(2.0, abs=1e-6)
        assert v2.value == pytest.approx((1 + np.sqrt(5.0)) / 2, abs=1e-6)

    def test_nesting_in_the_order(self):
        feas = build_polyopt().feasible_set
        dirs = unit_directions(8)
        p1 = shadow_support_points(feas, 1, dirs, options=HI)
        p2 = shadow_support_points(feas, 2, dirs, options=HI)
        for a, b in zip(p1, p2):
            assert b.value <= a.value + 1e-6

    def test_containment_of_sampled_points(self):
        feas = build_polyopt().feasible_set
        dirs = unit_directions(8)
        pts = shadow_support_points(feas, 1, dirs, options=HI)
        rng = np.random.default_rng(1)
        found = 0
        while found < 60:
            x = rng.uniform([-3, -3], [3, 3])
            if not feas.contains(x):
                continue
            found += 1
            for p in pts:
                assert p.direction[0] * x[0] + p.direction[1] * x[1] <= p.value + 1e-6

    def test_shared_assembly_matches_standalone_gmp(self):
        # one assembly serves every direction; each point must equal the
        # one-measure "max" GMP relaxed and solved for that direction alone
        feas = build_polyopt().feasible_set
        dirs = unit_directions(8)[1::2]
        opts = SolveOptions(gap_tol=1e-7, feas_tol=1e-7)
        pts = shadow_support_points(feas, 2, dirs, options=opts)
        mass = MomentConstraint([("mu", Polynomial.constant(2, 1))], Fraction(1), "eq")
        for p, (cx, cy) in zip(pts, dirs):
            g = GMPProblem(
                measures=[MeasureDecl("mu", feas)],
                constraints=[mass],
                objective=[("mu", Polynomial(2, {(1, 0): cx, (0, 1): cy}))],
                sense="max",
            )
            res = solve_gmp(g, 2, opts)
            y = res.moments["mu"]
            assert p.status == res.solution.status == "optimal"
            assert p.value == res.bound
            assert p.point == (float(y.value((1, 0))), float(y.value((0, 1))))

    def test_table_format(self):
        disk = build_unit_disk()
        pts = shadow_support_points(disk, 1, [(1.0, 0.0)], options=HI)
        table = shadow_table(pts)
        lines = table.strip().splitlines()
        assert lines[0] == "# cx cy sx sy value status"
        assert len(lines[1].split()) == 6
        assert lines[1].split()[-1] == pts[0].status == "optimal"

    def test_projection_validation(self):
        disk = build_unit_disk()
        with pytest.raises(ValueError):
            shadow_support_points(disk, 1, [(1.0, 0.0)], projection=(0, 0))

    def test_direction_count_validation(self):
        with pytest.raises(ValueError):
            unit_directions(0)
        assert len(unit_directions(16)) == 16


class TestPencilValidation:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            Pencil.from_arrays([[[0, 1], [0, 0]]])

    def test_matrix_count(self):
        with pytest.raises(ValueError):
            Pencil(nvars=2, side=2, coefficients=[((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))])
