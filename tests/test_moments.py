from fractions import Fraction

import numpy as np
import pytest
import reference_assembly as reference

from momentsdp.moments import (
    MissingMomentError,
    MomentVector,
    evaluate_stencil,
    localizing_matrix_stencil,
    moment_matrix_stencil,
)
from momentsdp.polynomials import (
    Polynomial,
    VarSpace,
    exponent_array,
    exponents_up_to,
    grlex_index,
    grlex_ranks,
    monomial_count,
    parse_polynomial,
)

SP2 = VarSpace.of("x1", "x2")


def random_moment_vector(rng, nvars, degree):
    """Moments of a random positive atomic measure: always realizable."""
    k = rng.integers(1, 5)
    pts = rng.uniform(-1.5, 1.5, size=(k, nvars))
    ws = rng.uniform(0.2, 2.0, size=k)
    return MomentVector.from_atoms(pts, ws, degree)


def lebesgue_moments_01(degree):
    """Moments of the uniform measure on [0, 1]: y_a = 1/(a+1)."""
    return MomentVector(1, degree, np.array([1.0 / (a + 1) for a in range(degree + 1)]))


def riesz(p, y):
    """The linear functional of `y` applied to `p`: sum_alpha p_alpha y_alpha."""
    return sum(c * y.value(e) for e, c in p.terms.items())


class TestMomentStencil:
    def test_3x3_layout(self):
        st = moment_matrix_stencil(2, 1)
        assert st.side == 3
        grid = [[st.cell(i, j)[0][0] for j in range(3)] for i in range(3)]
        assert grid == [
            [(0, 0), (1, 0), (0, 1)],
            [(1, 0), (2, 0), (1, 1)],
            [(0, 1), (1, 1), (0, 2)],
        ]

    def test_1x1(self):
        st = moment_matrix_stencil(1, 0)
        assert st.side == 1 and st.cell(0, 0) == [((0,), Fraction(1))]

    def test_6x6_layout(self):
        st = moment_matrix_stencil(2, 2)
        assert st.side == 6
        rows = exponents_up_to(2, 2)
        for i in range(6):
            for j in range(6):
                (exp, c), *rest = st.cell(i, j)
                assert not rest and c == 1
                assert exp == tuple(a + b for a, b in zip(rows[i], rows[j]))
        # spot checks against the printed matrix
        assert st.cell(3, 5)[0][0] == (2, 2)
        assert st.cell(4, 4)[0][0] == (2, 2)
        assert st.cell(5, 5)[0][0] == (0, 4)

    def test_symmetry(self):
        st = moment_matrix_stencil(3, 2)
        for i in range(st.side):
            for j in range(i, st.side):
                assert st.cell(i, j) == st.cell(j, i)


class TestLocalizingStencil:
    def test_first_entry(self):
        q = parse_polynomial("1 + 2*x1 + 3*x2", SP2)
        st = localizing_matrix_stencil(q, 1)
        assert st.side == 3
        cell = dict(st.cell(0, 0))
        assert cell == {(0, 0): 1, (1, 0): 2, (0, 1): 3}

    def test_unit_polynomial_is_moment_stencil(self):
        one = Polynomial.constant(2, 1)
        assert localizing_matrix_stencil(one, 2).cells == moment_matrix_stencil(2, 2).cells

    def test_order_zero_row(self):
        q = parse_polynomial("3 - 2*x2 - x1^2 - x2^2", SP2)
        st = localizing_matrix_stencil(q, 0)
        assert st.side == 1
        assert dict(st.cell(0, 0)) == {
            (0, 0): Fraction(3),
            (0, 1): Fraction(-2),
            (2, 0): Fraction(-1),
            (0, 2): Fraction(-1),
        }

    def test_weighted_sum_of_shifted_moment_stencils(self):
        rng = np.random.default_rng(3)
        q = Polynomial(2, {(0, 0): Fraction(2), (1, 0): Fraction(-1), (0, 2): Fraction(3)})
        st = localizing_matrix_stencil(q, 2)
        base = moment_matrix_stencil(2, 2)
        for (i, j), pairs in st.cells.items():
            expect = {}
            for gamma, c in q.terms.items():
                b = base.cell(i, j)[0][0]
                expect[tuple(x + g for x, g in zip(b, gamma))] = c
            assert dict(pairs) == expect


class TestEvaluateStencil:
    def test_dirac_at_origin(self):
        y = MomentVector.from_atoms([(0.0, 0.0)], [1.0], 2)
        M = evaluate_stencil(moment_matrix_stencil(2, 1), y)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(M, expected)

    def test_lebesgue_unit_interval(self):
        y = lebesgue_moments_01(2)
        M = evaluate_stencil(moment_matrix_stencil(1, 1), y)
        assert np.allclose(M, [[1.0, 0.5], [0.5, 1 / 3]])

    def test_symmetric_output(self):
        rng = np.random.default_rng(0)
        y = random_moment_vector(rng, 2, 4)
        M = evaluate_stencil(moment_matrix_stencil(2, 2), y)
        assert np.array_equal(M, M.T)

    def test_atomic_measures_give_psd_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            y = random_moment_vector(rng, n, 2 * d)
            M = evaluate_stencil(moment_matrix_stencil(n, d), y)
            assert np.linalg.eigvalsh(M)[0] >= -1e-10


class TestGramIdentities:
    def test_moment_matrix_is_gram_of_squares(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            y = random_moment_vector(rng, n, 2 * d)
            exps = exponents_up_to(n, d)
            coeffs = rng.uniform(-1, 1, size=len(exps))
            p = Polynomial(n, {e: c for e, c in zip(exps, coeffs)})
            M = evaluate_stencil(moment_matrix_stencil(n, d), y)
            assert riesz(p * p, y) == pytest.approx(coeffs @ M @ coeffs, rel=1e-9, abs=1e-9)

    def test_localizing_matrix_is_gram_of_weighted_squares(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            d = int(rng.integers(1, 3))
            q_exps = exponents_up_to(n, 2)
            q = Polynomial(n, {e: rng.uniform(-1, 1) for e in q_exps})
            y = random_moment_vector(rng, n, 2 * d + 2)
            exps = exponents_up_to(n, d)
            coeffs = rng.uniform(-1, 1, size=len(exps))
            p = Polynomial(n, {e: c for e, c in zip(exps, coeffs)})
            Mq = evaluate_stencil(localizing_matrix_stencil(q, d), y)
            assert riesz(q * p * p, y) == pytest.approx(
                coeffs @ Mq @ coeffs, rel=1e-9, abs=1e-9
            )


class TestMomentVector:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            MomentVector(2, 2, np.zeros(5))

    def test_value_by_exponent(self):
        y = MomentVector(2, 2, np.arange(6.0))
        assert y.value((1, 1)) == 4.0
        with pytest.raises(MissingMomentError):
            y.value((3, 0))


def _random_polynomial(rng, nvars, degree, exact):
    exps = exponents_up_to(nvars, degree)
    picks = rng.choice(len(exps), size=int(rng.integers(1, min(5, len(exps)) + 1)), replace=False)
    if exact:
        return Polynomial(nvars, {exps[k]: Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 7)))
                                  for k in picks})
    return Polynomial(nvars, {exps[k]: float(rng.uniform(-2, 2)) for k in picks})


class TestAgainstReference:
    """Index-array ranks and stencils against the loop and dict code they replaced."""

    def test_vector_ranks_match_scalar_and_loop_ranks(self):
        # every exponent with n <= 6 variables and degree <= 10, n = 1 included
        for n in range(1, 7):
            E = exponent_array(n, 10)
            exps = [tuple(e) for e in E.tolist()]
            assert exps == reference.exponents_up_to(n, 10)
            assert grlex_ranks(E).tolist() == list(range(len(E)))
            assert [grlex_index(e) for e in exps] == list(range(len(E)))
            assert [reference.grlex_rank(e) for e in exps] == list(range(len(E)))
            for d in range(11):
                assert exponent_array(n, d).tolist() == E[: monomial_count(n, d)].tolist()
            # any leading shape: the ranks of a (2, N, n) stack
            assert grlex_ranks(np.stack([E, E[::-1]])).tolist() == [
                list(range(len(E))), list(range(len(E)))[::-1]
            ]

    def test_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="negative exponent"):
            grlex_index((2, -1, 1))
        with pytest.raises(ValueError, match=r"\(1, -1\)"):
            grlex_ranks(np.array([[0, 1], [1, -1], [-2, 0]]))

    def test_stencils_match_reference(self):
        rng = np.random.default_rng(12)
        for nvars in (1, 2, 3):
            for order in range(4):
                pairs = [(moment_matrix_stencil(nvars, order), reference.moment_matrix_stencil(nvars, order))]
                for exact in (True, False):
                    q = _random_polynomial(rng, nvars, 3, exact)
                    pairs.append(
                        (localizing_matrix_stencil(q, order), reference.localizing_matrix_stencil(q, order))
                    )
                for st, ref in pairs:
                    assert st.row_exponents == ref.row_exponents and st.side == ref.side
                    assert list(st.cells.items()) == list(ref.cells.items())
                    assert sum(len(p) for p in st.cells.values()) == sum(len(p) for p in ref.cells.values())
                    y = random_moment_vector(rng, nvars, 2 * order + 3)
                    assert evaluate_stencil(st, y).tobytes() == reference.evaluate_stencil(ref, y).tobytes()

    def test_missing_moment_matches_reference(self):
        q = parse_polynomial("1 - x1^2 + x1*x2^3", SP2)
        y = MomentVector(2, 4, np.zeros(monomial_count(2, 4)))
        with pytest.raises(MissingMomentError) as new:
            evaluate_stencil(localizing_matrix_stencil(q, 1), y)
        with pytest.raises(MissingMomentError) as old:
            reference.evaluate_stencil(reference.localizing_matrix_stencil(q, 1), y)
        assert new.value.exponent == old.value.exponent
