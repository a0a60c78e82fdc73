import itertools
from fractions import Fraction

import pytest

from momentsdp.polynomials import (
    Polynomial,
    PolynomialParseError,
    VarSpace,
    exponents_up_to,
    grlex_exponent,
    grlex_index,
    monomial_count,
    parse_polynomial,
)


def brute_force_exponents(n, d):
    """Independent oracle: enumerate all exponent tuples with sum <= d."""
    out = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
    return out


class TestMonomialCount:
    def test_two_vars_degree_two(self):
        assert monomial_count(2, 2) == 6

    def test_degree_zero(self):
        for n in range(1, 7):
            assert monomial_count(n, 0) == 1

    def test_three_vars_degree_two_enumeration(self):
        assert monomial_count(3, 2) == len(brute_force_exponents(3, 2)) == 10

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for d in range(0, 7):
                assert monomial_count(n, d) == len(brute_force_exponents(n, d))

    def test_exact_big(self):
        # arbitrary-precision integers: no wraparound possible
        assert monomial_count(50, 50) == __import__("math").comb(100, 50)

    def test_invalid(self):
        with pytest.raises(ValueError):
            monomial_count(-1, 2)


class TestGrlexOrder:
    def test_two_vars_printed_order(self):
        order = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        for k, e in enumerate(order):
            assert grlex_index(e) == k
            assert grlex_exponent(2, k) == e

    def test_inverse_example(self):
        assert grlex_exponent(2, 4) == (1, 1)

    def test_three_vars_first_four(self):
        expected = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        got = [grlex_exponent(3, k) for k in range(4)]
        assert got == expected
        # the full order is (degree, descending lex): derive independently
        ref = sorted(brute_force_exponents(3, 2), key=lambda e: (sum(e), tuple(-v for v in e)))
        assert [grlex_exponent(3, k) for k in range(len(ref))] == ref

    def test_roundtrip_all_small_spaces(self):
        for n in range(1, 7):
            for d in range(0, 9):
                for e in exponents_up_to(n, d):
                    assert grlex_exponent(n, grlex_index(e)) == e
        # the ranks are memoized now: a warm rank still inverts grlex_exponent,
        # a list reads the same rank as its tuple, and validation still runs
        for k in range(monomial_count(3, 6)):
            e = grlex_exponent(3, k)
            assert grlex_index(e) == grlex_index(list(e)) == k
        for _ in range(2):
            with pytest.raises(ValueError):
                grlex_index((2, -1, 1))

    def test_exponents_up_to_is_sorted(self):
        exps = exponents_up_to(3, 4)
        assert [grlex_index(e) for e in exps] == list(range(len(exps)))


SP2 = VarSpace.of("x1", "x2")


def _items(p: Polynomial) -> list:
    """Terms in dict order, each coefficient with its type."""
    return [(e, type(c), c) for e, c in p.terms.items()]


def _summed(nvars: int, pairs) -> Polynomial:
    """Polynomial(nvars, terms) of the terms an operation accumulates, summed in the given order."""
    out = {}
    for e, c in pairs:
        acc = out.get(e)
        out[e] = c if acc is None else acc + c
    return Polynomial(nvars, out)


def _product(p: Polynomial, q: Polynomial) -> Polynomial:
    return _summed(p.nvars, [(tuple(map(sum, zip(ea, eb))), ca * cb)
                             for ea, ca in p.terms.items() for eb, cb in q.terms.items()])


class TestArithmeticMatchesConstructor:
    """Every result of the arithmetic is the checked constructor's, term for term and in order."""

    @staticmethod
    def random_poly(rng, n: int) -> Polynomial:
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if rng.random() < 0.5:
                terms[e] = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 4]))
            else:
                terms[e] = rng.choice([0.5, -0.5, 0.25, -1.0, 1.5, 3.0])
        return Polynomial(n, terms)

    @staticmethod
    def cancelling(rng, p: Polynomial) -> Polynomial:
        """Some of -p's terms, some as floats, so sums with p cancel to Fraction or float zeros."""
        terms = {e: (-float(c) if rng.random() < 0.5 else -c) for e, c in p.terms.items()
                 if rng.random() < 0.7}
        return Polynomial(p.nvars, terms)

    def test_random_polynomials(self):
        import random

        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 3)
            p = self.random_poly(rng, n)
            q = self.cancelling(rng, p) if rng.random() < 0.5 else self.random_poly(rng, n)
            q = q + self.random_poly(rng, n) if rng.random() < 0.3 else q
            neg_q = Polynomial(n, {e: -c for e, c in q.terms.items()})
            pairs = [
                (p + q, _summed(n, [*p.terms.items(), *q.terms.items()])),
                (-q, neg_q),
                (p - q, _summed(n, [*p.terms.items(), *neg_q.terms.items()])),
                (p * q, _product(p, q)),
            ]
            for c in (Fraction(-2, 3), 0.5, 2):
                pairs.append((p * c, Polynomial(n, {e: v * c for e, v in p.terms.items()})))
            for k in range(4):  # by squaring, as `**` does
                power, base, bits = Polynomial.constant(n, 1), p, k
                while bits:
                    power = _product(power, base) if bits & 1 else power
                    base, bits = _product(base, base), bits >> 1
                pairs.append((p**k, power))
            for i in range(n):
                drop = tuple(int(j == i) for j in range(n))
                pairs.append((p.partial(i), Polynomial(n, {
                    tuple(a - b for a, b in zip(e, drop)): c * e[i] for e, c in p.terms.items() if e[i]
                })))
            mapping = [rng.randrange(2) for _ in range(n)]
            pairs.append((p.map_variables(2, mapping), _summed(2, [
                (tuple(sum(k for k, m in zip(e, mapping) if m == j) for j in range(2)), c)
                for e, c in p.terms.items()
            ])))
            pairs.append((p.top_form(), Polynomial(n, {e: c for e, c in p.terms.items()
                                                       if sum(e) == p.degree})))
            for got, want in pairs:
                assert (got.nvars, _items(got)) == (want.nvars, _items(want))

    def test_cancellation_drops_zeros_of_either_type(self):
        x = Polynomial.variable(1, 0)
        assert (x * Fraction(1, 2) + x * -0.5).is_zero()
        assert (x - x).is_zero() and (x * 0.5 - x * Fraction(1, 2)).terms == {}
        assert ((x + 1) * (x - 1)).terms == {(2,): 1, (0,): -1}
        assert Polynomial(2, {(1, 0): 1, (0, 1): -1}).map_variables(1, [0, 0]).is_zero()


class TestArithmetic:
    def test_eval_example(self):
        p = parse_polynomial("1 + 2*x2 + 3*x1^2 + 4*x1*x2", SP2)
        assert p.evaluate([1, 1]) == 10
        assert p.evaluate([Fraction(1), Fraction(1)]) == Fraction(10)

    def test_partial_power_rule(self):
        p = parse_polynomial("x1^2*x2", SP2)
        assert p.partial(0) == parse_polynomial("2*x1*x2", SP2)
        assert p.partial(1) == parse_polynomial("x1^2", SP2)

    def test_mul_degree(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        prod = x1 * x2
        assert prod == parse_polynomial("x1*x2", SP2)
        assert prod.degree == 2

    def test_eval_mul_homomorphism_random_rationals(self):
        import random

        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            def rand_poly():
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    e = tuple(rng.randint(0, 3) for _ in range(n))
                    terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                return Polynomial(n, terms)
            p, q = rand_poly(), rand_poly()
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
            assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
            assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
            if not p.is_zero() and not q.is_zero() and not (p * q).is_zero():
                assert (p * q).degree == p.degree + q.degree

    def test_zero_polynomial_degree(self):
        assert Polynomial.zero(3).degree == 0
        assert (Polynomial.constant(2, 1) - 1).degree == 0

    def test_no_zero_coefficients_stored(self):
        p = parse_polynomial("x1 - x1 + x2", SP2)
        assert list(p.terms) == [(0, 1)]

    def test_exact_rational_coefficients(self):
        p = parse_polynomial("53/1575*x1 - 1/3", VarSpace.of("x1"))
        assert p.coeff((1,)) == Fraction(53, 1575)
        assert p.coeff((0,)) == Fraction(-1, 3)

    def test_map_variables(self):
        p = parse_polynomial("x1*x2", SP2)
        q = p.map_variables(3, [2, 0])
        assert q == Polynomial(3, {(1, 0, 1): 1})

    def test_dimension_mismatch(self):
        p = parse_polynomial("x1", SP2)
        with pytest.raises(ValueError):
            p.evaluate([1.0])
        with pytest.raises(ValueError):
            p + Polynomial.variable(3, 0)

    def test_immutable(self):
        p = parse_polynomial("x1", SP2)
        with pytest.raises(AttributeError):
            p.nvars = 5


class TestParser:
    def test_whitespace_insensitive(self):
        a = parse_polynomial("3/4*x1+x2-2/5", SP2)
        b = parse_polynomial(" 3/4 * x1 + x2 - 2/5 ", SP2)
        assert a == b
        assert a.coeff((1, 0)) == Fraction(3, 4)

    def test_powers_and_parens(self):
        p = parse_polynomial("(x1 + x2)^2", SP2)
        assert p == parse_polynomial("x1^2 + 2*x1*x2 + x2^2", SP2)

    def test_decimal_is_exact(self):
        p = parse_polynomial("0.25*x1", SP2)
        assert p.coeff((1, 0)) == Fraction(1, 4)

    def test_unary_minus(self):
        assert parse_polynomial("-x1 - -x2", SP2) == parse_polynomial("x2 - x1", SP2)

    def test_leading_sign_binds_to_the_first_factor(self):
        x1 = parse_polynomial("x1", SP2)
        assert parse_polynomial("-x1^2 + 1", SP2) == 1 - x1 * x1
        assert parse_polynomial("-x1*x2/2", SP2) == parse_polynomial("-(x1*x2)/2", SP2)
        assert parse_polynomial("+x1 - 3/4", SP2).coeff((0, 0)) == Fraction(-3, 4)

    def test_unknown_variable(self):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("x3 + 1", SP2)

    def test_bad_syntax_reports_column(self):
        with pytest.raises(PolynomialParseError) as ei:
            parse_polynomial("x1 + * x2", SP2)
        assert "column" in str(ei.value)

    def test_division_by_constant_only(self):
        assert parse_polynomial("x1/2", SP2) == parse_polynomial("1/2*x1", SP2)
        with pytest.raises(PolynomialParseError):
            parse_polynomial("1/x1", SP2)

    def test_to_string_roundtrip(self):
        texts = ["3/4*x1 + x2 - 2/5", "x1^2*x2 - 1/45", "1 + 2*x2 + 3*x1^2 + 4*x1*x2"]
        for t in texts:
            p = parse_polynomial(t, SP2)
            assert parse_polynomial(p.to_string(SP2), SP2) == p


class TestVarSpace:
    def test_unique_names(self):
        with pytest.raises(ValueError):
            VarSpace(("x1", "x1"))

    def test_index(self):
        assert SP2.index("x2") == 1
        with pytest.raises(KeyError):
            SP2.index("u1")
