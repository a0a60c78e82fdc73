"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from exponent tuples to coefficients.  Coefficients
stay `Fraction` as long as the inputs are rational; they degrade to binary
floats only when float data enters an operation.  The module also fixes the
one monomial order used everywhere else: graded lexicographic (grade first,
then lexicographic with x1 > x2 > ...), so that moment vectors, moment
matrices and solver variables all share a single indexing convention.

Exponent tuples have one entry per variable of a `VarSpace`.  The zero
polynomial has degree 0 by convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Mapping, Sequence, Union

import numpy as np

Exponent = tuple[int, ...]
Coeff = Union[Fraction, float]


@dataclass(frozen=True)
class VarSpace:
    """An ordered, immutable list of variable names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} (have {', '.join(self.names)})")

    def __contains__(self, name: str) -> bool:
        return name in self.names

    @staticmethod
    def of(*names: str) -> "VarSpace":
        return VarSpace(tuple(names))


def monomial_count(n: int, d: int) -> int:
    """Number of monomials in `n` variables of total degree at most `d`.

    Equals binomial(n + d, n); computed exactly on arbitrary-size integers,
    so it cannot silently wrap around.
    """
    if n < 0 or d < 0:
        raise ValueError("monomial_count needs n >= 0 and d >= 0")
    return comb(n + d, n)


# grlex rank of every exponent tuple seen so far; only valid exponents enter
_GRLEX_RANKS: dict[tuple, int] = {}


def grlex_index(exponent: Exponent) -> int:
    """Rank of an exponent in the graded lexicographic order, starting at 0."""
    key = exponent if type(exponent) is tuple else tuple(exponent)
    idx = _GRLEX_RANKS.get(key)
    if idx is None:
        idx = _GRLEX_RANKS[key] = int(grlex_ranks(np.array(key, dtype=np.int64)))
    return idx


def grlex_ranks(exponents: np.ndarray) -> np.ndarray:
    """Exact grlex ranks of an integer array of exponents along its last axis.

    With S_j = e_j + ... + e_{n-1}, rank(e) = sum_j C(S_j + n - j - 1, n - j):
    the j = 0 term counts the exponents of lower degree and, by the
    hockey-stick identity, term j > 0 those of the same degree that agree
    with e before entry j - 1 and exceed it there.  No term exceeds the rank,
    so nothing overflows that an index into the moments would not.
    """
    E = np.asarray(exponents, dtype=np.int64)
    n = E.shape[-1]
    if E.size and E.min() < 0:
        raise ValueError(f"negative exponent in {tuple(E[(E < 0).any(axis=-1)][0].tolist())}")
    S = np.cumsum(E[..., ::-1], axis=-1)[..., ::-1]
    top = int(S[..., 0].max(initial=0)) if n else 0
    table = np.array([[comb(s + n - j - 1, n - j) for s in range(top + 1)] for j in range(n)], np.int64)
    return table.reshape(n, top + 1)[np.arange(n), S].sum(axis=-1)


def grlex_exponent(n: int, k: int) -> Exponent:
    """Inverse of `grlex_index`: the k-th exponent of n variables."""
    if n <= 0:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("index must be nonnegative")
    d = 0
    while monomial_count(n, d) <= k:
        d += 1
    return tuple(exponent_array(n, d)[k].tolist())


@lru_cache(maxsize=None)
def exponent_array(n: int, d: int) -> np.ndarray:
    """All exponents of n variables with total degree <= d as rows, in grlex order (read-only)."""
    # the exponents of degree <= d are the size-d multisets of n + 1 symbols,
    # the last one a slack; each lands at its rank
    picks = np.array(list(combinations_with_replacement(range(n + 1), d)), dtype=np.intp)
    picks += (n + 1) * np.arange(len(picks))[:, None]
    E = np.bincount(picks.ravel(), minlength=(n + 1) * len(picks)).reshape(-1, n + 1)[:, :n]
    out = np.empty_like(E)
    out[grlex_ranks(E)] = E
    out.flags.writeable = False
    return out


def exponents_up_to(n: int, d: int) -> list[Exponent]:
    """All exponents of n variables with total degree <= d, in grlex order."""
    return list(map(tuple, exponent_array(n, d).tolist()))


def _add_exponents(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _as_coeff(value: Union[int, Fraction, float]) -> Coeff:
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial: a dict from exponent tuple to coefficient.

    Zero coefficients are never stored.  All exponents have length `nvars`.
    The constructor checks and sums terms from outside; the arithmetic below
    builds its results with `_of`, which trusts them.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Union[int, Fraction, float]] = ()):
        clean: dict[Exponent, Coeff] = {}
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {nvars}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            c = _as_coeff(coeff)
            if c != 0:
                acc = clean.get(exp)
                clean[exp] = c if acc is None else acc + c
                if clean[exp] == 0:
                    del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exponent, Coeff]) -> "Polynomial":
        """A polynomial that owns `terms`, a fresh dict of distinct, valid exponents
        and coefficients that `__init__` would keep as they are; zero
        coefficients are dropped and the order is kept, as `__init__` does."""
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c != 0}
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars: int, value: Union[int, Fraction, float]) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return Polynomial(nvars, {tuple(exp): 1})

    @staticmethod
    def monomial(exponent: Exponent, coeff: Union[int, Fraction, float] = 1) -> "Polynomial":
        return Polynomial(len(exponent), {tuple(exponent): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: Exponent) -> Coeff:
        return self.terms.get(tuple(exponent), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Union["Polynomial", int, Fraction, float]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check_same_space(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            acc = out.get(exp)
            out[exp] = c if acc is None else acc + c
        return Polynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["Polynomial", int, Fraction, float]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: Union[int, Fraction, float]) -> "Polynomial":
        return Polynomial.constant(self.nvars, other) - self

    def __mul__(self, other: Union["Polynomial", int, Fraction, float]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _as_coeff(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial._of(self.nvars, {e: v * c for e, v in self.terms.items()})
        self._check_same_space(other)
        out: dict[Exponent, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = _add_exponents(ea, eb)
                c = ca * cb
                acc = out.get(e)
                out[e] = c if acc is None else acc + c
        return Polynomial._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        p = power
        while p:
            if p & 1:
                result = result * base
            base = base * base
            p >>= 1
        return result

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            k = exp[index]
            if k == 0:
                continue
            e = list(exp)
            e[index] = k - 1
            out[tuple(e)] = c * k
        return Polynomial._of(self.nvars, out)

    # -- evaluation and re-indexing -----------------------------------------

    def evaluate(self, point: Sequence[Union[int, Fraction, float]]):
        """Evaluate at a point; exact if coefficients and point are rational."""
        if len(point) != self.nvars:
            raise ValueError(f"point has dimension {len(point)}, expected {self.nvars}")
        total = 0
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v = v * x**e
            total = total + v
        return total

    def map_variables(self, new_nvars: int, mapping: Sequence[int]) -> "Polynomial":
        """Re-index variables: old variable i becomes new variable mapping[i]."""
        if len(mapping) != self.nvars:
            raise ValueError("mapping must cover every variable")
        out: dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            e = [0] * new_nvars
            for old_i, k in enumerate(exp):
                if k:
                    e[mapping[old_i]] += k
            e = tuple(e)
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        return Polynomial._of(new_nvars, out)

    def used_variables(self) -> set[int]:
        used: set[int] = set()
        for exp in self.terms:
            for i, k in enumerate(exp):
                if k:
                    used.add(i)
        return used

    def top_form(self) -> "Polynomial":
        """Homogeneous part of highest total degree."""
        d = self.degree
        return Polynomial._of(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == d})

    # -- printing -----------------------------------------------------------

    def to_string(self, space: VarSpace | None = None) -> str:
        if space is not None and space.n != self.nvars:
            raise ValueError("variable space does not match polynomial")
        names = space.names if space is not None else tuple(f"x{i+1}" for i in range(self.nvars))
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self.terms, key=grlex_index):
            c = self.terms[exp]
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if isinstance(c, Fraction) and c.denominator == 1:
                cs = str(c.numerator)
            else:
                cs = str(c)
            if mono:
                body = mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}")
            else:
                body = cs
            if parts and not body.startswith("-"):
                parts.append("+ " + body)
            elif parts:
                parts.append("- " + body[1:])
            else:
                parts.append(body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()})"


# -- parsing ----------------------------------------------------------------


class PolynomialParseError(ValueError):
    """Raised on malformed polynomial text; carries the reason and the offending column (from 0)."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column + 1})")
        self.reason = message
        self.column = column


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise PolynomialParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, space: VarSpace):
        self.tokens = _tokenize(text)
        self.space = space
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise PolynomialParseError(f"unexpected token {val!r}", col)
        return p

    def expr(self) -> Polynomial:
        p = self.term()  # a leading sign is the unary one of `factor`
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            elif kind == "op" and val == "/":
                self.next()
                q = self.factor()
                if q.degree != 0 or q.is_zero():
                    raise PolynomialParseError("division only by nonzero constants", col)
                p = p * (1 / q.coeff((0,) * q.nvars))  # a Fraction: every parsed constant is one
            else:
                return p

    def factor(self) -> Polynomial:
        kind, val, col = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            p = self.factor()
            return -p if val == "-" else p
        p = self.atom()
        kind, val, col = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, col = self.next()
            if kind != "number" or "." in val:
                raise PolynomialParseError("exponent must be a nonnegative integer", col)
            p = p ** int(val)
        return p

    def atom(self) -> Polynomial:
        kind, val, col = self.next()
        if kind == "number":
            return Polynomial.constant(self.space.n, Fraction(val))
        if kind == "name":
            if val not in self.space:
                raise PolynomialParseError(
                    f"unknown variable {val!r} (have {', '.join(self.space.names)})", col
                )
            return Polynomial.variable(self.space.n, self.space.index(val))
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val, col = self.next()
            if not (kind == "op" and val == ")"):
                raise PolynomialParseError("expected ')'", col)
            return p
        raise PolynomialParseError(f"unexpected token {val!r}" if val else "unexpected end of input", col)


def parse_polynomial(text: str, space: VarSpace) -> Polynomial:
    """Parse text like ``3/4*x1 + x2 - 2/5`` over the given variables.

    Whitespace-insensitive.  Accepts integers, decimals and a/b rationals
    (all kept exact), ``*`` products, ``^`` integer powers and parentheses.
    """
    return _Parser(text, space).parse()
