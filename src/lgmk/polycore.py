"""Exact multivariate polynomials over Q: parsing, exponent matrices, weights,
classification and transposition.

Polynomials are kept in a canonical collected form: like terms merged, zero
coefficients dropped, and terms sorted descending under the canonical
monomial order (lexicographic on exponent vectors).  All coefficients are
`fractions.Fraction`, so equality tests throughout the toolkit are exact.

Weights are solved in integers: Gauss-Jordan elimination on primitive
integer rows, with one `Fraction` per weight at the end.

This is the bottom layer.  Only `classify` reaches upward, into milnor, for
the Jacobian staircase that proves nondegeneracy.  It reads only the
verdict; milnor memoizes the staircase, so callers that need its monomials
get them without a second Buchberger run.  `classify` is the one analysis
of a polynomial: its verdict, weights included, is memoized per
(polynomial, S-pair budget), so `require_admissible`, the transpose,
`bmodel`, `amodel` and `is_nondegenerate` all read one weight solve.  The
S-pair budget is read here, below the Groebner kernel, because it keys
that memo.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping

from .errors import (
    EmptyPolynomialError,
    InvalidArgument,
    NonPositiveWeight,
    NonUniqueWeights,
    NotAdmissibleError,
    NotInvertible,
    NotQuasihomogeneous,
    ParseError,
    WeightBoundViolated,
    WeightError,
)

Exps = tuple[int, ...]

DEFAULT_PAIR_BUDGET = 10**6
PAIR_BUDGET_ENV = "LGMK_PAIR_BUDGET"


def _pair_budget(explicit: int | None) -> int:
    """The S-pair budget of the Groebner kernel: explicit, else the
    LGMK_PAIR_BUDGET environment variable, else DEFAULT_PAIR_BUDGET.  Read
    here, in the bottom layer, because `classify` keys its memo by it."""
    raw = explicit if explicit is not None else os.environ.get(PAIR_BUDGET_ENV)
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise InvalidArgument(f"{PAIR_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if budget < 0:
        raise InvalidArgument(f"S-pair budget must not be negative, got {budget}")
    return budget


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of one monomial; position i belongs to variable i."""

    exponents: Exps

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    def __len__(self) -> int:
        return len(self.exponents)

    def is_constant(self) -> bool:
        return not any(self.exponents)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e)

    def render(self, variables: tuple[str, ...]) -> str:
        if self.is_constant():
            return "1"
        parts = []
        for name, e in zip(variables, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


def _monomial(exps: Exps) -> Monomial:
    # a tuple of non-negative ints skips re-validation
    mono = object.__new__(Monomial)
    object.__setattr__(mono, "exponents", exps)
    return mono


@dataclass(frozen=True)
class WeightSystem:
    """Vector of positive rational quasihomogeneous weights (q_1, ..., q_n)."""

    q: tuple[Fraction, ...]

    def __post_init__(self):
        qs = tuple(Fraction(v) for v in self.q)
        if any(v <= 0 for v in qs):
            raise NonPositiveWeight(f"weights must be positive, got {qs}")
        object.__setattr__(self, "q", qs)

    def __len__(self) -> int:
        return len(self.q)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.q)

    def __getitem__(self, i: int) -> Fraction:
        return self.q[i]

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.q) + ")"


@dataclass(frozen=True)
class ExponentMatrix:
    """m x n integer matrix A; row i holds the exponents of monomial i."""

    rows: tuple[Exps, ...]

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        if not rows:
            raise ValueError("exponent matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged exponent matrix")
        if any(not any(r) for r in rows):
            raise ValueError("zero row in exponent matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def transpose(self) -> "ExponentMatrix":
        return ExponentMatrix(tuple(zip(*self.rows)))


@dataclass(frozen=True)
class Polynomial:
    """Canonical collected polynomial: nonzero coefficients, sorted terms."""

    variables: tuple[str, ...]
    terms: tuple[tuple[Fraction, Monomial], ...]

    @staticmethod
    def from_term_map(variables: Iterable[str],
                      term_map: Mapping[Exps, Fraction | int]) -> "Polynomial":
        """Build the canonical form from an exponent-tuple -> coefficient map."""
        names = tuple(variables)
        collected = []
        for exps, coeff in term_map.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(exps) != len(names):
                raise ValueError("exponent length does not match variable count")
            collected.append((tuple(int(e) for e in exps), c))
        collected.sort(key=lambda item: item[0], reverse=True)
        return Polynomial(names, tuple((c, Monomial(e)) for e, c in collected))

    def term_map(self) -> dict[Exps, Fraction]:
        return {m.exponents: c for c, m in self.terms}

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_monomials(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self) -> list[Monomial]:
        return [m for _, m in self.terms]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for i, (coeff, mono) in enumerate(self.terms):
            mag = abs(coeff)
            if mono.is_constant():
                body = str(mag)
            elif mag == 1:
                body = mono.render(self.variables)
            else:
                body = f"{mag}*{mono.render(self.variables)}"
            if i == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(chunks)


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace insignificant):
#   poly   := ['-'] term (('+' | '-') term)*
#   term   := [coef '*'] factor ('*' factor)*
#   factor := var ['^' posint]
#   coef   := integer ['/' posint]
#   var    := letter digits*
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\s*/\s*\d+)?)"
    r"|(?P<name>[A-Za-z][0-9]*)"
    r"|(?P<op>[-+*^])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group().replace(" ", ""), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> list[tuple[Fraction, dict[str, int]]]:
        terms = []
        sign = Fraction(1)
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self.take()
            sign = Fraction(-1)
        terms.append(self.parse_term(sign))
        while self.peek() is not None:
            kind, value, pos = self.take("op")
            if value == "+":
                terms.append(self.parse_term(Fraction(1)))
            elif value == "-":
                terms.append(self.parse_term(Fraction(-1)))
            else:
                raise ParseError(f"expected '+' or '-', got {value!r}", pos)
        return terms

    def parse_term(self, sign: Fraction) -> tuple[Fraction, dict[str, int]]:
        coeff = sign
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        if tok[0] == "number":
            _, value, pos = self.take()
            try:
                coeff *= Fraction(value)
            except ZeroDivisionError:
                raise ParseError("coefficient has a zero denominator", pos) from None
            after = self.peek()
            if after is None or after[0] == "op" and after[1] in "+-":
                raise ParseError("a term needs at least one variable (constant term)", pos)
            star = self.take("op")
            if star[1] != "*":
                raise ParseError("coefficient must be followed by '*'", star[2])
        exps: dict[str, int] = {}
        self.parse_factor(exps)
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                break
            self.take()
            self.parse_factor(exps)
        return coeff, exps

    def parse_factor(self, exps: dict[str, int]) -> None:
        kind, name, pos = self.take(None)
        if kind != "name":
            raise ParseError(f"expected a variable, got {name!r}", pos)
        power = 1
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.take()
            k, value, p = self.take("number")
            if "/" in value:
                raise ParseError("exponent must be a positive integer", p)
            power = int(value)
            if power < 1:
                raise ParseError("exponent must be a positive integer", p)
        exps[name] = exps.get(name, 0) + power


def parse_polynomial(text: str) -> Polynomial:
    """Parse text into canonical collected form; like terms merge exactly."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    raw_terms = _Parser(tokens, len(text)).parse()
    names: list[str] = []
    for _, exps in raw_terms:
        for name in exps:
            if name not in names:
                names.append(name)
    term_map: dict[Exps, Fraction] = {}
    for coeff, exps in raw_terms:
        key = tuple(exps.get(name, 0) for name in names)
        term_map[key] = term_map.get(key, Fraction(0)) + coeff
    poly = Polynomial.from_term_map(names, term_map)
    if poly.is_zero():
        raise EmptyPolynomialError()
    return poly


# ---------------------------------------------------------------------------
# Exponent matrices and weight solving
# ---------------------------------------------------------------------------

def exponent_matrix(poly: Polynomial) -> ExponentMatrix:
    """Matrix whose row i is the exponent vector of term i in canonical order."""
    if poly.is_zero():
        raise ValueError("zero polynomial has no exponent matrix")
    return ExponentMatrix(tuple(m.exponents for _, m in poly.terms))


def _has_cross_term(matrix: ExponentMatrix) -> bool:
    for row in matrix.rows:
        nonzero = [e for e in row if e]
        if len(nonzero) == 2 and nonzero == [1, 1]:
            return True
    return False


def solve_weights(matrix: ExponentMatrix) -> WeightSystem:
    """Solve A.q = (1,...,1) exactly over Q.

    Raises NotQuasihomogeneous when the system is inconsistent, else
    NonUniqueWeights when rank(A) < n, NonPositiveWeight when some
    q_i <= 0, and WeightBoundViolated when some q_i > 1/2 although no
    cross-term x_i*x_j is present.

    Gauss-Jordan elimination runs on primitive integer rows of (A | 1): a
    row is cleared at a pivot column by cross-multiplying with the pivot
    row, then divided by its content.  When every column has a pivot, row i
    pivots on column i and reads a_i*q_i = b_i, and q_i = b_i/a_i is the
    only `Fraction` built.
    """
    m, n = matrix.m, matrix.n
    rows = [list(row) + [1] for row in matrix.rows]
    top = 0
    for col in range(n):
        pivot = next((r for r in range(top, m) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        lead_row = rows[top]
        lead = lead_row[col]
        for r in range(m):
            c = rows[r][col]
            if c and r != top:
                cleared = [lead * a - c * b for a, b in zip(rows[r], lead_row)]
                content = gcd(*cleared)
                rows[r] = [a // content for a in cleared] if content > 1 else cleared
        top += 1
        if top == m:
            break
    if any(rows[r][n] for r in range(top, m)):
        raise NotQuasihomogeneous("A.q = 1 has no solution")
    if top < n:
        raise NonUniqueWeights("weights are not unique (rank(A) < n)")
    q = [Fraction(row[n], row[i]) for i, row in enumerate(rows[:n])]
    if any(v <= 0 for v in q):
        raise NonPositiveWeight(f"solved weights {tuple(map(str, q))} are not all positive")
    if not _has_cross_term(matrix) and any(v > Fraction(1, 2) for v in q):
        raise WeightBoundViolated(
            f"weights {tuple(map(str, q))} exceed 1/2 with no cross-term present")
    return WeightSystem(tuple(q))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class PolynomialClass(Enum):
    INVERTIBLE = "invertible"
    NONINVERTIBLE = "noninvertible"
    NOT_ADMISSIBLE = "not_admissible"


@dataclass(frozen=True)
class Classification:
    """Verdict of `classify`: the class, the weights when they exist, and
    the reason a polynomial is not admissible."""

    kind: PolynomialClass
    weights: WeightSystem | None
    reason: str | None = None

    @property
    def is_admissible(self) -> bool:
        return self.kind is not PolynomialClass.NOT_ADMISSIBLE


def classify(poly: Polynomial) -> Classification:
    """Invertible / noninvertible / not admissible, with weights when they exist.

    The verdict depends only on the exponent matrix: coefficients never enter
    the weight solve, and nondegeneracy is checked on the polynomial as given.
    Verdicts are memoized; the S-pair budget is part of the key, so a cached
    verdict never hides a budget that is invalid or too small.
    """
    return _memoized_classify(poly, _pair_budget(None))


# a mirror check classifies W and W^T; the support enumeration one candidate
# at a time, so a few dozen entries serve every caller
@lru_cache(maxsize=64)
def _memoized_classify(poly: Polynomial, pair_budget: int) -> Classification:
    try:
        weights = solve_weights(exponent_matrix(poly))
    except WeightError as exc:
        return Classification(PolynomialClass.NOT_ADMISSIBLE, None,
                              f"{type(exc).__name__}: {exc}")
    from .milnor import jacobian_staircase  # deferred: milnor builds on this module

    if jacobian_staircase(poly, weights) is None:
        return Classification(PolynomialClass.NOT_ADMISSIBLE, weights,
                              "degenerate: Milnor ring is not finite dimensional")
    if poly.n_monomials == poly.n_variables:
        return Classification(PolynomialClass.INVERTIBLE, weights)
    return Classification(PolynomialClass.NONINVERTIBLE, weights)


def require_admissible(poly: Polynomial) -> Classification:
    """`classify(poly)`; raises NotAdmissibleError when poly is not admissible."""
    verdict = classify(poly)
    if not verdict.is_admissible:
        raise NotAdmissibleError(verdict.reason or "polynomial is not admissible")
    return verdict


def _invertible_matrix(poly: Polynomial) -> ExponentMatrix:
    """The exponent matrix of poly, which must be invertible to transpose.

    Only invertible polynomials transpose: a nonsquare exponent matrix would
    produce fewer monomials than variables, which cannot be admissible.
    """
    if classify(poly).kind is not PolynomialClass.INVERTIBLE:
        raise NotInvertible(
            "transpose requires an invertible polynomial: a nonsquare exponent "
            "matrix transposes to fewer monomials than variables")
    return exponent_matrix(poly)


def transpose_polynomial(poly: Polynomial) -> Polynomial:
    """Polynomial whose exponent matrix is the transpose of poly's."""
    transposed = _invertible_matrix(poly).transpose()
    return Polynomial.from_term_map(poly.variables,
                                    {row: Fraction(1) for row in transposed.rows})
