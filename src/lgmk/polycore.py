"""Exact multivariate polynomials over Q: parsing, exponent matrices, weights,
classification and transposition.

Polynomials are kept in a canonical collected form: like terms merged, zero
coefficients dropped, and terms sorted descending under the canonical
monomial order (lexicographic on exponent vectors).  All coefficients are
`fractions.Fraction`, so equality tests throughout the toolkit are exact.

Weights are solved by `_echelon`, the toolkit's one integer row echelon
(symmetry's Hermite forms are the same echelon), and finished in integers:
the back-substitution gives the weights over one common denominator, whose
reduced form is their integer form (L, L*q_i), and the sign and 1/2 tests
read those integers.  `Fraction`s are built only for the weights `q` and
for error texts.

This layer sits on the Groebner kernel, whose `Monomial` type and
`staircase` it imports; the kernel's order is graded by the integer form of
the weights, `_integer_form`, defined here.  `classify` decides nondegeneracy
here, through `jacobian_staircase` beside it.  It is the one analysis of a
polynomial and the one memo keyed by it: its record holds the kind, the
weights with their integer form (L, L*q_i), and W's staircase.  After the
weight solve, a weight of 1 is refused: its variable appears only as a
linear term, so 0 is no critical point.  Two exponent-matrix predicates
then decide most verdicts without a Groebner run: a sum of Fermat, chain
and loop atoms is nondegenerate (`_pointer_certified`, read off its atoms
up to relabelling by `_pointer_form`), and a polynomial with a critical
coordinate axis is degenerate (`_critical_axis`).  Every other polynomial
runs the kernel once in `classify`.  A certified W's staircase is built
only when a basis listing first reads it, and then held in the record.  So `require_admissible`, the
transpose, `bmodel`, `amodel` and `is_nondegenerate` read one weight solve,
and W's kernel runs at most once.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping

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
from .groebner import (Exps, Monomial, Staircase, _monomial, _render_monomials, _require_int,
                       staircase)
from .value import _Value


def _quoted(text: str) -> str:
    """repr(text), cut after 40 characters: a message quotes no more input."""
    shown = repr(text)
    return shown if len(shown) <= 40 else shown[:40] + "..."


def _past_digit_limit(exc: Exception) -> bool:
    """True for the error Python's int <-> str conversion raises past
    sys.get_int_max_str_digits() digits: a ValueError of no type of its own."""
    return isinstance(exc, ValueError) and str(exc).startswith("Exceeds the limit (")


def _rational(value) -> Fraction:
    """An int, Fraction or numeric string as an exact Fraction.  A float is
    refused, even an exact one: its binary value is rarely the rational
    meant.  So is a bool, which is no number, and a string that is no
    number, or whose numerator or denominator would have more digits than
    `int` converts to text; its exponent e is read first, and 10^|e| is
    built only for |e| < 3 * limit.  A Fraction is returned as it is."""
    if value.__class__ is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise InvalidArgument(
            f"{value!r} is a {type(value).__name__}; give an int, Fraction or string")
    if not isinstance(value, str):
        return Fraction(value)
    limit = sys.get_int_max_str_digits()
    form = "e" in value.lower() and re.fullmatch(
        r"(?P<mantissa>[^/]*?)[eE](?P<exponent>[-+]?\d+(?:_\d+)*)\s*", value)
    try:
        # with at most `limit` digits either side of the point, a nonzero number
        # with |exponent| >= 3 * limit is past the limit: only its mantissa is built
        huge = bool(limit and form and abs(int(form["exponent"])) >= 3 * limit)
        number = Fraction(form["mantissa"] + "e0") if huge else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        if _past_digit_limit(exc):
            # Fraction converts each run of digits on its own
            digits = max(map(len, re.findall(r"\d+", value)))
            raise InvalidArgument(f"number has {digits} digits, more than {limit}") from None
        raise InvalidArgument(f"not a rational number: {_quoted(value)}") from None
    top = max(abs(number.numerator), number.denominator)
    if huge and number or limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise InvalidArgument(f"number has more than {limit} digits")
    return number


def _integer_form(qs) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the denominators of rationals qs and the integers L*q_i."""
    scale = lcm(*(v.denominator for v in qs))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in qs)


class WeightSystem(_Value):
    """Vector of positive rational quasihomogeneous weights (q_1, ..., q_n)."""

    _fields = ("q",)
    q: tuple[Fraction, ...]

    def __init__(self, q: tuple[Fraction, ...]):
        qs = tuple(map(_rational, q))
        if not qs:
            raise InvalidArgument("a weight system needs at least one weight")
        if any(v <= 0 for v in qs):
            raise NonPositiveWeight(f"weights must be positive, got {qs}")
        self.__dict__["q"] = qs

    def __len__(self) -> int:
        return len(self.q)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.q)

    def __getitem__(self, i: int) -> Fraction:
        return self.q[i]

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.q) + ")"

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The lcm L of the weight denominators and the integer weights L*q_i."""
        return _integer_form(self.q)


class Polynomial(_Value):
    """Canonical collected polynomial: nonzero coefficients, sorted terms.

    Its hash is computed on first use and kept: `classify`'s memo hashes a
    polynomial at each lookup.  Its exponent matrix is no separate object:
    `exponent_matrix` reads the terms' own exponent tuples."""

    _fields = ("variables", "terms")
    variables: tuple[str, ...]
    terms: tuple[tuple[Fraction, Monomial], ...]

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

    @staticmethod
    def from_term_map(variables: Iterable[str],
                      term_map: Mapping[Exps, Fraction | int]) -> "Polynomial":
        """Build the canonical form from an exponent-tuple -> coefficient map.
        The variables are one or more distinct names, each one the grammar's
        `var` reads, so the printed polynomial parses back."""
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"repeated variable name in {names}")
        for name in names:
            if not (isinstance(name, str) and _NAME.fullmatch(name)):
                raise ValueError(f"variable name {name!r} is not a letter followed by digits")
        collected = []
        for exps, coeff in term_map.items():
            c = _rational(coeff)
            if c == 0:
                continue
            if len(exps) != len(names):
                raise ValueError("exponent length does not match variable count")
            # a tuple of plain ints passes one type test; any other is read
            # entry by entry, so a bool or a float is refused by name
            exps = tuple(exps)
            if not set(map(type, exps)) <= {int}:
                for e in exps:
                    _require_int("exponent", e)
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            collected.append((exps, c))
        collected.sort(key=lambda item: item[0], reverse=True)
        return Polynomial(names, tuple((c, _monomial(e)) for e, c in collected))

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
        texts = _render_monomials(self.variables, [m.exponents for _, m in self.terms])
        chunks = []
        for (coeff, _), text in zip(self.terms, texts):
            # |coeff| as str(Fraction) prints it, read off its integers
            num, den = coeff.numerator, coeff.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            body = text if mag == "1" else mag if text == "1" else f"{mag}*{text}"
            chunks.append(f" + {body}" if num > 0 else f" - {body}")
        signed = "".join(chunks)
        return signed[3:] if self.terms[0][0].numerator > 0 else "-" + signed[3:]


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar:
#   poly   := ['-'] term (('+' | '-') term)*
#   term   := [coef '*'] factor ('*' factor)*
#   factor := var ['^' posint]
#   coef   := integer ['/' posint]
#   var    := letter digits*
#
# The symbols are names, numbers (an integer, or two joined by '/') and the
# operators.  Whitespace of any kind (Python's `\s`) may stand between any two
# symbols.  A parse error's position is the character offset of the first
# symbol that cannot continue the text, or the text's length at its end; a
# zero exponent or denominator, a number of more digits than `int` reads
# (`sys.get_int_max_str_digits()`), or a coefficient with no variable after
# it, is reported where its number starts.  Variables are ordered by first
# appearance, including those of terms that cancel or have coefficient 0.
#
# `_TERM` reads one signed term at a cursor.  Each of its parts may be
# missing, so it always matches, and the parts it did not find say where the
# text stops being a polynomial.  `_FACTOR` then reads the run of factors.
# ---------------------------------------------------------------------------

# a name, then maybe '^' and an exponent; a missing exponent, or one written
# p/q, is matched so that it can be refused where it stands
_NAME = re.compile(r"[A-Za-z][0-9]*")
_FACTOR = re.compile(rf"({_NAME.pattern})(?:\s*(\^)\s*(?:(\d+)(\s*/\s*\d+)?)?)?")
_TERM = re.compile(rf"""
    \s*(?P<sign>[-+]?)\s*
    (?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?\s*(?P<star>\*?)\s*)?   # coefficient
    (?P<factors>(?:{_FACTOR.pattern}(?:\s*\*\s*{_FACTOR.pattern})*)?)
    (?P<open>\s*\*)?\s*                                       # a '*' with no factor
    """, re.X)


def _unexpected(text: str, pos: int, wanted: str) -> ParseError:
    if pos == len(text):
        return ParseError("unexpected end of input", pos)
    return ParseError(f"expected {wanted}, got {text[pos]!r}", pos)


def _number(match: re.Match, group: int | str) -> int:
    """The integer the digits of a match group spell, or 1 when the group
    did not match."""
    digits = match[group]
    if digits is None:
        return 1
    try:
        return int(digits)
    except ValueError:  # digits only, so the digit limit is the one refusal
        raise ParseError(f"number has {len(digits)} digits, more than "
                         f"{sys.get_int_max_str_digits()}", match.start(group)) from None


def parse_polynomial(text: str) -> Polynomial:
    """Parse text into canonical collected form; like terms merge exactly."""
    if not text.strip():
        raise ParseError("empty input", 0)
    names: dict[str, int] = {}
    read: list[tuple[Fraction, dict[int, int]]] = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, num, den = m["sign"], _number(m, "num"), _number(m, "den")
        if not pos and sign == "+":
            raise _unexpected(text, m.start("sign"), "a variable")
        if pos and not sign:
            raise _unexpected(text, pos, "'+' or '-'")
        if not den:
            raise ParseError("coefficient has a zero denominator", m.start("num"))
        coeff = Fraction(-num if sign == "-" else num, den)
        if m["num"] and not m["star"]:
            at = m.start("star")
            if at == len(text) or text[at] in "+-":
                raise ParseError("a term needs at least one variable (constant term)",
                                 m.start("num"))
            raise _unexpected(text, at, "'*' after a coefficient")
        if not m["factors"]:
            raise _unexpected(text, m.start("factors"), "a variable")
        exps: dict[int, int] = {}
        for factor in _FACTOR.finditer(text, m.start("factors"), m.end("factors")):
            name, caret, digits, fraction = factor.groups()
            if caret and digits is None:
                raise _unexpected(text, factor.end(), "an exponent")
            power = _number(factor, 3)
            if fraction or not power:
                raise ParseError("exponent must be a positive integer", factor.start(3))
            index = names.setdefault(name, len(names))
            exps[index] = exps.get(index, 0) + power
        if m["open"]:
            raise _unexpected(text, m.end(), "a variable")
        read.append((coeff, exps))
        pos = m.end()
    term_map: dict[Exps, Fraction] = {}
    for coeff, exps in read:
        row = [0] * len(names)
        for index, power in exps.items():
            row[index] = power
        key = tuple(row)
        term_map[key] = term_map[key] + coeff if key in term_map else coeff
    # the names are distinct matches of _NAME and the exponents sums of
    # positive ints, so the canonical form is built as from_term_map builds
    # it, without checking them again; distinct tuples sort by themselves
    terms = tuple((c, _monomial(e)) for e, c in sorted(term_map.items(), reverse=True) if c)
    if not terms:
        raise EmptyPolynomialError()
    return Polynomial(tuple(names), terms)


# ---------------------------------------------------------------------------
# Exponent matrices and weight solving
# ---------------------------------------------------------------------------

def exponent_matrix(poly: Polynomial) -> tuple[Exps, ...]:
    """The exponent matrix A: row i is the exponent tuple of term i, in
    canonical order, the term's own tuple.  A constant term is a zero row."""
    if not poly.terms:
        raise InvalidArgument("the zero polynomial has no exponent matrix")
    return tuple(m.exponents for _, m in poly.terms)


def _has_cross_term(rows) -> bool:
    for row in rows:
        nonzero = [e for e in row if e]
        if len(nonzero) == 2 and nonzero == [1, 1]:
            return True
    return False


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _echelon(rows, width: int) -> list[list[int]]:
    """Row echelon form over Z of integer rows of the given width, spanning
    the same lattice: one row per pivot column, in column order, with a
    positive leading entry.  Columns without a pivot are skipped.

    Each column folds its nonzero rows into the pivot row by unimodular 2x2
    steps, (pivot, row) -> (gcd row, row with a 0 in that column)."""
    work = [list(r) for r in rows if any(r)]
    echelon = []
    for j in range(width):
        pivot = None
        rest = []
        for row in work:
            if row[j] == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                a, b = pivot[j], row[j]
                g, x, y = _extended_gcd(a, b)
                pa, pb = a // g, b // g
                cleared = [pb * p - pa * r for p, r in zip(pivot, row)]
                pivot = [x * p + y * r for p, r in zip(pivot, row)]
                if any(cleared):
                    rest.append(cleared)
        if pivot is not None:
            echelon.append(pivot if pivot[j] > 0 else [-a for a in pivot])
        work = rest
    return echelon


def solve_weights(rows) -> WeightSystem:
    """Solve A.q = (1,...,1) exactly over Q, for A given by its integer rows.

    Raises InvalidArgument for no rows, rows of unequal or zero length, or
    an entry that is not an int; then NotQuasihomogeneous when the system
    is inconsistent, else NonUniqueWeights when rank(A) < n,
    NonPositiveWeight when some q_i <= 0, and WeightBoundViolated when some
    q_i > 1/2 although no cross-term x_i*x_j is present.

    The integer echelon of (A | 1) decides: a row leading in the constant
    column means no solution, as a zero row of A (a constant term) gives;
    fewer than n pivots mean rank(A) < n.  Otherwise row i pivots on column
    i, and q_i .. q_n-1 are back-substituted from the last row up, in
    integers over one common denominator; the result holds its integer form
    from the start.
    """
    n = len(rows[0]) if rows else 0
    if not n or any(len(row) != n for row in rows):
        raise InvalidArgument("an exponent matrix needs rows, all of one nonzero length")
    echelon = _echelon([[_require_int("exponent", e) for e in row] + [1] for row in rows], n + 1)
    if not any(echelon[-1][:n]):
        raise NotQuasihomogeneous("A.q = 1 has no solution")
    if len(echelon) < n:
        raise NonUniqueWeights("weights are not unique (rank(A) < n)")
    numerators, common = [], 1
    for i in reversed(range(n)):
        row = echelon[i]
        top = row[n] * common - sum(map(mul, row[i + 1:n], numerators))
        numerators = [top] + [row[i] * t for t in numerators]
        common *= row[i]
    # q_i = t_i / common with common > 0 and gcd(common, t_1, ..., t_n) = 1,
    # so common is the lcm of the reduced denominators: (common, t) is the
    # integer form, and the signs and the bound are read off the integers
    g = gcd(common, *numerators)  # common, a product of pivots, is positive
    common, numerators = common // g, [t // g for t in numerators]
    q = tuple(Fraction(t, common) for t in numerators)
    if min(numerators) <= 0:
        raise NonPositiveWeight(f"solved weights {tuple(map(str, q))} are not all positive")
    if 2 * max(numerators) > common and not _has_cross_term(rows):
        raise WeightBoundViolated(
            f"weights {tuple(map(str, q))} exceed 1/2 with no cross-term present")
    weights = object.__new__(WeightSystem)
    weights.__dict__.update(q=q, integer_form=(common, tuple(numerators)))
    return weights


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _pointer_form(rows) -> tuple[tuple[bool, tuple[int, ...]], ...] | None:
    """W's atoms up to relabelling when W is a sum of Fermat, chain and loop
    atoms, else None.  That holds when the matrix is square, each row is
    x_i^a_i or x_i^a_i * x_j with a_i >= 2 and j != i, the heads i are
    distinct, and so are the targets j.  Each atom is (is_loop, exponents),
    and the atoms are sorted: a Fermat atom x^a is (False, (a,)); a chain
    x_1^a_1*x_2 + ... + x_k^a_k is (False, (a_1, ..., a_k)), read from the
    head x_1 that no row points at; a loop is (True, its cyclic sequence of
    exponents rotated to the least).  Two matrices have one form exactly
    when a relabelling of the variables and rows takes one to the other.

    Every variable heads one row, and points at most at one other variable
    and is pointed at by at most one, so the pointer graph is a disjoint
    union of points (Fermat), paths (chains) and cycles (loops) (Kreuzer and
    Skarke 1992); `_pointer_certified` reads its nondegeneracy off this."""
    n = len(rows[0])
    if len(rows) != n:
        return None
    exponents, targets = [0] * n, [None] * n
    pointed = set()
    for row in rows:
        support = sorted((e, i) for i, e in enumerate(row) if e)
        a, head = support.pop()
        if a < 2 or exponents[head] or len(support) > 1:
            return None
        exponents[head] = a
        if support:
            e, target = support[0]
            if e != 1 or target in pointed:
                return None
            pointed.add(target)
            targets[head] = target
    atoms, seen = [], set()
    # the chains from their heads first, so every variable left is on a loop
    for start in [i for i in range(n) if i not in pointed] + list(range(n)):
        if start in seen:
            continue
        walk, i = [], start
        while i is not None and i not in seen:
            seen.add(i)
            walk.append(exponents[i])
            i = targets[i]
        loop = i is not None
        # each rotation compared whole: quadratic in the loop's length, as
        # reading the n rows of n entries already is
        atoms.append((loop, min(tuple(walk[k:] + walk[:k]) for k in range(len(walk)))
                      if loop else tuple(walk)))
    return tuple(sorted(atoms))


def _pointer_certified(rows) -> bool:
    """True when W is a sum of Fermat, chain and loop atoms (`_pointer_form`
    is not None), and so nondegenerate for every choice of nonzero
    coefficients.  Proof that 0 is the only critical point:
    let M_i be the value of row i's term, coefficient included.  x_i
    appears only in row i and in the one row k pointing at i, if any, so
    x_i * dW/dx_i = a_i*M_i + M_k.  At a critical point every M_i is then
    -M_k/a_i, so M vanishes along a path from its start, and around a
    cycle M_i = M_i * prod(-1/a_j) with prod(a_j) >= 4, so M_i = 0.  A
    Fermat row x_i^a_i gives x_i = 0.  If x_i != 0 for a row with target
    j, then M_i = 0 gives x_j = 0, and dW/dx_j is a multiple of
    x_j^(a_j - 1), which vanishes, plus c_i*x_i^a_i, which does not: the
    point is not critical."""
    return _pointer_form(rows) is not None


def _critical_axis(rows) -> bool:
    """True when some coordinate axis lies in the critical locus, so W is
    degenerate: on the x_i-axis the partials of W are the terms of x_i^a
    (a >= 1) and of x_i^a * x_k (k != i), distinct terms of distinct
    partials, so if every row has degree 2 or more off x_i, all partials
    vanish on that axis."""
    degrees = [(row, sum(row)) for row in rows]
    return any(all(degree - row[i] >= 2 for row, degree in degrees)
               for i in range(len(rows[0])))


def _integer_partials(poly: Polynomial) -> tuple[int, list[dict[Exps, int]]]:
    """The lcm D of poly's coefficient denominators and the n partial
    derivatives of D * poly, as integer term maps.  Lowering exponent i by
    one sends distinct terms with x_i to distinct terms, so no two collect."""
    den = lcm(*(c.denominator for c, _ in poly.terms))
    partials: list[dict[Exps, int]] = [{} for _ in poly.variables]
    for c, mono in poly.terms:
        value = c.numerator * (den // c.denominator)
        exps = mono.exponents
        for i, e in enumerate(exps):
            if e:
                partials[i][exps[:i] + (e - 1,) + exps[i + 1:]] = value * e
    return den, partials


def jacobian_ideal(poly: Polynomial) -> list[Polynomial]:
    """The n formal partial derivatives of poly, with exact coefficients."""
    den, partials = _integer_partials(poly)
    return [Polynomial.from_term_map(poly.variables,
                                     {e: Fraction(c, den) for e, c in d.items()})
            for d in partials]


def jacobian_staircase(poly: Polynomial,
                       weights: WeightSystem | None) -> Staircase | None:
    """Staircase of the Jacobian ideal under weighted degrevlex (plain
    degrevlex when weights is None); None when the Milnor ring is not finite
    dimensional.  `standard_monomials` of the result is the Milnor ring's
    monomial basis, sorted in the order.  The kernel gets the integer
    partials, graded by the cached integer weights L*q_i (all ones without
    weights), so no `Polynomial` or `Fraction` is built.  Runs the kernel
    on every call: the staircase of an admissible W under its weights is
    `classify(W).staircase`, built once."""
    gens = [d for d in _integer_partials(poly)[1] if d]
    if not gens:
        return None
    grades = (1,) * poly.n_variables if weights is None else weights.integer_form[1]
    found = staircase(gens, grades)
    return found if found.finite else None


class PolynomialClass(Enum):
    INVERTIBLE = "invertible"
    NONINVERTIBLE = "noninvertible"
    NOT_ADMISSIBLE = "not_admissible"


class Classification(_Value):
    """Verdict of `classify`: the class, the weights when they exist, and the
    reason a polynomial is not admissible.  For an admissible one,
    `staircase` is its Jacobian staircase under its weights, which `build`
    returns when first read; `build` is no part of equality or `repr`."""

    _fields = ("kind", "weights", "reason")
    kind: PolynomialClass
    weights: WeightSystem | None
    reason: str | None
    build: Callable[[], Staircase | None] | None

    def __init__(self, kind: PolynomialClass, weights: WeightSystem | None,
                 reason: str | None = None,
                 build: Callable[[], Staircase | None] | None = None):
        self.__dict__.update(kind=kind, weights=weights, reason=reason, build=build)

    @property
    def is_admissible(self) -> bool:
        return self.kind is not PolynomialClass.NOT_ADMISSIBLE

    @cached_property
    def staircase(self) -> Staircase | None:
        return None if self.build is None else self.build()


def classify(poly: Polynomial) -> Classification:
    """Invertible / noninvertible / not admissible, with weights when they exist.

    The verdict depends only on the exponent matrix: coefficients never enter
    the weight solve, the two predicates hold for all nonzero
    coefficients, and the kernel checks nondegeneracy on the polynomial as
    given.  Verdicts are memoized in `_memoized_classify`; this wrapper stays
    a plain function, so a profiler can hook each call.
    """
    return _memoized_classify(poly)


_DEGENERATE = "degenerate: Milnor ring is not finite dimensional"
_NO_CRITICAL_POINT = ("a variable of weight 1 appears only as a linear term, "
                      "so 0 is not a critical point")


# a mirror check classifies W only (W^T too when W is not in pointer form);
# the support enumeration one candidate at a time, so a few dozen entries
# serve every caller
@lru_cache(maxsize=64)
def _memoized_classify(poly: Polynomial) -> Classification:
    rows = exponent_matrix(poly)
    try:
        weights = solve_weights(rows)
    except WeightError as exc:
        return Classification(PolynomialClass.NOT_ADMISSIBLE, None,
                              f"{type(exc).__name__}: {exc}")
    scale, integer_weights = weights.integer_form
    if scale in integer_weights:
        # every monomial holding x_i has degree 1, so it is x_i itself, and
        # dW/dx_i is a nonzero constant
        return Classification(PolynomialClass.NOT_ADMISSIBLE, weights, _NO_CRITICAL_POINT)
    if _critical_axis(rows):
        return Classification(PolynomialClass.NOT_ADMISSIBLE, weights, _DEGENERATE)
    build = partial(jacobian_staircase, poly, weights)
    if _pointer_certified(rows):
        # the staircase waits for a basis listing
        return Classification(PolynomialClass.INVERTIBLE, weights, None, build)
    found = build()
    if found is None:
        return Classification(PolynomialClass.NOT_ADMISSIBLE, weights, _DEGENERATE)
    kind = (PolynomialClass.INVERTIBLE if poly.n_monomials == poly.n_variables
            else PolynomialClass.NONINVERTIBLE)
    return Classification(kind, weights, None, lambda: found)


def require_admissible(poly: Polynomial) -> Classification:
    """`classify(poly)`; raises NotAdmissibleError when poly is not admissible."""
    verdict = classify(poly)
    if not verdict.is_admissible:
        raise NotAdmissibleError(verdict.reason or "polynomial is not admissible")
    return verdict


def _invertible_matrix(poly: Polynomial) -> tuple[Exps, ...]:
    """The exponent matrix of poly, which must be admissible and invertible
    to transpose: raises NotAdmissibleError, then NotInvertible.

    Only invertible polynomials transpose: a nonsquare exponent matrix would
    produce fewer monomials than variables, which cannot be admissible.
    """
    if require_admissible(poly).kind is not PolynomialClass.INVERTIBLE:
        raise NotInvertible(
            "transpose requires an invertible polynomial: a nonsquare exponent "
            "matrix transposes to fewer monomials than variables")
    return exponent_matrix(poly)


def transpose_polynomial(poly: Polynomial) -> Polynomial:
    """Polynomial whose exponent matrix is the transpose of poly's."""
    columns = zip(*_invertible_matrix(poly))
    return Polynomial.from_term_map(poly.variables, {row: Fraction(1) for row in columns})
