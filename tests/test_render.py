"""One rendering rule for every monomial the toolkit prints, and printed
polynomials that read back.

`groebner._render_monomials` renders a list of exponent tuples over
variable names from per-variable power-text tables; `Monomial.render`,
`Polynomial.__str__` and the `bmodel` and `amodel` reports all read it.  It
must give the bytes of the rule it replaced, written out here as
`rule_text`.  Every polynomial the library builds must print text that
`parse_polynomial` reads back as the same polynomial: here
`transpose_polynomial` and `amodel.restrict` of drawn invertible
polynomials, and in `test_polycore.py` `from_term_map` with drawn names.
The parser builds its canonical form without `from_term_map`, so a printed
polynomial must parse to the very polynomial `from_term_map` builds from
the same terms, over the variables in the order the text names them.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lgmk import Polynomial, fixed_locus, gmax, parse_polynomial, transpose_polynomial
from lgmk.amodel import restrict
from lgmk.groebner import Monomial, _render_monomials

from conftest import INVERTIBLE_CORPUS_TEXTS

NAMES = st.from_regex(r"[A-Za-z][0-9]{0,3}", fullmatch=True)
EXPONENTS = st.integers(0, 3) | st.integers(0, 10**30)


def rule_text(exps, names) -> str:
    """The rule `Monomial.render` used to spell out term by term."""
    if not any(exps):
        return "1"
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def rule_polynomial_text(poly: Polynomial) -> str:
    """The text `Polynomial.__str__` used to build term by term."""
    if not poly.terms:
        return "0"
    chunks = []
    for i, (coeff, mono) in enumerate(poly.terms):
        mag = abs(coeff)
        text = rule_text(mono.exponents, poly.variables)
        if mono.is_constant():
            body = str(mag)
        elif mag == 1:
            body = text
        else:
            body = f"{mag}*{text}"
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)


@st.composite
def names_and_rows(draw, min_rows=0):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.tuples(*[EXPONENTS] * len(names)), min_size=min_rows,
                         max_size=8))
    return tuple(names), rows


class TestOneRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(names_and_rows())
    def test_the_shared_renderer_is_the_rule(self, case):
        names, rows = case
        assert _render_monomials(names, rows) == [rule_text(e, names) for e in rows]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(names_and_rows(min_rows=1))
    def test_a_monomial_renders_by_the_rule(self, case):
        names, rows = case
        for exps in rows:
            assert Monomial(exps).render(names) == rule_text(exps, names)

    @pytest.mark.parametrize("exps,text", [
        ((0, 0, 0), "1"), ((), "1"), ((1, 0, 0), "x"), ((0, 0, 1), "z"),
        ((2, 1, 0), "x^2*y"), ((1, 1, 1), "x*y*z"), ((0, 10**20, 1), f"y^{10**20}*z")])
    def test_pinned_texts(self, exps, text):
        names = ("x", "y", "z")[:len(exps)]
        assert _render_monomials(names, [exps]) == [text]
        assert _render_monomials(names, [exps, exps, (0,) * len(exps)]) == [text, text, "1"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_polynomial_prints_by_the_rule(self, data):
        names, rows = data.draw(names_and_rows(min_rows=1))
        coefficients = st.fractions(max_denominator=10**6).filter(bool) | \
            st.sampled_from([F(1), F(-1)])
        poly = Polynomial.from_term_map(names, {e: data.draw(coefficients) for e in rows})
        assert str(poly) == rule_polynomial_text(poly)


class TestParseBuildsTheCanonicalForm:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_a_printed_polynomial_parses_to_from_term_map(self, data):
        names, rows = data.draw(names_and_rows(min_rows=1))
        # parse reads no constant term and names only the variables it meets
        rows = [row for row in rows if any(row)]
        used = [i for i in range(len(names)) if any(row[i] for row in rows)]
        assume(rows)
        names = tuple(names[i] for i in used)
        coefficients = st.fractions(max_denominator=10**6).filter(bool) | \
            st.sampled_from([F(1), F(-1)])
        term_map = {tuple(row[i] for i in used): data.draw(coefficients) for row in rows}
        text = str(Polynomial.from_term_map(names, term_map))
        # the parser orders the variables by their first appearance in the text
        order = []
        for exps in sorted(term_map, reverse=True):
            order += [names[i] for i, e in enumerate(exps) if e and names[i] not in order]
        at = [names.index(name) for name in order]
        expected = Polynomial.from_term_map(
            order, {tuple(exps[i] for i in at): c for exps, c in term_map.items()})
        assert parse_polynomial(text) == expected


def assert_reads_back(poly: Polynomial) -> None:
    """str(poly) parses to poly, up to the order in which the parser meets
    the variables."""
    parsed = parse_polynomial(str(poly))
    assert sorted(parsed.variables) == sorted(poly.variables), str(poly)
    at = [parsed.variables.index(name) for name in poly.variables]
    assert Polynomial.from_term_map(poly.variables, {
        tuple(exps[i] for i in at): c for exps, c in parsed.term_map().items()}) == poly


@st.composite
def invertible_polynomials(draw):
    """A sum of Fermat, chain and loop atoms over drawn names, with drawn
    nonzero coefficients: an invertible polynomial in 1 to 4 variables.  In
    an atom of size k, term i is x_i^(a_i) times x_(i-1) in a chain (none
    for i = 0) or times x_(i+1 mod k) in a loop."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda s: sum(s) <= 4))
    n = sum(sizes)
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    rows, at = [], 0
    for size in sizes:
        loop = size > 1 and draw(st.booleans())
        for i in range(size):
            row = [0] * n
            row[at + i] = draw(st.integers(2, 6))
            if loop:
                row[at + (i + 1) % size] = 1
            elif i:
                row[at + i - 1] = 1
            rows.append(tuple(row))
        at += size
    coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
    return Polynomial.from_term_map(names, {row: draw(coefficients) for row in rows})


class TestReturnedPolynomialsReadBack:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(invertible_polynomials())
    def test_transpose_and_restrictions_of_drawn_invertible_polynomials(self, poly):
        assert_reads_back(poly)
        assert_reads_back(transpose_polynomial(poly))
        for fix in {fixed_locus(g) for g in gmax(poly).elements} - {frozenset()}:
            assert_reads_back(restrict(poly, fix))

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS)
    def test_transpose_and_restrictions_of_the_corpus(self, text):
        poly = parse_polynomial(text)
        assert_reads_back(transpose_polynomial(poly))
        for fix in {fixed_locus(g) for g in gmax(poly).elements} - {frozenset()}:
            assert_reads_back(restrict(poly, fix))
