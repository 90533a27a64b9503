import json
from collections import Counter
from fractions import Fraction as F
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GradedDims,
    LgmkError,
    NotAdmissibleError,
    ResourceLimitExceeded,
    WeightSystem,
    bmodel,
    btop_formula,
    is_nondegenerate,
    jacobian_ideal,
    jacobian_staircase,
    parse_polynomial,
    standard_monomials,
)
from lgmk import groebner, milnor
from lgmk.polycore import Polynomial, classify

from conftest import INVERTIBLE_CORPUS_TEXTS, family_polynomial

DATA = Path(__file__).parent / "data"


class TestGradedDims:
    def test_totals_and_top(self):
        graded = GradedDims.from_degrees([F(0), F(2, 3), F(2, 3), F(4, 3)])
        assert graded.total_dim == 4
        assert graded.top_degree() == F(4, 3)
        assert graded.dim_at(F(2, 3)) == 2
        assert graded.dim_at(F(1, 2)) == 0

    def test_equality_is_exact(self):
        a = GradedDims.from_degrees([F(1, 3)])
        b = GradedDims.from_degrees([F(2, 6)])
        c = GradedDims.from_degrees([F(1, 3), F(1, 3)])
        assert a == b
        assert a != c

    def test_json_keys(self):
        graded = GradedDims.from_degrees([F(0), F(12, 5)])
        assert graded.as_json_dict() == {"0": 1, "12/5": 1}


class TestIntegerCounts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-60, 60), max_size=30),
           st.integers(1, 36), st.integers(-40, 40),
           st.lists(st.integers(-60, 60), max_size=5))
    def test_counts_match_fraction_degrees(self, numerators, scale, shift, empty):
        counts = Counter(numerators)
        for n in empty:
            counts.setdefault(n, 0)
        expected = GradedDims.from_degrees(F(n - shift, scale) for n in numerators)
        found = GradedDims._from_counts(counts, scale, shift)
        assert found == expected
        assert all(type(d) is F and type(k) is int for d, k in found.entries)

    def test_non_reduced_scale_merges_nothing(self):
        found = GradedDims._from_counts({2: 1, 3: 2, 4: 1}, 6)
        assert found.entries == ((F(1, 3), 1), (F(1, 2), 2), (F(2, 3), 1))

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="repeated degree"):
            GradedDims(((F(1, 3), 1), (F(2, 6), 2)))
        for dim in (0, -1):
            with pytest.raises(ValueError, match="positive"):
                GradedDims(((F(1, 3), dim),))


def _fraction_rendering(graded: GradedDims) -> tuple[dict[str, int], str]:
    pairs = [(F(n, graded.scale), k) for n, k in zip(graded.numerators, graded.dims)]
    return ({str(d): k for d, k in pairs},
            "{" + ", ".join(f"{d}: {k}" for d, k in pairs) + "}")


class TestIntegerForm:
    """`GradedDims` holds integer numerators over one scale; equality, hash,
    entries and text must not depend on which scale a table was built at."""

    def test_equal_across_scales(self):
        # degrees 0, 2/3 (twice), 4/3, at scale 6, at scale 12, and from entries
        at_n = GradedDims._from_counts({0: 1, 4: 2, 8: 1}, 6)
        at_2n = GradedDims._from_counts({0: 1, 8: 2, 16: 1}, 12)
        public = GradedDims(((F(0), 1), (F(2, 3), 2), (F(4, 3), 1)))
        assert (at_n.scale, at_2n.scale, public.scale) == (6, 12, 3)
        assert at_n == at_2n == public
        assert hash(at_n) == hash(at_2n) == hash(public)
        assert at_n != GradedDims._from_counts({0: 1, 8: 2, 17: 1}, 12)
        assert at_n != GradedDims._from_counts({0: 1, 8: 1, 16: 1}, 12)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-60, 60), st.integers(1, 5), max_size=12),
           st.integers(1, 36), st.integers(2, 7), st.integers(-40, 40))
    def test_rescaled_tables_are_equal_with_equal_hashes(self, counts, scale, factor, shift):
        base = GradedDims._from_counts(counts, scale, shift)
        scaled = GradedDims._from_counts(
            {factor * n: k for n, k in counts.items()}, factor * scale, factor * shift)
        public = GradedDims(base.entries)
        assert base == scaled == public
        assert hash(base) == hash(scaled) == hash(public)
        assert {base, scaled, public} == {base}
        if counts:
            moved = dict(counts)
            moved[max(counts) + 1] = moved.pop(max(counts))
            assert GradedDims._from_counts(moved, scale, shift) != base

    def test_entries_are_sorted_fraction_pairs(self):
        graded = GradedDims._from_counts({9: 2, -3: 1, 0: 0, 6: 4}, 6)
        assert graded.entries == ((F(-1, 2), 1), (F(1), 4), (F(3, 2), 2))
        assert all(type(d) is F and type(k) is int for d, k in graded.entries)
        assert graded.top_degree() == F(3, 2)
        assert graded.dim_at(1) == 4 and graded.dim_at(F(2, 3)) == 0

    def test_rendering_matches_fractions(self):
        # degree 0, integer degrees and negative numerators, over a scale
        # that does not reduce every degree
        graded = GradedDims._from_counts({-12: 1, -4: 2, 0: 3, 6: 1, 12: 5, 14: 1}, 6)
        assert graded.as_json_dict() == {"-2": 1, "-2/3": 2, "0": 3, "1": 1, "2": 5,
                                         "7/3": 1}
        assert str(graded) == "{-2: 1, -2/3: 2, 0: 3, 1: 1, 2: 5, 7/3: 1}"
        assert (graded.as_json_dict(), str(graded)) == _fraction_rendering(graded)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-80, 80), st.integers(1, 5), max_size=12),
           st.integers(1, 40), st.integers(-40, 40))
    def test_rendering_matches_fractions_on_random_tables(self, counts, scale, shift):
        graded = GradedDims._from_counts(counts, scale, shift)
        assert (graded.as_json_dict(), str(graded)) == _fraction_rendering(graded)

    def test_empty_table(self):
        empty = GradedDims._from_counts({}, 5)
        assert empty == GradedDims(()) and hash(empty) == hash(GradedDims(()))
        assert (empty.as_json_dict(), str(empty), empty.total_dim) == ({}, "{}", 0)


def _admissible(texts):
    polys = []
    for text in dict.fromkeys(texts):
        poly = parse_polynomial(text)
        if classify(poly).is_admissible:
            polys.append(poly)
    return polys


def _corpus_polynomials():
    texts = list(INVERTIBLE_CORPUS_TEXTS)
    for name in ("cli_bmodel_corpus.json", "cli_invertible_corpus.json"):
        records = json.loads((DATA / name).read_text())
        texts += [r["argv"][1] for r in records
                  if r["argv"][0] in ("bmodel", "mirror-check", "amodel", "weights")]
    return _admissible(texts)


def _listed_degrees(model):
    """The degree 2*sum(a_i q_i) of each listed basis monomial x^a."""
    return [2 * sum(a * q for a, q in zip(m.exponents, model.weights)) for m in model.basis]


@st.composite
def invertible_sums(draw):
    """x^a (Fermat), x^a + x*y^b (chain) and x^a*y + x*y^b (loop) blocks on
    disjoint variables, 2 to 4 in all, as exponent vectors."""
    n = draw(st.integers(2, 4))
    terms, offset = [], 0
    while offset < n:
        kind = draw(st.sampled_from(["fermat", "chain", "loop"] if n - offset >= 2
                                    else ["fermat"]))
        a, b = draw(st.integers(2, 5)), draw(st.integers(2, 5))
        block = {"fermat": [{0: a}], "chain": [{0: a}, {0: 1, 1: b}],
                 "loop": [{0: a, 1: 1}, {0: 1, 1: b}]}[kind]
        terms += [{offset + i: e for i, e in term.items()} for term in block]
        offset += 1 if kind == "fermat" else 2
    return n, [tuple(term.get(i, 0) for i in range(n)) for term in terms]


def _weight_one_exponents(integer_weights, scale):
    """Every exponent vector of weighted degree one."""
    found = []

    def extend(prefix, left):
        i = len(prefix)
        if i == len(integer_weights):
            if left == 0:
                found.append(prefix)
            return
        for e in range(left // integer_weights[i] + 1):
            extend(prefix + (e,), left - e * integer_weights[i])

    extend((), scale)
    return found


class TestSeriesAgainstBasis:
    """Two routes to the B side: the Milnor-Orlik series that `bmodel`
    counts, and the standard monomials that `BModel.basis` lists."""

    def test_corpora(self):
        polys = _corpus_polynomials()
        assert len(polys) >= 50
        for poly in polys:
            model = bmodel(poly)
            assert GradedDims.from_degrees(_listed_degrees(model)) == model.graded, str(poly)

    @settings(max_examples=40, deadline=None)
    @given(invertible_sums(), st.data())
    def test_invertible_sums_with_extra_monomials(self, sums, data):
        n, exponents = sums
        names = ("x", "y", "z", "w")[:n]
        term_map = {e: F(1) for e in exponents}
        poly = Polynomial.from_term_map(names, term_map)
        weights = classify(poly).weights
        scale, integer_weights = milnor._integer_weights(weights)
        extra = [e for e in _weight_one_exponents(integer_weights, scale)
                 if e not in term_map]
        chosen = data.draw(st.lists(st.sampled_from(extra), max_size=3, unique=True)
                           if extra else st.just([]))
        for e in chosen:
            term_map[e] = F(data.draw(st.integers(-5, 5).filter(bool)))
        candidate = Polynomial.from_term_map(names, term_map)
        if is_nondegenerate(candidate):
            poly = candidate
        model = bmodel(poly)
        assert model.graded.total_dim == prod(1 / q - 1 for q in model.weights)
        assert GradedDims.from_degrees(_listed_degrees(model)) == model.graded, str(poly)

    @pytest.mark.parametrize("text", ["x^3 + y^3", "x^3 + x*y^2 + y*z^2",
                                      "x^3*y + y^2*z + z^4*x", "x^4 + y^4 + x^3*y"])
    @pytest.mark.parametrize("mutant", ["drop a factor", "truncate early"])
    def test_wrong_series_is_caught_when_the_basis_is_read(self, monkeypatch, text, mutant):
        original = milnor._milnor_series

        def wrong(integer_weights, scale):
            series = original(integer_weights, scale)
            if mutant == "drop a factor":
                short = original(integer_weights[:-1], scale)
                return short + [0] * (len(series) - len(short))
            return series[:-1]

        monkeypatch.setattr(milnor, "_milnor_series", wrong)
        model = bmodel(parse_polynomial(text))
        with pytest.raises(LgmkError, match="but the series counts"):
            model.basis


LONG_SERIES = "a^3 + b^4 + c^5 + d^7 + e^11 + f^13 + g^17 + h^19"


class TestSeriesBound:
    def test_huge_box_is_refused_before_the_basis_is_read(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("standard_monomials was called")

        monkeypatch.setattr(groebner, "standard_monomials", forbidden)
        monkeypatch.setattr(milnor, "standard_monomials", forbidden)
        with pytest.raises(ResourceLimitExceeded, match="10000000"):
            milnor.bmodel(parse_polynomial("x^99999999999999999999"))

    def test_long_series_under_the_box_limit_is_refused_before_it_is_built(
            self, monkeypatch):
        # the box holds 4,976,640 tuples, under the limit, but
        # L = 19,399,380 and the series would hold 108,423,999 integers
        poly = parse_polynomial(LONG_SERIES)
        bounds = groebner._box_bounds(jacobian_staircase(poly, classify(poly).weights))
        assert prod(bounds) == 4_976_640 < groebner.STANDARD_MONOMIAL_BOX_LIMIT

        def forbidden(*args):
            raise AssertionError("_milnor_series was called")

        monkeypatch.setattr(milnor, "_milnor_series", forbidden)
        with pytest.raises(ResourceLimitExceeded, match="108423999 coefficients"):
            bmodel(poly)

    @pytest.mark.parametrize("limit", [2, 3])
    def test_series_length_is_read_against_the_limit_at_call_time(
            self, monkeypatch, limit):
        # x^2 + y^3: the box holds 1 * 2 tuples, the series u^0 .. u^2 three
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", limit)
        poly = parse_polynomial("x^2 + y^3")
        if limit < 3:
            with pytest.raises(ResourceLimitExceeded, match="3 coefficients"):
                bmodel(poly)
        else:
            assert bmodel(poly).graded.total_dim == 2

    @pytest.mark.parametrize("limit", [7, 8, 9])
    def test_refuses_exactly_what_the_listing_refuses(self, monkeypatch, limit):
        # x^9 has the box x^0 .. x^7: 8 tuples
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", limit)
        poly = parse_polynomial("x^9")
        found = jacobian_staircase(poly, classify(poly).weights)
        if limit < 8:
            for route in (lambda: standard_monomials(found), lambda: bmodel(poly)):
                with pytest.raises(ResourceLimitExceeded):
                    route()
        else:
            assert len(standard_monomials(found)) == bmodel(poly).graded.total_dim == 8


class TestJacobian:
    def test_fermat_cubic(self):
        partials = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        assert [str(p) for p in partials] == ["3*x^2", "3*y^2"]

    def test_family_member(self):
        n = 6
        partials = jacobian_ideal(family_polynomial(n))
        assert str(partials[0]) == f"{n}*x^{n - 1} + {n - 1}*x^{n - 2}*y"
        assert str(partials[1]) == f"x^{n - 1} + {n}*y^{n - 1}"

    def test_absent_variable_gives_zero(self):
        poly = Polynomial.from_term_map(("x", "y"), {(0, 4): 1})
        partials = jacobian_ideal(poly)
        assert partials[0].is_zero()
        assert str(partials[1]) == "4*y^3"


class TestJacobianStaircase:
    def test_staircase_corners(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        weights = WeightSystem((F(1, 4), F(1, 4)))
        corners = jacobian_staircase(poly, weights)
        assert corners.leads == ((2, 1), (3, 0), (1, 3), (0, 5))
        assert len(standard_monomials(corners)) == 9

    def test_degenerate_gives_none(self):
        poly = parse_polynomial("x^2*y^2")
        weights = WeightSystem((F(1, 4), F(1, 4)))
        assert jacobian_staircase(poly, weights) is None


class TestNondegeneracy:
    def test_noninvertible_example(self):
        assert is_nondegenerate(parse_polynomial("x^4 + y^4 + x^3*y"))

    def test_monomial_with_nonunique_weights(self):
        assert not is_nondegenerate(parse_polynomial("x^2*y"))

    def test_pure_powers(self):
        for n in range(2, 8):
            assert is_nondegenerate(parse_polynomial(f"x^{n}"))


class TestBModel:
    def test_fermat_cubic_grading(self):
        model = bmodel(parse_polynomial("x^3 + y^3"))
        assert model.graded == GradedDims.from_degrees(
            [F(0), F(2, 3), F(2, 3), F(4, 3)])

    def test_one_variable_candidate(self):
        model = bmodel(parse_polynomial("x^9"))
        assert model.graded.total_dim == 8
        assert model.graded.top_degree() == F(14, 9)

    def test_quadric(self):
        model = bmodel(parse_polynomial("x^2"))
        assert model.graded == GradedDims.from_degrees([F(0)])

    def test_rejects_nonadmissible(self):
        with pytest.raises(NotAdmissibleError):
            bmodel(parse_polynomial("x^2*y"))

    def test_basis_degrees_match_graded(self, invertible_corpus):
        for poly in invertible_corpus[:10]:
            model = bmodel(poly)
            # the degree of x^a is 2*sum(a_i q_i)
            degrees = [2 * sum(a * q for a, q in zip(m.exponents, model.weights))
                       for m in model.basis]
            assert GradedDims.from_degrees(degrees) == model.graded


class TestFormulas:
    def test_top_degree_values(self):
        assert btop_formula(WeightSystem((F(1, 9),))) == F(14, 9)
        assert btop_formula(WeightSystem((F(1, 2), F(1, 2)))) == 0
        assert btop_formula(WeightSystem((F(1, 3), F(1, 3)))) == F(4, 3)

    def test_out_of_range_weights_rejected(self):
        with pytest.raises(ValueError):
            btop_formula(WeightSystem((F(2, 3),)))


class TestDualRouteAgreement:
    def test_corpus_dimensions_and_tops(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            model = bmodel(poly)
            assert model.graded.total_dim == prod(1 / q - 1 for q in model.weights), str(poly)
            assert model.graded.top_degree() == btop_formula(model.weights), str(poly)

    def test_poincare_symmetry(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            model = bmodel(poly)
            top = model.graded.top_degree()
            for degree, dim in model.graded.entries:
                assert model.graded.dim_at(top - degree) == dim, str(poly)

    def test_invertible_rescaling_keeps_grading(self):
        plain = bmodel(parse_polynomial("x^3 + x*y^2"))
        scaled = bmodel(parse_polynomial("5*x^3 + 2/3*x*y^2"))
        assert plain.graded == scaled.graded
