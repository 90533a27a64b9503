import json
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GradedDims,
    GroupElement,
    InvalidArgument,
    LgmkError,
    NotAdmissibleError,
    ResourceLimitExceeded,
    WeightSystem,
    amodel,
    bmodel,
    btable,
    btop_formula,
    enumerate_admissible_supports,
    gmax,
    is_nondegenerate,
    jacobian_ideal,
    jacobian_staircase,
    parse_polynomial,
    standard_monomials,
    subgroups_containing,
)
from lgmk import groebner, milnor
from lgmk.polycore import Polynomial, classify

from conftest import (INVERTIBLE_CORPUS_TEXTS, dense_polynomial, family_polynomial,
                      kernel_staircase)

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


tables = st.dictionaries(st.fractions(-4, 4, max_denominator=12), st.integers(1, 5),
                         max_size=8).map(lambda dims: GradedDims(dims.items()))


class TestTensor:
    @settings(max_examples=100, deadline=None)
    @given(tables, tables)
    def test_degrees_add_and_dimensions_multiply(self, a, b):
        expected = Counter()
        for (d, k), (e, m) in product(a.entries, b.entries):
            expected[d + e] += k * m
        assert a.tensor(b) == GradedDims(expected.items())
        assert a.tensor(b) == b.tensor(a)
        assert a.tensor(b).total_dim == a.total_dim * b.total_dim

    def test_the_point_in_degree_zero_is_the_unit(self):
        graded = GradedDims.from_degrees([F(0), F(2, 3), F(2, 3), F(4, 3)])
        unit = GradedDims.from_degrees([F(0)])
        assert graded.tensor(unit) == graded == unit.tensor(graded)
        assert graded.tensor(GradedDims(())) == GradedDims(())


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
        assert (at_n.scale, at_2n.scale, public.scale) == (3, 3, 3)
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
        scale, integer_weights = weights.integer_form
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
    @pytest.mark.parametrize("mutant", ["drop a factor", "truncate early", "move inward"])
    def test_wrong_series_is_caught_when_the_basis_is_read(self, monkeypatch, text, mutant):
        # the series lives in groebner, where both bmodel and the kernel
        # read it; the kernel's certificate does not trust it
        original = groebner._complete_intersection_series

        def wrong(grades, weights):
            series = original(grades, weights)
            if mutant == "drop a factor":
                short = original(grades[:-1], weights[:-1])
                return short + [0] * (len(series) - len(short))
            if mutant == "truncate early":
                return series[:-1]
            # a unit from each end one step inward: symmetric, same sum
            series[0] -= 1
            series[-1] -= 1
            series[1] += 1
            series[-2] += 1
            return series

        monkeypatch.setattr(groebner, "_complete_intersection_series", wrong)
        if mutant != "move inward":
            # btable refuses a series that is not symmetric or does not sum
            # to the Milnor number before any model is built
            with pytest.raises(LgmkError, match="series is no polynomial"):
                bmodel(parse_polynomial(text))
            return
        model = bmodel(parse_polynomial(text))
        with pytest.raises(LgmkError, match="but the series counts"):
            model.basis


LONG_SERIES = "a^3 + b^4 + c^5 + d^7 + e^11 + f^13 + g^17 + h^19"
FERMAT_60 = "x^60 + y^60 + z^60 + w^60"


class TestSeriesBound:
    def test_huge_box_is_refused_before_the_basis_is_read(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("standard monomials were listed")

        monkeypatch.setattr(groebner, "standard_monomials", forbidden)
        monkeypatch.setattr(groebner, "_standard_listing", forbidden)
        with pytest.raises(ResourceLimitExceeded, match="10000000"):
            milnor.bmodel(parse_polynomial("x^99999999999999999999"))

    def test_long_series_under_the_box_limit_is_refused_before_it_is_built(
            self, monkeypatch):
        # the box holds 4,976,640 tuples, under the limit, but
        # L = 19,399,380 and the series would hold 108,423,999 integers
        poly = parse_polynomial(LONG_SERIES)
        found = jacobian_staircase(poly, classify(poly).weights)
        bounds = groebner._pure_power_bounds(found.leads, len(found.weights))
        assert prod(bounds) == 4_976_640 < groebner.STANDARD_MONOMIAL_BOX_LIMIT

        def forbidden(*args):
            raise AssertionError("_complete_intersection_series was called")

        monkeypatch.setattr(groebner, "_complete_intersection_series", forbidden)
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
    def test_one_variable_series_and_box_share_their_limit(self, monkeypatch, limit):
        # x^9 has the box x^0 .. x^7, 8 tuples, and the series u^0 .. u^7: in
        # one variable the count's series limit and the listing's box limit
        # refuse the same polynomials
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", limit)
        poly = parse_polynomial("x^9")
        found = jacobian_staircase(poly, classify(poly).weights)
        if limit < 8:
            for route in (lambda: standard_monomials(found), lambda: bmodel(poly)):
                with pytest.raises(ResourceLimitExceeded):
                    route()
        else:
            assert len(standard_monomials(found)) == bmodel(poly).graded.total_dim == 8

    def test_box_limit_guards_only_the_listing(self):
        # the box holds 59^4 = 12,117,361 tuples, over the limit, but the
        # series u^0 .. u^232 (L = 60) only 233 coefficients
        model = bmodel(parse_polynomial(FERMAT_60))
        assert len(model.graded.dims) == 233
        assert model.graded.total_dim == 59**4 == 12_117_361
        with pytest.raises(ResourceLimitExceeded, match="box of 12117361"):
            model.basis


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


def _fraction_partials(poly):
    """The earlier `jacobian_ideal`, kept verbatim: each partial collected
    from `Fraction` products."""
    partials = []
    for i in range(poly.n_variables):
        term_map = {}
        for coeff, mono in poly.terms:
            e = mono.exponents[i]
            if e:
                shifted = list(mono.exponents)
                shifted[i] = e - 1
                key = tuple(shifted)
                term_map[key] = term_map.get(key, F(0)) + coeff * e
        partials.append(Polynomial.from_term_map(poly.variables, term_map))
    return partials


def _polynomial_route(poly, weights):
    """The staircase `jacobian_staircase` must give, from the kernel run on
    the `Polynomial` partials, each cleared of denominators, under the
    integer form of the weights, or all ones without weights."""
    grades = (1,) * poly.n_variables if weights is None else weights.integer_form[1]
    gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
    found = kernel_staircase(gens, grades)
    return found if found.finite else None


@st.composite
def rational_dense(draw):
    """Every monomial of one degree in 2 or 3 variables, with nonzero
    coefficients whose denominators lie in 2..9, and its equal weights."""
    n, degree = draw(st.integers(2, 3)), draw(st.integers(2, 6))
    exponents = [e for e in product(range(degree + 1), repeat=n) if sum(e) == degree]
    coefficient = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(2, 9))
    terms = {e: draw(coefficient) for e in exponents}
    return (Polynomial.from_term_map(("x", "y", "z")[:n], terms),
            WeightSystem((F(1, degree),) * n))


class TestIntegerPartials:
    """`jacobian_staircase` hands the kernel W's partials as integer term
    maps, cleared over one denominator; `jacobian_ideal` builds its
    `Polynomial`s from the same partials."""

    def test_jacobian_ideal_keeps_the_derivative_rule_on_the_corpora(self):
        for poly in _corpus_polynomials():
            assert jacobian_ideal(poly) == _fraction_partials(poly), str(poly)

    def test_leads_equal_the_polynomial_route_on_the_corpora(self):
        polys = _corpus_polynomials()
        assert len(polys) >= 50
        for poly in polys:
            for weights in (classify(poly).weights, None):
                assert jacobian_staircase(poly, weights) == \
                    _polynomial_route(poly, weights), str(poly)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rational_dense())
    def test_leads_equal_the_polynomial_route_on_rational_dense_w(self, case):
        poly, weights = case
        assert jacobian_ideal(poly) == _fraction_partials(poly)
        assert jacobian_staircase(poly, weights) == _polynomial_route(poly, weights)

    def test_a_kernel_run_builds_no_polynomial_and_no_fraction(self, monkeypatch):
        poly = dense_polynomial(6)
        weights = WeightSystem((F(1, 6),) * 3)
        built = []
        from_term_map = Polynomial.from_term_map

        def counted(*args):
            built.append(args)
            return from_term_map(*args)

        new = F.__new__

        def counted_fraction(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Polynomial, "from_term_map", staticmethod(counted))
        monkeypatch.setattr(F, "__new__", counted_fraction)
        found = jacobian_staircase(poly, weights)
        monkeypatch.undo()
        assert built == []
        assert found == _polynomial_route(poly, weights) and found.finite


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

    # the gradient of a W with a linear term is not zero at 0, so 0 is no
    # critical point, whether or not W has weights and however finite its
    # Jacobian ideal is: (1) for x and x + y^3, (y + 1, x) for x*y + x
    @pytest.mark.parametrize("text", ["x", "x + y^3", "x*y + x", "x^2*y + 2*y", "x^2 + x*y + z"])
    def test_a_linear_term_is_degenerate(self, text):
        assert not is_nondegenerate(parse_polynomial(text))


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

    @pytest.mark.parametrize("reader", [btop_formula, enumerate_admissible_supports])
    def test_out_of_range_weights_rejected(self, reader):
        with pytest.raises(ValueError, match=r"\(1/3, 2/3\) must lie in \(0, 1/2\]"):
            reader(WeightSystem((F(1, 3), F(2, 3))))


def _symmetric(graded):
    """True iff the table is symmetric about half its top degree, as the
    Milnor ring's and the FJRW pairings make every table."""
    top = graded.top_degree()
    return all(graded.dim_at(top - degree) == dim for degree, dim in graded.entries)


class TestDualRouteAgreement:
    def test_corpus_dimensions_and_tops(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            model = bmodel(poly)
            assert model.graded.total_dim == prod(1 / q - 1 for q in model.weights), str(poly)
            assert model.graded.top_degree() == btop_formula(model.weights), str(poly)

    def test_poincare_symmetry(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys + _corpus_polynomials():
            assert _symmetric(bmodel(poly).graded), str(poly)

    def test_poincare_symmetry_of_every_a_side_over_j(self):
        # the FJRW pairing makes A(W, G) symmetric too, for Gmax and for
        # every subgroup that contains J
        tables = 0
        for poly in _corpus_polynomials():
            group = gmax(poly)
            j = GroupElement(tuple(classify(poly).weights))
            groups = subgroups_containing(group, [j])
            assert group in groups
            for subgroup in groups:
                assert _symmetric(amodel(poly, subgroup).graded), (str(poly), subgroup)
                tables += 1
        assert tables > 100

    def test_invertible_rescaling_keeps_grading(self):
        plain = bmodel(parse_polynomial("x^3 + x*y^2"))
        scaled = bmodel(parse_polynomial("5*x^3 + 2/3*x*y^2"))
        assert plain.graded == scaled.graded


class TestBtable:
    """`btable` is the Milnor-Orlik count from the weights alone, and
    `bmodel` is `require_admissible` followed by it."""

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS + ["x^4 + y^4 + x^3*y", "x*y + y^3"])
    def test_it_is_the_bmodel_table(self, text):
        poly = parse_polynomial(text)
        assert btable(classify(poly).weights) == bmodel(poly).graded

    @pytest.mark.parametrize("weights,message", [
        ((F(1, 3), F(1, 3)), "weights must be a WeightSystem, got tuple"),
        (WeightSystem((F(2, 3), F(1, 2))), r"weights \(2/3, 1/2\) have a negative top degree")],
        ids=["tuple", "negative top"])
    def test_bad_weights_are_invalid_arguments(self, weights, message):
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            btable(weights)

    # the series of (2/9, 4/9) has a coefficient -1; that of (2/7, 3/7) sums
    # to 3, not to its Milnor number 10/3; that of (1/3, 2/5), 1 + u^5 + u^6
    # up to u^8, sums to 3 but is not symmetric
    @pytest.mark.parametrize("q", [(F(2, 9), F(4, 9)), (F(2, 7), F(3, 7)), (F(1, 3), F(2, 5))])
    def test_weights_no_nondegenerate_polynomial_has_are_refused(self, q):
        weights = WeightSystem(q)
        with pytest.raises(LgmkError) as raised:
            btable(weights)
        assert str(raised.value) == (
            f"weights {weights}: no nondegenerate polynomial has these weights, since their "
            "Milnor-Orlik series is no polynomial with nonnegative coefficients")

    def test_a_long_series_is_refused_before_it_is_built(self, monkeypatch):
        # x^3 + y^3 has a series of 3 coefficients
        weights = WeightSystem((F(1, 3), F(1, 3)))
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", 3)
        assert btable(weights).total_dim == 4
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", 2)
        with pytest.raises(ResourceLimitExceeded, match="series has 3 coefficients"):
            btable(weights)
