from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GradedDims,
    LgmkError,
    NotAdmissibleError,
    WeightSystem,
    bmodel,
    btop_formula,
    is_nondegenerate,
    jacobian_ideal,
    jacobian_staircase,
    parse_polynomial,
    standard_monomials,
)
from lgmk.polycore import Polynomial

from conftest import family_polynomial


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
