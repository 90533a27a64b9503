import importlib
from fractions import Fraction as F

import pytest

from lgmk import (
    DegenerateRestriction,
    GradedDims,
    GroupElement,
    GroupNotAdmissible,
    GroupNotSymmetry,
    LgmkError,
    Monomial,
    WeightSystem,
    adegree,
    amodel,
    classify,
    gmax,
    fixed_locus,
    group_weights_compare,
    is_admissible_group,
    parse_polynomial,
    restrict,
    sl_subgroup,
    subgroup_generated,
    subgroups_containing,
)
from lgmk.amodel import _invariant_monomials, _restricted_milnor_basis
from lgmk.mirror import mirror_sides

from conftest import INVERTIBLE_CORPUS_TEXTS, family_polynomial, j_group

# the function lgmk.amodel shadows its module
AMODEL = importlib.import_module("lgmk.amodel")


def ge(*phases):
    return GroupElement(tuple(F(p) for p in phases))


class TestRestrict:
    def test_full_locus_returns_the_polynomial(self):
        poly = family_polynomial(5)
        assert restrict(poly, {0, 1}) == poly

    def test_empty_locus_is_trivial(self):
        assert restrict(family_polynomial(5), set()) is None

    def test_drops_terms_with_other_variables(self):
        poly = parse_polynomial("x^2 + x*y + y^2")
        restricted = restrict(poly, {0})
        assert restricted.variables == ("x",)
        assert str(restricted) == "x^2"

    def test_no_surviving_terms_on_nonempty_locus(self):
        assert restrict(parse_polynomial("x*y + x^2"), {1}) is None


def sector_monomials(model, sector):
    return [s.monomial for s in model.basis if s.sector == sector]


class TestInvariantMonomials:
    def test_identity_sector_of_family(self):
        for n in (4, 5, 7):
            model = amodel(family_polynomial(n), j_group(n))
            kept = sector_monomials(model, ge(0, 0))
            assert len(kept) == n - 1
            for mono in kept:
                a, b = mono.exponents
                assert (a + b) % n == (n - 2) % n
                assert a <= n - 2 and b <= n - 2

    def test_empty_locus_contributes_unit(self):
        model = amodel(family_polynomial(5), j_group(5))
        assert sector_monomials(model, ge("1/5", "1/5")) == [Monomial(())]

    def test_cubic_identity_sector_is_empty(self):
        model = amodel(parse_polynomial("x^3"), subgroup_generated([ge("1/3")], 1))
        assert sector_monomials(model, ge(0)) == []

    def test_degenerate_restriction_is_loud(self):
        # no term of the chain x^2*y + y^3 lives purely in x, so a sector
        # fixing only x restricts to zero
        poly = parse_polynomial("x^2*y + y^3")
        with pytest.raises(DegenerateRestriction):
            _restricted_milnor_basis(poly, classify(poly).weights, frozenset({0}))


class TestADegree:
    def test_identity_sector_degree(self):
        for n in (3, 5, 8):
            q = WeightSystem((F(1, n), F(1, n)))
            assert adegree(ge(0, 0), q) == F(2 * (n - 2), n)

    def test_top_sector_degree(self):
        for n in (3, 5, 8):
            q = WeightSystem((F(1, n), F(1, n)))
            g = ge(F(n - 1, n), F(n - 1, n))
            assert adegree(g, q) == F(2 * (2 * n - 4), n)

    def test_weights_sector_sits_at_zero(self):
        q = WeightSystem((F(1, 5), F(1, 5)))
        assert adegree(ge("1/5", "1/5"), q) == 0


class TestAModel:
    def test_quintic_family_member(self):
        model = amodel(family_polynomial(5), j_group(5))
        assert model.graded == GradedDims(
            ((F(0), 1), (F(4, 5), 1), (F(6, 5), 4), (F(8, 5), 1), (F(12, 5), 1)))
        assert model.graded.top_degree() == F(12, 5)

    def test_family_dimension_and_top(self):
        for n in range(3, 13):
            model = amodel(family_polynomial(n), j_group(n))
            assert model.graded.total_dim == 2 * n - 2
            assert model.graded.top_degree() == F(2 * (2 * n - 4), n)

    def test_one_variable_cubic_with_full_group(self):
        model = amodel(parse_polynomial("x^3"), gmax(parse_polynomial("x^3")))
        assert model.graded == GradedDims(((F(0), 1), (F(2, 3), 1)))

    def test_group_must_contain_weights(self):
        with pytest.raises(GroupNotAdmissible):
            amodel(parse_polynomial("x^3 + y^3"), subgroup_generated([], 2))

    def test_group_must_fix_the_polynomial(self):
        foreign = subgroup_generated([ge("1/7", "1/7")], 2)
        with pytest.raises(GroupNotSymmetry):
            amodel(parse_polynomial("x^3 + y^3"), foreign)

    def test_generator_presentation_is_irrelevant(self):
        poly = family_polynomial(6)
        group = j_group(6)
        regenerated = subgroup_generated(list(group.elements), 2)
        assert amodel(poly, group).graded == amodel(poly, regenerated).graded

    def test_dimension_is_additive_over_sectors(self):
        poly = family_polynomial(5)
        group = j_group(5)
        model = amodel(poly, group)
        per_sector = {}
        for element in model.basis:
            per_sector[element.sector] = per_sector.get(element.sector, 0) + 1
        assert sum(per_sector.values()) == model.graded.total_dim
        assert set(per_sector) <= set(group.elements)

    def test_basis_sorted_deterministically(self):
        model = amodel(family_polynomial(7), j_group(7))
        keys = [(s.adegree, s.sector.phases, s.monomial.exponents)
                for s in model.basis]
        assert keys == sorted(keys)

    def test_degrees_never_negative_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus[:15]:
            model = amodel(poly, gmax(poly))
            assert all(s.adegree >= 0 for s in model.basis), str(poly)


def assert_two_routes_agree(poly, group):
    """The integer count of `amodel` against the per-element `Fraction`
    formula `adegree`, read off the basis."""
    weights = classify(poly).weights
    model = amodel(poly, group)
    assert all(s.adegree == adegree(s.sector, weights) for s in model.basis), str(poly)
    assert model.graded == GradedDims.from_degrees(
        adegree(s.sector, weights) for s in model.basis), str(poly)


class TestTwoRoutes:
    def test_named_groups_on_the_corpus(self, invertible_corpus):
        checked = 0
        for poly in invertible_corpus:
            weights = classify(poly).weights
            n = poly.n_variables
            full = gmax(poly)
            # the CLI's group specs max, J, sl and 0
            for group in (full, subgroup_generated([GroupElement(tuple(weights))], n),
                          sl_subgroup(full), subgroup_generated([], n)):
                if is_admissible_group(group, weights):
                    assert_two_routes_agree(poly, group)
                    checked += 1
        # max and J for all 37 members, sl for the 4 whose J has determinant
        # one, and 0 for none
        assert checked == 78

    def test_every_group_containing_j(self, invertible_corpus):
        checked = 0
        for poly in invertible_corpus:
            if poly.n_variables not in (2, 3):
                continue
            j = GroupElement(tuple(classify(poly).weights))
            for group in subgroups_containing(gmax(poly), [j]):
                assert_two_routes_agree(poly, group)
                checked += 1
        assert checked == 60


class TestGroupWeights:
    def test_quintic_pair(self):
        a = parse_polynomial("x^5 + y^5 + x^4*y")
        b = parse_polynomial("x^5 + x^2*y^3 + x*y^4")
        assert group_weights_compare(a, b, j_group(5))

    def test_same_polynomial(self):
        poly = family_polynomial(4)
        assert group_weights_compare(poly, poly, j_group(4))

    def test_quartic_pair(self):
        a = parse_polynomial("x^4 + y^4 + x^3*y")
        b = parse_polynomial("x^4 + x*y^3")
        assert group_weights_compare(a, b, j_group(4))

    def test_rejects_different_weights(self):
        with pytest.raises(ValueError):
            group_weights_compare(parse_polynomial("x^3 + y^3"),
                                  parse_polynomial("x^4 + y^4"),
                                  subgroup_generated([], 2))

    def test_all_table_pairs(self, example_table):
        for n, polys in example_table.items():
            group = j_group(n)
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    assert group_weights_compare(polys[i], polys[j], group), (n, i, j)


def groups_containing_j(poly):
    j = GroupElement(tuple(classify(poly).weights))
    return subgroups_containing(gmax(poly), [j])


# every invertible corpus member and the family x^n + y^n + x^(n-1)*y
ORACLE_TEXTS = INVERTIBLE_CORPUS_TEXTS + [f"x^{n} + y^{n} + x^{n - 1}*y" for n in range(3, 10)]


class TestCharacterCount:
    """The graded table comes from a character count per fixed locus; the
    enumeration of invariant monomials is a second, independent route."""

    @pytest.mark.parametrize("text", ORACLE_TEXTS)
    def test_count_equals_enumeration_on_every_group_containing_j(self, text):
        poly = parse_polynomial(text)
        weights = classify(poly).weights
        for group in groups_containing_j(poly):
            model = amodel(poly, group)
            assert set(model.locus_counts) == {fixed_locus(g) for g in group.elements}
            generators = [group.vector(h) for h in group.generators]
            for fix, count in model.locus_counts.items():
                listed = _invariant_monomials(fix, generators, group.exponent, poly, weights)
                assert count == len(listed), (text, str(group), sorted(fix))
            assert model.graded == GradedDims.from_degrees(s.adegree for s in model.basis)

    def test_graded_route_lists_no_milnor_basis(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Milnor basis was listed")

        monkeypatch.setattr(AMODEL, "standard_monomials", forbidden)
        for text in INVERTIBLE_CORPUS_TEXTS:
            poly = parse_polynomial(text)
            _, a_side, b_side = mirror_sides(poly)
            assert a_side == b_side, text
            for group in groups_containing_j(poly):
                model = amodel(poly, group)
                assert model.graded.total_dim > 0
            with pytest.raises(AssertionError, match="Milnor basis"):
                model.basis

    def test_short_enumeration_is_loud(self, monkeypatch):
        listed = _invariant_monomials

        def one_short(fix, *args):
            found = listed(fix, *args)
            return found[:-1] if len(fix) == 2 else found

        monkeypatch.setattr(AMODEL, "_invariant_monomials", one_short)
        model = amodel(family_polynomial(5), j_group(5))
        assert model.graded.total_dim == 8
        with pytest.raises(LgmkError, match="character count is 4"):
            model.basis

    def test_non_integral_character_sum_is_loud(self):
        group = gmax(parse_polynomial("x^3 + y^3"))
        assert group.order == len(group.vectors) == 9
        # one element fewer than the order: the full locus averages to -1/9
        group.__dict__["vectors"] = group.vectors[:-1]
        with pytest.raises(LgmkError, match="not a nonnegative integer"):
            amodel(parse_polynomial("x^3 + y^3"), group)
