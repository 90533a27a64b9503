import importlib
import time
from collections import Counter
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GradedDims,
    GroupElement,
    GroupNotAdmissible,
    GroupNotSymmetry,
    InvalidArgument,
    LgmkError,
    Monomial,
    WeightSystem,
    adegree,
    amodel,
    atable,
    classify,
    gmax,
    fixed_locus,
    enumerate_admissible_supports,
    group_weights_compare,
    is_admissible_group,
    jacobian_staircase,
    mirror_check,
    parse_polynomial,
    restrict,
    sl_subgroup,
    subgroup_generated,
    subgroups_containing,
)
from lgmk.amodel import _invariant_monomials
from lgmk.mirror import mirror_sides

from conftest import (EXAMPLE_TABLE, HERMITE_TEXTS, INVERTIBLE_CORPUS_TEXTS, family_polynomial,
                      j_group)

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

    def test_the_table_is_counted_once(self, monkeypatch):
        # one weight system and one group give one table, so it is counted once
        calls, atable = [], AMODEL.atable

        def counted(weights, group):
            calls.append((weights, group))
            return atable(weights, group)

        monkeypatch.setattr(AMODEL, "atable", counted)
        a = parse_polynomial("x^5 + y^5 + x^4*y")
        b = parse_polynomial("x^5 + x^2*y^3 + x*y^4")
        assert group_weights_compare(a, b, j_group(5))
        assert calls == [(classify(a).weights, j_group(5))]

    def test_the_group_is_checked_against_both_polynomials(self):
        a = parse_polynomial("x^4 + y^4")
        b = parse_polynomial("x^4 + x*y^3")
        # Gmax(a) holds J, but (1/4, 0) moves b's x*y^3
        group = subgroup_generated([GroupElement((F(1, 4), F(0))),
                                    GroupElement((F(1, 4), F(1, 4)))], 2)
        with pytest.raises(GroupNotSymmetry):
            group_weights_compare(a, b, group)
        with pytest.raises(GroupNotSymmetry):
            group_weights_compare(b, a, group)
        # the trivial group fixes both, but lacks J
        with pytest.raises(GroupNotAdmissible):
            group_weights_compare(a, b, subgroup_generated([], 2))


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
            for fix, count in model.locus_counts.items():
                listed = _invariant_monomials(fix, group.gens, group.exponent, poly, weights)
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

    def test_non_integral_character_sum_is_loud(self, monkeypatch):
        group = gmax(parse_polynomial("x^3 + y^3"))
        assert group.order == len(group.vectors) == 9
        columns, read = AMODEL._columns, []

        def short_columns(exponent, basis):
            read.append(basis)
            return (column[:-1] for column in columns(exponent, basis))

        # one element fewer than the order: the full locus averages to -1/9
        monkeypatch.setattr(AMODEL, "_columns", short_columns)
        with pytest.raises(LgmkError, match="not a nonnegative integer"):
            amodel(parse_polynomial("x^3 + y^3"), group)
        assert read == [group.basis]


class TestAtable:
    """`atable` counts the graded table from the weights and the group alone."""

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS + HERMITE_TEXTS)
    def test_it_is_the_amodel_table_at_every_group_containing_j(self, text):
        poly = parse_polynomial(text)
        weights = classify(poly).weights
        for group in groups_containing_j(poly):
            assert atable(weights, group) == amodel(poly, group).graded, (text, str(group))

    def test_a_group_without_j_is_refused(self):
        poly = parse_polynomial("x^3 + y^3")
        with pytest.raises(GroupNotAdmissible,
                           match=r"^J = \(1/3, 1/3\) is not an element of the group "):
            atable(classify(poly).weights, sl_subgroup(gmax(poly)))

    # at <J>, weights that no nondegenerate polynomial fixed by J has
    @pytest.mark.parametrize("q,locus", [
        ((F(2, 7), F(3, 7)), [0, 1]),
        ((F(1, 3), F(2, 5)), [1]),
        ((F(2, 9), F(4, 9)), [0, 1]),
        ((F(1, 4), F(3, 8), F(3, 8)), [0, 1, 2])])
    def test_weights_no_invariant_polynomial_has_are_refused(self, q, locus):
        weights = WeightSystem(q)
        group = subgroup_generated([GroupElement(q)], len(q))
        with pytest.raises(LgmkError) as raised:
            atable(weights, group)
        assert str(raised.value) == (
            f"weights {weights}: no nondegenerate G-invariant polynomial on locus {locus} "
            "has these weights there, since its character count is not a nonnegative integer")


class TestAtableEdges:
    """`atable` and `is_admissible_group`, which it calls first, refuse
    weights that are not a WeightSystem or not of the group's length."""

    @pytest.mark.parametrize("check", [atable, lambda weights, group:
                                       is_admissible_group(group, weights)],
                             ids=["atable", "is_admissible_group"])
    @pytest.mark.parametrize("weights,message", [
        ((F(1, 3), F(1, 3)), "weights must be a WeightSystem, got tuple"),
        (WeightSystem((F(1, 3),)), r"1 weights for a group in \(Q/Z\)\^2"),
        (WeightSystem((F(1, 3),) * 3), r"3 weights for a group in \(Q/Z\)\^2")],
        ids=["tuple", "short", "long"])
    def test_bad_weights_are_invalid_arguments(self, check, weights, message):
        group = gmax(parse_polynomial("x^3 + y^3"))
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            check(weights, group)


def per_locus_counts(poly, group):
    """The character count of every fixed locus, one locus at a time, each
    a sum over every moved pattern of the group's listed vectors."""
    scale, integer_weights = classify(poly).weights.integer_form
    n = len(integer_weights)
    moved = Counter(sum(1 << i for i, a in enumerate(v) if a) for v in group.vectors)
    counts = {}
    for bits in moved:
        fix = [i for i in range(n) if not bits >> i & 1]
        total = 0
        for pattern, elements in moved.items():
            term = elements
            for i in fix:
                w = integer_weights[i]
                term *= -w if pattern >> i & 1 else scale - w
            total += term
        count, remainder = divmod(total, group.order * prod(integer_weights[i] for i in fix))
        assert not remainder and count >= 0
        counts[frozenset(fix)] = count
    return counts


def sum_of_squares(k):
    # its Gmax, (Z/2)^k, moves every pattern of variables
    return parse_polynomial(" + ".join(f"x{i}^2" for i in range(k)))


# the invertible corpus, the example table and a sum of squares
COUNT_TEXTS = (ORACLE_TEXTS + [text for texts in EXAMPLE_TABLE.values() for text in texts]
               + [str(sum_of_squares(4))])


class TestCountPerCoordinate:
    """`amodel` sums the characters of every locus in one pass per
    coordinate; the loop per locus over every pattern is the oracle."""

    @pytest.mark.parametrize("text", COUNT_TEXTS)
    def test_every_group_containing_j(self, text):
        poly = parse_polynomial(text)
        for group in [gmax(poly), *groups_containing_j(poly)]:
            assert amodel(poly, group).locus_counts == per_locus_counts(poly, group), str(group)

    @pytest.mark.parametrize("k", [6, 8])
    def test_gmax_of_a_sum_of_squares(self, k):
        poly = sum_of_squares(k)
        assert amodel(poly, gmax(poly)).locus_counts == per_locus_counts(poly, gmax(poly))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(COUNT_TEXTS), st.data())
    def test_random_groups_containing_j(self, text, data):
        poly = parse_polynomial(text)
        elements = gmax(poly).elements
        gens = data.draw(st.lists(st.sampled_from(elements), max_size=3))
        j = GroupElement(tuple(classify(poly).weights))
        group = subgroup_generated([j, *gens], len(j))
        assert amodel(poly, group).locus_counts == per_locus_counts(poly, group)

    def test_sum_of_fourteen_squares_within_budget(self):
        # Gmax = (Z/2)^14 moves 16,384 patterns: a loop per locus over every
        # pattern makes 2^28 products
        poly = sum_of_squares(14)
        begin = time.perf_counter()
        assert mirror_check(poly)
        assert time.perf_counter() - begin < 10

    def test_huge_loci_cost_one_step_per_key(self):
        # <J> of the x^100 Fermat sum in five variables has 100 elements, and
        # its identity sector holds (99^5 - 99) / 100 = 95,099,004 invariant
        # monomials: the count adds each key's locus count once, as a number
        poly = parse_polynomial("a^100+b^100+c^100+d^100+e^100")
        group = subgroup_generated([GroupElement(tuple(classify(poly).weights))], 5)
        begin = time.perf_counter()
        graded = amodel(poly, group).graded
        assert time.perf_counter() - begin < 1
        assert sum(graded.dims) == (99 ** 5 - 99) // 100 + 99


# four-variable Fermat, chain and loop members, and a chain beside a Fermat
# summand
LEMMA_TEXTS = ORACLE_TEXTS + ["x^3 + y^3 + z^3 + w^3", "x^2*y + y^3*z + z^2*w + w^3",
                              "x^2*y + y^2*z + z^2*w + w^3*x", "x^4 + y^3 + x*z^2 + w^2*z"]
SUPPORT_WEIGHTS = [(F(1, 4), F(1, 4)), (F(1, 5), F(1, 5)), (F(1, 6), F(1, 3)),
                   (F(1, 6), F(1, 6)), (F(1, 6), F(1, 4), F(1, 4))]


def assert_loci_restrict_nondegenerate(poly):
    """Every nonempty fixed locus of Gmax(poly) and of each subgroup over J
    restricts poly to a nonzero polynomial with a finite Milnor ring."""
    weights = classify(poly).weights
    groups = [gmax(poly), *groups_containing_j(poly)]
    loci = {fixed_locus(g) for group in groups for g in group.elements} - {frozenset()}
    assert loci
    for fix in loci:
        restricted = restrict(poly, fix)
        assert restricted is not None, (str(poly), sorted(fix))
        sub_weights = WeightSystem(tuple(weights[i] for i in sorted(fix)))
        assert jacobian_staircase(restricted, sub_weights) is not None, (str(poly), sorted(fix))


class TestRestrictionLemma:
    """W fixed by g has no critical point on fix(g) but 0, so `amodel`
    counts every locus without a Groebner run; the kernel here is the
    oracle for that lemma."""

    @pytest.mark.parametrize("text", LEMMA_TEXTS)
    def test_invertible_loci(self, text):
        assert_loci_restrict_nondegenerate(parse_polynomial(text))

    @pytest.mark.parametrize("weights", SUPPORT_WEIGHTS)
    def test_every_admissible_support(self, weights):
        supports = enumerate_admissible_supports(WeightSystem(weights))
        assert supports
        for poly in supports:
            assert_loci_restrict_nondegenerate(poly)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(3, 9), st.integers(3, 9), st.data())
    def test_supports_at_drawn_weights(self, a, b, data):
        # q = (1/a, k/b) with k/b in (0, 1/2]
        k = data.draw(st.integers(1, b // 2))
        supports = enumerate_admissible_supports(WeightSystem((F(1, a), F(k, b))))
        for poly in supports[:12]:
            assert_loci_restrict_nondegenerate(poly)
