import hashlib
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GroupElement,
    GroupNotSymmetry,
    InfiniteGroup,
    InvalidArgument,
    NotAdmissibleError,
    NotInvertible,
    ResourceLimitExceeded,
    WeightConditionViolated,
    WeightSystem,
    classify,
    fixed_locus,
    gmax,
    gmax_bruteforce,
    gmax_fermat_plus_monomial,
    group_from_elements,
    is_admissible_group,
    parse_polynomial,
    quotient_invariant_factors,
    sl_subgroup,
    smith_normal_form,
    subgroup_generated,
    subgroups_containing,
    transpose_group,
    transpose_polynomial,
)
from lgmk.symmetry import GROUP_ORDER_LIMIT

from conftest import INVERTIBLE_CORPUS_TEXTS, family_polynomial, j_group


def ge(*phases):
    return GroupElement(tuple(F(p) for p in phases))


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def det(matrix):
    n = len(matrix)
    rows = [[F(x) for x in row] for row in matrix]
    result = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return result


class TestGroupElement:
    def test_phases_reduced_mod_one(self):
        assert ge("5/4", "-1/3").phases == (F(1, 4), F(2, 3))

    def test_addition(self):
        assert ge("2/3", "1/2") + ge("2/3", "1/2") == ge("1/3", 0)

    def test_order(self):
        assert ge("1/6", "1/4").order() == 12
        assert ge(0, 0).order() == 1


class TestSmithNormalForm:
    CASES = [
        ((4, 0), (3, 1), (0, 4)),
        ((3, 0), (0, 3)),
        ((2, 4, 4), (-6, 6, 12), (10, 4, 16)),
        ((5,),),
        ((6, 0), (4, 2), (0, 6)),
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_decomposition(self, rows):
        matrix = [list(r) for r in rows]
        d, v = smith_normal_form(matrix)
        av, n = matmul(matrix, v), len(v)
        diag = [d[i][i] for i in range(min(len(d), n))]
        # some unimodular U has U*A*V = D iff A*V and D span one row lattice:
        # the rows of A*V lie in D's, and both have index prod(d_i) in Z^n,
        # which for A*V is the gcd of its n x n minors
        assert all(x % k == 0 for row in av for x, k in zip(row, diag))
        minors = [det([av[i] for i in chosen]) for chosen in combinations(range(len(av)), n)]
        assert gcd(*map(int, minors)) == prod(diag)
        assert abs(det(v)) == 1
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i + 1] % max(diag[i], 1) == 0 or diag[i] == 0
        for i in range(len(d)):
            for j in range(len(d[0])):
                if i != j:
                    assert d[i][j] == 0

    def test_known_invariant_factors(self):
        d, _ = smith_normal_form([[4, 0], [3, 1], [0, 4]])
        assert [d[0][0], d[1][1]] == [1, 4]

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [3, 4]], [[1, 2], []]])
    def test_ragged_rows_are_refused(self, rows):
        # unchecked, a short row raised a bare IndexError, and a long one
        # had its extra entries ignored
        with pytest.raises(InvalidArgument, match="rows must all have one length"):
            smith_normal_form(rows)


def check_smith(matrix):
    """Smith's invariants for any m x n shape: D diagonal with d_i | d_{i+1}
    (zeros last), |det V| = 1, column i of A*V divisible by d_i (so zero
    past the diagonal), and the gcd of the k x k minors of A*V, k = min(m, n),
    equal to prod(d_i)."""
    d, v = smith_normal_form(matrix)
    m, n = len(matrix), len(v)
    k = min(m, n)
    diag = [d[i][i] for i in range(k)]
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert abs(det(v)) == 1
    av = matmul(matrix, v)
    scale = diag + [0] * (n - k)
    assert all(x % s == 0 if s else x == 0 for row in av for x, s in zip(row, scale))
    minors = [det([[av[i][j] for j in cols] for i in rows])
              for rows in combinations(range(m), k) for cols in combinations(range(n), k)]
    assert gcd(*map(int, minors)) == prod(diag)


def sparse_matrices():
    entries = st.one_of(st.just(0), st.integers(-12, 12))
    return st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5))


class TestSmithInvariants:
    # sha256 of repr((D, V)) over the seeded matrices below, recorded from the
    # closure-based implementation that the stacked-matrix one replaced
    SEEDED_DIGEST = "7b6f0db97c9317efd09a74255eed348dde856b22b2eddfa9c98af5f855019711"

    @staticmethod
    def seeded_matrices():
        """500 matrices of 1..5 rows and columns, each entry 0 with
        probability 2/3 and otherwise drawn from -12..12."""
        rng = random.Random(41)
        for _ in range(500):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            yield [[rng.randint(-12, 12) if rng.randrange(3) == 0 else 0 for _ in range(n)]
                   for _ in range(m)]

    def test_seeded_forms_are_pinned(self):
        digest = hashlib.sha256()
        for matrix in self.seeded_matrices():
            digest.update(repr(smith_normal_form(matrix)).encode())
        assert digest.hexdigest() == self.SEEDED_DIGEST

    @settings(max_examples=150, deadline=None)
    @given(sparse_matrices())
    def test_random_matrices(self, matrix):
        check_smith(matrix)


class TestGmax:
    def test_family_is_cyclic_of_order_n(self):
        for n in (5, 7):
            group = gmax(family_polynomial(n))
            expected = j_group(n)
            assert group.elements == expected.elements

    def test_fermat_product(self):
        group = gmax(parse_polynomial("x^3 + y^3"))
        assert group.order == 9
        assert group.elements == subgroup_generated(
            [ge("1/3", 0), ge(0, "1/3")], 2).elements

    def test_noninvertible_invariant_factors(self):
        group = gmax(parse_polynomial("x^4 + y^4 + x^3*y"))
        assert group.invariant_factors() == (4,)
        assert group.order == 4

    def test_infinite_group_rejected(self):
        with pytest.raises(InfiniteGroup):
            gmax(parse_polynomial("x^2*y"))

    def test_matches_bruteforce_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            group = gmax(poly)
            brute = gmax_bruteforce(poly, max(group.exponent, 2))
            assert group.elements == brute.elements, str(poly)

    def test_weights_vector_always_inside(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            weights = classify(poly).weights
            assert is_admissible_group(gmax(poly), weights), str(poly)


class TestBruteforce:
    def test_single_variable(self):
        group = gmax_bruteforce(parse_polynomial("x^3"), 3)
        assert [g.phases for g in group.elements] == [(F(0),), (F(1, 3),), (F(2, 3),)]

    def test_equals_snf_route(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        assert gmax_bruteforce(poly, 4).elements == gmax(poly).elements

    def test_small_bound_misses_elements(self):
        group = gmax_bruteforce(parse_polynomial("x^3 + y^3"), 2)
        assert group.order == 1

    def test_bound_of_one_gives_the_trivial_group(self):
        group = gmax_bruteforce(parse_polynomial("x^3 + y^3"), 1)
        assert (group.order, group.exponent) == (1, 1)

    @pytest.mark.parametrize("bound", [0, -2])
    def test_bound_below_one_is_rejected(self, bound):
        with pytest.raises(InvalidArgument, match="denominator bound must be at least 1"):
            gmax_bruteforce(parse_polynomial("x^3 + y^3"), bound)


class TestSubgroups:
    def test_cyclic_diagonal(self):
        group = subgroup_generated([ge("1/5", "1/5")], 2)
        assert group.order == 5
        assert all(g.phases[0] == g.phases[1] for g in group.elements)

    def test_empty_generators(self):
        group = subgroup_generated([], 2)
        assert group.elements == (GroupElement.identity(2),)

    def test_two_generators(self):
        group = subgroup_generated([ge("1/6", "1/6"), ge("1/2", 0)], 2)
        assert group.order == 12

    def test_admissibility(self):
        assert is_admissible_group(subgroup_generated([ge("1/5", "1/5")], 2),
                                   WeightSystem((F(1, 5), F(1, 5))))
        assert not is_admissible_group(subgroup_generated([], 2),
                                       WeightSystem((F(1, 3), F(1, 3))))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
           st.integers(2, 6))
    def test_closure_properties(self, numerators, den):
        gens = [GroupElement((F(a, den), F(b, den))) for a, b in numerators]
        group = subgroup_generated(gens, 2)
        elements = set(group.elements)
        assert GroupElement.identity(2) in elements
        for a in group.elements:
            assert -a in elements
            for b in group.elements:
                assert a + b in elements


class TestSlAndFixedLocus:
    def test_sl_of_fermat_cubic(self):
        group = sl_subgroup(gmax(parse_polynomial("x^3 + y^3")))
        assert {g.phases for g in group.elements} == {
            (F(0), F(0)), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))}

    def test_sl_of_trivial(self):
        assert sl_subgroup(subgroup_generated([], 3)).order == 1

    def test_sl_keeps_integer_sums(self):
        group = subgroup_generated([ge("1/2", "1/2")], 2)
        assert sl_subgroup(group).elements == group.elements

    def test_sl_of_a_group_too_large_to_list(self):
        """Gmax has order 60^4 = 12,960,000; its determinant-one subgroup is
        a kernel on its basis, and equals the dual of <J> (W^T = W)."""
        poly = parse_polynomial("x^60 + y^60 + z^60 + w^60")
        full = gmax(poly)
        assert full.order > GROUP_ORDER_LIMIT
        with pytest.raises(ResourceLimitExceeded):
            full.vectors
        sl = sl_subgroup(full)
        assert (sl.order, sl.exponent, sl.invariant_factors()) == (216000, 60, (60, 60, 60))
        j = subgroup_generated([GroupElement((F(1, 60),) * 4)], 4)
        assert sl == transpose_group(j, poly)

    def test_fixed_locus(self):
        assert fixed_locus(ge(0, 0)) == {0, 1}
        assert fixed_locus(ge("1/5", "1/5")) == frozenset()
        assert fixed_locus(ge(0, "1/2")) == {0}


class TestTransposeGroup:
    def test_trivial_group_dualizes_to_full(self):
        poly = parse_polynomial("x^3")
        dual = transpose_group(subgroup_generated([], 1), poly)
        assert dual.elements == gmax(parse_polynomial("x^3")).elements

    def test_full_group_dualizes_to_trivial(self):
        poly = parse_polynomial("x^3")
        dual = transpose_group(gmax(poly), poly)
        assert dual.order == 1

    def test_j_group_dualizes_to_sl(self):
        poly = parse_polynomial("x^3 + y^3")
        dual = transpose_group(j_group(3), poly)
        expected = sl_subgroup(gmax(transpose_polynomial(poly)))
        assert dual.elements == expected.elements

    def test_requires_invertible(self):
        with pytest.raises(NotInvertible):
            transpose_group(j_group(4), parse_polynomial("x^4 + y^4 + x^3*y"))

    # a square degenerate matrix, and one with no unique weights
    @pytest.mark.parametrize("text,group", [("x^3*y + x^2*y^2", j_group(5)),
                                            ("x*y", j_group(2))])
    def test_requires_admissible_before_invertible(self, text, group):
        with pytest.raises(NotAdmissibleError):
            transpose_group(group, parse_polynomial(text))

    def test_requires_a_symmetry_of_the_polynomial(self):
        with pytest.raises(GroupNotSymmetry):
            transpose_group(subgroup_generated([ge("1/2", 0)], 2),
                            parse_polynomial("x^3 + y^3"))

    def test_duality_laws_on_two_variable_corpus(self, invertible_corpus_2var):
        for poly in invertible_corpus_2var:
            partner = transpose_polynomial(poly)
            full = gmax(poly)
            weights = classify(poly).weights
            j = GroupElement(tuple(weights))
            for group in subgroups_containing(full, [j]):
                dual = transpose_group(group, poly)
                double = transpose_group(dual, partner)
                assert double.elements == group.elements, str(poly)

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS)
    def test_dual_of_the_trivial_group_is_gmax_of_the_transpose(self, text):
        poly = parse_polynomial(text)
        dual = transpose_group(subgroup_generated([], poly.n_variables), poly)
        assert dual == gmax(transpose_polynomial(poly))
        assert hash(dual) == hash(gmax(transpose_polynomial(poly)))

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS)
    def test_transposing_twice_gives_the_group_back(self, text):
        poly = parse_polynomial(text)
        partner = transpose_polynomial(poly)
        j = GroupElement(tuple(classify(poly).weights))
        for group in subgroups_containing(gmax(poly), [j]):
            assert transpose_group(transpose_group(group, poly), partner) == group

    def test_order_and_quotient_relations(self, invertible_corpus_2var):
        for poly in invertible_corpus_2var[:8]:
            full = gmax(poly)
            weights = classify(poly).weights
            j = GroupElement(tuple(weights))
            towers = subgroups_containing(full, [j])
            for small in towers:
                for big in towers:
                    if not small.is_subgroup_of(big):
                        continue
                    small_dual = transpose_group(small, poly)
                    big_dual = transpose_group(big, poly)
                    assert big_dual.is_subgroup_of(small_dual)
                    assert big.order * big_dual.order == small.order * small_dual.order
                    assert (quotient_invariant_factors(big, small) ==
                            quotient_invariant_factors(small_dual, big_dual))


class TestClosedFormGmax:
    def test_family_collapses_to_diagonal(self):
        for n in (4, 9):
            group = gmax_fermat_plus_monomial(n, n, n - 1, 1)
            assert group.elements == j_group(n).elements

    def test_even_exponent_pair(self):
        group = gmax_fermat_plus_monomial(6, 6, 4, 2)
        assert group.order == 12
        assert group.elements == gmax(parse_polynomial("x^6 + y^6 + x^4*y^2")).elements

    def test_quartic_pair(self):
        group = gmax_fermat_plus_monomial(4, 4, 2, 2)
        assert group.order == 8
        assert group.elements == gmax(parse_polynomial("x^4 + y^4 + x^2*y^2")).elements

    def test_weight_condition_enforced(self):
        with pytest.raises(WeightConditionViolated):
            gmax_fermat_plus_monomial(4, 4, 1, 1)

    @pytest.mark.parametrize("p,q,r,s", sorted(
        {(n, n, n - 1, 1) for n in range(3, 41)} | {(3, 6, 1, 4), (9, 9, 3, 6), (4, 8, 2, 4)}
        # every valid exponent with p, q <= 15, (6, 3, 2, 2), (6, 4, 3, 2) and
        # (12, 8, 3, 6) among them: r/p + s/q = 1 with r, s >= 1
        | {(p, q, r, q * (p - r) // p) for p in range(2, 16) for q in range(2, 16)
           for r in range(1, p) if q * (p - r) % p == 0}))
    def test_no_generator_is_the_identity(self, p, q, r, s):
        # each generator lies outside the group of the ones before it, so none
        # is the identity: (1/gcd(p, r), 0) is the identity when gcd(p, r) = 1,
        # as on the paper's family x^n + y^n + x^(n-1)*y, and a multiple of
        # (1/p, 1/q) for (6, 3, 2, 2)
        group = gmax_fermat_plus_monomial(p, q, r, s)
        gens = group.generators
        for k, g in enumerate(gens):
            assert g not in subgroup_generated(list(gens[:k]), 2)
        full = gmax(parse_polynomial(f"x^{p} + y^{q} + x^{r}*y^{s}"))
        assert group == full and group.elements == full.elements

    def test_alternative_generators_agree(self):
        for p, q, r, s in [(6, 6, 4, 2), (9, 9, 3, 6), (4, 8, 2, 4), (5, 5, 4, 1)]:
            assert F(r, p) + F(s, q) == 1
            primary = gmax_fermat_plus_monomial(p, q, r, s)
            alt = subgroup_generated(
                [ge(F(1, p), F(1, q)), ge(0, F(1, gcd(q, s)))], 2)
            assert alt.elements == primary.elements


class TestInvariantFactors:
    def test_cyclic(self):
        group = subgroup_generated([ge("1/6", "1/6")], 2)
        assert group.invariant_factors() == (6,)

    def test_product(self):
        group = subgroup_generated([ge("1/3", 0), ge(0, "1/3")], 2)
        assert group.invariant_factors() == (3, 3)

    def test_mixed(self):
        group = subgroup_generated([ge("1/2", 0), ge(0, "1/4")], 2)
        assert group.invariant_factors() == (2, 4)

    def test_quotient(self):
        big = subgroup_generated([ge("1/4", 0), ge(0, "1/2")], 2)
        small = subgroup_generated([ge("1/2", 0)], 2)
        assert quotient_invariant_factors(big, small) == (2, 2)

    def test_quotient_requires_containment(self):
        with pytest.raises(ValueError):
            quotient_invariant_factors(subgroup_generated([ge("1/2", 0)], 2),
                                       subgroup_generated([ge(0, "1/2")], 2))

    def test_group_from_elements_rejects_non_closed(self):
        with pytest.raises(ValueError):
            group_from_elements([GroupElement.identity(1), ge("1/3")], 1)

    @pytest.mark.parametrize("element, ambient", [(("1/2",), 2), (("1/2", 0), 1)])
    def test_group_from_elements_rejects_wrong_length(self, element, ambient):
        with pytest.raises(ValueError, match="length does not match ambient dimension"):
            group_from_elements([ge(*element)], ambient)
