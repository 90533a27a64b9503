import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    InvalidArgument,
    NotInvertible,
    ResourceLimitExceeded,
    TailProductTooLarge,
    WeightSystem,
    discriminant_2var,
    discriminant_sign_boundary,
    enumerate_admissible_supports,
    mirror_check,
    nfamily_pair_solutions,
    nfamily_quadratic,
    nfamily_quadratic_roots,
    parse_polynomial,
    reduce_to_pair,
    search_weight_systems,
    solve_pair,
    transpose_polynomial,
)
from lgmk import mirror
from lgmk.mirror import STATUS_FOUND, STATUS_NONE_EXACT, STATUS_NONE_WITHIN_BOUND


class TestTranspose:
    def test_chain(self):
        assert str(transpose_polynomial(parse_polynomial("x^3 + x*y^2"))) == "x^3*y + y^2"

    def test_pure_power(self):
        poly = parse_polynomial("x^7")
        assert transpose_polynomial(poly) == poly

    def test_symmetric_matrix_is_fixed(self):
        poly = parse_polynomial("x^2*y + x*y^3")
        assert transpose_polynomial(poly) == poly

    def test_noninvertible_rejected(self):
        with pytest.raises(NotInvertible):
            transpose_polynomial(parse_polynomial("x^4 + y^4 + x^3*y"))

    def test_involution_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            partner = transpose_polynomial(poly)
            assert transpose_polynomial(partner) == poly, str(poly)


class TestMirrorCheck:
    def test_one_variable(self):
        assert mirror_check(parse_polynomial("x^3"))

    def test_fermat_sum(self):
        assert mirror_check(parse_polynomial("x^3 + y^3"))

    def test_chain(self):
        assert mirror_check(parse_polynomial("x^3 + x*y^2"))

    def test_rejects_noninvertible(self):
        with pytest.raises(NotInvertible):
            mirror_check(parse_polynomial("x^4 + y^4 + x^3*y"))


class TestSolvePair:
    def test_cubic_case(self):
        assert solve_pair(4, F(2, 3)) == [(F(1, 3), F(1, 3))]

    def test_negative_discriminant(self):
        assert solve_pair(8, F(2, 5)) == []

    def test_unit_product_forces_halves(self):
        assert solve_pair(1, 1) == [(F(1, 2), F(1, 2))]
        assert solve_pair(1, F(71, 90)) == []

    def test_irrational_discriminant(self):
        # d = 3, s = 1: q1 q2 = 0 is out; try d = 5, s = 1: p = 0 -> roots 0, 1
        assert solve_pair(5, 1) == []
        # d = 2, s = 3/4: p = 1/4, disc = 9/16 - 1 < 0
        assert solve_pair(2, F(3, 4)) == []

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            solve_pair(F(1, 2), 1)
        with pytest.raises(ValueError):
            solve_pair(2, 0)


class TestDiscriminant:
    def test_values(self):
        assert discriminant_2var(3) == 0
        assert discriminant_2var(5) == -224
        assert discriminant_2var(1) == 0

    def test_negative_beyond_three(self):
        for n in range(4, 1001):
            assert discriminant_2var(n) < 0

    def test_quadratic_path_matches_closed_form(self):
        for n in range(1, 1001):
            a, b, c = nfamily_quadratic(n)
            assert b * b - 4 * a * c == discriminant_2var(n)

    def test_family_roots_small_n(self):
        assert nfamily_quadratic_roots(1) == [(F(1), F(1))]
        assert nfamily_quadratic_roots(2) == [(F(0), F(1))]
        assert nfamily_quadratic_roots(3) == [(F(1, 3), F(1, 3))]
        assert nfamily_pair_solutions(1) == []
        assert nfamily_pair_solutions(2) == []
        assert nfamily_pair_solutions(3) == [(F(1, 3), F(1, 3))]

    def test_quadratic_route_agrees_with_pair_solver(self):
        for n in range(3, 30):
            via_quadratic = nfamily_pair_solutions(n)
            via_pair = solve_pair(2 * n - 2, F(2, n))
            assert via_quadratic == via_pair


class TestReduceToPair:
    def test_boundary_tail(self):
        reduced = reduce_to_pair(8, F(12, 5), 3, [F(1, 9)])
        assert reduced.d_pair == 1
        assert reduced.s_pair == F(71, 90)
        assert solve_pair(reduced.d_pair, reduced.s_pair) == []

    def test_half_tail_is_transparent_padding(self):
        reduced = reduce_to_pair(8, F(12, 5), 3, [F(1, 2)])
        assert reduced.d_pair == 8
        assert reduced.s_pair == F(2, 5)
        assert solve_pair(reduced.d_pair, reduced.s_pair) == []

    def test_empty_tail(self):
        reduced = reduce_to_pair(6, 2, 2, [])
        assert reduced.d_pair == 6
        assert reduced.s_pair == F(1, 2)

    def test_oversized_tail_rejected(self):
        with pytest.raises(TailProductTooLarge):
            reduce_to_pair(8, F(12, 5), 3, [F(1, 10)])

    def test_tail_range_validated(self):
        with pytest.raises(ValueError):
            reduce_to_pair(8, F(12, 5), 3, [F(2, 3)])
        with pytest.raises(ValueError):
            reduce_to_pair(8, F(12, 5), 3, [F(1, 9), F(1, 9)])


class TestSearch:
    def test_one_variable_candidate_rejected(self):
        report = search_weight_systems(8, F(12, 5), 1)
        assert report.status == STATUS_NONE_EXACT
        # the unique dimension-8 candidate has top degree 14/9, not 12/5
        accept = search_weight_systems(8, F(14, 9), 1)
        assert accept.status == STATUS_FOUND
        assert tuple(accept.solutions[0]) == (F(1, 9),)

    def test_two_variable_family_nonexistence(self):
        for n in range(4, 21):
            report = search_weight_systems(2 * n - 2, F(2 * (2 * n - 4), n), 2)
            assert report.status == STATUS_NONE_EXACT
        found = search_weight_systems(4, F(4, 3), 2)
        assert found.status == STATUS_FOUND
        assert tuple(found.solutions[0]) == (F(1, 3), F(1, 3))

    def test_three_variable_bounded(self):
        report = search_weight_systems(8, F(12, 5), 3, denominator_bound=60)
        assert report.status == STATUS_NONE_WITHIN_BOUND
        assert report.denominator_bound == 60

    def test_three_variable_positive_control(self):
        # q = (1/2, 1/3, 1/3): product 1*2*2 = 4, top 2(0 + 1/3 + 1/3) = 4/3
        report = search_weight_systems(4, F(4, 3), 3, denominator_bound=6)
        assert report.status == STATUS_FOUND
        assert (F(1, 3), F(1, 3), F(1, 2)) in [tuple(ws) for ws in report.solutions]

    def test_padding_invariance(self):
        base = search_weight_systems(4, F(4, 3), 2)
        padded = search_weight_systems(4, F(4, 3), 3, denominator_bound=12)
        padded_solutions = [tuple(ws) for ws in padded.solutions]
        for ws in base.solutions:
            target = tuple(sorted(tuple(ws) + (F(1, 2),)))
            assert target in padded_solutions

    def test_solutions_satisfy_both_equations(self):
        report = search_weight_systems(4, F(4, 3), 3, denominator_bound=12)
        assert report.solutions
        for ws in report.solutions:
            product = F(1)
            for q in ws:
                product *= 1 / q - 1
            assert product == 4
            assert 2 * sum(1 - 2 * q for q in ws) == F(4, 3)
            assert all(0 < q <= F(1, 2) for q in ws)

    def test_larger_bound_keeps_solutions(self):
        small = search_weight_systems(4, F(4, 3), 3, denominator_bound=6)
        large = search_weight_systems(4, F(4, 3), 3, denominator_bound=12)
        small_set = {tuple(ws) for ws in small.solutions}
        large_set = {tuple(ws) for ws in large.solutions}
        assert small_set <= large_set

    def test_json_shape(self):
        report = search_weight_systems(4, F(4, 3), 2)
        payload = report.to_json_dict()
        assert payload == {
            "target_dim": [4, 1],
            "target_top": [4, 3],
            "vars": 2,
            "bound": 60,
            "status": "SolutionsFound",
            "solutions": [[[1, 3], [1, 3]]],
        }


def family(n: int) -> tuple[F, F]:
    return F(2 * n - 2), F(2 * (2 * n - 4), n)


def certified(k: int, weight_sum: F, product: F) -> bool:
    return mirror._certified(k, weight_sum.numerator, weight_sum.denominator,
                             product.numerator, product.denominator)


class TestCertificate:
    """The Jensen certificate answers certified targets without enumerating
    and never excludes a realizable target or a prefix of one."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 41).flatmap(
        lambda den: st.integers(1, den // 2).map(lambda num: F(num, den))),
        min_size=1, max_size=6))
    def test_realizable_targets_and_prefixes_are_never_certified(self, weights):
        weights = sorted(weights)
        m = len(weights)
        d = math.prod(1 / q - 1 for q in weights)
        delta = 2 * sum(1 - 2 * q for q in weights)
        assert certified(m, (2 * m - delta) / 4, d) is False
        for j in range(m):
            rest = weights[j:]
            assert certified(m - j, sum(rest), math.prod(1 / q - 1 for q in rest)) is False

    @pytest.fixture
    def pair_solver_raises(self, monkeypatch):
        def boom(*_args):
            raise AssertionError("the pair solver ran on a certified target")
        monkeypatch.setattr(mirror, "_pair_roots", boom)

    @pytest.mark.parametrize("m, bound", [(3, 190), (3, 10**5), (4, 26)])
    def test_certified_family_targets_walk_nothing(self, pair_solver_raises, m, bound):
        for n in range(4, 13):
            report = search_weight_systems(*family(n), m, denominator_bound=bound)
            assert report.status == STATUS_NONE_WITHIN_BOUND
            assert report.solutions == ()

    def test_grid_refusal_comes_before_the_certificate(self, pair_solver_raises):
        with pytest.raises(ResourceLimitExceeded):
            search_weight_systems(*family(12), 4, denominator_bound=1000)

    def test_uncertified_target_still_reaches_the_pair_solver(self, pair_solver_raises):
        # (1/5, 1/4, 1/3): a realizable target is walked
        with pytest.raises(AssertionError):
            search_weight_systems(24, F(43, 15), 3, denominator_bound=20)

    def test_six_weights_one_third_at_bound_300(self):
        # Jensen holds with equality here, so the target is not certified; the
        # pruned walk still ends, and finds the one solution
        report = search_weight_systems(64, 4, 6, denominator_bound=300)
        assert [tuple(ws) for ws in report.solutions] == [(F(1, 3),) * 6]


class TestDiscriminantBoundary:
    def test_boundary_sits_at_one_ninth(self):
        assert discriminant_sign_boundary(8, F(12, 5), 60) == F(1, 9)

    @pytest.mark.parametrize("bound", [10**3, 10**6])
    def test_sign_tests_grow_logarithmically(self, monkeypatch, bound):
        # the grid below 1/2 has about 0.3 * bound^2 points; a scan of it
        # fails at the first sign test past the limit instead of running on
        limit = 4 * math.log2(bound)
        calls = []
        sign_at = mirror._sign_at

        def counted(*args):
            calls.append(args)
            assert len(calls) <= limit, "more sign tests than 4 log2(bound)"
            return sign_at(*args)

        monkeypatch.setattr(mirror, "_sign_at", counted)
        assert discriminant_sign_boundary(22, F(10, 3), bound) == F(1, 23)
        assert calls

    def test_boundary_stable_under_bound_growth(self):
        assert discriminant_sign_boundary(8, F(12, 5), 9) == F(1, 9)
        assert discriminant_sign_boundary(8, F(12, 5), 90) == F(1, 9)

    @pytest.mark.parametrize("bound", [0, 1, -5])
    def test_bound_below_two_is_rejected(self, bound):
        with pytest.raises(InvalidArgument):
            discriminant_sign_boundary(8, 2, bound)


class TestEnumerateSupports:
    def test_quartic_pool(self):
        polys = enumerate_admissible_supports(WeightSystem((F(1, 4), F(1, 4))))
        rendered = {str(p) for p in polys}
        assert "x^4 + x^3*y + y^4" in rendered
        assert "x^4 + x^2*y^2 + x*y^3" in rendered
        assert "x^4 + x*y^3" in rendered

    def test_single_quadric(self):
        polys = enumerate_admissible_supports(WeightSystem((F(1, 2),)))
        assert [str(p) for p in polys] == ["x^2"]

    def test_quintic_loop_chain(self):
        polys = enumerate_admissible_supports(WeightSystem((F(1, 5), F(1, 5))))
        assert "x^4*y + x^3*y^2 + x^2*y^3 + x*y^4" in {str(p) for p in polys}

    def test_outputs_share_the_weights(self):
        from lgmk import classify

        weights = WeightSystem((F(1, 4), F(1, 4)))
        for poly in enumerate_admissible_supports(weights):
            assert classify(poly).weights == weights


class TestCorpusMirror:
    def test_every_corpus_member_passes(self, invertible_corpus):
        for poly in invertible_corpus:
            assert mirror_check(poly), str(poly)
