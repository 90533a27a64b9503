import inspect
import json
import math
import random
import time
from fractions import Fraction as F
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    AModel,
    BModel,
    GradedDims,
    InvalidArgument,
    LgmkError,
    NotAdmissibleError,
    NotInvertible,
    Polynomial,
    ResourceLimitExceeded,
    WeightSystem,
    amodel,
    atable,
    bmodel,
    classify,
    discriminant_2var,
    discriminant_sign_boundary,
    enumerate_admissible_supports,
    exponent_matrix,
    gmax,
    mirror_check,
    nfamily_pair_solutions,
    nfamily_quadratic,
    nfamily_quadratic_roots,
    parse_polynomial,
    search_weight_systems,
    transpose_polynomial,
)
from lgmk import mirror, polycore, symmetry
from lgmk.mirror import STATUS_FOUND, STATUS_NONE_EXACT, STATUS_NONE_WITHIN_BOUND

from conftest import HERMITE_TEXTS, INVERTIBLE_CORPUS_TEXTS
from regen_workload_digests import DIGESTS, gen


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

    # a square degenerate matrix, and one with no unique weights
    @pytest.mark.parametrize("text", ["x^3*y + x^2*y^2", "x*y"])
    def test_not_admissible_is_rejected_before_invertibility(self, text):
        with pytest.raises(NotAdmissibleError):
            transpose_polynomial(parse_polynomial(text))

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


def _mirror_corpus_texts() -> list[str]:
    """Every polynomial of the mirror-corpus benchmark jobs replayed by
    test_workload_replay: seed 1 at the benchmark's block count."""
    with open(DIGESTS) as handle:
        record = json.load(handle)["mirror-corpus"]
    return [job["argv"][1] for job in gen.jobs("mirror-corpus", record["seed"], record["blocks"])]


def _parsed(texts) -> list[Polynomial]:
    return [parse_polynomial(text) for text in texts]


def _relabelled(texts) -> list[Polynomial]:
    """Each polynomial under every permutation of its variables' exponents.
    They are kept as polynomials: parsing their text back would order the
    variables by first appearance again."""
    found = []
    for poly in _parsed(texts):
        for order in permutations(range(poly.n_variables)):
            terms = {tuple(e[i] for i in order): c for e, c in poly.term_map().items()}
            found.append(Polynomial.from_term_map(poly.variables, terms))
    return found


RELABELLED = _relabelled(INVERTIBLE_CORPUS_TEXTS)
SPLIT_CORPORA = {"invertible": _parsed(INVERTIBLE_CORPUS_TEXTS), "hermite": _parsed(HERMITE_TEXTS),
                 "mirror-corpus": _parsed(_mirror_corpus_texts()), "relabelled": RELABELLED}


def _oracle_misses(polys) -> list[str]:
    """The polynomials where a table `mirror_sides` counts per atom differs
    from its whole-W route, amodel over Gmax(W) or bmodel of W^T, or where
    `mirror_sides` raises."""
    misses = []
    for poly in polys:
        whole = (amodel(poly, gmax(poly)).graded, bmodel(transpose_polynomial(poly)).graded)
        try:
            _, *split = mirror.mirror_sides(poly)
        except LgmkError:
            split = None
        if split != list(whole):
            misses.append(str(poly))
    return misses


@pytest.fixture
def limits(monkeypatch):
    """monkeypatch, clearing `mirror._atom_sides` when the test ends, so no
    atom's tables counted under a patched limit are read after it."""
    yield monkeypatch
    mirror._atom_sides.cache_clear()


class TestSplitTable:
    """W is counted as the tensor product of its atoms' tables on both
    sides, each atom's pair read from its weights and group alone: the
    oracles are amodel over Gmax(W) itself and bmodel of W^T itself."""

    @pytest.mark.parametrize("corpus", sorted(SPLIT_CORPORA))
    def test_the_tensor_product_is_the_whole_group_table(self, corpus):
        polys = SPLIT_CORPORA[corpus]
        assert any(len(polycore._pointer_form(exponent_matrix(p)) or ()) > 1 for p in polys)
        assert _oracle_misses(polys) == []

    def test_clearing_the_memo_gives_the_same_tables(self):
        polys = [poly for corpus in SPLIT_CORPORA.values() for poly in corpus]
        first = [mirror.mirror_sides(poly) for poly in polys]
        assert mirror._atom_sides.cache_info().hits
        mirror._atom_sides.cache_clear()
        again = [mirror.mirror_sides(poly) for poly in polys]
        assert mirror._atom_sides.cache_info().misses
        assert again == first

    def test_a_tensor_product_that_ignores_the_scales_fails_the_oracle(self, monkeypatch):
        def unscaled(self, other):
            # degrees added as numerators over the larger scale alone
            counts = {}
            for n, k in zip(self.numerators, self.dims):
                for m, d in zip(other.numerators, other.dims):
                    counts[n + m] = counts.get(n + m, 0) + k * d
            return GradedDims._from_counts(counts, max(self.scale, other.scale))

        monkeypatch.setattr(GradedDims, "tensor", unscaled)
        mirror._atom_sides.cache_clear()
        assert _oracle_misses(_parsed(INVERTIBLE_CORPUS_TEXTS + HERMITE_TEXTS))

    def test_an_atom_rebuilt_with_its_pointers_reversed_fails_the_relabelled_oracle(
            self, monkeypatch):
        # row i + 1 takes the pointer of row i: each chain and loop is
        # rebuilt as its own transpose, so its two sides are swapped
        source = inspect.getsource(mirror._atom_sides)
        assert source.count("rows[i][(i + 1) % k] = 1") == 1
        namespace = dict(vars(mirror))
        exec(source.replace("rows[i][(i + 1) % k] = 1", "rows[(i + 1) % k][i] = 1"), namespace)
        monkeypatch.setattr(mirror, "_atom_sides", namespace["_atom_sides"])
        assert len(RELABELLED) == 112 and _oracle_misses(RELABELLED)

    def test_a_split_w_builds_no_gmax_of_its_own(self, monkeypatch):
        seen = []

        def recorded(weights, group):
            seen.append((weights, group))
            return atable(weights, group)

        def forbidden(self, *args):
            raise AssertionError("an AModel was built")

        monkeypatch.setattr(mirror, "atable", recorded)
        monkeypatch.setattr(AModel, "__init__", forbidden)
        mirror._atom_sides.cache_clear()
        poly = parse_polynomial("x^4*y + y^6*z + z^5 + w^7")
        mirror.mirror_sides(poly)
        # one group per atom, each in the atom's canonical variable order
        # (here W's own), none listed
        q = classify(poly).weights
        assert seen == [(WeightSystem(q[:3]), gmax(parse_polynomial("x^4*y + y^6*z + z^5"))),
                        (WeightSystem(q[3:]), gmax(parse_polynomial("w^7")))]
        assert not any({"elements", "vectors"} & set(vars(g)) for _, g in seen)
        seen.clear()
        mirror.mirror_sides(poly)
        assert seen == []
        connected = parse_polynomial("x^4*y + y^6*z + z^5*w + w^7")
        mirror.mirror_sides(connected)
        assert seen == [(classify(connected).weights, gmax(connected))]
        # the first atom written z -> y -> x, read from its head z, is one key
        seen.clear()
        relabelled = parse_polynomial("x^5 + y^6*x + z^4*y")
        mirror.mirror_sides(relabelled)
        assert seen == []
        mirror._atom_sides.cache_clear()
        mirror.mirror_sides(relabelled)
        assert seen == [(WeightSystem(q[:3]), gmax(parse_polynomial("x^4*y + y^6*z + z^5")))]

    def test_a_fresh_w_is_classified_once_and_its_transpose_never_built(self, monkeypatch):
        poly = parse_polynomial("x^3*y + y^4*z + z^3*x + w^5")
        transpose = str(transpose_polynomial(poly))
        polycore._memoized_classify.cache_clear()
        mirror._atom_sides.cache_clear()
        classified = []
        memoized = polycore._memoized_classify

        def recorded(p):
            classified.append(p)
            return memoized(p)

        def forbidden(self, *args):
            raise AssertionError(f"a {type(self).__name__} was built")

        monkeypatch.setattr(polycore, "_memoized_classify", recorded)
        for cls in (AModel, BModel, Polynomial):
            monkeypatch.setattr(cls, "__init__", forbidden)
        partner, a_side, b_side = mirror.mirror_sides(poly)
        assert classified == [poly]
        assert partner == transpose == "x^3*y + x*z^4 + y^3*z + w^5"
        assert a_side == b_side
        assert mirror._atom_sides.cache_info().maxsize == 256

    def test_the_products_formed_are_bounded_by_the_group_order_limit(self, limits):
        # x^3 has a table of two entries, so x^3 + y^3 forms 4 products
        poly = parse_polynomial("x^3 + y^3")
        limits.setattr(symmetry, "GROUP_ORDER_LIMIT", 4)
        assert mirror_check(poly)
        limits.setattr(symmetry, "GROUP_ORDER_LIMIT", 3)
        with pytest.raises(ResourceLimitExceeded, match="2 atoms forms more than 3 products"):
            mirror_check(poly)

    def test_the_products_are_counted_over_every_factor(self, limits):
        # 2*2 products, then 3*2 for the table of 3 entries: 10 in all
        poly = parse_polynomial("x^3 + y^3 + z^3")
        limits.setattr(symmetry, "GROUP_ORDER_LIMIT", 10)
        assert mirror_check(poly)
        limits.setattr(symmetry, "GROUP_ORDER_LIMIT", 9)
        with pytest.raises(ResourceLimitExceeded, match="3 atoms forms more than 9 products"):
            mirror_check(poly)


def _square_supports() -> list[Polynomial]:
    """Every polynomial of n monomials with coefficients 1 in n = 2 or 3
    variables x, y, z, each exponent at most 3, whose matrix is not in
    pointer form: one row has pointer exponent 1, or none is a pure or
    pointing power."""
    found = []
    for n in (2, 3):
        rows = [r for r in product(range(4), repeat=n) if any(r)]
        for support in combinations(rows, n):
            if polycore._pointer_form(support) is None:
                found.append(Polynomial.from_term_map("xyz"[:n], dict.fromkeys(support, 1)))
    return found


class TestWholeW:
    """A W not in pointer form is counted whole: its A side by `atable` over
    Gmax(W), its B side by `bmodel` of W^T, which refuses a W^T that is not
    admissible naming W^T's weights."""

    def test_every_small_invertible_w_off_pointer_form_matches_its_whole_routes(self):
        invertible = linear = 0
        for poly in _square_supports():
            verdict = classify(poly)
            if verdict.reason == polycore._NO_CRITICAL_POINT:
                # a linear term x_i of weight 1: refused before W^T is built
                linear += 1
                with pytest.raises(NotAdmissibleError, match="linear term"):
                    mirror.mirror_sides(poly)
            if verdict.kind is not polycore.PolynomialClass.INVERTIBLE:
                continue
            invertible += 1
            a_side = amodel(poly, gmax(poly)).graded
            try:
                b_side = bmodel(transpose_polynomial(poly)).graded
            except LgmkError as exc:
                with pytest.raises(type(exc)) as raised:
                    mirror.mirror_sides(poly)
                assert str(raised.value) == str(exc), str(poly)
                continue
            _, *sides = mirror.mirror_sides(poly)
            assert sides == [a_side, b_side], str(poly)
        assert (invertible, linear) == (215, 12)

    def test_a_w_off_pointer_form_is_not_split(self, monkeypatch):
        seen = []

        def recorded(weights, group):
            seen.append((weights, group))
            return atable(weights, group)

        monkeypatch.setattr(mirror, "atable", recorded)
        # y*z has pointer exponent 1, so the Fermat atom w^3 is counted with
        # the rest, over one Gmax(W)
        poly = parse_polynomial("x^2*y + y*z + z^3 + w^3")
        mirror.mirror_sides(poly)
        assert seen == [(classify(poly).weights, gmax(poly))]


def pair_solutions(d, s) -> list[tuple[F, ...]]:
    """The two-variable search's pairs for product d and weight sum s,
    delta = 4 - 4 s; the status is NoneExact exactly when none is found."""
    report = search_weight_systems(d, 4 - 4 * F(s), 2)
    assert (report.status == STATUS_NONE_EXACT) == (not report.solutions)
    return [tuple(ws) for ws in report.solutions]


class TestPairSearch:
    def test_cubic_case(self):
        assert pair_solutions(4, F(2, 3)) == [(F(1, 3), F(1, 3))]

    def test_negative_discriminant(self):
        assert pair_solutions(8, F(2, 5)) == []

    def test_unit_product_forces_halves(self):
        assert pair_solutions(1, 1) == [(F(1, 2), F(1, 2))]
        assert pair_solutions(1, F(71, 90)) == []

    def test_irrational_discriminant(self):
        # d = 3, s = 1: q1 q2 = 0 is out; try d = 5, s = 1: p = 0 -> roots 0, 1
        assert pair_solutions(5, 1) == []
        # d = 2, s = 3/4: p = 1/4, disc = 9/16 - 1 < 0
        assert pair_solutions(2, F(3, 4)) == []

    def test_bad_targets_have_no_pair(self):
        # a product below 1 or a sum that is not positive
        assert pair_solutions(F(1, 2), 1) == []
        assert pair_solutions(2, 0) == []


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
            via_pair = pair_solutions(2 * n - 2, F(2, n))
            assert via_quadratic == via_pair


class TestSearch:
    def test_one_variable_candidate_rejected(self):
        report = search_weight_systems(8, F(12, 5), 1)
        assert report.status == STATUS_NONE_EXACT
        # the unique dimension-8 candidate has top degree 14/9, not 12/5
        accept = search_weight_systems(8, F(14, 9), 1)
        assert accept.status == STATUS_FOUND
        assert tuple(accept.solutions[0]) == (F(1, 9),)

    @pytest.mark.parametrize("m,bound", [(3.0, 60), (3, 20.0), (F(3), 60), (True, 60),
                                         (3, True)])
    def test_a_non_integer_m_or_bound_is_refused(self, m, bound):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            search_weight_systems(8, F(12, 5), m, bound)

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

    @pytest.mark.parametrize("m", [4, 10**9])
    def test_certificate_comes_before_the_grid(self, pair_solver_raises, m):
        # the grid at bound 1000 holds more than GRID_LIMIT points, but a
        # certified target needs no walk, so it is never built
        report = search_weight_systems(*family(12), m, denominator_bound=1000)
        assert report.status == STATUS_NONE_WITHIN_BOUND
        assert report.solutions == ()

    def test_uncertified_target_still_reaches_the_pair_solver(self, pair_solver_raises):
        # (1/5, 1/4, 1/3): a realizable target is walked
        with pytest.raises(AssertionError):
            search_weight_systems(24, F(43, 15), 3, denominator_bound=20)

    def test_six_weights_one_third_at_bound_300(self):
        # Jensen holds with equality here, so the target is not certified; the
        # pruned walk still ends, and finds the one solution
        report = search_weight_systems(64, 4, 6, denominator_bound=300)
        assert [tuple(ws) for ws in report.solutions] == [(F(1, 3),) * 6]


def every_m_certified(d: F, delta: F) -> bool:
    return mirror._every_m_certified(d.numerator, d.denominator,
                                     delta.numerator, delta.denominator)


class TestManyVariables:
    """Above SEARCH_VARS_LIMIT variables only the every-m certificate
    answers; at or below it the search is unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 41).flatmap(
        lambda den: st.integers(1, den // 2).map(lambda num: F(num, den))),
        min_size=1, max_size=8))
    def test_realizable_targets_are_never_certified(self, weights):
        d = math.prod(1 / q - 1 for q in weights)
        delta = 2 * sum(1 - 2 * q for q in weights)
        assert every_m_certified(d, delta) is False

    def test_the_edges_of_the_certificate(self):
        # delta < 0 and delta = 0 with d != 1 are impossible; (1, 0) is all halves
        assert every_m_certified(F(1), F(-1)) and every_m_certified(F(2), F(0))
        assert not every_m_certified(F(1), F(0))
        # T_40(12/5) = 11.02..., below e^(12/5) = 11.023...
        assert every_m_certified(F(11), F(12, 5))
        assert not every_m_certified(F(12), F(12, 5))
        # every paper-family row
        assert all(every_m_certified(*family(n)) for n in range(4, 19))

    @pytest.mark.parametrize("m", [mirror.SEARCH_VARS_LIMIT + 1, 10**9])
    def test_above_the_limit_only_the_certificate_answers(self, m):
        report = search_weight_systems(8, F(12, 5), m)
        assert (report.status, report.solutions) == (STATUS_NONE_WITHIN_BOUND, ())
        with pytest.raises(ResourceLimitExceeded):
            search_weight_systems(100, 1, m, denominator_bound=3)
        # d = 1: the target with no solution answers, the all-halves one is refused
        assert search_weight_systems(1, 1, m).status == STATUS_NONE_WITHIN_BOUND
        with pytest.raises(ResourceLimitExceeded):
            search_weight_systems(1, 0, m)

    def test_the_limit_itself_still_walks(self):
        m = mirror.SEARCH_VARS_LIMIT
        report = search_weight_systems(1, 0, m)
        assert [tuple(ws) for ws in report.solutions] == [(F(1, 2),) * m]
        # (1/3, 1/2, ..., 1/2): uncertified by every-m, found by the walk
        delta = F(2, 3)
        assert not every_m_certified(F(2), delta)
        report = search_weight_systems(2, delta, m, denominator_bound=3)
        assert [tuple(ws) for ws in report.solutions] == [(F(1, 3),) + (F(1, 2),) * (m - 1)]


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

    @pytest.mark.parametrize("bound", [60.5, 60.0, True])
    def test_a_non_integer_bound_is_refused(self, bound):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            discriminant_sign_boundary(8, F(12, 5), bound)

    @pytest.mark.parametrize("d", [0, -1])
    def test_a_nonpositive_dimension_is_refused(self, d):
        with pytest.raises(InvalidArgument, match=f"target dimension must be positive, got {d}$"):
            discriminant_sign_boundary(d, 1, 10)


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

    def test_an_empty_weight_system_is_refused(self):
        with pytest.raises(InvalidArgument):
            enumerate_admissible_supports(WeightSystem(()))

    def test_too_many_subsets_are_refused_before_any_is_tried(self, monkeypatch):
        # the pool at (1/6, 1/6, 1/6) holds the 28 monomials of degree 6 in
        # three variables: 2^28 - 1 - 28 - 378 = 268,435,049 subsets of at
        # least 3
        def tried(poly):
            raise AssertionError(f"{poly} was tried")

        monkeypatch.setattr(mirror, "classify", tried)
        assert mirror.SUPPORT_SUBSET_LIMIT == 10**4
        with pytest.raises(ResourceLimitExceeded, match="among 268435049 subsets of 28 "):
            enumerate_admissible_supports(WeightSystem((F(1, 6),) * 3))

    def test_a_pool_past_the_limit_is_refused_unlisted(self, monkeypatch):
        # the pool at (1/30,)*6 holds 324,632 monomials, and 2^324632 has
        # about 97,700 digits; the walk stops at n + SUPPORT_SUBSET_LIMIT
        def tried(poly):
            raise AssertionError(f"{poly} was tried")

        monkeypatch.setattr(mirror, "classify", tried)
        with pytest.raises(ResourceLimitExceeded) as refused:
            enumerate_admissible_supports(WeightSystem((F(1, 30),) * 6))
        assert str(refused.value) == (
            "the weight-one pool holds at least 10006 monomials, so its subsets "
            "of at least 6 number more than the limit of 10000")

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_pool_of_a_huge_grade_is_refused_in_the_time_it_reads(self, n):
        # at (1/e, ..., 1/e) the pool is every monomial of degree e; a walk
        # that took every child of a node at once did work linear in e before
        # the first one was read (1.5 s at e = 10^6 in two variables)
        begin = time.perf_counter()
        with pytest.raises(ResourceLimitExceeded, match="pool holds at least"):
            enumerate_admissible_supports(WeightSystem((F(1, 10**7),) * n))
        assert time.perf_counter() - begin < 1.0

    @pytest.mark.parametrize("seed", range(30))
    def test_pool_is_every_exponent_vector_of_weight_one(self, seed):
        # one to four variables, each weight k/d in (0, 1/2]
        rng = random.Random(seed)
        weights = []
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(2, 9)
            weights.append(F(rng.randint(1, d // 2), d))
        expected = [e for e in product(*(range(int(1 / q) + 1) for q in weights))
                    if sum(a * q for a, q in zip(e, weights)) == 1]
        pool = mirror._monomials_of_weight_one(WeightSystem(tuple(weights)))
        assert pool == sorted(expected, reverse=True)

    def test_the_limit_counts_subsets_of_at_least_n(self, monkeypatch):
        # the pool at (1/4, 1/4) holds 5 monomials: 2^5 - 1 - 5 = 26
        # subsets of at least 2
        weights = WeightSystem((F(1, 4), F(1, 4)))
        expected = [str(p) for p in enumerate_admissible_supports(weights)]
        monkeypatch.setattr(mirror, "SUPPORT_SUBSET_LIMIT", 26)
        assert [str(p) for p in enumerate_admissible_supports(weights)] == expected
        monkeypatch.setattr(mirror, "SUPPORT_SUBSET_LIMIT", 25)
        with pytest.raises(ResourceLimitExceeded, match="among 26 subsets of 5 "):
            enumerate_admissible_supports(weights)

    def test_outputs_share_the_weights(self):
        from lgmk import classify

        weights = WeightSystem((F(1, 4), F(1, 4)))
        for poly in enumerate_admissible_supports(weights):
            assert classify(poly).weights == weights


class TestCorpusMirror:
    def test_every_corpus_member_passes(self, invertible_corpus):
        for poly in invertible_corpus:
            assert mirror_check(poly), str(poly)
