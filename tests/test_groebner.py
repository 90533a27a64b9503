import random
import sys
from fractions import Fraction as F
from functools import partial
from itertools import permutations, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    InvalidArgument,
    NotFiniteDimensional,
    ResourceLimitExceeded,
    Staircase,
    WeightSystem,
    exponent_matrix,
    jacobian_ideal,
    parse_polynomial,
    solve_weights,
    staircase,
    standard_monomials,
)
from lgmk import groebner
from lgmk.polycore import Monomial, Polynomial

from conftest import (EXAMPLE_TABLE, INVERTIBLE_CORPUS_TEXTS, dense_polynomial,
                      kernel_remainder, kernel_staircase, order_key, positive_multiple,
                      same_lead)

# the integer grade weights of (1/n, 1/n), and of the total degree
EQUAL = (1, 1)


def grade_weights(poly: Polynomial) -> tuple[int, ...]:
    """The integer form L*q_i of poly's solved weights."""
    return solve_weights(exponent_matrix(poly)).integer_form[1]


def jacobian_corners(text, weights):
    poly = parse_polynomial(text)
    return kernel_staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], weights)


class TestBuchberger:
    def test_fermat_jacobian_is_already_a_basis(self):
        assert jacobian_corners("x^3 + y^3", EQUAL).leads == ((0, 2), (2, 0))

    def test_nine_standard_monomials(self):
        # Jacobian of x^4 + y^4 + x^3*y; 9 = (4-1)(4-1) by the dimension formula
        found = jacobian_corners("x^4 + y^4 + x^3*y", EQUAL)
        assert len(standard_monomials(found)) == 9

    def test_single_generator(self):
        found = kernel_staircase([parse_polynomial("x")], (1,))
        assert found.leads == ((1,),)

    def test_generator_order_irrelevant(self):
        gens = [parse_polynomial(t) for t in
                ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        reference = None
        for perm in permutations(gens):
            leads = kernel_staircase(list(perm), EQUAL).leads
            if reference is None:
                reference = leads
            assert leads == reference

    @pytest.mark.parametrize("weights", [(1,), (1, 1, 1), (0, 1), (-1, 1)])
    def test_grade_weights_are_positive_and_one_per_variable(self, weights):
        # unchecked, (1,) reads only the first exponent of each term and
        # finds the unit ideal, and (0, 1) divides by zero in the packing
        with pytest.raises(InvalidArgument, match="positive integers, one per variable"):
            staircase([{(1, 0): 1}, {(0, 2): 1}], weights)

    def test_grade_weights_are_not_bools(self):
        # True < 1 is false, so a bool passed the positivity check alone
        with pytest.raises(InvalidArgument, match="grade weight must be an integer, got True"):
            staircase([{(2, 0): 1}, {(0, 2): 1}], (True, True))

    def test_negative_exponents_are_refused(self):
        # packed unchecked, x^-1 borrowed from the next field: the lead came
        # back as (255, 255)
        with pytest.raises(InvalidArgument, match="exponents must be nonnegative integers"):
            staircase([{(-1, 0): 1}], (1, 1))
        with pytest.raises(InvalidArgument, match="exponents must be nonnegative integers"):
            staircase([{(2, 0): 1, (3, -1): 1}, {(0, 2): 1}], (1, 1))

    def test_budget_exhaustion_is_loud(self, monkeypatch):
        monkeypatch.setattr(groebner, "STEP_LIMIT", 0)
        gens = [parse_polynomial(t) for t in ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        with pytest.raises(ResourceLimitExceeded):
            kernel_staircase(gens, EQUAL)

    def test_reduction_steps_count_against_the_limit(self, monkeypatch):
        # the degrevlex Jacobian of d + d*x + x^100 is (1 + x, d + 100*x^99).
        # Its leads x and x^99 make the one pair the run processes; reducing
        # its S-polynomial, 100*x^98 - d, by 1 + x cancels x^98, ..., x^2,
        # 97 terms, and stops at the lead d, which no lead divides (d comes
        # before x in the variables, so d > x); d is coprime to both leads,
        # so no pair is made with it: 1 + 97 = 98 steps
        gens = jacobian_ideal(parse_polynomial("d + d*x + x^100"))
        monkeypatch.setattr(groebner, "STEP_LIMIT", 98)
        assert kernel_staircase(gens, EQUAL).leads == ((0, 1), (1, 0))
        monkeypatch.setattr(groebner, "STEP_LIMIT", 97)
        with pytest.raises(ResourceLimitExceeded, match="more than 97 steps"):
            kernel_staircase(gens, EQUAL)

    def test_normal_form_adds_one_step_per_cancelled_term(self, monkeypatch):
        # x^5 on division by x - 1 cancels its lead x^5, x^4, ..., x, five
        # times, and stops at the lead 1, which x does not divide: five
        # steps, added to the steps the run has already spent
        packing, (poly, gen) = groebner._packed(
            [{(5,): 1}, {(1,): 1, (0,): -1}], (1,))
        basis = [(gen, max(gen))]
        work = dict(poly)
        assert groebner._top_reduce(work, basis, packing, 7) == 12
        assert {packing.unpack(key): c for key, c in work.items()} == {(0,): 1}
        monkeypatch.setattr(groebner, "STEP_LIMIT", 11)
        with pytest.raises(ResourceLimitExceeded, match="more than 11 steps"):
            groebner._top_reduce(dict(poly), basis, packing, 7)

    def test_leads_are_minimal_and_ascending(self, invertible_corpus):
        for poly in invertible_corpus[:12]:
            weights = grade_weights(poly)
            leads = kernel_staircase(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], weights).leads
            keys = [order_key(weights, lt) for lt in leads]
            assert keys == sorted(set(keys))
            for i, lead in enumerate(leads):
                for j, lt in enumerate(leads):
                    if i != j:
                        assert not all(a <= b for a, b in zip(lt, lead))


def basis_in_x_y(*term_maps):
    return [Polynomial.from_term_map(("x", "y"), t) for t in term_maps]


# reduced Groebner bases of the Jacobian ideals, under weights (1/n, 1/n):
# x^2*y - 16/3*y^3, x^3 + 4*y^3, x*y^3 + 3/4*y^4, y^5 for x^4 + y^4 + x^3*y
QUARTIC_BASIS = basis_in_x_y({(2, 1): 1, (0, 3): F(-16, 3)}, {(3, 0): 1, (0, 3): 4},
                             {(1, 3): 1, (0, 4): F(3, 4)}, {(0, 5): 1})
# x^3*y - 25/4*y^4, x^4 + 5*y^4, x*y^4 + 4/5*y^5, y^7 for x^5 + y^5 + x^4*y
QUINTIC_BASIS = basis_in_x_y({(3, 1): 1, (0, 4): F(-25, 4)}, {(4, 0): 1, (0, 4): 5},
                             {(1, 4): 1, (0, 5): F(4, 5)}, {(0, 7): 1})


class TestNormalForm:
    """The kernel's fraction-free top reduction: with integer coefficients,
    its remainder is zero exactly when the normal form is, and otherwise
    has the normal form's leading term, which no lead divides, with a
    positive ratio of leading coefficients."""

    def test_ideal_member_reduces_to_zero(self):
        gens = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        member = Polynomial.from_term_map(("x", "y"), {(2, 0): 1})
        assert kernel_remainder(member, gens, EQUAL).is_zero()

    def test_mixed_term_survives(self):
        gens = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        result = kernel_remainder(parse_polynomial("x*y + x^2"), gens, EQUAL)
        assert str(result) == "x*y"

    def test_hand_built_basis_need_not_be_monic(self):
        # x^2 is cancelled by scaling the work by the leading coefficient 2
        # instead of dividing the generator by it
        result = kernel_remainder(parse_polynomial("x^2 + x*y"),
                                  [parse_polynomial("2*x^2 + 3*y^2")], EQUAL)
        assert str(result) == "2*x*y - 3*y^2"
        assert positive_multiple(result, parse_polynomial("x*y - 3/2*y^2"))
        # the lead x*y is standard, so top reduction stops there and leaves
        # y^2, which the full normal form x*y - 3/2*x cancels
        result = kernel_remainder(parse_polynomial("x*y + y^2"),
                                  [parse_polynomial("3*x + 2*y^2")], EQUAL)
        assert same_lead(result, parse_polynomial("x*y - 3/2*x"), EQUAL)

    def test_result_supported_on_standard_monomials(self):
        found = jacobian_corners("x^4 + y^4 + x^3*y", EQUAL)
        key = partial(order_key, EQUAL)
        assert [max(g.term_map(), key=key) for g in QUARTIC_BASIS] == list(found.leads)
        standards = {m.exponents for m in standard_monomials(found)}
        cube = Polynomial.from_term_map(("x", "y"), {(3, 0): 1})
        result = kernel_remainder(cube, QUARTIC_BASIS, EQUAL)
        # the normal form of x^3 is -4*y^3
        assert max(result.term_map(), key=key) in standards
        assert same_lead(result, Polynomial.from_term_map(("x", "y"), {(0, 3): -4}), EQUAL)

    def test_invariant_under_adding_ideal_members(self):
        rng = random.Random(20240817)
        poly = parse_polynomial("x^5 + y^5 + x^4*y")
        gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
        assert [max(g.term_map(), key=partial(order_key, EQUAL)) for g in QUINTIC_BASIS] == \
            list(kernel_staircase(gens, EQUAL).leads)
        target = parse_polynomial("x^3*y^2 + 2*x*y + 7*x^4")
        # the normal form of the target; its lead y^5 is standard
        reference = Polynomial.from_term_map(
            ("x", "y"), {(0, 5): F(25, 4), (0, 4): F(-35), (1, 1): F(2)})
        assert same_lead(kernel_remainder(target, QUINTIC_BASIS, EQUAL), reference, EQUAL)
        for _ in range(20):
            shifted = dict(target.term_map())
            for gen in gens:
                mult = {(rng.randrange(3), rng.randrange(3)): F(rng.randrange(-3, 4))}
                for (a, b), c in mult.items():
                    if c == 0:
                        continue
                    for exps, coeff in gen.term_map().items():
                        key = (exps[0] + a, exps[1] + b)
                        shifted[key] = shifted.get(key, F(0)) + c * coeff
            candidate = Polynomial.from_term_map(("x", "y"), shifted)
            assert same_lead(kernel_remainder(candidate, QUINTIC_BASIS, EQUAL),
                             reference, EQUAL)


class TestZeroDimensional:
    """The verdict of the `staircase` kernel: finite iff every variable has a
    pure-power leading term."""

    def test_box_ideal(self):
        poly = parse_polynomial("x^3 + y^3")
        assert kernel_staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], EQUAL).finite

    def test_single_mixed_monomial(self):
        assert not kernel_staircase([parse_polynomial("x*y")], EQUAL).finite

    def test_noninvertible_jacobian(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        found = kernel_staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], EQUAL)
        assert found.finite
        assert found.leads == ((2, 1), (3, 0), (1, 3), (0, 5))

    def test_unit_ideal(self):
        gens = [Polynomial.from_term_map(("x", "y"), terms)
                for terms in ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1})]
        found = kernel_staircase(gens, EQUAL)
        assert found.finite and found.leads == ((0, 0),)
        assert standard_monomials(found) == []


class TestStandardMonomials:
    def test_two_by_two_box(self):
        found = jacobian_corners("x^3 + y^3", EQUAL)
        rendered = {m.exponents for m in standard_monomials(found)}
        assert rendered == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_single_variable(self):
        found = kernel_staircase([parse_polynomial("x")], (1,))
        assert [m.exponents for m in standard_monomials(found)] == [(0,)]

    def test_sixteen_for_the_quintic(self):
        found = jacobian_corners("x^5 + y^5 + x^4*y", EQUAL)
        assert len(standard_monomials(found)) == 16

    def test_not_finite_dimensional(self):
        found = kernel_staircase([parse_polynomial("x*y")], EQUAL)
        with pytest.raises(NotFiniteDimensional):
            standard_monomials(found)

    @staticmethod
    def pure_powers(*exponents):
        n = len(exponents)
        return Staircase(tuple(tuple(a if j == i else 0 for j in range(n))
                               for i, a in enumerate(exponents)), (1,) * n)

    @pytest.mark.parametrize("exponents", [(10**20,), (10001, 1000), (10**7 + 1,)])
    def test_box_over_the_limit_is_refused(self, exponents):
        assert groebner.STANDARD_MONOMIAL_BOX_LIMIT == 10**7
        with pytest.raises(ResourceLimitExceeded):
            standard_monomials(self.pure_powers(*exponents))

    def test_box_at_the_limit_is_enumerated(self, monkeypatch):
        monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_BOX_LIMIT", 12)
        assert len(standard_monomials(self.pure_powers(3, 4))) == 12
        with pytest.raises(ResourceLimitExceeded):
            standard_monomials(self.pure_powers(13, 1))

    def test_a_walk_in_more_variables_than_the_recursion_limit(self):
        # units x_i for all but the last three variables, squares for those:
        # the walks go one variable deeper per variable
        n = 1100
        assert n > sys.getrecursionlimit()
        leads = tuple(tuple(int(j == i) + (j == i >= n - 3) for j in range(n))
                      for i in range(n))
        corners = Staircase(leads, (1,) * n)
        tails = [m.exponents[-3:] for m in standard_monomials(corners)]
        assert sorted(tails) == list(product((0, 1), repeat=3))
        assert all(not any(m.exponents[:-3]) for m in standard_monomials(corners))
        assert groebner._staircase_size(leads, n) == 8
        counts = [groebner._standard_count(g, (1,) * n, list(leads)) for g in range(5)]
        assert counts == [1, 3, 3, 1, 0]

    def test_equal_to_validated_monomials(self):
        # built without re-validation, they compare and hash like Monomial(...)
        monomials = standard_monomials(jacobian_corners("x^5 + y^5 + x^4*y", EQUAL))
        validated = [Monomial(m.exponents) for m in monomials]
        assert monomials == validated
        assert {hash(m) for m in monomials} == {hash(m) for m in validated}
        assert all(type(e) is int and e >= 0 for m in monomials for e in m.exponents)

    def test_sorted_ascending_in_order(self):
        found = jacobian_corners("x^4 + y^4 + x^3*y", EQUAL)
        monomials = standard_monomials(found)
        keys = [order_key(found.weights, m.exponents) for m in monomials]
        assert keys == sorted(keys)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_listing_is_the_sorted_box_filter(self, data):
        """The box of exponent tuples under the pure powers, less the tuples a
        lead divides, sorted by `order_key`; with a `last` filter, only the
        tuples whose last exponent is start + prefix sum mod step.  Weights
        up to 40 make some listings pack at a wider field."""
        n = data.draw(st.integers(1, 4), label="n")
        weights = tuple(data.draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)))
        bounds = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        pure = [tuple(b if j == i else 0 for j in range(n)) for i, b in enumerate(bounds)]
        leads = data.draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), max_size=6))
        if data.draw(st.booleans(), label="unit"):
            leads.append((0,) * n)
        leads = data.draw(st.permutations(leads + pure))
        spec = data.draw(st.none() | st.tuples(st.integers(0, 4), st.integers(1, 4)),
                         label="last")
        last = None
        if spec is not None:
            start, step = spec

            def last(prefix, stop):
                return range((start + sum(prefix)) % step, stop, step)

        found = [m.exponents for m in
                 standard_monomials(Staircase(tuple(leads), weights), last)]
        box = [exps for exps in product(*map(range, bounds))
               if not any(all(map(int.__le__, lt, exps)) for lt in leads)
               and (spec is None or (exps[-1] - start - sum(exps[:-1])) % step == 0)]
        assert found == sorted(box, key=partial(order_key, weights))
        # the listing behind it reads each grade, and the report each text,
        # off the packed keys
        listing = groebner._standard_listing(Staircase(tuple(leads), weights), last)
        names = ("a", "b1", "c", "d22")[:n]
        assert listing.grades == [sum(map(mul, exps, weights)) for exps in found]
        assert listing.texts(names) == groebner._render_monomials(names, found)

    def test_count_matches_weight_formula_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            weights = solve_weights(exponent_matrix(poly))
            found = kernel_staircase(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], weights.integer_form[1])
            expected = 1
            for q in weights:
                expected *= 1 / q - 1
            assert len(standard_monomials(found)) == expected, str(poly)


class TestKernelParts:
    """Packed monomials and the integer operations of the pair loop."""

    # the integer form of weights (1/2, 1/3, 1/6)
    WEIGHTS = WeightSystem((F(1, 2), F(1, 3), F(1, 6))).integer_form[1]

    def packing(self, width=groebner._FIELD_BITS):
        return groebner._Packing(self.WEIGHTS, width)

    def key(self, exps):
        return order_key(self.WEIGHTS, exps)

    def test_packed_keys_sort_like_the_order_and_unpack(self):
        packing = self.packing()
        box = list(product(range(5), repeat=3))
        assert sorted(box, key=packing.pack) == sorted(box, key=self.key)
        assert all(packing.unpack(packing.pack(e)) == e for e in box)

    def test_divides_is_componentwise(self):
        packing = self.packing()
        box = list(product(range(3), repeat=3))
        for a, b in product(box, box):
            assert packing.divides(packing.pack(a), packing.pack(b)) == \
                all(x <= y for x, y in zip(a, b))

    def test_fit_widens_only_past_the_limit(self):
        packing = self.packing()
        # weights (3, 2, 1) times the lcm 6; the least is 1, so 8-bit
        # fields hold every exponent of a monomial below grade 128
        assert packing.limit == 128
        assert packing.fit(127) is packing
        wider = packing.fit(128)
        assert wider.width > packing.width
        corner = (0, 0, 128)
        assert wider.unpack(wider.pack(corner)) == corner
        # at 8 bits, 128 would set its field's guard bit, which the
        # divisibility test needs clear
        assert -packing.pack(corner) & packing.mask & packing.guard
        assert not -wider.pack(corner) & wider.mask & wider.guard

    def test_primitive_divides_out_the_content_and_makes_the_lead_positive(self):
        assert groebner._primitive({5: 6, 3: -9}, 5) == {5: 2, 3: -3}
        assert groebner._primitive({5: -4, 3: 6}, 5) == {5: 2, 3: -3}
        kept = {5: 2, 3: -3}
        assert groebner._primitive(kept, 5) is kept

    def test_minimal_leads_drop_multiples_and_repeats(self):
        packing = self.packing()
        leads = [(2, 0, 0), (0, 1, 0), (2, 1, 0), (0, 1, 0), (0, 0, 3), (1, 0, 4)]
        kept = groebner._minimal_leads([packing.pack(e) for e in leads], packing)
        assert [packing.unpack(k) for k in kept] == \
            sorted([(2, 0, 0), (0, 1, 0), (0, 0, 3)], key=self.key)

    def test_s_polynomial_cancels_the_lcm_of_the_leads(self):
        # f = 2x^2 + z, g = 3xy + 1 in integer coefficients: lcm x^2*y and
        # m = 6.  f shifted to the lcm is 2x^2*y + yz; cancelling its lead
        # by g scales it by 3 and subtracts 2x * g, so S = 3y * f - 2x * g
        # = 3yz - 2x
        packing = self.packing()
        pack = packing.pack
        f = {pack((2, 0, 0)): 2, pack((0, 0, 1)): 1}
        g = {pack((1, 1, 0)): 3, pack((0, 0, 0)): 1}
        top = pack((2, 1, 0))
        work = {key + top - max(f): c for key, c in f.items()}
        groebner._cancel(work, top, g, max(g))
        assert {packing.unpack(k): c for k, c in work.items()} == \
            {(0, 1, 1): 3, (1, 0, 0): -2}
        # a common factor of the two coefficients is divided out first:
        # 4*x*y cancelled by 6*x gives 3 * 4xy - 2y * 6x = 0
        work = {pack((1, 1, 0)): 4}
        groebner._cancel(work, pack((1, 1, 0)), {pack((1, 0, 0)): 6}, pack((1, 0, 0)))
        assert work == {}

    def test_complete_intersection_series(self):
        # x, y of grades 1, 2 over (f, g) of grades 3, 4: the quotient is
        # spanned by 1, x, x^2, y, x*y, x^2*y, in grades 0 1 2 2 3 4
        assert groebner._complete_intersection_series((3, 4), (1, 2)) == [1, 1, 2, 1, 1]
        # the Milnor ring of x^3 + y^3: grades L - w_i = 2 over weights 1
        assert groebner._complete_intersection_series((2, 2), (1, 1)) == [1, 2, 1]

    def test_standard_count_and_staircase_size_count_the_walk(self):
        weights = self.WEIGHTS
        leads = [(2, 0, 0), (1, 2, 0), (0, 3, 0), (0, 1, 2), (0, 0, 5)]
        corners = Staircase(tuple(leads), weights)
        listed = standard_monomials(corners)
        assert groebner._staircase_size(leads, 3) == len(listed)
        for grade in range(30):
            expected = sum(1 for e in product(range(grade + 1), repeat=3)
                           if sum(a * w for a, w in zip(e, weights)) == grade
                           and not any(all(a <= b for a, b in zip(lt, e)) for lt in leads))
            assert groebner._standard_count(grade, weights, leads) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_standard_count_and_rows_match_brute_force(self, seed):
        # one to four variables, weight 1 among the weights, leads missing
        # from some last positions, the zero lead, and a staircase that is
        # not finite for the count
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 3) for _ in range(n))
        leads = [tuple(rng.randint(0, 3) * (rng.random() < 0.6) for _ in range(n))
                 for _ in range(rng.randint(0, 5))]

        def under(e, leads):
            return not any(all(a <= b for a, b in zip(lt, e)) for lt in leads)

        for grade in range(13):
            expected = sum(1 for e in product(range(grade + 1), repeat=n)
                           if sum(map(mul, e, weights)) == grade
                           and under(e, leads))
            assert groebner._standard_count(grade, weights, leads) == expected
        finite = leads + [tuple(rng.randint(1, 4) * (j == i) for j in range(n)) for i in range(n)]
        walked = [prefix + (e,) for prefix, lasts in groebner._walk(finite, (1,) * n)
                  for e in lasts]
        assert walked == [e for e in product(range(5), repeat=n) if under(e, finite)]


# a dense W with weights (1/5, 1/5, 1/5): mu = 64, and its Jacobian's
# socle grade is 9
DENSE_555 = ("-7*x^5 - 6*x^4*y - x^4*z - x^3*y^2 + 2*x^3*y*z - x^3*z^2 - 4*x^2*y^2*z"
             " - 2*x^2*y*z^2 + 5*x^2*z^3 - 8*x*y^4 - 4*x*y*z^3 - 5*x*z^4 - 7*y^5"
             " + 5*y^3*z^2 - 6*y^2*z^3 + 8*y*z^4 - 2*z^5")
# the Milnor-Orlik series of this W has 26,297,693 coefficients
LONG_SERIES_CUBIC = "x^3 + y^3 + x*y^2 + c^5 + d^7 + e^11 + f^13 + g^17 + h^19"


class TestHilbertDriving:
    def jacobian(self, text):
        poly = parse_polynomial(text)
        return jacobian_ideal(poly), grade_weights(poly)

    def test_zero_remainders_on_a_dense_jacobian(self, monkeypatch):
        # the pair loop without the series reduced 30 S-pairs, 14 of them to
        # zero; once the series is built, a grade whose standard monomials
        # number its coefficient reduces no further pair
        counts = {"reductions": 0, "zero": 0}
        top_reduce = groebner._top_reduce

        def counted(work, *args):
            spent = top_reduce(work, *args)
            counts["reductions"] += 1
            counts["zero"] += not work
            return spent

        monkeypatch.setattr(groebner, "_top_reduce", counted)
        found = kernel_staircase(*self.jacobian(DENSE_555))
        assert counts == {"reductions": 17, "zero": 1}
        assert len(standard_monomials(found)) == 64

    def test_a_set_aside_pair_takes_no_step(self, monkeypatch):
        # 110 steps: the 17 S-pairs reduced (see above) and the 93 terms
        # their top reductions cancel, pair by pair 0 + 1 + 1 + 3 + 10 + 12
        # + 5 + 7 + 8 + 10 + 4 + 6 + 7 + 9 + 3 + 5 + 2, and none for the
        # pairs the certificate leaves unprocessed
        gens, weights = self.jacobian(DENSE_555)
        monkeypatch.setattr(groebner, "STEP_LIMIT", 110)
        expected = kernel_staircase(gens, weights).leads
        monkeypatch.setattr(groebner, "STEP_LIMIT", 109)
        with pytest.raises(ResourceLimitExceeded, match="more than 109 steps"):
            kernel_staircase(gens, weights)
        assert len(expected) == 17

    def test_a_long_series_is_never_built(self, monkeypatch):
        # L = 4,849,845: the kernel builds the series only once its zero
        # remainders have cost more steps than the series has coefficients
        def forbidden(*args):
            raise AssertionError("the series was built")

        monkeypatch.setattr(groebner, "_complete_intersection_series", forbidden)
        gens, weights = self.jacobian(LONG_SERIES_CUBIC)
        assert kernel_staircase(gens, weights).finite


@st.composite
def dense_w(draw):
    """Every monomial of one degree 3..7 in x, y, z, with nonzero
    coefficients in -9..9; some are degenerate."""
    degree = draw(st.integers(3, 7))
    terms = {e: draw(st.integers(-9, 9).filter(bool))
             for e in product(range(degree + 1), repeat=3) if sum(e) == degree}
    return Polynomial.from_term_map(("x", "y", "z"), terms)


SCALING_TEXTS = INVERTIBLE_CORPUS_TEXTS + [text for rows in EXAMPLE_TABLE.values()
                                           for text in rows]


class TestGradeScaling:
    """Scaling every grade weight by c keeps the order, so it keeps the
    leads; it makes the series c times longer, so the Hilbert driving
    starts at another threshold."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(SCALING_TEXTS).map(parse_polynomial) | dense_w(),
           st.integers(2, 7))
    def test_scaled_weights_give_the_same_leads(self, poly, c):
        weights = grade_weights(poly)
        gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
        scaled = tuple(c * w for w in weights)
        found = kernel_staircase(gens, scaled)
        assert found.leads == kernel_staircase(gens, weights).leads
        assert found.weights == scaled


class TestGebauerMoeller:
    """Pairs are pruned where they are made: a coprime pair is never made,
    and criteria B_k, M and F drop the rest that a chain covers."""

    def test_a_fermat_sum_of_squares_queues_no_pair(self, monkeypatch):
        # the partials 2*x_i have pairwise coprime leads, so the run queues
        # no pair and takes no step
        poly = parse_polynomial(" + ".join(f"x{i}^2" for i in range(50)))
        gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
        pushed = []
        monkeypatch.setattr(groebner.heapq, "heappush", lambda heap, entry: pushed.append(entry))
        monkeypatch.setattr(groebner, "STEP_LIMIT", 0)
        found = kernel_staircase(gens, grade_weights(poly))
        assert pushed == []
        assert sorted(found.leads) == sorted(
            tuple(int(j == i) for j in range(50)) for i in range(50))

    def test_b_k_drops_a_queued_pair_whose_lcm_the_new_lead_divides(self, monkeypatch):
        # x^2*y and y^2*z queue their pair, of lcm x^2*y^2*z.  The lead x*y*z
        # divides that lcm and makes pairs of lcms x^2*y*z and x*y^2*z, so
        # B_k drops the queued pair: only the two new ones are processed.
        # Each processed pair cancels its lcm once; the generators are
        # monomials, so that leaves zero and top reduction cancels nothing
        processed = []
        cancel = groebner._cancel

        def recorded(*args):
            processed.append(args)
            return cancel(*args)

        monkeypatch.setattr(groebner, "_cancel", recorded)
        found = staircase([{(2, 1, 0): 1}, {(0, 2, 1): 3}, {(1, 1, 1): -2}], (1, 1, 1))
        assert found.leads == ((0, 2, 1), (1, 1, 1), (2, 1, 0))
        assert len(processed) == 2

    # the S-pairs the kernel reduces on a dense W of this degree, and its
    # steps: those pairs plus the terms their top reductions cancel, 25 +
    # 174, 34 + 282, 45 + 439, 57 + 635 and 71 + 896.  The series is built
    # once the zero remainders cost more steps than the socle grade
    # 3 * (degree - 2); the first one costs 1 + 13, 1 + 16, 1 + 19, 1 + 22
    # and 1 + 25, more than 12, 15, 18, 21 and 24, so it is the only one
    @pytest.mark.parametrize("degree,reduced,steps", [
        (6, 25, 199), (7, 34, 316), (8, 45, 484), (9, 57, 692), (10, 71, 967)])
    def test_dense_reduction_counts(self, monkeypatch, degree, reduced, steps):
        poly = dense_polynomial(degree)
        reductions = []
        top_reduce = groebner._top_reduce

        def counted(work, basis, packing, spent):
            after = top_reduce(work, basis, packing, spent)
            reductions.append((spent, after, bool(work)))
            return after

        monkeypatch.setattr(groebner, "_top_reduce", counted)
        weights = WeightSystem((F(1, degree),) * 3)
        found = kernel_staircase([p for p in jacobian_ideal(poly) if not p.is_zero()],
                                 weights.integer_form[1])
        assert len(reductions) == reduced
        assert reductions[-1][1] == steps
        assert sum(not left for _, _, left in reductions) == 1
        assert len(standard_monomials(found)) == (degree - 1) ** 3
