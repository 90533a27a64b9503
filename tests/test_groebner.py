import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from lgmk import (
    MonomialOrder,
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

from conftest import kernel_remainder, positive_multiple

W13 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 3), F(1, 3))))
W14 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 4), F(1, 4))))
W15 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 5), F(1, 5))))


def jacobian_corners(text, order):
    poly = parse_polynomial(text)
    return staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], order)


class TestBuchberger:
    def test_fermat_jacobian_is_already_a_basis(self):
        assert jacobian_corners("x^3 + y^3", W13).leads == ((0, 2), (2, 0))

    def test_nine_standard_monomials(self):
        # Jacobian of x^4 + y^4 + x^3*y; 9 = (4-1)(4-1) by the dimension formula
        found = jacobian_corners("x^4 + y^4 + x^3*y", W14)
        assert len(standard_monomials(found)) == 9

    def test_single_generator(self):
        found = staircase([parse_polynomial("x")], MonomialOrder.degrevlex())
        assert found.leads == ((1,),)

    def test_generator_order_irrelevant(self):
        gens = [parse_polynomial(t) for t in
                ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        reference = None
        for perm in permutations(gens):
            leads = staircase(list(perm), W14).leads
            if reference is None:
                reference = leads
            assert leads == reference

    def test_budget_exhaustion_is_loud(self):
        gens = [parse_polynomial(t) for t in ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        with pytest.raises(ResourceLimitExceeded):
            staircase(gens, W14, pair_budget=0)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "0")
        gens = [parse_polynomial(t) for t in ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        with pytest.raises(ResourceLimitExceeded):
            staircase(gens, W14)

    def test_leads_are_minimal_and_ascending(self, invertible_corpus):
        for poly in invertible_corpus[:12]:
            order = MonomialOrder.weighted_degrevlex(
                solve_weights(exponent_matrix(poly)))
            leads = staircase(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], order).leads
            keys = [order.key(lt) for lt in leads]
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
    """The kernel's fraction-free division: its remainder is a positive
    multiple of the normal form, with integer coefficients."""

    def test_ideal_member_reduces_to_zero(self):
        gens = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        member = Polynomial.from_term_map(("x", "y"), {(2, 0): 1})
        assert kernel_remainder(member, gens, W13).is_zero()

    def test_mixed_term_survives(self):
        gens = jacobian_ideal(parse_polynomial("x^3 + y^3"))
        result = kernel_remainder(parse_polynomial("x*y + x^2"), gens, W13)
        assert str(result) == "x*y"

    def test_hand_built_basis_need_not_be_monic(self):
        # x^2 is cancelled by scaling the work by the leading coefficient 2
        # instead of dividing the generator by it
        result = kernel_remainder(parse_polynomial("x^2 + x*y"),
                                  [parse_polynomial("2*x^2 + 3*y^2")], W13)
        assert str(result) == "2*x*y - 3*y^2"
        assert positive_multiple(result, parse_polynomial("x*y - 3/2*y^2"))
        # x*y is kept before y^2 is cancelled; the scaling reaches it too
        result = kernel_remainder(parse_polynomial("x*y + y^2"),
                                  [parse_polynomial("3*x + 2*y^2")], W13)
        assert str(result) == "2*x*y - 3*x"

    def test_result_supported_on_standard_monomials(self):
        found = jacobian_corners("x^4 + y^4 + x^3*y", W14)
        assert [max(g.term_map(), key=W14.key) for g in QUARTIC_BASIS] == list(found.leads)
        standards = {m.exponents for m in standard_monomials(found)}
        cube = Polynomial.from_term_map(("x", "y"), {(3, 0): 1})
        result = kernel_remainder(cube, QUARTIC_BASIS, W14)
        assert result.term_map()
        assert set(result.term_map()) <= standards

    def test_invariant_under_adding_ideal_members(self):
        rng = random.Random(20240817)
        poly = parse_polynomial("x^5 + y^5 + x^4*y")
        gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
        assert [max(g.term_map(), key=W15.key) for g in QUINTIC_BASIS] == \
            list(staircase(gens, W15).leads)
        target = parse_polynomial("x^3*y^2 + 2*x*y + 7*x^4")
        reference = kernel_remainder(target, QUINTIC_BASIS, W15)
        assert not reference.is_zero()
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
            assert positive_multiple(kernel_remainder(candidate, QUINTIC_BASIS, W15),
                                     reference)


class TestZeroDimensional:
    """The verdict of the `staircase` kernel: finite iff every variable has a
    pure-power leading term."""

    def test_box_ideal(self):
        poly = parse_polynomial("x^3 + y^3")
        assert staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], W13).finite

    def test_single_mixed_monomial(self):
        assert not staircase([parse_polynomial("x*y")], MonomialOrder.degrevlex()).finite

    def test_noninvertible_jacobian(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        found = staircase([p for p in jacobian_ideal(poly) if not p.is_zero()], W14)
        assert found.finite
        assert found.leads == ((2, 1), (3, 0), (1, 3), (0, 5))

    def test_unit_ideal(self):
        gens = [Polynomial.from_term_map(("x", "y"), terms)
                for terms in ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1})]
        found = staircase(gens, MonomialOrder.degrevlex())
        assert found.finite and found.leads == ((0, 0),)
        assert standard_monomials(found) == []


class TestStandardMonomials:
    def test_two_by_two_box(self):
        found = jacobian_corners("x^3 + y^3", W13)
        rendered = {m.exponents for m in standard_monomials(found)}
        assert rendered == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_single_variable(self):
        found = staircase([parse_polynomial("x")], MonomialOrder.degrevlex())
        assert [m.exponents for m in standard_monomials(found)] == [(0,)]

    def test_sixteen_for_the_quintic(self):
        found = jacobian_corners("x^5 + y^5 + x^4*y", W15)
        assert len(standard_monomials(found)) == 16

    def test_not_finite_dimensional(self):
        found = staircase([parse_polynomial("x*y")], MonomialOrder.degrevlex())
        with pytest.raises(NotFiniteDimensional):
            standard_monomials(found)

    @staticmethod
    def pure_powers(*exponents):
        n = len(exponents)
        return Staircase(tuple(tuple(a if j == i else 0 for j in range(n))
                               for i, a in enumerate(exponents)),
                         MonomialOrder.degrevlex(), ("x", "y", "z")[:n])

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

    def test_equal_to_validated_monomials(self):
        # built without re-validation, they compare and hash like Monomial(...)
        monomials = standard_monomials(jacobian_corners("x^5 + y^5 + x^4*y", W15))
        validated = [Monomial(m.exponents) for m in monomials]
        assert monomials == validated
        assert {hash(m) for m in monomials} == {hash(m) for m in validated}
        assert all(type(e) is int and e >= 0 for m in monomials for e in m.exponents)

    def test_sorted_ascending_in_order(self):
        found = jacobian_corners("x^4 + y^4 + x^3*y", W14)
        monomials = standard_monomials(found)
        keys = [found.order.key(m.exponents) for m in monomials]
        assert keys == sorted(keys)

    def test_count_matches_weight_formula_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            weights = solve_weights(exponent_matrix(poly))
            order = MonomialOrder.weighted_degrevlex(weights)
            found = staircase(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], order)
            expected = 1
            for q in weights:
                expected *= 1 / q - 1
            assert len(standard_monomials(found)) == expected, str(poly)


class TestKernelParts:
    """Packed monomials and the integer operations of the pair loop."""

    ORDER = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 2), F(1, 3), F(1, 6))))

    def packing(self, width=groebner._FIELD_BITS):
        return groebner._Packing(groebner._grade_weights(self.ORDER, 3), width)

    def test_packed_keys_sort_like_the_order_and_unpack(self):
        packing = self.packing()
        box = list(product(range(5), repeat=3))
        assert sorted(box, key=packing.pack) == sorted(box, key=self.ORDER.key)
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
            sorted([(2, 0, 0), (0, 1, 0), (0, 0, 3)], key=self.ORDER.key)

    def test_s_polynomial_cancels_the_lcm_of_the_leads(self):
        # f = 2x^2 + z, g = 3xy + 1 in integer coefficients: lcm x^2*y and
        # m = 6, so S = 3y * f - 2x * g = 3yz - 2x
        packing = self.packing()
        pack = packing.pack
        f = {pack((2, 0, 0)): 2, pack((0, 0, 1)): 1}
        g = {pack((1, 1, 0)): 3, pack((0, 0, 0)): 1}
        top = pack((2, 1, 0))
        result = groebner._s_polynomial(f, max(f), g, max(g), top)
        assert {packing.unpack(k): c for k, c in result.items()} == \
            {(0, 1, 1): 3, (1, 0, 0): -2}
