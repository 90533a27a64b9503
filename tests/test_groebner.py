import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from lgmk import (
    GroebnerBasis,
    MonomialOrder,
    NotFiniteDimensional,
    ResourceLimitExceeded,
    WeightSystem,
    buchberger,
    exponent_matrix,
    jacobian_ideal,
    normal_form,
    parse_polynomial,
    solve_weights,
    staircase,
    standard_monomials,
)
from lgmk import groebner
from lgmk.polycore import Polynomial

W13 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 3), F(1, 3))))
W14 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 4), F(1, 4))))
W15 = MonomialOrder.weighted_degrevlex(WeightSystem((F(1, 5), F(1, 5))))


def jacobian_basis(text, order):
    poly = parse_polynomial(text)
    return buchberger([p for p in jacobian_ideal(poly) if not p.is_zero()], order)


class TestBuchberger:
    def test_fermat_jacobian_is_already_a_basis(self):
        basis = jacobian_basis("x^3 + y^3", W13)
        assert {str(g) for g in basis.generators} == {"x^2", "y^2"}

    def test_nine_standard_monomials(self):
        # Jacobian of x^4 + y^4 + x^3*y; 9 = (4-1)(4-1) by the dimension formula
        basis = jacobian_basis("x^4 + y^4 + x^3*y", W14)
        assert len(standard_monomials(basis)) == 9

    def test_single_generator(self):
        basis = buchberger([parse_polynomial("x")], MonomialOrder.degrevlex())
        assert [str(g) for g in basis.generators] == ["x"]

    def test_generator_order_irrelevant(self):
        gens = [parse_polynomial(t) for t in
                ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        # pad to a common ambient
        reference = None
        for perm in permutations(gens):
            basis = buchberger(list(perm), W14)
            rendered = {str(g) for g in basis.generators}
            if reference is None:
                reference = rendered
            assert rendered == reference

    def test_budget_exhaustion_is_loud(self):
        gens = [parse_polynomial(t) for t in ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        with pytest.raises(ResourceLimitExceeded):
            buchberger(gens, W14, pair_budget=0)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "0")
        gens = [parse_polynomial(t) for t in ["4*x^3 + 3*x^2*y", "x^3 + 4*y^3"]]
        with pytest.raises(ResourceLimitExceeded):
            buchberger(gens, W14)

    def test_basis_is_autoreduced_and_monic(self, invertible_corpus):
        for poly in invertible_corpus[:12]:
            order = MonomialOrder.weighted_degrevlex(
                solve_weights(exponent_matrix(poly)))
            basis = buchberger(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], order)
            leads = basis.leading_terms()
            for i, g in enumerate(basis.generators):
                assert g.term_map()[leads[i]] == 1
                for j, lt in enumerate(leads):
                    if i != j:
                        assert not all(a <= b for a, b in zip(lt, leads[i]))


class TestNormalForm:
    def test_ideal_member_reduces_to_zero(self):
        basis = jacobian_basis("x^3 + y^3", W13)
        member = Polynomial.from_term_map(("x", "y"), {(2, 0): 1})
        assert normal_form(member, basis).is_zero()

    def test_mixed_term_survives(self):
        basis = jacobian_basis("x^3 + y^3", W13)
        result = normal_form(parse_polynomial("x*y + x^2"), basis)
        assert str(result) == "x*y"

    def test_hand_built_basis_need_not_be_monic(self):
        basis = GroebnerBasis((parse_polynomial("2*x^2 + 4*y^2"),), W13, ("x", "y"))
        result = normal_form(parse_polynomial("x^2 + x*y"), basis)
        assert str(result) == "x*y - 2*y^2"

    def test_result_supported_on_standard_monomials(self):
        basis = jacobian_basis("x^4 + y^4 + x^3*y", W14)
        standards = {m.exponents for m in standard_monomials(basis)}
        cube = Polynomial.from_term_map(("x", "y"), {(3, 0): 1})
        result = normal_form(cube, basis)
        assert result.term_map()
        assert set(result.term_map()) <= standards

    def test_invariant_under_adding_ideal_members(self):
        rng = random.Random(20240817)
        poly = parse_polynomial("x^5 + y^5 + x^4*y")
        gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
        basis = buchberger(gens, W15)
        target = parse_polynomial("x^3*y^2 + 2*x*y + 7*x^4")
        reference = normal_form(target, basis)
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
            assert normal_form(candidate, basis) == reference


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
        assert found.leading_terms() == jacobian_basis("x^4 + y^4 + x^3*y", W14).leading_terms()

    def test_unit_ideal(self):
        gens = [Polynomial.from_term_map(("x", "y"), terms)
                for terms in ({(1, 0): 1, (0, 0): 1}, {(1, 0): 1})]
        found = staircase(gens, MonomialOrder.degrevlex())
        assert found.finite and found.leading_terms() == [(0, 0)]
        assert standard_monomials(found) == []


class TestStandardMonomials:
    def test_two_by_two_box(self):
        basis = jacobian_basis("x^3 + y^3", W13)
        rendered = {m.exponents for m in standard_monomials(basis)}
        assert rendered == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_single_variable(self):
        basis = buchberger([parse_polynomial("x")], MonomialOrder.degrevlex())
        assert [m.exponents for m in standard_monomials(basis)] == [(0,)]

    def test_sixteen_for_the_quintic(self):
        basis = jacobian_basis("x^5 + y^5 + x^4*y", W15)
        assert len(standard_monomials(basis)) == 16

    def test_not_finite_dimensional(self):
        basis = buchberger([parse_polynomial("x*y")], MonomialOrder.degrevlex())
        with pytest.raises(NotFiniteDimensional):
            standard_monomials(basis)

    @staticmethod
    def pure_powers(*exponents):
        n = len(exponents)
        names = ("x", "y", "z")[:n]
        return GroebnerBasis(tuple(
            Polynomial.from_term_map(names, {tuple(a if j == i else 0 for j in range(n)): 1})
            for i, a in enumerate(exponents)), MonomialOrder.degrevlex(), names)

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

    def test_sorted_ascending_in_order(self):
        basis = jacobian_basis("x^4 + y^4 + x^3*y", W14)
        monomials = standard_monomials(basis)
        keys = [basis.order.key(m.exponents) for m in monomials]
        assert keys == sorted(keys)

    def test_count_matches_weight_formula_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            weights = solve_weights(exponent_matrix(poly))
            order = MonomialOrder.weighted_degrevlex(weights)
            basis = buchberger(
                [p for p in jacobian_ideal(poly) if not p.is_zero()], order)
            expected = 1
            for q in weights:
                expected *= 1 / q - 1
            assert len(standard_monomials(basis)) == expected, str(poly)
