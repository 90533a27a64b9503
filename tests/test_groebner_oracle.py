"""The Buchberger engine against two references.

The monomial order once graded by a `Fraction` weighted sum; it now grades
by that sum times the lcm of the weights' denominators, an integer.  The
earlier key is kept below verbatim, and sorting random exponent sets by both
keys must give one order.

Reduced Groebner bases of random quasihomogeneous Jacobian ideals in two and
three variables must equal those `sympy.groebner` computes, both made monic.
sympy gets the engine's order as a `ProductOrder`: the weighted grade first,
then the engine's tie-break, the reversed exponents negated.  sympy's own
`grevlex` would not do as the tie-break: it compares total degrees first,
and monomials of one weighted degree can differ in total degree (x and y^2
under weights (1/2, 1/4)), which changes the basis.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, Rational, groebner, symbols
from sympy.polys.orderings import ProductOrder

from lgmk import MonomialOrder, Polynomial, WeightSystem, buchberger
from lgmk.milnor import jacobian_ideal


# ---------------------------------------------------------------------------
# The earlier Fraction-graded key
# ---------------------------------------------------------------------------

def fraction_key(weights, exps):
    if weights is None:
        grade: Fraction | int = sum(exps)
    else:
        grade = sum((e * w for e, w in zip(exps, weights)), Fraction(0))
    return (grade, tuple(-e for e in reversed(exps)))


@st.composite
def weights_and_exponents(draw):
    n = draw(st.integers(1, 4))
    weights = draw(st.none() | st.tuples(*[
        st.fractions(min_value=Fraction(1, 30), max_value=3, max_denominator=30)] * n))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), min_size=1, max_size=60))
    return weights, exps


@settings(max_examples=300, deadline=None)
@given(weights_and_exponents())
def test_integer_grade_sorts_like_the_fraction_grade(case):
    weights, exps = case
    order = MonomialOrder(weights)
    assert sorted(exps, key=order.key) == sorted(exps, key=lambda e: fraction_key(weights, e))
    assert all(isinstance(order.key(e)[0], int) for e in exps)
    assert len({order.key(e) for e in exps}) == len(set(exps))


def test_integer_grade_is_the_weighted_degree_times_the_lcm():
    order = MonomialOrder.weighted_degrevlex(
        WeightSystem((Fraction(1, 4), Fraction(1, 6), Fraction(2, 3))))
    # L = 12
    assert order.key((1, 2, 3)) == (3 + 4 + 24, (-3, -2, -1))
    assert MonomialOrder.degrevlex().key((1, 2, 3)) == (6, (-3, -2, -1))


def test_order_equality_and_repr_ignore_the_integer_weights():
    weights = WeightSystem((Fraction(1, 3), Fraction(1, 6)))
    order = MonomialOrder.weighted_degrevlex(weights)
    assert order == MonomialOrder(tuple(weights))
    assert hash(order) == hash(MonomialOrder(tuple(weights)))
    assert repr(order) == f"MonomialOrder(weights={tuple(weights)!r})"


# ---------------------------------------------------------------------------
# Buchberger against sympy.groebner
# ---------------------------------------------------------------------------

VARIABLES = ("x", "y", "z")
# exponents (a_i) with many mixed monomials of weight one under q_i = 1/a_i
RICH_DENOMINATORS = {2: st.sampled_from([(4, 4), (3, 6), (6, 6), (4, 8), (6, 9)]),
                     3: st.sampled_from([(3, 3, 3), (4, 4, 4), (2, 4, 4), (2, 3, 6),
                                         (3, 3, 6), (4, 4, 6), (5, 5, 5)])}


@st.composite
def quasihomogeneous(draw):
    """W = x_1^a_1 + ... + x_n^a_n plus a random set of other monomials of
    weight one under q_i = 1/a_i, all with nonzero coefficients in -9..9."""
    n = draw(st.integers(2, 3))
    denominators = draw(st.tuples(*[st.integers(2, 9 if n == 2 else 5)] * n)
                        | RICH_DENOMINATORS[n].flatmap(st.permutations).map(tuple))
    weights = tuple(Fraction(1, a) for a in denominators)
    fermat = [tuple(a if i == j else 0 for j in range(n))
              for i, a in enumerate(denominators)]
    weight_one = [m for m in product(*(range(a + 1) for a in denominators))
                  if sum(e * q for e, q in zip(m, weights)) == 1 and m not in fermat]
    chosen = [m for m in weight_one if draw(st.booleans())]
    coeff = st.builds(lambda sign, size: sign * size,
                      st.sampled_from((-1, 1)), st.integers(1, 9))
    terms = {m: Fraction(draw(coeff)) for m in fermat + chosen}
    return Polynomial.from_term_map(VARIABLES[:n], terms), WeightSystem(weights)


def _monic(term_map: dict, weights) -> frozenset:
    lead = term_map[max(term_map, key=lambda e: fraction_key(weights, e))]
    return frozenset((e, c / lead) for e, c in term_map.items())


def _sympy_basis(gens: list[Polynomial], order: MonomialOrder) -> set[frozenset]:
    syms = symbols(gens[0].variables)
    polys = [Poly.from_dict({e: Rational(c.numerator, c.denominator)
                             for e, c in g.term_map().items()}, *syms, domain=QQ)
             for g in gens]
    sympy_order = ProductOrder((lambda m: fraction_key(order.weights, m)[0], lambda m: m),
                               (lambda m: tuple(-e for e in reversed(m)), lambda m: m))
    basis = groebner(polys, *syms, order=sympy_order, domain=QQ)
    return {_monic({e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()}, order.weights)
            for g in basis.polys}


@settings(max_examples=40, deadline=None)
@given(quasihomogeneous())
def test_buchberger_matches_sympy_on_quasihomogeneous_jacobians(case):
    poly, weights = case
    gens = [g for g in jacobian_ideal(poly) if not g.is_zero()]
    order = MonomialOrder.weighted_degrevlex(weights)
    ours = buchberger(gens, order)
    assert {_monic(g.term_map(), weights) for g in ours.generators} == \
        _sympy_basis(gens, order)
    # generators come sorted by their leading terms in the order
    leads = [order.key(lt) for lt in ours.leading_terms()]
    assert leads == sorted(leads)
