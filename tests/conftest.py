"""Shared fixtures: the invertible test corpus and the example-table entries,
and the Groebner kernel run on `Polynomial`s."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from lgmk import GroupElement, Polynomial, parse_polynomial, subgroup_generated
from lgmk import groebner

# Invertible polynomials in up to three variables, exponents at most 7:
# sums of one-variable powers, chains, and loops, plus mixed sums.
FERMAT_1 = [f"x^{a}" for a in range(2, 8)]
FERMAT_2 = [f"x^{a} + y^{b}" for a, b in
            [(2, 2), (3, 3), (4, 4), (5, 5), (7, 7), (2, 5), (3, 4), (2, 7), (6, 4)]]
FERMAT_3 = [f"x^{a} + y^{b} + z^{c}" for a, b, c in
            [(2, 2, 2), (3, 3, 3), (2, 3, 4), (5, 2, 2), (2, 3, 7)]]
CHAIN_2 = [f"x^{a} + x*y^{b}" for a, b in
           [(3, 2), (4, 3), (5, 5), (7, 2), (2, 6), (6, 7)]]
LOOP_2 = [f"x^{a}*y + x*y^{b}" for a, b in
          [(2, 2), (3, 5), (4, 4), (7, 3), (2, 7)]]
CHAIN_3 = [f"x^{a} + x*y^{b} + y*z^{c}" for a, b, c in
           [(3, 2, 2), (2, 3, 4), (7, 2, 3)]]
LOOP_3 = [f"x^{a}*y + y^{b}*z + z^{c}*x" for a, b, c in
          [(2, 2, 2), (3, 2, 4), (2, 3, 2)]]

INVERTIBLE_CORPUS_TEXTS = (FERMAT_1 + FERMAT_2 + FERMAT_3 +
                           CHAIN_2 + LOOP_2 + CHAIN_3 + LOOP_3)

# Admissible two-variable examples with weights (1/n, 1/n), n = 4..7.
EXAMPLE_TABLE = {
    4: ["x^4 + y^4 + x^3*y", "x^4 + x^2*y^2 + x*y^3", "x^4 + x*y^3"],
    5: ["x^5 + y^5 + x^4*y", "x^4*y + x*y^4 + x^3*y^2 + x^2*y^3",
        "x^5 + x^2*y^3 + x*y^4"],
    6: ["x^6 + y^6 + x^5*y", "x^5*y + x^4*y^2 + y^6",
        "x^6 + x^2*y^4 + x*y^5 + y^6"],
    7: ["x^7 + y^7 + x^6*y", "x^6*y + x^5*y^2 + y^7", "x^6*y + x*y^6"],
}


def cleared(poly: Polynomial) -> dict[tuple[int, ...], int]:
    """poly's term map with integer coefficients: its numerators over their
    common denominator, the form the Groebner kernel takes."""
    terms = poly.term_map()
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def kernel_staircase(gens: list[Polynomial], order) -> groebner.Staircase:
    """`groebner.staircase` of polynomials over one variable list, each
    handed to the kernel cleared."""
    variables = gens[0].variables
    assert all(g.variables == variables for g in gens)
    return groebner.staircase([cleared(g) for g in gens], order, variables)


def kernel_remainder(poly: Polynomial, generators, order,
                     primitive: bool = True) -> Polynomial:
    """The Groebner kernel's top-reduced remainder of poly on division by
    generators: zero, or a positive multiple of poly modulo their ideal whose
    leading term no generator's lead divides.  They are made primitive
    first, as the kernel makes its own basis, or with primitive=False only
    cleared of denominators and signed so that their leading coefficients
    are positive."""
    assert all(g.variables == poly.variables for g in generators)
    weights = groebner._grade_weights(order, len(poly.variables))
    packing, (work, *basis) = groebner._packed(
        [cleared(p) for p in (poly, *generators)], weights)
    pairs = []
    for d in basis:
        lead = max(d)
        if primitive:
            d = groebner._primitive(d, lead)
        elif d[lead] < 0:
            d = {key: -c for key, c in d.items()}
        pairs.append((d, lead))
    groebner._top_reduce(work, pairs, packing, 0)
    return Polynomial.from_term_map(
        poly.variables, {packing.unpack(key): c for key, c in work.items()})


def positive_multiple(a: Polynomial, b: Polynomial) -> bool:
    """True iff a = c * b for some rational c > 0."""
    ta, tb = a.term_map(), b.term_map()
    if set(ta) != set(tb):
        return False
    if not ta:
        return True
    ratios = {ta[e] / tb[e] for e in ta}
    return len(ratios) == 1 and ratios.pop() > 0


def same_lead(a: Polynomial, b: Polynomial, order) -> bool:
    """True iff a and b are both zero, or share their leading term under
    order with a positive ratio of leading coefficients."""
    ta, tb = a.term_map(), b.term_map()
    if not ta or not tb:
        return not ta and not tb
    lead = max(ta, key=order.key)
    return lead == max(tb, key=order.key) and ta[lead] / tb[lead] > 0


def dense_polynomial(degree: int) -> Polynomial:
    """Every monomial of one degree in x, y, z, with coefficients 1..9 drawn
    from random.Random(0): nondegenerate, of weights 1/degree."""
    rng = random.Random(0)
    terms = {e: rng.randint(1, 9) for e in product(range(degree + 1), repeat=3)
             if sum(e) == degree}
    return Polynomial.from_term_map(("x", "y", "z"), terms)


def family_polynomial(n: int) -> Polynomial:
    """x^n + y^n + x^(n-1)*y."""
    return parse_polynomial(f"x^{n} + y^{n} + x^{n - 1}*y")


def j_group(n: int):
    """The cyclic group generated by (1/n, 1/n)."""
    return subgroup_generated([GroupElement((Fraction(1, n), Fraction(1, n)))], 2)


@pytest.fixture(scope="session")
def invertible_corpus():
    return [parse_polynomial(text) for text in INVERTIBLE_CORPUS_TEXTS]


@pytest.fixture(scope="session")
def invertible_corpus_2var(invertible_corpus):
    return [poly for poly in invertible_corpus if poly.n_variables == 2]


@pytest.fixture(scope="session")
def example_table():
    return {n: [parse_polynomial(text) for text in rows]
            for n, rows in EXAMPLE_TABLE.items()}
