"""The Groebner kernel against three references.

The kernel's only product is a `Staircase`: the minimal leading terms of a
Groebner basis, ascending in the order, with the verdict whether they bound
a finite staircase.  The kernel checks below compare that product, and
the kernel's fraction-free top-reduced remainder, which must be zero or
have a lead no lead divides, and reduce to a positive multiple of the
normal form.

The monomial order once graded by a `Fraction` weighted sum; the kernel now
grades by integer weights, that sum times the lcm of the weights'
denominators.  The earlier key is kept below verbatim, and sorting random
exponent sets by it and by the kernel's packed monomials must give one
order.  The references below read the kernel's order through the test-local
`order_key(weights, exps)`, not through the kernel.

The engine once divided in `Fraction` coefficients with monic generators and
returned reduced bases; the kernel divides in primitive integer coefficients
on packed monomials and stops at the leading terms, and `standard_monomials`
walks the staircase where it once filtered the whole exponent box.  That
earlier engine is kept below verbatim, under `oracle_` names, with the
reduced-basis container it returned as a test-local `GroebnerBasis`; only
its S-pair budget now reads the kernel's `STEP_LIMIT`.  On
random quasihomogeneous Jacobians, with small, rational and large
coefficients, in either order, the kernel must give that engine's verdict,
minimal leading terms and standard monomials, also when every run starts
from one-bit fields and must re-pack; on random monomial ideals,
`standard_monomials` must give the box filter's monomials or the same error.
On dense equal-weight Jacobians of degrees 5 to 7 the kernel is Hilbert
driven: it sets pairs aside and is certified by the Milnor number on its
first pass, and must still give that engine's leading terms, also when every
run re-packs; on degenerate Jacobians of the same shape the certificate
fails, and the set-aside pairs must go back into the loop, which then
reduces exactly the S-pairs of the loop without the series.  An
input that is no complete intersection candidate builds no series.

On random quasihomogeneous Jacobian ideals in two and three variables, the
`Fraction` engine's reduced basis must equal the one `sympy.groebner`
computes, both made monic, and the kernel's leading terms must be those of
sympy's basis.  sympy gets the engine's order as a `ProductOrder`: the
weighted grade first, then the engine's tie-break, the reversed exponents
negated.  sympy's own `grevlex` would not do as the tie-break: it compares
total degrees first, and monomials of one weighted degree can differ in
total degree (x and y^2 under weights (1/2, 1/4)), which changes the basis.
"""

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, Poly, Rational, groebner, symbols
from sympy.polys.orderings import ProductOrder

from lgmk import (
    NotFiniteDimensional,
    Polynomial,
    ResourceLimitExceeded,
    Staircase,
    WeightSystem,
    parse_polynomial,
    standard_monomials,
)
from lgmk import groebner as engine
from lgmk.errors import WeightError
from lgmk.polycore import Exps, Monomial, exponent_matrix, jacobian_ideal, solve_weights

from conftest import kernel_remainder, kernel_staircase, order_key, positive_multiple


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


def grade_weights(weights, n: int) -> tuple[int, ...]:
    """The kernel's integer grade weights for rational weights, or all ones
    (plain degrevlex) for None."""
    return (1,) * n if weights is None else WeightSystem(weights).integer_form[1]


@settings(max_examples=300, deadline=None)
@given(weights_and_exponents())
def test_integer_grade_sorts_like_the_fraction_grade(case):
    weights, exps = case
    grades = grade_weights(weights, len(exps[0]))
    packing = engine._Packing(grades, engine._FIELD_BITS).fit(
        max(sum(map(mul, e, grades)) for e in exps))
    expected = sorted(exps, key=lambda e: fraction_key(weights, e))
    assert sorted(exps, key=packing.pack) == expected
    assert sorted(exps, key=partial(order_key, grades)) == expected


def test_integer_grade_is_the_weighted_degree_times_the_lcm():
    grades = WeightSystem((Fraction(1, 4), Fraction(1, 6), Fraction(2, 3))).integer_form[1]
    # L = 12
    assert order_key(grades, (1, 2, 3)) == (3 + 4 + 24, (-3, -2, -1))
    assert order_key(grade_weights(None, 3), (1, 2, 3)) == (6, (-3, -2, -1))


# ---------------------------------------------------------------------------
# The kernel and the Fraction engine against sympy.groebner
# ---------------------------------------------------------------------------

VARIABLES = ("x", "y", "z", "w")
# exponents (a_i) with many mixed monomials of weight one under q_i = 1/a_i
RICH_DENOMINATORS = {2: st.sampled_from([(4, 4), (3, 6), (6, 6), (4, 8), (6, 9)]),
                     3: st.sampled_from([(3, 3, 3), (4, 4, 4), (2, 4, 4), (2, 3, 6),
                                         (3, 3, 6), (4, 4, 6), (5, 5, 5)])}


SMALL = st.builds(lambda sign, size: Fraction(sign * size),
                  st.sampled_from((-1, 1)), st.integers(1, 9))
RATIONAL = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)
LARGE = st.builds(lambda sign, size: Fraction(sign * size),
                  st.sampled_from((-1, 1)), st.integers(10**20, 10**30))
MIXED = st.one_of(SMALL, RATIONAL, LARGE)


@st.composite
def quasihomogeneous(draw, coefficients=SMALL):
    """W = x_1^a_1 + ... + x_n^a_n plus a random set of other monomials of
    weight one under q_i = 1/a_i, all with nonzero coefficients drawn from
    coefficients (by default, integers in -9..9)."""
    n = draw(st.integers(2, 3))
    denominators = draw(st.tuples(*[st.integers(2, 9 if n == 2 else 5)] * n)
                        | RICH_DENOMINATORS[n].flatmap(st.permutations).map(tuple))
    weights = tuple(Fraction(1, a) for a in denominators)
    fermat = [tuple(a if i == j else 0 for j in range(n))
              for i, a in enumerate(denominators)]
    weight_one = [m for m in product(*(range(a + 1) for a in denominators))
                  if sum(e * q for e, q in zip(m, weights)) == 1 and m not in fermat]
    chosen = [m for m in weight_one if draw(st.booleans())]
    terms = {m: draw(coefficients) for m in fermat + chosen}
    return Polynomial.from_term_map(VARIABLES[:n], terms), WeightSystem(weights)


def _monic(term_map: dict, weights) -> frozenset:
    lead = term_map[max(term_map, key=lambda e: fraction_key(weights, e))]
    return frozenset((e, c / lead) for e, c in term_map.items())


def _sympy_basis(gens: list[Polynomial], weights: WeightSystem) -> list[dict]:
    syms = symbols(gens[0].variables)
    polys = [Poly.from_dict({e: Rational(c.numerator, c.denominator)
                             for e, c in g.term_map().items()}, *syms, domain=QQ)
             for g in gens]
    sympy_order = ProductOrder((lambda m: fraction_key(weights, m)[0], lambda m: m),
                               (lambda m: tuple(-e for e in reversed(m)), lambda m: m))
    basis = groebner(polys, *syms, order=sympy_order, domain=QQ)
    return [{e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()} for g in basis.polys]


@settings(max_examples=40, deadline=None)
@given(quasihomogeneous())
def test_staircase_and_fraction_engine_match_sympy_on_quasihomogeneous_jacobians(case):
    poly, weights = case
    gens = [g for g in jacobian_ideal(poly) if not g.is_zero()]
    grades = weights.integer_form[1]
    expected = _sympy_basis(gens, weights)
    # the leading terms of sympy's reduced basis, ascending in the order
    key = partial(order_key, grades)
    leads = sorted((max(g, key=key) for g in expected), key=key)
    assert list(kernel_staircase(gens, grades).leads) == leads
    assert {_monic(g.term_map(), weights) for g in oracle_buchberger(gens, grades).generators} \
        == {_monic(g, weights) for g in expected}


# ---------------------------------------------------------------------------
# The earlier Fraction engine
# ---------------------------------------------------------------------------

TermDict = dict[Exps, Fraction]


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: monic generators, no leading term divides another."""

    generators: tuple[Polynomial, ...]
    weights: tuple[int, ...]
    variables: tuple[str, ...]

    def leading_terms(self) -> list[Exps]:
        key = partial(order_key, self.weights)
        return [max(g.term_map(), key=key) for g in self.generators]


def oracle_divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def oracle_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def oracle_monic(poly: TermDict, key) -> TermDict:
    lead = poly[max(poly, key=key)]
    if lead == 1:
        return poly
    return {e: c / lead for e, c in poly.items()}


def oracle_normal_form_dict(poly: TermDict, basis: list[tuple[TermDict, Exps]], key) -> TermDict:
    """Full remainder of poly on division by basis; no result term reducible.

    Every basis generator is monic, here and in `_s_polynomial`: gens and
    S-pair remainders pass through `_monic`, and interreduction never changes
    a leading coefficient.
    """
    work = dict(poly)
    remainder: TermDict = {}
    while work:
        term = max(work, key=key)
        coeff = work[term]
        for gen, lead in basis:
            if oracle_divides(lead, term):
                shift = tuple(t - l for t, l in zip(term, lead))
                for exps, c in gen.items():
                    target = tuple(e + s for e, s in zip(exps, shift))
                    value = work.get(target, Fraction(0)) - coeff * c
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[term] = coeff
            del work[term]
    return remainder


def oracle_s_polynomial(f: TermDict, lt_f: Exps, g: TermDict, lt_g: Exps) -> TermDict:
    lcm = oracle_lcm(lt_f, lt_g)
    shift_f = tuple(l - e for l, e in zip(lcm, lt_f))
    shift_g = tuple(l - e for l, e in zip(lcm, lt_g))
    result = {tuple(e + s for e, s in zip(exps, shift_f)): c for exps, c in f.items()}
    for exps, c in g.items():
        target = tuple(e + s for e, s in zip(exps, shift_g))
        value = result.get(target, Fraction(0)) - c
        if value:
            result[target] = value
        else:
            result.pop(target, None)
    return result


def oracle_autoreduce(basis: list[TermDict], key) -> list[TermDict]:
    # minimal: drop generators whose leading term another leading term divides
    items = [(d, max(d, key=key)) for d in basis]
    items.sort(key=lambda pair: key(pair[1]))
    kept: list[tuple[TermDict, Exps]] = []
    for d, lt in items:
        if not any(oracle_divides(other_lt, lt) for _, other_lt in kept):
            kept.append((d, lt))
    # reduced: the leading terms are now fixed, so a generator reduced once
    # against the others keeps its leading term and stays reduced
    for i, (d, lt) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        kept[i] = (oracle_normal_form_dict(d, others, key), lt)
    return [d for d, _ in kept]


def oracle_buchberger(gens: list[Polynomial], weights: tuple[int, ...]) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens, under the
    order graded by the integer weights.

    Pair selection is the normal strategy (smallest lcm in the order); the
    coprime and chain criteria prune useless pairs.  Processing more than
    the kernel's STEP_LIMIT S-pairs raises ResourceLimitExceeded.
    """
    if not gens:
        raise ValueError("no generators given")
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("generators must share one ambient variable list")
    # every exponent tuple is keyed once per run; the memo dies with the call
    keys: dict[Exps, tuple] = {}

    def key(exps: Exps) -> tuple:
        found = keys.get(exps)
        if found is None:
            found = keys[exps] = order_key(weights, exps)
        return found

    basis: list[TermDict] = []
    leads: list[Exps] = []
    for g in gens:
        d = g.term_map()
        if d:
            d = oracle_monic(d, key)
            basis.append(d)
            leads.append(max(d, key=key))

    pending: set[tuple[int, int]] = set()
    heap: list = []
    counter = 0

    def push_pair(i: int, j: int) -> None:
        nonlocal counter
        pending.add((i, j))
        heapq.heappush(heap, (key(oracle_lcm(leads[i], leads[j])), counter, i, j))
        counter += 1

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))  # each pair is pushed once and popped once
        processed += 1
        if processed > engine.STEP_LIMIT:
            raise ResourceLimitExceeded(
                f"S-pair budget of {engine.STEP_LIMIT} exceeded")
        lcm = oracle_lcm(leads[i], leads[j])
        if lcm == tuple(a + b for a, b in zip(leads[i], leads[j])):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not oracle_divides(leads[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pending and \
               (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s_poly = oracle_s_polynomial(basis[i], leads[i], basis[j], leads[j])
        remainder = oracle_normal_form_dict(s_poly, list(zip(basis, leads)), key)
        if remainder:
            remainder = oracle_monic(remainder, key)
            basis.append(remainder)
            leads.append(max(remainder, key=key))
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)

    reduced = oracle_autoreduce(basis, key) if basis else []
    generators = tuple(Polynomial.from_term_map(variables, d) for d in reduced)
    return GroebnerBasis(generators, weights, variables)


def oracle_pure_power_of(lt: Exps, i: int) -> bool:
    return lt[i] > 0 and all(e == 0 for j, e in enumerate(lt) if j != i)


def oracle_standard_monomials(basis: GroebnerBasis) -> list[Monomial]:
    """Monomials divisible by no leading term: a basis of the quotient.

    Sorted ascending in the basis order.  Raises NotFiniteDimensional when
    some variable has no pure-power leading term, that is when the quotient
    is not a finite-dimensional vector space.
    """
    leads = basis.leading_terms()
    if any(not any(lt) for lt in leads):
        return []  # unit ideal
    bounds = []
    for i in range(len(basis.variables)):
        pures = [lt[i] for lt in leads if oracle_pure_power_of(lt, i)]
        if not pures:
            raise NotFiniteDimensional("ideal is not zero dimensional")
        bounds.append(min(pures))
    key = partial(order_key, basis.weights)
    found = [exps for exps in product(*(range(b) for b in bounds))
             if not any(oracle_divides(lt, exps) for lt in leads)]
    found.sort(key=key)
    return [Monomial(exps) for exps in found]


# ---------------------------------------------------------------------------
# Standard monomials against the box filter
# ---------------------------------------------------------------------------

@st.composite
def monomial_ideals(draw):
    """A hand-built basis of monomials in 1 to 4 variables, of one kind:
    zero dimensional, not zero dimensional, or the unit ideal."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero-dimensional", "not-zero-dimensional", "unit"]))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 7)] * n).filter(any), max_size=8))
    pure = [tuple(draw(st.integers(1, 7)) if j == i else 0 for j in range(n))
            for i in range(n)]
    if kind == "zero-dimensional":
        leads += pure
    elif kind == "not-zero-dimensional":
        missing = draw(st.integers(0, n - 1))
        leads = [lt for lt in leads if sum(lt) != lt[missing]] + \
            [lt for i, lt in enumerate(pure) if i != missing]
    else:
        leads.append((0,) * n)
    weights = draw(st.none() | st.tuples(*[
        st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=12)] * n))
    leads = draw(st.permutations(leads))
    grades = grade_weights(weights, n)
    generators = tuple(Polynomial.from_term_map(VARIABLES[:n], {lt: 1}) for lt in leads)
    return kind, Staircase(tuple(leads), grades), \
        GroebnerBasis(generators, grades, VARIABLES[:n])


def _standard_or_error(function, basis):
    try:
        return function(basis)
    except NotFiniteDimensional:
        return NotFiniteDimensional


@settings(max_examples=300, deadline=None)
@given(monomial_ideals())
def test_staircase_matches_the_box_filter(case):
    kind, corners, basis = case
    found = _standard_or_error(standard_monomials, corners)
    assert found == _standard_or_error(oracle_standard_monomials, basis)
    if kind == "zero-dimensional":
        assert found and found[0] == Monomial((0,) * len(basis.variables))
    elif kind == "not-zero-dimensional":
        assert found is NotFiniteDimensional
    else:
        assert found == []


@pytest.mark.parametrize("generators,expected", [((), [Monomial(())]),
                                                 (({(): 3},), [])])
def test_staircase_matches_the_box_filter_without_variables(generators, expected):
    # from_term_map refuses a polynomial in no variables; the kernel takes one
    basis = GroebnerBasis(tuple(Polynomial((), tuple((Fraction(c), Monomial(e))
                                                     for e, c in g.items()))
                                for g in generators), (), ())
    corners = Staircase(tuple(basis.leading_terms()), ())
    assert standard_monomials(corners) == oracle_standard_monomials(basis) == expected



# ---------------------------------------------------------------------------
# The staircase kernel against the Fraction engine
# ---------------------------------------------------------------------------

@st.composite
def weighted_jacobians(draw):
    """The Jacobian of a random quasihomogeneous W in 2 to 4 variables, and
    its weights.  W is a random set of monomials of weight one under
    q_i = 1/a_i; half the time it holds every pure power x_i^a_i, otherwise
    any of them may be missing, so degenerate W are common."""
    n = draw(st.integers(2, 4))
    denominators = draw(st.tuples(*[st.integers(2, (9, 5, 4)[n - 2])] * n))
    weights = tuple(Fraction(1, a) for a in denominators)
    weight_one = [m for m in product(*(range(a + 1) for a in denominators))
                  if sum(e * q for e, q in zip(m, weights)) == 1]
    every_pure_power = draw(st.booleans())
    chosen = [m for m in weight_one
              if (every_pure_power and max(m) == sum(m)) or draw(st.booleans())]
    terms = {m: draw(SMALL | RATIONAL) for m in chosen or weight_one[:1]}
    poly = Polynomial.from_term_map(VARIABLES[:n], terms)
    return [g for g in jacobian_ideal(poly) if not g.is_zero()], WeightSystem(weights)


def _check_staircase_against_the_fraction_engine(gens, weights):
    found = kernel_staircase(gens, weights)
    reference = oracle_buchberger(gens, weights)
    expected = _standard_or_error(oracle_standard_monomials, reference)
    assert found.finite == (expected is not NotFiniteDimensional)
    assert list(found.leads) == reference.leading_terms()
    assert _standard_or_error(standard_monomials, found) == expected


@settings(max_examples=60, deadline=None)
@given(weighted_jacobians())
def test_staircase_matches_the_fraction_engine(case):
    gens, weights = case
    _check_staircase_against_the_fraction_engine(gens, weights.integer_form[1])


@st.composite
def jacobians(draw):
    """A random quasihomogeneous Jacobian with small, rational and large
    coefficients, and integer grade weights: the integer form of its
    weights, or all ones (plain degrevlex), under which it need not be
    homogeneous."""
    poly, weights = draw(quasihomogeneous(MIXED))
    gens = [g for g in jacobian_ideal(poly) if not g.is_zero()]
    return gens, (1,) * len(weights) if draw(st.booleans()) else weights.integer_form[1]


@settings(max_examples=60, deadline=None)
@given(jacobians())
def test_staircase_matches_the_fraction_engine_on_mixed_coefficients_in_either_order(case):
    _check_staircase_against_the_fraction_engine(*case)


def _has_no_weights(poly: Polynomial) -> bool:
    try:
        solve_weights(exponent_matrix(poly))
    except WeightError:
        return True
    return False


@st.composite
def unweighted_jacobians(draw):
    """The Jacobian of a random W with no weights, in 2 or 3 variables, of at
    most four monomials with exponents up to 3 and small coefficients: the
    ideals `is_nondegenerate` hands the kernel under plain degrevlex, whose
    S-pair remainders are not homogeneous."""
    n = draw(st.integers(2, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n).filter(any), SMALL,
                                 min_size=1, max_size=4))
    poly = Polynomial.from_term_map(VARIABLES[:n], terms)
    assume(_has_no_weights(poly))
    return [g for g in jacobian_ideal(poly) if not g.is_zero()]


@settings(max_examples=200, deadline=None)
@given(unweighted_jacobians())
def test_staircase_matches_the_fraction_engine_on_jacobians_without_weights(gens):
    _check_staircase_against_the_fraction_engine(gens, (1,) * gens[0].n_variables)


@settings(max_examples=40, deadline=None)
@given(jacobians(), st.data())
def test_normal_form_matches_the_fraction_engine(case, data):
    # the kernel's top-reduced remainder on the Fraction engine's reduced
    # basis is zero or has a lead no lead divides, and that engine reduces
    # it to a positive multiple of its normal form of the input, also when
    # the basis generators are scaled away from monic, by any sign, and
    # divided with those leading coefficients
    gens, weights = case
    basis = oracle_buchberger(gens, weights)
    key = partial(order_key, weights)
    n = len(basis.variables)
    # exponents up to 3: most monomials much above that lie in the ideal,
    # and a polynomial of them reduces to zero
    terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), MIXED,
                                      max_size=10))
    poly = Polynomial.from_term_map(basis.variables, terms)
    leads = basis.leading_terms()
    pairs = list(zip((g.term_map() for g in basis.generators), leads))

    def normal_form(p: Polynomial) -> Polynomial:
        return Polynomial.from_term_map(
            basis.variables, oracle_normal_form_dict(p.term_map(), pairs, key))

    expected = normal_form(poly)

    def check(remainder: Polynomial) -> None:
        terms = remainder.term_map()
        assert not terms or not any(
            oracle_divides(lt, max(terms, key=key)) for lt in leads)
        assert positive_multiple(normal_form(remainder), expected)

    check(kernel_remainder(poly, basis.generators, weights))
    scales = data.draw(st.lists(MIXED, min_size=len(basis.generators),
                                max_size=len(basis.generators)))
    scaled = [Polynomial.from_term_map(g.variables, {e: s * c for e, c in g.term_map().items()})
              for g, s in zip(basis.generators, scales)]
    check(kernel_remainder(poly, scaled, weights))
    check(kernel_remainder(poly, scaled, weights, primitive=False))


# from one bit, the fields widen at the inputs and again when S-pairs are
# queued, while earlier pairs wait in the queue with keys to re-pack
WIDENS_WITH_A_PAIR_QUEUED = (
    jacobian_ideal(parse_polynomial("x^3 + y^2 + y*z + z^2 + w^3")),
    WeightSystem((Fraction(1, 3), Fraction(1, 2), Fraction(1, 2), Fraction(1, 3))))


@settings(max_examples=40, deadline=None)
@given(weighted_jacobians())
@example(WIDENS_WITH_A_PAIR_QUEUED)
def test_staircase_matches_the_fraction_engine_when_every_run_repacks(case):
    # one bit per exponent is the guard bit alone, so every run widens its
    # fields at its inputs, to just fit them, and most again at S-pairs
    widths = []
    init = engine._Packing.__init__

    def recorded(self, weights, width):
        widths.append(width)
        init(self, weights, width)

    gens, weights = case
    with patch.object(engine, "_FIELD_BITS", 1), \
            patch.object(engine._Packing, "__init__", recorded):
        _check_staircase_against_the_fraction_engine(gens, weights.integer_form[1])
    assert widths[0] == 1 and len(widths) > 1


# ---------------------------------------------------------------------------
# The Hilbert-driven kernel against the Fraction engine
# ---------------------------------------------------------------------------

def dense_jacobian(degree: int, seed: int, keep=lambda exps: True):
    """The Jacobian of a W with every monomial x^a*y^b*z^c of one degree that
    `keep` accepts, with coefficients in -9..9 drawn from random.Random(seed),
    and the integer grade weights of its equal weights."""
    rng = random.Random(seed)
    terms = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
             for e in product(range(degree + 1), repeat=3) if sum(e) == degree and keep(e)}
    poly = Polynomial.from_term_map(VARIABLES[:3], terms)
    return jacobian_ideal(poly), WeightSystem((Fraction(1, degree),) * 3).integer_form[1]


@pytest.fixture
def driving(monkeypatch):
    """Counts the kernel's series builds, its passes of the pair loop (each
    ends by taking the minimal leads, and only a failed certificate starts
    another) and its staircase counts (a pass ends with one only when it set
    a pair aside and its leads bound a finite staircase)."""
    calls = {"series": 0, "passes": 0, "sizes": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(engine, "_complete_intersection_series",
                        counted("series", engine._complete_intersection_series))
    monkeypatch.setattr(engine, "_minimal_leads", counted("passes", engine._minimal_leads))
    monkeypatch.setattr(engine, "_staircase_size", counted("sizes", engine._staircase_size))
    return calls


@pytest.fixture(params=[False, True], ids=["default packing", "every run repacks"])
def widths(request, monkeypatch):
    """The field widths of the run's packings; with one-bit fields, every
    run widens them at its inputs and most again while pairs are queued or
    set aside."""
    recorded = []
    if request.param:
        init = engine._Packing.__init__

        def recording(self, weights, width):
            recorded.append(width)
            init(self, weights, width)

        monkeypatch.setattr(engine, "_FIELD_BITS", 1)
        monkeypatch.setattr(engine._Packing, "__init__", recording)
    return recorded


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("degree", [5, 6, 7])
def test_hilbert_driven_staircase_matches_the_fraction_engine_on_dense_jacobians(
        driving, widths, degree, seed):
    # dense equal-weight W waste steps on zero remainders early, so the run
    # builds the series, sets pairs aside and is certified on its first pass
    gens, weights = dense_jacobian(degree, seed)
    _check_staircase_against_the_fraction_engine(gens, weights)
    assert driving == {"series": 1, "passes": 1, "sizes": 1}
    assert kernel_staircase(gens, weights).finite
    assert widths == [] or (widths[0] == 1 and len(widths) > 1)


def test_degenerate_complete_intersection_falls_back(driving, widths):
    # three homogeneous partials in three variables, but every monomial of W
    # has degree 2 or more in x and y, so the z-axis is critical: pairs
    # above the socle grade are set aside, the staircase is not finite, the
    # certificate fails and the set-aside pairs go back into the loop
    gens, weights = dense_jacobian(5, 0, keep=lambda e: e[0] + e[1] >= 2)
    assert len(gens) == 3
    _check_staircase_against_the_fraction_engine(gens, weights)
    assert driving == {"series": 1, "passes": 2, "sizes": 0}
    assert not kernel_staircase(gens, weights).finite
    assert widths == [] or (widths[0] == 1 and len(widths) > 1)


@pytest.fixture
def reductions(monkeypatch):
    """Counts the kernel's reductions and those that end in zero."""
    counts = {"reductions": 0, "zero": 0}
    top_reduce = engine._top_reduce

    def counted(work, *args):
        spent = top_reduce(work, *args)
        counts["reductions"] += 1
        counts["zero"] += not work
        return spent

    monkeypatch.setattr(engine, "_top_reduce", counted)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("degree,reduced", [(4, 17), (5, 28), (6, 43)])
def test_degenerate_complete_intersections_fall_back_with_the_plain_loop_reductions(
        reductions, driving, widths, degree, seed, reduced):
    # the z-axis is critical, so every pass that built the series fails its
    # certificate; the pairs set aside go back into the loop, which reduces
    # exactly the S-pairs the loop without the series reduces
    gens, weights = dense_jacobian(degree, seed, keep=lambda e: e[0] + e[1] >= 2)
    found = kernel_staircase(gens, weights)
    assert reductions["reductions"] == reduced and not found.finite
    assert driving == {"series": 1, "passes": 2, "sizes": 0}
    _check_staircase_against_the_fraction_engine(gens, weights)
    assert widths == [] or (widths[0] == 1 and len(widths) > 1)


def _with_terms(poly: Polynomial, terms: dict[Exps, Fraction]) -> Polynomial:
    merged = dict(poly.term_map())
    for e, c in terms.items():
        merged[e] = merged.get(e, 0) + c
    return Polynomial.from_term_map(poly.variables, merged)


@pytest.mark.parametrize("shape", ["n + 1 generators", "a generator not homogeneous"])
def test_a_non_candidate_builds_no_series(reductions, driving, shape):
    # the dense Jacobian alone builds its series; with a fourth generator
    # f_1 + f_2, or with x added to f_3, it is no complete intersection
    # candidate, and however much its zero remainders cost, it builds none
    gens, weights = dense_jacobian(6, 0)
    if shape == "n + 1 generators":
        gens = gens + [_with_terms(gens[0], gens[1].term_map())]
    else:
        gens = gens[:2] + [_with_terms(gens[2], {(1, 0, 0): Fraction(1)})]
    kernel_staircase(gens, weights)
    assert reductions["zero"] > 20
    assert driving == {"series": 0, "passes": 1, "sizes": 0}
    _check_staircase_against_the_fraction_engine(gens, weights)


def test_set_aside_pairs_are_repacked_when_the_fields_widen(monkeypatch):
    # from 6-bit fields, this degenerate run widens them while pairs are
    # set aside (26 of them), and its fallback then processes those pairs:
    # the run must take exactly the steps it takes at the default width.
    # Coprime pairs are never made, so only a pair whose leads share a
    # variable widens the fields; degree 10 is the least of this family
    # whose run does so after the series is built
    gens, weights = dense_jacobian(10, 0, keep=lambda e: e[0] + e[1] >= 2)
    events = []
    series, init = engine._complete_intersection_series, engine._Packing.__init__
    top_reduce = engine._top_reduce

    def recorded_series(*args):
        events.append("series")
        return series(*args)

    def recorded_init(self, weights, width):
        events.append(width)
        init(self, weights, width)

    def recorded_division(work, basis, packing, spent):
        after = top_reduce(work, basis, packing, spent)
        steps.append((spent, after, bool(work)))
        return after

    monkeypatch.setattr(engine, "_complete_intersection_series", recorded_series)
    monkeypatch.setattr(engine._Packing, "__init__", recorded_init)
    monkeypatch.setattr(engine, "_top_reduce", recorded_division)
    steps = []
    expected = kernel_staircase(gens, weights)
    default_steps = steps
    steps = []
    events.clear()
    monkeypatch.setattr(engine, "_FIELD_BITS", 6)
    found = kernel_staircase(gens, weights)
    assert events.index("series") < len(events) - 1  # a widening after it
    assert found == expected and not found.finite
    assert steps == default_steps
