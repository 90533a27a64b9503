"""Buchberger engine over Q for the quotient-ring computations.

Polynomials enter and leave as `polycore.Polynomial`, with `Fraction`
coefficients.  Inside, a polynomial is a dict mapping exponent tuples to
integers, and division is fraction-free: every generator the engine keeps
is primitive (denominators cleared, content divided out, leading
coefficient positive), S-polynomials scale by the lcm of the two leading
coefficients, and `_normal_form_dict` pseudo-divides, returning the
remainder and the positive factor it scaled the input by.  The reduced basis
becomes monic `Fraction` polynomials once, at the end.  `normal_form`
divides the integer remainder by the input's denominator times that factor.

The default order for quasihomogeneous work is weighted-degree
reverse-lexicographic, under which Jacobian ideals are homogeneous and
standard monomial bases are graded.  Monomials are compared by integer
keys: a weighted order scales its weights once by the lcm L of their
denominators, so the first component of `MonomialOrder.key` is the weighted
degree times L, an integer.  `buchberger` computes each exponent tuple's key
once per run, in a dict that lives only as long as the call.

Once the basis is minimal one interreduction pass makes it reduced.
`standard_monomials` checks zero-dimensionality while it computes its
exponent bounds, refuses a box larger than STANDARD_MONOMIAL_BOX_LIMIT, and
walks the staircase under the leading terms, one variable at a time.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, le, mul, sub

from .errors import InvalidArgument, NotFiniteDimensional, ResourceLimitExceeded
from .polycore import Exps, Monomial, Polynomial, WeightSystem

DEFAULT_PAIR_BUDGET = 10**6
PAIR_BUDGET_ENV = "LGMK_PAIR_BUDGET"
# most exponent tuples standard_monomials may enumerate: the product of the
# least pure-power exponents, one per variable
STANDARD_MONOMIAL_BOX_LIMIT = 10**7

# integer coefficients; a generator inside the engine is primitive
TermDict = dict[Exps, int]


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse-lexicographic order, graded by weights or total degree.

    key() returns a tuple that sorts ascending in the order; 1 is minimal
    because all weights are positive.  The first component of the key is an
    integer grade: the total degree, or for weights q_i the weighted degree
    sum(e_i * q_i) times L, the lcm of the weights' denominators.  L > 0, so
    this is the same order as the one graded by the rational weighted degree.
    """

    weights: tuple[Fraction, ...] | None = None
    # L * q_i, fixed when the order is built
    _integer_weights: tuple[int, ...] | None = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self):
        integer_weights = None
        if self.weights is not None:
            scale = lcm(*(w.denominator for w in self.weights))
            integer_weights = tuple(int(w * scale) for w in self.weights)
        object.__setattr__(self, "_integer_weights", integer_weights)

    @staticmethod
    def degrevlex() -> "MonomialOrder":
        return MonomialOrder(None)

    @staticmethod
    def weighted_degrevlex(weights: WeightSystem) -> "MonomialOrder":
        return MonomialOrder(tuple(weights))

    def key(self, exps: Exps):
        if self.weights is None:
            grade = sum(exps)
        else:
            grade = sum(map(mul, exps, self._integer_weights))
        return (grade, tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: monic generators, no leading term divides another."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    variables: tuple[str, ...]

    def leading_terms(self) -> list[Exps]:
        key = self.order.key
        return [max(g.term_map(), key=key) for g in self.generators]


def _divides(a: Exps, b: Exps) -> bool:
    return all(map(le, a, b))


def _lcm(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def _cleared(term_map: dict[Exps, Fraction]) -> tuple[TermDict, int]:
    """Integer numerators of term_map over its common denominator, and that
    denominator."""
    den = lcm(*(c.denominator for c in term_map.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in term_map.items()}, den


def _primitive(poly: TermDict, lead: Exps) -> TermDict:
    """poly divided by its content, signed so the leading coefficient is positive."""
    content = gcd(*poly.values())
    if poly[lead] < 0:
        content = -content
    if content == 1:
        return poly
    return {e: c // content for e, c in poly.items()}


def _normal_form_dict(poly: TermDict, basis: list[tuple[TermDict, Exps]],
                      key) -> tuple[TermDict, int]:
    """Pseudo-remainder (r, f) of poly on division by basis: f * poly - r lies
    in the ideal of basis, f is a positive integer, and no term of r is
    reducible.

    Every coefficient is an integer and every basis generator has a positive
    leading coefficient lc.  A term c*t is cancelled by scaling work and
    remainder by lc/g and subtracting c/g times the shifted generator, where
    g = gcd(c, lc); f is the product of the scales.
    """
    work = dict(poly)
    remainder: TermDict = {}
    factor = 1
    while work:
        term = max(work, key=key)
        coeff = work[term]
        for gen, lead in basis:
            if all(map(le, lead, term)):  # _divides, inlined on the hot path
                lc = gen[lead]
                common = gcd(coeff, lc)
                scale = lc // common
                coeff //= common
                if scale != 1:
                    factor *= scale
                    for e in work:
                        work[e] *= scale
                    for e in remainder:
                        remainder[e] *= scale
                shift = tuple(map(sub, term, lead))
                for exps, c in gen.items():
                    target = tuple(map(add, exps, shift))
                    value = work.get(target, 0) - coeff * c
                    if value:
                        work[target] = value
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[term] = coeff
            del work[term]
    return remainder, factor


def _s_polynomial(f: TermDict, lt_f: Exps, g: TermDict, lt_g: Exps) -> TermDict:
    """(m/lc_f) * (t/lt_f) * f - (m/lc_g) * (t/lt_g) * g, with t = lcm(lt_f, lt_g)
    and m = lcm(lc_f, lc_g)."""
    top = _lcm(lt_f, lt_g)
    common = lcm(f[lt_f], g[lt_g])
    scale_f, scale_g = common // f[lt_f], common // g[lt_g]
    shift_f = tuple(map(sub, top, lt_f))
    shift_g = tuple(map(sub, top, lt_g))
    result = {tuple(map(add, exps, shift_f)): scale_f * c for exps, c in f.items()}
    for exps, c in g.items():
        target = tuple(map(add, exps, shift_g))
        value = result.get(target, 0) - scale_g * c
        if value:
            result[target] = value
        else:
            result.pop(target, None)
    return result


def _autoreduce(basis: list[TermDict], key) -> list[TermDict]:
    # minimal: drop generators whose leading term another leading term divides
    items = [(d, max(d, key=key)) for d in basis]
    items.sort(key=lambda pair: key(pair[1]))
    kept: list[tuple[TermDict, Exps]] = []
    for d, lt in items:
        if not any(_divides(other_lt, lt) for _, other_lt in kept):
            kept.append((d, lt))
    # reduced: the leading terms are now fixed, so a generator reduced once
    # against the others keeps its leading term and stays reduced
    for i, (d, lt) in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        reduced, _ = _normal_form_dict(d, others, key)
        kept[i] = (_primitive(reduced, lt), lt)
    return [d for d, _ in kept]


def _pair_budget(explicit: int | None) -> int:
    raw = explicit if explicit is not None else os.environ.get(PAIR_BUDGET_ENV)
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise InvalidArgument(f"{PAIR_BUDGET_ENV} must be an integer, got {raw!r}") from None
    if budget < 0:
        raise InvalidArgument(f"S-pair budget must not be negative, got {budget}")
    return budget


def buchberger(gens: list[Polynomial], order: MonomialOrder,
               pair_budget: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Pair selection is the normal strategy (smallest lcm in the order); the
    coprime and chain criteria prune useless pairs.  Processing more than
    `pair_budget` S-pairs (default 10^6, overridable through the
    LGMK_PAIR_BUDGET environment variable) raises ResourceLimitExceeded; a
    negative budget raises InvalidArgument.
    """
    if not gens:
        raise ValueError("no generators given")
    variables = gens[0].variables
    if any(g.variables != variables for g in gens):
        raise ValueError("generators must share one ambient variable list")
    budget = _pair_budget(pair_budget)
    # every exponent tuple is keyed once per run; the memo dies with the call
    keys: dict[Exps, tuple] = {}

    def key(exps: Exps) -> tuple:
        found = keys.get(exps)
        if found is None:
            found = keys[exps] = order.key(exps)
        return found

    basis: list[TermDict] = []
    leads: list[Exps] = []
    for g in gens:
        if not g.is_zero():
            d, _ = _cleared(g.term_map())
            lead = max(d, key=key)
            basis.append(_primitive(d, lead))
            leads.append(lead)

    pending: set[tuple[int, int]] = set()
    heap: list = []
    counter = 0

    def push_pair(i: int, j: int) -> None:
        nonlocal counter
        pending.add((i, j))
        heapq.heappush(heap, (key(_lcm(leads[i], leads[j])), counter, i, j))
        counter += 1

    for j in range(len(basis)):
        for i in range(j):
            push_pair(i, j)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))  # each pair is pushed once and popped once
        processed += 1
        if processed > budget:
            raise ResourceLimitExceeded(
                f"S-pair budget of {budget} exceeded; set {PAIR_BUDGET_ENV} to raise it")
        top = _lcm(leads[i], leads[j])
        if top == tuple(map(add, leads[i], leads[j])):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(leads[k], top):
                continue
            if (min(i, k), max(i, k)) not in pending and \
               (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s_poly = _s_polynomial(basis[i], leads[i], basis[j], leads[j])
        remainder, _ = _normal_form_dict(s_poly, list(zip(basis, leads)), key)
        if remainder:
            lead = max(remainder, key=key)
            basis.append(_primitive(remainder, lead))
            leads.append(lead)
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)

    generators = []
    for d in _autoreduce(basis, key) if basis else []:
        lc = d[max(d, key=key)]
        generators.append(Polynomial.from_term_map(
            variables, {e: Fraction(c, lc) for e, c in d.items()}))
    return GroebnerBasis(tuple(generators), order, variables)


def normal_form(poly: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Canonical representative of poly in the quotient ring."""
    if poly.variables != basis.variables:
        raise ValueError("polynomial and basis have different ambient variables")
    # a basis built by hand need not be monic; primitive generators do
    pairs = [(_primitive(_cleared(g.term_map())[0], lt), lt)
             for g, lt in zip(basis.generators, basis.leading_terms())]
    numerators, den = _cleared(poly.term_map())
    remainder, factor = _normal_form_dict(numerators, pairs, basis.order.key)
    den *= factor
    return Polynomial.from_term_map(
        poly.variables, {e: Fraction(c, den) for e, c in remainder.items()})


def _pure_power_of(lt: Exps, i: int) -> bool:
    return lt[i] > 0 and all(e == 0 for j, e in enumerate(lt) if j != i)


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff every variable has a pure-power leading term in the basis."""
    if not basis.variables:
        return True
    leads = basis.leading_terms()
    if any(not any(lt) for lt in leads):
        return True  # unit ideal: the quotient is the zero space
    return all(any(_pure_power_of(lt, i) for lt in leads)
               for i in range(len(basis.variables)))


def standard_monomials(basis: GroebnerBasis) -> list[Monomial]:
    """Monomials divisible by no leading term: a basis of the quotient.

    Sorted ascending in the basis order.  Raises NotFiniteDimensional when
    some variable has no pure-power leading term, that is when the quotient
    is not a finite-dimensional vector space, and ResourceLimitExceeded when
    the box bounded by the pure powers holds more than
    STANDARD_MONOMIAL_BOX_LIMIT exponent tuples.
    """
    leads = basis.leading_terms()
    if any(not any(lt) for lt in leads):
        return []  # unit ideal
    n = len(basis.variables)
    bounds = []
    for i in range(n):
        pures = [lt[i] for lt in leads if _pure_power_of(lt, i)]
        if not pures:
            raise NotFiniteDimensional("ideal is not zero dimensional")
        bounds.append(min(pures))
    box = prod(bounds)
    if box > STANDARD_MONOMIAL_BOX_LIMIT:
        raise ResourceLimitExceeded(
            f"the standard monomials lie in a box of {box} exponent tuples, "
            f"more than the limit of {STANDARD_MONOMIAL_BOX_LIMIT}")
    found: list[Exps] = []

    def walk(prefix: Exps, active: list[Exps]) -> None:
        # active: the leading terms whose first len(prefix) exponents divide
        # prefix.  One that is zero past position i divides every extension
        # whose exponent i reaches its own, so exponent i stops below the least.
        i = len(prefix)
        stop = min(lt[i] for lt in active if not any(lt[i + 1:]))
        if i == n - 1:
            found.extend(prefix + (e,) for e in range(stop))
            return
        for e in range(stop):
            walk(prefix + (e,), [lt for lt in active if lt[i] <= e])

    if n:
        walk((), leads)
    else:
        found.append(())
    found.sort(key=basis.order.key)
    return [Monomial(exps) for exps in found]
