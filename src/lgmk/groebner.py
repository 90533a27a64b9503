"""Buchberger engine over Q for the quotient-ring computations.

Polynomials enter and leave as `polycore.Polynomial`; internally everything
is a dict mapping exponent tuples to Fractions.  The default order for
quasihomogeneous work is weighted-degree reverse-lexicographic, under which
Jacobian ideals are homogeneous and standard monomial bases are graded.

Monomials are compared by integer keys: a weighted order scales its weights
once by the lcm L of their denominators, so the first component of
`MonomialOrder.key` is the weighted degree times L, an integer.  `buchberger`
computes each exponent tuple's key once per run, in a dict that lives only
as long as the call.

Every generator the engine keeps is monic, and once the basis is minimal one
interreduction pass makes it reduced.  `standard_monomials` checks
zero-dimensionality while it computes its exponent bounds.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .errors import InvalidArgument, NotFiniteDimensional, ResourceLimitExceeded
from .polycore import Exps, Monomial, Polynomial, WeightSystem

DEFAULT_PAIR_BUDGET = 10**6
PAIR_BUDGET_ENV = "LGMK_PAIR_BUDGET"

TermDict = dict[Exps, Fraction]


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
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(poly: TermDict, key) -> TermDict:
    lead = poly[max(poly, key=key)]
    if lead == 1:
        return poly
    return {e: c / lead for e, c in poly.items()}


def _normal_form_dict(poly: TermDict, basis: list[tuple[TermDict, Exps]], key) -> TermDict:
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
            if _divides(lead, term):
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


def _s_polynomial(f: TermDict, lt_f: Exps, g: TermDict, lt_g: Exps) -> TermDict:
    lcm = _lcm(lt_f, lt_g)
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
        kept[i] = (_normal_form_dict(d, others, key), lt)
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
        d = g.term_map()
        if d:
            d = _monic(d, key)
            basis.append(d)
            leads.append(max(d, key=key))

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
        lcm = _lcm(leads[i], leads[j])
        if lcm == tuple(a + b for a, b in zip(leads[i], leads[j])):
            continue  # coprime leading terms reduce to zero
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(leads[k], lcm):
                continue
            if (min(i, k), max(i, k)) not in pending and \
               (min(j, k), max(j, k)) not in pending:
                skip = True
                break
        if skip:
            continue
        s_poly = _s_polynomial(basis[i], leads[i], basis[j], leads[j])
        remainder = _normal_form_dict(s_poly, list(zip(basis, leads)), key)
        if remainder:
            remainder = _monic(remainder, key)
            basis.append(remainder)
            leads.append(max(remainder, key=key))
            new = len(basis) - 1
            for k in range(new):
                push_pair(k, new)

    reduced = _autoreduce(basis, key) if basis else []
    generators = tuple(Polynomial.from_term_map(variables, d) for d in reduced)
    return GroebnerBasis(generators, order, variables)


def normal_form(poly: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Canonical representative of poly in the quotient ring."""
    if poly.variables != basis.variables:
        raise ValueError("polynomial and basis have different ambient variables")
    key = basis.order.key
    # a basis built by hand need not be monic
    pairs = [(_monic(g.term_map(), key), lt)
             for g, lt in zip(basis.generators, basis.leading_terms())]
    remainder = _normal_form_dict(poly.term_map(), pairs, key)
    return Polynomial.from_term_map(poly.variables, remainder)


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
    is not a finite-dimensional vector space.
    """
    leads = basis.leading_terms()
    if any(not any(lt) for lt in leads):
        return []  # unit ideal
    bounds = []
    for i in range(len(basis.variables)):
        pures = [lt[i] for lt in leads if _pure_power_of(lt, i)]
        if not pures:
            raise NotFiniteDimensional("ideal is not zero dimensional")
        bounds.append(min(pures))
    key = basis.order.key
    found = [exps for exps in product(*(range(b) for b in bounds))
             if not any(_divides(lt, exps) for lt in leads)]
    found.sort(key=key)
    return [Monomial(exps) for exps in found]
