"""Milnor rings and the unorbifolded B-side as graded vector spaces.

The quotient C[x_1..x_n]/(dW/dx_1, ..., dW/dx_n) is computed exactly with
the Groebner kernel `staircase`; `jacobian_staircase` is the one place that
runs it on a Jacobian ideal.  The kernel's only product is the minimal
leading terms, which decide both whether the Milnor ring is finite
dimensional and which monomials form its basis; no consumer needs more.
The staircase is memoized per (polynomial, weights, S-pair budget), so
`classify`, `bmodel`, the A-model's fixed loci and the mirror checks share
one kernel run per polynomial and locus without passing it around.  The
weights come from `classify`, whose verdict polycore memoizes too, so
`bmodel` and `is_nondegenerate` solve no weights of their own.
`classify` reads only the verdict; the monomials are enumerated, under the
box limit of `standard_monomials`, only by the consumers that print or
count them.  Both graded sides count degrees as integer numerators over
one denominator, and `GradedDims._from_counts` builds one `Fraction` per
distinct degree: `bmodel` counts its standard monomials over the lcm L of
the weight denominators, `amodel` its sectors over the group exponent.
The closed-form dimension and top-degree expressions are checked against
the kernel at construction time, so a disagreement between the two routes
fails loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Mapping

from .errors import LgmkError
from .groebner import MonomialOrder, Staircase, staircase, standard_monomials
from .polycore import (
    Monomial,
    Polynomial,
    WeightSystem,
    _pair_budget,
    classify,
    require_admissible,
)


@dataclass(frozen=True)
class GradedDims:
    """Finitely supported map degree -> dimension; equality is the
    graded-vector-space isomorphism test."""

    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        cleaned = tuple(sorted((Fraction(d), int(k)) for d, k in self.entries))
        if any(k <= 0 for _, k in cleaned):
            raise ValueError("graded dimensions must be positive")
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree in graded dimensions")
        object.__setattr__(self, "entries", cleaned)

    @staticmethod
    def from_degrees(degrees: Iterable[Fraction]) -> "GradedDims":
        counts = Counter(degrees)
        return GradedDims(tuple(counts.items()))

    @staticmethod
    def _from_counts(counts: Mapping[int, int], scale: int,
                     shift: int = 0) -> "GradedDims":
        """Dimension counts keyed by integer degree numerators n, each of
        degree (n - shift)/scale with scale > 0; zero counts are dropped."""
        # distinct integer keys over one positive scale give sorted, distinct
        # degrees, so the entries skip re-validation
        graded = object.__new__(GradedDims)
        object.__setattr__(graded, "entries", tuple(
            (Fraction(n - shift, scale), k) for n, k in sorted(counts.items()) if k))
        return graded

    @property
    def total_dim(self) -> int:
        return sum(k for _, k in self.entries)

    def top_degree(self) -> Fraction:
        if not self.entries:
            raise ValueError("empty graded vector space has no top degree")
        return self.entries[-1][0]

    def dim_at(self, degree) -> int:
        d = Fraction(degree)
        for deg, k in self.entries:
            if deg == d:
                return k
        return 0

    def as_json_dict(self) -> dict[str, int]:
        return {str(d): k for d, k in self.entries}

    def __str__(self) -> str:
        return "{" + ", ".join(f"{d}: {k}" for d, k in self.entries) + "}"


@dataclass(frozen=True)
class BModel:
    """Unorbifolded B-side: the Milnor ring with its rational grading."""

    source: Polynomial
    weights: WeightSystem
    basis: tuple[Monomial, ...]
    graded: GradedDims


def jacobian_ideal(poly: Polynomial) -> list[Polynomial]:
    """The n formal partial derivatives of poly, with exact coefficients."""
    partials = []
    for i in range(poly.n_variables):
        term_map = {}
        for coeff, mono in poly.terms:
            e = mono.exponents[i]
            if e:
                shifted = list(mono.exponents)
                shifted[i] = e - 1
                key = tuple(shifted)
                term_map[key] = term_map.get(key, Fraction(0)) + coeff * e
        partials.append(Polynomial.from_term_map(poly.variables, term_map))
    return partials


def jacobian_staircase(poly: Polynomial,
                       weights: WeightSystem | None) -> Staircase | None:
    """Staircase of the Jacobian ideal under weighted degrevlex (plain
    degrevlex when weights is None); None when the Milnor ring is not finite
    dimensional.  `standard_monomials` of the result is the Milnor ring's
    monomial basis, sorted in the order.

    Results are memoized; the S-pair budget is part of the key, so a cached
    staircase never hides a budget that is invalid or too small."""
    return _memoized_staircase(poly, weights, _pair_budget(None))


# one polynomial needs at most 2^n restricted loci plus its transpose
@lru_cache(maxsize=64)
def _memoized_staircase(poly: Polynomial, weights: WeightSystem | None,
                        pair_budget: int) -> Staircase | None:
    gens = [p for p in jacobian_ideal(poly) if not p.is_zero()]
    if not gens:
        return None
    order = (MonomialOrder.degrevlex() if weights is None
             else MonomialOrder.weighted_degrevlex(weights))
    found = staircase(gens, order, pair_budget)
    return found if found.finite else None


def is_nondegenerate(poly: Polynomial) -> bool:
    """True iff the Jacobian ideal is zero dimensional (finite Milnor ring)."""
    if poly.is_zero() or poly.n_variables == 0:
        return False
    return jacobian_staircase(poly, classify(poly).weights) is not None


def _dim_product(weights: WeightSystem) -> Fraction:
    result = Fraction(1)
    for q in weights:
        result *= 1 / q - 1
    return result


def _top_sum(weights: WeightSystem) -> Fraction:
    return 2 * sum((1 - 2 * q for q in weights), Fraction(0))


def btop_formula(weights: WeightSystem) -> Fraction:
    """2*sum(1 - 2 q_i), the closed-form top degree of the grading."""
    _require_halved(weights)
    return _top_sum(weights)


def _require_halved(weights: WeightSystem) -> None:
    if any(q > Fraction(1, 2) for q in weights):
        raise ValueError(f"weights {weights} must lie in (0, 1/2]")


def bmodel(poly: Polynomial) -> BModel:
    """Milnor ring of an admissible polynomial as a graded vector space."""
    weights = require_admissible(poly).weights
    monomials = tuple(standard_monomials(jacobian_staircase(poly, weights)))
    # degree 2*sum(e_i q_i) = 2k/L, counted by its numerator 2k, k = sum(e_i L q_i)
    scale = lcm(*(q.denominator for q in weights))
    integer_weights = [q.numerator * (scale // q.denominator) for q in weights]
    counts = Counter(2 * sum(map(mul, m.exponents, integer_weights)) for m in monomials)
    graded = GradedDims._from_counts(counts, scale)
    if graded.total_dim != _dim_product(weights):
        raise LgmkError(
            f"Milnor dimension {graded.total_dim} disagrees with the "
            f"closed form {_dim_product(weights)} for {poly}")
    if graded.top_degree() != _top_sum(weights):
        raise LgmkError(
            f"top degree {graded.top_degree()} disagrees with the "
            f"closed form {_top_sum(weights)} for {poly}")
    return BModel(poly, weights, monomials, graded)
