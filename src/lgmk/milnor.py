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
box limit of `standard_monomials`, only by the consumers that print them.

`bmodel` counts the B side without listing it.  Once the staircase has
proved W nondegenerate, the partials form a regular sequence, so the Milnor
ring's Hilbert series is the Milnor-Orlik product
prod (1 - t^(1 - q_i)) / (1 - t^(q_i)).  Over the lcm L of the weight
denominators, with integer weights w_i = L*q_i, that is a polynomial in
u = t^(1/L) of degree top = sum(L - 2 w_i), computed as a dense list of
top + 1 integers: one slice operation per factor of the numerator and one
running sum per residue class of each factor of the denominator.
`BModel.basis` lists the standard monomials only when first read, as the
CLI does to print them, and their count in every degree must equal the
series', so the Groebner route and the closed form check each other
wherever a basis is printed.  Before it counts, `bmodel` applies the box
rule of `standard_monomials` to the staircase, so it refuses every
polynomial whose listing would be refused.  The box does not bound the
series, whose length top + 1 grows with L (for pairwise coprime exponents,
like their product), so `bmodel` also refuses a series of more than
STANDARD_MONOMIAL_BOX_LIMIT coefficients before it allocates one.

`GradedDims` holds both graded sides as integer degree numerators over one
positive scale: `bmodel` counts over L, `amodel` over the group exponent.
Tables compare by cross-multiplying, and render `n/s` reduced by `gcd` as
`str(Fraction)` would; a `Fraction` is built only when `entries` is read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Mapping

from . import groebner
from .errors import LgmkError, ResourceLimitExceeded
from .groebner import (
    MonomialOrder,
    Staircase,
    _box_bounds,
    staircase,
    standard_monomials,
)
from .polycore import (
    Monomial,
    Polynomial,
    WeightSystem,
    _pair_budget,
    classify,
    require_admissible,
)


class GradedDims:
    """Finitely supported map degree -> dimension, held as sorted integer
    degree numerators over one positive scale with their dimensions;
    equality is the graded-vector-space isomorphism test."""

    __slots__ = ("scale", "numerators", "dims", "_entries")

    def __init__(self, entries: Iterable[tuple[Fraction, int]]):
        cleaned = tuple(sorted((Fraction(d), int(k)) for d, k in entries))
        if any(k <= 0 for _, k in cleaned):
            raise ValueError("graded dimensions must be positive")
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree in graded dimensions")
        self.scale = lcm(*(d.denominator for d, _ in cleaned))
        self.numerators = tuple(d.numerator * (self.scale // d.denominator)
                                for d, _ in cleaned)
        self.dims = tuple(k for _, k in cleaned)
        self._entries = cleaned

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
        keys = sorted(counts)
        dims = tuple(map(counts.__getitem__, keys))
        if 0 in dims:
            keys = [n for n in keys if counts[n]]
            dims = tuple(filter(None, dims))
        graded = object.__new__(GradedDims)
        graded.scale = scale
        graded.numerators = tuple(map((-shift).__add__, keys))
        graded.dims = dims
        graded._entries = None
        return graded

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """The (degree, dimension) pairs, sorted by degree."""
        if self._entries is None:
            self._entries = tuple((Fraction(n, self.scale), k)
                                  for n, k in zip(self.numerators, self.dims))
        return self._entries

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def top_degree(self) -> Fraction:
        if not self.dims:
            raise ValueError("empty graded vector space has no top degree")
        return Fraction(self.numerators[-1], self.scale)

    def dim_at(self, degree) -> int:
        d = Fraction(degree)
        for n, k in zip(self.numerators, self.dims):
            if n * d.denominator == d.numerator * self.scale:
                return k
        return 0

    def __eq__(self, other):
        if not isinstance(other, GradedDims):
            return NotImplemented
        # n/s == m/t iff n*t == m*s, as both scales are positive
        s, t = self.scale, other.scale
        return (self.dims == other.dims
                and [n * t for n in self.numerators] == [m * s for m in other.numerators])

    def __hash__(self):
        # the least common scale: s/gcd(s, every numerator)
        g = gcd(self.scale, *self.numerators)
        return hash((self.dims, self.scale // g, tuple(n // g for n in self.numerators)))

    def _degree_texts(self) -> list[str]:
        """Each degree as `str(Fraction)` renders it."""
        scale = self.scale
        texts = []
        for n in self.numerators:
            g = gcd(n, scale)
            texts.append(str(n // g) if g == scale else f"{n // g}/{scale // g}")
        return texts

    def as_json_dict(self) -> dict[str, int]:
        return dict(zip(self._degree_texts(), self.dims))

    def __str__(self) -> str:
        return "{" + ", ".join(
            f"{d}: {k}" for d, k in zip(self._degree_texts(), self.dims)) + "}"

    def __repr__(self) -> str:
        return f"GradedDims(entries={self.entries!r})"


@dataclass(frozen=True)
class BModel:
    """Unorbifolded B-side: the Milnor ring with its rational grading.
    `graded` is counted from the Milnor-Orlik series when the model is
    built; `basis` is listed on first read."""

    source: Polynomial
    weights: WeightSystem
    graded: GradedDims

    @cached_property
    def basis(self) -> tuple[Monomial, ...]:
        """The standard monomials of the Jacobian ideal, sorted in weighted
        degrevlex order.

        Raises LgmkError if the listing has a different number of monomials
        than the series in some degree."""
        monomials = tuple(standard_monomials(jacobian_staircase(self.source, self.weights)))
        # degree 2*sum(e_i q_i) = 2k/L, counted by its numerator 2k over the
        # scale L that `bmodel` counts the series over
        scale, integer_weights = _integer_weights(self.weights)
        listed = Counter(2 * sum(map(mul, m.exponents, integer_weights)) for m in monomials)
        series = dict(zip(self.graded.numerators, self.graded.dims))
        if listed != series:
            n = min(n for n in listed.keys() | series.keys()
                    if listed[n] != series.get(n, 0))
            raise LgmkError(
                f"the Milnor basis of {self.source} lists {listed[n]} monomials "
                f"of degree {Fraction(n, scale)}, but the series counts "
                f"{series.get(n, 0)}")
        return monomials


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


def _integer_weights(weights: WeightSystem) -> tuple[int, list[int]]:
    """The lcm L of the weight denominators and the integer weights L*q_i."""
    scale = lcm(*(q.denominator for q in weights))
    return scale, [q.numerator * (scale // q.denominator) for q in weights]


def _milnor_series(integer_weights: list[int], scale: int) -> list[int]:
    """Coefficients of u^0 .. u^top of prod (1 - u^(L - w_i)) / (1 - u^(w_i))
    for integer weights w_i over L, top = sum(L - 2 w_i): the Hilbert series
    of the Milnor ring of a nondegenerate W, u^k in weighted degree k/L
    (Milnor and Orlik 1970)."""
    top = sum(scale - 2 * w for w in integer_weights)
    series = [1] + [0] * top
    size = top + 1
    for w in integer_weights:
        # times 1 - u^(L - w): subtract the series shifted up by L - w
        a = scale - w
        if a < size:
            series[a:] = map(sub, series[a:], series[:size - a])
        # over 1 - u^w: a running sum along each residue class mod w
        if w < size:
            for r in range(w):
                series[r::w] = accumulate(series[r::w])
    return series


def bmodel(poly: Polynomial) -> BModel:
    """Milnor ring of an admissible polynomial as a graded vector space.

    The staircase that proves W nondegenerate also bounds it: W is refused
    with ResourceLimitExceeded, before anything is counted, when its
    standard monomials lie in a box of more than STANDARD_MONOMIAL_BOX_LIMIT
    exponent tuples, the rule `standard_monomials` applies to the listing,
    or when its series has more than that many coefficients.  The table is
    the Milnor-Orlik series; degree 2k/L counts u^k."""
    weights = require_admissible(poly).weights
    _box_bounds(jacobian_staircase(poly, weights))
    scale, integer_weights = _integer_weights(weights)
    size = 1 + sum(scale - 2 * w for w in integer_weights)
    limit = groebner.STANDARD_MONOMIAL_BOX_LIMIT
    if size > limit:
        raise ResourceLimitExceeded(
            f"the Milnor-Orlik series has {size} coefficients, "
            f"more than the limit of {limit}")
    series = _milnor_series(integer_weights, scale)
    counts = {2 * k: c for k, c in enumerate(series) if c}
    return BModel(poly, weights, GradedDims._from_counts(counts, scale))
