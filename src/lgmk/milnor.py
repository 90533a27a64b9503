"""Milnor rings and the unorbifolded B-side as graded vector spaces.

The quotient C[x_1..x_n]/(dW/dx_1, ..., dW/dx_n) is computed exactly with
the Groebner kernel `staircase`; polycore's `jacobian_staircase`, beside
`classify`, is the one place that runs it on a Jacobian ideal.  The kernel's
only product is the minimal leading terms, which decide both whether the
Milnor ring is finite dimensional and which monomials form its basis; no
consumer needs more.  W's staircase under its weights is kept in
`classify`'s memoized record, beside the weights and their integer form
(L, L*q_i).  `classify` runs the kernel on W only when no exponent-matrix
predicate decides the verdict; a sum of Fermat, chain and loop atoms is
certified nondegenerate without it, and its staircase is built when a basis
listing first reads the record.  `bmodel` and `is_nondegenerate` read only
the verdict, and `BModel.basis` the record's staircase.  A plain call runs
the kernel only for the restricted loci of `AModel.basis` and for a
polynomial without weights.  Monomials are enumerated, under the box limit
of `standard_monomials`, only by the listings that print them.

`btable(weights)` counts the B side without listing it, and `bmodel` is
`require_admissible` followed by `btable` at W's weights.  Once W is proved
nondegenerate, the partials form a regular sequence, so the Milnor ring's
Hilbert series is the Milnor-Orlik product
prod (1 - t^(1 - q_i)) / (1 - t^(q_i)).  Over the lcm L of the weight
denominators, with integer weights w_i = L*q_i, that is a polynomial in
u = t^(1/L) of degree top = sum(L - 2 w_i), computed as a dense list of
top + 1 integers by groebner's complete intersection series over the
generator grades L - w_i.  Its coefficients are nonnegative, so the table
is built from the series itself: the nonzero coefficients, kept by
`filter`, are the dimensions, at the degree numerators 2k that `compress`
keeps, over L.  The series lives in groebner because the kernel
reads the same one: its pair loop is Hilbert driven on a Jacobian, and
certifies its staircase by the Milnor number.
A `BModel` lists the standard monomials only when its basis is first
read, as the CLI does to print them, and their count in every degree must
equal the series', so the Groebner route and the closed form check each
other wherever a basis is printed.  The listing packs no monomial on its
own and reads each monomial's grade off its packed key (see
`groebner._standard_listing`), so the check counts those grades and reads
no exponent.  The model keeps that one checked listing: `BModel.basis`
builds its `Monomial`s from it, and the CLI prints its texts without
building any.  Each side has its own limit: the box rule of
`standard_monomials` guards only the listing, and `btable` refuses a series
of more than STANDARD_MONOMIAL_BOX_LIMIT coefficients before it allocates
one.  The two lengths differ both ways: the series' top + 1 grows with L
(for pairwise coprime exponents, like their product), while the box of the
Fermat sum x^60 + y^60 + z^60 + w^60 holds 59^4 tuples against a series of
233 coefficients, so its table is counted and its basis is refused.

`GradedDims` holds both graded sides as integer degree numerators over
their least positive scale: `bmodel` counts over L, `amodel` over the group
exponent, and the table divides that scale and its numerators by their gcd
once.  It is a value like the models that hold it: tables compare and hash
by these fields, and refuse assignment, so a table hashed into a model
stays as it was.  They render `n/s` reduced by `gcd` as `str(Fraction)`
would; a `Fraction` is built only when `entries` is read.  `tensor` is the
graded tensor product, over the lcm of the two scales: `mirror_sides`
builds both sides of W from its atoms' tables with it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import gcd, lcm, prod
from typing import Iterable, Mapping

from . import groebner
from .errors import InvalidArgument, LgmkError, ResourceLimitExceeded
from .groebner import Monomial, _require_int
from .polycore import (Polynomial, WeightSystem, _integer_form, _rational, classify,
                       jacobian_staircase, require_admissible)
from .value import _Value


class GradedDims(_Value):
    """Finitely supported map degree -> dimension, held as sorted integer
    degree numerators over their least positive scale with their dimensions;
    equality is the graded-vector-space isomorphism test, a comparison of
    the fields.  It is built from its (degree, dimension) `entries`, and
    shows them as its repr."""

    _fields = ("scale", "numerators", "dims")
    scale: int
    numerators: tuple[int, ...]
    dims: tuple[int, ...]

    def __init__(self, entries: Iterable[tuple[Fraction, int]]):
        cleaned = tuple(sorted((_rational(d), _require_int("dimension", k))
                               for d, k in entries))
        if any(k <= 0 for _, k in cleaned):
            raise ValueError("graded dimensions must be positive")
        if len({d for d, _ in cleaned}) != len(cleaned):
            raise ValueError("repeated degree in graded dimensions")
        scale, numerators = _integer_form([d for d, _ in cleaned])
        self.__dict__.update(scale=scale, numerators=numerators,
                             dims=tuple(k for _, k in cleaned))

    @staticmethod
    def from_degrees(degrees: Iterable[Fraction]) -> "GradedDims":
        counts = Counter(degrees)
        return GradedDims(tuple(counts.items()))

    @staticmethod
    def _from_counts(counts: Mapping[int, int], scale: int,
                     shift: int = 0) -> "GradedDims":
        """Dimension counts keyed by integer degree numerators n, each of
        degree (n - shift)/scale with scale > 0; zero counts are dropped.
        The table is kept over the least scale."""
        # distinct integer keys over one positive scale give sorted, distinct
        # degrees, so the entries skip re-validation
        keys = sorted(counts)
        dims = tuple(map(counts.__getitem__, keys))
        if 0 in dims:
            keys = [n for n in keys if counts[n]]
            dims = tuple(filter(None, dims))
        return GradedDims._over_least_scale([n - shift for n in keys], dims, scale)

    @staticmethod
    def _over_least_scale(numerators: list[int], dims: tuple[int, ...],
                          scale: int) -> "GradedDims":
        """The table of ascending integer degree numerators over scale > 0,
        with their positive dimensions, kept over the least scale."""
        g = gcd(scale, *numerators)
        graded = object.__new__(GradedDims)
        graded.__dict__.update(scale=scale // g, numerators=tuple(n // g for n in numerators),
                               dims=dims)
        return graded

    def tensor(self, other: "GradedDims") -> "GradedDims":
        """The graded tensor product: each pair of entries adds its degrees
        and multiplies its dimensions, both tables read over the lcm of
        their scales.  It forms len(self.dims) * len(other.dims) products."""
        scale = lcm(self.scale, other.scale)
        left, right = scale // self.scale, scale // other.scale
        numerators = [right * m for m in other.numerators]
        counts: dict[int, int] = {}
        get = counts.get
        for n, k in zip(self.numerators, self.dims):
            shift = left * n
            for m, d in zip(numerators, other.dims):
                counts[shift + m] = get(shift + m, 0) + k * d
        return GradedDims._from_counts(counts, scale)

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """The (degree, dimension) pairs, sorted by degree."""
        return tuple((Fraction(n, self.scale), k)
                     for n, k in zip(self.numerators, self.dims))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def top_degree(self) -> Fraction:
        if not self.dims:
            raise ValueError("empty graded vector space has no top degree")
        return Fraction(self.numerators[-1], self.scale)

    def dim_at(self, degree) -> int:
        d = _rational(degree)
        for n, k in zip(self.numerators, self.dims):
            if n * d.denominator == d.numerator * self.scale:
                return k
        return 0

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
        return _table_text(self.as_json_dict())

    def __repr__(self) -> str:
        return f"GradedDims(entries={self.entries!r})"


def _table_text(table: Mapping[str, int]) -> str:
    """A table of degree texts and dimensions as `{d: k, ...}`."""
    return "{" + ", ".join(f"{d}: {k}" for d, k in table.items()) + "}"


class BModel(_Value):
    """Unorbifolded B-side: the Milnor ring with its rational grading.
    `graded` is counted from the Milnor-Orlik series when the model is
    built; `basis` is listed on first read."""

    _fields = ("source", "weights", "graded")
    source: Polynomial
    weights: WeightSystem
    graded: GradedDims

    @cached_property
    def _listing(self) -> groebner._Listing:
        """The standard monomials of the Jacobian ideal, listed once from
        the record's staircase and checked against the series.

        Raises LgmkError if the listing has a different number of monomials
        than the series in some degree."""
        listing = groebner._standard_listing(classify(self.source).staircase)
        # a monomial of grade k under the integer weights has degree 2k/L,
        # counted by its numerator 2k over L; the table keeps the series
        # over its least scale, a divisor of L
        scale = self.weights.integer_form[0]
        listed = {2 * k: count for k, count in Counter(listing.grades).items()}
        factor = scale // self.graded.scale
        series = dict(zip(map(factor.__mul__, self.graded.numerators), self.graded.dims))
        if listed != series:
            n = min(n for n in listed.keys() | series.keys()
                    if listed.get(n, 0) != series.get(n, 0))
            raise LgmkError(
                f"the Milnor basis of {self.source} lists {listed.get(n, 0)} monomials "
                f"of degree {Fraction(n, scale)}, but the series counts "
                f"{series.get(n, 0)}")
        return listing

    @cached_property
    def basis(self) -> tuple[Monomial, ...]:
        """The standard monomials of the Jacobian ideal, sorted in weighted
        degrevlex order.

        Raises LgmkError if the listing has a different number of monomials
        than the series in some degree."""
        return tuple(self._listing.monomials())


def is_nondegenerate(poly: Polynomial) -> bool:
    """True iff 0 is a critical point of W and the Jacobian ideal is zero
    dimensional (finite Milnor ring).  A W with a term of degree 1 reads
    False, since its gradient at 0 is not zero.  With weights it is read off
    the verdict, True iff W is admissible: there a linear term has weight 1,
    which the verdict already refuses."""
    if poly.is_zero() or poly.n_variables == 0:
        return False
    verdict = classify(poly)
    if verdict.weights is None:
        return (all(sum(monomial.exponents) != 1 for _, monomial in poly.terms)
                and jacobian_staircase(poly, None) is not None)
    return verdict.is_admissible


def _dim_product(weights: WeightSystem) -> Fraction:
    """prod(1/q_i - 1), the Milnor number: prod(L - w_i) / prod(w_i) over
    the integer form (L, w_i = L*q_i)."""
    scale, integer_weights = weights.integer_form
    return Fraction(prod(scale - w for w in integer_weights), prod(integer_weights))


def _top_sum(weights: WeightSystem) -> Fraction:
    """2*sum(1 - 2 q_i) = 2*(n*L - 2*sum(w_i)) / L over the integer form."""
    scale, integer_weights = weights.integer_form
    return Fraction(2 * (len(integer_weights) * scale - 2 * sum(integer_weights)), scale)


def btop_formula(weights: WeightSystem) -> Fraction:
    """2*sum(1 - 2 q_i), the closed-form top degree of the grading."""
    _require_halved(weights)
    return _top_sum(weights)


def _require_halved(weights: WeightSystem) -> None:
    if any(q > Fraction(1, 2) for q in weights):
        raise ValueError(f"weights {weights} must lie in (0, 1/2]")


def _series_size(scale: int, integer_weights: Iterable[int]) -> int:
    """1 + sum(L - 2 w_i), the number of coefficients of the Milnor-Orlik
    series of the weights of integer form (L, w_i).  Raises
    ResourceLimitExceeded when it is above STANDARD_MONOMIAL_BOX_LIMIT."""
    size = 1 + sum(scale - 2 * w for w in integer_weights)
    limit = groebner.STANDARD_MONOMIAL_BOX_LIMIT
    if size > limit:
        raise ResourceLimitExceeded(
            f"the Milnor-Orlik series has {size} coefficients, "
            f"more than the limit of {limit}")
    return size


def btable(weights: WeightSystem) -> GradedDims:
    """The graded Milnor ring of every nondegenerate W with these weights,
    counted from the Milnor-Orlik series alone: degree 2k/L counts u^k.
    Raises InvalidArgument for weights that are not a WeightSystem or whose
    top degree 2*sum(1 - 2 q_i) is negative, and ResourceLimitExceeded,
    before the series is allocated, when it has more than
    STANDARD_MONOMIAL_BOX_LIMIT coefficients.  The count is the Milnor
    ring's only for weights some nondegenerate W has: `bmodel` proves that
    by `require_admissible`, `mirror_sides` by the pointer certificate.
    For other weights the series need be no polynomial, and LgmkError is
    raised where that shows: a negative coefficient, coefficients that are
    not symmetric, as u^top f(1/u) = f(u) makes a polynomial's, or that do
    not sum to the Milnor number prod(1/q_i - 1), its value at u = 1."""
    if not isinstance(weights, WeightSystem):
        raise InvalidArgument(f"weights must be a WeightSystem, got {type(weights).__name__}")
    scale, integer_weights = weights.integer_form
    size = _series_size(scale, integer_weights)
    if size < 1:
        raise InvalidArgument(f"weights {weights} have a negative top degree")
    grades = [scale - w for w in integer_weights]
    series = groebner._complete_intersection_series(grades, integer_weights)
    if (min(series) < 0 or series != series[::-1]
            or sum(series) * prod(integer_weights) != prod(grades)):
        raise LgmkError(f"weights {weights}: no nondegenerate polynomial has these weights, "
                        "since their Milnor-Orlik series is no polynomial with nonnegative "
                        "coefficients")
    # the series' coefficients are nonnegative, so its nonzero ones are the
    # table's dimensions, at the numerators 2k of their exponents k
    numerators = list(compress(range(0, 2 * size, 2), series))
    return GradedDims._over_least_scale(numerators, tuple(filter(None, series)), scale)


def bmodel(poly: Polynomial) -> BModel:
    """Milnor ring of an admissible polynomial as a graded vector space:
    `require_admissible` proves W nondegenerate, and `btable` counts the
    table from W's weights.  The box rule of `standard_monomials` applies
    only when `BModel.basis` is read."""
    weights = require_admissible(poly).weights
    return BModel(poly, weights, btable(weights))
