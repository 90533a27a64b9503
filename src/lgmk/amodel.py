"""A-side state spaces: sector decomposition, invariant monomials, degrees.

The state space of (W, G) is the direct sum over group elements g of the
G-invariants of the Milnor ring of W restricted to the variables fixed by g.
The group acts on a sector through the determinant and composition taken
over the fixed-locus variables only; with that reading a sector whose fixed
locus is empty always contributes exactly one basis element.

The invariants of a sector depend only on its fixed locus and on the
generators of G, so they are computed once per distinct locus, by integer
congruences on the group's lattice vectors.  The graded table is counted in
integers: with N the group exponent, an element g = v/N has degree
numerator N*adegree(g) = |fix(g)|*N + 2*sum(v) - 2*N*sum(q), so `amodel`
walks the integer vectors, never lists the phase elements, and builds one
`Fraction` per distinct degree.  The basis elements [m; g] are listed only
when `AModel.basis` is first read, as the CLI does to print them; the
mirror checks read only the graded table.  The Milnor ring of each
restriction is the staircase of milnor's memoized `jacobian_staircase`, so
the full locus reuses the one `classify` computed, and further groups over
the same polynomial reuse every locus already seen.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import (
    DegenerateRestriction,
    GroupNotAdmissible,
    NotAdmissibleError,
)
from .groebner import standard_monomials
from .milnor import GradedDims, jacobian_staircase
from .polycore import Monomial, Polynomial, WeightSystem, classify, require_admissible
from .symmetry import GroupElement, SymmetryGroup, check_symmetry, fixed_locus, is_admissible_group


@dataclass(frozen=True)
class SectorElement:
    """One basis element [m; g]: a monomial over fix(g) inside sector g."""

    monomial: Monomial
    sector: GroupElement
    adegree: Fraction


@dataclass(frozen=True)
class AModel:
    """State space of (source, group): `graded` is counted when the model is
    built, `basis` is listed on first read.  `loci` maps each fixed locus of
    the group to its invariant monomials."""

    source: Polynomial
    group: SymmetryGroup
    graded: GradedDims
    loci: dict[frozenset[int], list[Monomial]] = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple[SectorElement, ...]:
        """The elements [m; g], sorted by degree, sector and monomial."""
        exponent = self.group.exponent
        shift = _degree_shift(classify(self.source).weights, exponent)
        keyed = []
        for g, v in zip(self.group.elements, self.group.vectors):
            fix = frozenset(i for i, a in enumerate(v) if a == 0)
            k = len(fix) * exponent + 2 * sum(v)
            keyed.extend((k, v, m.exponents, m, g) for m in self.loci[fix])
        # degree numerators sort like degrees, vectors like the phases they scale
        keyed.sort(key=lambda entry: entry[:3])
        degrees = {k: Fraction(k - shift, exponent) for k in {entry[0] for entry in keyed}}
        return tuple(SectorElement(m, g, degrees[k]) for k, _, _, m, g in keyed)


def restrict(poly: Polynomial, fix: frozenset[int] | set[int]) -> Polynomial | None:
    """Terms of poly supported only on the fixed variables, re-expressed in
    those variables; None when no terms survive."""
    indices = sorted(fix)
    index_set = set(indices)
    kept = {}
    for coeff, mono in poly.terms:
        if mono.support() <= index_set:
            kept[tuple(mono.exponents[i] for i in indices)] = coeff
    if not kept:
        return None
    names = tuple(poly.variables[i] for i in indices)
    return Polynomial.from_term_map(names, kept)


def adegree(element: GroupElement, weights: WeightSystem) -> Fraction:
    """dim(fix(g)) + 2*sum(g_i - q_i), independent of the monomial."""
    if len(element) != len(weights):
        raise ValueError("group element and weight system lengths differ")
    shift = 2 * sum((g - q for g, q in zip(element.phases, weights)), Fraction(0))
    return Fraction(len(fixed_locus(element))) + shift


def _restricted_milnor_basis(poly: Polynomial, weights: WeightSystem,
                             fix: frozenset[int]) -> list[Monomial]:
    """Standard monomial basis of the Milnor ring of poly restricted to fix."""
    restricted = restrict(poly, fix)
    if restricted is None:
        raise DegenerateRestriction(
            f"restriction to variables {sorted(fix)} is the zero polynomial")
    sub_weights = WeightSystem(tuple(weights[i] for i in sorted(fix)))
    found = jacobian_staircase(restricted, sub_weights)
    if found is None:
        raise DegenerateRestriction(
            f"restriction to variables {sorted(fix)} has a non-finite Milnor ring")
    return standard_monomials(found)


def _invariant_monomials(fix, generators, exponent, poly, weights):
    # invariance of x^a in a sector fixing fix: sum over fixed i of
    # (1 + a_i) h_i integral for every h in G; with h = w/exponent and the
    # sum additive in h, that is a congruence per generator vector w
    if not fix:
        return [Monomial(())]
    indices = sorted(fix)
    return [m for m in _restricted_milnor_basis(poly, weights, fix)
            if all(sum((1 + a) * w[i] for a, i in zip(m.exponents, indices)) % exponent == 0
                   for w in generators)]


def _degree_shift(weights: WeightSystem, exponent: int) -> int:
    """2*N*sum(q_i) for the group exponent N; an integer because J lies in
    the group, so N*q_i is one."""
    return 2 * sum(q.numerator * (exponent // q.denominator) for q in weights)


def amodel(poly: Polynomial, group: SymmetryGroup) -> AModel:
    """State space of (poly, group) with its rational grading.

    Requires poly admissible, the group a symmetry group of poly, and the
    weights vector J an element of the group.  The sector invariants depend
    only on the fixed locus and the generators, so they are computed once per
    distinct locus.  With N the group exponent and v = N*g, an element g adds
    its locus's invariants at the integer degree numerator
    N*adegree(g) = |fix(g)|*N + 2*sum(v) - 2*N*sum(q).
    """
    weights = require_admissible(poly).weights
    check_symmetry(group, poly)
    if not is_admissible_group(group, weights):
        raise GroupNotAdmissible(
            f"J = {weights} is not an element of the group {group}")
    generators = [group.vector(h) for h in group.generators]
    exponent = group.exponent
    loci: dict[frozenset[int], list[Monomial]] = {}
    counts: Counter[int] = Counter()
    # elements with one zero pattern and one phase sum share their degree
    for (moved, total), n in Counter((tuple(map(bool, v)), sum(v))
                                     for v in group.vectors).items():
        fix = frozenset(i for i, a in enumerate(moved) if not a)
        if fix not in loci:
            loci[fix] = _invariant_monomials(fix, generators, exponent, poly, weights)
        counts[len(fix) * exponent + 2 * total] += n * len(loci[fix])
    graded = GradedDims._from_counts(counts, exponent, _degree_shift(weights, exponent))
    return AModel(poly, group, graded, loci)


def group_weights_compare(poly_a: Polynomial, poly_b: Polynomial,
                          group: SymmetryGroup) -> bool:
    """Graded-vector-space comparison of the two state spaces under one group.

    Both polynomials must be admissible with identical weights, and the group
    must be an admissible symmetry group of each.
    """
    verdict_a = classify(poly_a)
    verdict_b = classify(poly_b)
    if not (verdict_a.is_admissible and verdict_b.is_admissible):
        raise NotAdmissibleError("both polynomials must be admissible")
    if verdict_a.weights != verdict_b.weights:
        raise ValueError(
            f"weight systems differ: {verdict_a.weights} vs {verdict_b.weights}")
    return amodel(poly_a, group).graded == amodel(poly_b, group).graded
