"""A-side state spaces: sector decomposition, invariant monomials, degrees.

The state space of (W, G) is the direct sum over group elements g of the
G-invariants of the Milnor ring of W restricted to the variables fixed by g.
The group acts on a sector through the determinant and composition taken
over the fixed-locus variables only; with that reading a sector whose fixed
locus is empty always contributes exactly one basis element.

The invariants of a sector depend only on its fixed locus and on the
generators of G, so they are computed once per distinct locus, by integer
congruences on the group's lattice vectors; each element then only reads its
degree off the sum of its phases.  The Milnor ring of each restriction is
the staircase of milnor's memoized `jacobian_staircase`, so the full locus
reuses the one `classify` computed, and further groups over the same
polynomial reuse every locus already seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    source: Polynomial
    group: SymmetryGroup
    basis: tuple[SectorElement, ...]
    graded: GradedDims


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


def amodel(poly: Polynomial, group: SymmetryGroup) -> AModel:
    """State space of (poly, group) with its rational grading.

    Requires poly admissible, the group a symmetry group of poly, and the
    weights vector J an element of the group.  The sector invariants depend
    only on the fixed locus and the generators, so they are computed once per
    distinct locus; only the degree is read per element.
    """
    weights = require_admissible(poly).weights
    check_symmetry(group, poly)
    if not is_admissible_group(group, weights):
        raise GroupNotAdmissible(
            f"J = {weights} is not an element of the group {group}")
    generators = [group.vector(h) for h in group.generators]
    exponent = group.exponent
    # adegree(g) = |fix(g)| + 2*sum(g) - 2*sum(q), with sum(g) = sum(v)/exponent
    shift = 2 * sum(weights, Fraction(0))
    loci: dict[frozenset[int], list[Monomial]] = {}
    keyed = []
    for g, v in zip(group.elements, group.vectors):
        fix = frozenset(i for i, a in enumerate(v) if a == 0)
        if fix not in loci:
            loci[fix] = _invariant_monomials(fix, generators, exponent, poly, weights)
        monomials = loci[fix]
        if monomials:
            degree = Fraction(len(fix) * exponent + 2 * sum(v), exponent) - shift
            keyed.extend((degree, v, m.exponents, SectorElement(m, g, degree))
                         for m in monomials)
    # vectors sort like the phase tuples they scale
    keyed.sort(key=lambda entry: entry[:3])
    basis = tuple(entry[3] for entry in keyed)
    graded = GradedDims.from_degrees(s.adegree for s in basis)
    return AModel(poly, group, basis, graded)


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
