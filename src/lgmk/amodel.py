"""A-side state spaces: sector decomposition, invariant monomials, degrees.

The state space of (W, G) is the direct sum over group elements g of the
G-invariants of the Milnor ring of W restricted to the variables fixed by g.
The group acts on a sector through the determinant and composition taken
over the fixed-locus variables only; with that reading a sector whose fixed
locus is empty always contributes exactly one basis element.

The invariants of a sector depend only on its fixed locus F, and all of a
sector's basis elements share one degree, so the graded table needs only
the number c_F of invariants per distinct locus.  `amodel` counts it from
the group's characters (Vafa 1989; Molien): x^a*omega_F transforms under h
by prod_{i in F} h_i^(1 + a_i), and when W|F is nondegenerate the trace of
h on Jac(W|F)*omega_F is prod_{i in F fixed by h}(1/q_i - 1) times -1 per
i in F moved by h, the value at T = 1 of the equivariant Poincare series
prod_{i in F}(chi_i - T^(1 - q_i))/(1 - chi_i*T^(q_i)).  Averaging over G,
with n_P the number of elements whose moved set is P,

    c_F = (1/|G|) * sum_P n_P * prod_{i in F-P}(1/q_i - 1) * (-1)^|F & P|,

an integer division over the common denominator |G| * prod_{i in F} num(q_i)
that must be exact.  Each nonempty locus runs milnor's memoized
`jacobian_staircase`, whose verdict (a finite Milnor ring) is the formula's
hypothesis; the full locus reuses the one `classify` computed.
The graded table is counted in integers: with N the group exponent, an
element g = v/N has degree numerator N*adegree(g) = |fix(g)|*N + 2*sum(v) -
2*N*sum(q), so `amodel` walks the integer vectors, never lists the phase
elements, and builds one `Fraction` per distinct degree.

The basis elements [m; g] are listed only when `AModel.basis` is first
read, as the CLI does to print them: each locus's standard monomials are
filtered by integer congruences on the generators' lattice vectors, and
their number must equal the locus's character count.  The mirror checks
read only the graded table, so they never list a Milnor basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod

from .errors import (
    DegenerateRestriction,
    GroupNotAdmissible,
    LgmkError,
    NotAdmissibleError,
)
from .groebner import Staircase, standard_monomials
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
    built, `basis` is listed on first read.  `locus_counts` maps each fixed
    locus of the group to its number of invariant monomials."""

    source: Polynomial
    group: SymmetryGroup
    graded: GradedDims
    locus_counts: dict[frozenset[int], int] = field(compare=False, repr=False)

    @cached_property
    def basis(self) -> tuple[SectorElement, ...]:
        """The elements [m; g], sorted by degree, sector and monomial.

        Raises LgmkError if a locus lists a different number of invariant
        monomials than its character count."""
        weights = classify(self.source).weights
        exponent = self.group.exponent
        generators = [self.group.vector(h) for h in self.group.generators]
        loci = {}
        for fix, count in self.locus_counts.items():
            loci[fix] = _invariant_monomials(fix, generators, exponent, self.source, weights)
            if len(loci[fix]) != count:
                raise LgmkError(
                    f"locus {sorted(fix)} lists {len(loci[fix])} invariant monomials, "
                    f"but its character count is {count}")
        shift = _degree_shift(weights, exponent)
        keyed = []
        for g, v in zip(self.group.elements, self.group.vectors):
            fix = frozenset(i for i, a in enumerate(v) if a == 0)
            k = len(fix) * exponent + 2 * sum(v)
            keyed.extend((k, v, m.exponents, m, g) for m in loci[fix])
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


def _restricted_staircase(poly: Polynomial, weights: WeightSystem,
                          fix: frozenset[int]) -> Staircase:
    """Staircase of the Milnor ring of poly restricted to the nonempty fix:
    the verdict that the restriction is nondegenerate, or
    DegenerateRestriction."""
    restricted = restrict(poly, fix)
    if restricted is None:
        raise DegenerateRestriction(
            f"restriction to variables {sorted(fix)} is the zero polynomial")
    sub_weights = WeightSystem(tuple(weights[i] for i in sorted(fix)))
    found = jacobian_staircase(restricted, sub_weights)
    if found is None:
        raise DegenerateRestriction(
            f"restriction to variables {sorted(fix)} has a non-finite Milnor ring")
    return found


def _restricted_milnor_basis(poly: Polynomial, weights: WeightSystem,
                             fix: frozenset[int]) -> list[Monomial]:
    """Standard monomial basis of the Milnor ring of poly restricted to fix."""
    return standard_monomials(_restricted_staircase(poly, weights, fix))


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


def _invariant_count(fix, moved_counts, order, weights) -> int:
    """Number of invariant monomials on the locus fix, from the characters:
    moved_counts maps each moved pattern (a tuple of bools) to its number of
    group elements.  Exact only when the restriction to fix is
    nondegenerate; raises LgmkError if the average is not a nonnegative
    integer."""
    # over the denominator order * prod num(q_i): a fixed i contributes
    # den(q_i) - num(q_i), a moved one -num(q_i)
    total = 0
    for moved, n in moved_counts.items():
        term = n
        for i in fix:
            q = weights[i]
            term *= -q.numerator if moved[i] else q.denominator - q.numerator
        total += term
    count, remainder = divmod(total, order * prod(weights[i].numerator for i in fix))
    if remainder or count < 0:
        raise LgmkError(
            f"character count on locus {sorted(fix)} is not a nonnegative integer")
    return count


def _degree_shift(weights: WeightSystem, exponent: int) -> int:
    """2*N*sum(q_i) for the group exponent N; an integer because J lies in
    the group, so N*q_i is one."""
    return 2 * sum(q.numerator * (exponent // q.denominator) for q in weights)


def amodel(poly: Polynomial, group: SymmetryGroup) -> AModel:
    """State space of (poly, group) with its rational grading.

    Requires poly admissible, the group a symmetry group of poly, and the
    weights vector J an element of the group.  The sector invariants depend
    only on the fixed locus, so they are counted once per distinct locus,
    from the group's characters, after the locus's staircase proves its
    restriction nondegenerate.  With N the group exponent and v = N*g, an
    element g adds its locus's count at the integer degree numerator
    N*adegree(g) = |fix(g)|*N + 2*sum(v) - 2*N*sum(q).
    """
    weights = require_admissible(poly).weights
    check_symmetry(group, poly)
    if not is_admissible_group(group, weights):
        raise GroupNotAdmissible(
            f"J = {weights} is not an element of the group {group}")
    exponent = group.exponent
    # elements with one zero pattern and one phase sum share their degree
    patterns = Counter((tuple(map(bool, v)), sum(v)) for v in group.vectors)
    moved_counts: Counter[tuple[bool, ...]] = Counter()
    for (moved, _), n in patterns.items():
        moved_counts[moved] += n
    locus_counts: dict[frozenset[int], int] = {}
    counts: Counter[int] = Counter()
    for (moved, total), n in patterns.items():
        fix = frozenset(i for i, a in enumerate(moved) if not a)
        if fix not in locus_counts:
            if fix:
                _restricted_staircase(poly, weights, fix)
            locus_counts[fix] = _invariant_count(fix, moved_counts, group.order, weights)
        counts[len(fix) * exponent + 2 * total] += n * locus_counts[fix]
    graded = GradedDims._from_counts(counts, exponent, _degree_shift(weights, exponent))
    return AModel(poly, group, graded, locus_counts)


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
