"""A-side state spaces: sector decomposition, invariant monomials, degrees.

The state space of (W, G) is the direct sum over group elements g of the
G-invariants of the Milnor ring of W restricted to the variables fixed by g.
The group acts on a sector through the determinant and composition taken
over the fixed-locus variables only; with that reading a sector whose fixed
locus is empty always contributes exactly one basis element.

The invariants of a sector depend only on its fixed locus F, and all of a
sector's basis elements share one degree, so the graded table needs only
the number c_F of invariants per distinct locus.  `atable` counts it from
the group's characters (Vafa 1989; Molien): x^a*omega_F transforms under h
by prod_{i in F} h_i^(1 + a_i), and when W|F is nondegenerate the trace of
h on Jac(W|F)*omega_F is prod_{i in F fixed by h}(1/q_i - 1) times -1 per
i in F moved by h, the value at T = 1 of the equivariant Poincare series
prod_{i in F}(chi_i - T^(1 - q_i))/(1 - chi_i*T^(q_i)).  Averaging over G,
with n_P the number of elements whose moved set is P,

    c_F = (1/|G|) * sum_P n_P * prod_{i in F-P}(1/q_i - 1) * (-1)^|F & P|,

an exact integer division over |G| * prod_{i in F} w_i for the integer
weights w_i = L*q_i.  Every locus is summed at once, in one pass per
coordinate i over integer keys whose bits below i are the locus chosen so
far and whose bits from i on are the pattern still to read: i stays out
(factor 1) or goes in (L - w_i if the pattern fixes i, -w_i if it moves
it), and only prefixes of real loci are kept.  The formula's hypothesis,
W|F nondegenerate, follows from W's own nondegeneracy, which
`require_admissible` checks (the lemma in `amodel`), so counting runs no
Groebner kernel on any locus, and on an invertible W none at all.  The count
reads only the weights and the group: it is `atable(weights, group)`.
The graded table is counted in integers: with N the group exponent, an
element g = v/N has degree numerator N*adegree(g) = |fix(g)|*N + 2*sum(v) -
2*N*sum(q).  That numerator and the set of moved variables both add over
coordinates, so `atable` reads the group's integer coordinate columns
(`symmetry._columns`) one at a time, building one integer key per element
by one table lookup and one addition per coordinate; it never lists the
vectors as tuples or the phase elements, and hands the counts to
`GradedDims._from_counts` over the scale N, which builds no `Fraction`.

A given group is always counted whole; `mirror_sides` tensors the tables
`atable` counts for the atoms of W, each over the atom's own group in its
canonical variable order, never building Gmax(W) (see `mirror`).

The basis elements [m; g] are listed only when `AModel.basis` is first
read, as the CLI does to print them: the full locus reads W's staircase
from `classify`'s record, which builds it on that first read, and each
proper locus runs `jacobian_staircase` on its restriction.  Invariance is
an integer congruence per generator's lattice vector, and given the other
exponents the last exponent's solutions form one arithmetic progression,
so the staircase walk lists only invariant monomials.  Their number must
equal the locus's character count.  The mirror checks read only the graded
table.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, prod
from operator import add

from .errors import GroupNotAdmissible, LgmkError, NotAdmissibleError
from .groebner import Monomial, standard_monomials
from .milnor import GradedDims
from .polycore import Polynomial, WeightSystem, classify, jacobian_staircase, require_admissible
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    _columns,
    check_symmetry,
    fixed_locus,
    is_admissible_group,
)
from .value import _Value


class SectorElement(_Value):
    """One basis element [m; g]: a monomial over fix(g) inside sector g."""

    _fields = ("monomial", "sector", "adegree")
    monomial: Monomial
    sector: GroupElement
    adegree: Fraction


class AModel(_Value):
    """State space of (source, group): `graded` is counted when the model is
    built.  `locus_counts` (each fixed locus with its character count) and
    `basis`, checked against it, are made from `group.vectors` on first read."""

    _fields = ("source", "group", "graded")
    source: Polynomial
    group: SymmetryGroup
    graded: GradedDims

    @cached_property
    def locus_counts(self) -> dict[frozenset[int], int]:
        n = self.group.ambient
        moved_bits = Counter(sum(1 << i for i, a in enumerate(v) if a) for v in self.group.vectors)
        counts = _invariant_counts(moved_bits, self.group.order, classify(self.source).weights)
        return {frozenset(i for i in range(n) if not bits >> i & 1): count
                for bits, count in counts.items()}

    @cached_property
    def basis(self) -> tuple[SectorElement, ...]:
        """The elements [m; g], sorted by degree, sector and monomial.

        Raises LgmkError if a locus lists a different number of invariant
        monomials than its character count."""
        weights = classify(self.source).weights
        exponent = self.group.exponent
        loci = {}
        for fix, count in self.locus_counts.items():
            loci[fix] = _invariant_monomials(fix, self.group.gens, exponent, self.source, weights)
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


def _invariant_monomials(fix, generators, exponent, poly, weights):
    # the standard monomials of W|fix, nondegenerate by the lemma in
    # `amodel`; the full locus is W itself, whose staircase `classify` keeps.
    # Invariance of x^a in a sector fixing fix: sum over fixed i of
    # (1 + a_i) h_i integral for every h in G; with h = w/exponent and the
    # sum additive in h, that is a congruence per generator vector w.  Given
    # the other exponents, the last one's solutions form one progression
    if not fix:
        return [Monomial(())]
    *head, tail = indices = sorted(fix)
    if len(fix) == len(weights):
        found = classify(poly).staircase
    else:
        sub_weights = WeightSystem(tuple(weights[i] for i in indices))
        found = jacobian_staircase(restrict(poly, fix), sub_weights)

    def invariant_lasts(prefix, stop):
        # y = 1 + a solves y * w[tail] = -sum over head of (1 + a_i) * w[i]
        # mod exponent for each w iff y = start mod step, met one w at a time
        start, step = 0, 1
        for w in generators:
            c = w[tail] * step
            g = gcd(c, exponent)
            rest = -sum((1 + a) * w[i] for a, i in zip(prefix, head)) - w[tail] * start
            if rest % g:
                return range(0)
            m = exponent // g
            start += rest // g * pow(c // g, -1, m) % m * step
            step *= m
        return range((start - 1) % step, stop, step)

    return standard_monomials(found, invariant_lasts)


def _invariant_counts(moved_bits, order, weights) -> dict[int, int]:
    """Number of invariant monomials on the fixed locus of each moved
    pattern (a mask whose bit i is set when the element moves x_i), from
    the characters by the pass per coordinate of the module docstring:
    moved_bits maps each pattern to its number of group elements.  Raises
    LgmkError if an average is not a nonnegative integer."""
    # 1/q_i - 1 = (L - w_i)/w_i, so over the denominator order * prod w_i a
    # fixed i contributes L - w_i, a moved one -w_i
    scale, integer_weights = weights.integer_form
    n = len(integer_weights)
    totals = dict(moved_bits)
    for i, w in enumerate(integer_weights):
        bit, low = 1 << i, (2 << i) - 1
        prefixes = {~bits & low for bits in moved_bits}
        step: dict[int, int] = {}
        for key, total in totals.items():
            for locus, factor in ((key & ~bit, 1), (key | bit, -w if key & bit else scale - w)):
                if locus & low in prefixes:
                    step[locus] = step.get(locus, 0) + factor * total
        totals = step
    counts = {}
    for bits in moved_bits:
        fix = [i for i in range(n) if not bits >> i & 1]
        count, remainder = divmod(totals[~bits & (1 << n) - 1],
                                  order * prod(integer_weights[i] for i in fix))
        if remainder or count < 0:
            raise LgmkError(f"weights {weights}: no nondegenerate G-invariant polynomial on "
                            f"locus {fix} has these weights there, since its character "
                            "count is not a nonnegative integer")
        counts[bits] = count
    return counts


def _degree_shift(weights: WeightSystem, exponent: int) -> int:
    """2*N*sum(q_i) for the group exponent N; an integer because J lies in
    the group, so L divides N."""
    scale, integer_weights = weights.integer_form
    return 2 * (exponent // scale) * sum(integer_weights)


def amodel(poly: Polynomial, group: SymmetryGroup) -> AModel:
    """State space of (poly, group) with its rational grading.

    Requires poly admissible, the group a symmetry group of poly, and the
    weights vector J an element of the group.  The sector invariants depend
    only on the fixed locus, so they are counted once per distinct locus,
    from the group's characters.  With N the group exponent and v = N*g, an
    element g adds its locus's count at the integer degree numerator
    N*adegree(g) = |fix(g)|*N + 2*sum(v) - 2*N*sum(q), read off the
    coordinate columns of the group's lattice, one column at a time.

    The count needs W restricted to each fixed locus F nondegenerate, and
    that follows from W's nondegeneracy alone (Krawitz 2010, FJRW rings and
    Landau-Ginzburg mirror symmetry).  Lemma: for g in the group with
    nonempty F = fix(g), crit(W|F) lies in crit(W) = {0}.  W(g x) = W(x)
    gives lambda_j * dW/dx_j(g x) = dW/dx_j(x) for each phase lambda_j of g;
    a point x of C^F has g x = x, so (lambda_j - 1) * dW/dx_j(x) = 0, and
    the partials along the moved variables vanish there.  The partials of
    W|F are those of W along F, so a critical point of W|F is one of W.
    Hence W|F is nonzero (else all of C^F would be critical) and its one
    critical point is 0: its Milnor ring is finite, and no locus needs a
    Groebner run to be counted.
    """
    weights = require_admissible(poly).weights
    check_symmetry(group, poly)
    return AModel(poly, group, atable(weights, group))


def atable(weights: WeightSystem, group: SymmetryGroup) -> GradedDims:
    """The graded table of (W, group) for every nondegenerate W with these
    weights that the group fixes, counted as the module docstring says.
    Raises InvalidArgument for weights that are not a WeightSystem or not
    of the group's ambient length, GroupNotAdmissible unless J lies in the
    group, and LgmkError if a locus's count is not a nonnegative integer,
    as then no such W exists."""
    if not is_admissible_group(group, weights):
        raise GroupNotAdmissible(
            f"J = {weights} is not an element of the group {group}")
    exponent, n = group.exponent, group.ambient
    # an element's key is (N*adegree numerator) << n | its moved bits; both
    # parts add over coordinates: a 0 adds N, a nonzero a adds 2a and bit k
    keys = repeat(0)
    for k, column in enumerate(_columns(exponent, group.basis)):
        table = [exponent << n, *range((2 << n) + (1 << k), exponent * (2 << n), 2 << n)]
        keys = list(map(add, keys, map(table.__getitem__, column)))
    mask = (1 << n) - 1
    moved_bits = Counter(map(mask.__and__, keys))
    by_pattern = _invariant_counts(moved_bits, group.order, weights)
    # elements with one key share their locus and their degree: one step per
    # distinct key, so the work does not grow with the loci's invariant counts
    counts: Counter[int] = Counter()
    for key, count in Counter(keys).items():
        counts[key >> n] += count * by_pattern[key & mask]
    return GradedDims._from_counts(counts, exponent, _degree_shift(weights, exponent))


def group_weights_compare(poly_a: Polynomial, poly_b: Polynomial,
                          group: SymmetryGroup) -> bool:
    """Graded-vector-space comparison of the two state spaces under one group.

    Both polynomials must be admissible with identical weights, and the group
    must be an admissible symmetry group of each.  Then the answer is True:
    the graded table of (W, G) is `atable(weights, G)`, which reads only W's
    weights and the group, so the same weights and the same group give the
    same table.  The checks are those `amodel` makes on each polynomial, in
    its order, and the table is counted once.
    """
    verdict_a = classify(poly_a)
    verdict_b = classify(poly_b)
    if not (verdict_a.is_admissible and verdict_b.is_admissible):
        raise NotAdmissibleError("both polynomials must be admissible")
    if verdict_a.weights != verdict_b.weights:
        raise ValueError(
            f"weight systems differ: {verdict_a.weights} vs {verdict_b.weights}")
    check_symmetry(group, poly_a)
    # J-membership, and a count that must come out a nonnegative integer
    atable(verdict_a.weights, group)
    check_symmetry(group, poly_b)
    return True
