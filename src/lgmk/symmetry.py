"""Finite diagonal symmetry groups of quasihomogeneous polynomials.

Group elements are phase vectors in (Q/Z)^n, stored with every phase reduced
into [0, 1).  A group G of exponent N is kept as the integer lattice
L = {v in Z^n : v/N in G}, which satisfies N*Z^n <= L <= Z^n, through the
Hermite normal form of a basis of L.  Order, membership, containment,
invariant factors and quotients are integer linear algebra on that basis.
Every other computation reads the sorted vectors v, listed on first use for
groups of order up to GROUP_ORDER_LIMIT; phase elements are built only for
generators and for output.

Gmax and the transpose group are both read off one Smith form, of a matrix
R of relations: the group {g : R.g integral}.  R is the exponent matrix A
for Gmax(W); for the dual of G it is A^T, which cuts out Gmax(W^T), stacked
with one row A h per generator h of G, because g A h^T = (A h).g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm, prod

from .errors import (
    GroupNotSymmetry,
    InfiniteGroup,
    ResourceLimitExceeded,
    WeightConditionViolated,
)
from .polycore import Polynomial, WeightSystem, _invertible_matrix, exponent_matrix

GROUP_ORDER_LIMIT = 10**6  # the largest group whose elements are listed


@dataclass(frozen=True, order=True)
class GroupElement:
    """Element of (Q/Z)^n given by its phases, each reduced into [0, 1)."""

    phases: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases",
                           tuple(Fraction(p) % 1 for p in self.phases))

    @staticmethod
    def identity(n: int) -> "GroupElement":
        return GroupElement((Fraction(0),) * n)

    def __len__(self) -> int:
        return len(self.phases)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(tuple(a + b for a, b in zip(self.phases, other.phases)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(tuple(-p for p in self.phases))

    def order(self) -> int:
        return lcm(*(p.denominator for p in self.phases)) if self.phases else 1

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.phases) + ")"


# ---------------------------------------------------------------------------
# Lattices N*Z^n <= L <= Z^n in Hermite normal form
# ---------------------------------------------------------------------------

def _numerators(element: GroupElement, exponent: int) -> tuple[int, ...] | None:
    """The integer vector v with element = v/exponent, or None when some phase
    has a denominator not dividing the exponent."""
    out = []
    for p in element.phases:
        scale, rest = divmod(exponent, p.denominator)
        if rest:
            return None
        out.append(p.numerator * scale)
    return tuple(out)


def _hermite_basis(rows, exponent: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Hermite normal form of the lattice spanned by rows and exponent*Z^n.

    The basis is upper triangular with positive diagonal, and every entry
    above a pivot lies in [0, pivot); so it is unique to the lattice.
    """
    work = [list(r) for r in rows if any(r)]
    work += [[exponent * (i == j) for j in range(n)] for i in range(n)]
    basis = []
    for j in range(n):
        pivot = None
        rest = []
        for row in work:
            if row[j] == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                # unimodular 2x2 step: (pivot, row) -> (gcd row, row with a 0 at j)
                a, b = pivot[j], row[j]
                g, x, y = _extended_gcd(a, b)
                pa, pb = a // g, b // g
                cleared = [pb * p - pa * r for p, r in zip(pivot, row)]
                pivot = [x * p + y * r for p, r in zip(pivot, row)]
                if any(cleared):
                    rest.append(cleared)
        if pivot[j] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
    for j in range(n):
        d = basis[j][j]
        for k in range(j):
            q = basis[k][j] // d
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
    return tuple(tuple(row) for row in basis)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _coordinates(vector, basis) -> list[int] | None:
    """Integer x with x*basis = vector, or None when vector is off the lattice."""
    rest = list(vector)
    coords = []
    for j, row in enumerate(basis):
        c, r = divmod(rest[j], row[j])
        if r:
            return None
        coords.append(c)
        if c:
            for k in range(j, len(rest)):
                rest[k] -= c * row[k]
    return coords


def _nontrivial_factors(relations) -> tuple[int, ...]:
    """Smith form diagonal of a square relation matrix, without its 1s."""
    _, d, _ = smith_normal_form(relations)
    return tuple(d[i][i] for i in range(len(d)) if d[i][i] != 1)


@lru_cache(maxsize=8)
def _phase_table(exponent: int) -> tuple[Fraction, ...]:
    """Fraction(k, exponent) for k = 0 .. exponent - 1, shared by the groups
    of one exponent."""
    return tuple(Fraction(k, exponent) for k in range(exponent))


def _sorted_vectors(exponent: int, basis) -> list[tuple[int, ...]]:
    """Every vector of L mod exponent (coordinates in [0, exponent)) in
    increasing order.

    Level j fixes coordinate j: adding multiples of basis row j runs it
    through r, r + d, r + 2d, ... below the exponent, with d the pivot and
    r its residue mod d, and leaves the coordinates before j alone.  A
    partial vector is its fixed prefix and its coordinates from j on."""
    last = len(basis) - 1
    partial = [((), (0,) * len(basis))]
    for j, row in enumerate(basis[:last]):
        d = row[j]
        tail = row[j + 1:]
        grown = []
        for head, rest in partial:
            start = -(rest[0] // d)
            for c in range(start, start + exponent // d):
                grown.append((head + (rest[0] + c * d,),
                              tuple([(a + c * b) % exponent
                                     for a, b in zip(rest[1:], tail)])))
        partial = grown
    d = basis[last][last]
    return [head + (k,) for head, rest in partial
            for k in range(rest[0] % d, exponent, d)]


def _element(phases: tuple[Fraction, ...]) -> GroupElement:
    # phases already reduced into [0, 1) skip re-normalization
    element = object.__new__(GroupElement)
    object.__setattr__(element, "phases", phases)
    return element


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite subgroup of (Q/Z)^n.

    `exponent` N is the lcm of the element orders and `basis` the Hermite
    basis of the lattice {v in Z^n : v/N in the group}; the group is these
    two.  `elements`, its members in sorted order, and `vectors`, their
    integer vectors v, are listed on first use, up to GROUP_ORDER_LIMIT.
    """

    ambient: int
    generators: tuple[GroupElement, ...]
    exponent: int = field(compare=False)
    basis: tuple[tuple[int, ...], ...] = field(compare=False)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        if self.order > GROUP_ORDER_LIMIT:
            raise ResourceLimitExceeded(
                f"group of order {self.order} is too large to list its elements "
                f"(limit {GROUP_ORDER_LIMIT})")
        return tuple(_sorted_vectors(self.exponent, self.basis))

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        vectors = self.vectors  # the order guard comes before the phase table
        phase = _phase_table(self.exponent).__getitem__
        return tuple(_element(tuple(map(phase, v))) for v in vectors)

    @property
    def order(self) -> int:
        return self.exponent ** self.ambient // prod(row[i] for i, row in enumerate(self.basis))

    def vector(self, element: GroupElement) -> tuple[int, ...] | None:
        """Integer v with element = v/exponent, or None if no such v exists."""
        return _numerators(element, self.exponent)

    def __contains__(self, element: GroupElement) -> bool:
        if len(element) != self.ambient:
            return False
        v = self.vector(element)
        return v is not None and _coordinates(v, self.basis) is not None

    def _scaled_basis(self, exponent: int):
        """This group's basis at a multiple of its exponent."""
        scale = exponent // self.exponent
        return [[scale * a for a in row] for row in self.basis]

    def _scaled_vectors(self, exponent: int) -> list[tuple[int, ...]]:
        """This group's sorted vectors at a multiple of its exponent; they
        compare like the phases they stand for."""
        scale = exponent // self.exponent
        return [tuple(scale * a for a in v) for v in self.vectors]

    def is_subgroup_of(self, other: "SymmetryGroup") -> bool:
        if self.ambient != other.ambient or other.exponent % self.exponent:
            return False
        return all(_coordinates(row, other.basis) is not None
                   for row in self._scaled_basis(other.exponent))

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors d_1 | d_2 | ... with the group = product Z/d_i.

        exponent*Z^n has coordinates exponent*B^-1 in the basis B of the
        lattice, so these are the Smith form of that matrix without its 1s."""
        n = self.ambient
        return _nontrivial_factors(
            [_coordinates([self.exponent * (i == j) for j in range(n)], self.basis)
             for i in range(n)])

    def __str__(self) -> str:
        gens = "; ".join(str(g) for g in self.generators) or "0"
        return f"<{gens}> of order {self.order}"


def subgroup_generated(gens: list[GroupElement], ambient: int) -> SymmetryGroup:
    """Subgroup generated by the elements: the lattice their numerators span."""
    for g in gens:
        if len(g) != ambient:
            raise ValueError("generator length does not match ambient dimension")
    exponent = lcm(*(g.order() for g in gens))
    basis = _hermite_basis([_numerators(g, exponent) for g in gens], exponent, ambient)
    return SymmetryGroup(ambient, tuple(gens), exponent, basis)


def _greedy_group(vectors, exponent: int, ambient: int) -> SymmetryGroup:
    """Group of the ascending vectors v (elements v/exponent), generated greedily:
    by descending element order exponent/gcd(exponent, *v), ties ascending,
    each v kept when the ones before it do not generate it."""
    basis = _hermite_basis((), exponent, ambient)
    gens = []
    for v in sorted(vectors, key=lambda v: gcd(exponent, *v)):
        if _coordinates(v, basis) is None:
            gens.append(GroupElement(tuple(Fraction(a, exponent) for a in v)))
            basis = _hermite_basis(basis + (v,), exponent, ambient)
    return subgroup_generated(gens, ambient)


def group_from_elements(elements, ambient: int) -> SymmetryGroup:
    """Group from a complete element list, with the generators of _greedy_group."""
    elems = sorted(set(elements)) or [GroupElement.identity(ambient)]
    if any(len(e) != ambient for e in elems):
        raise ValueError("element length does not match ambient dimension")
    exponent = lcm(*(e.order() for e in elems))
    group = _greedy_group([_numerators(e, exponent) for e in elems], exponent, ambient)
    if group.order != len(elems):
        raise ValueError("element list is not closed under addition")
    return group


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """U, D, V with U*matrix*V = D, U and V unimodular, and the diagonal of D
    nonnegative with d_i | d_{i+1}.

    Runs entirely over Python integers, so entries may grow without overflow.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t, restarting whenever a smaller remainder appears
            restart = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(n):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # divisibility: the pivot must divide the remaining submatrix
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return u, a, v


def _relation_group(relations) -> SymmetryGroup:
    """The group {g in (Q/Z)^n : R.g integral} of an integer m x n matrix R.

    Computed through the Smith normal form U*R*V = D: writing h = V^{-1} g the
    condition becomes d_i h_i integral, so the group is generated by the
    columns of V scaled by 1/d_i.  Raises InfiniteGroup when rank(R) < n.
    """
    n = len(relations[0])
    _, d, v = smith_normal_form(relations)
    diag = [d[i][i] for i in range(min(len(relations), n))]
    if len(diag) < n or any(x == 0 for x in diag):
        raise InfiniteGroup(f"rank of the exponent matrix is below {n}")
    generators = []
    for i in range(n):
        if diag[i] > 1:
            generators.append(GroupElement(
                tuple(Fraction(v[row][i], diag[i]) for row in range(n))))
    exponent = lcm(*diag)
    columns = [[v[row][i] * (exponent // diag[i]) for row in range(n)] for i in range(n)]
    group = SymmetryGroup(n, tuple(generators), exponent, _hermite_basis(columns, exponent, n))
    if group.order != prod(diag):
        raise AssertionError("Smith normal form produced a defective group")
    return group


def gmax(poly: Polynomial) -> SymmetryGroup:
    """Maximal diagonal symmetry group {g in (Q/Z)^n : A.g integral}."""
    return _relation_group(exponent_matrix(poly).rows)


def gmax_bruteforce(poly: Polynomial, denominator_bound: int) -> SymmetryGroup:
    """Oracle for gmax: try every phase vector with denominators dividing the
    bound.  Complete only when the bound is a multiple of every invariant
    factor; that is the caller's responsibility."""
    matrix = exponent_matrix(poly)
    n = matrix.n
    b = int(denominator_bound)
    found = []
    for ks in product(range(b), repeat=n):
        if all(sum(row[j] * ks[j] for j in range(n)) % b == 0
               for row in matrix.rows):
            found.append(ks)
    return _greedy_group(found, b, n)


def is_admissible_group(group: SymmetryGroup, weights: WeightSystem) -> bool:
    """True iff the phase vector of the weights (J) lies in the group."""
    if len(weights) != group.ambient:
        raise ValueError("weights and group have different ambient dimensions")
    return GroupElement(tuple(weights)) in group


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Subgroup of elements whose phases sum to an integer (determinant one)."""
    kept = [v for v in group.vectors if sum(v) % group.exponent == 0]
    return _greedy_group(kept, group.exponent, group.ambient)


def fixed_locus(element: GroupElement) -> frozenset[int]:
    """Zero-based indices of the variables fixed by the element."""
    return frozenset(i for i, p in enumerate(element.phases) if p == 0)


def transpose_group(group: SymmetryGroup, poly: Polynomial) -> SymmetryGroup:
    """Dual group {g in Gmax(W^T) : g A h^T integral for all h in the group}.

    Defined for invertible polynomials and groups that fix them, with A the
    exponent matrix of poly itself.  Since Gmax(W^T) = {g : A^T.g integral}
    and g A h^T = (A h).g, the dual is {g : R.g integral} for R = A^T stacked
    with one row A h per generator h of the group; A h is integral because
    h fixes poly.
    """
    matrix = _invertible_matrix(poly)
    check_symmetry(group, poly)
    images = [[sum(a * b for a, b in zip(row, group.vector(h))) // group.exponent
               for row in matrix.rows] for h in group.generators]
    dual = _relation_group(matrix.transpose().rows + tuple(images))
    # groups compare by their generators, so pick them greedily from the vectors
    return _greedy_group(dual.vectors, dual.exponent, group.ambient)


def gmax_fermat_plus_monomial(p: int, q: int, r: int, s: int) -> SymmetryGroup:
    """Closed-form maximal symmetry group of x^p + y^q + x^r*y^s.

    Requires r/p + s/q = 1, i.e. the added monomial satisfies the weights of
    x^p + y^q; the group is generated by (1/p, 1/q) and (1/gcd(p, r), 0).
    """
    if min(p, q, r, s) < 1:
        raise ValueError("exponents must be positive")
    if Fraction(r, p) + Fraction(s, q) != 1:
        raise WeightConditionViolated(
            f"monomial x^{r}*y^{s} violates r/p + s/q = 1 for (p, q) = ({p}, {q})")
    gens = [GroupElement((Fraction(1, p), Fraction(1, q))),
            GroupElement((Fraction(1, gcd(p, r)), Fraction(0)))]
    return subgroup_generated(gens, 2)


def check_symmetry(group: SymmetryGroup, poly: Polynomial) -> None:
    """Raise GroupNotSymmetry unless the group fixes the polynomial.

    g fixes every monomial iff A g is integral; that is additive in g, so
    the generators decide it."""
    matrix = exponent_matrix(poly)
    if group.ambient != matrix.n:
        raise GroupNotSymmetry(
            f"group lives in (Q/Z)^{group.ambient}, polynomial has {matrix.n} variables")
    for g in group.generators:
        v = group.vector(g)
        for row in matrix.rows:
            if sum(a * b for a, b in zip(row, v)) % group.exponent:
                raise GroupNotSymmetry(f"element {g} does not fix the polynomial")


def quotient_invariant_factors(group: SymmetryGroup,
                               subgroup: SymmetryGroup) -> tuple[int, ...]:
    """Invariant factors of group/subgroup (subgroup must be contained).

    The subgroup's basis has integer coordinates in the group's basis; the
    quotient is presented by that coordinate matrix."""
    if not subgroup.is_subgroup_of(group):
        raise ValueError("second argument is not a subgroup of the first")
    return _nontrivial_factors(
        [_coordinates(row, group.basis) for row in subgroup._scaled_basis(group.exponent)])


def subgroups_containing(group: SymmetryGroup,
                         seed: list[GroupElement]) -> list[SymmetryGroup]:
    """Every subgroup of the group that contains all the seed elements.

    Subgroups are found by adjoining one element at a time to those already
    found, one element per coset, since the elements of a coset of a found
    subgroup all adjoin the same one; membership is tested on the integer
    vectors at the group's exponent.  A lattice is known by its exponent and
    Hermite basis."""
    base = subgroup_generated(list(seed), group.ambient)
    if not base.is_subgroup_of(group):
        raise ValueError("seed elements do not lie in the group")
    seen = {(base.exponent, base.basis)}
    queue = [base]
    out = [base]
    exponent = group.exponent
    while queue:
        current = queue.pop()
        members = current._scaled_vectors(exponent)
        covered = set(members)
        for v in group.vectors:
            if v in covered:
                continue
            # every element of the coset v + current adjoins the same subgroup
            covered.update(tuple([(a + b) % exponent for a, b in zip(v, c)]) for c in members)
            x = GroupElement(tuple(Fraction(a, exponent) for a in v))
            extended = subgroup_generated(list(current.generators) + [x],
                                          group.ambient)
            key = (extended.exponent, extended.basis)
            if key not in seen:
                seen.add(key)
                queue.append(extended)
                out.append(extended)
    out.sort(key=lambda s: (s.order, s._scaled_vectors(exponent)))
    return out
