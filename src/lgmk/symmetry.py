"""Finite diagonal symmetry groups of quasihomogeneous polynomials.

Group elements are phase vectors in (Q/Z)^n, stored with every phase reduced
into [0, 1).  A group G of exponent N is kept as the integer lattice
L = {v in Z^n : v/N in G}, which satisfies N*Z^n <= L <= Z^n, through the
Hermite normal form of a basis of L: polycore's integer echelon, reduced
above its pivots.  With N least, N and that form are the group's identity.
Order, membership, containment, invariant factors, quotients, the
subgroups containing given elements (the lattices between theirs and L, as
Hermite forms) and the determinant-one subgroup (a kernel on the basis, so
nothing is listed) are integer linear algebra on that basis; a group built
from vectors is generated by its Hermite rows nonzero mod N, by descending
element order, ties ascending.  Every other computation reads the generator
vectors or enumerates the vectors v of L mod N, for groups of order up to
GROUP_ORDER_LIMIT, through one walk of the Hermite coefficients, `_columns`,
which yields coordinate k of every vector as an integer column: `amodel`
counts from the columns one at a time, and `vectors`, the sorted tuples, is
listed from them on first use.  Phase elements are built only for output.

Gmax and the transpose group are both read off one Smith form, of a matrix
R of relations: the group {g : R.g integral}, generated by the columns of
the Smith transform.  R is the exponent matrix A for Gmax(W); for the dual
of G it is A^T, which cuts out Gmax(W^T), stacked with one row A h per
generator h of G, because g A h^T = (A h).g.  So transpose_group(<0>, W) ==
gmax(W^T), and transposing twice gives G back, as groups.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain, cycle, product, repeat
from math import gcd, lcm, prod
from operator import add, mod, mul

from .errors import (
    GroupNotSymmetry,
    InfiniteGroup,
    InvalidArgument,
    ResourceLimitExceeded,
    WeightConditionViolated,
)
from .groebner import _require_int
from .polycore import (Polynomial, WeightSystem, _echelon, _invertible_matrix, _rational,
                       exponent_matrix)
from .value import _Value

GROUP_ORDER_LIMIT = 10**6  # the largest group listed or split into subgroups


@total_ordering
class GroupElement(_Value):
    """Element of (Q/Z)^n given by its phases, each reduced into [0, 1);
    elements sort by their phases."""

    _fields = ("phases",)
    phases: tuple[Fraction, ...]

    def __init__(self, phases: tuple[Fraction, ...]):
        self.__dict__["phases"] = tuple(_rational(p) % 1 for p in phases)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.phases < other.phases
        return NotImplemented

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

    Their echelon has a pivot in every column; with every entry above a
    pivot reduced into [0, pivot), it is unique to the lattice.
    """
    basis = _echelon(list(rows) + [[exponent * (i == j) for j in range(n)] for i in range(n)], n)
    for j in range(n):
        d = basis[j][j]
        for k in range(j):
            q = basis[k][j] // d
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
    return tuple(tuple(row) for row in basis)


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
    d, _ = smith_normal_form(relations)
    return tuple(d[i][i] for i in range(len(d)) if d[i][i] != 1)


def _columns(exponent: int, basis):
    """Coordinate k of every vector of L mod exponent, one list per k in
    turn.

    With d_j the pivot of basis row b_j, the vectors are sum_j c_j*b_j mod
    exponent for the grid of Hermite coefficients 0 <= c_j < exponent/d_j,
    c_0 slowest: each vector once, since the triangular basis recovers c_0,
    c_1, ... in turn.  Coordinate k depends on c_0 .. c_k only, so it is
    summed on that sub-grid, reduced, and each entry repeated once per
    point of the faster coefficients."""
    sizes = [exponent // row[j] for j, row in enumerate(basis)]
    order = prod(sizes)
    if order > GROUP_ORDER_LIMIT:
        raise ResourceLimitExceeded(
            f"group of order {order} is too large to list its elements "
            f"(limit {GROUP_ORDER_LIMIT})")
    for k in range(len(basis)):
        column = [0]
        for j in range(k + 1):
            if sizes[j] > 1:
                step = basis[j][k]
                # each partial sum s becomes s, s + step, s + 2*step, ...
                column = list(map(add, _repeat_each(column, sizes[j]),
                                  cycle([c * step for c in range(sizes[j])])))
        column = list(map(mod, column, repeat(exponent)))
        later = order // len(column)
        yield column if later == 1 else list(_repeat_each(column, later))


def _repeat_each(values, times: int):
    return chain.from_iterable(map(repeat, values, repeat(times)))


def _sorted_vectors(exponent: int, basis) -> list[tuple[int, ...]]:
    """Every vector of L mod exponent (coordinates in [0, exponent)) in
    increasing order."""
    return sorted(zip(*_columns(exponent, basis)))


def _element(phases: tuple[Fraction, ...]) -> GroupElement:
    # phases already reduced into [0, 1) skip re-normalization
    element = object.__new__(GroupElement)
    element.__dict__["phases"] = phases
    return element


class SymmetryGroup(_Value):
    """Finite subgroup of (Q/Z)^n.

    `exponent` N is the lcm of the element orders, and `basis` the Hermite
    basis of the lattice {v in Z^n : v/N in the group}; equality and hash
    read only these, which are unique to the group.  `gens`, generators v/N
    as vectors v in [0, N)^n, is one presentation.  The phase views
    `generators` and `elements` (sorted), and `vectors`, the elements' v
    sorted, are built on first use, the last two up to GROUP_ORDER_LIMIT;
    counting (`amodel`) reads the coordinate columns of `_columns` instead.
    """

    _fields = ("ambient", "exponent", "gens", "basis")
    _compared = ("ambient", "exponent", "basis")
    ambient: int
    exponent: int
    gens: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]

    @cached_property
    def generators(self) -> tuple[GroupElement, ...]:
        # no phase table: the exponent of a group never listed may be huge
        return tuple(_element(tuple(Fraction(a, self.exponent) for a in v)) for v in self.gens)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_sorted_vectors(self.exponent, self.basis))

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        vectors = self.vectors  # the order guard comes before the phase table
        phase = [Fraction(k, self.exponent) for k in range(self.exponent)].__getitem__
        return tuple(_element(tuple(map(phase, v))) for v in vectors)

    @property
    def order(self) -> int:
        return self.exponent ** self.ambient // prod(row[i] for i, row in enumerate(self.basis))

    def __contains__(self, element: GroupElement) -> bool:
        if len(element) != self.ambient:
            return False
        v = _numerators(element, self.exponent)
        return v is not None and _coordinates(v, self.basis) is not None

    def _scaled_basis(self, exponent: int):
        """This group's basis at a multiple of its exponent."""
        scale = exponent // self.exponent
        return [[scale * a for a in row] for row in self.basis]

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
    return _lattice_group([_numerators(g, exponent) for g in gens], exponent, ambient)


def _lattice_group(vectors, exponent: int, ambient: int, basis=None) -> SymmetryGroup:
    """Group generated by the vectors v (elements v/exponent) at its least
    exponent N/gcd(N, basis entries); `basis` is their Hermite basis, if known."""
    basis = basis or _hermite_basis(vectors, exponent, ambient)
    common = gcd(exponent, *(a for row in basis for a in row))
    least = exponent // common
    return SymmetryGroup(ambient, least,
                         tuple(tuple(a // common % least for a in v) for v in vectors),
                         tuple(tuple(a // common for a in row) for row in basis))


def _hermite_group(vectors, exponent: int, ambient: int) -> SymmetryGroup:
    """Group of the vectors v (elements v/exponent), generated by its Hermite
    rows nonzero mod exponent, by descending element order, ties ascending."""
    basis = _hermite_basis(vectors, exponent, ambient)
    gens = sorted((row for row in basis if any(a % exponent for a in row)),
                  key=lambda row: (gcd(exponent, *row), row))
    return _lattice_group(gens, exponent, ambient, basis)


def group_from_elements(elements, ambient: int) -> SymmetryGroup:
    """Group from a complete element list, with its Hermite generators."""
    elems = set(elements) or {GroupElement.identity(ambient)}
    if any(len(e) != ambient for e in elems):
        raise ValueError("element length does not match ambient dimension")
    exponent = lcm(*(e.order() for e in elems))
    group = _hermite_group([_numerators(e, exponent) for e in elems], exponent, ambient)
    if group.order != len(elems):
        raise ValueError("element list is not closed under addition")
    return group


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------

def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """D, V with U*matrix*V = D for some unimodular U, which is not built;
    V is unimodular, and the diagonal of D nonnegative with d_i | d_{i+1}.

    V starts as the n x n identity stacked under the matrix's m rows, so a
    column step or swap is one pass over all m + n rows, and a row step
    touches the top m rows only; the bottom n rows are returned as V.  Runs
    entirely over Python integers, so entries may grow without overflow.
    """
    a = [[_require_int("matrix entry", x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise InvalidArgument("matrix rows must all have one length")
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(min(m, n)):
        least = 0  # the pivot: the first nonzero entry of least size
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (not least or x < least):
                    least, pi, pj = x, i, j
        if not least:
            break
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column and row t, restarting on each smaller pivot swapped in
            for i in range(m):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        break
            else:
                for j in range(n):
                    if j != t and a[t][j]:
                        q = a[t][j] // a[t][t]
                        for row in a:
                            row[j] -= q * row[t]
                        if a[t][j]:
                            for row in a:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    # the pivot must divide the rest: add in the first row it fails to divide
                    for i in range(t + 1, m):
                        for x in a[i][t + 1:]:
                            if x % a[t][t]:
                                break
                        else:
                            continue
                        a[t] = [x + y for x, y in zip(a[t], a[i])]
                        break
                    else:
                        break
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    return a[:m], a[m:]


def _relation_group(relations) -> SymmetryGroup:
    """The group {g in (Q/Z)^n : R.g integral} of an integer m x n matrix R.

    Computed through the Smith normal form U*R*V = D: writing h = V^{-1} g the
    condition becomes d_i h_i integral, so the group is generated by the
    columns of V scaled by 1/d_i.  Raises InfiniteGroup when rank(R) < n.
    """
    n = len(relations[0])
    d, v = smith_normal_form(relations)
    diag = [d[i][i] for i in range(min(len(relations), n))]
    if len(diag) < n or any(x == 0 for x in diag):
        raise InfiniteGroup(f"rank of the exponent matrix is below {n}")
    exponent = lcm(*diag)
    columns = [[v[row][i] * (exponent // diag[i]) for row in range(n)]
               for i in range(n) if diag[i] > 1]
    return _lattice_group(columns, exponent, n)


def gmax(poly: Polynomial) -> SymmetryGroup:
    """Maximal diagonal symmetry group {g in (Q/Z)^n : A.g integral}."""
    return _relation_group(exponent_matrix(poly))


def gmax_bruteforce(poly: Polynomial, denominator_bound: int) -> SymmetryGroup:
    """Oracle for gmax: try every phase vector with denominators dividing the
    bound.  Complete only when the bound is a multiple of every invariant
    factor; that is the caller's responsibility.  It must be at least 1."""
    b = _require_int("denominator bound", denominator_bound)
    if b < 1:
        raise InvalidArgument(f"denominator bound must be at least 1, got {b}")
    rows, n = exponent_matrix(poly), poly.n_variables
    found = [ks for ks in product(range(b), repeat=n)
             if all(sum(map(mul, row, ks)) % b == 0 for row in rows)]
    return _hermite_group(found, b, n)


def is_admissible_group(group: SymmetryGroup, weights: WeightSystem) -> bool:
    """True iff the phase vector of the weights (J), of order L, lies in the
    group: L divides the exponent N and J = (N/L)*(L*q)/N.  Raises
    InvalidArgument for weights that are not a WeightSystem, or of another
    length than the group's ambient dimension."""
    if not isinstance(weights, WeightSystem):
        raise InvalidArgument(f"weights must be a WeightSystem, got {type(weights).__name__}")
    if len(weights) != group.ambient:
        raise InvalidArgument(f"{len(weights)} weights for a group in (Q/Z)^{group.ambient}")
    scale, integer_weights = weights.integer_form
    share, rest = divmod(group.exponent, scale)
    return not rest and _coordinates([share * w for w in integer_weights], group.basis) is not None


def sl_subgroup(group: SymmetryGroup) -> SymmetryGroup:
    """Subgroup of elements whose phases sum to an integer (determinant one):
    the kernel of v -> sum(v) mod N on L.  Past the first, the echelon rows
    of (sum(b) | b), b a basis row, have 0 in column 0; their tails span
    {v in L : sum(v) = 0}, the kernel with N*Z^n, as N*e_1 lies on L."""
    n, exponent = group.ambient, group.exponent
    kernel = _echelon([[sum(row), *row] for row in group.basis], n + 1)
    return _hermite_group([row[1:] for row in kernel[1:]], exponent, n)


def fixed_locus(element: GroupElement) -> frozenset[int]:
    """Zero-based indices of the variables fixed by the element."""
    return frozenset(i for i, p in enumerate(element.phases) if p == 0)


def transpose_group(group: SymmetryGroup, poly: Polynomial) -> SymmetryGroup:
    """Dual group {g in Gmax(W^T) : g A h^T integral for all h in the group}.

    Defined for invertible polynomials and groups that fix them, with A the
    exponent matrix of poly itself.  Since Gmax(W^T) = {g : A^T.g integral}
    and g A h^T = (A h).g, the dual is {g : R.g integral} for R = A^T stacked
    with one row A h per generator h of the group; A h is integral because
    h fixes poly.  The dual is that relation group, generated, as `gmax`
    is, by the columns of its Smith form.
    """
    rows = _invertible_matrix(poly)
    check_symmetry(group, poly)
    images = [[sum(map(mul, row, h)) // group.exponent for row in rows] for h in group.gens]
    return _relation_group(list(zip(*rows)) + images)


def gmax_fermat_plus_monomial(p: int, q: int, r: int, s: int) -> SymmetryGroup:
    """Closed-form maximal symmetry group of x^p + y^q + x^r*y^s.

    Requires r/p + s/q = 1, i.e. the added monomial satisfies the weights of
    x^p + y^q; the group is generated by (1/p, 1/q) and, unless it already
    lies in the span of that one, (1/gcd(p, r), 0).
    """
    if min(p, q, r, s) < 1:
        raise ValueError("exponents must be positive")
    if r * q + s * p != p * q:
        raise WeightConditionViolated(
            f"monomial x^{r}*y^{s} violates r/p + s/q = 1 for (p, q) = ({p}, {q})")
    n = lcm(p, q)
    first, second = (n // p, n // q), (n // gcd(p, r), 0)
    basis = _hermite_basis([first], n, 2)
    if _coordinates(second, basis) is None:
        return _lattice_group([first, second], n, 2)
    return _lattice_group([first], n, 2, basis)


def check_symmetry(group: SymmetryGroup, poly: Polynomial) -> None:
    """Raise GroupNotSymmetry unless the group fixes the polynomial.

    g fixes every monomial iff A g is integral; that is additive in g, so
    the generators decide it."""
    rows = exponent_matrix(poly)
    if group.ambient != poly.n_variables:
        raise GroupNotSymmetry(f"group lives in (Q/Z)^{group.ambient}, "
                               f"polynomial has {poly.n_variables} variables")
    for i, v in enumerate(group.gens):
        for row in rows:
            if sum(a * b for a, b in zip(row, v)) % group.exponent:
                raise GroupNotSymmetry(
                    f"element {group.generators[i]} does not fix the polynomial")


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
    """Every subgroup of the group that contains all the seed elements,
    ascending by order, then by Hermite basis at the group's exponent N.

    In coordinates x -> x*B on the group's basis B, the seed group's
    lattice is a lattice C >= N*Z^n, and the subgroups are the lattices M
    with C <= M <= Z^n.  Their Hermite forms are built from the last row up: row
    j is (0.., h, t), h dividing C's pivot c_jj and t reduced modulo the
    rows below, kept iff (c_jj/h)*row - C_j lies on the rows below, that is
    iff C_j lies on M.  So each form is made once, and no partial form is a
    dead end: h = c_jj with C_j's tail reduced always passes.  A subgroup's
    generators are its Hermite basis rows nonzero mod its exponent, by
    descending element order, ties ascending, as `_hermite_group` gives."""
    base = subgroup_generated(list(seed), group.ambient)
    if not base.is_subgroup_of(group):
        raise ValueError("seed elements do not lie in the group")
    if group.order > GROUP_ORDER_LIMIT:
        raise ResourceLimitExceeded(
            f"group of order {group.order} is too large to enumerate its subgroups "
            f"(limit {GROUP_ORDER_LIMIT})")
    n, exponent = group.ambient, group.exponent
    cover = _hermite_basis([_coordinates(row, group.basis)
                            for row in base._scaled_basis(exponent)], exponent, n)
    forms = [()]  # rows j.. of each partial form, on columns j..
    for j in reversed(range(n)):
        pivot, tail = cover[j][j], cover[j][j + 1:]
        divisors = [h for h in range(1, pivot + 1) if pivot % h == 0]
        forms = [((h,) + t,) + tuple((0,) + row for row in below)
                 for below in forms for h in divisors
                 for t in product(*(range(row[i]) for i, row in enumerate(below)))
                 if _coordinates([pivot // h * a - c for a, c in zip(t, tail)],
                                 below) is not None]
    found = [_hermite_group([[sum(map(mul, x, column)) for column in zip(*group.basis)]
                             for x in form], exponent, n) for form in forms]
    return sorted(found, key=lambda sub: (sub.order, sub._scaled_basis(exponent)))
