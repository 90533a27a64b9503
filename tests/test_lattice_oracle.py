"""The lattice implementation of the symmetry groups against element lists.

The oracle below keeps the earlier algorithms, which work on complete
element lists: closure by repeated addition, greedy generators tested by
rebuilding the closure, invariant factors by splitting off an element of
maximal order, and quotients by canonical coset representatives.  On random
small groups and on the two- and three-variable corpora, every operation
must give exactly what the oracle gives: elements, generators, invariant
factors, quotient factors, the subgroup list and its order, the
determinant-one subgroup and the transpose group.  Two groups are equal,
with equal hashes, exactly when their generators and elements are.
"""

from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import (
    GroupElement,
    classify,
    exponent_matrix,
    gmax,
    group_from_elements,
    parse_polynomial,
    quotient_invariant_factors,
    sl_subgroup,
    subgroup_generated,
    subgroups_containing,
    transpose_group,
    transpose_polynomial,
)

from conftest import INVERTIBLE_CORPUS_TEXTS

# the oracle's subgroup search adds one element at a time and closes again,
# which is slow beyond a few dozen elements
SEARCH_ORDER_LIMIT = 48


# ---------------------------------------------------------------------------
# Oracle: groups as closed, sorted lists of elements
# ---------------------------------------------------------------------------

def closure(gens, ambient):
    zero = GroupElement.identity(ambient)
    seen = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = a + g
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return tuple(sorted(seen))


def greedy_generators(elements, ambient):
    gens = []
    have = {GroupElement.identity(ambient)}
    for e in sorted(elements, key=lambda g: (-g.order(), g)):
        if e not in have:
            gens.append(e)
            have = set(closure(gens, ambient))
    return tuple(gens)


def element_order(e, add, zero):
    k = 1
    acc = e
    while acc != zero:
        acc = add(acc, e)
        k += 1
    return k


def abelian_invariants(elements, add, zero):
    """Split off the cyclic summand of an element of maximal order, recurse
    on the quotient."""
    if len(elements) == 1:
        return ()
    orders = {e: element_order(e, add, zero) for e in elements}
    x = max(elements, key=lambda e: (orders[e], e))
    cyclic = {zero}
    acc = x
    while acc != zero:
        cyclic.add(acc)
        acc = add(acc, x)

    def canon(e):
        return min(add(e, h) for h in cyclic)

    reps = sorted({canon(e) for e in elements})
    return abelian_invariants(reps, lambda a, b: canon(add(a, b)), canon(zero)) + (orders[x],)


def invariant_factors(elements, ambient):
    return abelian_invariants(list(elements), lambda a, b: a + b,
                              GroupElement.identity(ambient))


def quotient_factors(elements, sub_elements, ambient):
    sub = set(sub_elements)

    def canon(e):
        return min(e + h for h in sub)

    reps = sorted({canon(e) for e in elements})
    return abelian_invariants(reps, lambda a, b: canon(a + b),
                              canon(GroupElement.identity(ambient)))


def subgroups_search(elements, gens_of_base, ambient):
    """(generators, elements) of every subgroup containing the base, in the
    order (order, elements), each with the generators it was found with."""
    base = (tuple(gens_of_base), closure(gens_of_base, ambient))
    seen = {base[1]}
    queue = [base]
    out = [base]
    while queue:
        gens, current = queue.pop()
        members = set(current)
        for x in elements:
            if x in members:
                continue
            extended = gens + (x,)
            closed = closure(extended, ambient)
            if closed not in seen:
                seen.add(closed)
                queue.append((extended, closed))
                out.append((extended, closed))
    out.sort(key=lambda pair: (len(pair[1]), pair[1]))
    return out


def from_elements(elements, ambient):
    elems = tuple(sorted(set(elements))) or (GroupElement.identity(ambient),)
    return greedy_generators(elems, ambient), elems


def sl_part(elements, ambient):
    return from_elements([g for g in elements if sum(g.phases, F(0)).denominator == 1],
                         ambient)


def inverse_columns(rows):
    """Columns of A^{-1}, which generate Gmax = A^{-1} Z^n / Z^n."""
    n = len(rows)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [GroupElement(tuple(aug[i][n + j] for i in range(n))) for j in range(n)]


def maximal_elements(poly):
    return closure(inverse_columns(exponent_matrix(poly).rows), poly.n_variables)


def transpose_part(generators, poly):
    rows = exponent_matrix(poly).rows
    partner = transpose_polynomial(poly)

    def integral(g, h):
        total = sum((g.phases[i] * sum(row[j] * h.phases[j] for j in range(len(row)))
                     for i, row in enumerate(rows)), F(0))
        return total.denominator == 1

    kept = [g for g in maximal_elements(partner)
            if all(integral(g, h) for h in generators)]
    return from_elements(kept, poly.n_variables)


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def pair(group):
    return group.generators, group.elements


def assert_minimal_exponent(group):
    assert group.exponent == lcm(*(e.order() for e in group.elements))


def check_group(group, ambient, poly=None):
    """Everything the lattice group derives from itself matches the oracle;
    the groups it derives have the least exponent."""
    elements = closure(group.generators, ambient)
    assert group.elements == elements
    assert group.order == len(elements)
    assert group.invariant_factors() == invariant_factors(elements, ambient)
    assert pair(group_from_elements(elements, ambient)) == from_elements(elements, ambient)
    assert pair(sl_subgroup(group)) == sl_part(elements, ambient)
    assert all(e in group for e in elements)
    assert_minimal_exponent(group_from_elements(elements, ambient))
    assert_minimal_exponent(sl_subgroup(group))
    if poly is not None:
        assert_minimal_exponent(transpose_group(group, poly))


def check_subgroups(group, seed, ambient):
    found = subgroups_containing(group, seed)
    expected = subgroups_search(group.elements, list(seed), ambient)
    assert [pair(s) for s in found] == expected
    for sub in found:
        assert sub.is_subgroup_of(group)
        assert (quotient_invariant_factors(group, sub) ==
                quotient_factors(group.elements, sub.elements, ambient))
    return found


phase = st.builds(F, st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def small_groups(draw):
    ambient = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[phase] * ambient).map(GroupElement),
                         min_size=0, max_size=3))
    return ambient, gens


@settings(max_examples=50, deadline=None)
@given(small_groups())
def test_random_groups_match_the_oracle(case):
    ambient, gens = case
    group = subgroup_generated(gens, ambient)
    check_group(group, ambient)
    if gens and group.order <= SEARCH_ORDER_LIMIT:
        check_subgroups(group, gens[:1], ambient)


tiny_phase = st.builds(F, st.integers(0, 3), st.sampled_from([1, 2, 4]))


@st.composite
def built_groups(draw):
    """A group in one or two variables from a few small generators, built
    from them or from its element list, so equal groups come up often."""
    ambient = draw(st.integers(1, 2))
    gens = draw(st.lists(st.tuples(*[tiny_phase] * ambient).map(GroupElement),
                         max_size=2))
    if draw(st.booleans()):
        return subgroup_generated(gens, ambient)
    return group_from_elements(closure(gens, ambient), ambient)


@settings(max_examples=200, deadline=None)
@given(built_groups(), built_groups())
def test_equality_is_generators_and_elements(a, b):
    assert (a == b) == (pair(a) == pair(b))
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([t for t in INVERTIBLE_CORPUS_TEXTS if "y" in t]), st.data())
def test_random_subgroups_of_corpus_groups(text, data):
    poly = parse_polynomial(text)
    ambient = poly.n_variables
    elements = maximal_elements(poly)
    gens = data.draw(st.lists(st.sampled_from(elements), max_size=2))
    group = subgroup_generated(gens, ambient)
    check_group(group, ambient, poly)
    assert pair(transpose_group(group, poly)) == transpose_part(gens, poly)


@pytest.mark.parametrize("text", [t for t in INVERTIBLE_CORPUS_TEXTS if "y" in t])
def test_corpus_lattices_match_the_oracle(text):
    poly = parse_polynomial(text)
    ambient = poly.n_variables
    full = gmax(poly)
    assert full.elements == maximal_elements(poly)
    check_group(full, ambient, poly)
    j = GroupElement(tuple(classify(poly).weights))
    for sub in check_subgroups(full, [j], ambient):
        check_group(sub, ambient, poly)
        assert pair(transpose_group(sub, poly)) == transpose_part(sub.generators, poly)


def test_determinant_one_subgroup_drops_the_exponent():
    full = gmax(parse_polynomial("x^4 + y^2"))
    sl = sl_subgroup(full)
    assert full.exponent == 4
    assert (sl.exponent, sl.order) == (2, 2)
    assert sl.generators == (GroupElement((F(1, 2), F(1, 2))),)
