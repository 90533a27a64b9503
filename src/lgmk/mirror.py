"""Graded mirror checks and weight-system searches.

`transpose_polynomial` lives in polycore, since it needs only `classify` and
the exponent matrix; it is re-exported here beside `mirror_check`.
`mirror_sides` computes the text of W^T and both graded sides once;
`mirror_check` and the CLI's `mirror-check` both read them from it.  A W in
pointer form, a sum of Fermat, chain and loop atoms, is counted one atom at
a time, its atoms read off up to relabelling by `polycore._pointer_form`
(Kreuzer-Skarke 1992).  W's exponent matrix is block diagonal over its
atoms, so W^T's atoms are the transposes of W's, again Fermat, chain and
loop atoms.  Gmax(W) is the product of the atoms' groups, so by the tensor
law A(W1 + W2, G1 x G2) = A(W1, G1) (x) A(W2, G2) for W1 and W2 in disjoint
variables (Fan-Jarvis-Ruan 2013, Ann. Math. 178; Krawitz 2010), and by
Thom-Sebastiani for W^T's Milnor ring, each side's table is the
`GradedDims.tensor` of the atoms' tables.  An atom's A table is `atable` at
its weights over the group its rows cut out, and its B table is `btable` at
the weights solved from its transposed rows (Milnor-Orlik 1970): per atom,
characters over a group against a series, two independent routes; the
B-side tensor is formed only when some atom's two tables differ.  An atom's
pair is memoized in a bounded `lru_cache` under its pointer-form entry, and
no `Polynomial` or `classify` record is made for W^T: its text is rendered
from W's columns.  Any other invertible W holds a row x_i*x_j^b with pointer
exponent 1, which the kernel certified, and is counted whole: `atable` over
Gmax(W), and `bmodel` of W^T, which refuses W^T naming its weights.
GROUP_ORDER_LIMIT bounds each group counted and the products of entries
each tensor product forms in all, so a sum of atoms whose degree sums never
coincide is refused before its table grows; W^T's whole series is bounded
as `btable` bounds one.

The search asks: given a target dimension d and target top degree delta, is
there a weight system (q_1..q_m), each q_i in (0, 1/2] and rational, with

    prod(1/q_i - 1) = d      and      2*sum(1 - 2 q_i) = delta?

One and two variables admit exact answers (the two-variable case reduces to
a quadratic whose discriminant must be a rational square).  Every m reads
the same integer target: the weight sum as sn/sd and d as dn/dd.  From three
variables on, a target is first tested against a certificate: f(q) =
log(1/q - 1) is convex on (0, 1/2], so by Jensen m weights with sum
S = (2m - delta)/4 have prod(1/q_i - 1) >= (m/S - 1)^m, and a target d below
that bound has no weight system at all.  The search then skips enumeration,
though its status stays NoneWithinBound.  The one uncertified d = 1 target,
sum m/2, is answered exactly too: each factor 1/q - 1 is at least 1, so
every q_i is 1/2.  Above SEARCH_VARS_LIMIT variables a target is answered
only where the every-m certificate decides (delta^k/k! summed to k = K is
below e^delta, which every product exceeds), and otherwise refused, so
neither the walk's recursion nor Jensen's power grows without bound.
Otherwise the tail (q_3..q_m) is enumerated over a bounded-denominator
rational grid and each tail is finished exactly, so empty results certify
nonexistence only within the stated bound.

The search runs in integer numerators and denominators.  From four
variables on, the tail (q_3..q_m) runs over a grid that is a stretch of the
Farey sequence, walked in ascending order by its next-term recurrence, with
no set and no sort, and held as a tuple.  Tails are walked one ascending
entry at a time, over each level's span of the grid, found by two
bisections; each entry divides the product target left and subtracts
from the sum left, as unreduced integer fractions, so a tail costs O(1)
work.  A prefix is dropped when the same certificate excludes the variables
left.  The pair of a last tail entry a/b is exact: it exists only if a
homogeneous quartic F(a, b), the pair's integer discriminant, is a perfect
square (N/M with M > 0 is a rational square iff N*M is one), and
`_pair_roots` is the only code that accepts a pair, with one `math.isqrt`.
Before that test, every last entry is sieved by the quadratic residues of F
modulo a few odd primes, so most entries never reach it (a square-residue
sieve, as in Cohen, A Course in Computational Algebraic Number Theory,
1.7.2).  Three variables have a one-entry tail q3 = a/b, walked by
numerator columns, and each column is sieved as a bit mask over its
denominators, ANDed with each prime's pattern for a mod p, tiled once per
walk and capped in length, so a long column is sieved in pieces.  From four
variables on, the last level's entries are a bit mask over grid indices,
ANDed with one mask per prime: the grid entries whose class in
P^1(F_p) has F a square mod p, memoized by the classes of the level's sum
and product, so at most (p + 2)^2 masks per prime and walk.  A `Fraction`
is built only for a solution, and a search makes at most TAIL_LIMIT visits:
one per tail entry, sieved or not, from four variables on, and for three
one per denominator row b = 2..bound and one per point a/b walked, as a
walk by rows would count them.
`discriminant_sign_boundary` isolates the real roots of the three-variable
quartic with Sturm sequences and finds the largest grid point where it is
nonnegative by Stern-Brocot descents, in O(log bound) sign tests.  The sieves
and the boundary read one coefficient list, `_pair_quartic`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator

from . import symmetry
from .amodel import atable
from .errors import InvalidArgument, ResourceLimitExceeded
from .groebner import _render_monomials, _require_int, _walk
from .milnor import GradedDims, _require_halved, _series_size, bmodel, btable
from .polycore import (Polynomial, WeightSystem, _invertible_matrix, _pointer_form,
                       _rational, classify, solve_weights, transpose_polynomial)
from .value import _Value

HALF = Fraction(1, 2)

STATUS_FOUND = "SolutionsFound"
STATUS_NONE_EXACT = "NoneExact"
STATUS_NONE_WITHIN_BOUND = "NoneWithinBound"

GRID_LIMIT = 10**5  # the most grid points held for tails of m >= 4 variables
# The most visits one search makes: a tail entry, whole or partial, for
# m >= 4; a denominator row and each numerator in it for m = 3.  Sized so
# that a walk ends within seconds.
TAIL_LIMIT = 10**6
# The most variables a search walks or tests by Jensen's power, which grows
# with m; above it a target is answered only by the every-m certificate,
# summed to the term delta^K/K! of its exponential series.
SEARCH_VARS_LIMIT = 500
# The most subsets of weight-one monomials `enumerate_admissible_supports`
# tries, each classified in turn: 8,178 (a pool of 13 in two variables) took
# about 5 s on a 2-core host.
SUPPORT_SUBSET_LIMIT = 10**4
_EVERY_M_TERMS = 40
# The most primes that sieve the last tail entry of a walk in m >= 4
# variables.  Each halves the entries left for the pair solver, and costs
# two classes and an AND per last-level call and up to p + 1 masks per
# walk: on the planted m = 4 searches at bound 22..26 of three seeds of the
# weight-search workload, 4 primes ran faster than 3, 5 or 6.
_TAIL_SIEVE_PRIMES = 4
# The most denominators of a three-variable column sieved at once: each
# prime's tiled column patterns span this many bits plus one period.
_TILE_BITS = 4096

# The odd primes below 128 with their quadratic residues: the pool from
# which `_sieve_primes` takes the primes that sieve a walk.
_SIEVE_SQUARES = {p: frozenset([u * u % p for u in range(p // 2 + 1)])
                  for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                            61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)}


# ---------------------------------------------------------------------------
# The graded mirror check
# ---------------------------------------------------------------------------

def mirror_sides(poly: Polynomial) -> tuple[str, GradedDims, GradedDims]:
    """The text of the transpose W^T, the graded state space of (W, Gmax)
    and the graded Milnor ring of W^T, for an admissible invertible W: a
    tensor product over W's atoms when W is in pointer form, else counted
    whole.  Raises ResourceLimitExceeded past GROUP_ORDER_LIMIT (a group's
    order, or the products a tensor product forms in all) or when W^T's
    Milnor-Orlik series would be longer than `btable` allows."""
    rows = _invertible_matrix(poly)
    form = _pointer_form(rows)
    if form is None:
        # a row x_i*x_j^b has pointer exponent 1, and the kernel certified W;
        # bmodel refuses W^T, naming its weights, unless it certifies W^T
        a_side = atable(classify(poly).weights, symmetry._relation_group(rows))
        b_side = bmodel(transpose_polynomial(poly)).graded
    else:
        sides = [_atom_sides(atom) for atom in form]
        a_side = _tensor([a for a, _, _ in sides])
        # W^T's weights are its atoms': its whole series is bounded, over
        # the lcm of their scales, so no atom's table is None past here
        forms = [weights.integer_form for _, weights, _ in sides]
        scale = math.lcm(*(s for s, _ in forms))
        _series_size(scale, [w * (scale // s) for s, ws in forms for w in ws])
        # equal factors have an equal tensor product
        b_side = (a_side if all(a == b for a, _, b in sides)
                  else _tensor([b for _, _, b in sides]))
    # W^T has coefficients 1 and its terms are W's columns, in canonical order
    partner = " + ".join(_render_monomials(poly.variables, sorted(zip(*rows), reverse=True)))
    return partner, a_side, b_side


def _tensor(tables: list[GradedDims]) -> GradedDims:
    """The tensor product of the atoms' tables.  Raises
    ResourceLimitExceeded when it would form more than GROUP_ORDER_LIMIT
    products of entries in all."""
    table, products, limit = tables[0], 0, symmetry.GROUP_ORDER_LIMIT
    for factor in tables[1:]:
        products += len(table.dims) * len(factor.dims)
        if products > limit:
            raise ResourceLimitExceeded(
                f"the tensor product of the tables of {len(tables)} atoms forms "
                f"more than {limit} products")
        table = table.tensor(factor)
    return table


# seeds 1-3 of the mirror-corpus benchmark meet 268 to 279 distinct atoms
# each, and in 256 slots miss each atom only where it is first met
@lru_cache(maxsize=256)
def _atom_sides(atom: tuple[bool, tuple[int, ...]]
                ) -> tuple[GradedDims, WeightSystem, GradedDims | None]:
    """For an atom V, an entry (is_loop, exponents) of `_pointer_form`: the
    graded state space of (V, Gmax(V)), the weights of V^T and the graded
    Milnor ring of V^T, None when its series is over the limit, as W^T's
    is then.  V's row i is x_i^a_i times the variable after x_i.  The
    tables read only weights (and a group): `atable` at V's weights over
    the group its rows cut out, `btable` at the weights of the transposed
    rows.  The transpose of a Fermat atom is a Fermat atom, of a chain the
    chain read from its other end, of a loop the reversed loop, so V^T
    carries the pointer certificate and its weights always solve."""
    loop, exponents = atom
    k = len(exponents)
    rows = [[0] * k for _ in exponents]
    for i, a in enumerate(exponents):
        rows[i][i] = a
        if loop or i + 1 < k:
            rows[i][(i + 1) % k] = 1
    a_table = atable(solve_weights(rows), symmetry._relation_group(rows))
    weights = solve_weights(tuple(zip(*rows)))
    try:
        return a_table, weights, btable(weights)
    except ResourceLimitExceeded:
        return a_table, weights, None


def mirror_check(poly: Polynomial) -> bool:
    """True iff the state space of (W, Gmax) matches the Milnor ring of W^T
    as graded vector spaces, exactly."""
    _, a_side, b_side = mirror_sides(poly)
    return a_side == b_side


# ---------------------------------------------------------------------------
# Exact pair solving
# ---------------------------------------------------------------------------

def _pair_roots(dn: int, dd: int, sn: int, sd: int) -> list[tuple[int, int, int]]:
    """Every rational pair q1 <= q2, both in (0, 1/2], with
    (1/q1 - 1)(1/q2 - 1) = dn/dd >= 1 and q1 + q2 = sn/sd (dd, sd > 0, the
    fractions not necessarily reduced), as (num1, num2, den) with
    q1 = num1/den and q2 = num2/den."""
    e = dn - dd
    if e == 0:
        # both factors are >= 1 on (0, 1/2], so each must equal 1
        return [(1, 1, 2)] if sn == sd else []
    # q1, q2 are the roots of t^2 - s t + (1 - s)/(d - 1); over the common
    # denominator sd^2 e the discriminant is n / (sd^2 e), a rational square
    # iff n * e is a perfect square, with square root isqrt(n * e) / (sd e)
    n = sn * sn * e - 4 * (sd - sn) * dd * sd
    if n < 0:
        return []
    root = math.isqrt(n * e)
    if root * root != n * e:
        return []
    low, high, den = sn * e - root, sn * e + root, 2 * sd * e
    if low > 0 and 2 * high <= den:
        return [(low, high, den)]
    return []


def discriminant_2var(n: int) -> int:
    """-4(2n^3 - 11n^2 + 18n - 9), the discriminant controlling the
    two-variable candidates for the x^n + y^n + x^(n-1)y family."""
    if _require_int("n", n) < 1:
        raise ValueError("n must be positive")
    return -4 * (2 * n**3 - 11 * n**2 + 18 * n - 9)


def nfamily_quadratic(n: int) -> tuple[int, int, int]:
    """Coefficients (a, b, c) of a q2^2 + b q2 + c = 0 for the family with
    dimension 2n-2 and top degree 2(2n-4)/n; kept as an independent route
    beside the generic pair solver."""
    if _require_int("n", n) < 1:
        raise ValueError("n must be positive")
    return (n * (2 * n - 3), 2 * (3 - 2 * n), n - 2)


def nfamily_quadratic_roots(n: int) -> list[tuple[Fraction, Fraction]]:
    """Candidate pairs (q1, q2) from the family quadratic, before the
    (0, 1/2] filter; q1 = 2/n - q2."""
    a, b, c = nfamily_quadratic(n)
    disc = b * b - 4 * a * c
    root = math.isqrt(max(disc, 0))
    if root * root != disc:
        return []
    return sorted({tuple(sorted((Fraction(2, n) - q2, q2)))
                   for q2 in (Fraction(-b - root, 2 * a), Fraction(-b + root, 2 * a))})


def nfamily_pair_solutions(n: int) -> list[tuple[Fraction, Fraction]]:
    """Family-quadratic pairs surviving the (0, 1/2] filter."""
    return [(q1, q2) for q1, q2 in nfamily_quadratic_roots(n)
            if 0 < q1 <= HALF and 0 < q2 <= HALF]


# ---------------------------------------------------------------------------
# The bounded search
# ---------------------------------------------------------------------------

class SearchReport(_Value):
    """Outcome of a mirror-candidate weight-system search."""

    _fields = ("target_dim", "target_top", "vars", "denominator_bound", "solutions", "status")
    target_dim: Fraction
    target_top: Fraction
    vars: int
    denominator_bound: int
    solutions: tuple[WeightSystem, ...]
    status: str

    def to_json_dict(self) -> dict:
        return {
            "target_dim": [self.target_dim.numerator, self.target_dim.denominator],
            "target_top": [self.target_top.numerator, self.target_top.denominator],
            "vars": self.vars,
            "bound": self.denominator_bound,
            "status": self.status,
            "solutions": [[[q.numerator, q.denominator] for q in ws]
                          for ws in self.solutions],
        }


def _farey_grid(lo: Fraction, hi: Fraction, max_denominator: int):
    """The positive rationals in [lo, hi] with denominator at most
    `max_denominator`, ascending, as coprime (num, den) pairs.

    This is a stretch of the Farey sequence of that order: from consecutive
    terms a/b < c/d the next is (k c - a)/(k d - b) with
    k = (max_denominator + b) // d.  The walk starts from a/b, the largest
    term in [0, lo) (0/1 when lo <= 0): its integer part f is read off lo,
    since the terms in [f, f + 1) are f plus those in [0, 1), and the rest
    is one Stern-Brocot descent.  The least term c/d >= lo is its successor,
    the one with c b - a d = 1 and d <= max_denominator largest."""
    bound = max_denominator
    f = max(-(-lo.numerator // lo.denominator) - 1, 0)
    r = lo - f
    n, b = _grid_floor(lambda n, k: n * r.denominator < r.numerator * k, bound)
    a = f * b + n
    d = -pow(a, -1, b) % b
    d += (bound - d) // b * b
    c = (a * d + 1) // b
    while c * hi.denominator <= hi.numerator * d:
        yield c, d
        k = (bound + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _certified(k: int, sn: int, sd: int, dn: int, dd: int) -> bool:
    """True when no k weights in (0, 1/2] have sum sn/sd and
    prod(1/q_i - 1) = dn/dd (sd, dd > 0).

    The sum must lie in (0, k/2], and since log(1/q - 1) is convex on
    (0, 1/2], Jensen gives prod(1/q_i - 1) >= (k/S - 1)^k for sum S; cleared
    of denominators, (k/S - 1)^k > d reads (k sd - sn)^k dd > dn sn^k."""
    return sn <= 0 or 2 * sn > k * sd or (k * sd - sn) ** k * dd > dn * sn ** k


def _every_m_certified(dn: int, dd: int, en: int, ed: int) -> bool:
    """True when no weight system in any number of variables has
    prod(1/q_i - 1) = dn/dd and 2*sum(1 - 2 q_i) = delta = en/ed (dd, ed > 0).

    With t_i = 1 - 2 q_i in [0, 1), log(1/q_i - 1) = 2 artanh(t_i) >= 2 t_i,
    so delta = 2 sum t_i is never negative, and the product exceeds e^delta
    unless every t_i is 0.  So delta < 0 is impossible, delta = 0 forces
    d = 1, and for delta > 0 every d at most T_K(delta) =
    sum_{k <= K} delta^k/k! < e^delta is excluded; the sum is taken in
    integers over K! ed^K."""
    if en <= 0:
        return en < 0 or dn != dd
    scale = math.factorial(_EVERY_M_TERMS) * ed ** _EVERY_M_TERMS
    term = total = scale
    for k in range(1, _EVERY_M_TERMS + 1):
        term = term * en // (k * ed)  # delta^k/k! over the scale, exactly
        total += term
    return dn * scale <= dd * total


def _walk_tails(grid: tuple[tuple[int, int], ...], m: int, sn: int, sd: int,
                dn: int, dd: int) -> set[tuple[Fraction, ...]]:
    """Every m-variable solution (m >= 4) with weight sum sn/sd and
    prod(1/q_i - 1) = dn/dd whose tail (q_3 <= ... <= q_m) lies on `grid`, a
    tuple of ascending (num, den) pairs, walked by index.

    Taking an entry t divides the product target left by 1/t - 1 and
    subtracts t from the sum left, as unreduced integer fractions.  A level
    with k - 2 tail entries left takes the entries from the first whose
    product left is at least 1 up to, not including, the first whose k - 2
    copies reach the sum left (the entries still to come, each at least t,
    would leave the pair no positive sum).  Both tests are monotone in the
    entry, so every level finds its span by two bisections, `span`.  An
    entry whose `_certified` excludes the variables left goes no deeper.

    The last level (one entry a/b, then the pair) is sieved like the
    columns of `_walk_columns`: the pair of a/b is `_pair_roots(dn a,
    dd (b - a), sn b - sd a, sd b)` for the level's sn/sd and dn/dd, and
    needs F(a, b) of the level's `_pair_quartic` to be a perfect square.  Its span is a
    bit mask of grid indices, ANDed with one mask per prime of
    `_sieve_primes`: the grid entries whose class in P^1(F_p) has F(u, 1) a
    square mod p.  For p | b, F(a, b) = ((dn + dd) sd a^2)^2 mod p,
    so the class infinity always passes.  Scaling sn, sd by l and dn, dd by
    k scales F by (l k)^2, so a prime's mask depends only on the classes of
    sn/sd and dn/dd in P^1(F_p) or 0/0, and is memoized by them: at most
    (p + 2)^2 per prime and walk.  Only the survivors reach `_pair_roots`.
    Raises ResourceLimitExceeded past TAIL_LIMIT visited entries, charged
    per level as an entry-by-entry loop would count them: one per entry
    from the level's start through the end of its span, plus the entry that
    ends it when the grid has one."""
    found = set()
    visited = 0
    sieves = []
    for p in _sieve_primes(_TAIL_SIEVE_PRIMES, sd, dn, dd):
        # once per walk: the grid indices in each class of num/den in
        # P^1(F_p), one bit mask per class, class p standing for p | den
        inverse = [0] + [pow(u, -1, p) for u in range(1, p)]
        rows = [bytearray(len(grid) // 8 + 1) for _ in range(p + 1)]
        for i, (num, den) in enumerate(grid):
            r = den % p
            rows[num * inverse[r] % p if r else p][i >> 3] |= 1 << (i & 7)
        sieves.append((p, inverse, [int.from_bytes(row, "little") for row in rows], {}))

    def span(start, entries, sn, sd, dn, dd):
        # from grid[start:], the first entry whose product left is at least
        # 1, and from there the first whose `entries` copies reach the sum left
        nonlocal visited
        first = bisect_left(grid, True, start, key=lambda t: t[0] * (dn + dd) >= dd * t[1])
        stop = bisect_left(grid, True, first, key=lambda t: entries * t[0] * sd >= sn * t[1])
        visited += stop - start + (stop < len(grid))
        if visited > TAIL_LIMIT:
            raise ResourceLimitExceeded(f"the search visits more than {TAIL_LIMIT} tails")
        return first, stop

    def last(start, sn, sd, dn, dd, prefix):
        first, stop = span(start, 1, sn, sd, dn, dd)
        mask = (1 << stop) - (1 << first)
        for p, inverse, classes, memo in sieves:
            if not mask:
                return
            # sn/sd and dn/dd in P^1(F_p): u for a unit denominator, p for
            # infinity, p + 1 for 0/0
            r, t = sd % p, dd % p
            key = (sn * inverse[r] % p if r else p if sn % p else p + 1,
                   dn * inverse[t] % p if t else p if dn % p else p + 1)
            good = memo.get(key)
            if good is None:
                good = classes[p]
                for u in _square_residues(_pair_quartic(sn % p, sd % p, dn % p, dd % p), p):
                    good |= classes[u]
                memo[key] = good
            mask &= good
        while mask:
            bit = mask & -mask
            mask ^= bit
            num, den = grid[bit.bit_length() - 1]
            for low, high, pden in _pair_roots(dn * num, dd * (den - num),
                                               sn * den - num * sd, sd * den):
                tail = tuple(Fraction(*t) for t in prefix + ((num, den),))
                found.add(tuple(sorted((Fraction(low, pden), Fraction(high, pden)) + tail)))

    def walk(start, k, sn, sd, dn, dd, prefix):
        # k > 3 variables are left: k - 2 tail entries from grid[start:], then the pair
        first, stop = span(start, k - 2, sn, sd, dn, dd)
        for i in range(first, stop):
            num, den = grid[i]
            pn, pd = dn * num, dd * (den - num)
            tn, td = sn * den - num * sd, sd * den
            if not _certified(k - 1, tn, td, pn, pd):
                if k > 4:
                    walk(i, k - 1, tn, td, pn, pd, prefix + ((num, den),))
                else:
                    last(i, tn, td, pn, pd, prefix + ((num, den),))

    walk(0, m, sn, sd, dn, dd, ())
    return found


def _pair_quartic(sn: int, sd: int, dn: int, dd: int) -> list[int]:
    """The coefficients c_0..c_4, constant term first, of the homogeneous
    quartic F(a, b) = sum c_k a^k b^(4 - k) for a three-variable target, or
    a last tail level, with weight sum sn/sd and d = dn/dd (sd, dd > 0):
    F(a, b) is the integer n e that `_pair_roots(dn a, dd (b - a),
    sn b - sd a, sd b)` tests for a perfect square, the pair of the entry
    a/b."""
    # at b = 1: e = e1 u - dd with e1 = dn + dd, the pair's sum numerator
    # t = sn - sd u, and the cubic n = t^2 e - x (sd - t)(1 - u) with
    # x = 4 dd sd, expanded by hand; then F = n e
    e1, x = dn + dd, 4 * dd * sd
    n0 = -dd * sn * sn - x * (sd - sn)
    n1 = e1 * sn * sn + 2 * dd * sn * sd - x * sn
    n2 = x * sd - 2 * e1 * sn * sd - dd * sd * sd
    n3 = e1 * sd * sd
    return [-dd * n0, e1 * n0 - dd * n1, e1 * n1 - dd * n2, e1 * n2 - dd * n3, e1 * n3]


def _sieve_primes(count: int, sd: int, dn: int, dd: int) -> list[int]:
    """The first `count` primes of _SIEVE_SQUARES that divide none of the
    target's sd, dn and dd, ascending: at a prime dividing one of them the
    pair quartic of the target is a square mod p everywhere (with p | dd, for
    one, F(a, b) = (dn a (sn b - sd a))^2 mod p), so it would sieve nothing."""
    return list(islice((p for p in _SIEVE_SQUARES if dn % p and dd % p and sd % p),
                       max(count, 0)))


def _square_residues(quartic: list[int], p: int) -> list[int]:
    """The u mod p where F(u, 1) is a square mod p, zero included, for the
    quartic F with coefficients `quartic` (`_pair_quartic`'s order),
    reduced mod p once and evaluated by Horner's rule."""
    squares = _SIEVE_SQUARES[p]
    c0, c1, c2, c3, c4 = (c % p for c in quartic)
    return [u for u in range(p)
            if ((((c4 * u + c3) * u + c2) * u + c1) * u + c0) % p in squares]


@lru_cache(maxsize=len(_SIEVE_SQUARES))
def _dilations(p: int) -> tuple[int, ...]:
    """The p lines from which a prime's column patterns are read: line u has
    bit r p + (u r mod p) set for every r = 1..p - 1, so the OR of the lines
    at v = u^-1 for u in a set `good` holds, in its p-bit slice s, the
    residues t = s u^-1 mod p, those with s t^-1 mod p in `good`.  The lines
    depend on p alone, so they are built once per prime per process, when a
    walk first sieves by p, and never at import.  A prime's lines hold p^3
    bits, so the cache holds at most the sum of p^3 bits over the pool,
    about 1.6 MB, and about 200 KB for the primes up to 71."""
    return tuple(sum(1 << r * p + u * r % p for r in range(1, p)) for u in range(p))


def _column_patterns(p: int, good: list[int]) -> list[int]:
    """The p-bit patterns of a prime's columns, for `good` the u mod p where
    F(u, 1) is a square mod p: pattern s, read by the numerators a = s mod p,
    has bit t set when t = 0 or s t^-1 mod p is in `good`, that is when a
    denominator b = t mod p leaves F(a, b) a square mod p.  For s > 0 it is
    slice s of the OR of the `_dilations` lines at u^-1 over the nonzero u
    of `good`, with bit 0 set; pattern 0 is all ones when 0 is good and
    bit 0 alone otherwise."""
    lines = _dilations(p)
    table = 0
    for u in good:
        if u:
            table |= lines[pow(u, -1, p)]
    ones = (1 << p) - 1
    return [ones if 0 in good else 1] + [table >> s * p & ones | 1 for s in range(1, p)]


def _row_sieves(bound: int, sn: int, sd: int, dn: int,
                dd: int) -> list[tuple[int, list[int]]]:
    """The primes that sieve a three-variable walk to `bound`, least share
    first and ties by p, as (p, good): good is `_square_residues` of
    `_pair_quartic`, the u mod p where F(u, 1) is a square mod p, from which
    `_walk_columns` reads its column patterns (`_column_patterns`).

    Each prime leaves about the share |good|/p of the candidates and costs p
    evaluations, |good| ORs of its lines and p tiled patterns per walk, so
    the number used grows with the at most bound^2/4 points walked:
    2k - 9 primes, for k the bit length of the bound (none below bound 16,
    one up to 31, seven from 128 to 255).  They are the ones of least share
    among the first 2k - 7 `_sieve_primes`, since on some targets F is a
    square mod p unusually often (`search 52 3 3 --bound 200` keeps 4 of 5
    residues mod 5); a prime whose every F(u, 1) is a square never sieves.
    The least share comes first so that a column's mask empties after as
    few ANDs as it can."""
    count = 2 * bound.bit_length() - 9
    if count <= 0:
        return []
    quartic = _pair_quartic(sn, sd, dn, dd)
    sieves = []
    for p in _sieve_primes(count + 2, sd, dn, dd):
        good = _square_residues(quartic, p)
        if len(good) < p:
            sieves.append((p, good))
    return sorted(sieves, key=lambda sieve: len(sieve[1]) / sieve[0])[:count]


def _walk_columns(bound: int, sn: int, sd: int, dn: int,
                  dd: int) -> set[tuple[Fraction, ...]]:
    """Every three-variable solution with weight sum sn/sd and
    prod(1/q_i - 1) = dn/dd whose tail q3 has denominator at most `bound`.

    The tails walked are the a/b with b <= bound, 1/(d+1) <= a/b <= 1/2 and
    a/b below the sum, those whose pair can have a positive sum; sn > 0,
    since no certificate answered.  Column a holds the denominators b from
    max(2a, ceil((a sd + 1)/sn)) to min(bound, floor(a (dn + dd)/dd)), and
    the columns run over a <= bound/2 with a sd < bound sn.  The pair of a/b
    is `_pair_roots(dn a, dd (b - a), sn b - sd a, sd b)`, which succeeds
    only if the quartic F(a, b) = sum c_k a^k b^(4 - k) of
    `_pair_quartic(sn, sd, dn, dd)` is a perfect square.  For an odd prime
    p not dividing b, F(a, b) = b^4 F(a/b, 1) mod p, so the p values
    F(u, 1) mod p that `_row_sieves` computes tell every point where F is a
    nonresidue mod p, hence no square; when p divides b,
    F = (sd (dn + dd) a^2)^2 mod p and p sieves nothing.  A column's
    candidates are a bit mask, one bit per denominator, ANDed with each
    prime's periodic pattern for a mod p (`_column_patterns`) shifted to
    the column's first denominator.  Of the bits left, those of reduced a/b
    reach `_pair_roots`: a non-reduced point repeats one of a smaller
    column, with the same pair.

    Each pattern is tiled once per walk to span + p bits by one multiply
    with a repunit, where span is the widest a column can be, or
    _TILE_BITS if that is less; a longer column is sieved in pieces of span
    denominators, each reading the tiles shifted by its own first
    denominator mod p.  So a prime's tiles hold at most p (_TILE_BITS + p)
    bits, about 67 KB for p = 127, whatever the bound.  The visits are
    those of a walk by denominator rows: one per row b = 2..bound, counted
    first, and one per point, counted per column before the column is
    sieved; past TAIL_LIMIT the walk raises ResourceLimitExceeded."""
    visited = bound - 1
    if visited > TAIL_LIMIT:
        raise ResourceLimitExceeded(f"the search visits more than {TAIL_LIMIT} tails")
    e1 = dn + dd
    # no column is wider than min(bound, a e1/dd) - a max(2, sd/sn) + 1,
    # whose largest value over a >= 1 is at a = max(1, bound dd/e1)
    span = bound + 1 + -max(e1, bound * dd) * max(2 * sn, sd) // (e1 * sn)
    span = max(min(span, _TILE_BITS), 1)
    sieves = []
    for p, good in _row_sieves(bound, sn, sd, dn, dd):
        repunit = ((1 << (span // p + 2) * p) - 1) // ((1 << p) - 1)
        ones = (1 << span + p) - 1
        sieves.append((p, [pattern * repunit & ones for pattern in _column_patterns(p, good)]))
    found = set()
    for a in range(1, min(bound // 2, (bound * sn - 1) // sd) + 1):
        lo, hi = max(2 * a, (a * sd + sn) // sn), min(bound, a * e1 // dd)
        if lo > hi:
            continue
        visited += hi - lo + 1
        if visited > TAIL_LIMIT:
            raise ResourceLimitExceeded(f"the search visits more than {TAIL_LIMIT} tails")
        for start in range(lo, hi + 1, span):
            mask = (1 << min(span, hi + 1 - start)) - 1
            for p, tiles in sieves:
                mask &= tiles[a % p] >> start % p
                if not mask:
                    break
            while mask:
                bit = mask & -mask
                mask ^= bit
                b = start + bit.bit_length() - 1
                if math.gcd(a, b) > 1:
                    continue
                for low, high, den in _pair_roots(dn * a, dd * (b - a), sn * b - sd * a, sd * b):
                    found.add(tuple(sorted((Fraction(low, den), Fraction(high, den),
                                            Fraction(a, b)))))
    return found


def _target(d, delta, denominator_bound: int) -> tuple[Fraction, Fraction]:
    """A search target (d, delta) as exact rationals; raises InvalidArgument
    unless the bound is an int of at least 2 and d > 0."""
    _require_int("denominator bound", denominator_bound)
    if denominator_bound < 2:
        raise InvalidArgument("denominator bound must be at least 2")
    d, delta = _rational(d), _rational(delta)
    if d <= 0:
        raise InvalidArgument(f"target dimension must be positive, got {d}")
    return d, delta


def search_weight_systems(d, delta, m: int, denominator_bound: int = 60) -> SearchReport:
    """Search for weight systems in m variables matching (d, delta).

    m = 1 and m = 2 are decided exactly; for m >= 3 a target with d = 1
    (whose only solution is all weights 1/2) or one the Jensen certificate
    excludes is answered without enumeration, and otherwise the tails run
    over the rationals with denominators up to the bound.  Either
    way the result is reported relative to that bound.  Solutions are canonicalized ascending,
    so permutations collapse.  Raises InvalidArgument for a d or delta that
    is a float, or text that is no number or past Python's digit limit, an m
    or a bound that is not an int (or is a bool), m < 1, a bound below 2 or
    a dimension d <= 0, and
    ResourceLimitExceeded for m >= 4 when the grid of a walk has more than
    GRID_LIMIT points (built only once no certificate answers), for m >= 3
    when the walk makes more than TAIL_LIMIT visits, and for
    m > SEARCH_VARS_LIMIT unless the target is the d = 1 target with no
    solution or one the every-m certificate excludes.
    """
    _require_int("number of variables", m)
    d, delta = _target(d, delta, denominator_bound)
    if m < 1:
        raise InvalidArgument("number of variables must be at least 1")
    # the weight sum S = (2m - delta)/4 as sn/sd, and d as dn/dd
    sn, sd = 2 * m * delta.denominator - delta.numerator, 4 * delta.denominator
    dn, dd = d.numerator, d.denominator
    solutions: set[tuple[Fraction, ...]] = set()
    if m == 1:
        # the one weight is 1/(d + 1), in (0, 1/2] iff d >= 1
        if dd <= dn and dd * sd == sn * (dn + dd):
            solutions.add((Fraction(dd, dn + dd),))
    elif m == 2:
        # a pair has both factors 1/q - 1 >= 1, so d < 1 has none
        if dn >= dd:
            solutions = {(Fraction(low, den), Fraction(high, den))
                         for low, high, den in _pair_roots(dn, dd, sn, sd)}
    elif dn == dd:
        # every factor 1/q - 1 is at least 1 on (0, 1/2], so d = 1 forces
        # every q_i = 1/2, and then the sum m/2
        if 2 * sn == m * sd:
            if m > SEARCH_VARS_LIMIT:
                raise ResourceLimitExceeded(
                    f"the solution lists {m} weights, more than {SEARCH_VARS_LIMIT}")
            solutions.add((HALF,) * m)
    elif m > SEARCH_VARS_LIMIT:
        if not _every_m_certified(dn, dd, delta.numerator, delta.denominator):
            raise ResourceLimitExceeded(
                f"a search in {m} variables, more than {SEARCH_VARS_LIMIT}, is answered "
                f"only where the every-m certificate decides, and it does not here")
    elif not _certified(m, sn, sd, dn, dd):
        if m == 3:
            solutions = _walk_columns(denominator_bound, sn, sd, dn, dd)
        else:
            grid = tuple(islice(_farey_grid(1 / (d + 1), HALF, denominator_bound),
                                GRID_LIMIT + 1))
            if len(grid) > GRID_LIMIT:
                raise ResourceLimitExceeded(f"the tail grid at denominator bound "
                                            f"{denominator_bound} exceeds {GRID_LIMIT} points")
            solutions = _walk_tails(grid, m, sn, sd, dn, dd)
    ordered = tuple(WeightSystem(sol) for sol in sorted(solutions))
    if ordered:
        status = STATUS_FOUND
    elif m <= 2:
        status = STATUS_NONE_EXACT
    else:
        status = STATUS_NONE_WITHIN_BOUND
    return SearchReport(d, delta, m, denominator_bound, ordered, status)


# ---------------------------------------------------------------------------
# The three-variable discriminant boundary
# ---------------------------------------------------------------------------
# Polynomials in q are integer coefficient lists, constant term first, and a
# point q = n/k (k > 0) is the pair (n, k), not necessarily reduced.

def _primitive(poly: list[int]) -> list[int]:
    """poly divided by the positive gcd of its coefficients (poly nonzero)."""
    content = math.gcd(*poly)
    return [c // content for c in poly]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(quo, rem) with c*a = quo*b + rem for some integer c > 0 and
    deg rem < deg b; b's leading coefficient is nonzero.  The positive c
    keeps the signs a Sturm sequence reads."""
    rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 1)
    scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(rem) >= len(b):
        shift, top = len(rem) - len(b), sign * rem[-1]
        # rem <- |lead b| rem - sign(lead b) top(rem) q^shift b cancels the top term
        rem = [scale * c for c in rem]
        quo = [scale * c for c in quo]
        quo[shift] += top
        for i, c in enumerate(b):
            rem[shift + i] -= top * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def _derivative(poly: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(poly)][1:]


def _sign_at(poly: list[int], n: int, k: int) -> int:
    """The sign of poly at n/k, from the integer k^deg * poly(n/k)."""
    value, power = poly[-1], 1
    for c in reversed(poly[:-1]):
        power *= k
        value = value * n + c * power
    return (value > 0) - (value < 0)


def _sturm_roots(poly: list[int], lo: tuple[int, int],
                 hi: tuple[int, int]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Isolating intervals (a, b], descending, one per distinct real root of
    the square-free `poly` (degree >= 1) in (lo, hi], found by bisection."""
    chain = [poly, _primitive(_derivative(poly))]
    # poly is square-free, so no remainder vanishes before a constant one
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        chain.append(_primitive([-c for c in rem]))

    def variations(point) -> int:
        signs = [s for s in (_sign_at(p, *point) for p in chain) if s]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    roots, stack = [], [(lo, variations(lo), hi, variations(hi))]
    while stack:
        a, va, b, vb = stack.pop()
        if va - vb == 1:
            roots.append((a, b))
        elif va - vb > 1:
            mid = (a[0] * b[1] + b[0] * a[1], 2 * a[1] * b[1])
            vm = variations(mid)
            stack += [(a, va, mid, vm), (mid, vm, b, vb)]
    return roots


def _grid_floor(at_most, bound: int) -> tuple[int, int]:
    """The largest n/k with 1 <= k <= bound and at_most(n, k), for a
    predicate n/k <= r with r < 1 or n/k < r with r <= 1; (0, 1) when no
    positive n/k qualifies.

    One Stern-Brocot descent: lo = ln/lk <= r < hi = hn/hk, and each run of
    equal steps towards r is found by doubling and bisection, so the
    predicate is tested O(log bound) times."""
    def run(test, limit):
        # the largest t in [0, limit] with test(t), for test true then false
        if limit < 1 or not test(1):
            return 0
        good, step = 1, 2
        while step <= limit and test(step):
            good, step = step, 2 * step
        bad = min(step, limit + 1)
        while bad - good > 1:
            mid = (good + bad) // 2
            if test(mid):
                good = mid
            else:
                bad = mid
        return good

    ln, lk, hn, hk = 0, 1, 1, 1
    while lk + hk <= bound:
        t = run(lambda t: at_most(ln + t * hn, lk + t * hk), (bound - lk) // hk)
        ln, lk = ln + t * hn, lk + t * hk
        if lk + hk > bound:
            break
        t = run(lambda t: not at_most(hn + t * ln, hk + t * lk), (bound - hk) // lk)
        hn, hk = hn + t * ln, hk + t * lk
    return ln, lk


def discriminant_sign_boundary(d, delta, denominator_bound: int = 60) -> Fraction | None:
    """Largest grid value of q_3 where the three-variable pair quadratic has a
    nonnegative discriminant.

    With A = 1 - d/(1/q3 - 1) and B = (6 - delta)/4 - q3, the pair problem
    becomes A q1^2 - A B q1 + (B - 1) = 0, whose discriminant is
    (A B)^2 - 4 A (B - 1); the degenerate linear case A = 0 counts as 0.
    Since A = L/(1 - q3) with L = 1 - (d + 1) q3, the discriminant has the
    sign of the quartic P = L^2 B^2 - 4 L (1 - q3)(B - 1) on (0, 1), and
    P (4 dd ed)^2 for d = dn/dd and delta = en/ed is F(q3, 1), the quartic
    `_pair_quartic` of the walk's weight sum (6 ed - en)/(4 ed).  The
    grid is every q3 in [1/bound, 1/2] with denominator at most the bound.
    Its largest point where P >= 0 is 1/2, or else the largest grid point at
    or below some root of P in (0, 1/2): the roots are isolated with Sturm
    sequences, and each root's grid point is one Stern-Brocot descent, from
    the top root down, so the grid is never walked.  Raises InvalidArgument
    as `search_weight_systems` does, for a bound or a target.
    """
    d, delta = _target(d, delta, denominator_bound)
    ed = delta.denominator
    # of degree 4: its leading coefficient (dn + dd)^2 sd^2 is positive, as
    # d > 0 and sd = 4 ed > 0; so the square-free part has degree >= 1
    quartic = _pair_quartic(6 * ed - delta.numerator, 4 * ed, d.numerator, d.denominator)
    if _sign_at(quartic, 1, 2) >= 0:
        return HALF
    # the square-free part: the same roots, each simple
    common, rest = quartic, _derivative(quartic)
    while rest:
        rem = _pseudo_divmod(common, rest)[1]
        common, rest = rest, rem and _primitive(rem)
    squarefree = _primitive(_pseudo_divmod(quartic, common)[0])
    for (an, ak), (bn, bk) in _sturm_roots(squarefree, (0, 1), (1, 2)):
        # the root r in (a, b] is b itself, or the sign flips across it
        sign_b = _sign_at(squarefree, bn, bk)

        def at_most(n, k):
            if n * ak <= an * k:
                return True
            if n * bk >= bn * k:
                return n * bk == bn * k and sign_b == 0
            return _sign_at(squarefree, n, k) != sign_b

        n, k = _grid_floor(at_most, denominator_bound)
        if n and _sign_at(quartic, n, k) >= 0:
            return Fraction(n, k)
    return None


# ---------------------------------------------------------------------------
# Support enumeration for a given weight system
# ---------------------------------------------------------------------------

def _default_variables(n: int) -> tuple[str, ...]:
    if n <= 4:
        return tuple("xyzw"[:n])
    return tuple(f"x{i + 1}" for i in range(n))


def _weight_one(weights: WeightSystem) -> Iterator[tuple[int, ...]]:
    """The exponent vectors of weighted degree one, ascending: the walk at
    grade L, the lcm of the weights' denominators, under no lead."""
    scale, integer_weights = weights.integer_form
    return (prefix + (e,) for prefix, lasts in _walk((), integer_weights, scale)
            for e in lasts)


def _monomials_of_weight_one(weights: WeightSystem) -> list[tuple[int, ...]]:
    return sorted(_weight_one(weights), reverse=True)


def enumerate_admissible_supports(weights: WeightSystem) -> list[Polynomial]:
    """All admissible polynomials with all-ones coefficients whose monomials
    satisfy the given weights.

    Every monomial with sum(a_i q_i) = 1 enters the pool; each subset of at
    least n monomials with a unique weight solution and a nondegenerate
    all-ones representative becomes one output polynomial.  Nondegeneracy is
    only tested at coefficients one, which matches how example polynomials
    are usually written; genericity in the coefficients is not analyzed.
    Raises ResourceLimitExceeded, before any is tried, when there are more
    than SUPPORT_SUBSET_LIMIT such subsets; a pool of p = n +
    SUPPORT_SUBSET_LIMIT has C(p, n) >= p of them, so it is read no further.
    """
    _require_halved(weights)
    n = len(weights)
    names = _default_variables(n)
    most = n + SUPPORT_SUBSET_LIMIT
    pool = sorted(islice(_weight_one(weights), most), reverse=True)
    if len(pool) == most:
        raise ResourceLimitExceeded(
            f"the weight-one pool holds at least {most} monomials, so its subsets "
            f"of at least {n} number more than the limit of {SUPPORT_SUBSET_LIMIT}")
    subsets = 2 ** len(pool) - sum(math.comb(len(pool), k) for k in range(n))
    if subsets > SUPPORT_SUBSET_LIMIT:
        raise ResourceLimitExceeded(
            f"the supports lie among {subsets} subsets of {len(pool)} weight-one "
            f"monomials, more than the limit of {SUPPORT_SUBSET_LIMIT}")
    found = []
    for size in range(n, len(pool) + 1):
        for combo in combinations(pool, size):
            candidate = Polynomial.from_term_map(names, {c: 1 for c in combo})
            if classify(candidate).is_admissible:
                found.append(candidate)
    return found
