"""Graded mirror checks and weight-system searches.

`transpose_polynomial` lives in polycore, since it needs only `classify` and
the exponent matrix; it is re-exported here beside `mirror_check`.
`mirror_sides` computes W^T and both graded sides once; `mirror_check` and the
CLI's `mirror-check` both read them from it.

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
though its status stays NoneWithinBound.  Otherwise the tail (q_3..q_m) is
enumerated over a bounded-denominator rational grid and each tail is
finished exactly, so empty results certify nonexistence only within the
stated bound.

The search runs in integer numerators and denominators.  From four
variables on, the tail (q_3..q_m) runs over a grid that is a stretch of the
Farey sequence, walked in ascending order by its next-term recurrence, with
no set and no sort, and held as a tuple.  Tails are walked one ascending
entry at a time; each entry divides the product target left and subtracts
from the sum left, as unreduced integer fractions, so a tail costs O(1)
work.  A prefix is dropped when the same certificate excludes the variables
left, and a tail's pair is decided by its integer discriminant and one
`math.isqrt`, since N/M with M > 0 is a rational square iff N*M is a
perfect square.  `_pair_roots` is the only code that accepts a pair.  Three
variables have a one-entry tail q3 = a/b, walked by denominator rows: the
pair of a/b needs a homogeneous quartic F(a, b) to be a perfect square, so
each row is first sieved by the quadratic residues of F modulo a few odd
primes, a bit mask per row, and only the survivors reach the exact test (a
square-residue sieve, as in Cohen, A Course in Computational Algebraic
Number Theory, 1.7.2).  A `Fraction` is built only for a solution, and a
search makes at most TAIL_LIMIT visits: one per tail entry from four
variables on, and one per row and per numerator in it for three.
`discriminant_sign_boundary` isolates the real roots of the same quartic
with Sturm sequences and finds the largest grid point where it is
nonnegative by Stern-Brocot descents, in O(log bound) sign tests.  The sieve
and the boundary read one coefficient list, `_pair_quartic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .amodel import amodel
from .errors import InvalidArgument, ResourceLimitExceeded
from .milnor import GradedDims, bmodel
from .polycore import Polynomial, WeightSystem, classify, transpose_polynomial
from .symmetry import gmax

HALF = Fraction(1, 2)

STATUS_FOUND = "SolutionsFound"
STATUS_NONE_EXACT = "NoneExact"
STATUS_NONE_WITHIN_BOUND = "NoneWithinBound"

GRID_LIMIT = 10**5  # the most grid points held for tails of m >= 4 variables
# The most visits one search makes: a tail entry, whole or partial, for
# m >= 4; a denominator row and each numerator in it for m = 3.
TAIL_LIMIT = 10**7

# The odd primes below 128 with their quadratic residues: the pool from
# which a three-variable walk takes the primes that sieve its rows.
_SIEVE_SQUARES = {p: frozenset([u * u % p for u in range(p // 2 + 1)])
                  for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                            61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)}


# ---------------------------------------------------------------------------
# The graded mirror check
# ---------------------------------------------------------------------------

def mirror_sides(poly: Polynomial) -> tuple[Polynomial, GradedDims, GradedDims]:
    """The transpose W^T, the graded state space of (W, Gmax) and the graded
    Milnor ring of W^T."""
    partner = transpose_polynomial(poly)
    return partner, amodel(poly, gmax(poly)).graded, bmodel(partner).graded


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
    if n < 1:
        raise ValueError("n must be positive")
    return -4 * (2 * n**3 - 11 * n**2 + 18 * n - 9)


def nfamily_quadratic(n: int) -> tuple[int, int, int]:
    """Coefficients (a, b, c) of a q2^2 + b q2 + c = 0 for the family with
    dimension 2n-2 and top degree 2(2n-4)/n; kept as an independent route
    beside the generic pair solver."""
    if n < 1:
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

@dataclass(frozen=True)
class SearchReport:
    """Outcome of a mirror-candidate weight-system search."""

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


def _walk_tails(grid: tuple[tuple[int, int], ...], m: int, sn: int, sd: int,
                dn: int, dd: int) -> set[tuple[Fraction, ...]]:
    """Every m-variable solution (m >= 4) with weight sum sn/sd and
    prod(1/q_i - 1) = dn/dd whose tail (q_3 <= ... <= q_m) lies on `grid`, a
    tuple of ascending (num, den) pairs, walked by index.

    Taking an entry t divides the product target left by 1/t - 1 and
    subtracts t from the sum left, as unreduced integer fractions.  An entry
    is skipped when the product left falls below 1, or when `_certified`
    excludes the variables left; a level stops once the entries still to
    come (each at least t) would leave the pair no positive sum.  Raises
    ResourceLimitExceeded past TAIL_LIMIT visited entries."""
    found = set()
    visited = 0

    def walk(start, k, sn, sd, dn, dd, prefix):
        # k variables are left: k - 2 tail entries from grid[start:], then the pair
        nonlocal visited
        entries = k - 2
        for i in range(start, len(grid)):
            visited += 1
            if visited > TAIL_LIMIT:
                raise ResourceLimitExceeded(f"the search visits more than {TAIL_LIMIT} tails")
            num, den = grid[i]
            pn, pd = dn * num, dd * (den - num)
            if pn < pd:
                continue
            if entries * num * sd >= sn * den:
                break
            tn, td = sn * den - num * sd, sd * den
            if k > 3:
                if not _certified(k - 1, tn, td, pn, pd):
                    walk(i, k - 1, tn, td, pn, pd, prefix + ((num, den),))
            else:
                for low, high, pden in _pair_roots(pn, pd, tn, td):
                    tail = tuple(Fraction(*t) for t in prefix + ((num, den),))
                    found.add(tuple(sorted((Fraction(low, pden), Fraction(high, pden)) + tail)))

    walk(0, m, sn, sd, dn, dd, ())
    return found


def _pair_quartic(sn: int, sd: int, dn: int, dd: int) -> list[int]:
    """The coefficients c_0..c_4, constant term first, of the homogeneous
    quartic F(a, b) = sum c_k a^k b^(4 - k) for a three-variable target with
    weight sum sn/sd and d = dn/dd (sd, dd > 0): F(a, b) is the integer n e
    that `_pair_roots(dn a, dd (b - a), sn b - sd a, sd b)` tests for a
    perfect square, the pair of q3 = a/b."""
    # at b = 1: e = e1 u - dd with e1 = dn + dd, the pair's sum numerator
    # t = sn - sd u, and the cubic n = t^2 e - x (sd - t)(1 - u) with
    # x = 4 dd sd, expanded by hand; then F = n e
    e1, x = dn + dd, 4 * dd * sd
    n0 = -dd * sn * sn - x * (sd - sn)
    n1 = e1 * sn * sn + 2 * dd * sn * sd - x * sn
    n2 = x * sd - 2 * e1 * sn * sd - dd * sd * sd
    n3 = e1 * sd * sd
    return [-dd * n0, e1 * n0 - dd * n1, e1 * n1 - dd * n2, e1 * n2 - dd * n3, e1 * n3]


def _row_sieves(bound: int, sn: int, sd: int, dn: int,
                dd: int) -> list[tuple[int, list[int]]]:
    """The primes that sieve a three-variable walk to `bound`, ascending, as
    (p, good): good lists the u mod p where F(u, 1) is a square mod p, zero
    included, F being `_pair_quartic` with its coefficients reduced mod p
    once and evaluated by Horner's rule.

    A prime dividing dn, dd or sd never sieves, since F is then a square
    mod p, nor does one whose every F(u, 1) is a square.  Each prime leaves
    about half the candidates and costs p evaluations and up to p - 1
    patterns, so the number tried grows with the at most bound^2/4
    numerators: the walk tries the first 2k - 9 primes of _SIEVE_SQUARES
    that divide none of dn, dd and sd, for k the bit length of the bound
    (none below bound 16, one up to 31, seven from 128 to 255)."""
    sieves = []
    tried = 0
    quartic = _pair_quartic(sn, sd, dn, dd)
    for p, squares in _SIEVE_SQUARES.items():
        if tried >= 2 * bound.bit_length() - 9:
            break
        if dn % p and dd % p and sd % p:
            tried += 1
            c0, c1, c2, c3, c4 = (c % p for c in quartic)
            good = [u for u in range(p)
                    if ((((c4 * u + c3) * u + c2) * u + c1) * u + c0) % p in squares]
            if len(good) < p:
                sieves.append((p, good))
    return sieves


def _walk_rows(bound: int, sn: int, sd: int, dn: int, dd: int) -> set[tuple[Fraction, ...]]:
    """Every three-variable solution with weight sum sn/sd and
    prod(1/q_i - 1) = dn/dd whose tail q3 has denominator at most `bound`.

    Row b holds the numerators a with 1/(d+1) <= a/b <= 1/2 and a/b below
    the sum, the tails whose pair can have a positive sum.  The pair of a/b
    is `_pair_roots(dn a, dd (b - a), sn b - sd a, sd b)`, which succeeds
    only if the quartic F(a, b) = sum c_k a^k b^(4 - k) of
    `_pair_quartic(sn, sd, dn, dd)` is a perfect square.  For an odd prime
    p not dividing b, F(a, b) = b^4 F(a/b, 1) mod p, so the p values
    F(u, 1) mod p that `_row_sieves` computes tell every point where F is a
    nonresidue mod p, hence no square; when p divides b,
    F = (sd (dn + dd) a^2)^2 mod p and p sieves nothing.  A row's
    candidates are a bit mask, one bit per numerator,
    ANDed with each prime's periodic pattern for b mod p shifted to the
    row's first numerator.  Of the bits left, those of reduced a/b reach
    `_pair_roots`: a non-reduced point repeats one of a smaller row, with
    the same pair.  A pattern is built when a row first needs it and
    doubled when a longer row does, so it spans fewer than 2 (w + p) bits
    for the longest row w that used it.  Each row counts one visit plus one
    per numerator, checked against TAIL_LIMIT before the row is sieved."""
    sieves = [(p, good, {}) for p, good in _row_sieves(bound, sn, sd, dn, dd)]
    found = set()
    visited = 0
    for b in range(2, bound + 1):
        first = max(-(-b * dd // (dn + dd)), 1)
        width = min(b // 2, (sn * b - 1) // sd) - first + 1
        visited += 1 + max(width, 0)
        if visited > TAIL_LIMIT:
            raise ResourceLimitExceeded(f"the search visits more than {TAIL_LIMIT} tails")
        if width <= 0:
            continue
        mask = (1 << width) - 1
        for p, good, patterns in sieves:
            r = b % p
            if not r:
                continue
            # bit j of a pattern stands for the numerators a = j mod p
            pattern, length = patterns.get(r) or (sum(1 << u * r % p for u in good), p)
            if length < width + p:
                while length < width + p:
                    pattern |= pattern << length
                    length *= 2
                patterns[r] = pattern, length
            mask &= pattern >> first % p
            if not mask:
                break
        while mask:
            bit = mask & -mask
            mask ^= bit
            a = first + bit.bit_length() - 1
            if math.gcd(a, b) > 1:
                continue
            for low, high, den in _pair_roots(dn * a, dd * (b - a), sn * b - sd * a, sd * b):
                found.add(tuple(sorted((Fraction(low, den), Fraction(high, den), Fraction(a, b)))))
    return found


def search_weight_systems(d, delta, m: int, denominator_bound: int = 60) -> SearchReport:
    """Search for weight systems in m variables matching (d, delta).

    m = 1 and m = 2 are decided exactly; for m >= 3 a target the Jensen
    certificate excludes is answered without enumeration, and otherwise the
    tails run over the rationals with denominators up to the bound.  Either
    way the result is reported relative to that bound.  Solutions are canonicalized ascending,
    so permutations collapse.  Raises InvalidArgument for m < 1, a bound
    below 2 or a dimension d <= 0, and ResourceLimitExceeded for m >= 4 when
    the grid has more than GRID_LIMIT points (checked before the
    certificate) or for m >= 3 when the walk makes more than TAIL_LIMIT
    visits.
    """
    d = Fraction(d)
    delta = Fraction(delta)
    if m < 1:
        raise InvalidArgument("number of variables must be at least 1")
    if denominator_bound < 2:
        raise InvalidArgument("denominator bound must be at least 2")
    if d <= 0:
        raise InvalidArgument(f"target dimension must be positive, got {d}")
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
    else:
        if m > 3:
            grid = tuple(islice(_farey_grid(1 / (d + 1), HALF, denominator_bound),
                                GRID_LIMIT + 1))
            if len(grid) > GRID_LIMIT:
                raise ResourceLimitExceeded(f"the tail grid at denominator bound "
                                            f"{denominator_bound} exceeds {GRID_LIMIT} points")
        if not _certified(m, sn, sd, dn, dd):
            if m == 3:
                solutions = _walk_rows(denominator_bound, sn, sd, dn, dd)
            else:
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
    while len(chain[-1]) > 1:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
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
    for a bound below 2.
    """
    if denominator_bound < 2:
        raise InvalidArgument("denominator bound must be at least 2")
    d = Fraction(d)
    delta = Fraction(delta)
    ed = delta.denominator
    quartic = _pair_quartic(6 * ed - delta.numerator, 4 * ed, d.numerator, d.denominator)
    while quartic and quartic[-1] == 0:
        quartic.pop()
    if not quartic or _sign_at(quartic, 1, 2) >= 0:
        return HALF
    # the square-free part: the same roots, each simple
    common, rest = quartic, _derivative(quartic)
    while rest:
        rem = _pseudo_divmod(common, rest)[1]
        common, rest = rest, rem and _primitive(rem)
    squarefree = _primitive(_pseudo_divmod(quartic, common)[0])
    if len(squarefree) < 2:
        return None
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


def _monomials_of_weight_one(weights: WeightSystem) -> list[tuple[int, ...]]:
    n = len(weights)
    pool = []

    def extend(prefix: list[int], remaining: Fraction) -> None:
        i = len(prefix)
        if i == n:
            if remaining == 0:
                pool.append(tuple(prefix))
            return
        q = weights[i]
        cap = int(remaining / q)
        for a in range(cap + 1):
            extend(prefix + [a], remaining - a * q)

    extend([], Fraction(1))
    return sorted((p for p in pool if any(p)), reverse=True)


def enumerate_admissible_supports(weights: WeightSystem) -> list[Polynomial]:
    """All admissible polynomials with all-ones coefficients whose monomials
    satisfy the given weights.

    Every monomial with sum(a_i q_i) = 1 enters the pool; each subset of at
    least n monomials with a unique weight solution and a nondegenerate
    all-ones representative becomes one output polynomial.  Nondegeneracy is
    only tested at coefficients one, which matches how example polynomials
    are usually written; genericity in the coefficients is not analyzed.
    """
    if any(q > HALF for q in weights):
        raise ValueError(f"weights {weights} must lie in (0, 1/2]")
    n = len(weights)
    names = _default_variables(n)
    pool = _monomials_of_weight_one(weights)
    found = []
    for size in range(n, len(pool) + 1):
        for combo in combinations(pool, size):
            candidate = Polynomial.from_term_map(names, {c: 1 for c in combo})
            if classify(candidate).is_admissible:
                found.append(candidate)
    return found
