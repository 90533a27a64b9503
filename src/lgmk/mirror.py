"""Graded mirror checks and weight-system searches.

`transpose_polynomial` lives in polycore, since it needs only `classify` and
the exponent matrix; it is re-exported here beside `mirror_check`.
`mirror_sides` computes W^T and both graded sides once; `mirror_check` and the
CLI's `mirror-check` both read them from it.

The search asks: given a target dimension d and target top degree delta, is
there a weight system (q_1..q_m), each q_i in (0, 1/2] and rational, with

    prod(1/q_i - 1) = d      and      2*sum(1 - 2 q_i) = delta?

One and two variables admit exact answers (the two-variable case reduces to
a quadratic whose discriminant must be a rational square).  From three
variables on, the tail (q_3..q_m) is enumerated over a bounded-denominator
rational grid and each tail is finished exactly, so empty results certify
nonexistence only within the stated bound.

The search runs in integer numerators and denominators.  The grid is a
stretch of the Farey sequence, walked in ascending order by its next-term
recurrence, with no set and no sort.  Each tail's product and sum, and the
pair targets left after it, stay unreduced integer fractions; pruning
compares them by cross-multiplication, and the pair is decided by its integer
discriminant and one `math.isqrt`, since N/M with M > 0 is a rational square
iff N*M is a perfect square.  A `Fraction` is built only for a solution.
`discriminant_sign_boundary` walks the same grid from the top down and stops
at the first q_3 whose discriminant, cleared of its positive denominators, is
nonnegative.  The public `solve_pair` and `reduce_to_pair` are `Fraction`
wrappers over the integer helpers the search loop calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice

from .amodel import amodel
from .errors import InvalidArgument, ResourceLimitExceeded, TailProductTooLarge
from .milnor import GradedDims, bmodel
from .polycore import Polynomial, WeightSystem, classify, transpose_polynomial
from .symmetry import gmax

HALF = Fraction(1, 2)

STATUS_FOUND = "SolutionsFound"
STATUS_NONE_EXACT = "NoneExact"
STATUS_NONE_WITHIN_BOUND = "NoneWithinBound"

GRID_LIMIT = 10**5  # the most grid points held for tails of m >= 4 variables


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

def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return Fraction(num, den)


def _pair_roots(dn: int, dd: int, sn: int, sd: int) -> list[tuple[int, int, int]]:
    """Integer core of `solve_pair` for d_pair = dn/dd >= 1 and
    s_pair = sn/sd > 0 (dd, sd > 0): each exact pair as (num1, num2, den)
    with q1 = num1/den <= q2 = num2/den, both in (0, 1/2]."""
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


def solve_pair(d_pair, s_pair) -> list[tuple[Fraction, Fraction]]:
    """All exact rational (q1, q2), q1 <= q2, both in (0, 1/2], with
    (1/q1 - 1)(1/q2 - 1) = d_pair and q1 + q2 = s_pair."""
    d = Fraction(d_pair)
    s = Fraction(s_pair)
    if d < 1:
        raise ValueError("dimension product target must be at least 1")
    if s <= 0:
        raise ValueError("weight sum target must be positive")
    return [(Fraction(low, den), Fraction(high, den)) for low, high, den in
            _pair_roots(d.numerator, d.denominator, s.numerator, s.denominator)]


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
    disc = Fraction(b * b - 4 * a * c)
    root = _rational_sqrt(disc)
    if root is None:
        return []
    roots = {(-b - root) / (2 * a), (-b + root) / (2 * a)}
    pairs = set()
    for q2 in roots:
        q1 = Fraction(2, n) - q2
        pairs.add(tuple(sorted((q1, q2))))
    return sorted(pairs)


def nfamily_pair_solutions(n: int) -> list[tuple[Fraction, Fraction]]:
    """Family-quadratic pairs surviving the (0, 1/2] filter."""
    return [(q1, q2) for q1, q2 in nfamily_quadratic_roots(n)
            if 0 < q1 <= HALF and 0 < q2 <= HALF]


# ---------------------------------------------------------------------------
# Reduction of an m-variable search to a pair problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairReduction:
    """Residual two-variable problem after fixing the tail (q_3..q_m)."""

    d_pair: Fraction
    s_pair: Fraction
    tail: tuple[Fraction, ...]


def _reduce_tail(en: int, ed: int, m: int, tail) -> tuple[int, int, int, int]:
    """Integer core of `reduce_to_pair` for delta = en/ed (ed > 0) and a tail
    of (num, den) pairs: (pn, pd, sn, sd), where pn/pd = prod(1/q_i - 1)
    over the tail and sn/sd = s_pair, with pd, sd > 0 and nothing reduced."""
    pn = pd = 1
    tn, td = 0, 1
    for num, den in tail:
        pn *= den - num
        pd *= num
        tn, td = tn * den + num * td, td * den
    return pn, pd, (2 * m * ed - en) * td - 4 * ed * tn, 4 * ed * td


def reduce_to_pair(d, delta, m: int, tail) -> PairReduction:
    """Divide the dimension product and subtract the weight sum of the tail.

    Raises TailProductTooLarge when prod(1/q_i - 1) over the tail already
    exceeds d: the remaining pair product would have to be below 1, which is
    impossible for weights in (0, 1/2]."""
    d = Fraction(d)
    delta = Fraction(delta)
    tail = tuple(Fraction(t) for t in tail)
    if len(tail) != m - 2:
        raise ValueError(f"tail must have {m - 2} entries for m = {m}")
    if any(not 0 < t <= HALF for t in tail):
        raise ValueError("tail weights must lie in (0, 1/2]")
    pn, pd, sn, sd = _reduce_tail(delta.numerator, delta.denominator, m,
                                  [(t.numerator, t.denominator) for t in tail])
    if pn * d.denominator > d.numerator * pd:
        raise TailProductTooLarge(
            f"tail product {Fraction(pn, pd)} exceeds the target {d}")
    return PairReduction(Fraction(d.numerator * pd, d.denominator * pn),
                         Fraction(sn, sd), tail)


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
    k = (max_denominator + b) // d.  The walk starts at the least term
    x = c/d >= lo, found by one pass over the denominators, and at its
    predecessor a/b, the one with c b - a d = 1 and b <= max_denominator
    largest."""
    bound = max_denominator
    c, d = 1, 0  # 1/0 lies above every candidate
    for den in range(1, bound + 1):
        num = max(-(-lo.numerator * den // lo.denominator), 1)
        if num * d < c * den:
            c, d = num, den
    b = pow(c, -1, d)
    b += (bound - b) // d * d
    a = (c * b - 1) // d
    while c * hi.denominator <= hi.numerator * d:
        yield c, d
        k = (bound + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def _tail_solutions(d: Fraction, delta: Fraction, m: int,
                    tails) -> set[tuple[Fraction, ...]]:
    dn, dd = d.numerator, d.denominator
    en, ed = delta.numerator, delta.denominator
    found = set()
    for tail in tails:
        pn, pd, sn, sd = _reduce_tail(en, ed, m, tail)
        if pn * dd > dn * pd or sn <= 0:
            continue
        for low, high, den in _pair_roots(dn * pd, dd * pn, sn, sd):
            found.add(tuple(sorted((Fraction(low, den), Fraction(high, den))
                                   + tuple(Fraction(*t) for t in tail))))
    return found


def search_weight_systems(d, delta, m: int, denominator_bound: int = 60) -> SearchReport:
    """Search for weight systems in m variables matching (d, delta).

    m = 1 and m = 2 are decided exactly; for m >= 3 the tails run over the
    bounded-denominator grid and the result is relative to that bound.
    Solutions are canonicalized ascending, so permutations collapse.  Raises
    InvalidArgument for m < 1, a bound below 2 or a dimension d <= 0, and
    ResourceLimitExceeded for m >= 4 when the grid has more than GRID_LIMIT
    points.
    """
    d = Fraction(d)
    delta = Fraction(delta)
    if m < 1:
        raise InvalidArgument("number of variables must be at least 1")
    if denominator_bound < 2:
        raise InvalidArgument("denominator bound must be at least 2")
    if d <= 0:
        raise InvalidArgument(f"target dimension must be positive, got {d}")
    solutions: set[tuple[Fraction, ...]] = set()
    if m == 1:
        q = 1 / (d + 1)
        if 0 < q <= HALF and 2 * (1 - 2 * q) == delta:
            solutions.add((q,))
    elif m == 2:
        s = (4 - delta) / 4
        if s > 0 and d >= 1:
            for q1, q2 in solve_pair(d, s):
                solutions.add((q1, q2))
    else:
        grid = _farey_grid(1 / (d + 1), HALF, denominator_bound)
        if m > 3:
            grid = tuple(islice(grid, GRID_LIMIT + 1))
            if len(grid) > GRID_LIMIT:
                raise ResourceLimitExceeded(f"the tail grid at denominator bound "
                                            f"{denominator_bound} exceeds {GRID_LIMIT} points")
        tails = zip(grid) if m == 3 else combinations_with_replacement(grid, m - 2)
        solutions = _tail_solutions(d, delta, m, tails)
    ordered = tuple(WeightSystem(sol) for sol in sorted(solutions))
    if ordered:
        status = STATUS_FOUND
    elif m <= 2:
        status = STATUS_NONE_EXACT
    else:
        status = STATUS_NONE_WITHIN_BOUND
    return SearchReport(d, delta, m, denominator_bound, ordered, status)


def discriminant_sign_boundary(d, delta, denominator_bound: int = 60) -> Fraction | None:
    """Largest grid value of q_3 where the three-variable pair quadratic has a
    nonnegative discriminant.

    With A = 1 - d/(1/q3 - 1) and B = (6 - delta)/4 - q3, the pair problem
    becomes A q1^2 - A B q1 + (B - 1) = 0, whose discriminant is
    (A B)^2 - 4 A (B - 1); the degenerate linear case A = 0 counts as 0.
    Raises InvalidArgument for a bound below 2.
    """
    if denominator_bound < 2:
        raise InvalidArgument("denominator bound must be at least 2")
    d = Fraction(d)
    delta = Fraction(delta)
    dn, dd = d.numerator, d.denominator
    en, ed = delta.numerator, delta.denominator
    # The Farey order is symmetric under q -> 1 - q, so the grid on
    # [1/2, 1 - 1/bound] read as 1 - q walks [1/bound, 1/2] from the top down.
    for rest, k in _farey_grid(HALF, 1 - Fraction(1, denominator_bound),
                               denominator_bound):
        n = k - rest  # q3 = n/k, A = an/ad, B = bn/bd with ad, bd > 0
        an, ad = dd * rest - dn * n, dd * rest
        bn, bd = (6 * ed - en) * k - 4 * ed * n, 4 * ed * k
        # disc * (ad bd)^2; it vanishes with A, as the linear case must
        if (an * bn) ** 2 >= 4 * an * ad * (bn - bd) * bd:
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
