"""Graded mirror checks and weight-system searches.

`transpose_polynomial` lives in polycore, since it needs only `classify` and
the exponent matrix; it is re-exported here beside `mirror_check`.

The search asks: given a target dimension d and target top degree delta, is
there a weight system (q_1..q_m), each q_i in (0, 1/2] and rational, with

    prod(1/q_i - 1) = d      and      2*sum(1 - 2 q_i) = delta?

One and two variables admit exact answers (the two-variable case reduces to
a quadratic whose discriminant must be a rational square).  From three
variables on, the tail (q_3..q_m) is enumerated over a bounded-denominator
rational grid and each tail is finished exactly, so empty results certify
nonexistence only within the stated bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .amodel import amodel
from .errors import InvalidArgument, TailProductTooLarge
from .milnor import bmodel
from .polycore import Polynomial, WeightSystem, classify, transpose_polynomial
from .symmetry import gmax

HALF = Fraction(1, 2)

STATUS_FOUND = "SolutionsFound"
STATUS_NONE_EXACT = "NoneExact"
STATUS_NONE_WITHIN_BOUND = "NoneWithinBound"


# ---------------------------------------------------------------------------
# The graded mirror check
# ---------------------------------------------------------------------------

def mirror_check(poly: Polynomial) -> bool:
    """True iff the state space of (W, Gmax) matches the Milnor ring of W^T
    as graded vector spaces, exactly."""
    partner = transpose_polynomial(poly)
    a_side = amodel(poly, gmax(poly)).graded
    b_side = bmodel(partner).graded
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


def solve_pair(d_pair, s_pair) -> list[tuple[Fraction, Fraction]]:
    """All exact rational (q1, q2), q1 <= q2, both in (0, 1/2], with
    (1/q1 - 1)(1/q2 - 1) = d_pair and q1 + q2 = s_pair."""
    d = Fraction(d_pair)
    s = Fraction(s_pair)
    if d < 1:
        raise ValueError("dimension product target must be at least 1")
    if s <= 0:
        raise ValueError("weight sum target must be positive")
    if d == 1:
        # both factors are >= 1 on (0, 1/2], so each must equal 1
        candidates = [(HALF, HALF)] if s == 1 else []
    else:
        # q1 q2 = (1 - s)/(d - 1); q1, q2 are the roots of t^2 - s t + p
        p = (1 - s) / (d - 1)
        root = _rational_sqrt(s * s - 4 * p)
        if root is None:
            return []
        candidates = [((s - root) / 2, (s + root) / 2)]
    return [(q1, q2) for q1, q2 in candidates
            if 0 < q1 <= HALF and 0 < q2 <= HALF]


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
    tail_product = Fraction(1)
    for t in tail:
        tail_product *= 1 / t - 1
    if tail_product > d:
        raise TailProductTooLarge(
            f"tail product {tail_product} exceeds the target {d}")
    s_pair = Fraction(2 * m, 4) - delta / 4 - sum(tail, Fraction(0))
    return PairReduction(d / tail_product, s_pair, tail)


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


def _rational_grid(lo: Fraction, hi: Fraction, max_denominator: int) -> list[Fraction]:
    values = set()
    for den in range(1, max_denominator + 1):
        num_lo = math.ceil(lo * den)
        num_hi = math.floor(hi * den)
        for num in range(max(num_lo, 1), num_hi + 1):
            values.add(Fraction(num, den))
    return sorted(values)


def _tail_solutions(d: Fraction, delta: Fraction, m: int,
                    tails) -> set[tuple[Fraction, ...]]:
    found = set()
    for tail in tails:
        try:
            reduced = reduce_to_pair(d, delta, m, tail)
        except TailProductTooLarge:
            continue
        if reduced.s_pair <= 0:
            continue
        for q1, q2 in solve_pair(reduced.d_pair, reduced.s_pair):
            found.add(tuple(sorted((q1, q2) + tail)))
    return found


def search_weight_systems(d, delta, m: int, denominator_bound: int = 60,
                          threads: int = 1) -> SearchReport:
    """Search for weight systems in m variables matching (d, delta).

    m = 1 and m = 2 are decided exactly; for m >= 3 the tails run over the
    bounded-denominator grid and the result is relative to that bound.
    Solutions are canonicalized ascending, so permutations collapse.  Raises
    InvalidArgument for m < 1, a bound below 2 or a dimension d <= 0.
    `threads` is accepted for compatibility and does not change how the work
    runs.
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
        lo = 1 / (d + 1)
        grid = _rational_grid(lo, HALF, denominator_bound)
        solutions = _tail_solutions(d, delta, m, combinations_with_replacement(grid, m - 2))
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
    best = None
    for q3 in _rational_grid(Fraction(1, denominator_bound), HALF, denominator_bound):
        factor = 1 / q3 - 1
        a = 1 - d / factor
        b = Fraction(6, 4) - delta / 4 - q3
        disc = Fraction(0) if a == 0 else (a * b) ** 2 - 4 * a * (b - 1)
        if disc >= 0 and (best is None or q3 > best):
            best = q3
    return best


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
