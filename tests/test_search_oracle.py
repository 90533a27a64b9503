"""The integer search kernel against the earlier `Fraction` route.

The oracle below keeps the earlier implementation verbatim: the grid built
as a set of `Fraction`s and sorted, each tail reduced by `reduce_to_pair` and
finished by `solve_pair` in `Fraction` arithmetic, and the discriminant
boundary found by scanning the whole grid.  On paper-family and planted
targets the integer kernel must give the same solutions, status and
boundary; the public per-tail functions must give the same values and
errors; and the Farey walk must give the same grid, whose length over (0, 1]
is also checked against an independent count.  The three-variable search
sieves its rows by quadratic residues before the exact pair test, so it is
also compared at bounds 150-220, on targets whose pair is (1/2, 1/2), on
weight sums over the sieve primes, and on tails in rows a sieving prime
divides; and the sieve itself must drop only points with no pair.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import TailProductTooLarge, mirror
from lgmk.mirror import (
    STATUS_FOUND,
    STATUS_NONE_WITHIN_BOUND,
    _farey_grid,
    _pair_quartic,
    _pair_roots,
    _row_sieves,
    discriminant_sign_boundary,
    reduce_to_pair,
    search_weight_systems,
    solve_pair,
)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# The oracle: the earlier Fraction route
# ---------------------------------------------------------------------------

def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num != value.numerator or den * den != value.denominator:
        return None
    return Fraction(num, den)


def oracle_solve_pair(d_pair, s_pair) -> list[tuple[Fraction, Fraction]]:
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


@dataclass(frozen=True)
class OraclePairReduction:
    d_pair: Fraction
    s_pair: Fraction
    tail: tuple[Fraction, ...]


def oracle_reduce_to_pair(d, delta, m: int, tail) -> OraclePairReduction:
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
    return OraclePairReduction(d / tail_product, s_pair, tail)


def oracle_rational_grid(lo: Fraction, hi: Fraction, max_denominator: int) -> list[Fraction]:
    values = set()
    for den in range(1, max_denominator + 1):
        num_lo = math.ceil(lo * den)
        num_hi = math.floor(hi * den)
        for num in range(max(num_lo, 1), num_hi + 1):
            values.add(Fraction(num, den))
    return sorted(values)


def oracle_tail_solutions(d: Fraction, delta: Fraction, m: int,
                          tails) -> set[tuple[Fraction, ...]]:
    found = set()
    for tail in tails:
        try:
            reduced = oracle_reduce_to_pair(d, delta, m, tail)
        except TailProductTooLarge:
            continue
        if reduced.s_pair <= 0:
            continue
        for q1, q2 in oracle_solve_pair(reduced.d_pair, reduced.s_pair):
            found.add(tuple(sorted((q1, q2) + tail)))
    return found


def oracle_search(d, delta, m: int, denominator_bound: int):
    """Solutions and status of the earlier search, for m >= 3."""
    d = Fraction(d)
    delta = Fraction(delta)
    lo = 1 / (d + 1)
    grid = oracle_rational_grid(lo, HALF, denominator_bound)
    solutions = oracle_tail_solutions(d, delta, m,
                                      combinations_with_replacement(grid, m - 2))
    ordered = tuple(sorted(solutions))
    return ordered, STATUS_FOUND if ordered else STATUS_NONE_WITHIN_BOUND


def oracle_boundary(d, delta, denominator_bound: int) -> Fraction | None:
    d = Fraction(d)
    delta = Fraction(delta)
    best = None
    for q3 in oracle_rational_grid(Fraction(1, denominator_bound), HALF, denominator_bound):
        factor = 1 / q3 - 1
        a = 1 - d / factor
        b = Fraction(6, 4) - delta / 4 - q3
        disc = Fraction(0) if a == 0 else (a * b) ** 2 - 4 * a * (b - 1)
        if disc >= 0 and (best is None or q3 > best):
            best = q3
    return best


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def target_of(weights) -> tuple[Fraction, Fraction]:
    d = Fraction(1)
    for q in weights:
        d *= 1 / q - 1
    return d, 2 * sum(1 - 2 * q for q in weights)


@st.composite
def weights_in_range(draw, count: int, max_denominator: int):
    """`count` rationals in (0, 1/2] with denominators 2..max_denominator."""
    out = []
    for _ in range(count):
        den = draw(st.integers(2, max_denominator))
        out.append(Fraction(draw(st.integers(1, den // 2)), den))
    return out


@st.composite
def search_cases(draw, m: int, max_bound: int):
    """(d, delta, m, bound): a paper-family target, or one planted from m
    weights whose denominators may exceed the bound by up to a factor 2."""
    bound = draw(st.integers(2, max_bound))
    if draw(st.booleans()):
        n = draw(st.integers(4, 20))
        return Fraction(2 * n - 2), Fraction(2 * (2 * n - 4), n), m, bound
    d, delta = target_of(draw(weights_in_range(m, 2 * bound)))
    return d, delta, m, bound


def assert_search_matches(case) -> None:
    d, delta, m, bound = case
    report = search_weight_systems(d, delta, m, denominator_bound=bound)
    solutions, status = oracle_search(d, delta, m, bound)
    assert tuple(tuple(ws) for ws in report.solutions) == solutions
    assert report.status == status


# ---------------------------------------------------------------------------
# The search and the boundary
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(search_cases(3, 120))
def test_three_variable_search_matches_oracle(case):
    assert_search_matches(case)
    d, delta, _, bound = case
    assert discriminant_sign_boundary(d, delta, bound) == oracle_boundary(d, delta, bound)


@settings(max_examples=4, deadline=None)
@given(st.integers(150, 220).flatmap(
    lambda bound: weights_in_range(3, 2 * bound).map(lambda w: (*target_of(w), 3, bound))))
def test_three_variable_search_matches_oracle_at_large_bounds(case):
    assert_search_matches(case)


@pytest.mark.parametrize("bound", [2, 3, 9, 60])
@pytest.mark.parametrize("tail", [HALF, Fraction(1, 3), Fraction(2, 7), Fraction(1, 60)])
def test_pair_of_halves_matches_oracle(tail, bound):
    # the tail's factor is the whole product target, so e = 0 and the pair
    # is (1/2, 1/2); the tail 1/2 is the target (1, 0)
    assert_search_matches((*target_of([tail, HALF, HALF]), 3, bound))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 5, 7), (11, 13, 4), (15, 21, 35), (3, 11, 13),
                        (17, 19, 6), (23, 29, 31), (37, 41, 43)]),
       st.integers(30, 150), st.data())
def test_weight_sums_over_sieve_primes_match_oracle(dens, bound, data):
    # d and the weight sum carry the primes of the denominators, which then
    # cannot sieve; the primes left must still keep every solution
    weights = [Fraction(data.draw(st.integers(1, den // 2)), den) for den in dens]
    assert_search_matches((*target_of(weights), 3, bound))


@pytest.mark.parametrize("weights, prime", [
    ((Fraction(23, 120), Fraction(58, 119), Fraction(22, 45)), 5),
    ((Fraction(2, 15), Fraction(17, 70), Fraction(29, 90)), 5),
    ((Fraction(17, 96), Fraction(10, 39), Fraction(56, 141)), 3),
    ((Fraction(3, 55), Fraction(11, 65), Fraction(33, 146)), 5),
    ((Fraction(7, 71), Fraction(9, 65), Fraction(12, 55)), 5),
])
def test_tail_in_a_row_the_prime_divides_matches_oracle(weights, prime):
    # one weight has a denominator within the bound 60, a multiple of a
    # prime that sieves the walk, so only that row, which the prime leaves
    # alone, can find the solution
    d, delta = target_of(weights)
    sn, sd = 6 * delta.denominator - delta.numerator, 4 * delta.denominator
    sieves = _row_sieves(60, sn, sd, d.numerator, d.denominator)
    assert prime in [p for p, _ in sieves]
    report = search_weight_systems(d, delta, 3, denominator_bound=60)
    assert weights in [tuple(ws) for ws in report.solutions]
    assert_search_matches((d, delta, 3, 60))


@settings(max_examples=60, deadline=None)
@given(search_cases(3, 60))
def test_sieve_drops_only_points_without_a_pair(case):
    """F (`_pair_quartic`) is a perfect square wherever `_pair_roots` finds a
    pair; a point a prime's residues drop has F a nonresidue mod p and no
    pair; and F is a square mod p on every row p divides.  The primes are
    those a walk to bound 10^6 would try, the whole pool."""
    d, delta, _, bound = case
    sn, sd = 6 * delta.denominator - delta.numerator, 4 * delta.denominator
    dn, dd = d.numerator, d.denominator
    sieves = [(p, good, {u * u % p for u in range(p)})
              for p, good in _row_sieves(10**6, sn, sd, dn, dd)]
    for b in range(2, bound + 1):
        for a in range(1, b // 2 + 1):
            quartic = _pair_quartic(a, b, sn, sd, dn, dd)
            walked = 1 / (d + 1) <= Fraction(a, b) < (6 - delta) / 4
            pair = walked and _pair_roots(dn * a, dd * (b - a), sn * b - sd * a, sd * b)
            if pair:
                assert math.isqrt(quartic) ** 2 == quartic
            for p, good, squares in sieves:
                square = quartic % p in squares
                if b % p == 0:
                    assert square
                elif a * pow(b, -1, p) % p not in good:
                    assert not square and not pair


def test_sieve_leaves_few_numerators_to_the_pair_solver(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _pair_roots(*args)

    monkeypatch.setattr(mirror, "_pair_roots", counted)
    d, delta = target_of([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
    assert_search_matches((d, delta, 3, 200))
    weight_sum = (6 - delta) / 4
    numerators = sum(1 / (d + 1) <= Fraction(a, b) < weight_sum
                     for b in range(2, 201) for a in range(1, b // 2 + 1))
    assert 0 < len(calls) < numerators / 20


@settings(max_examples=30, deadline=None)
@given(search_cases(4, 24))
def test_four_variable_search_matches_oracle(case):
    assert_search_matches(case)


@settings(max_examples=30, deadline=None)
@given(search_cases(5, 8))
def test_five_variable_search_matches_oracle(case):
    assert_search_matches(case)


@pytest.mark.parametrize("n", range(4, 13))
def test_paper_family_matches_oracle(n):
    d, delta = Fraction(2 * n - 2), Fraction(2 * (2 * n - 4), n)
    assert_search_matches((d, delta, 3, 60))
    assert_search_matches((d, delta, 4, 16))
    for bound in (2, 9, 60, 120):
        assert discriminant_sign_boundary(d, delta, bound) == oracle_boundary(d, delta, bound)


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40),
       st.fractions(min_value=-2, max_value=6, max_denominator=40),
       st.integers(2, 160))
def test_boundary_matches_oracle_on_arbitrary_targets(d, delta, bound):
    assert discriminant_sign_boundary(d, delta, bound) == oracle_boundary(d, delta, bound)


# ---------------------------------------------------------------------------
# The public per-tail functions
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_pair_matches_oracle(data):
    if data.draw(st.booleans()):
        d_pair, s_pair = target_of(data.draw(weights_in_range(2, 60)))
        s_pair = (4 - s_pair) / 4
    else:
        d_pair = data.draw(st.fractions(min_value=1, max_value=60, max_denominator=30))
        s_pair = data.draw(st.fractions(min_value=Fraction(1, 30), max_value=2,
                                        max_denominator=30))
    assert solve_pair(d_pair, s_pair) == oracle_solve_pair(d_pair, s_pair)


@pytest.mark.parametrize("d_pair, s_pair", [(Fraction(1, 2), 1), (2, 0), (2, -1)])
def test_solve_pair_errors_match_oracle(d_pair, s_pair):
    with pytest.raises(ValueError) as new:
        solve_pair(d_pair, s_pair)
    with pytest.raises(ValueError) as old:
        oracle_solve_pair(d_pair, s_pair)
    assert str(new.value) == str(old.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.data())
def test_reduce_to_pair_matches_oracle(m, data):
    tail = data.draw(weights_in_range(m - 2, 40))
    d = data.draw(st.fractions(min_value=Fraction(1, 10), max_value=2000, max_denominator=20))
    delta = data.draw(st.fractions(min_value=-4, max_value=12, max_denominator=20))
    try:
        expected = oracle_reduce_to_pair(d, delta, m, tail)
    except TailProductTooLarge as error:
        with pytest.raises(TailProductTooLarge) as new:
            reduce_to_pair(d, delta, m, tail)
        assert str(new.value) == str(error)
        return
    reduced = reduce_to_pair(d, delta, m, tail)
    assert (reduced.d_pair, reduced.s_pair, reduced.tail) == (
        expected.d_pair, expected.s_pair, expected.tail)


# ---------------------------------------------------------------------------
# The Farey grid
# ---------------------------------------------------------------------------

def assert_grid_matches(lo: Fraction, hi: Fraction, bound: int) -> None:
    expected = [(q.numerator, q.denominator) for q in oracle_rational_grid(lo, hi, bound)]
    assert list(_farey_grid(lo, hi, bound)) == expected


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-1, max_value=2, max_denominator=60),
       st.fractions(min_value=-1, max_value=2, max_denominator=60),
       st.integers(1, 40))
def test_farey_grid_matches_sorted_set(lo, hi, bound):
    assert_grid_matches(lo, hi, bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.data())
def test_farey_grid_start_matches_brute_force(bound, data):
    # lo often has a denominator above the bound; the short stretch checks the start
    lo = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=4 * bound))
    hi = lo + data.draw(st.fractions(min_value=0, max_value=Fraction(1, 4),
                                     max_denominator=4 * bound))
    assert_grid_matches(lo, hi, bound)


@pytest.mark.parametrize("lo, hi, bound", [
    (Fraction(3, 23), HALF, 20),          # lo has a denominator above the bound
    (Fraction(1, 61), HALF, 60),
    (Fraction(2, 3), HALF, 30),           # lo > hi: d = 1/2 gives an empty grid
    (HALF, HALF, 2),                      # hi = 1/2 exactly, bound 2
    (Fraction(1, 3), HALF, 2),
    (Fraction(1, 1000), HALF, 2),
    (Fraction(1, 2), Fraction(1, 2), 7),
    (Fraction(5, 11), Fraction(6, 13), 10),  # no grid point in between
    (Fraction(1), Fraction(2), 5),        # lo and hi integers
    (Fraction(3, 2), Fraction(2), 60),
    (Fraction(-1, 2), Fraction(1, 10), 9),
])
def test_farey_grid_edges(lo, hi, bound):
    assert_grid_matches(lo, hi, bound)


@pytest.mark.parametrize("bound", [1, 2, 3, 10, 57, 200])
def test_farey_grid_length_is_the_totient_sum(bound):
    phi = [sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)
           for k in range(1, bound + 1)]
    grid = list(_farey_grid(Fraction(1, bound + 1), Fraction(1), bound))
    assert len(grid) == sum(phi)
    assert grid[0] == (1, bound) and grid[-1] == (1, 1)
