"""The integer search kernel against the earlier `Fraction` route.

The oracle below keeps the earlier implementation verbatim: the one- and
two-variable answers in `Fraction` arithmetic, the grid built as a set of
`Fraction`s and sorted, each tail reduced by `reduce_to_pair` and finished
by `solve_pair` in `Fraction` arithmetic, and the discriminant boundary
found by scanning the whole grid.  On paper-family, planted and arbitrary
targets the integer kernel must give the same solutions, status and
boundary; the integer pair solver `_pair_roots` must give the oracle's
pairs on unreduced inputs; the pair quartic that the sieve and the boundary
read must be the integer the pair solver tests; and the Farey walk must give
the same grid, whose length over (0, 1] is also checked against an
independent count.  The three-variable search
sieves its numerator columns by quadratic residues before the exact pair
test, so it is also compared at bounds 150-220, on targets whose pair is
(1/2, 1/2), on weight sums over the sieve primes, on tails whose
denominator a sieving prime divides, and with tiles so short that columns
are sieved in pieces; the sieve itself must drop only points with no pair,
and its column patterns must be the good ratios mod p.  From
four variables on, the last tail entry is sieved the same way, so the
search is also compared on tails whose entries lie in the classes 0, 1 and
infinity of a sieving prime, and whose level sums and products reach 0,
infinity and 0/0 mod p; and its memo must stay within (p + 2)^2 quartics per
prime.
"""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmk import TailProductTooLarge, mirror
from lgmk.mirror import (
    STATUS_FOUND,
    STATUS_NONE_EXACT,
    STATUS_NONE_WITHIN_BOUND,
    _farey_grid,
    _pair_quartic,
    _pair_roots,
    _row_sieves,
    _sieve_primes,
    _square_residues,
    discriminant_sign_boundary,
    search_weight_systems,
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
    """Solutions and status of the earlier search."""
    d = Fraction(d)
    delta = Fraction(delta)
    if m <= 2:
        solutions = set()
        if m == 1:
            q = 1 / (d + 1)
            if 0 < q <= HALF and 2 * (1 - 2 * q) == delta:
                solutions.add((q,))
        else:
            s = (4 - delta) / 4
            if s > 0 and d >= 1:
                solutions.update(oracle_solve_pair(d, s))
        ordered = tuple(sorted(solutions))
        return ordered, STATUS_FOUND if ordered else STATUS_NONE_EXACT
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


def quartic_at(coefficients: list[int], a: int, b: int) -> int:
    """sum c_k a^k b^(4 - k), the homogeneous quartic at (a, b)."""
    return sum(c * a**k * b ** (4 - k) for k, c in enumerate(coefficients))


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
    ((Fraction(27, 109), Fraction(9, 20), Fraction(66, 145)), 5),
    ((Fraction(2, 15), Fraction(17, 70), Fraction(29, 90)), 5),
    ((Fraction(1, 36), Fraction(23, 117), Fraction(29, 141)), 3),
    ((Fraction(21, 145), Fraction(19, 80), Fraction(2, 5)), 5),
    ((Fraction(2, 15), Fraction(31, 135), Fraction(33, 80)), 5),
    ((Fraction(3, 14), Fraction(23, 101), Fraction(29, 126)), 7),
])
def test_tail_in_a_row_the_prime_divides_matches_oracle(weights, prime):
    # one weight has a denominator within the bound 60, a multiple of a
    # prime that sieves the walk, so only that denominator, which the
    # prime leaves alone, can find the solution
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
    coefficients = _pair_quartic(sn, sd, dn, dd)
    for b in range(2, bound + 1):
        for a in range(1, b // 2 + 1):
            quartic = quartic_at(coefficients, a, b)
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


@pytest.mark.parametrize("p", sorted(mirror._SIEVE_SQUARES))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_row_table_slices_are_the_dilated_residues(p, data):
    """Slice r of the OR of a prime's `_dilations` lines over `good` is the
    pattern sum(1 << u r mod p for u in good) for b = r mod p, for every r
    in 1..p - 1, on a drawn set, on the empty set and {0}, and on the set of
    all residues but a drawn one."""
    drawn = data.draw(st.sets(st.integers(0, p - 1)))
    left_out = data.draw(st.integers(0, p - 1))
    lines = mirror._dilations(p)
    for good in [drawn, set(), {0}, set(range(p)) - {left_out}]:
        table = 0
        for u in good:
            table |= lines[u]
        assert table >> p * p == 0 and table & (1 << p) - 1 == 0
        for r in range(1, p):
            assert table >> r * p & (1 << p) - 1 == sum(1 << u * r % p for u in good)


@pytest.mark.parametrize("p", sorted(mirror._SIEVE_SQUARES))
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_column_patterns_are_the_residues_whose_ratio_is_good(p, data):
    """Pattern s of `_column_patterns`, for the numerators a = s mod p, has
    bit t for the denominators b = t mod p with t = 0 or s t^-1 mod p good,
    for every s in 0..p - 1, on a drawn set, on the empty set and {0}, and
    on the set of all residues but a drawn one."""
    drawn = data.draw(st.sets(st.integers(0, p - 1)))
    left_out = data.draw(st.integers(0, p - 1))
    inverse = [0] + [pow(t, -1, p) for t in range(1, p)]
    for good in [drawn, set(), {0}, set(range(p)) - {left_out}]:
        patterns = mirror._column_patterns(p, sorted(good))
        assert len(patterns) == p
        for s in range(p):
            assert patterns[s] == sum(1 << t for t in range(p)
                                      if t == 0 or s * inverse[t] % p in good)


def _patched(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace mirror's function `name` by its source with its one `old`
    replaced by `new`, run in a copy of mirror's namespace."""
    source = inspect.getsource(getattr(mirror, name))
    assert source.count(old) == 1
    namespace = dict(vars(mirror))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(mirror, name, namespace[name])


def test_rows_read_through_inverted_dilations_fail_the_oracle(monkeypatch):
    # lines built with u r^-1 in place of u r put s^-1 u^-1 where s u^-1
    # belongs in slice s, so the columns of a = s mod p read the pattern of
    # a = s^-1 and the walk sieves solutions away
    _patched(monkeypatch, "_dilations", "u * r % p", "u * pow(r, -1, p) % p")
    d, delta = target_of([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
    with pytest.raises(AssertionError):
        assert_search_matches((d, delta, 3, 200))


def test_columns_read_through_the_row_lines_fail_the_oracle(monkeypatch):
    # the lines at u in place of u^-1 give slice s the row pattern of
    # b = s mod p, the numerators u s, so the walk sieves solutions away
    _patched(monkeypatch, "_column_patterns", "lines[pow(u, -1, p)]", "lines[u]")
    d, delta = target_of([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
    with pytest.raises(AssertionError):
        assert_search_matches((d, delta, 3, 200))


@settings(max_examples=4, deadline=None)
@given(st.integers(60, 200).flatmap(
    lambda bound: weights_in_range(3, 2 * bound).map(lambda w: (*target_of(w), 3, bound))))
def test_columns_sieved_in_pieces_match_oracle(case):
    # with tiles of 5 bits and a period, every column longer than 5 is
    # sieved in pieces, each starting at its own residue mod p
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mirror, "_TILE_BITS", 5)
        assert_search_matches(case)


def test_pieces_aligned_at_the_column_start_fail_the_oracle(monkeypatch):
    # each piece reading the tiles shifted by its column's first denominator
    # mod p, not its own, sieves the pieces after the first wrongly
    monkeypatch.setattr(mirror, "_TILE_BITS", 5)
    d, delta = target_of([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
    assert_search_matches((d, delta, 3, 200))
    _patched(monkeypatch, "_walk_columns", "start % p", "lo % p")
    with pytest.raises(AssertionError):
        assert_search_matches((d, delta, 3, 200))


def test_a_long_column_is_tiled_within_the_cap(monkeypatch):
    """Three weights 1/1500000 at bound 600,000 make one column of 100,000
    denominators.  Tiled to at most _TILE_BITS and a period, a prime's
    tiles hold at most p (_TILE_BITS + p) bits, and the walk's traced peak
    stays below twice their sum; tiles as long as the column exceed it."""
    d, delta = target_of([Fraction(1, 1500000)] * 3)
    bound = 600_000
    sn, sd = 6 * delta.denominator - delta.numerator, 4 * delta.denominator
    primes = [p for p, _ in _row_sieves(bound, sn, sd, d.numerator, d.denominator)]
    limit = 2 * sum(p * (mirror._TILE_BITS + p) for p in primes) // 8

    def peak() -> int:
        # a first walk builds the primes' `_dilations` lines outside the trace
        search_weight_systems(d, delta, 3, denominator_bound=bound)
        tracemalloc.start()
        try:
            search_weight_systems(d, delta, 3, denominator_bound=bound)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < limit
    monkeypatch.setattr(mirror, "_TILE_BITS", bound)
    assert peak() > limit


def test_importing_lgmk_builds_no_row_table():
    # the lines are built when a walk first sieves by a prime, never at import
    d, delta = target_of([Fraction(1, 5), Fraction(1, 4), Fraction(1, 3)])
    code = ("import lgmk.cli\n"
            "from lgmk import mirror\n"
            "assert mirror._dilations.cache_info().currsize == 0\n"
            f"mirror.search_weight_systems('{d}', '{delta}', 3, denominator_bound=60)\n"
            "print(mirror._dilations.cache_info().currsize)")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(mirror.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src_dir), timeout=60)
    assert done.returncode == 0, done.stderr
    # one table per prime the walk sieves by
    sn, sd = 6 * delta.denominator - delta.numerator, 4 * delta.denominator
    sieves = _row_sieves(60, sn, sd, d.numerator, d.denominator)
    assert sieves and done.stdout == f"{len(sieves)}\n"


# Planted weight systems in four and five variables and bounds that hold
# them.  Between them, their weights fall in the classes 0, 1 and infinity
# of P^1(F_p) for a prime p that sieves their walks (3 in the first, fourth
# and fifth, 5 in the second and sixth), which a test below checks; the
# third holds the pair (1/2, 1/2), whose quartic is 0.
TAIL_SIEVE_CASES = [
    ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(3, 7)), 13),
    ((Fraction(1, 5), Fraction(2, 7), Fraction(5, 14), Fraction(7, 15)), 22),
    ((Fraction(1, 7), Fraction(2, 5), HALF, HALF), 20),
    ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(3, 7), HALF), 12),
    ((Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(3, 8), HALF), 10),
    ((Fraction(1, 7), Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(2, 5)), 10),
]


def tail_sieve_primes(weights) -> list[int]:
    """The primes that sieve the last tail entry of the walk for `weights`."""
    d, delta = target_of(weights)
    return _sieve_primes(mirror._TAIL_SIEVE_PRIMES, 4 * delta.denominator,
                         d.numerator, d.denominator)


@pytest.mark.parametrize("weights, bound", TAIL_SIEVE_CASES)
def test_tails_in_every_sieve_class_match_oracle(weights, bound):
    d, delta = target_of(weights)
    report = search_weight_systems(d, delta, len(weights), denominator_bound=bound)
    assert weights in [tuple(ws) for ws in report.solutions]
    assert_search_matches((d, delta, len(weights), bound))


def test_tail_sieve_cases_reach_every_class(monkeypatch):
    """The cases put an entry in each class 0, 1 and infinity of a prime
    their walks sieve by, and their walks reach level sums and products
    whose ratio mod p is 0, infinity and 0/0, read off the reduced
    arguments of the quartic the memo computes."""
    entry_classes = set()
    for weights, _ in TAIL_SIEVE_CASES:
        for p in tail_sieve_primes(weights):
            entry_classes |= {q.numerator * pow(q.denominator, -1, p) % p
                              if q.denominator % p else "infinity" for q in weights}
    assert {0, 1, "infinity"} <= entry_classes
    ratios = {"sum": set(), "product": set()}

    def recorded(sn, sd, dn, dd):
        for name, x, y in (("sum", sn, sd), ("product", dn, dd)):
            ratios[name].add("0/0" if x == y == 0 else "infinity" if y == 0 else
                             0 if x == 0 else "unit")
        return _pair_quartic(sn, sd, dn, dd)

    monkeypatch.setattr(mirror, "_pair_quartic", recorded)
    for weights, bound in TAIL_SIEVE_CASES:
        d, delta = target_of(weights)
        search_weight_systems(d, delta, len(weights), denominator_bound=bound)
    assert ratios["sum"] >= {0, "infinity", "0/0"}
    assert ratios["product"] >= {0, "infinity", "0/0"}


def test_tail_sieve_memo_holds_at_most_p_plus_2_squared_masks(monkeypatch):
    # a walk reduces the quartic mod p once per pair of classes of the level's
    # sum and product in P^1(F_p) or 0/0: at most (p + 2)^2 times
    for weights, bound in TAIL_SIEVE_CASES:
        calls = {}

        def counted(quartic, p):
            calls[p] = calls.get(p, 0) + 1
            return _square_residues(quartic, p)

        monkeypatch.setattr(mirror, "_square_residues", counted)
        d, delta = target_of(weights)
        search_weight_systems(d, delta, len(weights), denominator_bound=bound)
        assert set(calls) == set(tail_sieve_primes(weights))
        assert all(count <= (p + 2) ** 2 for p, count in calls.items())


def test_tail_sieve_leaves_few_entries_to_the_pair_solver(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _pair_roots(*args)

    monkeypatch.setattr(mirror, "_pair_roots", counted)
    weights = (Fraction(1, 5), Fraction(1, 4), Fraction(2, 7), Fraction(1, 3))
    d, delta = target_of(weights)
    assert_search_matches((d, delta, 4, 24))
    # the tails (s, t) the unsieved loop could hand the pair: product left
    # at least 1 and a positive sum left
    weight_sum = (8 - delta) / 4
    grid = [Fraction(*t) for t in _farey_grid(1 / (d + 1), HALF, 24)]
    tails = sum((1 / s - 1) * (1 / t - 1) <= d and s + t < weight_sum
                for i, s in enumerate(grid) for t in grid[i:])
    assert 0 < len(calls) < tails / 8


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
# One and two variables, the pair solver and the pair quartic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_and_two_variable_search_matches_oracle(m, data):
    # planted targets, which have a solution, or arbitrary ones, with d
    # below 1 and delta negative or past the pair's range among them
    if data.draw(st.booleans()):
        d, delta = target_of(data.draw(weights_in_range(m, 120)))
    else:
        d = data.draw(st.fractions(min_value=Fraction(1, 40), max_value=60,
                                   max_denominator=40))
        delta = data.draw(st.fractions(min_value=-4, max_value=6, max_denominator=40))
    assert_search_matches((d, delta, m, data.draw(st.integers(2, 60))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_roots_matches_oracle(data):
    if data.draw(st.booleans()):
        d_pair, s_pair = target_of(data.draw(weights_in_range(2, 60)))
        s_pair = (4 - s_pair) / 4
    else:
        d_pair = data.draw(st.one_of(
            st.just(Fraction(1)),
            st.fractions(min_value=1, max_value=60, max_denominator=30)))
        s_pair = data.draw(st.fractions(min_value=Fraction(1, 30), max_value=2,
                                        max_denominator=30))
    # the walks pass products and sums unreduced
    k, j = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    roots = _pair_roots(k * d_pair.numerator, k * d_pair.denominator,
                        j * s_pair.numerator, j * s_pair.denominator)
    assert [(Fraction(low, den), Fraction(high, den)) for low, high, den in roots] == \
        oracle_solve_pair(d_pair, s_pair)


@pytest.mark.parametrize("d_pair, s_pair", [(Fraction(1, 2), 1), (2, 0), (2, -1)])
def test_pair_targets_the_oracle_rejects_have_no_pair(d_pair, s_pair):
    # the earlier solver refused a product below 1 or a sum that is not
    # positive; the two-variable search reports such a target as NoneExact
    with pytest.raises(ValueError):
        oracle_solve_pair(d_pair, s_pair)
    report = search_weight_systems(d_pair, 4 - 4 * Fraction(s_pair), 2)
    assert report.solutions == ()
    assert report.status == STATUS_NONE_EXACT


@settings(max_examples=300, deadline=None)
@given(st.fractions(min_value=Fraction(1, 40), max_value=60, max_denominator=40),
       st.fractions(min_value=-6, max_value=8, max_denominator=40),
       st.integers(1, 6), st.integers(1, 200), st.data())
def test_pair_quartic_is_what_the_pair_solver_tests(d, delta, k, b, data):
    """For q3 = a/b the quartic is n e, the integer `_pair_roots` tests for
    a perfect square: with the pair's product D = pn/pd, e = pn - pd, and
    sum s = tn/td, the pair's discriminant s^2 - 4 (1 - s)/(D - 1) is
    n / (td^2 e)."""
    a = data.draw(st.integers(-b, b - 1))
    # the walk's weight sum (6 - delta)/4, unreduced, and scaled by k
    sn, sd = k * (6 * delta.denominator - delta.numerator), k * 4 * delta.denominator
    dn, dd = d.numerator, d.denominator
    coefficients = _pair_quartic(sn, sd, dn, dd)
    assert len(coefficients) == 5
    pn, pd, tn, td = dn * a, dd * (b - a), sn * b - sd * a, sd * b
    e = pn - pd
    if e == 0:
        expected = 0
    else:
        s, product = Fraction(tn, td), Fraction(pn, pd)
        expected = td * td * e * e * (s * s - 4 * (1 - s) / (product - 1))
    assert quartic_at(coefficients, a, b) == expected


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
