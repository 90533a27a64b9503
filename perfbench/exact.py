"""Exact arithmetic the benchmark uses to check lgmk's outputs on its own.

Nothing here imports lgmk: weights, determinants, Poincare series, diagonal
symmetry groups and a nondegeneracy certificate are all computed from the
exponent matrices and coefficients the generator chose.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

# A prime below 2^31, so a product of two residues fits in a signed int64.
PRIME = 2_147_483_647


def solve_weights(rows) -> tuple[Fraction, ...]:
    """The unique q with A.q = (1, ..., 1) for a square nonsingular A."""
    return tuple(_solve(rows, [1] * len(rows)))


def det(rows) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def milnor_series(weights) -> dict[str, int]:
    """Graded dimensions of the Milnor ring, keyed like lgmk's JSON tables.

    Expands prod (1 - T^(1-q_i)) / (1 - T^(q_i)) in integers, with T^(1/D)
    as the variable for D the common denominator; the degree of T^k is
    reported as 2k/D, which is lgmk's B-side grading.
    """
    den, ws = _integer_weights(weights)
    numerator = [1]
    for w in ws:
        numerator = _poly_mul(numerator, _binomial(den - w))
    quotient = numerator
    for w in ws:
        quotient = _divide_exact(quotient, _binomial(w))
    if any(c < 0 for c in quotient):
        raise ArithmeticError(f"negative coefficient in the series of {weights}")
    return {str(Fraction(2 * k, den)): c for k, c in enumerate(quotient) if c}


def _binomial(k: int) -> list[int]:
    """Coefficients of 1 - t^k."""
    out = [0] * (k + 1)
    out[0] = 1
    out[k] -= 1
    return out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for b with constant term 1; raises unless the division is exact."""
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out)):
        c = rem[i]
        out[i] = c
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem):
        raise ArithmeticError("series division is not exact")
    return out


def dimension_and_top(weights) -> tuple[Fraction, Fraction]:
    """Closed forms prod(1/q_i - 1) and 2*sum(1 - 2 q_i)."""
    dim = Fraction(1)
    for q in weights:
        dim *= 1 / Fraction(q) - 1
    top = 2 * sum((1 - 2 * Fraction(q) for q in weights), Fraction(0))
    return dim, top


def monomials_of_weight_one(weights) -> list[tuple[int, ...]]:
    """Every exponent vector a with sum(a_i q_i) = 1."""
    den, ws = _integer_weights(weights)
    return _monomials_by_degree(ws, den).get(den, [])


def _integer_weights(weights) -> tuple[int, list[int]]:
    """The common denominator D of the weights and the integers D*q_i."""
    den = lcm(*(Fraction(q).denominator for q in weights))
    return den, [int(Fraction(q) * den) for q in weights]


def _monomials_by_degree(ws: list[int], limit: int) -> dict[int, list[tuple[int, ...]]]:
    """Exponent vectors of weighted degree at most limit, grouped by degree."""
    out: dict[int, list[tuple[int, ...]]] = {}

    def extend(prefix: tuple[int, ...], degree: int) -> None:
        i = len(prefix)
        if i == len(ws):
            out.setdefault(degree, []).append(prefix)
            return
        for e in range((limit - degree) // ws[i] + 1):
            extend(prefix + (e,), degree + e * ws[i])

    extend((), 0)
    return out


def certified_nondegenerate(terms: dict[tuple[int, ...], int], weights) -> bool:
    """Sufficient test that the Milnor ring of a quasihomogeneous W is finite.

    With integer weights w_i over a common denominator D, the Jacobian ideal
    J is graded; the quotient of a nondegenerate W vanishes above degree
    top = sum(D - 2 w_i).  If J contains every monomial of each degree
    top+1 .. top+max(w), it contains every monomial of higher degree too,
    so the quotient is finite.  Ranks are taken modulo a prime, which can
    only lower them, so True is a proof and False may be a false alarm.
    """
    den, ws = _integer_weights(weights)
    n = len(ws)
    partials = []
    for i in range(n):
        d = {}
        for exps, c in terms.items():
            if exps[i]:
                shifted = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                d[shifted] = (c * exps[i]) % PRIME
        partials.append(d)
    top = sum(den - 2 * w for w in ws)
    by_degree = _monomials_by_degree(ws, top + max(ws))
    for k in range(top + 1, top + max(ws) + 1):
        columns = by_degree.get(k)
        if not columns:
            continue
        index = {m: j for j, m in enumerate(columns)}
        rows = []
        for i in range(n):
            for mu in by_degree.get(k - (den - ws[i]), ()):
                row = [0] * len(columns)
                for exps, c in partials[i].items():
                    row[index[tuple(a + b for a, b in zip(mu, exps))]] = c
                rows.append(row)
        if len(rows) < len(columns) or \
                _rank_mod_p(np.array(rows, dtype=np.int64)) < len(columns):
            return False
    return True


def _rank_mod_p(m: np.ndarray) -> int:
    """Rank of an integer matrix over GF(PRIME), by row echelon form."""
    m = m % PRIME
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        nonzero = np.nonzero(m[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), PRIME - 2, PRIME)
        m[rank] = (m[rank] * inv) % PRIME
        below = rank + 1 + np.nonzero(m[rank + 1:, col])[0]
        if below.size:
            m[below] = (m[below] - (m[below, col][:, None] * m[rank][None, :]) % PRIME) % PRIME
        rank += 1
        if rank == rows:
            break
    return rank


def rank(rows) -> int:
    """Rank over Q."""
    m = [[Fraction(e) for e in row] for row in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                factor = m[i][col] / m[r][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# ---------------------------------------------------------------------------
# Diagonal symmetry groups of an invertible polynomial W with exponent matrix
# A (rows = monomials).  With N = |det A|, every phase of Gmax(W) and of
# Gmax(W^T) is a multiple of 1/N, so an element is a tuple of integers mod N.
# ---------------------------------------------------------------------------

def to_residues(phases, modulus: int) -> tuple[int, ...]:
    """Integer vector k with phases = k / modulus; raises if not exact."""
    out = []
    for p in phases:
        k = Fraction(p) * modulus
        if k.denominator != 1:
            raise ValueError(f"phase {p} is not a multiple of 1/{modulus}")
        out.append(int(k) % modulus)
    return tuple(out)


def closure(gens, modulus: int, n: int) -> frozenset[tuple[int, ...]]:
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                b = tuple((x + y) % modulus for x, y in zip(a, g))
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
        frontier = fresh
    return frozenset(seen)


def gmax_residues(rows, modulus: int) -> frozenset[tuple[int, ...]]:
    """Gmax = A^{-1} Z^n / Z^n, generated by the columns of A^{-1}."""
    n = len(rows)
    columns = []
    for j in range(n):
        e = [Fraction(int(i == j)) for i in range(n)]
        columns.append(to_residues(_solve(rows, e), modulus))
    return closure(columns, modulus, n)


def _solve(rows, rhs) -> list[Fraction]:
    n = len(rows)
    aug = [[Fraction(e) for e in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [v / lead for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def fixes(rows, g, modulus: int) -> bool:
    """True iff every monomial of A is invariant under g."""
    return all(sum(e * k for e, k in zip(row, g)) % modulus == 0 for row in rows)


def dual(rows, group, ambient_t, modulus: int) -> frozenset[tuple[int, ...]]:
    """{g in Gmax(W^T) : g A h^T integral for every h in the group}."""
    images = [[sum(e * k for e, k in zip(row, h)) for row in rows] for h in group]
    square = modulus * modulus
    return frozenset(g for g in ambient_t
                     if all(sum(a * b for a, b in zip(g, v)) % square == 0
                            for v in images))


def transpose_rows(rows):
    return [tuple(col) for col in zip(*rows)]
