"""Seeded inputs for every workload.

`jobs(workload, seed, blocks)` returns the job list of one run: plain data (argv
lists, polynomial strings, weight pairs) plus the facts the output checks
need, such as exponent matrices and planted weight systems.  The same seed
gives byte-identical jobs; `digest` fingerprints them.  Every polynomial is
built so that lgmk must accept it: invertible ones only from Fermat, chain
and loop atoms, quasihomogeneous ones only with a certified finite Milnor
ring.  Inputs are de-duplicated within a run.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import lcm

from exact import (certified_nondegenerate, det, dimension_and_top,
                   monomials_of_weight_one, solve_weights)

VARIABLES = "xyzw"


# ---------------------------------------------------------------------------
# Invertible polynomials: sums of Fermat, chain and loop atoms
# ---------------------------------------------------------------------------

def _atom(rng: random.Random, size: int, exponents: range):
    """One atom on `size` variables as (canonical key, terms on local indices)."""
    exps = [rng.choice(exponents) for _ in range(size)]
    if size == 1:
        return ("fermat", tuple(exps)), [(exps[0],)]
    if rng.random() < 0.5:
        terms = []
        for i in range(size):
            e = [0] * size
            e[i] = exps[i]
            if i + 1 < size:
                e[i + 1] = 1
            terms.append(tuple(e))
        return ("chain", tuple(exps)), terms
    terms = []
    for i in range(size):
        e = [0] * size
        e[i] = exps[i]
        e[(i + 1) % size] = 1
        terms.append(tuple(e))
    rotations = [tuple(exps[i:] + exps[:i]) for i in range(size)]
    return ("loop", min(rotations)), terms


def invertible(rng: random.Random, n: int, order_range: tuple[int, int],
               exponents: range = range(2, 9)):
    """An invertible polynomial in n variables with |det A| in order_range.

    Returns (key, text, rows): a de-duplication key that ignores variable
    names and atom order, the polynomial string, and the exponent matrix in
    lgmk's canonical coordinates (columns by first appearance in the text,
    rows sorted descending).
    """
    lo, hi = order_range
    while True:
        sizes = []
        left = n
        while left:
            size = rng.randint(1, left)
            sizes.append(size)
            left -= size
        atoms = [_atom(rng, size, exponents) for size in sizes]
        rows = []
        offset = 0
        for (_, local), size in zip(atoms, sizes):
            for exps in local:
                rows.append((0,) * offset + tuple(exps) + (0,) * (n - offset - size))
            offset += size
        order = abs(det(rows))
        if lo <= order <= hi:
            break
    key = ("inv", tuple(sorted(a[0] for a in atoms)))
    text = " + ".join(_render(r) for r in rows)
    return key, text, sorted(rows, reverse=True)


def _render_terms(terms: dict[tuple[int, ...], int]) -> str:
    text = " + ".join(_render(m, c) for m, c in sorted(terms.items(), reverse=True))
    return text.replace("+ -", "- ")


def _render(exps, coeff: int = 1) -> str:
    parts = [VARIABLES[i] if e == 1 else f"{VARIABLES[i]}^{e}"
             for i, e in enumerate(exps) if e]
    body = "*".join(parts)
    if coeff == 1:
        return body
    return f"{coeff}*{body}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _blocks(rng: random.Random, strata, blocks: int) -> list[dict]:
    """Jobs in blocks of one draw per stratum, so that runs of different seeds
    do the same mix of work.  A stratum is a function (rng, block) -> (key,
    job); a draw whose key was already used in the run is drawn again, and
    the list ends early, at a whole block, once a stratum runs out of new
    inputs.  A stratum may return job None to skip its slot."""
    seen: set = set()
    out = []
    for block in range(blocks):
        chunk = []
        for stratum in strata:
            for _ in range(2000):
                key, job = stratum(rng, block)
                if key not in seen:
                    break
            else:
                return out
            seen.add(key)
            if job is not None:
                chunk.append(job)
        out.extend(chunk)
    return out


def _mirror(n: int, orders: tuple[int, int]):
    def draw(rng, _block):
        key, text, rows = invertible(rng, n, orders)
        return key, {"kind": "cli", "argv": ["mirror-check", text, "--json"],
                     "rows": rows}
    return draw


def _alternate(even, odd):
    return lambda rng, block: (even if block % 2 == 0 else odd)(rng, block)


def _every_fourth(stratum):
    """The stratum on every fourth block, an empty slot on the others."""
    return lambda rng, block: (stratum(rng, block) if block % 4 == 0
                               else (("empty", block), None))


# Per block, in rising cost: three cheap polynomials (one 2-variable, two
# 3-variable with |Gmax| <= 100), four 3-variable ones with |Gmax| 150..250,
# one 4-variable one with 200..300 and two with 400..600; every fourth block
# adds a 4-variable one with |Gmax| 1000..1300.  Narrow bands keep the cost
# of a block nearly the same for every seed, and they put the median job in
# the middle of one stratum and the 90th percentile in the top one.
MIRROR_STRATA = ([_mirror(2, (8, 80))] + [_mirror(3, (8, 100))] * 2
                 + [_mirror(3, (150, 250))] * 4 + [_mirror(4, (200, 300))]
                 + [_mirror(4, (400, 600))] * 2
                 + [_every_fourth(_mirror(4, (1000, 1300)))])


def _bmodel(denominators: tuple[int, int, int] | None):
    """bmodel on x^a + y^b + z^c plus each further monomial of weight one
    with probability 0.8, all with nonzero integer coefficients in -9..9.

    (a, b, c) is `denominators` in a seeded order, or, for None, three
    different values from 5..8.  Only polynomials whose Milnor ring is
    certified finite are used."""
    def draw(rng, _block):
        while True:
            if denominators is None:
                chosen = tuple(rng.sample(range(5, 9), 3))
            else:
                chosen = tuple(rng.sample(denominators, 3))
            weights = tuple(Fraction(1, a) for a in chosen)
            fermat = [tuple(a if i == j else 0 for j in range(3))
                      for i, a in enumerate(chosen)]
            extra = [m for m in monomials_of_weight_one(weights) if m not in fermat]
            kept = [m for m in extra if rng.random() < 0.8]
            terms = {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in fermat + kept}
            if certified_nondegenerate(terms, weights):
                break
        text = _render_terms(terms)
        return ("bmodel", text), {"kind": "cli", "argv": ["bmodel", text, "--json"],
                                  "weights": [str(q) for q in weights]}
    return draw


SUPPORT_PAIRS = [(a, b) for a in range(2, 7) for b in range(a, 7)]


def _dense_strata(rng: random.Random):
    """Per block of twelve, in rising cost: three polynomials with a, b, c all
    different; five with two of them equal, (5, 5, 7), three times
    (6, 6, 5) and (7, 7, 5); one enumerate_admissible_supports on weights
    (1/a, 1/b), a <= b <= 6 (in a seeded order until all 15 pairs are used);
    two with a = b = c = 5; and one with a = b = c that is 6 on even blocks
    and 5 on odd ones.  The median job is the middle one of the three
    (6, 6, 5) ones, the 90th percentile falls among the a = b = c = 5 ones."""
    pairs = rng.sample(SUPPORT_PAIRS, len(SUPPORT_PAIRS))

    def supports(_rng, block):
        if block >= len(pairs):
            return ("supports", block), None
        a, b = pairs[block]
        return ("supports", a, b), {"kind": "supports", "weights": [f"1/{a}", f"1/{b}"]}

    two_equal = [(5, 5, 7), (6, 6, 5), (6, 6, 5), (6, 6, 5), (7, 7, 5)]
    return ([_bmodel(None)] * 3 + [_bmodel(d) for d in two_equal] + [supports]
            + [_bmodel((5, 5, 5))] * 2
            + [_alternate(_bmodel((6, 6, 6)), _bmodel((5, 5, 5)))])


def _search(m: int, planted: bool, bounds: tuple[int, int]):
    """search for m weights with a denominator bound drawn from `bounds`; the
    target is the paper family (2n - 2, 2(2n - 4)/n), n = 4..12, or planted
    from a random weight system with denominators up to the bound."""
    def draw(rng, _block):
        bound = rng.randint(*bounds)
        if planted:
            weights = []
            for _ in range(m):
                den = rng.randint(3, bound)
                weights.append(Fraction(rng.randint(1, den // 2), den))
            weights = tuple(sorted(weights))
            dim, top = dimension_and_top(weights)
            facts = {"planted": [str(q) for q in weights]}
        else:
            n = rng.randint(4, 12)
            dim, top = Fraction(2 * n - 2), Fraction(2 * (2 * n - 4), n)
            facts = {"family_n": n}
        argv = ["search", str(dim), str(top), str(m), "--bound", str(bound), "--json"]
        return tuple(argv), {"kind": "cli", "argv": argv, **facts}
    return draw


def _paper_tables(rng, _block):
    argv = ["paper-tables", "--bound", str(rng.randint(20, 60)), "--json"]
    return tuple(argv), {"kind": "cli", "argv": argv}


# Per block of twelve: seven cheap searches (the family at m = 1 and 2, twice
# each; planted targets at m = 2, three times), so that the median job is
# mostly argument parsing and JSON rendering; an m = 3 family search at bound
# 30..60; a paper-tables at bound 20..60 on even blocks and an m = 4 family
# search at bound 22..26 on odd ones; a planted m = 4 search at bound 22..26;
# and, setting the 90th percentile, m = 3 searches at bound 170..200, one for
# the family and one planted.  Bounds lie in narrow bands because the work
# grows with the bound squared (m = 3) or to the fourth power (m = 4).
SEARCH_STRATA = ([_search(1, False, (30, 200)), _search(2, False, (30, 200))] * 2
                 + [_search(2, True, (30, 200))] * 3
                 + [_search(3, False, (30, 60)),
                    _alternate(_paper_tables, _search(4, False, (22, 26))),
                    _search(4, True, (22, 26)),
                    _search(3, False, (170, 200)), _search(3, True, (170, 200))])


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % p for p in range(2, int(k ** 0.5) + 1))


def _lattice(n: int, orders: tuple[int, int], index: str, exponents: range):
    """An invertible polynomial whose index [Gmax : <J>] is 1 (`index` "one":
    <J> is the only subgroup), prime ("prime": exactly two subgroups contain
    J) or anything ("any")."""
    accept = {"one": lambda k: k == 1, "prime": _is_prime, "any": lambda k: True}[index]

    def draw(rng, _block):
        while True:
            key, text, rows = invertible(rng, n, orders, exponents)
            order_j = lcm(*(q.denominator for q in solve_weights(rows)))
            if accept(abs(det(rows)) // order_j):
                return key, {"kind": "orbifold", "poly": text, "rows": rows}
    return draw


# Per block of ten, in rising cost: three cheap polynomials (2-variable with
# |Gmax| 8..31, twice; 3-variable with |Gmax| 16..31 and index one); five of
# middle cost (3-variable with |Gmax| 24..39 and prime index; 3-variable with
# |Gmax| 32..47 and index one, twice; 2-variable with |Gmax| 32..64 and index
# one, twice); and two 3-variable ones with |Gmax| 48..64 and prime index.
# The work grows with |Gmax| and with the number of subgroups, so the bands
# and indices keep each stratum's cost narrow; the median job falls in the
# middle stratum and the 90th percentile in the top one.
LATTICE_STRATA = ([_lattice(2, (8, 31), "any", range(2, 33))] * 2
                  + [_lattice(3, (16, 31), "one", range(2, 13)),
                     _lattice(3, (24, 39), "prime", range(2, 13))]
                  + [_lattice(3, (32, 47), "one", range(2, 13))] * 2
                  + [_lattice(2, (32, 64), "one", range(2, 33))] * 2
                  + [_lattice(3, (48, 64), "prime", range(2, 13))] * 2)

WORKLOADS = {
    "mirror-corpus": lambda rng: MIRROR_STRATA,
    "milnor-dense": _dense_strata,
    "weight-search": lambda rng: SEARCH_STRATA,
    "orbifold-lattice": lambda rng: LATTICE_STRATA,
}


def jobs(workload: str, seed: int, blocks: int) -> list[dict]:
    """The first `blocks` blocks of the workload's jobs for this seed."""
    rng = random.Random(f"{workload}/{seed}")
    return _blocks(rng, WORKLOADS[workload](rng), blocks)


def digest(job_list: list[dict]) -> str:
    blob = json.dumps(job_list, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
