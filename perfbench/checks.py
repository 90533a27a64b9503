"""Output checks that do not trust lgmk.

`check(job, record)` returns None when the job's output is right, and
otherwise a one-line reason.  The expected values come from exact.py and
from the facts the generator recorded in the job (exponent matrices, chosen
weights, planted weight systems), never from lgmk itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt, prod

import exact

HALF = Fraction(1, 2)


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def check(job: dict, record: dict) -> str | None:
    if record["error"] is not None:
        return record["error"]
    try:
        if job["kind"] == "cli":
            out = record["out"]
            expect(out["code"] == 0, f"exit code {out['code']}: {out['stderr'].strip()}")
            report = json.loads(out["stdout"])
            CLI_CHECKS[job["argv"][0]](job, report["payload"])
        elif job["kind"] == "supports":
            check_supports(job, record["out"])
        else:
            check_orbifold(job, record["out"])
    except Mismatch as exc:
        return str(exc)
    return None


def _weights_of_transpose(rows) -> tuple[Fraction, ...]:
    return exact.solve_weights(exact.transpose_rows(rows))


def check_mirror(job, payload) -> None:
    """isomorphic is true, both tables agree, and the B-side table is the
    Poincare series of W^T, whose weights come from the benchmark's solve."""
    weights = _weights_of_transpose(job["rows"])
    dim, top = exact.dimension_and_top(weights)
    b_side = payload["b_graded"]
    expect(payload["isomorphic"] is True, "isomorphic is not true")
    expect(payload["a_graded"] == b_side, "A-side and B-side tables differ")
    expect(sum(b_side.values()) == dim, f"B-side dimension is not {dim}")
    expect(max(map(Fraction, b_side)) == top, f"B-side top degree is not {top}")
    expect(b_side == exact.milnor_series(weights), "B-side table is not the series")


def check_bmodel(job, payload) -> None:
    """The table is the expansion of prod (1 - T^(1-q)) / (1 - T^q)."""
    weights = [Fraction(q) for q in job["weights"]]
    dim, top = exact.dimension_and_top(weights)
    expect(sorted(map(Fraction, payload["weights"])) == sorted(weights),
           f"weights {payload['weights']}")
    expect(payload["graded"] == exact.milnor_series(weights), "table is not the series")
    expect(Fraction(payload["dimension"]) == dim, f"dimension is not {dim}")
    expect(Fraction(payload["top_degree"]) == top, f"top degree is not {top}")


def _no_pair(dim: Fraction, total: Fraction) -> bool:
    """True iff no q1, q2 in (0, 1/2] have (1/q1 - 1)(1/q2 - 1) = dim and
    q1 + q2 = total; q1 q2 = (1 - total)/(dim - 1) makes them the roots of
    t^2 - total t + q1 q2."""
    if dim == 1:
        return total != 1
    disc = total * total - 4 * (1 - total) / (dim - 1)
    if disc < 0:
        return True
    num, den = disc.numerator, disc.denominator
    root_num, root_den = _isqrt(num), _isqrt(den)
    if root_num is None or root_den is None:
        return True
    root = Fraction(root_num, root_den)
    q1, q2 = (total - root) / 2, (total + root) / 2
    return not (0 < q1 <= HALF and 0 < q2 <= HALF)


def _isqrt(k: int) -> int | None:
    r = isqrt(k)
    return r if r * r == k else None


def check_search(job, payload) -> None:
    """Every solution meets both equations exactly; a planted system is
    found; the paper family has no one- or two-variable system."""
    _, dim_text, top_text, m_text = job["argv"][:4]
    dim, top, m = Fraction(dim_text), Fraction(top_text), int(m_text)
    solutions = [tuple(Fraction(p, q) for p, q in s) for s in payload["solutions"]]
    for s in solutions:
        expect(len(s) == m and all(0 < q <= HALF for q in s), f"solution {s} out of range")
        expect(exact.dimension_and_top(s) == (dim, top), f"solution {s} misses the target")
    expect((payload["status"] == "SolutionsFound") == bool(solutions),
           f"status {payload['status']} with {len(solutions)} solutions")
    if "planted" in job:
        planted = tuple(Fraction(q) for q in job["planted"])
        expect(planted in solutions, f"planted system {job['planted']} not found")
    if "family_n" in job and m <= 2:
        exists = (1 / (dim + 1) <= HALF and 2 * (1 - 2 / (dim + 1)) == top
                  if m == 1 else not _no_pair(dim, (4 - top) / 4))
        expect(not exists and payload["status"] == "NoneExact",
               f"family n = {job['family_n']}, m = {m}: status {payload['status']}")


def check_tables(_job, payload) -> None:
    """The paper's m = 1 and m = 2 columns are X for n = 4..12, and the
    dimension table is (2n - 2, 2(2n - 4)/n)."""
    rows = {row["n"]: row for row in payload["nonexistence"]}
    expect(sorted(rows) == list(range(4, 13)), "rows are not n = 4..12")
    for n, row in rows.items():
        expect(row["m1"] == "X" and row["m2"] == "X", f"row n = {n}: {row}")
        expect(row["m3"] in ("X*", ""), f"row n = {n}: {row}")
    for row in payload["state_space_dimensions"]:
        n = row["n"]
        expect(row["dim"] == 2 * n - 2
               and row["top_degree"] == str(Fraction(2 * (2 * n - 4), n)),
               f"dimension row {row}")


CLI_CHECKS = {
    "mirror-check": check_mirror,
    "bmodel": check_bmodel,
    "search": check_search,
    "paper-tables": check_tables,
}


def check_supports(job, polys) -> None:
    """Every support consists of weight-one monomials, all coefficients 1,
    and its exponent matrix determines exactly the requested weights."""
    weights = [Fraction(q) for q in job["weights"]]
    expect(len(polys) > 0, "no supports")
    for p in polys:
        rows = [tuple(exps) for exps, _ in p["terms"]]
        expect(all(c == "1" for _, c in p["terms"]), f"coefficients of {rows}")
        expect(all(sum(a * q for a, q in zip(r, weights)) == 1 for r in rows),
               f"support {rows} has a monomial of weight other than one")
        expect(exact.rank(rows) == len(weights), f"support {rows} has weights not unique")


def check_orbifold(job, out) -> None:
    """The identities of the transpose-group algebra on every subgroup of
    Gmax that contains J, recomputed over the integers mod N = |det A|."""
    rows = [tuple(r) for r in job["rows"]]
    n = len(rows)
    modulus = abs(exact.det(rows))
    rows_t = exact.transpose_rows(rows)

    def residues(group):
        return frozenset(exact.to_residues([Fraction(p) for p in g], modulus)
                         for g in group)

    full = exact.gmax_residues(rows, modulus)
    full_t = exact.gmax_residues(rows_t, modulus)
    expect(residues(out["gmax"]) == full and len(out["gmax"]) == modulus,
           "Gmax differs from A^{-1} Z^n / Z^n")
    j = exact.to_residues(exact.solve_weights(rows), modulus)
    j_group = exact.closure([j], modulus, n)
    sl = frozenset(g for g in full if sum(g) % modulus == 0)
    sl_t = frozenset(g for g in full_t if sum(g) % modulus == 0)
    expect(residues(out["sl"]) == sl, "SL differs")
    seen = set()
    for entry in out["lattice"]:
        group = residues(entry["group"])
        expect(group not in seen, "subgroup listed twice")
        seen.add(group)
        expect(j_group <= group <= full, "subgroup does not lie between <J> and Gmax")
        expect(all(exact.fixes(rows, g, modulus) for g in group), "element moves W")
        expect(exact.closure(group, modulus, n) == group, "subgroup is not closed")
        expect(prod(entry["factors"]) == len(group), "invariant factors miss the order")
        expect(prod(entry["quotient"]) * len(group) == modulus,
               "quotient factors miss the index")
        dual = residues(entry["dual"])
        expect(dual == exact.dual(rows, group, full_t, modulus), "transpose group differs")
        expect(len(group) * len(dual) == modulus, "|G| |G^T| != |Gmax|")
        expect(exact.dual(rows_t, dual, full, modulus) == group, "double dual differs")
        if group == full:
            expect(len(dual) == 1, "Gmax^T is not trivial")
            expect(entry["graded"] == exact.milnor_series(_weights_of_transpose(rows)),
                   "A(W, Gmax) is not the B-side series of W^T")
        if group == j_group:
            expect(dual == sl_t, "<J>^T is not SL(W^T)")
    expect(full in seen and j_group in seen, "lattice misses Gmax or <J>")
