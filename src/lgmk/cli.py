"""Command-line front end: every pipeline as a text or JSON report.

Exit codes: 0 success, 2 parse error or argument out of range, 3 polynomial
not admissible, 4 group not admissible or not a symmetry group, 5 polynomial
not invertible, 6 resource limit (S-pair budget, group order, grid) exceeded,
141 standard output closed before the report was written (as in
`lgmk ... | head -1`; 128 + SIGPIPE, the status a shell gives a process
that signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from functools import cache

from .amodel import amodel
from .errors import (
    DegenerateRestriction,
    GroupNotAdmissible,
    GroupNotSymmetry,
    InfiniteGroup,
    InvalidArgument,
    NotAdmissibleError,
    NotInvertible,
    ParseError,
    ResourceLimitExceeded,
    WeightError,
)
from .milnor import _dim_product, _top_sum, bmodel, is_nondegenerate
from .mirror import (
    STATUS_NONE_EXACT,
    STATUS_NONE_WITHIN_BOUND,
    discriminant_2var,
    discriminant_sign_boundary,
    mirror_sides,
    search_weight_systems,
)
from .polycore import Polynomial, classify, parse_polynomial, require_admissible
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    fixed_locus,
    gmax,
    sl_subgroup,
    subgroup_generated,
)


def _rat(value) -> str:
    return str(Fraction(value))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def _thread_count(value: int) -> int:
    if value < 1:
        raise InvalidArgument(f"--threads must be at least 1, got {value}")
    return value


def _parse_group_spec(spec: str, poly: Polynomial, weights) -> SymmetryGroup:
    """Mini-language: 'max' | 'J' | 'sl' | '0' | 'p/q,p/q;p/q,p/q'."""
    n = poly.n_variables
    spec = spec.strip()
    if spec == "max":
        return gmax(poly)
    if spec == "J":
        return subgroup_generated([GroupElement(tuple(weights))], n)
    if spec == "sl":
        return sl_subgroup(gmax(poly))
    if spec == "0":
        return subgroup_generated([], n)
    generators = []
    for chunk in spec.split(";"):
        phases = tuple(_parse_fraction(part) for part in chunk.split(","))
        if len(phases) != n:
            raise ParseError(
                f"group generator {chunk!r} has {len(phases)} phases, expected {n}")
        generators.append(GroupElement(phases))
    return subgroup_generated(generators, n)


# ---------------------------------------------------------------------------
# Command handlers: each returns (inputs, payload, render), where render()
# builds the text lines; it runs only for text output
# ---------------------------------------------------------------------------

_Report = tuple[dict, dict, Callable[[], list[str]]]


def cmd_weights(args) -> _Report:
    poly = parse_polynomial(args.polynomial)
    verdict = classify(poly)
    payload: dict = {
        "polynomial": str(poly),
        "variables": list(poly.variables),
        "classification": verdict.kind.value,
        "nondegenerate": is_nondegenerate(poly),
    }
    if verdict.weights is not None:
        payload["weights"] = [_rat(q) for q in verdict.weights]
    else:
        payload["weights"] = None
    if verdict.reason:
        payload["reason"] = verdict.reason

    def render():
        lines = [f"polynomial: {payload['polynomial']}",
                 f"variables: {', '.join(poly.variables)}"]
        if verdict.weights is not None:
            lines.append("weights: (" + ", ".join(payload["weights"]) + ")")
        else:
            lines.append("weights: none")
        lines.append(f"classification: {verdict.kind.value}")
        lines.append(f"nondegenerate: {str(payload['nondegenerate']).lower()}")
        if verdict.reason:
            lines.append(f"reason: {verdict.reason}")
        return lines
    return {"polynomial": args.polynomial}, payload, render


def cmd_gmax(args) -> _Report:
    poly = parse_polynomial(args.polynomial)
    require_admissible(poly)
    group = gmax(poly)
    factors = group.invariant_factors()
    payload = {
        "polynomial": str(poly),
        "order": group.order,
        "invariant_factors": [1] * (group.ambient - len(factors)) + list(factors),
        "generators": [[_rat(p) for p in g.phases] for g in group.generators],
    }
    if args.elements:
        payload["elements"] = [[_rat(p) for p in g.phases] for g in group.elements]

    def render():
        lines = [f"polynomial: {payload['polynomial']}",
                 f"order: {group.order}",
                 "invariant factors: (" + ", ".join(map(str, payload["invariant_factors"])) + ")"]
        for g in group.generators:
            lines.append(f"generator: {g}")
        if args.elements:
            for g in group.elements:
                lines.append(f"element: {g}")
        return lines
    return {"polynomial": args.polynomial}, payload, render


def cmd_amodel(args) -> _Report:
    poly = parse_polynomial(args.polynomial)
    verdict = require_admissible(poly)
    group = _parse_group_spec(args.group, poly, verdict.weights)
    _thread_count(args.threads)
    model = amodel(poly, group)
    payload = {
        "polynomial": str(poly),
        "group_order": group.order,
        "group_generators": [[_rat(p) for p in g.phases] for g in group.generators],
        "dimension": model.graded.total_dim,
        "top_degree": _rat(model.graded.top_degree()),
        "graded": model.graded.as_json_dict(),
        "basis": [
            {"monomial": _sector_monomial_text(s, poly),
             "sector": [_rat(p) for p in s.sector.phases],
             "degree": _rat(s.adegree)}
            for s in model.basis
        ],
    }

    def render():
        lines = [f"polynomial: {payload['polynomial']}",
                 f"group: order {group.order}",
                 f"dimension: {model.graded.total_dim}",
                 f"top degree: {payload['top_degree']}",
                 "graded dimensions:"]
        for degree, dim in payload["graded"].items():
            lines.append(f"  {degree}: {dim}")
        lines.append("basis:")
        for s in model.basis:
            lines.append(f"  [{_sector_monomial_text(s, poly)}; {s.sector}]  degree {s.adegree}")
        return lines
    return {"polynomial": args.polynomial, "group": args.group}, payload, render


def _sector_monomial_text(sector_element, poly: Polynomial) -> str:
    fix = sorted(fixed_locus(sector_element.sector))
    names = tuple(poly.variables[i] for i in fix)
    return sector_element.monomial.render(names)


def cmd_bmodel(args) -> _Report:
    poly = parse_polynomial(args.polynomial)
    model = bmodel(poly)
    weights = model.weights
    payload = {
        "polynomial": str(poly),
        "weights": [_rat(q) for q in weights],
        "dimension": model.graded.total_dim,
        "dimension_formula": _rat(_dim_product(weights)),
        "top_degree": _rat(model.graded.top_degree()),
        "top_degree_formula": _rat(_top_sum(weights)),
        "graded": model.graded.as_json_dict(),
        "basis": [m.render(poly.variables) for m in model.basis],
    }

    def render():
        lines = [f"polynomial: {payload['polynomial']}",
                 "weights: (" + ", ".join(payload["weights"]) + ")",
                 f"dimension: {model.graded.total_dim} (formula: {payload['dimension_formula']})",
                 f"top degree: {payload['top_degree']} (formula: {payload['top_degree_formula']})",
                 "graded dimensions:"]
        for degree, dim in payload["graded"].items():
            lines.append(f"  {degree}: {dim}")
        lines.append("basis: " + ", ".join(payload["basis"]))
        return lines
    return {"polynomial": args.polynomial}, payload, render


def cmd_mirror_check(args) -> _Report:
    poly = parse_polynomial(args.polynomial)
    partner, a_side, b_side = mirror_sides(poly)
    verdict = a_side == b_side
    payload = {
        "polynomial": str(poly),
        "transpose": str(partner),
        "a_graded": a_side.as_json_dict(),
        "b_graded": b_side.as_json_dict(),
        "isomorphic": verdict,
    }

    def render():
        return [f"polynomial: {payload['polynomial']}",
                f"transpose: {payload['transpose']}",
                "A-side graded: " + str(a_side),
                "B-side graded: " + str(b_side),
                f"graded vector spaces equal: {str(verdict).lower()}"]
    return {"polynomial": args.polynomial}, payload, render


def _family_parameter(dim: Fraction, top: Fraction) -> int | None:
    # (d, delta) = (2n-2, 2(2n-4)/n) for an integer n >= 1?
    n2 = (dim + 2) / 2
    if n2.denominator != 1 or n2 < 1:
        return None
    n = int(n2)
    if top == Fraction(2 * (2 * n - 4), n):
        return n
    return None


def cmd_search(args) -> _Report:
    dim = _parse_fraction(args.dim)
    top = _parse_fraction(args.top)
    _thread_count(args.threads)
    report_obj = search_weight_systems(dim, top, args.vars, denominator_bound=args.bound)
    payload = report_obj.to_json_dict()
    n = _family_parameter(dim, top) if args.vars == 2 else None
    if n is not None:
        payload["discriminant"] = discriminant_2var(n)
    if args.vars == 3:
        boundary = discriminant_sign_boundary(dim, top, args.bound)
        payload["discriminant_nonnegative_up_to"] = (
            _rat(boundary) if boundary is not None else None)

    def render():
        lines = [f"target dimension: {_rat(dim)}",
                 f"target top degree: {_rat(top)}",
                 f"variables: {args.vars}",
                 f"denominator bound: {args.bound}",
                 f"status: {report_obj.status}"]
        if n is not None:
            lines.append(f"discriminant: {payload['discriminant']}")
        if args.vars == 3:
            lines.append("discriminant nonnegative for grid q3 up to: "
                         + (payload["discriminant_nonnegative_up_to"] or "none"))
        for ws in report_obj.solutions:
            lines.append("solution: (" + ", ".join(_rat(q) for q in ws) + ")")
        if not report_obj.solutions:
            lines.append("solutions: none")
        return lines
    inputs = {"dim": args.dim, "top": args.top, "vars": args.vars, "bound": args.bound}
    return inputs, payload, render


def cmd_paper_tables(args) -> _Report:
    dims_rows = []
    for n in range(3, 13):
        dims_rows.append({"n": n, "dim": 2 * n - 2,
                          "top_degree": _rat(Fraction(2 * (2 * n - 4), n))})
    matrix_rows = []
    for n in range(4, 13):
        d = Fraction(2 * n - 2)
        top = Fraction(2 * (2 * n - 4), n)
        row = {"n": n}
        for m in (1, 2, 3):
            result = search_weight_systems(d, top, m, denominator_bound=args.bound)
            if result.status == STATUS_NONE_EXACT:
                row[f"m{m}"] = "X"
            elif result.status == STATUS_NONE_WITHIN_BOUND:
                row[f"m{m}"] = "X*"
            else:
                row[f"m{m}"] = ""
        matrix_rows.append(row)
    payload = {"bound": args.bound,
               "nonexistence": matrix_rows,
               "state_space_dimensions": dims_rows,
               "legend": {"X": "no weight system exists (exact)",
                          "X*": f"no weight system with denominators up to {args.bound}"}}

    def render():
        lines = ["nonexistence of candidate weight systems (rows n, columns m):",
                 "  n | m=1  m=2  m=3"]
        for row in matrix_rows:
            lines.append(f"  {row['n']:>2} | {row['m1']:<4} {row['m2']:<4} {row['m3']:<4}")
        lines.append("X = impossible (exact); X* = impossible within denominator bound "
                     f"{args.bound}")
        lines.append("")
        lines.append("state-space dimension and top degree for x^n + y^n + x^(n-1)*y with <J>:")
        lines.append("  n | dim   top degree")
        for row in dims_rows:
            lines.append(f"  {row['n']:>2} | {row['dim']:<5} {row['top_degree']}")
        return lines
    return {"bound": args.bound}, payload, render


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgmk",
        description="Exact A/B-model state spaces and weight-system searches "
                    "for quasihomogeneous polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("weights", help="weights, classification, nondegeneracy")
    p.add_argument("polynomial")
    add_json(p)
    p.set_defaults(handler=cmd_weights)

    p = sub.add_parser("gmax", help="maximal diagonal symmetry group")
    p.add_argument("polynomial")
    p.add_argument("--elements", action="store_true", help="list every element")
    add_json(p)
    p.set_defaults(handler=cmd_gmax)

    p = sub.add_parser("amodel", help="A-side state space for (polynomial, group)")
    p.add_argument("polynomial")
    p.add_argument("group", help="'max', 'J', 'sl', '0', or generators 'p/q,p/q;...'")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; sectors are computed in one thread")
    add_json(p)
    p.set_defaults(handler=cmd_amodel)

    p = sub.add_parser("bmodel", help="Milnor ring as a graded vector space")
    p.add_argument("polynomial")
    add_json(p)
    p.set_defaults(handler=cmd_bmodel)

    p = sub.add_parser("mirror-check", help="graded comparison against the transpose")
    p.add_argument("polynomial")
    add_json(p)
    p.set_defaults(handler=cmd_mirror_check)

    p = sub.add_parser("search", help="weight systems matching a dimension/top target")
    p.add_argument("dim", help="target dimension (rational, e.g. 8)")
    p.add_argument("top", help="target top degree (rational, e.g. 12/5)")
    p.add_argument("vars", type=int, help="number of variables of the candidate")
    p.add_argument("--bound", type=int, default=60, help="denominator bound for tails")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; tails are searched in one thread")
    add_json(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("paper-tables",
                       help="nonexistence matrix and dimension table for the "
                            "x^n + y^n + x^(n-1)*y family")
    p.add_argument("--bound", type=int, default=60)
    add_json(p)
    p.set_defaults(handler=cmd_paper_tables)

    return parser


_EXIT_CODES = (
    ((ParseError, InvalidArgument), 2),
    ((NotAdmissibleError, WeightError, InfiniteGroup, DegenerateRestriction), 3),
    ((GroupNotAdmissible, GroupNotSymmetry), 4),
    (NotInvertible, 5),
    (ResourceLimitExceeded, 6),
)
EXIT_PIPE_CLOSED = 141


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import: parsing leaves the
    # parser unchanged, so every later call reuses it
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs, payload, render = args.handler(args)
        if args.json:
            report = {"command": args.command, "inputs": inputs, "payload": payload,
                      "warnings": []}
            output = json.dumps(report, sort_keys=True)
        else:
            output = "\n".join(render())
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; with stdout on devnull the interpreter's
        # flush at shutdown drops the rest of the report quietly too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return 0


if __name__ == "__main__":
    sys.exit(main())
