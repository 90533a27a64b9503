"""Command-line front end: every pipeline as a text or JSON report.

Each command has a handler `cmd_<name>(args)`, which computes and returns
its inputs and its JSON payload, and a `text_<name>(payload)`, which builds
the text report from that payload alone; `main` runs the second only when
`--json` is absent.  So a report is stated once, and both forms carry the
same values.  A plain command line, one that names a subcommand and gives
only its positionals and its own option strings, each once, is read by a
reader derived from that subcommand parser's actions, which builds the
namespace argparse would; a word that starts with `-` is a positional
there exactly where argparse takes it for one.  Any other line (help, an
error, an abbreviated or `=`-joined option, a value that starts with `-`
and holds no space, a line that names no subcommand) goes to the top-level
argparse parser whole, so every usage, help and error byte is argparse's
own.

Exit codes: 0 success, 2 parse error or argument out of range, 3 polynomial
not admissible, 4 group not admissible or not a symmetry group, 5 polynomial
not invertible, 6 resource limit (Groebner steps, group order, grid, tail
visits, series length, variables of a search, digits of a printed integer)
exceeded,
141 standard output closed before the report was written (as in
`lgmk ... | head -1`; 128 + SIGPIPE, the status a shell gives a process
that signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable

from .amodel import amodel
from .errors import (
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
from .groebner import _render_monomials
from .milnor import _dim_product, _table_text, _top_sum, bmodel, is_nondegenerate
from .mirror import (
    STATUS_NONE_EXACT,
    STATUS_NONE_WITHIN_BOUND,
    discriminant_2var,
    discriminant_sign_boundary,
    mirror_sides,
    search_weight_systems,
)
from .polycore import (Polynomial, _past_digit_limit, _quoted, _rational, classify,
                       parse_polynomial, require_admissible)
from .symmetry import (
    GroupElement,
    SymmetryGroup,
    fixed_locus,
    gmax,
    sl_subgroup,
    subgroup_generated,
)


def _rat(value) -> str:
    return str(value) if isinstance(value, Fraction) else str(Fraction(value))


def _tuple_text(texts) -> str:
    return "(" + ", ".join(texts) + ")"


def _graded_lines(graded: dict[str, int]) -> list[str]:
    return ["graded dimensions:", *(f"  {degree}: {dim}" for degree, dim in graded.items())]


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
        phases = tuple(map(_rational, chunk.split(",")))
        if len(phases) != n:
            raise ParseError(
                f"group generator {_quoted(chunk)} has {len(phases)} phases, expected {n}")
        generators.append(GroupElement(phases))
    return subgroup_generated(generators, n)


# ---------------------------------------------------------------------------
# Command handlers: each returns (inputs, payload); the --json report
# prints the payload, and the text report is built from it by the
# command's text_<name>, which runs only for text output
# ---------------------------------------------------------------------------

def cmd_weights(args) -> tuple[dict, dict]:
    poly = parse_polynomial(args.polynomial)
    verdict = classify(poly)
    payload: dict = {
        "polynomial": str(poly),
        "variables": list(poly.variables),
        "classification": verdict.kind.value,
        "nondegenerate": is_nondegenerate(poly),
        "weights": None if verdict.weights is None else [_rat(q) for q in verdict.weights],
    }
    if verdict.reason:
        payload["reason"] = verdict.reason
    return {"polynomial": args.polynomial}, payload


def text_weights(payload: dict) -> list[str]:
    weights = payload["weights"]
    lines = [f"polynomial: {payload['polynomial']}",
             f"variables: {', '.join(payload['variables'])}",
             "weights: " + ("none" if weights is None else _tuple_text(weights)),
             f"classification: {payload['classification']}",
             f"nondegenerate: {str(payload['nondegenerate']).lower()}"]
    if "reason" in payload:
        lines.append(f"reason: {payload['reason']}")
    return lines


def cmd_gmax(args) -> tuple[dict, dict]:
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
    return {"polynomial": args.polynomial}, payload


def text_gmax(payload: dict) -> list[str]:
    return [f"polynomial: {payload['polynomial']}",
            f"order: {payload['order']}",
            "invariant factors: " + _tuple_text(map(str, payload["invariant_factors"])),
            *(f"generator: {_tuple_text(g)}" for g in payload["generators"]),
            *(f"element: {_tuple_text(g)}" for g in payload.get("elements", ()))]


def cmd_amodel(args) -> tuple[dict, dict]:
    poly = parse_polynomial(args.polynomial)
    verdict = require_admissible(poly)
    group = _parse_group_spec(args.group, poly, verdict.weights)
    _thread_count(args.threads)
    model = amodel(poly, group)
    # each monomial over all the variables, 0 off its sector's fixed locus,
    # so that one rendering prints the whole basis
    rows = []
    for s in model.basis:
        row = [0] * poly.n_variables
        for i, e in zip(sorted(fixed_locus(s.sector)), s.monomial.exponents):
            row[i] = e
        rows.append(tuple(row))
    payload = {
        "polynomial": str(poly),
        "group_order": group.order,
        "group_generators": [[_rat(p) for p in g.phases] for g in group.generators],
        "dimension": model.graded.total_dim,
        "top_degree": _rat(model.graded.top_degree()),
        "graded": model.graded.as_json_dict(),
        "basis": [
            {"monomial": text,
             "sector": [_rat(p) for p in s.sector.phases],
             "degree": _rat(s.adegree)}
            for s, text in zip(model.basis, _render_monomials(poly.variables, rows))
        ],
    }
    return {"polynomial": args.polynomial, "group": args.group}, payload


def text_amodel(payload: dict) -> list[str]:
    return [f"polynomial: {payload['polynomial']}",
            f"group: order {payload['group_order']}",
            f"dimension: {payload['dimension']}",
            f"top degree: {payload['top_degree']}",
            *_graded_lines(payload["graded"]),
            "basis:",
            *(f"  [{s['monomial']}; {_tuple_text(s['sector'])}]  degree {s['degree']}"
              for s in payload["basis"])]


def cmd_bmodel(args) -> tuple[dict, dict]:
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
        "basis": model._listing.texts(poly.variables),
    }
    return {"polynomial": args.polynomial}, payload


def text_bmodel(payload: dict) -> list[str]:
    return [f"polynomial: {payload['polynomial']}",
            "weights: " + _tuple_text(payload["weights"]),
            f"dimension: {payload['dimension']} (formula: {payload['dimension_formula']})",
            f"top degree: {payload['top_degree']} (formula: {payload['top_degree_formula']})",
            *_graded_lines(payload["graded"]),
            "basis: " + ", ".join(payload["basis"])]


def cmd_mirror_check(args) -> tuple[dict, dict]:
    poly = parse_polynomial(args.polynomial)
    partner, a_side, b_side = mirror_sides(poly)
    isomorphic = a_side == b_side
    a_graded = a_side.as_json_dict()
    payload = {
        "polynomial": str(poly),
        "transpose": partner,
        "a_graded": a_graded,
        # equal tables print equal texts
        "b_graded": a_graded if isomorphic else b_side.as_json_dict(),
        "isomorphic": isomorphic,
    }
    return {"polynomial": args.polynomial}, payload


def text_mirror_check(payload: dict) -> list[str]:
    return [f"polynomial: {payload['polynomial']}",
            f"transpose: {payload['transpose']}",
            "A-side graded: " + _table_text(payload["a_graded"]),
            "B-side graded: " + _table_text(payload["b_graded"]),
            f"graded vector spaces equal: {str(payload['isomorphic']).lower()}"]


def _family_parameter(dim: Fraction, top: Fraction) -> int | None:
    # (d, delta) = (2n-2, 2(2n-4)/n) for an integer n >= 1?
    if dim.denominator != 1 or dim.numerator % 2 or dim.numerator < 0:
        return None
    n = dim.numerator // 2 + 1
    if top.numerator * n == 2 * (2 * n - 4) * top.denominator:
        return n
    return None


def cmd_search(args) -> tuple[dict, dict]:
    dim = _rational(args.dim)
    top = _rational(args.top)
    _thread_count(args.threads)
    payload = search_weight_systems(dim, top, args.vars,
                                    denominator_bound=args.bound).to_json_dict()
    n = _family_parameter(dim, top) if args.vars == 2 else None
    if n is not None:
        payload["discriminant"] = discriminant_2var(n)
    if args.vars == 3:
        boundary = discriminant_sign_boundary(dim, top, args.bound)
        payload["discriminant_nonnegative_up_to"] = (
            _rat(boundary) if boundary is not None else None)
    inputs = {"dim": args.dim, "top": args.top, "vars": args.vars, "bound": args.bound}
    return inputs, payload


def text_search(payload: dict) -> list[str]:
    lines = [f"target dimension: {_rat(Fraction(*payload['target_dim']))}",
             f"target top degree: {_rat(Fraction(*payload['target_top']))}",
             f"variables: {payload['vars']}",
             f"denominator bound: {payload['bound']}",
             f"status: {payload['status']}"]
    if "discriminant" in payload:
        lines.append(f"discriminant: {payload['discriminant']}")
    if "discriminant_nonnegative_up_to" in payload:
        lines.append("discriminant nonnegative for grid q3 up to: "
                     + (payload["discriminant_nonnegative_up_to"] or "none"))
    return lines + ([f"solution: {_tuple_text(_rat(Fraction(*q)) for q in ws)}"
                     for ws in payload["solutions"]] or ["solutions: none"])


def cmd_paper_tables(args) -> tuple[dict, dict]:
    dims_rows = [{"n": n, "dim": 2 * n - 2, "top_degree": _rat(Fraction(2 * (2 * n - 4), n))}
                 for n in range(3, 13)]
    # the mark of each nonexistence status; a search that finds a solution gets none
    marks = {STATUS_NONE_EXACT: "X", STATUS_NONE_WITHIN_BOUND: "X*"}
    matrix_rows = []
    for n in range(4, 13):
        d = Fraction(2 * n - 2)
        top = Fraction(2 * (2 * n - 4), n)
        row = {"n": n}
        for m in (1, 2, 3):
            result = search_weight_systems(d, top, m, denominator_bound=args.bound)
            row[f"m{m}"] = marks.get(result.status, "")
        matrix_rows.append(row)
    payload = {"bound": args.bound,
               "nonexistence": matrix_rows,
               "state_space_dimensions": dims_rows,
               "legend": {"X": "no weight system exists (exact)",
                          "X*": f"no weight system with denominators up to {args.bound}"}}
    return {"bound": args.bound}, payload


def text_paper_tables(payload: dict) -> list[str]:
    return ["nonexistence of candidate weight systems (rows n, columns m):",
            "  n | m=1  m=2  m=3",
            *(f"  {row['n']:>2} | {row['m1']:<4} {row['m2']:<4} {row['m3']:<4}"
              for row in payload["nonexistence"]),
            "X = impossible (exact); X* = impossible within denominator bound "
            f"{payload['bound']}",
            "",
            "state-space dimension and top degree for x^n + y^n + x^(n-1)*y with <J>:",
            "  n | dim   top degree",
            *(f"  {row['n']:>2} | {row['dim']:<5} {row['top_degree']}"
              for row in payload["state_space_dimensions"])]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, Callable]]:
    """The top-level parser, and each subcommand's plain reader by its
    name."""
    parser = argparse.ArgumentParser(
        prog="lgmk",
        description="Exact A/B-model state spaces and weight-system searches "
                    "for quasihomogeneous polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers: dict[str, argparse.ArgumentParser] = {}

    def command(name, **kwargs):
        parsers[name] = sub.add_parser(name, **kwargs)
        return parsers[name]

    def finish(p, handler, text):
        # --json comes last, so it follows the command's own options in usage
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(handler=handler, text=text)

    p = command("weights", help="weights, classification, nondegeneracy")
    p.add_argument("polynomial")
    finish(p, cmd_weights, text_weights)

    p = command("gmax", help="maximal diagonal symmetry group")
    p.add_argument("polynomial")
    p.add_argument("--elements", action="store_true", help="list every element")
    finish(p, cmd_gmax, text_gmax)

    p = command("amodel", help="A-side state space for (polynomial, group)")
    p.add_argument("polynomial")
    p.add_argument("group", help="'max', 'J', 'sl', '0', or generators 'p/q,p/q;...'")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; sectors are computed in one thread")
    finish(p, cmd_amodel, text_amodel)

    p = command("bmodel", help="Milnor ring as a graded vector space")
    p.add_argument("polynomial")
    finish(p, cmd_bmodel, text_bmodel)

    p = command("mirror-check", help="graded comparison against the transpose")
    p.add_argument("polynomial")
    finish(p, cmd_mirror_check, text_mirror_check)

    p = command("search", help="weight systems matching a dimension/top target")
    p.add_argument("dim", help="target dimension (rational, e.g. 8)")
    p.add_argument("top", help="target top degree (rational, e.g. 12/5)")
    p.add_argument("vars", type=int, help="number of variables of the candidate")
    p.add_argument("--bound", type=int, default=60, help="denominator bound for tails")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; tails are searched in one thread")
    finish(p, cmd_search, text_search)

    p = command("paper-tables",
                help="nonexistence matrix and dimension table for the "
                     "x^n + y^n + x^(n-1)*y family")
    p.add_argument("--bound", type=int, default=60)
    finish(p, cmd_paper_tables, text_paper_tables)

    return parser, {name: _plain_reader(name, p) for name, p in parsers.items()}


def _plain_reader(name: str, command: argparse.ArgumentParser):
    """A reader of the plain command lines of `command`, derived from its
    own actions: it returns the namespace the top-level parser builds for
    `[name, *words]`, or None for a line it leaves to argparse.

    A word that starts with a single `-` is a positional where argparse's
    `_parse_optional` takes it for one: it holds a space and no `=`, its
    first two characters are no option string of the command, and no option
    string starts with it (so `-x^3 + y^3` is a polynomial, and `-h^3 + x^3`
    asks for help).  A line is plain when every other word that starts with
    `-` is an exact option string of the command other than help, each
    option comes at most once, each option that takes a value is followed
    by a word that is no option, the other words fill the positionals
    exactly, and every `type` conversion succeeds.  Such a line is one
    argparse reads without help or error and without deciding anything
    more.  A command with an action of a kind the reader does not model
    (one that appends or counts, takes other than one value or none, has
    choices or a string default, is a required option or sits in a mutually
    exclusive group) leaves every line to argparse.
    """
    defaults: dict = {"command": name}
    positionals, options = [], {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if (not isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))
                or action.nargs not in (None, 0) or action.choices is not None
                or isinstance(action.default, str) or command._mutually_exclusive_groups
                or action.option_strings and action.required):
            return lambda argv: None
        defaults[action.dest] = action.default
        for option in action.option_strings:
            options[option] = action
        if not action.option_strings:
            positionals.append(action)
    for dest, value in command._defaults.items():
        defaults.setdefault(dest, value)
    strings = command._option_string_actions

    def optional(word: str) -> bool:
        # argparse may read the word as an option string (see above)
        return word.startswith("-") and not (
            " " in word and "=" not in word and word[1:2] != "-" and word[:2] not in strings
            and not any(string.startswith(word) for string in strings))

    def read(argv: list[str]) -> argparse.Namespace | None:
        values, seen, at = dict(defaults), set(), 0
        words = iter(argv[1:])
        for word in words:
            if optional(word):
                action = options.get(word)
                if action is None or action in seen:
                    return None
                seen.add(action)
                if action.nargs == 0:
                    values[action.dest] = action.const
                    continue
                word = next(words, "-")
                if optional(word):
                    return None
            elif at < len(positionals):
                action = positionals[at]
                at += 1
            else:
                return None
            if action.type is not None:
                try:
                    word = action.type(word)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None  # argparse reports them
            values[action.dest] = word
        if at < len(positionals):
            return None
        args = argparse.Namespace()
        vars(args).update(values)
        return args

    return read


_EXIT_CODES = (
    ((ParseError, InvalidArgument), 2),
    ((NotAdmissibleError, WeightError, InfiniteGroup), 3),
    ((GroupNotAdmissible, GroupNotSymmetry), 4),
    (NotInvertible, 5),
    (ResourceLimitExceeded, 6),
)
EXIT_PIPE_CLOSED = 141


# json.dumps(report, sort_keys=True) builds this encoder on every call
_JSON = json.JSONEncoder(sort_keys=True)


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, Callable]]:
    # built on the first call of main, not at import: parsing leaves the
    # parsers unchanged, so every later call reuses them and their readers
    return _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, readers = _parser()
    reader = readers.get(argv[0]) if argv else None
    if reader is None or (args := reader(argv)) is None:
        args = parser.parse_args(argv)
    try:
        inputs, payload = args.handler(args)
        if args.json:
            report = {"command": args.command, "inputs": inputs, "payload": payload,
                      "warnings": []}
            output = _JSON.encode(report)
        else:
            output = "\n".join(args.text(payload))
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        if _past_digit_limit(exc):
            exc = ResourceLimitExceeded(
                f"the report holds an integer of more than {sys.get_int_max_str_digits()} "
                "digits, which Python does not convert to text")
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
