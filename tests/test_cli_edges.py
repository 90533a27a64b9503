"""Edge harness: every command line ends in a documented exit code.

Each case runs `python -m lgmk` in its own subprocess, one at a time, with
its address space capped at 1 GB and a wall budget of a few seconds.  The
exit code must be 0, 141 (standard output closed) or one of the codes of
`cli._EXIT_CODES` (argparse's usage error is 2, the code of a bad
argument), and standard error must hold no traceback: a bad input or an
exhausted budget is reported in one `error:` line, never by a crash or an
unbounded allocation.  The known cases come first; a small derandomized
grammar then draws argv over every subcommand, with huge exponents,
variable counts and bounds, malformed polynomials and group specs.  The
`amodel` group specs are drawn for the polynomial's variable count, with
generators of the wrong length, phases outside [0, 1), unreduced phases
and zero denominators, and a second derandomized test draws `amodel` alone.
"""

import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import lgmk
from lgmk import cli

ADDRESS_SPACE = 1 << 30
WALL_SECONDS = 5
DOCUMENTED = {0, cli.EXIT_PIPE_CLOSED} | {code for _, code in cli._EXIT_CODES}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(argv, seconds=WALL_SECONDS):
    # the directory lgmk was imported from, src/ in a checkout
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(lgmk.__file__)))
    try:
        done = subprocess.run([sys.executable, "-m", "lgmk", *argv],
                              env=dict(os.environ, PYTHONPATH=src_dir),
                              capture_output=True, text=True, timeout=seconds,
                              preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        pytest.fail(f"lgmk {' '.join(argv)} ran past {seconds} s")
    assert done.returncode in DOCUMENTED, (argv, done.returncode, done.stderr[-600:])
    assert "Traceback" not in done.stderr, (argv, done.stderr[-600:])
    return done


KNOWN = [
    # more variables than the tail walk's recursion holds, and a target no
    # every-m certificate decides
    (["search", "100", "1", "1000", "--bound", "3"], 6),
    # Jensen's power (k sd - sn)^k at k = 10^9; e^(12/5) > 8 decides it
    (["search", "8", "12/5", "1000000000"], 0),
    # the all-halves solution, which would list 10^9 weights
    (["search", "1", "0", "1000000000"], 6),
    # Gmax has order 12,960,000, above GROUP_ORDER_LIMIT, but W splits into
    # four atoms x^60, each counted over its own Gmax of order 60
    (["mirror-check", "x^60+y^60+z^60+w^60"], 0),
    # a connected W whose Gmax has order 1,002,001, above GROUP_ORDER_LIMIT
    (["mirror-check", "x^1001*y+y^1001"], 6),
    # eight atoms whose tables' degrees never coincide: their tensor product
    # would form about 7 * 10^7 products, so GROUP_ORDER_LIMIT ends it
    (["mirror-check", "a^3+b^5+c^7+d^11+e^13+f^17+g^19+h^23"], 6),
    # <J> has order 300, but its identity sector holds about 8 * 10^9
    # invariant monomials: the graded count is one step per key, and the
    # listing of that sector is refused at the box of 299^5 exponent tuples
    (["amodel", "a^300+b^300+c^300+d^300+e^300", "J"], 6),
    # a Milnor-Orlik series of 108,423,999 coefficients
    (["bmodel", "a^3+b^4+c^5+d^7+e^11+f^13+g^17+h^19"], 6),
    # the kernel decides this W, whose Milnor-Orlik series would hold
    # 26,297,693 coefficients, and never builds that series
    (["weights", "x^3+y^3+x*y^2+c^5+d^7+e^11+f^13+g^17+h^19"], 0),
    # no weights, so nondegeneracy is tested under degrevlex, where one
    # S-polynomial reduces through x^(N-2), x^(N-3), ...: STEP_LIMIT ends it
    (["weights", "d^2 + d^2*x + x^10000000000"], 6),
    # the linear term d answers the same test before the kernel runs
    (["weights", "d + d*x + x^10000000000"], 0),
    # an uncertified walk of twenty variables, ended by TAIL_LIMIT
    (["search", "24", "12/5", "20", "--bound", "60"], 6),
    # Gmax is cyclic of exponent and order 1000036000099: its generator is
    # printed without a table of that many phases, its elements are refused
    (["gmax", "x^1000003+y^1000033"], 0),
    (["gmax", "x^1000003+y^1000033", "--elements"], 6),
    # a Jensen-certified target builds no grid, however large the bound
    (["search", "8", "12/5", "4", "--bound", "1000000000000"], 0),
    # (1/5, 1/4, 1/3, 1/3) solves this one, so it walks, and its grid is refused
    (["search", "48", "53/15", "4", "--bound", "1000000000000"], 6),
    # group specs of the wrong length, with phases outside [0, 1) (read
    # mod 1) or unreduced, and one that does not fix the polynomial
    (["amodel", "x^3+y^3", "1/2"], 2),
    (["amodel", "x^3+y^3", "5/3,2/3"], 0),
    (["amodel", "x^3+y^3", "1/3,-1/3"], 4),
    (["amodel", "x^3+y^3", "2/6,0"], 4),
    (["amodel", "x^3+y^3", "1/3,1/3;1/2,0"], 4),
    # a Fermat sum of 1,500 squares: the degeneracy test reads each row's
    # degree once, not once per variable
    (["weights", "+".join(f"x{i}^2" for i in range(1, 1501))], 0),
    # a tab or a newline beside a coefficient's '/' is whitespace like any other
    (["weights", "x^2+3/\t2*y^2", "--json"], 0),
    (["weights", "x^2+3\n/2*y^2", "--json"], 0),
    # transposition checks admissibility before invertibility: a square
    # degenerate matrix and a polynomial without unique weights are not
    # admissible, an admissible noninvertible one is not invertible
    (["mirror-check", "x^3*y + x^2*y^2"], 3),
    (["mirror-check", "x*y"], 3),
    (["mirror-check", "x^4+y^4+x^3*y"], 5),
]


@pytest.mark.parametrize("argv,code", KNOWN, ids=[" ".join(a) for a, _ in KNOWN])
def test_known_edge(argv, code):
    assert _run(argv).returncode == code


# W is admissible and invertible (x*y is no pointer row, so the kernel
# certifies it), but W^T = x^2*y + y (+ z^3) has a zero weight: the error
# names the weights of the whole W^T
@pytest.mark.parametrize("text,weights", [
    ("x^2+x*y", "('0', '1')"), ("x^2 + x*y + z^3", "('0', '1', '1/3')")])
def test_an_invertible_w_whose_transpose_is_not_admissible(text, weights):
    done = _run(["mirror-check", text])
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == (f"error: NonPositiveWeight: solved weights {weights} "
                           "are not all positive\n")


# a linear term z has weight 1, so 0 is no critical point of W: every
# command that needs an admissible W refuses it, with one reason, and
# `weights` reports it not admissible.  x*y + y^2 + z holds the cross-term
# x*y, so its error must not be the bound on weights above 1/2 that applies
# without one
LINEAR = ("a variable of weight 1 appears only as a linear term, "
          "so 0 is not a critical point")


@pytest.mark.parametrize("argv", [
    ["amodel", "x^2 + x*y + z", "max"], ["bmodel", "x^2 + x*y + z"],
    ["mirror-check", "x^2 + x*y + z"], ["mirror-check", "x*y + y^2 + z"]])
def test_a_linear_term_is_not_admissible(argv):
    done = _run(argv)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {LINEAR}\n")


def test_weights_reports_a_linear_term_not_admissible():
    done = _run(["weights", "x^2 + x*y + z", "--json"])
    assert done.returncode == 0
    payload = json.loads(done.stdout)["payload"]
    assert (payload["classification"], payload["nondegenerate"], payload["weights"],
            payload["reason"]) == ("not_admissible", False, ["1/2", "1/2", "1"], LINEAR)


# without weights the linear term still makes 0 no critical point
def test_weights_reports_a_linear_term_degenerate_without_weights():
    done = _run(["weights", "x + y^3", "--json"])
    assert done.returncode == 0
    payload = json.loads(done.stdout)["payload"]
    assert (payload["classification"], payload["nondegenerate"], payload["weights"]) == (
        "not_admissible", False, None)


# y*z has pointer exponent 1, so W is not in pointer form and is counted
# whole, as `amodel W max` counts it: its Gmax, of order 4 * 60^4, is over
# GROUP_ORDER_LIMIT, though each Fermat atom u^60, ..., t^60 is not
def test_a_w_off_pointer_form_is_bounded_by_its_whole_group():
    done = _run(["mirror-check", "x^2*y + y*z + z^2 + u^60 + v^60 + w^60 + t^60"])
    assert (done.returncode, done.stdout) == (6, "")
    assert done.stderr == ("error: group of order 51840000 is too large to list its "
                           "elements (limit 1000000)\n")


# numbers of more digits than int() and str() convert
# (sys.get_int_max_str_digits(), 4300 unless the environment sets it): in an
# exponent or a coefficient the parser refuses them, and a report that would
# print one, a Gmax of order 10^5000, is refused at the resource limit
LONG = "1" * 5000
HUGE_ORDER = f"x^1{'0' * 2500}+y^1{'0' * 2500}"


@pytest.mark.parametrize("argv,code", [
    (["weights", f"x^{LONG}"], 2), (["weights", f"{LONG}*x^2+y^2"], 2),
    (["gmax", HUGE_ORDER], 6), (["gmax", HUGE_ORDER, "--json"], 6)],
    ids=["exponent", "coefficient", "gmax order", "gmax order --json"])
def test_a_number_past_the_digit_limit(argv, code):
    done = _run(argv)
    assert done.returncode == code
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


# an exponent is read before Fraction would build 10^|exponent|, which for
# these takes seconds; a bound of 2 s holds the interpreter's start
@pytest.mark.parametrize("argv,message", [
    (["search", LONG, "1", "2"], "number has 5000 digits, more than {}"),
    (["search", "8", f"1/{LONG}", "2"], "number has 5000 digits, more than {}"),
    (["amodel", "x^3+y^3", f"{LONG}/3,1/3"], "number has 5000 digits, more than {}"),
    (["search", "1e10000000", "1", "2"], "number has more than {} digits"),
    (["search", "8", "1e-10000000", "2"], "number has more than {} digits"),
    (["amodel", "x^3+y^3", "1e10000000,1/3"], "number has more than {} digits"),
    (["amodel", "x^3+y^3", "1/3,1e-10000000"], "number has more than {} digits")],
    ids=["search dimension", "search top degree", "group phase", "exponent as dimension",
         "negative exponent as top degree", "exponent as phase", "negative exponent as phase"])
def test_a_rational_past_the_digit_limit_is_named_not_echoed(argv, message):
    done = _run(argv, seconds=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: {message.format(sys.get_int_max_str_digits())}\n"
    assert len(done.stderr.encode()) < 200


@pytest.mark.parametrize("argv,start", [
    (["search", "x" * 5000, "1", "2"], "error: not a rational number: 'xxx"),
    (["amodel", "x^3+y^3", ",".join(["1"] * 3000)], "error: group generator '1,1,")],
    ids=["search dimension", "group generator"])
def test_a_long_bad_input_is_quoted_by_a_short_prefix(argv, start):
    done = _run(argv)
    assert done.returncode == 2
    assert done.stderr.startswith(start) and done.stderr.count("\n") == 1
    assert len(done.stderr.encode()) < 200


@pytest.mark.parametrize("argv,message", [
    (["search", "1/0", "1", "2"], "not a rational number: '1/0'"),
    (["amodel", "x^3+y^3", "1/3,1/3,0"], "group generator '1/3,1/3,0' has 3 phases, expected 2")])
def test_a_short_bad_input_is_quoted_whole(argv, message):
    assert _run(argv).stderr == f"error: {message}\n"


def test_whitespace_beside_a_slash_leaves_the_payload():
    payload = json.loads(_run(["weights", "x^2+3/2*y^2", "--json"]).stdout)["payload"]
    tabbed = json.loads(_run(["weights", "x^2+3/\t2*y^2", "--json"]).stdout)["payload"]
    assert tabbed == payload


def test_determinant_one_subgroup_of_a_gmax_above_the_limit():
    """Gmax has order 3,261,636, above GROUP_ORDER_LIMIT, and is never
    listed: SL is read off its basis, and only SL's 1,806 sectors are, for
    the basis and its character-count cross-check."""
    done = _run(["amodel", "x^2+y^3+z^7+w^43+v^1806", "sl", "--json"])
    assert done.returncode == 0
    payload = json.loads(done.stdout)["payload"]
    assert (payload["group_order"], payload["dimension"], payload["top_degree"]) == (
        1806, 1008, "6")
    assert len(payload["basis"]) == 1008


_EXPONENTS = st.sampled_from(["1", "2", "3", "4", "7", "60", "1001", "10^12"])
_NAMES = st.sampled_from(["x", "y", "z", "w", "a1", "b", "c", "d", "e", "f", "g", "h2"])
_MALFORMED = st.sampled_from(
    ["", "x^", "x^0", "x^-1", "x^1.5", "2/0*x^3", "3", "x + 1", "x +", "*x", "x^2 y"])


@st.composite
def _polynomials(draw):
    """A malformed string, or up to 8 signed terms in up to 12 variables,
    some of them a term drawn before, so that monomials repeat and cancel
    (x^2 - x^2 + y^3)."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_MALFORMED)
    terms = []
    text = ""
    for _ in range(draw(st.integers(1, 8))):
        if terms and draw(st.integers(0, 3)) == 0:
            term = draw(st.sampled_from(terms))
        else:
            factors = []
            for name in draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True)):
                exponent = draw(_EXPONENTS).replace("10^12", str(10**12))
                factors.append(name if exponent == "1" else f"{name}^{exponent}")
            term = draw(st.sampled_from(["", "", "2*", "1/3*"])) + "*".join(factors)
            terms.append(term)
        sign = draw(st.sampled_from(["+", "+", "-"]))
        text += (f" {sign} " if text else sign.strip("+")) + term
    return text


@st.composite
def _phase(draw, exponent):
    """A phase for a variable of x^exponent: mostly k/exponent, else the same
    read mod 1 (above 1 or negative) or unreduced, a phase that fixes no such
    term, a zero denominator or no number at all."""
    k = draw(st.integers(0, exponent - 1))
    kind = draw(st.integers(0, 11))
    odd = [f"{k + exponent}/{exponent}", f"-{k}/{exponent}", f"{2 * k}/{2 * exponent}",
           "1/2", "1/0", "x"]
    return odd[kind] if kind < len(odd) else f"{k}/{exponent}"


@st.composite
def _amodel_argv(draw):
    """`amodel` on a Fermat sum in n variables (or a drawn polynomial) with a
    group spec drawn for n: a named group, J written out, or one or two
    generators of length n, n - 1 or n + 1, whose phases are drawn per
    variable."""
    n = draw(st.integers(1, 4))
    exponents = draw(st.lists(st.sampled_from([2, 3, 4, 6, 1001]), min_size=n, max_size=n))
    poly = " + ".join(f"{name}^{e}" for name, e in zip("xyzw", exponents))
    if draw(st.integers(0, 4)) == 0:
        poly = draw(_polynomials())
    if draw(st.booleans()):
        # the named groups, and J written out for the Fermat sum
        spelled = ",".join(f"1/{e}" for e in exponents)
        return ["amodel", poly, draw(st.sampled_from(["max", "J", "sl", "0", spelled]))]
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        length = draw(st.sampled_from([n, n, n - 1, n + 1]))
        gens.append(",".join(draw(_phase(exponents[i % n])) for i in range(length)))
    return ["amodel", poly, ";".join(gens)]


_RATIONALS = st.sampled_from(["-1", "0", "1", "8", "100", "1/2", "12/5", "2/3", "7", "x"])
_VARS = st.sampled_from(["0", "1", "2", "3", "4", "5", "500", "501", "1000", "1000000000"])
_BOUNDS = st.sampled_from(["1", "2", "3", "6", "1000000000000"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["weights", "gmax", "amodel", "bmodel",
                                    "mirror-check", "search", "paper-tables"]))
    if command == "search":
        argv = [command, draw(_RATIONALS), draw(_RATIONALS), draw(_VARS),
                "--bound", draw(_BOUNDS)]
    elif command == "paper-tables":
        argv = [command, "--bound", draw(_BOUNDS)]
    elif command == "amodel":
        argv = draw(_amodel_argv())
    else:
        argv = [command, draw(_polynomials())]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_argv())
def test_drawn_command_line_ends_in_a_documented_code(argv):
    _run(argv)


# Shrinking is off, since each retry of a slow run costs the wall budget.
@settings(max_examples=12, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(_amodel_argv())
def test_drawn_group_spec_ends_in_a_documented_code(argv):
    _run(argv)
