import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from lgmk import (
    Classification,
    EmptyPolynomialError,
    GradedDims,
    GroupElement,
    InvalidArgument,
    Monomial,
    NonPositiveWeight,
    NonUniqueWeights,
    NotAdmissibleError,
    NotQuasihomogeneous,
    ParseError,
    Polynomial,
    PolynomialClass,
    WeightBoundViolated,
    WeightError,
    WeightSystem,
    amodel,
    bmodel,
    classify,
    discriminant_2var,
    discriminant_sign_boundary,
    exponent_matrix,
    gmax,
    gmax_bruteforce,
    is_nondegenerate,
    nfamily_quadratic,
    parse_polynomial,
    search_weight_systems,
    smith_normal_form,
    solve_weights,
    staircase,
)
from lgmk.mirror import _monomials_of_weight_one
from lgmk.polycore import _echelon, _integer_form, _rational

from conftest import INVERTIBLE_CORPUS_TEXTS

# Python's `\s`: every character here is whitespace to the parser
_SPACES = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2003"), max_size=2)
_NAMES = st.sampled_from(["x", "y", "z", "w", "x1", "x2", "x10", "B", "c7"])


@st.composite
def written_polynomials(draw):
    """Random text of the grammar, with the variable order and the term map
    it denotes: drawn whitespace between any two symbols, a leading minus,
    integer and p/q coefficients, repeated factors, indexed names, and
    monomials written again so that they merge, or every term written again
    negated so that all of them cancel."""
    terms = []  # (sign, written coefficient, its value, factors)
    for i in range(draw(st.integers(1, 5))):
        if terms and draw(st.booleans()):
            factors = draw(st.permutations(draw(st.sampled_from(terms))[3]))
        else:
            factors = draw(st.lists(st.tuples(_NAMES, st.none() | st.integers(1, 9)),
                                    min_size=1, max_size=4))
        num, den = draw(st.integers(0, 12)), draw(st.integers(1, 12))
        written, value = draw(st.sampled_from(
            [([], 1), ([str(num)], num), ([str(num), "/", str(den)], F(num, den))]))
        terms.append((draw(st.sampled_from(["+", "-"] if i else ["", "-"])),
                      written, value, factors))
    if draw(st.integers(0, 4)) == 0:
        terms += [("+" if sign == "-" else "-", *rest) for sign, *rest in terms]
    symbols, names, denoted = [], [], []
    for sign, written, value, factors in terms:
        symbols += [sign] if sign else []
        symbols += written + ["*"] if written else []
        exponents = {}
        for k, (name, power) in enumerate(factors):
            symbols += (["*"] if k else []) + [name] + (["^", str(power)] if power else [])
            names += [name] if name not in names else []
            exponents[name] = exponents.get(name, 0) + (power or 1)
        denoted.append((-value if sign == "-" else value, exponents))
    text = draw(_SPACES) + "".join(symbol + draw(_SPACES) for symbol in symbols)
    term_map = {}
    for value, exponents in denoted:
        key = tuple(exponents.get(name, 0) for name in names)
        term_map[key] = term_map.get(key, 0) + value
    return text, tuple(names), {key: c for key, c in term_map.items() if c}


# each input with the exception class and position of the earlier
# two-stage parser (tokens, then recursive descent)
ERROR_TABLE = [
    ("x^4 + @", ParseError, 6),
    ("x^4 +", ParseError, 5),
    ("3x", ParseError, 1),
    ("x y", ParseError, 2),
    ("x^0 + y", ParseError, 2),
    ("x^3/2", ParseError, 2),
    ("3*4", ParseError, 2),
    ("2/0*x^3", ParseError, 0),
    ("x^2+1", ParseError, 4),
    ("-3/2", ParseError, 1),
    ("+x^2", ParseError, 0),
    ("x^2++y", ParseError, 4),
    ("x^2*", ParseError, 4),
    ("", ParseError, 0),
    ("   ", ParseError, 0),
    ("x^", ParseError, 2),
    ("x^y", ParseError, 2),
    ("3^x", ParseError, 1),
    ("3/2/5*x", ParseError, 3),
    ("x1^2 + 1x", ParseError, 8),
    ("x^2 - x^2", EmptyPolynomialError, None),
]


class TestParse:
    @pytest.mark.parametrize("text,error,position", ERROR_TABLE)
    def test_error_table(self, text, error, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert type(err.value) is error
        assert err.value.position == position

    @pytest.mark.parametrize("template,position", [
        ("x^{}", 2), ("y^2 + {}*x^2", 6), ("3/{}*x^2", 2)],
        ids=["exponent", "coefficient", "denominator"])
    def test_a_number_past_the_digit_limit_is_refused_where_it_starts(
            self, template, position):
        # int() refuses more than sys.get_int_max_str_digits() digits
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError, match="more than") as err:
            parse_polynomial(template.format(digits))
        assert type(err.value) is ParseError
        assert err.value.position == position

    @pytest.mark.parametrize("space", ["\t", "\n", " \t", "\xa0"])
    def test_whitespace_beside_a_coefficients_slash(self, space):
        assert (parse_polynomial(f"3/{space}2*x^2 + y^2")
                == parse_polynomial(f"3{space}/2*x^2 + y^2")
                == parse_polynomial("3/2*x^2 + y^2"))

    @settings(max_examples=300, deadline=None)
    @given(written_polynomials())
    @example(("x^2\t-\tx * x", ("x",), {}))
    @example(("x^2+0*y", ("x", "y"), {(2, 0): 1}))
    @example(("z*y - y*z + x^3", ("z", "y", "x"), {(0, 0, 3): 1}))
    @example(("-3 /\t4*x1*x1^2 + x1^3", ("x1",), {(3,): F(1, 4)}))
    def test_parse_agrees_with_the_written_terms(self, drawn):
        text, names, term_map = drawn
        if not term_map:
            with pytest.raises(EmptyPolynomialError):
                parse_polynomial(text)
            return
        poly = parse_polynomial(text)
        assert poly.variables == names
        assert poly.term_map() == term_map
        # the parser builds the canonical form itself: the one from_term_map
        # builds, term order and Fraction coefficients included
        assert poly == Polynomial.from_term_map(names, term_map)
        assert {type(c) for c, _ in poly.terms} == {F}

    def test_three_term_example(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        assert poly.n_monomials == 3
        assert {m.exponents for m in poly.monomials()} == {(4, 0), (0, 4), (3, 1)}

    def test_like_terms_collect(self):
        poly = parse_polynomial("x + x")
        assert poly.terms == ((F(2), Monomial((1,))),)

    def test_cancellation_is_an_error(self):
        with pytest.raises(EmptyPolynomialError):
            parse_polynomial("x^2*y - x^2*y")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x^4 + @")
        assert err.value.position == 6

    @pytest.mark.parametrize("text,position", [("2/0*x^3", 0), ("x^3+1/0*y^3", 4),
                                               ("x + 0/0*y", 4)])
    def test_zero_denominator_carries_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position
        assert "zero denominator" in str(err.value)

    @pytest.mark.parametrize("text,position", [("x^2+1", 4), ("1", 0), ("-3/2", 1),
                                               ("2 + x^2", 0), ("x - 5 + y", 4)])
    def test_constant_term_carries_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text)
        assert err.value.position == position
        assert "constant term" in str(err.value)

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^4 +")

    def test_rational_coefficients(self):
        poly = parse_polynomial("3/2*x^2*y - 2*y^3")
        assert poly.term_map() == {(2, 1): F(3, 2), (0, 3): F(-2)}

    def test_coefficient_requires_star(self):
        with pytest.raises(ParseError):
            parse_polynomial("3x")

    def test_indexed_variable_names(self):
        poly = parse_polynomial("x1^3 + x1*x2^2")
        assert poly.variables == ("x1", "x2")
        assert poly.term_map() == {(3, 0): F(1), (1, 2): F(1)}

    def test_whitespace_insignificant(self):
        assert parse_polynomial(" x ^3+ y^ 3 ") == parse_polynomial("x^3+y^3")

    def test_repeated_factor_multiplies(self):
        assert parse_polynomial("x*x*y").term_map() == {(2, 1): F(1)}

    def test_leading_minus(self):
        assert parse_polynomial("-x^2 + y").term_map() == {(2, 0): F(-1), (0, 1): F(1)}

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^0 + y")


class TestCanonicalForm:
    def test_terms_sorted_descending_lex(self):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        assert [m.exponents for m in poly.monomials()] == [(4, 0), (3, 1), (0, 4)]

    def test_variables_ordered_by_first_appearance(self):
        poly = parse_polynomial("y^4 + x^3*y + x^4")
        assert poly.variables == ("y", "x")
        assert [m.exponents for m in poly.monomials()] == [(4, 0), (1, 3), (0, 4)]

    def test_print_roundtrip_examples(self):
        for text in ["x^4 + x^3*y + y^4", "3/2*x^2*y - 2*y^3", "x^2*y + x*y^3"]:
            poly = parse_polynomial(text)
            assert parse_polynomial(str(poly)) == poly

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_print_roundtrip_random(self, data):
        names = data.draw(st.lists(st.from_regex(r"[A-Za-z][0-9]{0,2}", fullmatch=True),
                                   min_size=1, max_size=4, unique=True))
        n = len(names)
        term_map = data.draw(st.dictionaries(
            keys=st.tuples(*[st.integers(0, 5) | st.integers(0, 10**12)] * n).filter(any),
            values=(st.fractions(min_value=-4, max_value=4)
                    | st.fractions(max_denominator=10**9)).filter(bool),
            min_size=1, max_size=6))
        # every ambient variable must occur: parse never produces unused ones
        assume(all(any(k[i] for k in term_map) for i in range(n)))
        poly = Polynomial.from_term_map(names, term_map)
        parsed = parse_polynomial(str(poly))
        # parse orders the variables by first appearance in the text
        assert sorted(parsed.variables) == sorted(names)
        at = [parsed.variables.index(name) for name in names]
        assert Polynomial.from_term_map(names, {
            tuple(exps[i] for i in at): c for exps, c in parsed.term_map().items()}) == poly

    def test_repeated_variable_names_are_refused(self):
        # it would print as x^3 + x^3, which reads back as 2*x^3 in one variable
        with pytest.raises(ValueError, match="repeated variable name"):
            Polynomial.from_term_map(("x", "x"), {(3, 0): 1, (0, 3): 1})

    @pytest.mark.parametrize("name", ["", "x y", "1", "x^2"])
    def test_variable_names_the_grammar_cannot_read_are_refused(self, name):
        # ("x y", "z") would print as x y^3 + z^3 and ("1", "z") as 1^3 + z^3,
        # which parse_polynomial does not read back; ("1", "z") classified
        with pytest.raises(ValueError, match="is not a letter followed by digits"):
            Polynomial.from_term_map((name, "z"), {(3, 0): 1, (0, 3): 1})

    def test_the_default_names_are_read_back(self):
        names = tuple(f"x{i + 1}" for i in range(12))
        poly = Polynomial.from_term_map(names, {
            tuple(3 * (i == j) for j in range(12)): 1 for i in range(12)})
        assert parse_polynomial(str(poly)) == poly

    def test_a_polynomial_in_no_variables_is_refused(self):
        # it classified with a misleading error, yet gmax gave it a group of
        # order 1 and is_nondegenerate answered False
        with pytest.raises(ValueError, match="at least one variable"):
            Polynomial.from_term_map((), {(): 1})


class TestExponentMatrix:
    def test_three_term_example(self):
        matrix = exponent_matrix(parse_polynomial("x^4 + y^4 + x^3*y"))
        assert set(matrix) == {(4, 0), (0, 4), (3, 1)}
        assert (len(matrix), len(matrix[0])) == (3, 2)

    def test_single_power(self):
        assert exponent_matrix(parse_polynomial("x^7")) == ((7,),)

    def test_chain_rows(self):
        assert exponent_matrix(parse_polynomial("x^3 + x*y^2")) == ((3, 0), (1, 2))

    def test_rows_follow_term_order(self):
        poly = parse_polynomial("x^2*y + x*y^3")
        assert exponent_matrix(poly) == tuple(m.exponents for m in poly.monomials())

    def test_a_zero_row_is_not_quasihomogeneous(self):
        # a constant term: no weights give it weighted degree one
        with pytest.raises(NotQuasihomogeneous):
            solve_weights(((1, 0), (0, 0)))


class TestWeightSystem:
    def test_empty_is_refused(self):
        with pytest.raises(InvalidArgument, match="at least one weight"):
            WeightSystem(())


# a float is refused even where its binary value is exact, as 0.5's is
FLOATS = pytest.mark.parametrize("x", [0.5, 0.1, 4 / 3], ids=["0.5", "0.1", "4/3"])


class TestExactInputs:
    @FLOATS
    def test_weight_system(self, x):
        with pytest.raises(InvalidArgument, match="is a float"):
            WeightSystem((F(1, 3), x))

    @FLOATS
    def test_polynomial_coefficient(self, x):
        with pytest.raises(InvalidArgument, match="is a float"):
            Polynomial.from_term_map(("x", "y"), {(3, 0): 1, (0, 3): x})

    @FLOATS
    def test_group_element(self, x):
        with pytest.raises(InvalidArgument, match="is a float"):
            GroupElement((x, 0))

    @FLOATS
    def test_graded_dims(self, x):
        with pytest.raises(InvalidArgument, match="is a float"):
            GradedDims([(F(1, 3), 1), (x, 2)])

    @FLOATS
    def test_graded_dims_degree(self, x):
        with pytest.raises(InvalidArgument, match="is a float"):
            GradedDims([(F(1, 3), 1)]).dim_at(x)

    @FLOATS
    def test_search_target(self, x):
        for d, delta in ((4, x), (x, F(4, 3))):
            with pytest.raises(InvalidArgument, match="is a float"):
                search_weight_systems(d, delta, 2)

    @FLOATS
    def test_discriminant_boundary_target(self, x):
        for d, delta in ((8, x), (x, F(12, 5))):
            with pytest.raises(InvalidArgument, match="is a float"):
                discriminant_sign_boundary(d, delta, 10)

    # a bool is an int to Python, but no number: True would be read as 1
    @pytest.mark.parametrize("b", [True, False])
    @pytest.mark.parametrize("read", [
        lambda b: WeightSystem((b, F(1, 2))),
        lambda b: Polynomial.from_term_map(("x", "y"), {(3, 0): 1, (0, 3): b}),
        lambda b: GradedDims([(b, 1)]),
        lambda b: GradedDims([(F(1, 3), 1)]).dim_at(b),
        lambda b: search_weight_systems(b, 0, 1),
        lambda b: discriminant_sign_boundary(8, b),
        lambda b: GroupElement((b, 0)),
    ], ids=["weight", "coefficient", "graded degree", "dim_at", "search target",
            "discriminant target", "phase"])
    def test_a_bool_is_refused(self, read, b):
        with pytest.raises(InvalidArgument, match="is a bool"):
            read(b)


LIMIT = sys.get_int_max_str_digits()


class TestNumericStrings:
    """A string is read as Fraction reads it, and refused when its numerator
    or denominator would have more than LIMIT digits, the most `int`
    converts to text; an exponent is read before 10^|exponent| is built."""

    @pytest.mark.parametrize("text,value", [
        ("1e2", 100), ("-2.5E-1", F(-1, 4)), (" 3/4 ", F(3, 4)), ("1_000e-3", 1),
        (f"1e{LIMIT - 1}", 10 ** (LIMIT - 1)), (f"1e-{LIMIT - 1}", F(1, 10 ** (LIMIT - 1))),
        # 5/10^LIMIT reduces to a denominator of LIMIT digits
        (f"5e-{LIMIT}", F(1, 2 * 10 ** (LIMIT - 1))),
        ("9" * LIMIT, int("9" * LIMIT)), (f"0e{10 ** 8}", 0), (f"-0.0e-{10 ** 8}", 0)],
        ids=lambda v: v if isinstance(v, str) and len(v) < 20 else None)
    def test_numbers_up_to_the_limit_are_read(self, text, value):
        assert _rational(text) == value

    @pytest.mark.parametrize("text", [
        f"1e{LIMIT}", f"1e-{LIMIT}", "0." + "0" * (LIMIT - 1) + "1", f"7e{3 * LIMIT - 1}",
        f"7e{3 * LIMIT}", f"-1.5e{10 ** 7}", f"1e-{10 ** 7}",
        f"{'9' * LIMIT}.{'9' * LIMIT}e-{10 ** 8}"],
        ids=["10^LIMIT", "10^-LIMIT", "decimal 10^-LIMIT", "below 3 LIMIT", "3 LIMIT",
             "-1.5e10000000", "1e-10000000", "longest mantissa"])
    def test_a_number_past_the_limit_is_refused(self, text):
        with pytest.raises(InvalidArgument, match=f"^number has more than {LIMIT} digits$"):
            _rational(text)

    def test_a_search_target_is_refused_before_the_power_is_built(self):
        # Fraction("1e10000000") alone takes seconds
        start = time.perf_counter()
        for d, delta in (("1e10000000", 1), (8, "1e-10000000")):
            with pytest.raises(InvalidArgument, match="more than"):
                search_weight_systems(d, delta, 2)
            with pytest.raises(InvalidArgument, match="more than"):
                discriminant_sign_boundary(d, delta, 10)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text,quoted", [
        *((text, repr(text)) for text in ["abc", "1/0", "1/2e3", "1 e3", "e3", "1e3e3"]),
        ("x" * 5000, "'" + "x" * 39 + "...")], ids=lambda v: v[:10])
    def test_text_that_is_no_number_is_quoted_by_a_short_prefix(self, text, quoted):
        with pytest.raises(InvalidArgument) as caught:
            _rational(text)
        assert str(caught.value) == f"not a rational number: {quoted}"

    def test_a_run_of_digits_past_the_limit_is_counted(self):
        with pytest.raises(InvalidArgument, match=f"^number has {LIMIT + 1} digits, more than"):
            _rational("1/" + "3" * (LIMIT + 1))


# a count that int() would truncate or read as 1: each is refused, not rounded
NON_INTS = pytest.mark.parametrize("k", [2.7, 3.0, F(5, 2), F(2), "2", True],
                                   ids=["2.7", "3.0", "5/2", "Fraction 2", "'2'", "True"])


class TestIntegerCounts:
    @NON_INTS
    def test_graded_dims_dimension(self, k):
        with pytest.raises(InvalidArgument, match="dimension must be an integer"):
            GradedDims([(F(1, 3), k)])

    @NON_INTS
    def test_polynomial_exponent(self, k):
        with pytest.raises(InvalidArgument, match="exponent must be an integer"):
            Polynomial.from_term_map(("x", "y"), {(3, 0): 1, (k, 1): 1})

    @NON_INTS
    def test_brute_force_bound(self, k):
        with pytest.raises(InvalidArgument, match="denominator bound must be an integer"):
            gmax_bruteforce(parse_polynomial("x^3"), k)

    @NON_INTS
    def test_monomial(self, k):
        with pytest.raises(InvalidArgument, match="exponent must be an integer"):
            Monomial((k, 1))

    @NON_INTS
    def test_exponent_matrix(self, k):
        with pytest.raises(InvalidArgument, match="exponent must be an integer"):
            solve_weights(((3, 0), (k, 1)))

    @NON_INTS
    def test_smith_normal_form(self, k):
        with pytest.raises(InvalidArgument, match="matrix entry must be an integer"):
            smith_normal_form([[k, 1], [0, 3]])

    @NON_INTS
    def test_kernel_grade_weight(self, k):
        with pytest.raises(InvalidArgument, match="grade weight must be an integer"):
            staircase([{(2, 0): 1}, {(0, 2): 1}], (k, 1))

    @NON_INTS
    def test_kernel_exponent(self, k):
        with pytest.raises(InvalidArgument, match="exponent must be an integer"):
            staircase([{(2, 0): 1}, {(k, 2): 1}], (1, 1))

    @NON_INTS
    def test_family_parameter(self, k):
        for reader in (discriminant_2var, nfamily_quadratic):
            with pytest.raises(InvalidArgument, match="n must be an integer"):
                reader(k)

    def test_ints_are_taken_as_they_are(self):
        assert GradedDims([(F(1, 3), 2)]).dims == (2,)
        assert str(Polynomial.from_term_map(("x",), {(2,): 1})) == "x^2"
        assert gmax_bruteforce(parse_polynomial("x^3"), 3).order == 3
        assert Monomial((2, 1)).exponents == (2, 1)
        assert tuple(solve_weights(((2, 1), (0, 2)))) == (F(1, 4), F(1, 2))
        assert smith_normal_form([[2, 1], [0, 3]])[0] == [[1, 0], [0, 6]]
        assert staircase([{(2, 0): 1}, {(0, 2): 1}], (1, 1)).leads == ((0, 2), (2, 0))
        assert discriminant_2var(5) == -224 and nfamily_quadratic(3) == (9, -6, 1)


class TestSolveWeights:
    def test_three_term_example(self):
        q = solve_weights(((4, 0), (0, 4), (3, 1)))
        assert tuple(q) == (F(1, 4), F(1, 4))

    def test_underdetermined(self):
        with pytest.raises(NonUniqueWeights):
            solve_weights(((2, 1),))

    def test_chain_by_hand(self):
        q = solve_weights(((3, 0), (1, 2)))
        assert tuple(q) == (F(1, 3), F(1, 3))

    def test_inconsistent_system(self):
        # x^2 and x^3 cannot both have weighted degree one
        with pytest.raises(NotQuasihomogeneous):
            solve_weights(((2,), (3,)))

    def test_nonpositive_weight(self):
        # x^3*y and y force q1 = 0
        with pytest.raises(NonPositiveWeight):
            solve_weights(((3, 1), (0, 1)))

    def test_bound_without_cross_term(self):
        # x^2 + y*x^2 ... use rows (2, 0), (1, 3): q = (1/2, 1/6) is fine;
        # rows (1, 1) absent and some weight above 1/2 must fail
        with pytest.raises(WeightBoundViolated):
            solve_weights(((1,),))

    def test_cross_term_lifts_bound(self):
        q = solve_weights(((3, 0), (1, 1)))
        assert tuple(q) == (F(1, 3), F(2, 3))


# The Fraction Gauss-Jordan solve that the integer elimination replaced,
# kept verbatim as the oracle for it
def oracle_has_cross_term(matrix) -> bool:
    for row in matrix:
        nonzero = [e for e in row if e]
        if len(nonzero) == 2 and nonzero == [1, 1]:
            return True
    return False


def oracle_solve_weights(matrix) -> WeightSystem:
    m, n = len(matrix), len(matrix[0])
    aug = [[F(e) for e in row] + [F(1)] for row in matrix]
    pivot_cols: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        lead = aug[row][col]
        aug[row] = [v / lead for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            raise NotQuasihomogeneous("A.q = 1 has no solution")
    if len(pivot_cols) < n:
        raise NonUniqueWeights("weights are not unique (rank(A) < n)")
    q = [F(0)] * n
    for r, col in enumerate(pivot_cols):
        q[col] = aug[r][n]
    if any(v <= 0 for v in q):
        raise NonPositiveWeight(f"solved weights {tuple(map(str, q))} are not all positive")
    if not oracle_has_cross_term(matrix) and any(v > F(1, 2) for v in q):
        raise WeightBoundViolated(
            f"weights {tuple(map(str, q))} exceed 1/2 with no cross-term present")
    return WeightSystem(tuple(q))


def _outcome(solve, matrix):
    try:
        return solve(matrix)
    except WeightError as exc:
        return type(exc), str(exc)


@st.composite
def exponent_matrices(draw):
    """Matrices in 1-4 variables, random with n or n + 1 rows or chain-like
    and square, kept as drawn or changed by a row that makes them
    inconsistent (a multiple or a sum of rows) or rank deficient (a row
    dropped), or that adds a pure variable (weight 1, above 1/2), a
    cross-term or a zero row (a constant term)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
        rows = draw(st.lists(row, min_size=n, max_size=n + 1))
    else:
        # chain-like: x_i^a_i * x_(i+1)^b_i, with a_i = 1 giving weights above 1/2
        rows = [[draw(st.integers(1, 6)) if k == r else
                 draw(st.integers(0, 1)) if k == r + 1 else 0 for k in range(n)]
                for r in range(n)]
    grow = draw(st.sampled_from(["none", "multiple", "sum", "drop", "pure", "cross", "zero"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if grow == "multiple":
        rows.append([draw(st.integers(2, 3)) * e for e in rows[0]])
    elif grow == "sum":
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])
    elif grow == "drop" and len(rows) > 1:
        rows.pop()
    elif grow == "pure":
        rows.append([int(k == i) for k in range(n)])
    elif grow == "cross" and i != j:
        rows.append([int(k in (i, j)) for k in range(n)])
    elif grow == "zero":
        rows.insert(i, [0] * n)
    return tuple(map(tuple, rows))


@st.composite
def weight_one_matrices(draw):
    """Tall matrices, as dense polynomials give (the benchmark's dense
    3-variable ones have up to 25 monomials): distinct monomials of weight
    one under drawn weights in (0, 1/2], kept as drawn, with one random row
    added (inconsistent unless its weight happens to be one), or cut to the
    monomials free of one variable (rank below n)."""
    n = draw(st.integers(2, 4))
    scale = draw(st.integers(4, 9))
    weights = WeightSystem(tuple(F(draw(st.integers(1, 3)), scale) for _ in range(n)))
    pool = _monomials_of_weight_one(weights)
    assume(pool)
    rows = draw(st.permutations(pool))[:draw(st.sampled_from(range(1, 26)))]
    change = draw(st.sampled_from(["none", "row", "cut"]))
    if change == "row":
        rows.append(tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any))))
    elif change == "cut":
        k = draw(st.integers(0, n - 1))
        rows = [row for row in rows if not row[k]] or rows
    return tuple(rows)


@st.composite
def chain_and_loop_matrices(draw):
    """Chains x_i^a_i * x_(i+1), ending in a pure power, and loops
    x_i^a_i * x_(i+1 mod n), in 5-8 variables; a_i = 1 gives a cross-term,
    and a loop of even length with every a_i = 1 has rank below n."""
    n = draw(st.integers(5, 8))
    loop = draw(st.booleans())
    rows = []
    for r in range(n):
        row = [0] * n
        row[r] = draw(st.integers(1, 6))
        if loop or r < n - 1:
            row[(r + 1) % n] += 1
        rows.append(tuple(row))
    return tuple(rows)


# one matrix per outcome: weights, and each error class
ORACLE_CASES = [
    ((4, 0), (0, 4), (3, 1)),        # weights (1/4, 1/4)
    ((3, 0, 0), (1, 2, 0), (0, 1, 2)),  # a chain
    ((2,), (3,)),                    # NotQuasihomogeneous
    ((2, 1, 0), (4, 2, 0), (0, 0, 3)),  # a doubled row: NotQuasihomogeneous
    ((2, 1),),                       # NonUniqueWeights
    ((1, 1, 0, 0), (0, 0, 2, 2)),    # NonUniqueWeights
    ((3, 1), (0, 1)),                # NonPositiveWeight
    ((1, 0), (0, 3)),                # WeightBoundViolated
    ((3, 0), (1, 1)),                # a cross-term lifts the bound
    ((3, 0), (0, 3), (0, 0)),        # a constant term: NotQuasihomogeneous
]


@st.composite
def integer_matrices(draw):
    """Integer matrices of 1-4 columns, square about half the time and
    otherwise of 1-6 rows, with small entries, some of them negative."""
    n = draw(st.integers(1, 4))
    m = n if draw(st.booleans()) else draw(st.integers(1, 6))
    entries = st.integers(0, 5) | st.integers(-3, 3)
    return tuple(tuple(draw(st.lists(entries, min_size=n, max_size=n))) for _ in range(m))


class TestSolveWeightsOracle:
    @settings(max_examples=400, deadline=None)
    @given(integer_matrices())
    @example(((2, 0), (0, 2)))  # q = (1/2, 1/2): the bound holds with equality
    @example(((4, 0, 0), (0, 6, 0), (0, 0, 10)))
    @example(((-2, 0), (0, 3)))  # NonPositiveWeight
    @example(((2, 0), (1, 3), (0, 5)))  # tall and inconsistent
    def test_random_matrices_match_the_fraction_solve(self, matrix):
        found = _outcome(solve_weights, matrix)
        assert found == _outcome(oracle_solve_weights, matrix)
        if isinstance(found, WeightSystem):
            # the solve fills in the integer form, read off its integers
            assert "integer_form" in found.__dict__
            assert found.integer_form == _integer_form(found.q)
            assert {type(q) for q in found.q} == {F}

    @pytest.mark.parametrize("rows", ORACLE_CASES)
    def test_each_outcome_matches_the_fraction_solve(self, rows):
        assert _outcome(solve_weights, rows) == _outcome(oracle_solve_weights, rows)

    def test_the_cases_reach_every_outcome(self):
        kinds = set()
        for rows in ORACLE_CASES:
            outcome = _outcome(solve_weights, rows)
            kinds.add(outcome[0] if isinstance(outcome, tuple) else WeightSystem)
        assert kinds == {WeightSystem, NotQuasihomogeneous, NonUniqueWeights,
                         NonPositiveWeight, WeightBoundViolated}

    @settings(max_examples=400, deadline=None)
    @given(exponent_matrices())
    @example(((5, 0, 0, 0), (1, 4, 0, 0), (0, 1, 4, 0), (0, 0, 1, 4)))
    def test_integer_solve_matches_the_fraction_solve(self, matrix):
        assert _outcome(solve_weights, matrix) == _outcome(oracle_solve_weights, matrix)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(weight_one_matrices(), chain_and_loop_matrices()))
    @example(tuple(_monomials_of_weight_one(
        WeightSystem((F(1, 6), F(1, 6), F(1, 6))))[:25]))
    def test_integer_solve_matches_on_tall_and_wide_matrices(self, matrix):
        assert _outcome(solve_weights, matrix) == _outcome(oracle_solve_weights, matrix)


class TestEchelon:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(st.integers(-6, 6), min_size=width, max_size=width), min_size=1, max_size=6)))
    def test_one_positive_pivot_per_rank_spanning_the_rows(self, rows):
        echelon = _echelon(rows, len(rows[0]))
        leads = [next(j for j, a in enumerate(row) if a) for row in echelon]
        assert leads == sorted(set(leads))
        assert all(row[j] > 0 for row, j in zip(echelon, leads))
        assert len(echelon) == Matrix(rows).rank()
        # each row is an integer combination of the echelon's rows
        for row in rows:
            rest = list(row)
            for pivot, j in zip(echelon, leads):
                c, r = divmod(rest[j], pivot[j])
                assert r == 0
                rest = [a - c * b for a, b in zip(rest, pivot)]
            assert not any(rest)


class TestClassify:
    def test_noninvertible_example(self):
        verdict = classify(parse_polynomial("x^4 + y^4 + x^3*y"))
        assert verdict.kind is PolynomialClass.NONINVERTIBLE
        assert tuple(verdict.weights) == (F(1, 4), F(1, 4))

    def test_invertible_sum(self):
        verdict = classify(parse_polynomial("x^3 + y^3"))
        assert verdict.kind is PolynomialClass.INVERTIBLE

    def test_nonunique_weights(self):
        verdict = classify(parse_polynomial("x^2*y"))
        assert verdict.kind is PolynomialClass.NOT_ADMISSIBLE
        assert "NonUniqueWeights" in verdict.reason

    def test_degenerate_with_unique_weights(self):
        # unique weights (4/9, 1/9), but the critical locus contains the
        # whole x-axis, so the Milnor ring is infinite
        verdict = classify(parse_polynomial("x*y^5 + y^9"))
        assert verdict.kind is PolynomialClass.NOT_ADMISSIBLE
        assert "degenerate" in verdict.reason

    def test_rescaling_keeps_class_and_weights(self):
        plain = classify(parse_polynomial("x^4 + y^4 + x^3*y"))
        scaled = classify(parse_polynomial("2*x^4 + 3*y^4 + 5*x^3*y"))
        assert scaled.kind is plain.kind
        assert scaled.weights == plain.weights

    def test_corpus_is_invertible(self, invertible_corpus):
        for poly in invertible_corpus:
            verdict = classify(poly)
            assert verdict.kind is PolynomialClass.INVERTIBLE, str(poly)

    def test_weights_satisfy_system_on_corpus(self, invertible_corpus):
        for poly in invertible_corpus:
            matrix = exponent_matrix(poly)
            q = solve_weights(matrix)
            for row in matrix:
                assert sum(a * w for a, w in zip(row, q)) == 1

    def test_bound_holds_without_cross_terms(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            matrix = exponent_matrix(poly)
            has_cross = any(sorted(row)[-2:] == [1, 1] and sum(row) == 2
                            for row in matrix)
            if not has_cross:
                assert all(w <= F(1, 2) for w in solve_weights(matrix))


class TestConstantTerm:
    """A constant term is a zero row of the exponent matrix: W + 1 has no
    weights, but it has W's Jacobian and W's diagonal symmetries."""

    @pytest.mark.parametrize("text", INVERTIBLE_CORPUS_TEXTS)
    def test_w_plus_one(self, text):
        poly = parse_polynomial(text)
        # built from W's term map: the parser reads no constant term
        constant = (0,) * poly.n_variables
        shifted = Polynomial.from_term_map(poly.variables, {**poly.term_map(), constant: 1})
        verdict = classify(shifted)
        assert verdict.kind is PolynomialClass.NOT_ADMISSIBLE
        assert verdict.reason.startswith("NotQuasihomogeneous: ")
        assert is_nondegenerate(shifted)
        assert gmax(shifted) == gmax(poly)
        with pytest.raises(NotAdmissibleError):
            bmodel(shifted)
        with pytest.raises(NotAdmissibleError):
            amodel(shifted, gmax(poly))

    def test_the_zero_polynomial(self):
        zero = Polynomial.from_term_map(("x", "y"), {(3, 0): 0})
        assert zero.is_zero()
        for read in (classify, exponent_matrix, gmax):
            with pytest.raises(InvalidArgument, match="zero polynomial"):
                read(zero)
        assert not is_nondegenerate(zero)


class TestMonomial:
    def test_negative_exponent_is_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))
