from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmk import (
    Classification,
    EmptyPolynomialError,
    ExponentMatrix,
    Monomial,
    NonPositiveWeight,
    NonUniqueWeights,
    NotQuasihomogeneous,
    ParseError,
    Polynomial,
    PolynomialClass,
    WeightBoundViolated,
    WeightError,
    WeightSystem,
    classify,
    exponent_matrix,
    parse_polynomial,
    solve_weights,
)


class TestParse:
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
    @given(st.dictionaries(
        keys=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any),
        values=st.fractions(min_value=-4, max_value=4).filter(bool),
        min_size=1, max_size=6).filter(
            lambda tm: all(any(k[i] for k in tm) for i in range(2))))
    def test_print_roundtrip_random(self, term_map):
        # every ambient variable must occur: parse never produces unused ones
        poly = Polynomial.from_term_map(("x", "y"), term_map)
        assert parse_polynomial(str(poly)) == poly


class TestExponentMatrix:
    def test_three_term_example(self):
        matrix = exponent_matrix(parse_polynomial("x^4 + y^4 + x^3*y"))
        assert set(matrix.rows) == {(4, 0), (0, 4), (3, 1)}
        assert (matrix.m, matrix.n) == (3, 2)

    def test_single_power(self):
        assert exponent_matrix(parse_polynomial("x^7")).rows == ((7,),)

    def test_chain_rows(self):
        assert exponent_matrix(parse_polynomial("x^3 + x*y^2")).rows == ((3, 0), (1, 2))

    def test_rows_follow_term_order(self):
        poly = parse_polynomial("x^2*y + x*y^3")
        assert exponent_matrix(poly).rows == tuple(m.exponents for m in poly.monomials())

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            ExponentMatrix(((1, 0), (0, 0)))


class TestSolveWeights:
    def test_three_term_example(self):
        q = solve_weights(ExponentMatrix(((4, 0), (0, 4), (3, 1))))
        assert tuple(q) == (F(1, 4), F(1, 4))

    def test_underdetermined(self):
        with pytest.raises(NonUniqueWeights):
            solve_weights(ExponentMatrix(((2, 1),)))

    def test_chain_by_hand(self):
        q = solve_weights(ExponentMatrix(((3, 0), (1, 2))))
        assert tuple(q) == (F(1, 3), F(1, 3))

    def test_inconsistent_system(self):
        # x^2 and x^3 cannot both have weighted degree one
        with pytest.raises(NotQuasihomogeneous):
            solve_weights(ExponentMatrix(((2,), (3,))))

    def test_nonpositive_weight(self):
        # x^3*y and y force q1 = 0
        with pytest.raises(NonPositiveWeight):
            solve_weights(ExponentMatrix(((3, 1), (0, 1))))

    def test_bound_without_cross_term(self):
        # x^2 + y*x^2 ... use rows (2, 0), (1, 3): q = (1/2, 1/6) is fine;
        # rows (1, 1) absent and some weight above 1/2 must fail
        with pytest.raises(WeightBoundViolated):
            solve_weights(ExponentMatrix(((1,),)))

    def test_cross_term_lifts_bound(self):
        q = solve_weights(ExponentMatrix(((3, 0), (1, 1))))
        assert tuple(q) == (F(1, 3), F(2, 3))


# The Fraction Gauss-Jordan solve that the integer elimination replaced,
# kept verbatim as the oracle for it
def oracle_has_cross_term(matrix: ExponentMatrix) -> bool:
    for row in matrix.rows:
        nonzero = [e for e in row if e]
        if len(nonzero) == 2 and nonzero == [1, 1]:
            return True
    return False


def oracle_solve_weights(matrix: ExponentMatrix) -> WeightSystem:
    m, n = matrix.m, matrix.n
    aug = [[F(e) for e in row] + [F(1)] for row in matrix.rows]
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
    dropped), or that adds a pure variable (weight 1, above 1/2) or a
    cross-term."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
        rows = draw(st.lists(row, min_size=n, max_size=n + 1))
    else:
        # chain-like: x_i^a_i * x_(i+1)^b_i, with a_i = 1 giving weights above 1/2
        rows = [[draw(st.integers(1, 6)) if k == r else
                 draw(st.integers(0, 1)) if k == r + 1 else 0 for k in range(n)]
                for r in range(n)]
    grow = draw(st.sampled_from(["none", "multiple", "sum", "drop", "pure", "cross"]))
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
    return ExponentMatrix(tuple(map(tuple, rows)))


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
]


class TestSolveWeightsOracle:
    @pytest.mark.parametrize("rows", ORACLE_CASES)
    def test_each_outcome_matches_the_fraction_solve(self, rows):
        matrix = ExponentMatrix(rows)
        assert _outcome(solve_weights, matrix) == _outcome(oracle_solve_weights, matrix)

    def test_the_cases_reach_every_outcome(self):
        kinds = set()
        for rows in ORACLE_CASES:
            outcome = _outcome(solve_weights, ExponentMatrix(rows))
            kinds.add(outcome[0] if isinstance(outcome, tuple) else WeightSystem)
        assert kinds == {WeightSystem, NotQuasihomogeneous, NonUniqueWeights,
                         NonPositiveWeight, WeightBoundViolated}

    @settings(max_examples=400, deadline=None)
    @given(exponent_matrices())
    @example(ExponentMatrix(((5, 0, 0, 0), (1, 4, 0, 0), (0, 1, 4, 0), (0, 0, 1, 4))))
    def test_integer_solve_matches_the_fraction_solve(self, matrix):
        assert _outcome(solve_weights, matrix) == _outcome(oracle_solve_weights, matrix)


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
            for row in matrix.rows:
                assert sum(a * w for a, w in zip(row, q)) == 1

    def test_bound_holds_without_cross_terms(self, invertible_corpus, example_table):
        polys = invertible_corpus + [p for rows in example_table.values() for p in rows]
        for poly in polys:
            matrix = exponent_matrix(poly)
            has_cross = any(sorted(row)[-2:] == [1, 1] and sum(row) == 2
                            for row in matrix.rows)
            if not has_cross:
                assert all(w <= F(1, 2) for w in solve_weights(matrix))


class TestMonomial:
    def test_negative_exponent_is_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))
