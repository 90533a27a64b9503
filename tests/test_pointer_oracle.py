"""The two exponent-matrix predicates of `classify` against the Groebner kernel.

`polycore._pointer_certified` certifies a sum of Fermat, chain and loop
atoms nondegenerate without a kernel run, and `polycore._critical_axis`
finds a coordinate axis inside the critical locus.  The oracle is the
kernel's verdict, `jacobian_staircase(...) is not None`, which does not
depend on the monomial order.

Pointer-form draws have one row x_i^a_i or x_i^a_i * x_p(i) per variable i
(a_i in 2..9, p any map) with random nonzero rational coefficients of
either sign.  Each certified draw must be nondegenerate; each refused draw
has a branch or a tailed loop (two variables point at one), and must be
degenerate by the kernel, which pins the Kreuzer-Skarke converse although
the code never relies on it.  Free draws choose each row's head and its
exponent (1..9) at random, so heads repeat and exponents of 1 occur; a
certified free draw must still be nondegenerate.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmk import WeightSystem, mirror, parse_polynomial, polycore
from lgmk.polycore import (
    Polynomial,
    _critical_axis,
    _pointer_certified,
    exponent_matrix,
    jacobian_staircase,
    solve_weights,
)

NAMES = "xyzwv"
COEFFICIENTS = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from([-1, 1]), st.integers(1, 9), st.integers(1, 9))


@st.composite
def pointer_polynomials(draw):
    n = draw(st.integers(2, 5))
    terms = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = draw(st.integers(2, 9))
        target = draw(st.integers(0, n - 1))
        if target != i:
            exps[target] = 1
        terms[tuple(exps)] = draw(COEFFICIENTS)
    return Polynomial.from_term_map(NAMES[:n], terms)


@st.composite
def free_square_polynomials(draw):
    n = draw(st.integers(2, 4))
    terms = {}
    for _ in range(n):
        exps = [0] * n
        head = draw(st.integers(0, n - 1))
        exps[head] = draw(st.integers(1, 9))
        target = draw(st.integers(0, n - 1))
        if target != head:
            exps[target] = 1
        terms[tuple(exps)] = draw(COEFFICIENTS)
    return Polynomial.from_term_map(NAMES[:n], terms)


def nondegenerate(poly, weights=None):
    return jacobian_staircase(poly, weights) is not None


class TestPointerCertificate:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pointer_polynomials())
    @example(parse_polynomial("x^3 + x*y^2 + y*z^2"))
    @example(parse_polynomial("x^3*y + y^2*z + z^4*x"))
    @example(parse_polynomial("-2*x^2*y + 1/3*x*y^9"))
    # a branch, and a tailed loop
    @example(parse_polynomial("x^3 + x*y^2 + x*z^2"))
    @example(parse_polynomial("x^2*y + x*y^2 + x*z^2"))
    def test_the_kernel_agrees_on_pointer_draws(self, poly):
        matrix = exponent_matrix(poly)
        # every pointer form has weights in (0, 1/2]
        weights = solve_weights(matrix)
        assert nondegenerate(poly, weights) is _pointer_certified(matrix)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(free_square_polynomials())
    # two rows headed by w, and x*y (its head y of exponent 1) beside x^2
    @example(parse_polynomial("x^8 + x*z^8 + y*w^7 + w^9"))
    @example(parse_polynomial("x^2 + x*y"))
    def test_a_certified_free_draw_is_nondegenerate(self, poly):
        matrix = exponent_matrix(poly)
        if _pointer_certified(matrix):
            assert nondegenerate(poly)

    @pytest.mark.parametrize("rows", [
        ((1, 0), (0, 2)),          # x + y^2: a Fermat head of exponent 1
        ((2, 0), (1, 1)),          # x^2 + x*y: the head y of x*y has exponent 1
        ((3, 0, 0), (2, 1, 0), (0, 0, 2)),  # x is the head of two rows
        ((3, 0), (1, 2), (0, 3)),  # not square
        ((2, 2), (0, 3)),          # x^2*y^2 has no target of exponent 1
        ((2, 1, 1), (0, 2, 0), (0, 0, 2)),  # three variables in one row
    ])
    def test_rows_outside_the_proof_are_refused(self, rows):
        # the proof needs a_i >= 2 for each head, and one row per head
        assert not _pointer_certified(rows)

    def test_the_transpose_of_a_certified_w_is_certified(self, invertible_corpus):
        for poly in invertible_corpus:
            matrix = exponent_matrix(poly)
            assert _pointer_certified(matrix), str(poly)
            assert _pointer_certified(tuple(zip(*matrix))), str(poly)


class TestPointerForm:
    """`_pointer_form` reads the atoms of a pointer-form matrix up to
    relabelling; `_pointer_certified` is its being defined."""

    @pytest.mark.parametrize("text,form", [
        ("x^7", ((False, (7,)),)),
        ("x^3 + y^2", ((False, (2,)), (False, (3,)))),
        # the chain y -> z -> x, read from its head y
        ("x^3 + y^4*z + z^5*x", ((False, (4, 5, 3)),)),
        # the loop (2, 3, 2) rotated to its least, (2, 2, 3)
        ("x^2*y + y^3*z + z^2*x", ((True, (2, 2, 3)),)),
        ("x^2*y + y^2*x + z^4*w + w^3", ((False, (4, 3)), (True, (2, 2)))),
        ("x^2 + x*y", None)])
    def test_each_atom_is_read_from_its_head_or_least_rotation(self, text, form):
        assert polycore._pointer_form(exponent_matrix(parse_polynomial(text))) == form

    @given(pointer_polynomials(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_a_relabelling_keeps_the_form(self, poly, rng):
        rows = exponent_matrix(poly)
        order = list(range(len(rows)))
        rng.shuffle(order)
        relabelled = [tuple(row[i] for i in order) for row in rows]
        rng.shuffle(relabelled)
        form = polycore._pointer_form(rows)
        assert polycore._pointer_form(tuple(relabelled)) == form
        assert (form is not None) is _pointer_certified(rows)


def _supports(weights):
    """Every candidate of `enumerate_admissible_supports`, in its order."""
    names = mirror._default_variables(len(weights))
    pool = mirror._monomials_of_weight_one(weights)
    return [Polynomial.from_term_map(names, {c: 1 for c in combo})
            for size in range(len(weights), len(pool) + 1)
            for combo in combinations(pool, size)]


class TestCriticalAxis:
    @pytest.mark.parametrize("weights", [(Fraction(1, 8), Fraction(1, 8)),
                                         (Fraction(1, 6), Fraction(1, 9)),
                                         (Fraction(1, 5), Fraction(1, 10))])
    def test_the_kernel_agrees_on_every_support_candidate(self, weights):
        for poly in _supports(WeightSystem(weights)):
            verdict = polycore.classify(poly)
            if verdict.weights is None:
                continue
            assert verdict.is_admissible is nondegenerate(poly, verdict.weights), str(poly)
            if _critical_axis(exponent_matrix(poly)):
                assert not verdict.is_admissible
                assert verdict.reason == "degenerate: Milnor ring is not finite dimensional"

    def test_the_eighth_supports_skip_the_kernel_on_a_critical_axis(self, monkeypatch):
        polycore._memoized_classify.cache_clear()
        runs = []
        original = jacobian_staircase

        def counted(poly, weights):
            runs.append(poly)
            return original(poly, weights)

        monkeypatch.setattr(polycore, "jacobian_staircase", counted)
        weights = WeightSystem((Fraction(1, 8), Fraction(1, 8)))
        candidates = _supports(weights)
        found = mirror.enumerate_admissible_supports(weights)
        assert (len(found), len(candidates)) == (281, 502)
        axis = [p for p in candidates if _critical_axis(exponent_matrix(p))]
        assert len(axis) == 214
        assert runs and not set(runs) & set(axis)
        certified = [p for p in candidates if _pointer_certified(exponent_matrix(p))]
        assert len(runs) == len(candidates) - len(axis) - len(certified)
