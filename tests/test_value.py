"""Value semantics of the package's immutable classes.

Each class compares and hashes by its compared fields, prints them as
`Name(field=value, ...)`, and refuses assignment; a field outside the
comparison (a group's generators, a verdict's staircase builder, a model's
locus counts) changes neither equality nor the hash.
"""

from fractions import Fraction as F

import pytest

from lgmk import (
    AModel,
    BModel,
    Classification,
    GradedDims,
    GroupElement,
    InvalidArgument,
    Monomial,
    NonPositiveWeight,
    NotQuasihomogeneous,
    Polynomial,
    PolynomialClass,
    SearchReport,
    SectorElement,
    Staircase,
    SymmetryGroup,
    WeightSystem,
    amodel,
    bmodel,
    gmax,
    parse_polynomial,
    solve_weights,
)

THIRDS = "WeightSystem(q=(Fraction(1, 3), Fraction(1, 3)))"
CUBES = ("Polynomial(variables=('x', 'y'), terms=((Fraction(1, 1), Monomial(exponents=(3, 0))), "
         "(Fraction(1, 1), Monomial(exponents=(0, 3)))))")
CUBES_GMAX = "SymmetryGroup(ambient=2, exponent=3, gens=((1, 0), (0, 1)), basis=((1, 0), (0, 1)))"
CUBES_GRADED = ("GradedDims(entries=((Fraction(0, 1), 1), (Fraction(2, 3), 2), "
                "(Fraction(4, 3), 1)))")

# (class, build, repr text, a field outside the comparison or None)
CASES = [
    (WeightSystem, lambda: WeightSystem((F(1, 3), F(1, 3))), THIRDS, None),
    (Polynomial, lambda: parse_polynomial("x^3 + y^3"), CUBES, None),
    (Classification,
     lambda: Classification(PolynomialClass.INVERTIBLE, WeightSystem((F(1, 3), F(1, 3))),
                            None, lambda: None),
     f"Classification(kind=<PolynomialClass.INVERTIBLE: 'invertible'>, weights={THIRDS}, "
     "reason=None)", "build"),
    (Monomial, lambda: Monomial((1, 2)), "Monomial(exponents=(1, 2))", None),
    (Staircase, lambda: Staircase(((2, 0), (0, 2)), (1, 1)),
     "Staircase(leads=((2, 0), (0, 2)), weights=(1, 1))", None),
    (GroupElement, lambda: GroupElement((F(1, 2), F(3, 2))),
     "GroupElement(phases=(Fraction(1, 2), Fraction(1, 2)))", None),
    (SymmetryGroup, lambda: gmax(parse_polynomial("x^3 + y^3")), CUBES_GMAX, "gens"),
    (SectorElement, lambda: SectorElement(Monomial((1, 0)), GroupElement((F(0), F(1, 3))),
                                          F(2, 3)),
     "SectorElement(monomial=Monomial(exponents=(1, 0)), "
     "sector=GroupElement(phases=(Fraction(0, 1), Fraction(1, 3))), "
     "adegree=Fraction(2, 3))", None),
    (AModel, lambda: amodel(parse_polynomial("x^3 + y^3"), gmax(parse_polynomial("x^3 + y^3"))),
     f"AModel(source={CUBES}, group={CUBES_GMAX}, graded={CUBES_GRADED})", "locus_counts"),
    (BModel, lambda: bmodel(parse_polynomial("x^3 + y^3")),
     f"BModel(source={CUBES}, weights={THIRDS}, graded={CUBES_GRADED})", None),
    (SearchReport,
     lambda: SearchReport(F(4), F(2, 3), 2, 12, (WeightSystem((F(1, 3), F(1, 3))),), "complete"),
     "SearchReport(target_dim=Fraction(4, 1), target_top=Fraction(2, 3), vars=2, "
     f"denominator_bound=12, solutions=({THIRDS},), status='complete')", None),
    # built from its entries, and shown by them
    (GradedDims, lambda: GradedDims(((F(4, 3), 1), (F(0), 1), (F(2, 3), 2))), CUBES_GRADED, None),
]


@pytest.mark.parametrize("cls,build,text,outside", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, build, text, outside):
    first, second = build(), build()
    assert type(first) is cls and first is not second
    assert first == second and hash(first) == hash(second)
    assert first != text and first.__eq__(text) is NotImplemented
    assert repr(first) == text
    for name in (next(iter(vars(first))), "unknown"):
        with pytest.raises(AttributeError):
            setattr(first, name, None)
        with pytest.raises(AttributeError):
            delattr(first, name)
    assert first == second and repr(first) == text
    if outside is not None:
        # written past the frozen guard, as a cached_property writes
        first.__dict__[outside] = object()
        assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("build", [
    lambda: Staircase(((2, 0), (0, 2))),
    lambda: Staircase(((2, 0), (0, 2)), (1, 1), None),
    lambda: Polynomial(),
    lambda: SearchReport(F(4), F(2, 3), 2, 12, ()),
    # the per-locus counts are no constructor argument
    lambda: AModel(parse_polynomial("x^3"), gmax(parse_polynomial("x^3")),
                   GradedDims(((F(1, 3), 1),)), {}),
])
def test_a_record_takes_one_argument_per_field(build):
    with pytest.raises(TypeError, match="fields, got"):
        build()


def test_a_compared_field_changes_equality():
    assert Monomial((1, 2)) != Monomial((2, 1))
    assert Staircase(((2,),), (1,)) != Staircase(((2,),), (2,))
    assert WeightSystem((F(1, 3),)) != GroupElement((F(1, 3),))


def test_group_elements_sort_by_their_phases():
    a, b, c = (GroupElement((F(p), F(1, 2))) for p in (F(0), F(1, 3), F(2, 3)))
    assert sorted([c, a, b]) == [a, b, c]
    assert a < b <= b < c and c > b >= b > a
    assert not a < a and a <= a and a >= a
    with pytest.raises(TypeError):
        a < (F(0), F(1, 2))


def test_cached_properties_write_the_instance_dict():
    weights = WeightSystem((F(1, 2), F(1, 3)))
    assert weights.integer_form == (6, (3, 2))
    assert weights.__dict__["integer_form"] == (6, (3, 2))


def test_a_polynomial_keeps_its_hash():
    poly = parse_polynomial("x^3 + y^3")
    assert hash(poly) == hash((poly.variables, poly.terms)) == poly.__dict__["_hash"]


@pytest.mark.parametrize("build,error", [
    (lambda: Monomial((1, -1)), ValueError),
    (lambda: WeightSystem((F(1, 2), F(0))), NonPositiveWeight),
    (lambda: WeightSystem((F(-1, 2),)), NonPositiveWeight),
    (lambda: solve_weights(((1, 0), (2,))), InvalidArgument),
    (lambda: solve_weights(()), InvalidArgument),
    (lambda: solve_weights(((), ())), InvalidArgument),
    (lambda: solve_weights(((1, 0), (0, 0))), NotQuasihomogeneous),
])
def test_validation_still_raises(build, error):
    with pytest.raises(error):
        build()
