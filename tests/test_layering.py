"""Module layering and reuse of the Jacobian staircase.

The modules import one another at module level, in layer order; the single
exception is `polycore._memoized_classify`, the memoized body of `classify`,
which reaches up into milnor for the staircase that proves nondegeneracy.
`classify` memoizes its verdict per (polynomial, S-pair budget), so starting
from empty memos the weights of each distinct polynomial are solved once.
The Groebner kernel `staircase` is the engine's only product, and
`milnor.jacobian_staircase` memoizes it per (polynomial, weights, S-pair
budget), so starting from empty memos a call runs the kernel once per
distinct polynomial it classifies and once per distinct proper, nonempty
fixed locus of its groups.  Within one run, the
kernel packs each input exponent tuple into an integer once and never calls
`MonomialOrder.key`, and divides in primitive integer coefficients only.  A
group lists its elements only when `elements` or `vectors` is first read, so
lattice operations and the subgroups that `subgroups_containing` discards
never list theirs.  Group computations read the integer `vectors` only: no
library computation reads the phase list `elements`.  `transpose_group`
solves its relations through one Smith form: it never calls `gmax` and
lists only its relation group's vectors, once, to pick the dual's
generators.  `amodel` counts its graded table on the integer vectors: it
builds no `SectorElement` until its basis is read.
"""

import ast
import importlib
import os
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

import lgmk
from lgmk import (
    GroupElement,
    InvalidArgument,
    MonomialOrder,
    ResourceLimitExceeded,
    fixed_locus,
    gmax,
    mirror_check,
    parse_polynomial,
    quotient_invariant_factors,
    sl_subgroup,
    subgroup_generated,
    subgroups_containing,
    transpose_group,
)
from lgmk import cli, groebner, milnor, mirror, polycore, symmetry

from conftest import family_polynomial, j_group

SRC = os.path.dirname(lgmk.__file__)
# the function lgmk.amodel shadows its module
AMODEL = importlib.import_module("lgmk.amodel")


def _intra_package_imports_in_functions():
    found = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as handle:
            tree = ast.parse(handle.read())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").split(".")[0] == "lgmk"):
                    found.add((name[:-3], func.name, node.module))
                elif isinstance(node, ast.Import) and any(
                        alias.name.split(".")[0] == "lgmk" for alias in node.names):
                    found.add((name[:-3], func.name, None))
    return found


class TestLayering:
    def test_only_classify_defers_an_import(self):
        assert _intra_package_imports_in_functions() == {
            ("polycore", "_memoized_classify", "milnor")}

    def test_transpose_lives_in_polycore(self):
        assert mirror.transpose_polynomial is polycore.transpose_polynomial
        assert lgmk.transpose_polynomial is polycore.transpose_polynomial


def _count_calls(monkeypatch, module, name):
    """Wrap module.name wherever in the package it is bound, starting from
    empty memos; returns the list of first arguments it is called with."""
    polycore._memoized_classify.cache_clear()
    milnor._memoized_staircase.cache_clear()
    runs = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        runs.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "lgmk" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return runs


@pytest.fixture
def buchberger_runs(monkeypatch):
    """Every run of the `staircase` kernel, wherever in the package it is
    called from, starting from empty memos."""
    return _count_calls(monkeypatch, groebner, "staircase")


@pytest.fixture
def weight_solves(monkeypatch):
    """Every call of `solve_weights`, starting from empty memos."""
    return _count_calls(monkeypatch, polycore, "solve_weights")


def _proper_loci(group):
    loci = {fixed_locus(g) for g in group.elements}
    return len(loci - {frozenset(), frozenset(range(group.ambient))})


CHAIN = "x^3 + x*y^2 + y*z^2"
LOOP = "x^3*y + y^2*z + z^4*x"
# proper, nonempty fixed loci of Gmax: {x}, {x, y} for the chain, none for
# the loop, and all six for the Fermat sum
CASES = [(CHAIN, 2), (LOOP, 0), ("x^3 + y^3 + z^3", 6)]


class TestOneJacobianBasis:
    @pytest.mark.parametrize("text", [CHAIN, LOOP, "x^4 + y^4 + x^3*y"])
    def test_bmodel_runs_buchberger_once(self, buchberger_runs, text):
        milnor.bmodel(parse_polynomial(text))
        assert len(buchberger_runs) == 1

    @pytest.mark.parametrize("text,loci", CASES)
    def test_amodel_runs_once_plus_once_per_proper_locus(self, buchberger_runs, text, loci):
        poly = parse_polynomial(text)
        group = gmax(poly)
        assert _proper_loci(group) == loci
        lgmk.amodel(poly, group)
        assert len(buchberger_runs) == 1 + loci

    @pytest.mark.parametrize("text,loci", CASES)
    def test_mirror_check_runs_two_plus_once_per_proper_locus(self, buchberger_runs,
                                                               text, loci):
        poly = parse_polynomial(text)
        assert mirror_check(poly)
        # W and W^T once each, or once in all when W^T == W
        sides = 1 if polycore.transpose_polynomial(poly) == poly else 2
        assert len(buchberger_runs) == sides + loci

    def test_weights_command_runs_buchberger_once(self, buchberger_runs, capsys):
        assert cli.main(["weights", CHAIN]) == 0
        assert len(buchberger_runs) == 1

    def test_orbifold_loop_runs_once_per_polynomial_and_locus(self, buchberger_runs):
        poly = parse_polynomial("x^3 + y^3 + z^3")
        ambient = gmax(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        for group in subgroups_containing(ambient, [j]):
            transpose_group(group, poly)
            lgmk.amodel(poly, group)
        # one run for W, which is its own transpose, and one per proper locus
        assert len(buchberger_runs) == 1 + _proper_loci(ambient) == 7


FERMAT = "x^3 + y^3 + z^3"


class TestOneWeightSolve:
    def test_orbifold_loop_solves_once(self, weight_solves):
        poly = parse_polynomial(FERMAT)
        ambient = gmax(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        groups = subgroups_containing(ambient, [j])
        assert len(groups) == 6
        for group in groups:
            transpose_group(group, poly)
            lgmk.amodel(poly, group).basis
        assert len(weight_solves) == 1

    def test_weights_command_solves_once(self, weight_solves, capsys):
        assert cli.main(["weights", CHAIN]) == 0
        assert len(weight_solves) == 1

    def test_mirror_check_solves_each_side_once(self, weight_solves):
        assert mirror_check(parse_polynomial(CHAIN))
        # W and W^T; the restricted loci take their weights from W's
        assert len(weight_solves) == 2


class TestMemo:
    def test_memo_is_bounded(self):
        assert milnor._memoized_staircase.cache_info().maxsize is not None
        assert polycore._memoized_classify.cache_info().maxsize is not None

    def test_warm_verdict_does_not_bypass_the_budget(self, monkeypatch):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        assert polycore.classify(poly).is_admissible
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "0")
        with pytest.raises(ResourceLimitExceeded):
            polycore.classify(poly)
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "abc")
        with pytest.raises(InvalidArgument):
            polycore.classify(poly)

    def test_warm_memo_does_not_bypass_the_budget(self, monkeypatch):
        poly = parse_polynomial("x^4 + y^4 + x^3*y")
        milnor.bmodel(poly)
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "0")
        with pytest.raises(ResourceLimitExceeded):
            milnor.bmodel(poly)
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "abc")
        with pytest.raises(InvalidArgument):
            milnor.bmodel(poly)


# dense, with weights (1/4, 1/4, 1/2); its Jacobian has 10 distinct exponent
# tuples, and the earlier tuple-keyed engine, without a memo, keyed the 49
# it met in one run 359 times
DENSE = "6*x^4 + 6*x^2*y^2 - 2*x^2*z + 3*x*y^3 - 7*x*y*z - 6*y^4 + 3*y^2*z + 7*z^2"


class TestKeyMemo:
    def test_staircase_keys_each_exponent_tuple_once(self, monkeypatch):
        poly = parse_polynomial(DENSE)
        order = MonomialOrder.weighted_degrevlex(polycore.classify(poly).weights)
        gens = [g for g in milnor.jacobian_ideal(poly) if not g.is_zero()]
        packed = Counter()
        keyed = []
        pack = groebner._Packing.pack

        def counted(self, exps):
            packed[exps] += 1
            return pack(self, exps)

        monkeypatch.setattr(groebner._Packing, "pack", counted)
        monkeypatch.setattr(MonomialOrder, "key", lambda self, exps: keyed.append(exps))
        groebner.staircase(gens, order)
        # each input exponent tuple once, and no other tuple: pair lcms,
        # shifts and every product in the division loop are integer sums
        assert packed == Counter({exps: 1 for g in gens for exps in g.term_map()})
        assert keyed == []


class TestFractionFreeDivision:
    def test_division_receives_no_fraction(self, monkeypatch):
        poly = parse_polynomial(DENSE)
        order = MonomialOrder.weighted_degrevlex(polycore.classify(poly).weights)
        gens = [g for g in milnor.jacobian_ideal(poly) if not g.is_zero()]
        coefficients = []
        divisors = []
        normal_form_dict = groebner._normal_form_dict

        def recorded(poly, basis, packing):
            coefficients.extend(poly.values())
            coefficients.extend(c for gen, _ in basis for c in gen.values())
            divisors.extend((tuple(gen.values()), gen[lead]) for gen, lead in basis)
            return normal_form_dict(poly, basis, packing)

        monkeypatch.setattr(groebner, "_normal_form_dict", recorded)
        groebner.staircase(gens, order)
        assert coefficients
        assert not any(isinstance(c, Fraction) for c in coefficients)
        assert all(type(c) is int for c in coefficients)
        # every divisor is primitive: content 1, positive leading coefficient
        assert all(gcd(*values) == 1 and lc > 0 for values, lc in divisors)


@pytest.fixture
def listings(monkeypatch):
    """Every call of `symmetry._sorted_vectors`, the one place that lists the
    elements of a group."""
    calls = []
    original = symmetry._sorted_vectors

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(symmetry, "_sorted_vectors", counted)
    return calls


class TestLazyElements:
    def test_lattice_operations_list_no_group(self, listings):
        poly = parse_polynomial(FERMAT)
        full = gmax(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        sub = subgroup_generated([j], 3)
        assert (full.order, sub.order) == (27, 3)
        assert full.invariant_factors() == (3, 3, 3)
        assert j in full and sub.is_subgroup_of(full)
        assert quotient_invariant_factors(full, sub) == (3, 3)
        assert listings == []

    def test_views_are_listed_once(self, listings):
        group = gmax(parse_polynomial(FERMAT))
        for _ in range(3):
            assert len(group.elements) == len(group.vectors) == 27
        assert len(listings) == 1

    def test_discarded_candidates_are_never_listed(self, listings):
        poly = parse_polynomial(FERMAT)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        found = subgroups_containing(gmax(poly), [j])
        # the ambient group once, then each returned subgroup for the sort
        assert len(listings) <= 1 + len(found)


class TestLazyBasis:
    def test_mirror_sides_lists_no_element_and_no_basis(self, monkeypatch):
        groups, models = [], []

        def recorded_gmax(poly):
            groups.append(symmetry.gmax(poly))
            return groups[-1]

        def recorded_amodel(poly, group):
            models.append(AMODEL.amodel(poly, group))
            return models[-1]

        monkeypatch.setattr(mirror, "gmax", recorded_gmax)
        monkeypatch.setattr(mirror, "amodel", recorded_amodel)
        _, a_side, b_side = mirror.mirror_sides(parse_polynomial(CHAIN))
        assert a_side == b_side
        assert len(groups) == len(models) == 1
        assert "elements" not in groups[0].__dict__
        assert "basis" not in models[0].__dict__

    def test_basis_is_built_on_first_read(self):
        group = j_group(7)
        model = lgmk.amodel(family_polynomial(7), group)
        assert model.graded.total_dim == 12
        assert "elements" not in group.__dict__
        assert "basis" not in model.__dict__
        keys = [(s.adegree, s.sector.phases, s.monomial.exponents) for s in model.basis]
        assert keys == sorted(keys)
        assert len(keys) == model.graded.total_dim
        assert model.basis is model.basis

    @pytest.mark.parametrize("text", [CHAIN, LOOP, FERMAT])
    def test_graded_path_builds_no_sector_element(self, monkeypatch, text):
        def forbidden(*args):
            raise AssertionError("a SectorElement was built")

        monkeypatch.setattr(AMODEL, "SectorElement", forbidden)
        poly = parse_polynomial(text)
        assert mirror_check(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        for group in subgroups_containing(gmax(poly), [j]):
            assert lgmk.amodel(poly, group).graded.total_dim > 0


class TestTransposeByRelations:
    @pytest.mark.parametrize("text", ["x^1001 + y^1001", "x^900 + y^1000"])
    def test_dual_of_a_large_gmax_lists_only_itself(self, listings, monkeypatch, text):
        poly = parse_polynomial(text)
        full = gmax(poly)

        def forbidden(*args):
            raise AssertionError("transpose_group called gmax")

        monkeypatch.setattr(symmetry, "gmax", forbidden)
        dual = transpose_group(full, poly)
        assert dual.order == 1
        # one listing, of the relation group's vectors (order 1, exponent 1)
        assert [exponent for exponent, _ in listings] == [1]


class TestIntegerGroups:
    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP])
    def test_group_computations_read_no_phase_list(self, monkeypatch, text):
        def forbidden(self):
            raise AssertionError("SymmetryGroup.elements was read")

        monkeypatch.setattr(symmetry.SymmetryGroup, "elements", property(forbidden))
        poly = parse_polynomial(text)
        full = gmax(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        found = subgroups_containing(full, [j])
        assert found
        for group in found:
            assert prod(group.invariant_factors()) == group.order
            assert transpose_group(group, poly).order * group.order == full.order
            assert prod(quotient_invariant_factors(full, group)) * group.order == full.order
            assert lgmk.amodel(poly, group).graded.total_dim > 0
        assert sl_subgroup(full).is_subgroup_of(full)
