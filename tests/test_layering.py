"""Module layering and one analysis per polynomial.

The modules import one another at module level only, each from modules
below it in LAYER_ORDER, type-only imports included.  `classify`, in
polycore, runs the Jacobian staircase beside it.  Its memo is the only one
keyed by a polynomial (`mirror`'s memo of atom tables is keyed by an
atom's rows in canonical variable order, and both are bounded): `classify`'s record holds the weights, their
integer form (L, L*q_i) and W's Jacobian staircase, so starting from empty
memos the weights of each distinct polynomial are solved once and the
Groebner kernel `staircase` runs at most once per distinct polynomial
classified.  A sum of Fermat, chain and loop
atoms is certified without the kernel, and its staircase is built only when
a basis listing first reads the record: `is_nondegenerate`, `bmodel`,
`amodel` and `mirror_check` run no kernel on it, and `BModel.basis` runs
it once.  Counting runs it on no fixed locus: each nonempty locus of a
symmetry group restricts W to a nondegenerate polynomial, by the lemma in
`amodel`, so only reading `AModel.basis` runs it, once for W and once per
distinct proper, nonempty locus.  The kernel is graded by integer weights,
the record's integer form or all ones: `groebner` imports nothing from
`fractions` and names no rational-weight type.  Within one run, the kernel
packs each input exponent tuple into an integer once, and divides in
primitive integer coefficients only.  A
group lists its elements only when `elements` or `vectors` is first read, so
lattice operations never list theirs, and `subgroups_containing` lists no
vector at all: it enumerates Hermite forms, with one echelon for the seed
group, one for its coordinates on the group's basis and one per subgroup.
Group computations read integers only: a group keeps its generators as
integer vectors, no library computation reads the phase list `elements` or
the vector list `vectors`, and none builds a `GroupElement` once its inputs
are built; `sl_subgroup` and `group_from_elements` each take one Hermite
form.  `transpose_group` solves its relations through one Smith form and
returns that relation group: it never calls `gmax` and lists no vectors.
The weights, every Hermite form and the determinant-one kernel come from
one integer echelon, `polycore._echelon`, called once per weight solve,
once per Hermite form and once per kernel.  `atable` counts the
graded table from the group's integer coordinate columns: it lists no
vector, and `amodel` builds no `SectorElement` until its basis is read.
`mirror_sides` hands `atable` one group per atom of W, in the atom's
canonical variable order, and builds no `AModel`.  `bmodel` counts its table from the Milnor-Orlik
series, so `mirror_sides` lists no standard monomial, and `BModel.basis`
is listed only when first read.  Listing it packs no monomial on its own,
and a series that disagrees with the listing raises `LgmkError` naming the
least degree where they differ.  The `bmodel` report prints the same
checked listing and builds no `Monomial`.  No module reads the
environment: every limit is a module constant.  No module imports `dataclasses`: the value
classes share the small base in `value`, so `import lgmk` loads neither
`dataclasses` nor `inspect`, and without `lgmk.cli` neither `argparse` nor
`json`.  That base alone defines equality, and no
value class repeats its constructor by storing just its fields.  A
polynomial keeps its hash, and its exponent matrix is no object of its own:
no module names an `ExponentMatrix`, and each row `exponent_matrix` gives
is the term's own exponent tuple, not a copy.  The CLI
states each report once: a command's handler `cmd_<name>` defines no
function and returns its inputs and payload, and its text report is built by
`text_<name>`, which takes the payload as its one parameter.  The
only function that calls itself is the search's tail walk, whose depth
`SEARCH_VARS_LIMIT` keeps below the recursion limit; every other walk runs
on an explicit stack.  No module holds an `assert` or raises
`AssertionError`: a check that can fail only on a bug in the toolkit
diagnoses nothing a caller can act on.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgmk
from lgmk import (
    GroupElement,
    WeightSystem,
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
from lgmk.errors import LgmkError

from conftest import family_polynomial, j_group, kernel_staircase

SRC = os.path.dirname(lgmk.__file__)
# the function lgmk.amodel shadows its module
AMODEL = importlib.import_module("lgmk.amodel")


def _module_trees():
    """(module name, syntax tree) of every module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as handle:
                yield name[:-3], ast.parse(handle.read())


# every module of the package, each importing only from modules before it;
# the package and its `python -m` entry point sit above every layer
LAYER_ORDER = ("errors", "value", "groebner", "polycore", "milnor", "symmetry",
               "amodel", "mirror", "cli", "__main__", "__init__")


def _intra_package_imports_in_functions():
    found = set()
    for name, tree in _module_trees():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and (
                        node.level > 0 or (node.module or "").split(".")[0] == "lgmk"):
                    found.add((name, func.name, node.module))
                elif isinstance(node, ast.Import) and any(
                        alias.name.split(".")[0] == "lgmk" for alias in node.names):
                    found.add((name, func.name, None))
    return found


def _imported_modules(node) -> list[str]:
    """The package modules an import statement reads from."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        # `from . import groebner` names its modules
        return [node.module] if node.module else [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    return [n.partition(".")[2] or "__init__" for n in names if n.split(".")[0] == "lgmk"]


def _module_level_imports():
    """(module, imported module) for each intra-package import outside
    function bodies, `if TYPE_CHECKING:` blocks included."""
    found = set()
    for name, tree in _module_trees():
        nodes = list(tree.body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update((name, module) for module in _imported_modules(node))
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nodes.extend(ast.iter_child_nodes(node))
    return found


def _imported_top_levels():
    """(module, top-level name) for each absolute import anywhere in a
    module, functions and `if TYPE_CHECKING:` blocks included."""
    found = set()
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((name, node.module.split(".")[0]))
    return found


_ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads():
    """(module, name) for each `os.environ`, `os.getenv` or the like, read
    as an attribute or imported from os."""
    found = set()
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS:
                found.add((name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.update((name, alias.name) for alias in node.names
                             if alias.name in _ENVIRONMENT_READERS)
    return found


def _unused_imports():
    """(module, name) for each name an import binds that its module never
    reads; the package's re-exports and `from __future__` are exempt."""
    found = set()
    for name, tree in _module_trees():
        if name == "__init__":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found.update((name, b) for b in bound if b not in read)
    return found


def _assertions():
    """(module, line) of each `assert` statement and each raised
    AssertionError."""
    return {(name, node.lineno) for name, tree in _module_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or isinstance(node, ast.Raise) and any(
                isinstance(n, ast.Name) and n.id == "AssertionError" for n in ast.walk(node))}


# the types that hold rational weights, none of which the kernel may name
RATIONAL_WEIGHT_TYPES = {"Fraction", "MonomialOrder", "WeightSystem"}


def _names(tree):
    """Every identifier a syntax tree reads, defines, imports or reads as an
    attribute, annotations included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
    return found


def _definitions(function):
    """The modules that define a function of that name."""
    return {name for name, tree in _module_trees() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == function}


def _classes(trees):
    """(module name, class node) of every class in the given trees."""
    return [(name, node) for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)]


def _stores_only_its_fields(cls: ast.ClassDef) -> bool:
    """True when the class's own `__init__` takes exactly its `_fields`, in
    order and without defaults, and stores each one unchanged in the
    instance `__dict__`: all that the base constructor does."""
    fields, init = None, None
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            init = node
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_fields":
            fields = tuple(ast.literal_eval(node.value))
    if init is None:
        return False
    args = init.args
    if (tuple(a.arg for a in args.args[1:]) != fields or args.defaults or args.vararg
            or args.kwarg or args.kwonlyargs):
        return False
    stored = {}
    for stmt in init.body:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "update" and not call.args):
            stored.update((kw.arg, kw.value) for kw in call.keywords)
        elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
              and isinstance(stmt.targets[0], ast.Subscript)):
            stored[getattr(stmt.targets[0].slice, "value", None)] = stmt.value
        else:
            return False
    return set(stored) == set(fields) and all(
        isinstance(value, ast.Name) and value.id == key for key, value in stored.items())


def _self_recursive():
    """The qualified name (module.outer.inner) of each function whose body
    calls it by its own name, or as a method of `self` or `cls`."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = path + (child.name,)
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(call, ast.Call) and (
                            isinstance(call.func, ast.Name) and call.func.id == child.name
                            or isinstance(call.func, ast.Attribute)
                            and call.func.attr == child.name
                            and isinstance(call.func.value, ast.Name)
                            and call.func.value.id in ("self", "cls"))
                        for call in ast.walk(child)):
                    found.add(".".join(inner))
                visit(child, inner)
            else:
                visit(child, path)

    for name, tree in _module_trees():
        visit(tree, (name,))
    return found


class TestLayering:
    def test_no_function_imports_from_the_package(self):
        assert _intra_package_imports_in_functions() == set()

    def test_every_import_points_down_the_layer_order(self):
        assert sorted(name for name, _ in _module_trees()) == sorted(LAYER_ORDER)
        rank = {name: i for i, name in enumerate(LAYER_ORDER)}
        imports = _module_level_imports()
        assert ("milnor", "polycore") in imports
        assert {(a, b) for a, b in imports if rank[b] >= rank[a]} == set()

    def test_no_module_imports_dataclasses(self):
        imports = _imported_top_levels()
        assert ("polycore", "re") in imports
        assert {name for name, top in imports if top == "dataclasses"} == set()

    @pytest.mark.parametrize("imports, unloaded", [
        ("lgmk", "{'dataclasses', 'inspect', 'argparse', 'json'}"),
        ("lgmk, lgmk.cli", "{'dataclasses', 'inspect'}"),
    ])
    def test_import_loads_neither_dataclasses_nor_inspect(self, imports, unloaded):
        # a fresh interpreter without site hooks: this one has loaded them
        # all; the library alone leaves the command line's argparse and json
        code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {imports}; "
                f"print(sorted({unloaded} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code, os.path.dirname(SRC)],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["[]"]

    def test_no_module_reads_the_environment(self):
        assert _environment_reads() == set()

    def test_no_module_has_an_unused_import(self):
        assert _unused_imports() == set()

    def test_no_module_asserts(self):
        assert _assertions() == set()

    def test_one_self_recursive_function(self):
        # SEARCH_VARS_LIMIT keeps the tail walk's depth below the recursion
        # limit; every other walk runs on an explicit stack
        assert mirror.SEARCH_VARS_LIMIT < sys.getrecursionlimit()
        assert _self_recursive() == {"mirror._walk_tails.walk"}

    def test_value_classes_share_one_constructor_and_one_equality(self):
        classes = _classes(_module_trees())
        values = [cls for _, cls in classes
                  if any(getattr(base, "id", None) == "_Value" for base in cls.bases)]
        assert {"GradedDims", "Staircase", "AModel"} <= {cls.name for cls in values}
        assert [cls.name for cls in values if _stores_only_its_fields(cls)] == []
        assert {(name, cls.name) for name, cls in classes if any(
            isinstance(node, ast.FunctionDef) and node.name == "__eq__"
            for node in cls.body)} == {("value", "_Value")}

    def test_the_kernel_names_no_rational_weight(self):
        imports = _imported_top_levels()
        assert ("groebner", "heapq") in imports
        assert ("groebner", "fractions") not in imports
        names = _names(dict(_module_trees())["groebner"])
        assert {"Staircase", "staircase", "gcd"} <= names
        assert names & RATIONAL_WEIGHT_TYPES == set()

    def test_one_integer_echelon(self):
        assert _definitions("_extended_gcd") == {"polycore"}
        assert _definitions("_echelon") == {"polycore"}

    def test_transpose_lives_in_polycore(self):
        assert mirror.transpose_polynomial is polycore.transpose_polynomial
        assert lgmk.transpose_polynomial is polycore.transpose_polynomial


def _cli_functions(prefix: str) -> dict[str, ast.FunctionDef]:
    """The module-level functions of cli whose names start with prefix."""
    tree = dict(_module_trees())["cli"]
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)}


class TestOneReport:
    def test_every_command_has_a_handler_and_a_text_builder(self):
        handlers, builders = _cli_functions("cmd_"), _cli_functions("text_")
        assert len(handlers) == 7
        assert {name[4:] for name in handlers} == {name[5:] for name in builders}

    def test_no_handler_defines_a_function(self):
        assert {name for name, node in _cli_functions("cmd_").items() if any(
            isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for inner in ast.walk(node) if inner is not node)} == set()

    def test_each_text_builder_reads_one_payload(self):
        for name, node in _cli_functions("text_").items():
            args = node.args
            assert [a.arg for a in args.posonlyargs + args.args] == ["payload"], name
            assert not (args.vararg or args.kwarg or args.kwonlyargs), name


def _count_calls(monkeypatch, module, name):
    """Wrap module.name wherever in the package it is bound, starting from
    empty memos; returns the list of positional argument tuples it is
    called with."""
    polycore._memoized_classify.cache_clear()
    mirror._atom_sides.cache_clear()
    runs = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        runs.append(args)
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
def jacobian_runs(monkeypatch):
    """Every call of `jacobian_staircase`, with the polynomial it receives,
    starting from empty memos."""
    return _count_calls(monkeypatch, polycore, "jacobian_staircase")


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


NONINVERTIBLE = "x^4 + y^4 + x^3*y"


class TestOneJacobianBasis:
    @pytest.mark.parametrize("text,runs", [(CHAIN, 0), (LOOP, 0), (NONINVERTIBLE, 1)])
    def test_bmodel_runs_the_kernel_only_when_uncertified(self, buchberger_runs, text, runs):
        milnor.bmodel(parse_polynomial(text))
        assert len(buchberger_runs) == runs

    @pytest.mark.parametrize("text", [CHAIN, LOOP, NONINVERTIBLE])
    def test_bmodel_basis_runs_the_kernel_once(self, buchberger_runs, text):
        model = milnor.bmodel(parse_polynomial(text))
        assert len(model.basis) == model.graded.total_dim
        assert len(buchberger_runs) == 1

    @pytest.mark.parametrize("text", [CHAIN, LOOP, "x^3 + y^3 + z^3"])
    def test_amodel_runs_no_kernel(self, buchberger_runs, text):
        poly = parse_polynomial(text)
        lgmk.amodel(poly, gmax(poly))
        assert buchberger_runs == []

    @pytest.mark.parametrize("text,loci", CASES)
    def test_basis_runs_once_for_w_and_once_per_proper_locus(self, buchberger_runs,
                                                             text, loci):
        poly = parse_polynomial(text)
        group = gmax(poly)
        assert _proper_loci(group) == loci
        model = lgmk.amodel(poly, group)
        assert buchberger_runs == []
        model.basis
        assert len(buchberger_runs) == 1 + loci

    @pytest.mark.parametrize("text", [CHAIN, LOOP, "x^3 + y^3 + z^3"])
    def test_mirror_check_runs_no_kernel(self, buchberger_runs, text):
        poly = parse_polynomial(text)
        assert mirror_check(poly)
        assert buchberger_runs == []

    def test_weights_command_runs_no_kernel(self, buchberger_runs, capsys):
        assert cli.main(["weights", CHAIN]) == 0
        assert buchberger_runs == []

    def test_weights_command_runs_the_kernel_once_when_uncertified(self, buchberger_runs,
                                                                    capsys):
        assert cli.main(["weights", NONINVERTIBLE]) == 0
        assert len(buchberger_runs) == 1

    def test_orbifold_loop_runs_no_kernel(self, buchberger_runs):
        poly = parse_polynomial("x^3 + y^3 + z^3")
        ambient = gmax(poly)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        for group in subgroups_containing(ambient, [j]):
            transpose_group(group, poly)
            lgmk.amodel(poly, group)
        assert buchberger_runs == []


class TestOneRecord:
    @pytest.mark.parametrize("text,loci", CASES)
    def test_the_record_builds_w_staircase_once(self, buchberger_runs, jacobian_runs,
                                                text, loci):
        poly = parse_polynomial(text)
        verdict = polycore.classify(poly)
        assert milnor.is_nondegenerate(poly)
        assert milnor.bmodel(poly).graded.total_dim > 0
        model = lgmk.amodel(poly, gmax(poly))
        assert buchberger_runs == []
        assert "staircase" not in verdict.__dict__
        assert len(milnor.bmodel(poly).basis) > 0
        assert len(buchberger_runs) == 1
        assert verdict.__dict__["staircase"] is polycore.classify(poly).staircase
        model.basis
        # the full locus reads the record; each proper locus runs once, on
        # its own restriction of W
        assert len(buchberger_runs) == 1 + loci
        restricted = [locus for locus, _ in jacobian_runs[1:]]
        assert len(restricted) == len(set(restricted)) == loci
        assert all(locus.n_variables < poly.n_variables for locus in restricted)

    def test_an_uncertified_record_keeps_the_staircase_that_decided_it(self, buchberger_runs):
        poly = parse_polynomial(NONINVERTIBLE)
        assert polycore.classify(poly).kind is polycore.PolynomialClass.NONINVERTIBLE
        assert len(buchberger_runs) == 1
        assert polycore.classify(poly).staircase.finite
        assert len(milnor.bmodel(poly).basis) > 0
        assert len(buchberger_runs) == 1

    def test_the_record_holds_one_integer_form(self):
        # weights (1/5, 2/5, 1/5)
        verdict = polycore.classify(parse_polynomial(LOOP))
        assert verdict.weights.integer_form == (5, (1, 2, 1))
        assert polycore.classify(parse_polynomial(LOOP)).weights.integer_form \
            is verdict.weights.integer_form

    def test_the_staircase_is_no_part_of_the_verdict(self):
        verdict = polycore.classify(parse_polynomial(CHAIN))
        bare = polycore.Classification(verdict.kind, verdict.weights)
        assert bare == verdict and hash(bare) == hash(verdict)
        assert "staircase" not in repr(verdict)

    def test_a_degenerate_record_has_no_staircase(self):
        verdict = polycore.classify(parse_polynomial("x^3 + x^2*y"))
        assert not verdict.is_admissible and verdict.weights is not None
        assert verdict.staircase is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.fractions(min_value=Fraction(1, 10**4), max_value=1,
                                 max_denominator=10**4),
                    min_size=1, max_size=6))
    def test_integer_form_is_the_weights_over_their_lcm(self, qs):
        weights = WeightSystem(tuple(qs))
        scale, integer_weights = weights.integer_form
        assert scale > 0 and len(integer_weights) == len(weights)
        assert all(Fraction(w, scale) == q for w, q in zip(integer_weights, weights))
        assert gcd(scale, *integer_weights) == 1


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

    # a connected W, and one that splits into two atoms
    @pytest.mark.parametrize("text,atoms", [(CHAIN, 1), ("x^4*y + y^6*z + z^5 + w^7", 2)])
    def test_mirror_check_solves_each_side_once(self, weight_solves, text, atoms):
        poly = parse_polynomial(text)
        assert mirror_check(poly)
        # W, then each atom's rows and its transposed rows on a memo miss
        assert len(weight_solves) == 1 + 2 * atoms
        weight_solves.clear()
        assert mirror_check(poly)
        assert weight_solves == []


class TestOneExponentMatrix:
    def test_no_module_names_an_exponent_matrix_class(self):
        assert {name for name, tree in _module_trees()
                if "ExponentMatrix" in _names(tree)} == set()
        assert not hasattr(polycore.Polynomial, "_matrix")

    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP])
    def test_each_row_is_its_terms_exponent_tuple(self, monkeypatch, text):
        reads = _count_calls(monkeypatch, polycore, "exponent_matrix")
        poly = parse_polynomial(text)
        mirror.mirror_sides(poly)
        polys = list({id(p): p for (p,) in reads}.values())
        # W's matrix is read by the verdict and by the check that W is invertible
        assert len(reads) > len(polys) and polys[0] is poly
        for p in polys:
            rows = polycore.exponent_matrix(p)
            assert len(rows) == len(p.terms)
            assert all(row is mono.exponents for row, (_, mono) in zip(rows, p.terms))


class TestOneEchelon:
    def test_one_echelon_per_weight_solve_and_per_hermite_form(self, monkeypatch):
        echelons = _count_calls(monkeypatch, polycore, "_echelon")
        solves = _count_calls(monkeypatch, polycore, "solve_weights")
        hermite_forms = _count_calls(monkeypatch, symmetry, "_hermite_basis")
        assert mirror_check(parse_polynomial(CHAIN))
        # W, and CHAIN's one atom and its transpose
        assert len(solves) == 3 and hermite_forms
        assert len(echelons) == len(solves) + len(hermite_forms)
        # the weights read the rows of (A | 1), a Hermite form lattice rows
        widths = Counter(len(rows[0]) for rows, _ in echelons)
        assert widths == {4: len(solves), 3: len(hermite_forms)}

    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_one_echelon_per_subgroup(self, monkeypatch, text, seeded):
        poly = parse_polynomial(text)
        full = gmax(poly)
        seed = [GroupElement(tuple(polycore.classify(poly).weights))] if seeded else []
        echelons = _count_calls(monkeypatch, polycore, "_echelon")
        found = subgroups_containing(full, seed)
        # the seed group, its coordinates on Gmax's basis, then each subgroup
        assert len(echelons) == 2 + len(found)


class TestMemo:
    def test_memo_is_bounded(self):
        assert polycore._memoized_classify.cache_info().maxsize is not None

    def test_atom_memo_is_bounded(self):
        assert mirror._atom_sides.cache_info().maxsize is not None


# dense, with weights (1/4, 1/4, 1/2); its Jacobian has 10 distinct exponent
# tuples, and the earlier tuple-keyed engine, without a memo, keyed the 49
# it met in one run 359 times
DENSE = "6*x^4 + 6*x^2*y^2 - 2*x^2*z + 3*x*y^3 - 7*x*y*z - 6*y^4 + 3*y^2*z + 7*z^2"


class TestKeyMemo:
    def test_staircase_keys_each_exponent_tuple_once(self, monkeypatch):
        poly = parse_polynomial(DENSE)
        weights = polycore.classify(poly).weights.integer_form[1]
        gens = [g for g in polycore.jacobian_ideal(poly) if not g.is_zero()]
        packed = Counter()
        pack = groebner._Packing.pack

        def counted(self, exps):
            packed[exps] += 1
            return pack(self, exps)

        monkeypatch.setattr(groebner._Packing, "pack", counted)
        kernel_staircase(gens, weights)
        # each input exponent tuple once, and no other tuple: pair lcms,
        # shifts and every product in the division loop are integer sums
        assert packed == Counter({exps: 1 for g in gens for exps in g.term_map()})


class TestBasisListing:
    @pytest.mark.parametrize("text", [DENSE, CHAIN, LOOP, "x^7 + y^5 + x*z^4"])
    def test_listing_the_milnor_basis_packs_no_monomial(self, monkeypatch, text):
        poly = parse_polynomial(text)
        assert polycore.classify(poly).staircase is not None  # the kernel's run packs
        model = milnor.bmodel(poly)
        packed = []
        pack = groebner._Packing.pack

        def counted(self, exps):
            packed.append(exps)
            return pack(self, exps)

        monkeypatch.setattr(groebner._Packing, "pack", counted)
        assert len(model.basis) == model.graded.total_dim
        assert packed == []

    @staticmethod
    def mutated_series(mutant):
        """DENSE's model, a copy of its table with one mutant applied, and
        the message a basis listing checked against that copy must raise."""
        poly = parse_polynomial(DENSE)
        model = milnor.bmodel(poly)
        table = dict(model.graded.entries)
        degrees = sorted(table)
        low, high = degrees[1], degrees[-2]
        if mutant == "move":  # one dimension moved up, the total kept
            table[low] -= 1
            table[high] += 1
            wrong, listed, counted = low, table[low] + 1, table[low]
        elif mutant == "drop":
            wrong, listed, counted = high, table.pop(high), 0
        else:  # a degree the listing never reaches
            wrong, listed, counted = 2 * degrees[-1] - degrees[-2], 0, 2
            table[wrong] = counted
        graded = milnor.GradedDims((d, k) for d, k in table.items() if k)
        message = (f"the Milnor basis of {poly} lists {listed} monomials of degree {wrong}, "
                   f"but the series counts {counted}")
        return model, graded, message

    @pytest.mark.parametrize("mutant", ["move", "drop", "add"])
    def test_a_series_that_disagrees_with_the_listing_names_its_least_degree(self, mutant):
        model, graded, message = self.mutated_series(mutant)
        mutated = milnor.BModel(model.source, model.weights, graded)
        with pytest.raises(LgmkError) as raised:
            mutated.basis
        assert str(raised.value) == message
        assert "basis" not in mutated.__dict__

    @pytest.mark.parametrize("mutant", ["move", "drop", "add"])
    def test_the_report_refuses_the_same_mutants(self, monkeypatch, capsys, mutant):
        # the report reads the checked listing, not `basis`, and fails with
        # the same plain LgmkError, which main maps to no exit code and raises
        _, graded, message = self.mutated_series(mutant)
        monkeypatch.setattr(milnor, "btable", lambda weights: graded)
        with pytest.raises(LgmkError) as raised:
            cli.main(["bmodel", DENSE, "--json"])
        assert type(raised.value) is LgmkError
        assert str(raised.value) == message
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", [DENSE, CHAIN, LOOP, "x^7 + y^5 + x*z^4", "x^2 + y^2"])
    def test_the_report_builds_no_monomial(self, monkeypatch, capsys, text):
        poly = parse_polynomial(text)
        expected = [m.render(poly.variables) for m in milnor.bmodel(poly).basis]
        polycore._memoized_classify.cache_clear()

        def forbidden(*args):
            raise AssertionError("a Monomial was built")

        monkeypatch.setattr(groebner, "_monomial", forbidden)
        monkeypatch.setattr(groebner.Monomial, "__init__", forbidden)
        assert cli.main(["bmodel", text, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["basis"] == expected


class TestFractionFreeDivision:
    def test_division_receives_no_fraction(self, monkeypatch):
        poly = parse_polynomial(DENSE)
        weights = polycore.classify(poly).weights.integer_form[1]
        gens = [g for g in polycore.jacobian_ideal(poly) if not g.is_zero()]
        coefficients = []
        divisors = []
        top_reduce = groebner._top_reduce

        def recorded(work, basis, packing, spent):
            coefficients.extend(work.values())
            coefficients.extend(c for gen, _ in basis for c in gen.values())
            divisors.extend((tuple(gen.values()), gen[lead]) for gen, lead in basis)
            return top_reduce(work, basis, packing, spent)

        monkeypatch.setattr(groebner, "_top_reduce", recorded)
        kernel_staircase(gens, weights)
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

    def test_discarded_candidates_are_never_listed(self, listings, monkeypatch):
        poly = parse_polynomial(FERMAT)
        j = GroupElement(tuple(polycore.classify(poly).weights))
        full = gmax(poly)
        columns = _count_calls(monkeypatch, symmetry, "_columns")
        found = subgroups_containing(full, [j])
        assert len(found) == 6
        assert listings == []
        assert columns == []


class TestLazyBasis:
    def test_mirror_sides_lists_no_element_and_no_basis(self, monkeypatch):
        groups = []

        def recorded_atable(weights, group):
            groups.append(group)
            return AMODEL.atable(weights, group)

        def forbidden(self, *args):
            raise AssertionError("an AModel was built")

        monkeypatch.setattr(mirror, "atable", recorded_atable)
        monkeypatch.setattr(AMODEL.AModel, "__init__", forbidden)
        mirror._atom_sides.cache_clear()
        _, a_side, b_side = mirror.mirror_sides(parse_polynomial(CHAIN))
        assert a_side == b_side
        # CHAIN's one atom, read from its head z: z^2*y + y^2*x + x^3
        assert groups == [gmax(parse_polynomial("x^2*y + y^2*z + z^3"))]
        assert "elements" not in groups[0].__dict__
        assert "vectors" not in groups[0].__dict__

    def test_basis_is_built_on_first_read(self):
        group = j_group(7)
        model = lgmk.amodel(family_polynomial(7), group)
        assert model.graded.total_dim == 12
        assert "elements" not in group.__dict__
        assert "vectors" not in group.__dict__
        assert "basis" not in model.__dict__
        keys = [(s.adegree, s.sector.phases, s.monomial.exponents) for s in model.basis]
        assert "vectors" in group.__dict__
        assert keys == sorted(keys)
        assert len(keys) == model.graded.total_dim
        assert model.basis is model.basis

    @pytest.mark.parametrize("text", [CHAIN, LOOP, FERMAT, "x^5*y + y^4*z + z^3 + w^7"])
    def test_mirror_sides_lists_no_standard_monomial(self, monkeypatch, text):
        def forbidden(*args):
            raise AssertionError("standard monomials were listed")

        for module in (groebner, AMODEL):
            monkeypatch.setattr(module, "standard_monomials", forbidden)
        monkeypatch.setattr(groebner, "_standard_listing", forbidden)
        _, a_side, b_side = mirror.mirror_sides(parse_polynomial(text))
        assert a_side == b_side
        assert b_side.total_dim > 0

    @pytest.mark.parametrize("text", [CHAIN, LOOP, "x^4 + y^4 + x^3*y"])
    def test_bmodel_basis_is_built_on_first_read(self, text):
        model = milnor.bmodel(parse_polynomial(text))
        assert "basis" not in model.__dict__
        assert len(model.basis) == model.graded.total_dim
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
    def test_dual_of_a_large_gmax_lists_nothing(self, listings, monkeypatch, text):
        poly = parse_polynomial(text)
        full = gmax(poly)

        def forbidden(*args):
            raise AssertionError("transpose_group called gmax")

        monkeypatch.setattr(symmetry, "gmax", forbidden)
        dual = transpose_group(full, poly)
        assert dual.order == 1
        assert listings == []


class TestIntegerGroups:
    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP])
    def test_group_computations_read_no_phase_list(self, monkeypatch, text):
        for name in ("elements", "vectors"):
            def forbidden(self, name=name):
                raise AssertionError(f"SymmetryGroup.{name} was read")

            monkeypatch.setattr(symmetry.SymmetryGroup, name, property(forbidden))
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

    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP, "x^4*y + y^3 + z^5"])
    def test_group_computations_build_no_phase_element(self, monkeypatch, text):
        poly = parse_polynomial(text)
        j = GroupElement(tuple(polycore.classify(poly).weights))

        def forbidden(*args):
            raise AssertionError("a GroupElement was built")

        monkeypatch.setattr(symmetry.GroupElement, "__init__", forbidden)
        monkeypatch.setattr(symmetry, "_element", forbidden)
        _, a_side, b_side = mirror.mirror_sides(poly)
        assert a_side == b_side
        full = gmax(poly)
        found = subgroups_containing(full, [j])
        assert found
        for group in found:
            symmetry.check_symmetry(group, poly)
            assert lgmk.amodel(poly, group).graded.total_dim > 0
            assert transpose_group(group, poly).order * group.order == full.order
            assert prod(quotient_invariant_factors(full, group)) * group.order == full.order
        assert sl_subgroup(full).is_subgroup_of(full)

    @pytest.mark.parametrize("text", [FERMAT, CHAIN, LOOP, "x^4 + y^6"])
    def test_determinant_one_and_listed_groups_take_one_hermite_form(self, monkeypatch, text):
        group = gmax(parse_polynomial(text))
        elements = group.elements

        def forbidden(*args):
            raise AssertionError("a group was enumerated")

        monkeypatch.setattr(symmetry, "_columns", forbidden)
        calls = _count_calls(monkeypatch, symmetry, "_hermite_basis")
        echelons = _count_calls(monkeypatch, polycore, "_echelon")
        assert sl_subgroup(group).is_subgroup_of(group)
        # one echelon for the kernel, one for its Hermite form
        assert (len(calls), len(echelons)) == (1, 2)
        assert symmetry.group_from_elements(elements, group.ambient) == group
        assert len(calls) == 2
