"""Module layering and reuse of the Jacobian Groebner basis.

The modules import one another at module level, in layer order; the single
exception is `polycore.classify`, which reaches up into milnor for the basis
that proves nondegeneracy.  `classify` keeps that basis in its verdict, so a
call runs Buchberger once per polynomial it classifies and once per distinct
proper, nonempty fixed locus of its group.
"""

import ast
import os
import sys

import pytest

import lgmk
from lgmk import fixed_locus, gmax, mirror_check, parse_polynomial
from lgmk import milnor, mirror, polycore

SRC = os.path.dirname(lgmk.__file__)


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
        assert _intra_package_imports_in_functions() == {("polycore", "classify", "milnor")}

    def test_transpose_lives_in_polycore(self):
        assert mirror.transpose_polynomial is polycore.transpose_polynomial
        assert lgmk.transpose_polynomial is polycore.transpose_polynomial


@pytest.fixture
def buchberger_runs(monkeypatch):
    """Every Buchberger run, wherever in the package it is called from."""
    runs = []
    original = milnor.buchberger

    def counted(*args, **kwargs):
        runs.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lgmk" and vars(module).get("buchberger") is original:
            monkeypatch.setattr(module, "buchberger", counted)
    return runs


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
    def test_mirror_check_runs_three_plus_once_per_proper_locus(self, buchberger_runs,
                                                                 text, loci):
        assert mirror_check(parse_polynomial(text))
        assert len(buchberger_runs) == 3 + loci
