"""Spans around calls into each lgmk module, recorded from outside lgmk.

`Tracer.install()` wraps every public function defined at module level in
each layer, plus the few public methods listed in METHODS, and rebinds the
wrapper wherever a `lgmk` namespace holds the original object, so calls made
through `from .x import f` are traced too.  A span records its name, start,
end, parent span and job id; spans stay in memory until `write()` puts them
in one tab-separated file.  `layer_totals()` reads that file back and
computes each layer's calls, errors and self time (span time minus the time
of its child spans).

Counts that the per-layer metrics need are read from arguments, return
values and raised exceptions at the same boundaries (see `_hooks`).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("polycore", "groebner", "milnor", "symmetry", "amodel", "mirror", "cli")

# Public methods traced as well; invariant_factors is a step of the
# orbifold-lattice jobs.
METHODS = {"symmetry": ("SymmetryGroup.invariant_factors",)}

COUNTS = (
    "groebner.buchberger_calls", "groebner.basis_gens", "groebner.std_monomials",
    "polycore.classify_calls", "polycore.solve_weights_calls",
    "milnor.nondegeneracy_tests",
    "symmetry.gmax_calls", "symmetry.elements_materialized",
    "symmetry.subgroup_closures",
    "amodel.sectors", "amodel.fixed_loci", "amodel.basis_elems",
    "mirror.tails", "mirror.tails_pruned", "mirror.pair_solves", "mirror.solutions",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.counts["mirror.pair_solves_with_pair"] = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        hooks = _hooks(self.counts)
        for layer in LAYERS:
            module = importlib.import_module(f"lgmk.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, self._wrap(name, obj, *hooks.get(name, (None, None))))
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                name = f"{layer}.{qualname}"
                setattr(cls, method, self._wrap(name, getattr(cls, method), None, None))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lgmk" and not mod_name.startswith("lgmk."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])

    def _wrap(self, name, func, on_return, on_error):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, raised, stack = self.start, self.end, self.raised, self.stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(tracer.job_id)
            raised.append(0)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                stack.pop()
                raised[index] = 1
                if on_error is not None:
                    on_error(exc)
                raise
            ends[index] = clock()
            stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        traced.__qualname__ = func.__qualname__
        traced.__doc__ = func.__doc__
        return traced

    # -- output -----------------------------------------------------------

    def write(self, path) -> int:
        """Write every span to path, one per line; returns the span count."""
        origin = self.start[0] if self.start else 0
        with open(path, "w") as out:
            out.write("#names\t" + "\t".join(self.names) + "\n")
            out.write("#name\tparent\tjob\tstart_ns\tend_ns\traised\n")
            for i in range(len(self.start)):
                out.write(f"{self.name[i]}\t{self.parent[i]}\t{self.job[i]}\t"
                          f"{self.start[i] - origin}\t{self.end[i] - origin}\t"
                          f"{self.raised[i]}\n")
        return len(self.start)


def _hooks(counts: Counter) -> dict:
    """(on_return, on_error) per traced name; each updates the counts."""
    from lgmk.errors import TailProductTooLarge
    from lgmk.symmetry import SymmetryGroup

    def bump(key):
        def hook(*_):
            counts[key] += 1
        return hook

    def buchberger(result, _args, _kwargs):
        counts["groebner.buchberger_calls"] += 1
        counts["groebner.basis_gens"] += len(result.generators)

    def standard_monomials(result, _args, _kwargs):
        counts["groebner.std_monomials"] += len(result)

    def materialized(result, _args, _kwargs):
        groups = result if isinstance(result, list) else [result]
        counts["symmetry.elements_materialized"] += sum(
            g.order for g in groups if isinstance(g, SymmetryGroup))

    def gmax(result, args, kwargs):
        counts["symmetry.gmax_calls"] += 1
        materialized(result, args, kwargs)

    def closure(result, args, kwargs):
        counts["symmetry.subgroup_closures"] += 1
        materialized(result, args, kwargs)

    def amodel(result, _args, _kwargs):
        group = result.group
        counts["amodel.sectors"] += group.order
        loci = {frozenset(i for i, p in enumerate(g.phases) if p == 0)
                for g in group.elements}
        counts["amodel.fixed_loci"] += len(loci - {frozenset()})
        counts["amodel.basis_elems"] += len(result.basis)

    def tail_error(exc):
        counts["mirror.tails"] += 1
        if isinstance(exc, TailProductTooLarge):
            counts["mirror.tails_pruned"] += 1

    def solve_pair(result, _args, _kwargs):
        counts["mirror.pair_solves"] += 1
        if result:
            counts["mirror.pair_solves_with_pair"] += 1

    def search(result, _args, _kwargs):
        counts["mirror.solutions"] += len(result.solutions)

    solve_weights = bump("polycore.solve_weights_calls")
    hooks = {
        "groebner.buchberger": (buchberger, None),
        "groebner.standard_monomials": (standard_monomials, None),
        "polycore.classify": (bump("polycore.classify_calls"), None),
        "polycore.solve_weights": (solve_weights, solve_weights),
        "milnor.is_nondegenerate": (bump("milnor.nondegeneracy_tests"), None),
        "symmetry.gmax": (gmax, None),
        "symmetry.subgroup_generated": (closure, None),
        "symmetry.group_from_elements": (closure, None),
        "mirror.reduce_to_pair": (bump("mirror.tails"), tail_error),
        "mirror.solve_pair": (solve_pair, None),
        "mirror.search_weight_systems": (search, None),
        "amodel.amodel": (amodel, None),
    }
    for name in ("gmax_bruteforce", "sl_subgroup", "transpose_group",
                 "gmax_fermat_plus_monomial", "subgroups_containing"):
        hooks[f"symmetry.{name}"] = (materialized, None)
    return hooks


def layer_totals(path, scale: list[float]) -> tuple[dict[str, dict[str, float]], int]:
    """Per layer: calls, errors and self time in seconds, from a span file;
    also the number of spans read.  A span's self time is multiplied by
    scale[job] of the job it belongs to."""
    with open(path) as f:
        names = f.readline().rstrip("\n").split("\t")[1:]
        f.readline()
        rows = [line.split("\t") for line in f]
    duration = [int(r[4]) - int(r[3]) for r in rows]
    child = [0] * len(rows)
    for r, d in zip(rows, duration):
        parent = int(r[1])
        if parent >= 0:
            child[parent] += d
    totals = {layer: {"calls": 0, "errors": 0, "self_s": 0.0} for layer in LAYERS}
    for r, d, c in zip(rows, duration, child):
        layer = totals[names[int(r[0])].split(".", 1)[0]]
        layer["calls"] += 1
        layer["errors"] += int(r[5])
        layer["self_s"] += (d - c) / 1e9 * scale[int(r[2])]
    return totals, len(rows)
