"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py probe
        imports lgmk from the checkout's src/ and reports when the import
        returned (CLOCK_MONOTONIC, nanoseconds) and how long the calibration
        loop takes;
    python3 perfbench/worker.py run < spec.json
        also runs the jobs of the spec, one after another, and prints one
        JSON line per job and a summary line.

The spec holds the jobs, an optional time limit in seconds, and an optional
span file path; with a path, every lgmk layer is traced (see tracer.py).
Only the lgmk calls of a job are timed; the calibration loop, and capturing
and serializing results, happen between jobs.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_lgmk():
    sys.path.insert(0, SRC)
    import lgmk

    imported_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    if not os.path.abspath(lgmk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lgmk was imported from {lgmk.__file__}, not from {SRC}")
    return imported_ns


def _group(group) -> list[list[str]]:
    return [[str(p) for p in g.phases] for g in group.elements]


def run_cli(job):
    from lgmk import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(job["argv"])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-400:]}


def serialize_cli(result):
    return result


def run_supports(job):
    from lgmk import mirror, polycore

    weights = polycore.WeightSystem(tuple(Fraction(q) for q in job["weights"]))
    return mirror.enumerate_admissible_supports(weights)


def serialize_supports(result):
    return [{"variables": list(p.variables),
             "terms": [[list(m.exponents), str(c)] for c, m in p.terms]}
            for p in result]


def run_orbifold(job):
    """The subgroups of Gmax that contain J, and for each its invariant
    factors, transpose group, quotient factors and state space."""
    amodel = sys.modules["lgmk.amodel"]
    from lgmk import polycore, symmetry

    poly = polycore.parse_polynomial(job["poly"])
    weights = polycore.classify(poly).weights
    full = symmetry.gmax(poly)
    j = symmetry.GroupElement(tuple(weights))
    lattice = []
    for group in symmetry.subgroups_containing(full, [j]):
        lattice.append((group, group.invariant_factors(),
                        symmetry.transpose_group(group, poly),
                        symmetry.quotient_invariant_factors(full, group),
                        amodel.amodel(poly, group)))
    return full, lattice, symmetry.sl_subgroup(full)


def serialize_orbifold(result):
    full, lattice, sl = result
    return {
        "gmax": _group(full),
        "sl": _group(sl),
        "lattice": [{"group": _group(group), "factors": list(factors),
                     "dual": _group(dual), "quotient": list(quotient),
                     "graded": model.graded.as_json_dict()}
                    for group, factors, dual, quotient, model in lattice],
    }


RUNNERS = {
    "cli": (run_cli, serialize_cli),
    "supports": (run_supports, serialize_supports),
    "orbifold": (run_orbifold, serialize_orbifold),
}


def calibrate() -> int:
    """Nanoseconds for a fixed piece of pure-Python rational arithmetic.

    The worker runs it before every job, outside the job's timing; run.py
    uses it to express job times at a reference machine speed."""
    begin = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return time.perf_counter_ns() - begin


def run(spec, emit) -> dict:
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    seconds = spec.get("seconds")
    deadline = time.perf_counter_ns() + int(seconds * 1e9) if seconds else None
    done = 0
    for index, job in enumerate(spec["jobs"]):
        if deadline is not None and time.perf_counter_ns() >= deadline:
            break
        runner, serialize = RUNNERS[job["kind"]]
        if tracer is not None:
            tracer.job_id = index
        error = None
        result = None
        cal = calibrate()
        begin = time.perf_counter_ns()
        try:
            result = runner(job)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - recorded as a failed job
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - begin
        emit({"index": index, "ns": elapsed, "cal_ns": cal, "error": error,
              "out": None if error else serialize(result)})
        done += 1
    summary = {"jobs": done,
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        summary["spans"] = tracer.write(spec["trace"])
        summary["counts"] = dict(tracer.counts)
    return summary


def main(argv) -> int:
    imported_ns = _import_lgmk()
    if argv[1:] == ["probe"]:
        calibration = sorted(calibrate() for _ in range(5))[2]
        print(json.dumps({"imported_ns": imported_ns, "cal_ns": calibration}))
        return 0
    spec = json.load(sys.stdin)
    out = sys.stdout

    def emit(record):
        out.write(json.dumps(record) + "\n")

    summary = run(spec, emit)
    summary["imported_ns"] = imported_ns
    out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
