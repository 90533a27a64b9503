"""The lgmk benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload mirror-corpus --seed 1 --seconds 20 --trace 0

With --trace 0 it generates the workload's inputs from the seed, times how
long a fresh interpreter takes to import lgmk, runs the jobs one after
another in one fresh single-threaded worker for --seconds seconds, checks
every output, and prints the end-to-end metrics.  With --trace 1 it runs a
fixed prefix of the same jobs twice, untraced and traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import COUNTS, LAYERS, layer_totals  # noqa: E402

# Blocks generated per run: a few times what the worker gets through in a
# run today, so a faster lgmk still finds new inputs.  The traced pass runs
# the first TRACE_BLOCKS blocks, always the same jobs for a seed.
BLOCKS = {"mirror-corpus": 48, "milnor-dense": 40, "weight-search": 60,
          "orbifold-lattice": 34}
TRACE_BLOCKS = {"mirror-corpus": 3, "milnor-dense": 3, "weight-search": 3,
                "orbifold-lattice": 4}
SETUP_PROBES = 15
WORKER_TIMEOUT_S = 150
# Times are reported at the machine speed where worker.calibrate() takes
# this long (about its median on the 2-core machine the benchmark was built
# on), so that the speed swings of a shared host cancel out.
REFERENCE_CAL_NS = 1_500_000


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "LGMK_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class WorkerFailed(RuntimeError):
    pass


def probe_setup() -> tuple[float, float]:
    """Seconds from spawning an interpreter until `import lgmk` returned, raw
    and at the reference speed."""
    spawned = _clock_ns()
    proc = subprocess.run([sys.executable, "-s", WORKER, "probe"], cwd=ROOT,
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip() or f"probe exited {proc.returncode}")
    report = json.loads(proc.stdout)
    raw = (report["imported_ns"] - spawned) / 1e9
    return raw, raw * REFERENCE_CAL_NS / report["cal_ns"]


def run_worker(jobs: list[dict], seconds: float | None, trace: str | None):
    """Run the jobs in a fresh worker; returns (records, summary)."""
    spec = json.dumps({"jobs": jobs, "seconds": seconds, "trace": trace})
    proc = subprocess.Popen([sys.executable, "-s", WORKER, "run"], cwd=ROOT,
                            env=_worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(spec, timeout=(seconds or 0) + WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker timed out")
    if proc.returncode != 0:
        raise WorkerFailed(err.strip() or f"worker exited {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines()]
    return lines[:-1], lines[-1]["summary"]


def speed_factors(records) -> list[float]:
    """Per job, REFERENCE_CAL_NS over the median calibration time of the
    seven jobs around it: the factor that takes its time to the reference
    machine speed."""
    cal = [r["cal_ns"] for r in records]
    return [REFERENCE_CAL_NS / statistics.median(cal[max(0, i - 3):i + 4])
            for i in range(len(cal))]


def normalized_ms(records) -> list[float]:
    """Job latencies in ms at the reference speed."""
    return [r["ns"] / 1e6 * f for r, f in zip(records, speed_factors(records))]


def check_all(jobs, records) -> list[str]:
    failures = []
    for record in records:
        job = jobs[record["index"]]
        reason = checks.check(job, record)
        if reason is not None:
            what = job.get("argv") or job.get("poly") or job["weights"]
            failures.append(f"job {record['index']} ({what}): {reason}")
    return failures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(seconds: float, jobs: list[dict]):
    setups = [probe_setup() for _ in range(SETUP_PROBES)]
    records, summary = run_worker(jobs, seconds, None)
    failures = check_all(jobs, records)
    raw = [r["ns"] / 1e6 for r in records]
    latencies = normalized_ms(records)
    n = len(records)
    beyond_p90 = sum(1 for x in latencies if x > percentile(latencies, 90))
    print(f"jobs: {n} in {sum(raw) / 1e3:.2f} s of lgmk calls; {beyond_p90} beyond p90")
    if beyond_p90 < 10:
        print("warning: fewer than ten jobs beyond p90; job_p90_ms is not resolved")
    if n == len(jobs):
        print("note: the run used every generated job before its time was up")
    print(f"raw (not normalized): setup_s {statistics.median(s for s, _ in setups):.6g}, "
          f"jobs_per_s {n / (sum(raw) / 1e3):.6g}, job_p50_ms {percentile(raw, 50):.6g}, "
          f"job_p90_ms {percentile(raw, 90):.6g}")
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "jobs_per_s": (n / (sum(latencies) / 1e3), "1/s"),
        "job_p50_ms": (percentile(latencies, 50), "ms"),
        "job_p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
    }
    print(f"fail_frac: {len(failures) / max(n, 1):.4f} ({len(failures)} of {n})")
    return metrics, n, failures


def traced(workload: str, prefix: list[dict]):
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}.tsv")
    plain, _ = run_worker(prefix, None, None)
    records, summary = run_worker(prefix, None, span_file)
    failures = check_all(prefix, plain) + check_all(prefix, records)
    plain_s = sum(normalized_ms(plain)) / 1e3
    wall_s = sum(normalized_ms(records)) / 1e3
    totals, spans = layer_totals(span_file, speed_factors(records))
    counts = summary["counts"]
    metrics = {}
    for layer in LAYERS:
        t = totals[layer]
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
        metrics[f"{layer}.self_share"] = (t["self_s"] / wall_s, "ratio")
        metrics[f"{layer}.errors"] = (t["errors"], "count")
    for name in COUNTS:
        metrics[name] = (counts[name], "count")
    solves = counts["mirror.pair_solves"]
    metrics["mirror.pair_solve_yield"] = (
        counts["mirror.pair_solves_with_pair"] / solves if solves else 0.0, "ratio")
    metrics["trace.jobs"] = (len(records), "count")
    metrics["trace.spans"] = (spans, "count")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.untraced_wall_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (wall_s - plain_s, "s")
    print(f"traced {len(records)} jobs, {spans} spans written to {span_file}")
    print(f"tracing overhead: {wall_s - plain_s:.3f} s "
          f"({wall_s:.3f} s traced, {plain_s:.3f} s untraced)")
    for layer in LAYERS:
        t = totals[layer]
        print(f"  {layer:<9} calls {t['calls']:>8}  errors {t['errors']:>6}  "
              f"self {t['self_s']:8.3f} s  share {t['self_s'] / wall_s:6.1%}")
    return metrics, len(plain) + len(records), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=None,
                        help="generate only this many blocks of jobs (smoke test)")
    args = parser.parse_args(argv)
    blocks = args.blocks or (TRACE_BLOCKS if args.trace else BLOCKS)[args.workload]
    jobs = gen.jobs(args.workload, args.seed, blocks)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs generated, "
          f"inputs digest {gen.digest(jobs)}")
    try:
        if args.trace:
            metrics, attempted, failures = traced(args.workload, jobs)
        else:
            metrics, attempted, failures = end_to_end(args.seconds, jobs)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
