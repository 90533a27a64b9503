"""Rewrite tests/data/workload_digests.json from this checkout's lgmk.

    PYTHONPATH=src python tests/regen_workload_digests.py

For each benchmark workload the file holds a seed, a block count, the
digest of the jobs `perfbench/gen.py` makes for them, and one short sha256
per job of the job's serialized output, run in process through
`perfbench/worker.py`'s RUNNERS.  `tests/test_workload_replay.py` replays
every job and names each whose output moved.  The seed and block count of
a workload already in the file are kept; a new workload gets seed 1 and
`perfbench/run.py`'s BLOCKS.  Rewrite the file only when a change moves
output on purpose, and list the jobs it moved in CHANGES.md.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
DIGESTS = os.path.join(HERE, "data", "workload_digests.json")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import worker  # noqa: E402


def output_digest(job) -> str:
    """sha256 of the job's serialized output, or of its error, 16 hex digits."""
    runner, serialize = worker.RUNNERS[job["kind"]]
    try:
        out = serialize(runner(job))
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - an error is an output too
        out = {"error": f"{type(exc).__name__}: {exc}"}
    blob = json.dumps(out, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def record(workload: str, seed: int, blocks: int) -> dict:
    jobs = gen.jobs(workload, seed, blocks)
    return {"seed": seed, "blocks": blocks, "inputs": gen.digest(jobs),
            "outputs": [output_digest(job) for job in jobs]}


def main() -> int:
    from run import BLOCKS

    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            old = json.load(f)
    new = {}
    for workload in sorted(gen.WORKLOADS):
        seed, blocks = (old[workload]["seed"], old[workload]["blocks"]) if workload in old \
            else (1, BLOCKS[workload])
        new[workload] = record(workload, seed, blocks)
        print(f"{workload}: seed {seed}, {blocks} blocks, {len(new[workload]['outputs'])} jobs")
    with open(DIGESTS, "w") as f:
        json.dump(new, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
