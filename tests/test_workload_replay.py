"""Every job of the four benchmark workloads, replayed in process: no
output moved.

`data/workload_digests.json` holds, per workload, a seed, a block count,
the digest of the jobs `perfbench/gen.py` makes for them and one short
sha256 per job output (see `regen_workload_digests.py`, which rewrites the
file).  The inputs digest is checked first: a failure there means the
generator changed, not lgmk.  Then every job runs through
`perfbench/worker.py`'s RUNNERS, and each job whose output moved is named
with its command line or inputs.  `perfbench/` is imported, never edited.
All 2,007 jobs of seed 1 at the benchmark's block counts run, in about
6 s.
"""

import json

import pytest

from regen_workload_digests import DIGESTS, gen, output_digest

with open(DIGESTS) as f:
    RECORDS = json.load(f)


def test_every_workload_is_recorded():
    assert sorted(RECORDS) == sorted(gen.WORKLOADS)


def _named(job) -> str:
    if job["kind"] == "cli":
        return "lgmk " + " ".join(job["argv"])
    return json.dumps({key: value for key, value in job.items()
                       if key in ("kind", "weights", "poly")})


@pytest.mark.parametrize("workload", sorted(RECORDS))
def test_workload_outputs_are_unchanged(workload):
    record = RECORDS[workload]
    jobs = gen.jobs(workload, record["seed"], record["blocks"])
    assert gen.digest(jobs) == record["inputs"], (
        f"perfbench/gen.py makes other {workload} jobs for seed {record['seed']}: "
        "rewrite the file with tests/regen_workload_digests.py")
    moved = [f"job {index}: {_named(job)}"
             for index, (job, expected) in enumerate(zip(jobs, record["outputs"], strict=True))
             if output_digest(job) != expected]
    assert not moved, f"{len(moved)} of {len(jobs)} {workload} outputs moved:\n" + \
        "\n".join(moved[:20])
