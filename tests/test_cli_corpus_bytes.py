"""CLI output on the invertible corpus, byte for byte.

`data/cli_invertible_corpus.json` holds, for every polynomial of the corpus,
the exit code, standard output and standard error of `gmax --elements`,
`amodel` with each of the group specs `max`, `J`, `sl` and `0`, and
`mirror-check`, all with `--json`.  The file was recorded with the earlier
implementation that kept every group as a closed list of elements; the
lattice implementation must reproduce it exactly.  The only edit since is
the `warnings` list of eight `amodel` records, which is now empty: those
warnings came from an ambient-determinant diagnostic that was removed because
it fired only where the fixed-locus reading is the one that passes the
mirror check.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lgmk.cli import main

from conftest import INVERTIBLE_CORPUS_TEXTS

DATA = os.path.join(os.path.dirname(__file__), "data", "cli_invertible_corpus.json")

with open(DATA) as handle:
    RECORDS = json.load(handle)


def test_every_corpus_command_is_recorded():
    expected = []
    for text in INVERTIBLE_CORPUS_TEXTS:
        expected.append(["gmax", text, "--elements", "--json"])
        expected += [["amodel", text, spec, "--json"] for spec in ("max", "J", "sl", "0")]
        expected.append(["mirror-check", text, "--json"])
    assert [record["argv"] for record in RECORDS] == expected


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_output_is_byte_identical(record):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(record["argv"])
    assert code == record["code"]
    assert out.getvalue() == record["stdout"]
    assert err.getvalue() == record["stderr"]
