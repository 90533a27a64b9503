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
mirror check.  The records of `amodel` (the same four specs) and
`mirror-check` on the eight polynomials of `HERMITE_TEXTS` were appended
later, recorded while `amodel` still counted over the sorted element
vectors, before it moved to counting from the coordinate columns of the
Hermite enumeration; their Gmax have pivots other than 1 and N, or entries
above the diagonal, which the columns must carry.

`data/cli_search_corpus.json` holds the same for `search` and
`paper-tables`, recorded with the `Fraction` search before the integer
kernel replaced it: `search` with `--json` and as text at m = 1..4 on the
paper family x^n + y^n + x^(n-1)*y, n = 4..12 (m = 3 also with `--json` at
bound 190), on targets planted from known weight systems, on edge targets
(d below 1, a fractional d, rejected input), and `paper-tables --json` at
bounds 20, 60 and 300.  Nine uncertified m = 3 searches at bounds 156-200
were added before the three-variable walk moved from the Farey grid to
residue-sieved denominator rows, recorded with the grid walk: six with
solutions (up to seven, one the target (1/3, 1/2, 1/2) whose pair is
(1/2, 1/2)) and three with none, planted from weights whose denominators
all exceed the bound.

`data/cli_bmodel_corpus.json` holds the same for `bmodel` (with `--json` and
as text) and `weights --json`, recorded before the Buchberger engine's
monomial order moved from `Fraction` grades to integer grades.  `bmodel`
lists its standard monomials in the kernel's order, graded reverse
lexicographic under the integer weights L*q_i, so these records pin that
order.  The polynomials are the invertible corpus and 20
seeded dense ones in three variables: x^a + y^b + z^c plus each further
monomial of weight one with probability 0.8, with nonzero integer
coefficients in -9..9, for (a, b, c) a permutation of (3, 3, 3), (4, 4, 4),
(2, 4, 4), (3, 6, 6), (2, 3, 6), (2, 6, 6), (3, 4, 12), (4, 4, 6), (3, 3, 6)
and (5, 5, 5), twice each; only nondegenerate ones were kept.  Appended
later are `bmodel` records (with `--json` and as text) of eight more dense
ones, drawn the same way from random.Random("dense (6,6,6) and (7,7,7)"),
four with (a, b, c) = (6, 6, 6) and then four with (7, 7, 7).  They were
recorded before the kernel's pair loop became Hilbert driven, since dense
equal-weight Jacobians are where it sets the most pairs aside.

`data/cli_text_corpus.json` holds the text reports, without `--json`, of
`weights`, `gmax --elements`, `amodel` with each of the specs `max`, `J`,
`sl` and `0`, and `mirror-check` on the invertible corpus and on
`HERMITE_TEXTS`; then `weights` on three two-variable polynomials, two of
which print a `reason:` line, and `paper-tables` at bounds 20 and 60.  It was
recorded while each command handler still formatted its text from the model
objects, before the text reports were built from the JSON payloads.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lgmk import cli
from lgmk.cli import main

from conftest import HERMITE_TEXTS, INVERTIBLE_CORPUS_TEXTS

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _load(name: str) -> list[dict]:
    with open(os.path.join(DATA_DIR, name)) as handle:
        return json.load(handle)


RECORDS = _load("cli_invertible_corpus.json")
SEARCH_RECORDS = _load("cli_search_corpus.json")
BMODEL_RECORDS = _load("cli_bmodel_corpus.json")
TEXT_RECORDS = _load("cli_text_corpus.json")


def test_every_corpus_command_is_recorded():
    expected = []
    for text in INVERTIBLE_CORPUS_TEXTS:
        expected.append(["gmax", text, "--elements", "--json"])
        expected += [["amodel", text, spec, "--json"] for spec in ("max", "J", "sl", "0")]
        expected.append(["mirror-check", text, "--json"])
    for text in HERMITE_TEXTS:
        expected += [["amodel", text, spec, "--json"] for spec in ("max", "J", "sl", "0")]
        expected.append(["mirror-check", text, "--json"])
    assert [record["argv"] for record in RECORDS] == expected


def test_every_text_report_is_recorded():
    expected = []
    for text in INVERTIBLE_CORPUS_TEXTS + HERMITE_TEXTS:
        expected += [["weights", text], ["gmax", text, "--elements"]]
        expected += [["amodel", text, spec] for spec in ("max", "J", "sl", "0")]
        expected.append(["mirror-check", text])
    expected += [["weights", text] for text in ("x^4+y^4+x^3*y", "x^2*y", "x^3*y + x^2*y^2")]
    expected += [["paper-tables", "--bound", bound] for bound in ("20", "60")]
    assert [record["argv"] for record in TEXT_RECORDS] == expected


def _assert_replays(record: dict) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(record["argv"])
    assert code == record["code"]
    assert out.getvalue() == record["stdout"]
    assert err.getvalue() == record["stderr"]


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_output_is_byte_identical(record):
    _assert_replays(record)


@pytest.mark.parametrize("record", SEARCH_RECORDS,
                         ids=[" ".join(r["argv"]) for r in SEARCH_RECORDS])
def test_search_output_is_byte_identical(record):
    _assert_replays(record)


@pytest.mark.parametrize("record", BMODEL_RECORDS,
                         ids=[" ".join(r["argv"]) for r in BMODEL_RECORDS])
def test_bmodel_output_is_byte_identical(record):
    _assert_replays(record)


@pytest.mark.parametrize("record", TEXT_RECORDS,
                         ids=[" ".join(r["argv"]) for r in TEXT_RECORDS])
def test_text_output_is_byte_identical(record):
    _assert_replays(record)


def test_one_parser_serves_calls_after_an_argument_error():
    """`main` builds its parser once and reuses it: after an argparse error
    (exit 2) in the same process, `bmodel` and then `search` still replay
    their records byte for byte."""
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        main(["search", "8", "12/5", "three"])
    assert exit_info.value.code == 2
    assert "invalid int value: 'three'" in err.getvalue()
    parser = cli._parser()
    dense = next(r for r in BMODEL_RECORDS if r["argv"][0] == "bmodel" and "z" in r["argv"][1])
    three = next(r for r in SEARCH_RECORDS if r["argv"][0] == "search" and r["argv"][3] == "3")
    _assert_replays(dense)
    _assert_replays(three)
    assert cli._parser() is parser
