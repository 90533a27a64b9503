import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import lgmk
from lgmk import cli, groebner, mirror, polycore
from lgmk.cli import EXIT_PIPE_CLOSED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "payload", "warnings"}
    return report


class TestWeights:
    def test_noninvertible(self, capsys):
        report = run_json(capsys, "weights", "x^4+y^4+x^3*y")
        assert report["payload"]["weights"] == ["1/4", "1/4"]
        assert report["payload"]["classification"] == "noninvertible"
        assert report["payload"]["nondegenerate"] is True

    def test_invertible(self, capsys):
        report = run_json(capsys, "weights", "x^3+y^3")
        assert report["payload"]["weights"] == ["1/3", "1/3"]
        assert report["payload"]["classification"] == "invertible"

    def test_not_admissible_is_still_reported(self, capsys):
        code, out, _ = run(capsys, "weights", "x^2*y")
        assert code == 0
        assert "not_admissible" in out
        assert "NonUniqueWeights" in out

    def test_text_and_json_agree(self, capsys):
        code, text_out, _ = run(capsys, "weights", "x^3+y^3")
        assert code == 0
        report = run_json(capsys, "weights", "x^3+y^3")
        assert "weights: (1/3, 1/3)" in text_out
        assert report["payload"]["weights"] == ["1/3", "1/3"]


class TestGmax:
    def test_family(self, capsys):
        report = run_json(capsys, "gmax", "x^5+y^5+x^4*y")
        assert report["payload"]["order"] == 5
        assert report["payload"]["generators"] == [["1/5", "1/5"]]

    def test_fermat(self, capsys):
        report = run_json(capsys, "gmax", "x^3+y^3")
        assert report["payload"]["order"] == 9

    def test_appendix_example(self, capsys):
        report = run_json(capsys, "gmax", "x^6+y^6+x^4*y^2")
        assert report["payload"]["order"] == 12

    def test_element_listing(self, capsys):
        report = run_json(capsys, "gmax", "x^3", "--elements")
        assert report["payload"]["elements"] == [["0"], ["1/3"], ["2/3"]]


class TestAModel:
    def test_quintic_with_j(self, capsys):
        report = run_json(capsys, "amodel", "x^5+y^5+x^4*y", "J")
        assert report["payload"]["dimension"] == 8
        assert report["payload"]["top_degree"] == "12/5"
        assert report["payload"]["graded"] == {
            "0": 1, "4/5": 1, "6/5": 4, "8/5": 1, "12/5": 1}

    def test_cubic_with_max(self, capsys):
        report = run_json(capsys, "amodel", "x^3", "max")
        assert report["payload"]["dimension"] == 2

    def test_trivial_group_rejected(self, capsys):
        code, _, err = run(capsys, "amodel", "x^3+y^3", "0")
        assert code == 4
        assert "not an element" in err

    def test_explicit_generators(self, capsys):
        report = run_json(capsys, "amodel", "x^5+y^5+x^4*y", "1/5,1/5")
        assert report["payload"]["dimension"] == 8


class TestBModel:
    def test_one_variable(self, capsys):
        report = run_json(capsys, "bmodel", "x^9")
        assert report["payload"]["dimension"] == 8
        assert report["payload"]["top_degree"] == "14/9"
        assert report["payload"]["dimension"] == int(report["payload"]["dimension_formula"])

    def test_fermat(self, capsys):
        report = run_json(capsys, "bmodel", "x^3+y^3")
        assert report["payload"]["dimension"] == 4

    def test_quadric(self, capsys):
        report = run_json(capsys, "bmodel", "x^2")
        assert report["payload"]["dimension"] == 1
        assert report["payload"]["basis"] == ["1"]


class TestMirrorCheck:
    def test_chain(self, capsys):
        report = run_json(capsys, "mirror-check", "x^3+x*y^2")
        assert report["payload"]["isomorphic"] is True
        assert report["payload"]["transpose"] == "x^3*y + y^2"

    def test_pure_power(self, capsys):
        report = run_json(capsys, "mirror-check", "x^5")
        assert report["payload"]["isomorphic"] is True

    def test_noninvertible_exit_code(self, capsys):
        code, _, err = run(capsys, "mirror-check", "x^4+y^4+x^3*y")
        assert code == 5
        assert "invertible" in err


# one command line of each command
EVERY_COMMAND = [
    ["weights", "x^3+x*y^2"],
    ["gmax", "x^3+x*y^2", "--elements"],
    ["amodel", "x^3+x*y^2", "max"],
    ["bmodel", "x^3+x*y^2"],
    ["mirror-check", "x^3+x*y^2"],
    ["search", "8", "12/5", "3", "--bound", "20"],
    ["paper-tables", "--bound", "10"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[a[0] for a in EVERY_COMMAND])
def test_json_builds_no_text(capsys, monkeypatch, argv):
    """--json prints the payload and never calls a text_<name> builder."""
    def forbidden(payload):
        raise AssertionError("text report built in JSON mode")

    builders = [name for name in vars(cli) if name.startswith("text_")]
    assert len(builders) == len(EVERY_COMMAND)
    for name in builders:
        monkeypatch.setattr(cli, name, forbidden)
    cli._parser.cache_clear()  # the parser holds the builders it was made with
    try:
        report = run_json(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert report["command"] == argv[0]


class TestSearch:
    def test_two_variables_with_discriminant(self, capsys):
        report = run_json(capsys, "search", "8", "12/5", "2")
        assert report["payload"]["status"] == "NoneExact"
        assert report["payload"]["discriminant"] == -224

    def test_cubic_solution(self, capsys):
        report = run_json(capsys, "search", "4", "4/3", "2")
        assert report["payload"]["solutions"] == [[[1, 3], [1, 3]]]

    def test_three_variables_with_boundary(self, capsys):
        report = run_json(capsys, "search", "8", "12/5", "3", "--bound", "60")
        assert report["payload"]["status"] == "NoneWithinBound"
        assert report["payload"]["discriminant_nonnegative_up_to"] == "1/9"


class TestPaperTables:
    def test_matrix_and_dims(self, capsys):
        report = run_json(capsys, "paper-tables", "--bound", "24")
        rows = {row["n"]: row for row in report["payload"]["nonexistence"]}
        assert rows[5] == {"n": 5, "m1": "X", "m2": "X", "m3": "X*"}
        assert rows[4]["m2"] == "X"
        dims = {row["n"]: row for row in report["payload"]["state_space_dimensions"]}
        assert dims[6] == {"n": 6, "dim": 10, "top_degree": "8/3"}


class TestExitCodes:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "weights", "x^4 + @")
        assert code == 2
        assert "position" in err

    def test_not_admissible(self, capsys):
        code, _, _ = run(capsys, "gmax", "x^2*y")
        assert code == 3

    def test_group_not_admissible(self, capsys):
        code, _, _ = run(capsys, "amodel", "x^3+y^3", "0")
        assert code == 4

    def test_not_invertible(self, capsys):
        code, _, _ = run(capsys, "mirror-check", "x^4+y^4+x^3*y")
        assert code == 5

    def test_resource_limit(self, capsys, monkeypatch):
        # a cached verdict would hide the patched limit
        polycore._memoized_classify.cache_clear()
        monkeypatch.setattr(groebner, "STEP_LIMIT", 0)
        code, _, _ = run(capsys, "bmodel", "x^4+y^4+x^3*y")
        assert code == 6

    # once a limit (0), an invalid budget (abc) and a negative one (-1)
    @pytest.mark.parametrize("value", ["0", "abc", "-1"])
    def test_pair_budget_variable_is_ignored(self, capsys, monkeypatch, value):
        polycore._memoized_classify.cache_clear()
        expected = run(capsys, "bmodel", "x^4+y^4+x^3*y")
        assert expected[0] == 0
        polycore._memoized_classify.cache_clear()
        monkeypatch.setenv("LGMK_PAIR_BUDGET", value)
        assert run(capsys, "bmodel", "x^4+y^4+x^3*y") == expected

    def test_milnor_series_limit_on_a_huge_exponent(self, capsys):
        # a series of 10^20 - 2 coefficients: refused before any is allocated
        code, out, err = run(capsys, "bmodel", "x^99999999999999999999")
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000000" in err


    def test_milnor_series_limit(self, capsys):
        # a box of 4,976,640 tuples, but a series of 108,423,999 integers
        code, out, err = run(capsys, "bmodel", "a^3+b^4+c^5+d^7+e^11+f^13+g^17+h^19")
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "108423999" in err

    def test_box_limit_refuses_only_the_listing(self, capsys):
        # the x^60 Fermat sum: a series of 233 coefficients, a box of 59^4
        # tuples; bmodel prints its basis, and the A side of mirror-check
        # never lists Gmax, of order 60^4: it counts the four atoms x^60,
        # each over its own Gmax of order 60, and tensors their tables
        code, out, err = run(capsys, "bmodel", "x^60+y^60+z^60+w^60")
        assert (code, out) == (6, "")
        assert "box of 12117361" in err and err.count("\n") == 1
        begin = time.perf_counter()
        report = run_json(capsys, "mirror-check", "x^60+y^60+z^60+w^60")
        assert time.perf_counter() - begin < 1
        assert report["payload"]["isomorphic"] is True

# Gmax of x^N is Z/N, here of order 10^20 - 1: the group itself answers at
# once, and listing its elements is refused before any is built
HUGE = "x^99999999999999999999"


class TestGroupOrderLimit:
    def test_gmax_reports_order_and_factors(self, capsys):
        begin = time.perf_counter()
        report = run_json(capsys, "gmax", HUGE)
        assert time.perf_counter() - begin < 1
        assert report["payload"]["order"] == 10**20 - 1
        assert report["payload"]["invariant_factors"] == [10**20 - 1]

    @pytest.mark.parametrize("argv", [("gmax", HUGE, "--elements"),
                                      ("amodel", HUGE, "J"),
                                      ("mirror-check", HUGE)])
    def test_listing_elements_exits_6(self, capsys, argv):
        begin = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - begin < 1
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "order 99999999999999999999" in err

    def test_the_tensor_product_of_atoms_is_bounded(self, capsys):
        # the atoms' tables have 2, 4, 6, 10, 12, 16, 18 and 22 entries, and
        # no two sums of their degrees coincide: the seventh factor would
        # take the products formed past GROUP_ORDER_LIMIT
        begin = time.perf_counter()
        code, out, err = run(capsys, "mirror-check", "a^3+b^5+c^7+d^11+e^13+f^17+g^19+h^23")
        assert time.perf_counter() - begin < 1
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "8 atoms" in err and "more than 1000000 products" in err


def _limit_rows() -> list[list[str]]:
    """The cells of each row of README's limits table."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as handle:
        text = handle.read()
    table = text.split("### Limits", 1)[1].split("\n\n")[2]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in table.splitlines()[2:]]


def _shown(value: int) -> str:
    """A limit as the table writes it: 10^k for a power of ten."""
    k = len(str(value)) - 1
    return f"10^{k}" if value == 10**k else str(value)


class TestLimitsTable:
    def test_every_limit_constant_is_in_the_table(self):
        # every module-level *_LIMIT assignment in the package
        found = {}
        for info in pkgutil.iter_modules(lgmk.__path__):
            if info.name.startswith("_"):
                continue
            module = importlib.import_module(f"lgmk.{info.name}")
            source = inspect.getsource(module)
            for name, value in vars(module).items():
                if name.endswith("_LIMIT") and re.search(rf"^{name} = ", source, re.M):
                    found[f"{info.name}.{name}"] = value
        assert len(found) >= 4
        rows = _limit_rows()
        # one row per constant
        assert len(rows) == len(found)
        for name, value in found.items():
            row, = [r for r in rows if r[0] == f"`{name}`"]
            assert (row[1], row[3]) == (_shown(value), "6")


class TestGridLimit:
    # (1/5, 1/4, 1/3, 1/3) is a solution, so no certificate answers this
    # target and its search walks the grid
    PLANTED = ("48", "53/15")

    def test_four_variables_exit_6_and_three_still_answer(self, capsys, monkeypatch):
        # at bound 20 the grid on [1/49, 1/2] has more than 20 points
        three = run_json(capsys, "search", *self.PLANTED, "3", "--bound", "20")
        monkeypatch.setattr(mirror, "GRID_LIMIT", 20)
        code, out, err = run(capsys, "search", *self.PLANTED, "4", "--bound", "20")
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert run_json(capsys, "search", *self.PLANTED, "3", "--bound", "20") == three

    def test_huge_bound_exits_6_without_walking_the_denominators(self, capsys):
        begin = time.perf_counter()
        code, out, err = run(capsys, "search", *self.PLANTED, "4", "--bound", str(10**12))
        assert time.perf_counter() - begin < 10
        assert (code, out) == (6, "")
        assert "exceeds 100000 points" in err


class TestTailLimit:
    def assert_exit_6(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_uncertified_walks_exit_6(self, capsys, monkeypatch):
        # realizable targets are never certified: (1/5, 1/4, 1/3) and
        # (1/10, 1/5, 1/4, 1/3, 1/3, 1/2)
        three = run_json(capsys, "search", "24", "43/15", "3", "--bound", "20")
        assert three["payload"]["status"] == "SolutionsFound"
        monkeypatch.setattr(mirror, "TAIL_LIMIT", 10)
        self.assert_exit_6(capsys, "search", "24", "43/15", "3", "--bound", "20")
        self.assert_exit_6(capsys, "search", "432", "77/15", "6", "--bound", "100")

    def test_certified_targets_still_answer(self, capsys, monkeypatch):
        before = [run_json(capsys, "search", "8", "12/5", m, "--bound", "20")
                  for m in ("3", "4")]
        monkeypatch.setattr(mirror, "TAIL_LIMIT", 0)
        after = [run_json(capsys, "search", "8", "12/5", m, "--bound", "20")
                 for m in ("3", "4")]
        assert after == before
        assert all(r["payload"]["status"] == "NoneWithinBound" for r in after)


def three_variable_visits(d: Fraction, delta: Fraction, bound: int) -> int:
    """The visits of an uncertified m = 3 walk, counted over its rows: one per
    denominator b in 2..bound, plus one per numerator a >= 1 with
    1/(d+1) <= a/b <= 1/2 and a/b below the weight sum (6 - delta)/4."""
    weight_sum = (6 - delta) / 4
    visits = 0
    for b in range(2, bound + 1):
        visits += 1
        for a in range(1, b + 1):
            q = Fraction(a, b)
            visits += 1 / (d + 1) <= q <= Fraction(1, 2) and q < weight_sum
    return visits


class TestTailBudget:
    """The m = 3 walk spends TAIL_LIMIT on denominator rows and the
    numerators in them, the walk of m >= 4 on tail entries."""

    def test_huge_bound_exits_6_after_the_budget_not_the_bound(self, capsys):
        begin = time.perf_counter()
        code, out, err = run(capsys, "search", "24", "43/15", "3", "--bound", str(10**9))
        assert time.perf_counter() - begin < 10
        assert (code, out) == (6, "")
        assert err == "error: the search visits more than 1000000 tails\n"

    @pytest.mark.parametrize("argv", [("24", "43/15", "3", "--bound", "20"),
                                      ("2", "2/3", "3", "--bound", "20"),
                                      ("45", "479/143", "3", "--bound", "60")])
    def test_budget_is_exact(self, capsys, monkeypatch, argv):
        answer = run_json(capsys, "search", *argv)
        assert answer["payload"]["status"] == "SolutionsFound"
        visits = three_variable_visits(Fraction(argv[0]), Fraction(argv[1]), int(argv[4]))
        monkeypatch.setattr(mirror, "TAIL_LIMIT", visits)
        assert run_json(capsys, "search", *argv) == answer
        monkeypatch.setattr(mirror, "TAIL_LIMIT", visits - 1)
        code, out, err = run(capsys, "search", *argv)
        assert (code, out) == (6, "")
        assert err == f"error: the search visits more than {visits - 1} tails\n"

    # Uncertified planted targets in four and five variables with the visits
    # of their walks (one per tail entry, whole or partial), found by
    # bisection on TAIL_LIMIT before the last tail level was sieved: the
    # sieve must count every entry the unsieved loop counted.  The last two
    # walks also reach last levels that start below a product left of 1
    # and levels that run to the grid's end.
    @pytest.mark.parametrize("argv, visits", [
        (("60", "391/105", "4", "--bound", "24"), 1392),
        (("99", "149744/36465", "4", "--bound", "24"), 1424),
        (("392/3", "1352/315", "5", "--bound", "12"), 1274),
        (("30", "25/9", "4", "--bound", "21"), 1781),
        (("112", "121/30", "5", "--bound", "9"), 559),
    ])
    def test_budget_is_exact_from_four_variables(self, capsys, monkeypatch, argv, visits):
        answer = run_json(capsys, "search", *argv)
        assert answer["payload"]["status"] == "SolutionsFound"
        monkeypatch.setattr(mirror, "TAIL_LIMIT", visits)
        assert run_json(capsys, "search", *argv) == answer
        monkeypatch.setattr(mirror, "TAIL_LIMIT", visits - 1)
        code, out, err = run(capsys, "search", *argv)
        assert (code, out) == (6, "")
        assert err == f"error: the search visits more than {visits - 1} tails\n"

    @pytest.mark.parametrize("m", ["3", "4", "5", "6"])
    def test_unit_dimension_is_answered_without_a_walk(self, capsys, monkeypatch, m):
        # each factor 1/q - 1 is at least 1, so d = 1 forces every weight to 1/2
        monkeypatch.setattr(mirror, "TAIL_LIMIT", 0)
        answer = run_json(capsys, "search", "1", "0", m, "--bound", str(10**8))
        assert answer["payload"]["status"] == "SolutionsFound"
        assert answer["payload"]["solutions"] == [[[1, 2]] * int(m)]


class TestBadInput:
    """Out-of-range arguments end in one error line and exit code 2."""

    def assert_bad_input(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_dimension_minus_one(self, capsys):
        self.assert_bad_input(capsys, "search", "-1", "2", "3")

    def test_zero_variables(self, capsys):
        self.assert_bad_input(capsys, "search", "8", "12/5", "0")

    def test_bound_one(self, capsys):
        self.assert_bad_input(capsys, "search", "8", "12/5", "3", "--bound", "1")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_search_threads_below_one(self, capsys, threads):
        self.assert_bad_input(capsys, "search", "8", "12/5", "3", "--threads", threads)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_amodel_threads_below_one(self, capsys, threads):
        self.assert_bad_input(capsys, "amodel", "x^3", "max", "--threads", threads)

    @pytest.mark.parametrize("text,position", [("2/0*x^3", 0), ("x^3+1/0*y^3", 4)])
    def test_zero_denominator(self, capsys, text, position):
        err = self.assert_bad_input(capsys, "bmodel", text)
        assert err == f"error: coefficient has a zero denominator (at position {position})\n"

    @pytest.mark.parametrize("argv,position", [(("weights", "x^2+1"), 4),
                                               (("bmodel", "1"), 0)])
    def test_constant_term(self, capsys, argv, position):
        err = self.assert_bad_input(capsys, *argv)
        assert err == ("error: a term needs at least one variable (constant term) "
                       f"(at position {position})\n")


class TestTextJsonAgreement:
    CASES = [
        (("weights", "x^3+y^3"), ["1/3", "invertible"]),
        (("gmax", "x^5+y^5+x^4*y"), ["order: 5", "1/5"]),
        (("amodel", "x^5+y^5+x^4*y", "J"), ["dimension: 8", "12/5"]),
        (("bmodel", "x^9"), ["dimension: 8", "14/9"]),
        (("mirror-check", "x^5"), ["true"]),
        (("search", "8", "12/5", "2"), ["NoneExact", "-224"]),
        (("paper-tables", "--bound", "12"), ["X", "8/3"]),
    ]

    @pytest.mark.parametrize("argv,needles", CASES)
    def test_both_outputs_carry_the_payload(self, capsys, argv, needles):
        code, text_out, _ = run(capsys, *argv)
        assert code == 0
        for needle in needles:
            assert needle in text_out
        report = run_json(capsys, *argv)
        assert report["command"] == argv[0]
        flattened = json.dumps(report["payload"])
        for needle in needles:
            token = needle.split(": ")[-1]
            assert token in flattened


class TestDeterminism:
    def test_search_identical_across_threads(self, capsys):
        outputs = set()
        for threads in ("1", "2", "8"):
            code, out, _ = run(capsys, "search", "8", "12/5", "3",
                               "--bound", "40", "--threads", threads, "--json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_amodel_identical_across_threads(self, capsys):
        outputs = set()
        for threads in ("1", "2", "8"):
            code, out, _ = run(capsys, "amodel", "x^5+y^5+x^4*y", "J",
                               "--threads", threads, "--json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


def _lgmk_env() -> dict:
    # the directory lgmk was imported from, src/ in a checkout
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(lgmk.__file__)))
    return dict(os.environ, PYTHONPATH=src_dir)


def _lgmk_process(*argv) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "lgmk", *argv], env=_lgmk_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self, capsys):
        done = subprocess.run([sys.executable, "-m", "lgmk", "bmodel", "x^9", "--json"],
                              capture_output=True, text=True, env=_lgmk_env(), timeout=60)
        code, out, err = run(capsys, "bmodel", "x^9", "--json")
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err) == (0, out, "")
        assert json.loads(done.stdout)["payload"]["dimension"] == 8

    def test_reader_gone_before_any_output(self):
        with _lgmk_process("weights", "x^3 + y^3") as proc:
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        assert (proc.returncode, stderr) == (EXIT_PIPE_CLOSED, b"")

    def test_reader_gone_after_the_first_line(self):
        # as `lgmk amodel ... | head -1`: the report, about 96 kB, is more
        # than the pipe holds, so the write fails once the reader is gone
        with _lgmk_process("amodel", "x^8+y^8+z^8+w^8", "max") as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            proc.wait(timeout=60)
        assert first == b"polynomial: x^8 + y^8 + z^8 + w^8\n"
        assert (proc.returncode, stderr) == (EXIT_PIPE_CLOSED, b"")
