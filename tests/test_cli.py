import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import lgmk
from lgmk import mirror
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

    def test_json_renders_no_graded_text(self, capsys, monkeypatch):
        def forbidden(self):
            raise AssertionError("graded table rendered as text")

        monkeypatch.setattr(lgmk.GradedDims, "__str__", forbidden)
        report = run_json(capsys, "mirror-check", "x^3+x*y^2")
        assert report["payload"]["isomorphic"] is True

    def test_noninvertible_exit_code(self, capsys):
        code, _, err = run(capsys, "mirror-check", "x^4+y^4+x^3*y")
        assert code == 5
        assert "invertible" in err


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
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "0")
        code, _, _ = run(capsys, "bmodel", "x^4+y^4+x^3*y")
        assert code == 6

    def test_standard_monomial_box_limit(self, capsys):
        # 10^20 - 1 standard monomials: refused before any is enumerated
        code, out, err = run(capsys, "bmodel", "x^99999999999999999999")
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "10000000" in err


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


class TestGridLimit:
    def test_four_variables_exit_6_and_three_still_answer(self, capsys, monkeypatch):
        # at bound 20 the grid on [1/9, 1/2] has more than 20 points
        three = run_json(capsys, "search", "8", "12/5", "3", "--bound", "20")
        monkeypatch.setattr(mirror, "GRID_LIMIT", 20)
        code, out, err = run(capsys, "search", "8", "12/5", "4", "--bound", "20")
        assert (code, out) == (6, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert run_json(capsys, "search", "8", "12/5", "3", "--bound", "20") == three

    def test_huge_bound_exits_6_without_walking_the_denominators(self, capsys):
        begin = time.perf_counter()
        code, out, err = run(capsys, "search", "8", "12/5", "4", "--bound", str(10**12))
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
    """The m = 3 row walk spends TAIL_LIMIT on rows and their numerators."""

    def test_huge_bound_exits_6_after_the_budget_not_the_bound(self, capsys):
        begin = time.perf_counter()
        code, out, err = run(capsys, "search", "24", "43/15", "3", "--bound", str(10**9))
        assert time.perf_counter() - begin < 10
        assert (code, out) == (6, "")
        assert err == "error: the search visits more than 10000000 tails\n"

    @pytest.mark.parametrize("argv", [("24", "43/15", "3", "--bound", "20"),
                                      ("1", "0", "3", "--bound", "9"),
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

    def test_pair_budget_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "abc")
        self.assert_bad_input(capsys, "bmodel", "x^4+y^4+x^3*y")

    def test_pair_budget_negative(self, capsys, monkeypatch):
        monkeypatch.setenv("LGMK_PAIR_BUDGET", "-1")
        self.assert_bad_input(capsys, "bmodel", "x^3+y^3")

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
