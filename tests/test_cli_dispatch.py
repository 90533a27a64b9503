"""`main` reads a plain command line with its subcommand's plain reader and
hands any other to the full top-level parser, and must behave exactly as
that parser would.

Every handler is replaced by a recorder and every text builder by a marker,
and the parser cache is cleared, so a case runs no pipeline.  For each argv
the test runs `_parser()[0].parse_args(argv)` and `main(argv)` in process,
capturing standard output and error.  When the full parser exits (help, a
usage error, an unknown command), `main` must exit with the same code and
print the same bytes; when it succeeds, `main` must hand the handler an
equal namespace and print the patched report.
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lgmk import cli
from lgmk.cli import main

COMMANDS = ["weights", "gmax", "amodel", "bmodel", "mirror-check", "search", "paper-tables"]


@pytest.fixture
def recorded(monkeypatch):
    """The namespaces the patched handlers receive, in call order."""
    seen = []

    def recorder(args):
        seen.append(args)
        return {"argv": "recorded"}, {}

    for name in COMMANDS:
        name = name.replace("-", "_")
        monkeypatch.setattr(cli, f"cmd_{name}", recorder)
        monkeypatch.setattr(cli, f"text_{name}", lambda payload, name=name: [f"text {name}"])
    cli._parser.cache_clear()  # the parsers hold the handlers they were built with
    yield seen
    cli._parser.cache_clear()


def _outcome(call, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result, code = call(argv), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, code, out.getvalue(), err.getvalue()


def _assert_dispatch_matches(argv, seen):
    parser, _ = cli._parser()
    namespace, code, out, err = _outcome(parser.parse_args, argv)
    seen.clear()
    returned, main_code, main_out, main_err = _outcome(main, argv)
    if code is not None:
        assert (main_code, main_out, main_err) == (code, out, err), argv
        assert not seen, argv
        return
    assert (main_code, returned, main_err) == (None, 0, ""), argv
    assert seen == [namespace], argv
    if namespace.json:
        report = json.loads(main_out)
        assert (report["command"], report["inputs"]) == (namespace.command, {"argv": "recorded"})
    else:
        assert main_out == f"text {namespace.command.replace('-', '_')}\n", argv


KNOWN = [
    [],
    ["-h"],
    ["--help"],
    ["--json"],
    ["--json", "weights", "x^3"],
    ["-h", "search", "8", "12/5", "3"],
    ["serach", "8", "12/5", "3"],
    ["Weights", "x^3"],
    [""],
    ["--", "weights", "x^3"],
    ["weights", "--", "x^3"],
    ["weights", "--", "-x^3"],
    ["weights", "x^3", "--"],
    ["weights", "-h"],
    ["weights", "x^3", "--help"],
    ["weights", "x^3", "--he"],
    ["weights", "x^3", "y^3"],
    ["weights"],
    ["weights", "x^3", "--js"],
    ["weights", "x^3", "--json", "--json"],
    ["weights", "x^3", "--json=1"],
    ["weights", "-x^3+y^3"],
    ["bmodel", "-x^3 + y^3"],
    ["bmodel", "-h^3 + x^3"],
    ["bmodel", "-j^3 + x^3", "--json"],
    ["bmodel", "-x^3 + y^3=1"],
    ["bmodel", "--x^3 + y^3"],
    ["bmodel", "- x"],
    ["search", "8", "12/5", "3", "--bound", "-5 0"],
    ["weights", "x^3", "x"],
    ["weights", "", "--json"],
    ["gmax", "x^3", "--el", "--js"],
    ["gmax", "x^3", "--e"],
    ["amodel", "x^3", "max", "--threads", "2"],
    ["amodel", "x^3", "max", "--th", "x"],
    ["amodel", "x^3", "max", "--threads"],
    ["amodel", "x^3"],
    ["bmodel", "x^3", "--bound", "5"],
    ["mirror-check", "-x^3"],
    ["search", "8", "12/5", "3", "--bo", "5"],
    ["search", "8", "12/5", "3", "--bound=5", "--json"],
    ["search", "8", "12/5", "3", "--bound", "5", "--bound", "7"],
    ["search", "8", "--bound", "5", "12/5", "--json", "3"],
    ["search", "8", "12/5", " 3 ", "--bound", "1_0"],
    ["search", "8", "12/5", "3", "--bound", "-5"],
    ["search", "8", "12/5", "3", "--bound", "--json"],
    ["search", "8", "12/5", "3", "--bound", "x"],
    ["search", "8", "12/5", "three"],
    ["search", "8", "12/5", "-3"],
    ["search", "-8", "12/5", "3"],
    ["search", "8", "12/5", "3", "4"],
    ["search", "8", "12/5"],
    ["search", "--bound", "5", "8", "12/5", "3"],
    ["search", "8", "12/5", "3", "--b", "5"],
    ["search", "8", "12/5", "3", "--t", "2"],
    ["search", "8", "12/5", "3", "-h", "--bound", "x"],
    ["paper-tables"],
    ["paper-tables", "--bound", "5", "--js"],
    ["paper-tables", "5"],
    ["paper-tables", "--bound", "x"],
    ["paper-tables", "--elements"],
]


@pytest.mark.parametrize("argv", KNOWN, ids=[" ".join(argv) or "(none)" for argv in KNOWN])
def test_known_command_lines_dispatch_as_the_full_parser(recorded, argv):
    _assert_dispatch_matches(argv, recorded)


# each command's positionals and some of its options, read without error,
# and the words drawn among them: values good and bad, options whole,
# abbreviated and unknown, and argparse's own markers
POSITIONALS = {"weights": ["x^3+y^3"], "gmax": ["x^3"], "amodel": ["x^3", "J"],
               "bmodel": ["x^3"], "mirror-check": ["x^3"], "search": ["8", "12/5", "3"],
               "paper-tables": []}
OPTIONS = {"gmax": [["--elements"], ["--el"]], "amodel": [["--threads", "2"], ["--th", "3"]],
           "search": [["--bound", "7"], ["--bo", "5"], ["--bound=9"], ["--threads", "2"],
                      ["--bound", "7", "--bound", "9"]],
           "paper-tables": [["--bound", "7"], ["--b", "5"], ["--bound", "7", "--bound", "9"]]}
HEADS = [*COMMANDS, "serach", "", "-h", "--help", "--json", "--js", "--"]
WORDS = ["x^3", "-x", "-x^3+y^3", "-x^3 + y^3", "-h^3 + x^3", "-1 2", "max", "8", "-1",
         "three", "x", "5",
         "--bound", "--bo", "--bound=7", "--threads", "--th", "--json", "--js",
         "--elements", "--el", "-h", "--help", "--he", "--", "--unknown", "-q"]


@st.composite
def command_lines(draw):
    before = draw(st.one_of(st.just([]), st.lists(
        st.sampled_from(["-h", "--json", "--bound", "5"]), min_size=1, max_size=2)))
    head = draw(st.sampled_from(HEADS))
    body = list(POSITIONALS.get(head, []))
    good = st.sampled_from([["--json"], ["--js"], *OPTIONS.get(head, [])])
    for words in draw(st.lists(st.one_of(good, st.sampled_from(WORDS).map(lambda w: [w])),
                               max_size=3)):
        at = draw(st.integers(0, len(body)))
        body[at:at] = words
    if body and not draw(st.integers(0, 3)):
        del body[draw(st.integers(0, len(body) - 1))]
    return [*before, head, *body]


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_drawn_command_lines_dispatch_as_the_full_parser(recorded, argv):
    _assert_dispatch_matches(argv, recorded)


def test_clearing_the_parser_cache_rebuilds_the_command_map(capsys, monkeypatch):
    """A text builder patched after the first call is the one the dispatch
    uses once `_parser` is cleared: the command map is rebuilt with it."""
    _, commands = cli._parser()
    assert sorted(commands) == sorted(COMMANDS)
    assert main(["weights", "x^3"]) == 0
    assert capsys.readouterr().out.startswith("polynomial: x^3\n")
    monkeypatch.setattr(cli, "text_weights", lambda payload: ["patched"])
    cli._parser.cache_clear()
    try:
        assert main(["weights", "x^3"]) == 0
        assert capsys.readouterr().out == "patched\n"
        assert cli._parser()[1]["weights"] is not commands["weights"]
    finally:
        cli._parser.cache_clear()


# a plain line of each command, read without argparse, and lines that only
# argparse reads: a polynomial that starts with '-' and holds no space or
# starts like an option, an '='-joined value, an option given twice, an
# abbreviated option
PLAIN = [["weights", "x^3+y^3", "--json"], ["gmax", "x^3", "--elements"],
         ["amodel", "x^3", "J", "--threads", "2"], ["bmodel", "x^3"], ["bmodel", "-x^3 + y^3"],
         ["mirror-check", "--json", "x^3"],
         ["search", "8", "--bound", "7", "12/5", "3", "--threads", "2", "--json"],
         ["paper-tables", "--bound", "7"]]
FALLBACK = [["weights", "-x^3+y^3"], ["bmodel", "-h^3 + x^3"],
            ["search", "8", "12/5", "3", "--bound=5"],
            ["search", "8", "12/5", "3", "--bound", "5", "--bound", "7"],
            ["gmax", "x^3", "--json", "--json"], ["paper-tables", "--bo", "7"]]


class ArgparseCalled(Exception):
    pass


@pytest.fixture
def no_argparse(recorded, monkeypatch):
    """argparse's reading pass raises; the parsers are built before it is
    patched, as `main` builds them on its first call."""
    cli._parser()

    def refuse(self, *args, **kwargs):
        raise ArgparseCalled(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    yield recorded


def test_plain_command_lines_never_reach_argparse(no_argparse):
    assert {argv[0] for argv in PLAIN} == set(COMMANDS)
    for argv in PLAIN:
        no_argparse.clear()
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        assert len(no_argparse) == 1 and no_argparse[0].command == argv[0], argv


@pytest.mark.parametrize("argv", FALLBACK, ids=" ".join)
def test_other_command_lines_reach_argparse(no_argparse, argv):
    with pytest.raises(ArgparseCalled):
        main(argv)
    assert not no_argparse


def _unmodelled(kind):
    p = argparse.ArgumentParser(prog="t")
    if kind == "exclusive":
        p.add_mutually_exclusive_group().add_argument("--opt", action="store_true")
    else:
        p.add_argument("--opt", **kind)
    return p


@pytest.mark.parametrize("kind", [
    {"action": "append"}, {"action": "count"}, {"nargs": "?"}, {"choices": ["a"]},
    {"default": "a"}, {"required": True}, "exclusive"], ids=str)
def test_a_command_with_an_action_the_reader_does_not_model_is_left_to_argparse(kind):
    # "t" alone would be plain to a reader that ignored the action
    assert cli._plain_reader("t", _unmodelled(kind))(["t"]) is None
    assert cli._plain_reader("t", argparse.ArgumentParser(prog="t"))(["t"]) == \
        argparse.Namespace(command="t")
