"""`main` parses a command line with its subcommand's parser alone, and
must behave exactly as the full top-level parser would.

Every handler is replaced by a recorder and every text builder by a marker,
and the parser cache is cleared, so a case runs no pipeline.  For each argv
the test runs `_parser()[0].parse_args(argv)` and `main(argv)` in process,
capturing standard output and error.  When the full parser exits (help, a
usage error, an unknown command), `main` must exit with the same code and
print the same bytes; when it succeeds, `main` must hand the handler an
equal namespace and print the patched report.
"""

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
           "search": [["--bound", "7"], ["--bo", "5"], ["--bound=9"], ["--threads", "2"]],
           "paper-tables": [["--bound", "7"], ["--b", "5"]]}
HEADS = [*COMMANDS, "serach", "", "-h", "--help", "--json", "--js", "--"]
WORDS = ["x^3", "-x", "max", "8", "-1", "three", "x", "5",
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
