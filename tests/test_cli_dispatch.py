"""``cli.run`` parses a call once, and reads it as the root parser would.

The root parser reads ``--json`` and hands the rest of the command line to
the command's parser.  ``run`` reads the ``--json`` tokens itself and calls
the command's parser directly, so each check here sets what ``run`` gives a
command against what the root parser's ``parse_args`` gives for the same
command line, on the recorded CLI corpus and on a seeded mix like the
benchmark's ``cli`` one.
"""

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lensfib import cli

CORPUS = Path(__file__).parent / "data" / "cli_golden.jsonl"
GOLDEN = [json.loads(line)["argv"] for line in CORPUS.read_text().splitlines()]

# The ways to write the root parser's flag before a command: none, the flag,
# two abbreviations of it and the flag twice.
JSON_FORMS = [[], ["--json"], ["--js"], ["--jso"], ["--json", "--json"]]


def _mix(rng: random.Random, count: int) -> list[list[str]]:
    """Calls of every command with random, mostly valid arguments, a few of
    them usage errors (a token missing, one too many, an unknown option)."""
    def pair(top):
        return f"{rng.randint(-top, top)},{rng.randint(-top, top)}"

    def text():
        pairs = ",".join(f"({rng.randint(-30, 30)},{rng.randint(-60, 60)})"
                         for _ in range(rng.randint(0, 3)))
        return f"M({rng.randint(-2, 2)};{pairs})"

    calls = []
    for _ in range(count):
        name = rng.choice(list(cli.COMMANDS))
        argv = [name]
        for flag in cli.COMMANDS[name].arguments:
            if not flag.startswith("--"):
                argv.append(text())
                continue
            value = str(rng.randint(2, 12)) if flag == "--max-mult" else pair(20)
            argv += [flag, value] if rng.random() < 0.5 else [f"{flag}={value}"]
        shape = rng.random()
        if shape < 0.05:
            argv.pop()
        elif shape < 0.1:
            argv.append("extra")
        elif shape < 0.15:
            argv.insert(1, "--bogus")
        calls.append(argv)
    return calls


def _bare(argv: list[str]) -> list[str]:
    return argv[1:] if argv[:1] == ["--json"] else argv


CALLS = [form + _bare(argv) for argv in GOLDEN + _mix(random.Random(17), 300)
         for form in JSON_FORMS]


@pytest.fixture
def parses(monkeypatch):
    """Every ``parse_known_args`` call on a ``_Parser``, in the order they
    start: [parser, the namespace it returns, or None until it returns]."""
    seen = []
    parse_known_args = cli._Parser.parse_known_args

    def spy(self, args=None, namespace=None):
        seen.append(call := [self, None])
        call[1], extra = parse_known_args(self, args, namespace)
        return call[1], extra

    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    return seen


def _root_reading(argv: list[str]):
    """The namespace the root parser gives ``argv``, or the parser that
    rejects it and its message."""
    root, _ = cli.build_parser()
    args = argparse.Namespace(json=False, command=None)
    try:
        root.parse_args(cli._join_signed_pairs(argv), args)
    except cli._UsageError as exc:
        return args, exc.args
    return args, None


def _run(argv):
    try:
        return cli.run(list(argv))
    except SystemExit as exc:
        return exc.code


def test_a_command_receives_what_the_root_parser_reads(capsys, parses):
    accepted = rejected = 0
    for argv in CALLS:
        expected, rejection = _root_reading(argv)
        capsys.readouterr()
        parses.clear()
        code = _run(argv)
        out, err = capsys.readouterr()
        if rejection is None:
            accepted += 1
            # one argparse pass, whose namespace is the root parser's
            assert len(parses) == 1, argv
            assert vars(parses[0][1]) == vars(expected), argv
            assert code in (0, 1), argv
            continue
        rejected += 1
        failed, message = rejection
        assert code == 2, argv
        if expected.json:
            assert err == "", argv
            assert json.loads(out) == {"command": expected.command, "status": "error",
                                       "error": message}, argv
        else:
            assert out == "", argv
            assert err == f"{failed.format_usage()}{failed.prog}: error: {message}\n", argv
    # the mix reaches both outcomes, in every form of the flag
    assert accepted > 4 * len(JSON_FORMS) * 100 and rejected >= 10 * len(JSON_FORMS)


@pytest.mark.parametrize("argv", [
    ["construct", "--lens", "7,2", "--weights", "5,2"],
    ["--json", "recognize", "M(-1;(1,1))"],
    ["--js", "classify", "--lens", "-2,1", "--pair", "5,3"],
    ["--jso", "--json", "parse-check", "M(0;(4,2))"],
])
def test_a_valid_call_is_one_parse(capsys, parses, argv):
    assert _run(argv) in (0, 1)
    name = next(token for token in argv if token in cli.COMMANDS)
    assert [parser for parser, _ in parses] == [cli.build_parser()[1][name]]


@pytest.mark.parametrize("argv", [
    ["--", "construct", "--lens", "7,2", "--weights", "5,2"],
    ["--json", "--", "recognize", "M(0;)"],
    ["-h"],
    ["--json", "--help"],
    ["no-such-command"],
    ["--json", "no-such-command"],
    ["--json=1", "recognize", "M(0;)"],
    [],
])
def test_other_command_lines_reach_the_root_parser(capsys, parses, argv):
    _run(argv)
    assert parses and parses[0][0] is cli.build_parser()[0]


def test_leftover_tokens_are_the_root_parsers_error(capsys):
    """Tokens a command does not read are reported under the root's usage."""
    assert _run(["construct", "--json", "--lens=7,2", "--weights=5,2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: lensfib [-h] [--json]")
    assert err.endswith("lensfib: error: unrecognized arguments: --json\n")


@pytest.mark.parametrize("json_mode", [False, True])
def test_closed_stdout_exits_141(json_mode):
    """A reader that stops early, as ``head -1`` does, gets exit 141 and no
    traceback; the output is far longer than a pipe holds."""
    argv = ["--json"] * json_mode + ["enumerate", "--lens", "1,0", "--max-mult", "200"]
    proc = subprocess.Popen([sys.executable, "-m", "lensfib.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline(100)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert first and proc.stderr.read() == b""
    proc.stderr.close()
