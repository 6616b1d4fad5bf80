"""Byte-for-byte replay of a recorded corpus of CLI calls.

``data/cli_golden.jsonl`` holds one call per line: its argv and the exit
code, stdout and stderr that ``lensfib.cli.run`` gave for it.  The corpus
covers every subcommand in text and ``--json`` mode, with at least one
domain error (exit 1) each; usage errors (exit 2) are tested in
``test_cli.py``.  After a deliberate change of output, rewrite the recorded
results from the current code with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lensfib.cli import COMMANDS, run

CORPUS = Path(__file__).parent / "data" / "cli_golden.jsonl"
CASES = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_corpus_covers_every_command():
    for json_mode in (False, True):
        for exit_code in (0, 1):
            covered = {c["argv"][json_mode] for c in CASES
                       if (c["argv"][0] == "--json") == json_mode and c["exit"] == exit_code}
            assert covered == set(COMMANDS), (json_mode, exit_code)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_replay_is_identical(case):
    assert replay(case["argv"]) == case


def test_replay_forward_then_reverse_is_identical():
    # The parser is shared by every call in a process: no call may leave
    # state in it that changes a later one.
    for case in CASES + CASES[::-1]:
        assert replay(case["argv"]) == case


if __name__ == "__main__":
    CORPUS.write_text("".join(json.dumps(replay(c["argv"])) + "\n" for c in CASES))
