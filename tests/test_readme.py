"""The README's quick tour, CLI block and root namespace agree with the code.

The quick tour is run as written, against ``lensfib``'s root namespace; a
``print`` line's trailing comment states its output (``# includes X`` for a
line printed in a loop: X is one of its outputs).  Each line of the CLI
block is run in process and must succeed; a one-word comment is its whole
output.  Every name the root namespace exports is documented in the README.
"""

import io
import re
import shlex
import sys
import tokenize
from inspect import ismodule
from pathlib import Path

import lensfib
from lensfib import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def quick_tour() -> str:
    section = README[README.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated_outputs(code: str) -> dict[int, str]:
    """Line number -> comment, for each ``print`` line with a comment."""
    stated = {}
    for tok in tokenize.generate_tokens(io.StringIO(code).readline):
        if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("print("):
            stated[tok.start[0]] = tok.string.lstrip("#").strip()
    return stated


def test_quick_tour_prints_what_its_comments_say():
    code = quick_tour()
    printed: dict[int, list[str]] = {}

    def record(*args):
        line = sys._getframe(1).f_lineno
        printed.setdefault(line, []).append(" ".join(map(str, args)))

    exec(compile(code, "README quick tour", "exec"), {"print": record})
    stated = stated_outputs(code)
    assert stated
    for line, comment in stated.items():
        outputs = printed.get(line, [])
        if comment.startswith("includes "):
            assert comment.removeprefix("includes ") in outputs, (line, outputs)
        else:
            assert outputs == [comment], line


def test_cli_block_runs_and_prints_what_its_comments_say(capsys):
    section = README[README.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.splitlines()
    assert lines
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "lensfib"
        assert cli.run(argv) == 0, line
        out = capsys.readouterr().out
        comment = comment.strip()
        if comment and " " not in comment:
            assert out == comment + "\n", line


def test_root_namespace_is_what_the_readme_documents():
    fenced = re.findall(r"```[^\n]*\n(.*?)```", README, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", README, flags=re.S))
    documented = set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + inline)))
    assert [n for n in lensfib.__all__ if n not in documented] == []

    star: dict = {}
    exec("from lensfib import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(lensfib.__all__)
    public = {n for n, v in vars(lensfib).items() if not n.startswith("_") and not ismodule(v)}
    assert public == set(lensfib.__all__)
