import json
import os
import subprocess
import sys

import pytest
from helpers import deadline

from lensfib import cli, parse, unparse
from lensfib.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct(capsys):
    code, out, _ = invoke(capsys, "construct", "--lens", "7,2", "--weights", "5,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("fibration M(")
    assert lines[1] == "canonical M(0;(14,1),(35,33),(1,-1))"
    assert lines[2] == "lens L(7,2)"
    assert "u=1" in lines[3] and "s=4" in lines[3] and "r=-1" in lines[3]
    # every printed fibration reparses
    for line in lines:
        if line.split()[-1].startswith("M("):
            parse(line.split()[-1])


def test_construct_json_stable(capsys):
    args = ("--json", "construct", "--lens", "7,2", "--weights", "5,2")
    code, out1, _ = invoke(capsys, *args)
    assert code == 0
    code, out2, _ = invoke(capsys, *args)
    assert out1 == out2
    env = json.loads(out1)
    assert env["command"] == "construct"
    assert env["status"] == "ok"
    assert env["input"] == {"lens": [7, 2], "weights": [5, 2]}
    assert env["result"]["lens"] == {"p": 7, "q": 2}
    assert env["trace"]["u"] == 1 and env["trace"]["s"] == 4
    fib = parse(env["result"]["fibration"]["text"])
    assert unparse(fib) == env["result"]["fibration"]["text"]


def test_recognize(capsys):
    code, out, _ = invoke(capsys, "recognize", "M(-1;(1,1))")
    assert code == 0 and out.strip() == "L(4,1)"


def test_recognize_error(capsys):
    code, out, err = invoke(capsys, "recognize", "M(0;(2,1),(2,1),(2,1))")
    assert code == 1
    assert out == ""
    assert "too many singular fibres" in err


def test_recognize_error_json(capsys):
    code, out, err = invoke(capsys, "--json", "recognize", "M(0;(2,1),(2,1),(2,1))")
    assert code == 1
    env = json.loads(out)
    assert env["status"] == "error"
    assert "too many singular fibres" in env["error"]


def test_normalize(capsys):
    code, out, _ = invoke(capsys, "--json", "normalize", "M(0;(35,-2),(14,1))")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["genus"] == 0
    assert env["result"]["b"] == -1
    assert env["result"]["pairs"] == [[14, 1], [35, 33]]
    assert env["result"]["euler"] == {"num": -1, "den": 70}
    assert json.loads(out) == json.loads(out)


def test_iso(capsys):
    code, out, _ = invoke(
        capsys, "iso", "M(0;(15,2),(10,-1))", "M(0;(15,-2),(10,1))"
    )
    assert code == 0 and out.strip() == "reversing"
    code, out, _ = invoke(capsys, "iso", "M(0;(1,1))", "M(0;(1,1))")
    assert out.strip() == "oriented"


def test_classify(capsys):
    code, out, _ = invoke(capsys, "classify", "--lens", "2,1", "--pair", "5,3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case ii-4"
    assert lines[1] == "classes 2"
    assert lines[-1] == "reversing pairs (0,1)"

    code, out, _ = invoke(capsys, "--json", "classify", "--lens", "7,2", "--pair", "5,2")
    env = json.loads(out)
    assert env["result"]["case"] == "ii-1"
    assert env["result"]["class_count"] == 4
    assert env["result"]["reversing_pairs"] == []


def test_enumerate(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--lens", "0,1", "--max-mult", "2")
    assert code == 0
    fibs = [parse(line) for line in out.splitlines()]
    assert len(fibs) == 2


def test_model_and_isotropy(capsys):
    code, out, _ = invoke(capsys, "model", "--lens", "7,2", "--weights", "2,5")
    assert code == 0
    assert "lens L(7,2)" in out

    code, out, _ = invoke(capsys, "isotropy", "--lens", "6,5", "--weights", "3,1")
    assert code == 0 and out.strip() == "2"
    code, out, _ = invoke(capsys, "--json", "isotropy", "--lens", "6,5", "--weights", "3,1")
    assert json.loads(out)["result"] == {"u": 2}


def test_pi1_and_homology(capsys):
    code, out, _ = invoke(capsys, "pi1", "M(-1;(1,1))")
    assert code == 0
    assert "a1^-1 h a1 h" in out
    assert "base RP2" in out

    code, out, _ = invoke(capsys, "homology", "M(0;(35,-2),(14,1))")
    assert code == 0 and out.strip() == "7"
    code, out, _ = invoke(capsys, "homology", "M(0;(1,0),(1,1))")
    assert out.strip() == "trivial"
    code, out, _ = invoke(capsys, "--json", "homology", "M(0;)")
    assert json.loads(out)["result"]["invariant_factors"] == [0]


def test_parse_check(capsys):
    code, out, _ = invoke(capsys, "parse-check", "M( 0 ; (3,-1), (3,2) )")
    assert code == 0 and out.strip() == "ok"
    code, out, err = invoke(capsys, "parse-check", "M(0;(3,-1)")
    assert code == 1 and "position" in err
    code, out, err = invoke(capsys, "parse-check", "M(0;(4,2))")
    assert code == 1 and "coprime" in err


def test_positional_fibration_is_checked_when_read(capsys):
    # The first argument fails its check before the second is parsed.
    argv = ("iso", "M(0;(4,2))", "M(0;(3,1)")
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: pair 0 = (4, 2) is not coprime\n"
    code, out, err = invoke(capsys, "--json", *argv)
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    assert json.loads(out) == {"command": "iso", "status": "error",
                               "error": "pair 0 = (4, 2) is not coprime"}


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["construct", "--lens", "7,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_usage_error_json_envelope(capsys):
    cases = [
        (["construct", "--lens", "7,2"], "construct", "--weights"),
        (["enumerate", "--lens", "7,2", "--max-mult", "x"], "enumerate", "invalid int"),
        (["no-such-command"], None, "invalid choice"),
    ]
    for argv, command, reason in cases:
        with pytest.raises(SystemExit) as exc:
            run(["--json", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err == ""
        env = json.loads(out)
        assert list(env) == ["command", "status", "error"]
        assert env["command"] == command and env["status"] == "error"
        assert reason in env["error"]
        # text mode keeps argparse's usage message on stderr
        with pytest.raises(SystemExit):
            run(argv)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: lensfib") and reason in err


@pytest.mark.parametrize("argv, joined, code", [
    (["construct", "--lens", "7,2", "--weights", "-3,2"],
     ["construct", "--lens", "7,2", "--weights=-3,2"], 0),
    (["--json", "construct", "--lens", "-7,2", "--weights", "3,2"],
     ["--json", "construct", "--lens=-7,2", "--weights", "3,2"], 0),
    (["model", "--lens", "7,2", "--weights", "-2,5"],
     ["model", "--lens", "7,2", "--weights=-2,5"], 0),
    (["--json", "classify", "--lens", "-2,1", "--pair", "-5,3"],
     ["--json", "classify", "--lens=-2,1", "--pair=-5,3"], 1),
])
def test_signed_pair_token_reads_like_joined_form(capsys, argv, joined, code):
    result = invoke(capsys, *argv)
    assert result[0] == code
    assert result == invoke(capsys, *joined)


def test_signed_token_after_double_dash_is_positional(capsys):
    code, _, err = invoke(capsys, "iso", "--", "--lens", "-7,2")
    assert code == 1 and "expected 'M'" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def fail(fibration):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "recognize", cli.COMMANDS["recognize"]._replace(compute=fail))
    assert invoke(capsys, "recognize", "M(0;)") == (3, "", "error: RuntimeError: boom\n")
    code, out, err = invoke(capsys, "--json", "recognize", "M(0;)")
    assert code == 3 and err == ""
    assert json.loads(out) == {"command": "recognize", "status": "error",
                               "error": "RuntimeError: boom"}


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    calls = [
        ["construct", "--lens", "7,2", "--weights", "5,2"],
        ["--json", "classify", "--lens", "2,1", "--pair", "5,3"],
        ["recognize", "M(0;(2,1),(2,1),(2,1))"],
        ["--json", "parse-check", "M(0;(4,2))"],
        ["construct", "--lens", "7,2"],
        ["--json", "enumerate", "--lens", "7,2", "--max-mult", "x"],
        ["--json", "no-such-command"],
        ["--help"],
        ["homology", "--help"],
        ["--json", "homology", "M(0;(35,-2),(14,1))"],
    ]
    counts, outputs = [], {}
    for i in range(50):
        argv = calls[i % len(calls)]
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        outputs.setdefault(i % len(calls), set()).add((code, *capsys.readouterr()))
        counts.append(len(built))
    assert counts == [counts[0]] * 50
    # a reused parser gives every call the same result, usage and help included
    assert all(len(seen) == 1 for seen in outputs.values())
    assert [min(seen)[0] for seen in outputs.values()] == [0, 0, 1, 1, 2, 2, 2, 0, 0, 0]


def test_bad_pair_syntax_is_domain_error(capsys):
    code, _, err = invoke(capsys, "construct", "--lens", "7;2", "--weights", "5,2")
    assert code == 1 and "comma" in err


def test_env_guard(capsys, monkeypatch):
    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", "50")
    code, _, err = invoke(capsys, "construct", "--lens", "47,13", "--weights", "11,7")
    assert code == 1
    assert "guard" in err
    monkeypatch.delenv("SEIFERT_MAX_INT_GUARD")
    code, _, _ = invoke(capsys, "construct", "--lens", "47,13", "--weights", "11,7")
    assert code == 0


@pytest.mark.parametrize("lens", ["0,1", "1,0", "4,1", "97,5"])
def test_enumerate_max_mult_beyond_guard(capsys, lens):
    argv = ("enumerate", f"--lens={lens}", f"--max-mult={2**62 + 1}")
    message = f"|{2**62 + 1}| exceeds the integer guard {2**62}"
    with deadline(2):
        code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    with deadline(2):
        code, out, err = invoke(capsys, "--json", *argv)
    assert code == 1 and err == ""
    assert json.loads(out) == {"command": "enumerate", "status": "error", "error": message}


@pytest.mark.parametrize("argv, value", [
    (("isotropy", "--lens", f"{2**63},3", "--weights", "1,1"), 2**63),
    (("classify", "--lens", f"{2**63},3", "--pair", "1,1"), 2**63),
    (("enumerate", "--lens", f"{2**63},3", "--max-mult", "3"), 2**63),
    (("isotropy", "--lens", "7,2", "--weights", f"{2**70 + 1},1"), 2**70 + 1),
    (("model", "--lens", "7,2", "--weights", f"{2**70 + 1},1"), 2**70 + 1),
    (("classify", "--lens", f"7,{10 * 2**62}", "--pair", "1,2"), 10 * 2**62),
    (("construct", "--lens", f"7,{2**70}", "--weights", "5,2"), 2**70),
    (("construct", "--lens", "7,2", "--weights", f"{2**70 + 1},2"), 2**70 + 1),
])
def test_lens_and_model_weights_beyond_guard(capsys, argv, value):
    """Any integer of a pair beyond the guard is named, not a value computed from it."""
    message = f"|{value}| exceeds the integer guard {2**62}"
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = invoke(capsys, "--json", *argv)
    assert code == 1 and err == "" and len(out.splitlines()) == 1
    assert json.loads(out) == {"command": argv[0], "status": "error", "error": message}


BAD_GUARD_ENVELOPE = {
    "command": "recognize",
    "status": "error",
    "error": "SEIFERT_MAX_INT_GUARD must be an integer, got 'abc'",
}


def test_bad_env_guard_is_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", "abc")
    code, out, err = invoke(capsys, "--json", "recognize", "M(0;)")
    assert code == 1 and err == ""
    assert json.loads(out) == BAD_GUARD_ENVELOPE


def test_bad_env_guard_at_import_is_domain_error():
    proc = subprocess.run(
        [sys.executable, "-m", "lensfib.cli", "--json", "recognize", "M(0;)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, SEIFERT_MAX_INT_GUARD="abc"),
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == BAD_GUARD_ENVELOPE


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "lensfib.cli", "recognize", "M(0;(3,-1),(3,2))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "L(3,2)"
