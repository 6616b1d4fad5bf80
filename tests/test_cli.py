import json
import os
import re
import subprocess
import sys

import pytest
from helpers import deadline, lower_guard

from lensfib import classify as classify_mod
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


@pytest.mark.parametrize("guard, text, total", [
    (2**62, f"M(0;(1,{2**62}),(1,{2**62}))", 2**63),
    (50, "M(0;(1,30),(1,30))", 60),
], ids=["default-guard", "guard-50"])
def test_normalize_refuses_a_b_beyond_the_guard(capsys, monkeypatch, guard, text, total):
    """Each pair is within the guard but the b that normalize sums is not:
    the canonical list would not parse back, so the command exits 1."""
    if guard != 2**62:
        lower_guard(monkeypatch, guard)
    message = f"|{total}| exceeds the integer guard {guard}"
    assert invoke(capsys, "normalize", text) == (1, "", f"error: {message}\n")
    code, out, err = invoke(capsys, "--json", "normalize", text)
    assert code == 1 and err == ""
    assert json.loads(out) == {"command": "normalize", "status": "error", "error": message}


def test_iso_refuses_a_b_beyond_the_guard(capsys):
    """Both lists normalise to the same b = 2**63, which is beyond the guard:
    iso exits 1 as normalize does, rather than comparing the two forms."""
    text = f"M(0;(1,{2**62}),(1,{2**62}))"
    message = f"|{2**63}| exceeds the integer guard {2**62}"
    assert invoke(capsys, "iso", text, text) == (1, "", f"error: {message}\n")
    code, out, err = invoke(capsys, "--json", "iso", text, text)
    assert code == 1 and err == ""
    assert json.loads(out) == {"command": "iso", "status": "error", "error": message}


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


def test_lowered_guard(capsys, monkeypatch):
    lower_guard(monkeypatch, 50)
    code, _, err = invoke(capsys, "construct", "--lens", "47,13", "--weights", "11,7")
    assert code == 1
    assert "guard" in err
    monkeypatch.undo()
    code, _, _ = invoke(capsys, "construct", "--lens", "47,13", "--weights", "11,7")
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (("normalize", "M(0;(1234,1))"), "|1234| exceeds the integer guard 50"),
    (("normalize", "M(0;(12345,1))"),
     "a 5-digit integer exceeds the integer guard 50 (at position 5)"),
    (("construct", "--lens", "1234,1", "--weights", "1,2"), "|1234| exceeds the integer guard 50"),
    (("construct", "--lens", "12345,1", "--weights", "1,2"),
     "a 5-digit integer exceeds the integer guard 50"),
    (("enumerate", "--lens", "7,2", "--max-mult", "-12345"),
     "a 5-digit integer exceeds the integer guard 50"),
], ids=["parser-value", "parser-length", "pair-value", "pair-length", "option-length"])
def test_lowered_guard_reads_integer_text(capsys, monkeypatch, argv, message):
    """The parser and the CLI refuse integer text at the same length, twice the
    guard's digits, and name a shorter integer beyond the guard by its value."""
    lower_guard(monkeypatch, 50)
    text_mode = invoke(capsys, *argv)
    json_mode = invoke(capsys, "--json", *argv)
    assert text_mode == (1, "", f"error: {message}\n")
    code, out, err = json_mode
    assert code == 1 and err == ""
    assert json.loads(out) == {"command": argv[0], "status": "error", "error": message}


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


def test_enumerate_sweep_past_the_guard_is_refused_at_once(capsys):
    """max_mult is within the guard, but p//2 + max_mult, which bounds the
    sweep's values, is not: the call exits 1 at once instead of running on."""
    argv = ("enumerate", f"--lens={2**62 - 1},1", f"--max-mult={2**62 - 2**60}")
    message = f"|{2**61 - 1 + 2**62 - 2**60}| exceeds the integer guard {2**62}"
    with deadline(2):
        code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    with deadline(2):
        code, out, err = invoke(capsys, "--json", *argv)
    assert code == 1 and err == "" and len(out.splitlines()) == 1
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
    (("normalize", f"M(0;({2**70 + 1},1))"), 2**70 + 1),
    (("normalize", f"M(0;(1,{-10**37}))"), -10**37),
    (("construct", "--lens", f"{10**37},2", "--weights", "1,2"), 10**37),
])
def test_lens_and_model_weights_beyond_guard(capsys, argv, value):
    """Any integer of a pair or an invariant list beyond the guard, with up to
    twice the guard's digits, is named, not a value computed from it."""
    message = f"|{value}| exceeds the integer guard {2**62}"
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = invoke(capsys, "--json", *argv)
    assert code == 1 and err == "" and len(out.splitlines()) == 1
    assert json.loads(out) == {"command": argv[0], "status": "error", "error": message}


@pytest.mark.parametrize("max_str_digits", [4300, 0])
@pytest.mark.parametrize("command, digits", [
    pytest.param("normalize", 5000, id="normalize"),
    pytest.param("parse-check", 5000, id="parse-check"),
    pytest.param("normalize", 39, id="normalize-39-digits"),
])
def test_over_long_integer_is_domain_error(capsys, command, digits, max_str_digits):
    """An integer with more than twice the guard's digits is refused before
    ``int`` reads it, whatever limit Python sets on converting integer text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python sets no limit on integer text")
    argv = (command, f"M(0;({'7' * digits},1))")
    message = f"a {digits}-digit integer exceeds the integer guard {2**62} (at position 5)"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        text_mode = invoke(capsys, *argv)
        json_mode = invoke(capsys, "--json", *argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert text_mode == (1, "", f"error: {message}\n")
    code, out, err = json_mode
    assert code == 1 and err == "" and len(out.splitlines()) == 1
    assert json.loads(out) == {"command": command, "status": "error", "error": message}


@pytest.mark.parametrize("max_str_digits", [4300, 0])
@pytest.mark.parametrize("argv", [
    ("construct", "--lens", "7," + "7" * 5000, "--weights", "1,2"),
    ("isotropy", "--lens", "7,2", "--weights", "-" + "7" * 5000 + ",1"),
    ("enumerate", "--lens", "7,2", "--max-mult", "7" * 5000),
    ("enumerate", "--lens", "7,2", "--max-mult=-" + "7" * 5000),
    ("construct", "--lens", "7," + "7" * 39, "--weights", "1,2"),
    ("enumerate", "--lens", "7,2", "--max-mult", "7" * 39),
])
def test_over_long_integer_option_is_domain_error(capsys, argv, max_str_digits):
    """An option's integer with more than twice the guard's digits is refused
    by its length, before ``int`` reads it, and its digits are not echoed."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python sets no limit on integer text")
    digits = max(map(len, re.findall(r"\d+", " ".join(argv))))
    message = f"a {digits}-digit integer exceeds the integer guard {2**62}"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        text_mode = invoke(capsys, *argv)
        json_mode = invoke(capsys, "--json", *argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert text_mode == (1, "", f"error: {message}\n")
    code, out, err = json_mode
    assert code == 1 and err == "" and len(out.splitlines()) == 1
    assert json.loads(out) == {"command": argv[0], "status": "error", "error": message}


@pytest.mark.parametrize("max_str_digits", [4300, 640])
@pytest.mark.parametrize("argv", [
    ("normalize", "M(0;({}7,1))"),
    ("enumerate", "--lens", "7,2", "--max-mult", "{}7"),
    ("construct", "--lens", "{}7,2", "--weights", "5,2"),
], ids=["invariant-list", "max-mult", "lens"])
def test_leading_zeros_never_count(capsys, argv, max_str_digits):
    """An integer padded with 5,000 zeros reads as the unpadded one, whatever
    limit Python sets on converting integer text."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python sets no limit on integer text")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        for json_mode in ((), ("--json",)):
            padded = invoke(capsys, *json_mode, *(a.format("0" * 5000) for a in argv))
            plain = invoke(capsys, *json_mode, *(a.format("") for a in argv))
            assert padded == plain and plain[0] == 0
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("max_str_digits", [4300, 640])
@pytest.mark.parametrize("argv, digits", [
    (("enumerate", "--lens", "7,2", "--max-mult", "_".join("1" * 3000)), 3000),
    (("construct", "--lens", "_".join("1" * 5000) + ",2", "--weights", "5,2"), 5000),
], ids=["max-mult", "lens"])
def test_underscores_never_count(capsys, argv, digits, max_str_digits):
    """Digits split by ``_``, which ``int`` reads, are refused by the count of
    their digits, in one short envelope that does not repeat them."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python sets no limit on integer text")
    message = f"a {digits}-digit integer exceeds the integer guard {2**62}"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(max_str_digits)
    try:
        code, out, err = invoke(capsys, "--json", *argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1 and err == "" and len(out.splitlines()) == 1 and len(out) < 300
    assert json.loads(out) == {"command": argv[0], "status": "error", "error": message}


@pytest.mark.parametrize("argv, code, reason", [
    (("construct", "--lens", "x" * 5000 + ",2", "--weights", "5,2"), 1,
     "--lens must be integers, got "),
    (("construct", "--lens", ",".join("7" * 3000), "--weights", "5,2"), 1,
     "--lens must be two comma-separated integers, got "),
    (("classify", "--lens", "7,2", "--pair", "1__1" * 1000 + ",2"), 1,
     "--pair must be integers, got "),
    (("enumerate", "--lens", "7,2", "--max-mult", "x" * 5000), 2,
     "argument --max-mult: invalid int value: "),
], ids=["not-digits", "many-commas", "double-underscores", "option"])
def test_error_quotes_at_most_100_characters_of_its_input(capsys, argv, code, reason):
    """Text that is no integer pair is quoted up to its first 100 characters."""
    text = next(a for a in argv if len(a) > 100)
    try:
        got = run(["--json", *argv])
    except SystemExit as exc:  # a usage error
        got = exc.code
    out = capsys.readouterr().out
    assert got == code and len(out.splitlines()) == 1 and len(out) < 300
    assert json.loads(out)["error"] == f"{reason}{text[:100]!r}..."


@pytest.mark.parametrize("argv, reason", [
    (("x" * 5000,), "argument command: invalid choice: 'xxx"),
    (("recognize", "M(0;)", "y" * 5000), "unrecognized arguments: yyy"),
], ids=["command", "leftover"])
def test_usage_error_cuts_long_tokens(capsys, argv, reason):
    """argparse's own messages give at most 100 characters of a token."""
    text = max(argv, key=len)
    with pytest.raises(SystemExit) as exc:
        run(["--json", *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and err == ""
    assert len(out.splitlines()) == 1 and len(out.encode()) < 400
    message = json.loads(out)["error"]
    assert message.startswith(reason) and f"{text[:100]}..." in message
    assert text[:101] not in message
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.encode()) < 600 and f"{text[:100]}..." in err


@pytest.mark.parametrize("text", ["x\n" * 2500, "\x00" * 5000, "\ud800" * 5000, "\\" * 5000],
                         ids=["newlines", "nul", "lone-surrogate", "backslashes"])
def test_usage_error_cuts_tokens_that_repr_escapes(capsys, text):
    """"invalid choice" quotes a token with ``repr``, which may escape each of
    its characters; the quote still holds only its first 100 characters."""
    quote = f"invalid choice: {repr(text[:100])[:-1]}...'"
    with pytest.raises(SystemExit) as exc:
        run(["--json", text])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and err == ""
    assert len(out.splitlines()) == 1 and len(out.encode()) < 1200
    assert quote in json.loads(out)["error"]
    with pytest.raises(SystemExit) as exc:
        run([text])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.encode()) < 1200 and quote in err


@pytest.mark.parametrize("value", ["50", "abc", "9" * 3000], ids=["50", "abc", "3000-nines"])
def test_guard_reads_no_environment_variable(value):
    """The integer guard is a constant: the variable that once set it changes nothing."""
    argv = [sys.executable, "-m", "lensfib.cli", "--json", "normalize", "M(0;(1234,1))"]
    plain = subprocess.run(argv, capture_output=True, text=True)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=dict(os.environ, SEIFERT_MAX_INT_GUARD=value))
    assert proc.returncode == plain.returncode == 0 and proc.stderr == ""
    assert proc.stdout == plain.stdout
    assert json.loads(proc.stdout)["result"]["pairs"] == [[1234, 1]]


@pytest.mark.parametrize("field", ["class_count", "reversing_pair_count"])
def test_prediction_mismatch_is_program_failure(capsys, monkeypatch, field):
    """A census that disagrees with its prediction is a fault of the program."""
    predicted_case = classify_mod.predicted_case

    def wrong(*args):
        prediction = predicted_case(*args)
        return prediction._replace(**{field: getattr(prediction, field) + 1})

    monkeypatch.setattr(classify_mod, "predicted_case", wrong)
    argv = ("classify", "--lens", "7,2", "--pair", "5,2")
    code, out, err = invoke(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("error: PredictionMismatchError: L(7,2)")
    code, out, err = invoke(capsys, "--json", *argv)
    assert code == 3 and err == ""
    envelope = json.loads(out)
    assert envelope["status"] == "error"
    assert envelope["error"].startswith("PredictionMismatchError: L(7,2)")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "lensfib.cli", "recognize", "M(0;(3,-1),(3,2))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "L(3,2)"
