"""Replay of a recorded corpus of invariant-list texts through ``parse``.

``data/parse_golden.jsonl`` holds one text per line with the outcome
``lensfib.parse`` gave for it: the genus and pairs it read, or the class,
message and ``position`` of the error it raised (``position`` is null for
errors other than ``FibrationParseError``).  The texts are seeded mutations
of a few fixed texts over an alphabet of grammar characters, digits, signs,
``+``, ``_``, spaces and Unicode characters that only look like digits or
spaces, together with over-guard and over-long integers and leading zeros.
They were recorded under the default guard.  Regenerate the texts and
record their outcomes from the current code with
``PYTHONPATH=src python tests/test_parse_golden.py``.
"""

import json
import random
import re
from pathlib import Path

import pytest
from helpers import deadline

from lensfib import errors, parse, seifert

CORPUS = Path(__file__).parent / "data" / "parse_golden.jsonl"

BASES = [
    "M(0;(35,-2),(14,1))",
    "M(-1;(1,1))",
    "M(0;)",
    "  M ( 0 ; ( 3 , -1 ) , ( 3 , 2 ) ) ",
    "M(0;(3,1)(2,1))",
    "M(2;(5,2),(7,-3),(4,1))",
    f"M(0;({2**62 + 1},1),(2,-{10**25}))",
    f"M({-2**63};(2,{10**25 + 1}))",
    f"M(0;(1,-{'9' * 45}))",
    f"M(-0;(0003,-{'0' * 40}1))",
    "M(0;(\u0663,1),(2,\u00b2))",
    "M(0;(4,2),(0,1))",
]
# Grammar characters, digits, signs and separators, and four characters that
# only look like them: ARABIC-INDIC DIGIT THREE (a decimal digit),
# SUPERSCRIPT TWO (a digit that is not decimal), NO-BREAK SPACE and
# INFORMATION SEPARATOR FOUR (both whitespace).
ALPHABET = "M();,0123456789-+_ \t\u0663\u00b2\u00a0\u001c"
# Texts kept whole: integers far beyond the guard's digits, which mutating
# would copy into every entry.
WHOLE = [
    f"M(0;({'7' * 5000},1))",
    f"M(0;(1,-{'7' * 5000}))",
    f"M({'-' + '1' * 5000};)",
]


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j):max(i, j)] + text[i:]
    return text


def corpus_texts() -> list[str]:
    rng = random.Random(14)
    texts = BASES + WHOLE
    for base in BASES:
        texts += [mutate(rng, base) for _ in range(220)]
    return texts


def outcome(text: str) -> dict:
    try:
        f = parse(text)
    except errors.DomainError as exc:
        return {"text": text, "error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}
    return {"text": text, "genus": f.genus, "pairs": [list(pair) for pair in f.pairs]}


CASES = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_replay_is_identical():
    mismatches = [(case, got) for case in CASES if (got := outcome(case["text"])) != case]
    assert not mismatches, f"{len(mismatches)} of {len(CASES)} differ, first {mismatches[0]}"


def test_corpus_covers_every_outcome():
    kinds = {case.get("error", "ok") for case in CASES}
    assert kinds >= {"ok", "FibrationParseError", "OverflowLimitError",
                     "NotCoprimePairError", "ZeroAlphaError"}
    messages = " ".join(case.get("message", "") for case in CASES)
    for wanted in ("expected 'M'", "expected '('", "expected ')'", "expected ';'",
                   "expected ','", "expected an integer", "trailing input",
                   "-digit integer exceeds", "| exceeds"):
        assert wanted in messages, wanted


def test_regex_accepts_exactly_what_the_walk_accepts(monkeypatch):
    """``parse`` reads text its grammar regex matches in one pass and hands
    the rest to the token walk.  On the corpus and 20,000 further seeded
    mutations it gives what the walk alone gives: the same value, or the same
    error class, message and position."""
    rng = random.Random(23)
    texts = [case["text"] for case in CASES]
    texts += [mutate(rng, rng.choice(BASES)) for _ in range(20_000)]
    matched = sum(1 for text in texts if seifert._LIST.fullmatch(text))
    assert 2000 < matched < len(texts) - 2000
    both = [outcome(text) for text in texts]
    monkeypatch.setattr(seifert, "_LIST", re.compile("(?!)"))
    mismatches = [(a, b) for a, b in zip(both, map(outcome, texts)) if a != b]
    assert not mismatches, f"{len(mismatches)} differ, first {mismatches[0]}"


def test_parse_is_linear_in_the_length_of_the_text():
    """A valid list of 200,000 pairs is read in one pass; the same text
    without its last ")" is refused by the regex and then by the walk, at
    its end."""
    text = "M(0;" + ",".join(["(3,-1)"] * 200_000) + ")"
    with deadline(3):
        assert len(parse(text).pairs) == 200_000
    with deadline(3), pytest.raises(errors.FibrationParseError) as exc:
        parse(text[:-1])
    assert (str(exc.value), exc.value.position) == ("expected ')' (at position "
                                                    f"{len(text) - 1})", len(text) - 1)


if __name__ == "__main__":
    CORPUS.write_text("".join(json.dumps(outcome(text)) + "\n" for text in corpus_texts()))
