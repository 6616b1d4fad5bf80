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
from pathlib import Path

from lensfib import errors, parse

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


if __name__ == "__main__":
    CORPUS.write_text("".join(json.dumps(outcome(text)) + "\n" for text in corpus_texts()))
