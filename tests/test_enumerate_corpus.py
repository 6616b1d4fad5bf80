"""A recorded corpus of ``enumerate_fibrations`` output.

``data/enumerate_digests.jsonl`` holds one lens per line: its parameters,
the bound N and the sha256 of ``repr(enumerate_fibrations(L, N))``.  The
``repr`` names each value's type and fields, so a digest pins the classes,
their order and how they are built.  The corpus covers every L(p,q) with
p <= 60 and L(0,1) at N = 40, and the output-heavy L(1,0), L(0,1), L(4,1)
and L(4,3) at N = 120.  After a deliberate change of output, rewrite it
from the current code with ``PYTHONPATH=src python tests/test_enumerate_corpus.py``.
"""

import copy
import hashlib
import json
import pickle
from pathlib import Path

from helpers import lens_parameters

from lensfib import CanonicalForm, LensSpace, SeifertPair, enumerate_fibrations

CORPUS = Path(__file__).parent / "data" / "enumerate_digests.jsonl"
HEAVY = [(1, 0), (0, 1), (4, 1), (4, 3)]


def digest(p: int, q: int, max_mult: int) -> str:
    forms = enumerate_fibrations(LensSpace(p, q), max_mult)
    return hashlib.sha256(repr(forms).encode()).hexdigest()


def record() -> list[dict]:
    cases = [(p, q, 40) for p, q in [(0, 1), *lens_parameters(60)]]
    cases += [(p, q, 120) for p, q in HEAVY]
    return [{"lens": [p, q], "max_mult": n, "sha256": digest(p, q, n)} for p, q, n in cases]


def test_enumeration_matches_the_recorded_corpus():
    cases = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    assert len(cases) == 1 + sum(1 for _ in lens_parameters(60)) + len(HEAVY)
    for case in cases:
        assert digest(*case["lens"], case["max_mult"]) == case["sha256"], case


def test_enumeration_returns_plain_value_types():
    """Every form and pair has exactly its named-tuple type, and a form
    survives ``pickle`` and ``copy`` unchanged."""
    for p, q in [(0, 1), (1, 0), (4, 1), (7, 2), (120, 49)]:
        forms = enumerate_fibrations(LensSpace(p, q), 20)
        for cf in forms:
            assert type(cf) is CanonicalForm, cf
            assert type(cf.pairs) is tuple, cf
            assert all(type(pair) is SeifertPair for pair in cf.pairs), cf
        for cf in forms[:: max(1, len(forms) // 10)]:
            for twin in (pickle.loads(pickle.dumps(cf)), copy.copy(cf), copy.deepcopy(cf)):
                assert twin == cf and type(twin) is CanonicalForm, cf
                assert all(type(pair) is SeifertPair for pair in twin.pairs), cf


if __name__ == "__main__":
    CORPUS.write_text("".join(json.dumps(case) + "\n" for case in record()))
