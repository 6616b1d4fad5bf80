import subprocess
import sys

import pytest
from helpers import deadline, enumerate_by_construction, lens_parameters

from lensfib import classify as classify_mod
from lensfib import (
    CaseTag,
    InvalidRangeError,
    LensSpace,
    OverflowLimitError,
    classify_pair,
    enumerate_fibrations,
    fibration,
    lens_equal_oriented,
    normalize,
    parse,
    recognize,
)
from lensfib.classify import predicted_case, variants
from lensfib.construct import s3_fibration
from lensfib.errors import NotCoprimeError
from lensfib.seifert import IsoType, isomorphism_type, reverse_orientation


def canon(text):
    return normalize(parse(text))


def test_variants_examples():
    vs = variants(LensSpace(5, 2), 3, 2)
    assert normalize(vs.e.fibration) == canon("M(0;(15,2),(10,-1))")
    assert normalize(vs.a.fibration) == canon("M(0;(15,4),(10,-3))")
    assert isomorphism_type(
        vs.c.fibration, reverse_orientation(vs.e.fibration)
    ) is IsoType.ORIENTED

    vs = variants(LensSpace(3, 2), 1, 1)
    assert normalize(vs.e.fibration) == canon("M(0;(3,-1),(3,2))")
    assert normalize(vs.a.fibration) == canon("M(0;(1,-3))")

    vs = variants(LensSpace(1, 0), 1, 1)
    for fib in vs.fibrations():
        assert recognize(fib) == LensSpace(1, 0)


def test_predicted_case_examples():
    pred = predicted_case(LensSpace(7, 2), 5, 2)
    assert pred.tag is CaseTag.FOUR_DISTINCT
    assert (pred.class_count, pred.reversing_pair_count) == (4, 0)

    pred = predicted_case(LensSpace(3, 2), 5, 3)
    assert pred.tag is CaseTag.TWO_DISTINCT
    assert (pred.class_count, pred.reversing_pair_count) == (2, 0)

    pred = predicted_case(LensSpace(5, 2), 3, 2)
    assert pred.tag is CaseTag.TWO_REVERSING_PAIRS
    assert (pred.class_count, pred.reversing_pair_count) == (4, 2)

    pred = predicted_case(LensSpace(2, 1), 5, 3)
    assert pred.tag is CaseTag.ONE_REVERSING_PAIR
    assert (pred.class_count, pred.reversing_pair_count) == (2, 1)

    pred = predicted_case(LensSpace(5, 2), 1, 1)
    assert pred.tag is CaseTag.EQUAL_REVERSING
    assert (pred.class_count, pred.reversing_pair_count) == (2, 1)

    pred = predicted_case(LensSpace(3, 2), 1, 1)
    assert pred.tag is CaseTag.EQUAL_SPLIT
    assert (pred.class_count, pred.reversing_pair_count) == (2, 0)


def test_predicted_case_predicates():
    # q*q = -1 (mod 5) for q = 2
    pred = predicted_case(LensSpace(5, 2), 3, 2)
    assert not pred.flip_gives_reversing
    assert not pred.exchange_gives_oriented
    assert pred.exchange_flip_gives_reversing
    # q*q = 1 (mod 3) for q = 2
    pred = predicted_case(LensSpace(3, 2), 5, 3)
    assert not pred.flip_gives_reversing
    assert pred.exchange_gives_oriented
    assert not pred.exchange_flip_gives_reversing
    # p = 2
    pred = predicted_case(LensSpace(2, 1), 5, 3)
    assert pred.flip_gives_reversing
    assert pred.exchange_gives_oriented
    assert pred.exchange_flip_gives_reversing


def test_predicted_case_validation():
    with pytest.raises(NotCoprimeError):
        predicted_case(LensSpace(5, 2), 2, 4)
    with pytest.raises(InvalidRangeError):
        predicted_case(LensSpace(5, 2), 0, 1)
    with pytest.raises(InvalidRangeError):
        predicted_case(LensSpace(0, 1), 1, 1)


def test_classify_pair_examples():
    report = classify_pair(LensSpace(7, 2), 5, 2)
    assert len(report.classes) == 4
    assert report.reversing_pairs == ()

    report = classify_pair(LensSpace(5, 2), 1, 1)
    assert len(report.classes) == 2
    assert report.reversing_pairs == ((0, 1),)
    got = {e.canonical for e in report.classes}
    assert got == {canon("M(0;(5,4),(5,-3))"), canon("M(0;(5,-4),(5,3))")}

    report = classify_pair(LensSpace(3, 2), 1, 1)
    assert len(report.classes) == 2
    assert report.reversing_pairs == ()

    report = classify_pair(LensSpace(2, 1), 5, 3)
    assert len(report.classes) == 2
    assert report.reversing_pairs == ((0, 1),)
    got = {e.canonical for e in report.classes}
    assert got == {canon("M(0;(5,-1),(3,1))"), canon("M(0;(5,1),(3,-1))")}


def test_classify_pair_census_sample():
    for p, q in lens_parameters(12):
        lens = LensSpace(p, q)
        for m1, m2 in [(1, 1), (2, 1), (3, 2), (5, 3), (4, 1)]:
            report = classify_pair(lens, m1, m2)
            assert len(report.classes) == report.prediction.class_count
            assert len(report.reversing_pairs) == report.prediction.reversing_pair_count
            for entry in report.classes:
                assert lens_equal_oriented(
                    recognize(entry.representative), lens
                )


def test_one_singular_entries_enumerated():
    # M(0;(a2,p)) has at most one singular fibre and lies on L(p,q) when
    # a2 = q or a2*q = 1 (mod p).
    for p, q in [(5, 2), (4, 1), (7, 3), (1, 0)]:
        lens = LensSpace(p, q)
        enumerated = set(enumerate_fibrations(lens, 6))
        for a2 in range(-6, 7):
            if a2 != 0 and ((a2 - q) % p == 0 or (a2 * q - 1) % p == 0):
                assert normalize(fibration(0, (a2, p))) in enumerated


def test_enumerate_s3():
    got = enumerate_fibrations(LensSpace(1, 0), 3)
    assert got == sorted(got)
    pairs = [(1, 1), (2, 1), (3, 1), (3, 2)]
    expected = set()
    for a1, a2 in pairs:
        expected.add(normalize(s3_fibration(a1, a2)))
        expected.add(normalize(reverse_orientation(s3_fibration(a1, a2))))
    assert set(got) == expected


def test_enumerate_s2xs1():
    got = enumerate_fibrations(LensSpace(0, 1), 2)
    assert set(got) == {canon("M(0;(1,0),(1,0))"), canon("M(0;(2,1),(2,-1))")}


def test_enumerate_projective_plane_entries():
    got = enumerate_fibrations(LensSpace(4, 1), 5)
    rp2 = [cf for cf in got if cf.genus == -1]
    assert rp2 == [normalize(parse("M(-1;(1,1))"))]

    got = enumerate_fibrations(LensSpace(4, 3), 5)
    rp2 = [cf for cf in got if cf.genus == -1]
    assert rp2 == [normalize(parse("M(-1;(1,-1))"))]

    got = enumerate_fibrations(LensSpace(5, 2), 8)
    assert all(cf.genus == 0 for cf in got)


def test_enumerate_all_recognize_back():
    for p, q in [(1, 0), (4, 1), (5, 2), (7, 3), (12, 5), (0, 1)]:
        lens = LensSpace(p, q)
        for cf in enumerate_fibrations(lens, 6):
            assert lens_equal_oriented(recognize(cf.expand()), lens)


def test_enumerate_respects_bound_and_determinism():
    for p, q in [(5, 2), (8, 3)]:
        lens = LensSpace(p, q)
        got = enumerate_fibrations(lens, 7)
        assert got == sorted(got)
        assert got == enumerate_fibrations(lens, 7)
        for cf in got:
            for alpha, _ in cf.pairs:
                assert alpha <= 7


def test_enumerate_cost_is_output_sensitive(monkeypatch):
    """For a prime p > N only alpha = 1 divides p, and a20 is pinned to one
    residue class modulo p, so the recipe runs at most 2N times."""
    lens, bound = LensSpace(1009, 400), 100
    expected = enumerate_fibrations(lens, bound)
    calls = []
    recipe = classify_mod._recipe

    def counting(*args, **kwargs):
        calls.append(args)
        return recipe(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "_recipe", counting)
    assert enumerate_fibrations(lens, bound) == expected
    assert 0 < len(calls) <= 2 * bound


def test_enumerate_builds_each_class_once(monkeypatch):
    """Exchanging the weights when q*q = 1 (mod p), and beta -> alpha - beta
    on L(0,1), give the same class, so the sweeps skip one of each pair and
    every genus-0 class is canonicalised exactly once."""
    calls = []
    canonical_form = classify_mod._canonical_form

    def counting(*args, **kwargs):
        calls.append(args)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(classify_mod, "_canonical_form", counting)
    lenses = [LensSpace(0, 1)] + [LensSpace(p, q) for p, q in lens_parameters(30)]
    for lens in lenses:
        calls.clear()
        got = enumerate_fibrations(lens, 12)
        assert len(calls) == sum(1 for cf in got if cf.genus == 0), lens


@pytest.mark.parametrize(
    "lenses, max_mult",
    [
        ([(0, 1)] + list(lens_parameters(30)), 12),
        # 49*49 = 1 (mod 120), so the exchange pruning applies there.
        ([(97, 5), (120, 49), (1, 0)], 30),
    ],
    ids=["every-p-to-30", "larger-lenses"],
)
def test_enumerate_equals_constructor_sweep(lenses, max_mult):
    """The pruned sweep gives exactly what building every weight pair with
    the public constructors gives."""
    for p, q in lenses:
        lens = LensSpace(p, q)
        expected = sorted(enumerate_by_construction(lens, max_mult))
        assert enumerate_fibrations(lens, max_mult) == expected, lens


SWEEP_WITH_BROKEN_COMPLEMENT = """
import lensfib.construct
from lensfib import LensSpace, NotCoprimePairError, construct_fibration, enumerate_fibrations
lensfib.construct.unimodular_complement = lambda a, b: (0, 0)
for call in (lambda: enumerate_fibrations(LensSpace(7, 2), 5),
             lambda: construct_fibration(LensSpace(7, 2), 5, 2)):
    try:
        call()
    except NotCoprimePairError as exc:
        print(exc)
"""


def test_non_coprime_output_pair_raises_without_asserts():
    """A complement that breaks the recipe's identity is still caught under
    ``python -O``, which strips the identity's assert."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SWEEP_WITH_BROKEN_COMPLEMENT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pair 1 = (-3, 0) is not coprime",
                                        "pair 0 = (35, 0) is not coprime"]


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (4, 1), (97, 5)])
def test_enumerate_checks_max_mult_against_guard_first(p, q):
    with deadline(2), pytest.raises(OverflowLimitError, match="integer guard"):
        enumerate_fibrations(LensSpace(p, q), 2**62 + 1)
