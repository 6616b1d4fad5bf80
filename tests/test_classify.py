import random
import subprocess
import sys
from collections import defaultdict
from math import gcd

import pytest
from helpers import (
    coprime_pairs,
    deadline,
    enumerate_by_construction,
    invert_recipe,
    lens_parameters,
    variants,
)

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
from lensfib.classify import predicted_case
from lensfib.construct import s3_fibration
from lensfib.errors import NotCoprimeError
from lensfib.seifert import IsoType, isomorphism_type, reverse_orientation


def canon(text):
    return normalize(parse(text))


def test_variants_examples():
    e, a, _, c = variants(LensSpace(5, 2), 3, 2)
    assert normalize(e) == canon("M(0;(15,2),(10,-1))")
    assert normalize(a) == canon("M(0;(15,4),(10,-3))")
    assert isomorphism_type(c, reverse_orientation(e)) is IsoType.ORIENTED

    e, a, _, _ = variants(LensSpace(3, 2), 1, 1)
    assert normalize(e) == canon("M(0;(3,-1),(3,2))")
    assert normalize(a) == canon("M(0;(1,-3))")

    for fib in variants(LensSpace(1, 0), 1, 1):
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


def test_enumerate_recognizes_the_projective_plane_lists_only_for_p_4(monkeypatch):
    """M(-1; (1, +-1)) has p = 4, so the sweep of another lens neither builds
    nor recognises it, and L(4,1) and L(4,3) still lead with their genus -1
    form."""
    calls = []
    monkeypatch.setattr(classify_mod, "recognize", lambda f: calls.append(f) or recognize(f))
    enumerate_fibrations(LensSpace(1997, 5), 110)
    assert calls == []
    assert enumerate_fibrations(LensSpace(4, 1), 6)[0] == canon("M(-1;(1,1))")
    assert enumerate_fibrations(LensSpace(4, 3), 6)[0] == canon("M(-1;(1,-1))")
    assert len(calls) == 4


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
    residue class modulo p, so the sweep tries at most 2N weight pairs, each
    with at most two gcds."""
    lens, bound = LensSpace(1009, 400), 100
    expected = enumerate_fibrations(lens, bound)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(classify_mod, "gcd", counting)
    assert enumerate_fibrations(lens, bound) == expected
    assert 0 < len(calls) <= 4 * bound


def test_enumerate_builds_each_class_once():
    """Exchanging the weights when q*q = 1 (mod p), and beta -> alpha - beta
    on L(0,1), give the same class, so the sweeps skip one of each pair.  The
    sweeps keep no set, so a class built twice would show up twice: each form
    must be canonical and the list strictly increasing."""
    lenses = [LensSpace(0, 1)] + [LensSpace(p, q) for p, q in lens_parameters(30)]
    for lens in lenses:
        got = enumerate_fibrations(lens, 12)
        assert all(normalize(cf.expand()) == cf for cf in got), lens
        assert all(a < b for a, b in zip(got, got[1:])), lens


def test_enumerate_contains_every_list_of_its_lens():
    """Membership at large N: each seeded genus-0 list with multiplicities
    <= N normalises to a class of ``enumerate_fibrations(recognize(f), N)``.
    ``recognize`` reads the lens off the gluing determinants, not the recipe,
    so this checks the sweep far past the census gates' N <= 30."""
    rng, max_mult, checked = random.Random(22), 1500, 0
    while checked < 60:
        pairs = []
        for _ in range(rng.randint(1, 2)):
            alpha = rng.randint(2, max_mult)
            beta = rng.randrange(-alpha, alpha)
            while gcd(alpha, beta) != 1:
                beta = rng.randrange(-alpha, alpha)
            pairs.append((alpha, beta))
        f = fibration(0, *pairs, (1, rng.randint(-3, 3)))
        lens = recognize(f)
        if lens.p < 1:
            continue
        got = enumerate_fibrations(lens, max_mult)
        assert normalize(f) in got, f
        assert all(a < b for a, b in zip(got, got[1:])), lens
        checked += 1


def test_every_list_inverts_to_a_recipe_weight_pair():
    """Completeness on each list, at any p: every seeded genus-0 list on a
    lens with p >= 1 comes from the recipe on one of the four variants of
    its own weight pair, and where all four fit the guard, the variants that
    give its class number 4 / class_count of ``predicted_case``."""
    rng, checked, tags = random.Random(24), 0, []
    while checked < 20_000:
        scale = rng.choice((10, 10**3, 10**6))
        pairs = []
        for _ in range(rng.randint(0, 2)):
            alpha, beta = rng.randint(1, scale) * rng.choice((-1, 1)), rng.randint(-scale, scale)
            if gcd(alpha, beta) == 1:
                pairs.append((alpha, beta))
        f = fibration(0, *pairs, (1, rng.randint(-scale, scale)))
        lens = recognize(f)
        if lens.p < 1:
            continue
        w, hits, skipped = invert_recipe(f)
        assert hits, f
        if not skipped:
            prediction = predicted_case(lens, *w)
            assert len(hits) * prediction.class_count == 4, (f, w, hits)
            tags.append(prediction.tag)
        checked += 1
    # Lists with a variant past the guard, about 4 in 100, are not counted.
    assert len(tags) > 19_000 and set(tags) == set(CaseTag)


def test_enumerate_refuses_a_sweep_past_the_guard():
    """p//2 + max_mult bounds every value of the sweep (its docstring has the
    proof) and is checked up front: past the guard the sweep would not end,
    so it is refused at once, while a small bound on the same lens works."""
    lens = LensSpace(2**62 - 1, 1)
    with deadline(2), pytest.raises(OverflowLimitError, match="integer guard"):
        enumerate_fibrations(lens, 2**62 - 2**60)
    assert len(enumerate_fibrations(lens, 50)) == 1


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


def test_enumeration_splits_into_the_classifications_of_its_weight_pairs():
    """Enumeration against classification: the genus-0 classes that
    ``enumerate_fibrations`` finds, split by weight pair, are for each
    coprime m1 <= m2 <= N exactly the classes of ``classify_pair(L, m1, m2)``
    with every multiplicity <= N, and no other weight pair appears.  A class's
    weight pair is its stored multiplicities, padded with 1s to two, divided
    by their gcd and sorted."""
    max_mult, cells = 12, 0
    for p, q in lens_parameters(30):
        lens = LensSpace(p, q)
        by_pair = defaultdict(set)
        for cf in enumerate_fibrations(lens, max_mult):
            if cf.genus == 0:
                mults = [alpha for alpha, _ in cf.pairs] + [1] * (2 - len(cf.pairs))
                by_pair[tuple(sorted(m // gcd(*mults) for m in mults))].add(cf)
        for m1, m2 in coprime_pairs(max_mult):
            if m1 <= m2:
                expected = {entry.canonical for entry in classify_pair(lens, m1, m2).classes
                            if all(alpha <= max_mult for alpha, _ in entry.canonical.pairs)}
                assert by_pair.pop((m1, m2), set()) == expected, (lens, m1, m2)
                cells += 1
        assert not by_pair, (lens, sorted(by_pair))
    # 278 lenses with 1 <= p <= 30 times 46 coprime pairs m1 <= m2 <= 12.
    assert cells == 12_788


CONSTRUCT_WITH_BROKEN_COMPLEMENT = """
import lensfib.construct
from lensfib import LensSpace, NotCoprimePairError, construct_fibration
lensfib.construct.unimodular_complement = lambda a, b: (0, 0)
try:
    construct_fibration(LensSpace(7, 2), 5, 2)
except NotCoprimePairError as exc:
    print(exc)
"""


def test_construct_with_non_coprime_output_pair_raises_without_asserts():
    """A complement that breaks the recipe's identity is still caught by
    ``construct_fibration`` under ``python -O``, which strips the identity's
    assert.  The sweep of ``enumerate_fibrations`` trusts the complement, whose
    determinant-one output makes both pairs coprime (the sweep's docstring
    has the proof); test_construct.py checks that identity at large p."""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CONSTRUCT_WITH_BROKEN_COMPLEMENT],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["pair 0 = (35, 0) is not coprime"]


@pytest.mark.parametrize("p, q", [(0, 1), (1, 0), (4, 1), (97, 5)])
def test_enumerate_checks_max_mult_against_guard_first(p, q):
    with deadline(2), pytest.raises(OverflowLimitError, match="integer guard"):
        enumerate_fibrations(LensSpace(p, q), 2**62 + 1)
