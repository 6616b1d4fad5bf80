"""Acceptance suite: the eight end-to-end criteria, all exact (tolerance zero).

Each criterion is one test, so `pytest -v` shows one pass/fail line per
criterion; on success an `[acceptance] criterion N` line is printed as well
(visible with -s or in captured output).
"""

import random
from math import gcd

import pytest
from helpers import (
    apply_random_moves,
    coprime_pairs,
    isotropy_order_oracle,
    lens_by_plumbing,
    lens_parameters,
    other_choices,
    variants,
)

from lensfib import (
    CanonicalForm,
    LensSpace,
    SeifertPair,
    construct_fibration,
    enumerate_fibrations,
    fibration,
    first_homology,
    lens_equal_oriented,
    normalize,
    parse,
    recognize,
    unparse,
)
from lensfib.classify import predicted_case
from lensfib.construct import (
    ModelWeights,
    construct_s2xs1,
    gluing_choice,
    isotropy_order,
    s3_fibration,
)
from lensfib.seifert import euler_number, reverse_orientation

SWEEP_WEIGHTS = [
    (a10, a20)
    for a10 in range(-12, 13)
    for a20 in range(-12, 13)
    if a10 and a20 and gcd(a10, a20) == 1
]


def _ok(criterion, text):
    print(f"[acceptance] criterion {criterion}: PASS ({text})")


def canon(source):
    if isinstance(source, str):
        source = parse(source)
    return normalize(source)


def unoriented_match(fib, closed_form):
    """canonical equality with the closed form or its orientation reverse"""
    cf = canon(fib)
    return cf == canon(closed_form) or cf == canon(reverse_orientation(closed_form))


@pytest.fixture(scope="module")
def construct_sweep():
    """Every construction for p <= 50, all q, all coprime |weights| <= 12,
    recognised by ``recognize`` and by the plumbing oracle."""
    produced = {}
    violations = []
    count = 0
    for p, q in lens_parameters(50):
        lens = LensSpace(p, q)
        for a10, a20 in SWEEP_WEIGHTS:
            fib, _ = construct_fibration(lens, a10, a20)
            (a1, b1), (a2, b2) = fib.pairs
            if a1 * b2 + b1 * a2 != p or gcd(a2, b2) != 1:
                violations.append((p, q, a10, a20, "output contract"))
            if not lens_equal_oriented(recognize(fib), lens):
                violations.append((p, q, a10, a20, "round trip"))
            if not lens_equal_oriented(lens_by_plumbing(fib), lens):
                violations.append((p, q, a10, a20, "plumbing oracle"))
            key = (a1, b1, a2, b2)
            if produced.setdefault(key, p) != p:
                violations.append((p, q, a10, a20, "pairs reused across p"))
            count += 1
    return {"count": count, "produced": produced, "violations": violations}


@pytest.fixture(scope="module")
def census():
    """Theorem census for p <= 30, all q, all coprime weights <= 8."""
    produced = {}
    points = 0
    for p, q in lens_parameters(30):
        lens = LensSpace(p, q)
        for m1, m2 in coprime_pairs(8):
            fibs = variants(lens, m1, m2)
            cans = [normalize(f) for f in fibs]
            rcans = [normalize(reverse_orientation(f)) for f in fibs]
            pred = predicted_case(lens, m1, m2)

            reps = []  # first variant index of each distinct class
            for i, cf in enumerate(cans):
                if cf not in (cans[j] for j in reps):
                    reps.append(i)
            assert len(reps) == pred.class_count, (p, q, m1, m2)

            reversing = [
                (i, j)
                for pos, i in enumerate(reps)
                for j in reps[pos + 1 :]
                if cans[i] == rcans[j]
            ]
            assert len(reversing) == pred.reversing_pair_count, (p, q, m1, m2)

            # pairwise predicates: weight sign flip (e, a), exchange (e, b),
            # exchange plus sign flip (e, c)
            assert cans[0] != cans[1], (p, q, m1, m2)
            assert (cans[0] == rcans[1]) == pred.flip_gives_reversing
            assert (cans[0] == cans[2]) == pred.exchange_gives_oriented
            assert cans[0] != rcans[2], (p, q, m1, m2)
            assert cans[0] != cans[3], (p, q, m1, m2)
            assert (cans[0] == rcans[3]) == pred.exchange_flip_gives_reversing

            for f in fibs:
                (a1, b1), (a2, b2) = f.pairs
                produced[(a1, b1, a2, b2)] = p
            points += 1
    return {"points": points, "produced": produced}


def test_criterion_1_paper_examples():
    # L(3,2), equal weights: the split case.
    assert canon(construct_fibration(LensSpace(3, 2), 1, 1).fibration) == canon(
        "M(0;(3,-1),(3,2))"
    )
    assert canon(construct_fibration(LensSpace(3, 2), 1, -1).fibration) == canon(
        "M(0;(1,-3))"
    )

    # L(7,2) with {5,2}: four distinct, matching the listed invariants.
    assert canon(construct_fibration(LensSpace(7, 2), 5, 2).fibration) == canon(
        "M(0;(35,-2),(14,1))"
    )
    got = {canon(f) for f in variants(LensSpace(7, 2), 5, 2)}
    want = {
        canon("M(0;(35,-2),(14,1))"),
        canon("M(0;(35,-8),(14,3))"),
        canon("M(0;(35,-22),(14,9))"),
        canon("M(0;(35,-3),(14,1))"),
    }
    assert got == want and len(want) == 4

    # L(5,2) with {3,2}: two orientation-reversing pairs.
    got = {canon(f) for f in variants(LensSpace(5, 2), 3, 2)}
    pair_one = (canon("M(0;(15,2),(10,-1))"), canon("M(0;(15,-2),(10,1))"))
    pair_two = (canon("M(0;(15,4),(10,-3))"), canon("M(0;(15,-4),(10,3))"))
    assert got == set(pair_one) | set(pair_two) and len(got) == 4
    for x, y in (pair_one, pair_two):
        assert canon(reverse_orientation(x.expand())) == y

    # L(2,1) with {5,3}: one orientation-reversing pair.
    got = {canon(f) for f in variants(LensSpace(2, 1), 5, 3)}
    assert got == {canon("M(0;(5,-1),(3,1))"), canon("M(0;(5,1),(3,-1))")}
    assert canon(reverse_orientation(parse("M(0;(5,-1),(3,1))"))) == canon(
        "M(0;(5,1),(3,-1))"
    )

    # L(p,1), p = 2..9: closed forms for equal-multiplicity fibrations.
    for p in range(2, 10):
        lens = LensSpace(p, 1)
        plus = construct_fibration(lens, 1, 1).fibration
        assert canon(plus) == canon(f"M(0;(1,{p}))")
        minus = construct_fibration(lens, 1, -1).fibration
        if p % 2 == 1:
            closed = fibration(0, (p, (1 - p) // 2), (p, (1 + p) // 2))
        else:
            closed = fibration(0, (p // 2, 1), (p // 2, 1))
        assert unoriented_match(minus, closed), p
    _ok(1, "all worked examples reproduced at tolerance zero")


def test_criterion_2_equivalence_census(census):
    expected_points = len(list(lens_parameters(30))) * len(list(coprime_pairs(8)))
    assert census["points"] == expected_points
    _ok(2, f"{census['points']} census points, zero mismatches")


def test_criterion_3_construct_recognize_round_trip(construct_sweep):
    assert construct_sweep["violations"] == []
    expected = len(list(lens_parameters(50))) * len(SWEEP_WEIGHTS)
    assert construct_sweep["count"] == expected
    _ok(3, f"{construct_sweep['count']} constructions round-tripped")


def test_criterion_4_choice_independence(monkeypatch):
    rng = random.Random(44)
    lenses = list(lens_parameters(40))
    done = 0
    while done < 1000:
        p, q = rng.choice(lenses)
        lens = LensSpace(p, q)
        a10 = rng.choice([-1, 1]) * rng.randint(1, 12)
        a20 = rng.choice([-1, 1]) * rng.randint(1, 12)
        if gcd(a10, a20) != 1:
            continue
        ks = rng.randint(-5, 5)
        kb = rng.randint(-5, 5)
        base = canon(construct_fibration(lens, a10, a20).fibration)
        with monkeypatch.context() as patch:
            other_choices(patch, ks, kb)
            shifted = construct_fibration(lens, a10, a20)
        assert canon(shifted.fibration) == base, (p, q, a10, a20, ks, kb)
        done += 1
    _ok(4, "1000 perturbed constructions, identical canonical forms")


def test_criterion_5_isotropy_lemma():
    checks = 0
    oracle_values = {}
    for p, q in lens_parameters(60):
        lens = LensSpace(p, q)
        _, s = gluing_choice(p, q)
        for k1, k2 in SWEEP_WEIGHTS:
            w = ModelWeights(k1, k2)
            u = isotropy_order(lens, w)
            # The oracle enumerates l*(q*k1 - k2) mod p, so its value only
            # depends on (p, (q*k1 - k2) mod p); memoise on that key.
            key = (p, (q * k1 - k2) % p)
            if key not in oracle_values:
                oracle_values[key] = isotropy_order_oracle(lens, w)
            assert u == oracle_values[key], (p, q, k1, k2)
            assert u == gcd(p, q * k1 - k2), (p, q, k1, k2)
            checks += 1
    figure = (LensSpace(6, 5), ModelWeights(3, 1))
    assert isotropy_order(*figure) == 2
    assert isotropy_order_oracle(*figure) == 2
    _ok(5, f"{checks} weight/lens pairs, formula = oracle")


def test_criterion_6_homology_oracle(construct_sweep, census):
    produced = dict(construct_sweep["produced"])
    produced.update(census["produced"])
    for text in [
        "M(0;(3,-1),(3,2))", "M(0;(1,-3))", "M(0;(35,-2),(14,1))",
        "M(0;(35,-8),(14,3))", "M(0;(35,-22),(14,9))", "M(0;(35,-3),(14,1))",
        "M(0;(15,2),(10,-1))", "M(0;(15,-2),(10,1))",
        "M(0;(15,4),(10,-3))", "M(0;(15,-4),(10,3))",
        "M(0;(5,-1),(3,1))", "M(0;(5,1),(3,-1))",
    ]:
        f = parse(text)
        pairs = list(f.pairs)
        while len(pairs) < 2:
            pairs.append((1, 0))
        (a1, b1), (a2, b2) = pairs
        produced[(a1, b1, a2, b2)] = recognize(f).p

    checked = 0
    for (a1, b1, a2, b2), p in produced.items():
        inv = first_homology(fibration(0, (a1, b1), (a2, b2)))
        expected = (p,) if p >= 2 else ()
        assert inv == expected, (a1, b1, a2, b2, p, inv)
        checked += 1

    for alpha, beta in [(1, 0), (2, 1), (5, 3), (7, 2)]:
        assert first_homology(construct_s2xs1(alpha, beta)) == (0,)

    assert first_homology(parse("M(-1;(1,1))")) == (4,)
    assert first_homology(parse("M(-1;(1,-1))")) == (4,)
    assert recognize(parse("M(-1;(1,1))")) == LensSpace(4, 1)
    assert recognize(parse("M(-1;(1,-1))")) == LensSpace(4, 3)
    _ok(6, f"{checked} distinct invariant lists, |H1| = p throughout")


def test_criterion_7_sphere_families_complete():
    got = set(enumerate_fibrations(LensSpace(1, 0), 6))
    expected = set()
    pair_count = 0
    for a1 in range(1, 7):
        for a2 in range(1, a1 + 1):
            if gcd(a1, a2) != 1:
                continue
            model = s3_fibration(a1, a2)
            b1 = model.pairs[0].beta
            assert 0 <= b1 < a1 and a1 * model.pairs[1].beta + b1 * a2 == 1
            # the class of the model and of its reverse; one unordered
            # multiplicity pair contributes exactly this reversing pair
            expected.add(canon(model))
            expected.add(canon(reverse_orientation(model)))
            pair_count += 1
    assert got == expected
    assert len(got) == 2 * pair_count

    got = set(enumerate_fibrations(LensSpace(0, 1), 6))
    expected = set()
    for alpha in range(1, 7):
        for beta in range(0, alpha if alpha > 1 else 1):
            if gcd(alpha, beta) == 1:
                expected.add(canon(construct_s2xs1(alpha, beta)))
    assert got == expected
    for cf in got:
        assert recognize(cf.expand()) == LensSpace(0, 1)
    _ok(7, "sphere and product families enumerate exactly")


def _ceil_div(a, b):
    return -(-a // b)


def test_enumeration_matches_brute_force_census():
    """Every genus-0 canonical form with at most two stored pairs of order
    <= N whose lens order is <= P, recognized and bucketed by lens, is
    exactly what enumerate_fibrations returns for that lens."""
    n_max, p_max = 12, 30
    stored = [
        SeifertPair(alpha, beta)
        for alpha in range(2, n_max + 1)
        for beta in range(1, alpha)
        if gcd(alpha, beta) == 1
    ]
    forms = []
    # No pair: the order is |b|.  One pair (a1, r1): |a1*b + r1|.
    # Two pairs: |a1*a2*b + a1*r2 + a2*r1|.
    for b in range(-p_max, p_max + 1):
        forms.append(CanonicalForm(0, b, ()))
    for (a1, r1) in stored:
        for b in range(_ceil_div(-p_max - r1, a1), (p_max - r1) // a1 + 1):
            forms.append(CanonicalForm(0, b, (SeifertPair(a1, r1),)))
    for i, first in enumerate(stored):
        for second in stored[i:]:
            (a1, r1), (a2, r2) = first, second
            k, c = a1 * a2, a1 * r2 + a2 * r1
            for b in range(_ceil_div(-p_max - c, k), (p_max - c) // k + 1):
                forms.append(CanonicalForm(0, b, (first, second)))

    buckets = {}
    for cf in forms:
        assert normalize(cf.expand()) == cf
        buckets.setdefault(recognize(cf.expand()), set()).add(cf)
    assert all(0 <= lens.p <= p_max for lens in buckets)

    lenses = [LensSpace(0, 1)] + [LensSpace(p, q) for p, q in lens_parameters(p_max)]
    for lens in lenses:
        expected = set()
        for key, bucket in buckets.items():
            if lens_equal_oriented(key, lens):
                expected |= bucket
        if lens_equal_oriented(lens, LensSpace(4, 1)):
            expected.add(normalize(fibration(-1, (1, 1))))
        elif lens_equal_oriented(lens, LensSpace(4, 3)):
            expected.add(normalize(fibration(-1, (1, -1))))
        assert set(enumerate_fibrations(lens, n_max)) == expected, lens


def test_criterion_8_move_and_parse_robustness():
    rng = random.Random(88)
    pool = [
        parse("M(0;(3,-1),(3,2))"),
        parse("M(0;(1,-3))"),
        parse("M(0;(35,-2),(14,1))"),
        parse("M(0;(15,4),(10,-3))"),
        parse("M(0;(5,-1),(3,1))"),
        parse("M(0;(5,4),(5,-3))"),
        parse("M(0;(2,1),(2,-1))"),
        parse("M(0;(1,0),(1,1))"),
        parse("M(0;)"),
        parse("M(-1;(1,1))"),
        parse("M(-1;(1,-1))"),
        construct_fibration(LensSpace(12, 5), 7, -4).fibration,
    ]
    baselines = [
        (normalize(f), euler_number(f), recognize(f), first_homology(f))
        for f in pool
    ]
    sequences = 10_000
    for i in range(sequences):
        f = pool[i % len(pool)]
        cf0, e0, lens0, h0 = baselines[i % len(pool)]
        moved = apply_random_moves(rng, f, rng.randint(1, 6), max_pairs=6)
        assert normalize(moved) == cf0
        assert euler_number(moved) == e0
        assert recognize(moved) == lens0
        assert first_homology(moved) == h0
        text = unparse(moved)
        assert parse(text) == moved
        assert unparse(parse(text)) == text
    _ok(8, f"{sequences} move sequences left all invariants unchanged")
