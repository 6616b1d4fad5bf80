import random
from itertools import product
from math import gcd

import pytest
from helpers import (
    coprime_pairs,
    isotropy_order_oracle,
    lens_parameters,
    lower_guard,
    other_choices,
)

from lensfib import (
    InvalidRangeError,
    LensSpace,
    OverflowLimitError,
    construct_fibration,
    fibration,
    lens_equal_oriented,
    normalize,
    parse,
    recognize,
)
from lensfib.construct import (
    GluingChoice,
    ModelWeights,
    construct_s2xs1,
    gluing_choice,
    isotropy_order,
    model_fibration,
    s3_fibration,
)
from lensfib.errors import NotCoprimeError, ZeroWeightError


def canon(text_or_fib):
    if isinstance(text_or_fib, str):
        return normalize(parse(text_or_fib))
    return normalize(text_or_fib)


def test_gluing_choice_examples():
    assert gluing_choice(7, 2) == GluingChoice(-1, 4)
    assert gluing_choice(5, 2) == GluingChoice(-1, 3)
    assert gluing_choice(1, 0) == GluingChoice(1, 0)
    with pytest.raises(NotCoprimeError):
        gluing_choice(6, 2)
    with pytest.raises(InvalidRangeError):
        gluing_choice(0, 1)


def test_gluing_choice_determinant():
    for p, q in lens_parameters(40):
        r, s = gluing_choice(p, q)
        assert q * s + p * r == 1
        assert 0 <= s < p or p == 1


def test_gluing_choice_cache_is_bounded():
    """A process that meets many lenses keeps at most 4096 cached choices,
    enough for every lens with p <= 60."""
    assert sum(1 for _ in lens_parameters(60)) <= 4096
    for p in range(100_003, 105_003):
        gluing_choice(p, 1)
    assert gluing_choice.cache_info().currsize <= 4096


def test_construct_paper_examples():
    cases = [
        ((7, 2), (5, 2), "M(0;(35,-2),(14,1))"),
        ((3, 2), (1, 1), "M(0;(3,-1),(3,2))"),
        ((3, 2), (1, -1), "M(0;(1,-3))"),
        ((5, 2), (3, -2), "M(0;(15,4),(10,-3))"),
        ((2, 1), (5, 3), "M(0;(5,-1),(3,1))"),
    ]
    for (p, q), (a10, a20), expected in cases:
        fib, _ = construct_fibration(LensSpace(p, q), a10, a20)
        assert canon(fib) == canon(expected), (p, q, a10, a20)


def test_construct_trace_identities():
    for p, q in lens_parameters(15):
        lens = LensSpace(p, q)
        for a10, a20 in [(1, 1), (1, -1), (2, -3), (4, 7), (-5, 3)]:
            fib, tr = construct_fibration(lens, a10, a20)
            r, s = tr.r, tr.s
            assert q * s + p * r == 1
            assert tr.u == gcd(p, s * a10 - a20)
            assert tr.alpha == p // tr.u
            assert tr.alpha1 == tr.alpha * a10
            assert tr.alpha2 == tr.alpha * a20
            assert tr.u * tr.alpha1_prime == s * a10 - a20
            assert tr.alpha1 * tr.beta1_prime - tr.alpha1_prime * tr.beta1 == 1
            assert tr.beta2 == -s * tr.beta1 + p * tr.beta1_prime
            assert tr.alpha1 * tr.beta2 + tr.beta1 * tr.alpha2 == p
            assert gcd(tr.alpha2, tr.beta2) == 1
            (pa1, pb1), (pa2, pb2) = fib.pairs
            assert (pa1, pb1, pa2, pb2) == (tr.alpha1, tr.beta1, tr.alpha2, tr.beta2)

    # enumerate_fibrations runs the same recipe inline and trusts its pairs:
    # M = [[alpha1, alpha1'], [beta1, beta1']] must be unimodular and map
    # (s, -p) to (alpha2, -beta2), which makes both pairs coprime.  Its one
    # guard check up front rests on the bounds below, for N = alpha*max|a|.
    rng = random.Random(21)
    for _ in range(5000):
        p = rng.randint(1, 10**12)
        q = rng.randrange(p)
        while gcd(p, q) != 1:
            q = rng.randrange(p)
        a10, a20 = 0, 0
        while gcd(a10, a20) != 1:
            a10, a20 = (rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(2))
        trace = construct_fibration(LensSpace(p, q), a10, a20).trace
        u, alpha, alpha1, alpha2, alpha1p, beta1, beta1p, beta2, _, s = trace
        assert u == gcd(p, s * a10 - a20)
        assert alpha * u == p
        assert alpha1 * beta1p - alpha1p * beta1 == 1
        assert (alpha2, -beta2) == (alpha1 * s - alpha1p * p, beta1 * s - beta1p * p)
        assert gcd(alpha1, beta1) == 1 and gcd(alpha2, beta2) == 1
        n = alpha * max(abs(a10), abs(a20))
        assert abs(alpha1p) <= n and abs(beta1p) <= n
        assert abs(beta2) <= (p if abs(alpha1) == 1 else p // 2 + n)


def test_construct_errors():
    lens = LensSpace(5, 2)
    with pytest.raises(ZeroWeightError):
        construct_fibration(lens, 0, 1)
    with pytest.raises(ZeroWeightError):
        construct_fibration(lens, 1, 0)
    with pytest.raises(NotCoprimeError):
        construct_fibration(lens, 2, 4)
    with pytest.raises(InvalidRangeError):
        construct_fibration(LensSpace(0, 1), 1, 1)


def test_choice_independence(monkeypatch):
    rng = random.Random(31)
    for _ in range(120):
        p = rng.randint(1, 30)
        q = rng.choice([q for q in range(p or 1) if gcd(p, q) == 1] or [0])
        lens = LensSpace(p, q)
        a10 = rng.choice([-1, 1]) * rng.randint(1, 8)
        while True:
            a20 = rng.choice([-1, 1]) * rng.randint(1, 8)
            if gcd(a10, a20) == 1:
                break
        base_fib, base_trace = construct_fibration(lens, a10, a20)
        base = canon(base_fib)
        ks = rng.randint(-5, 5)
        kb = rng.randint(-5, 5)
        with monkeypatch.context() as patch:
            other_choices(patch, ks, kb)
            shifted = construct_fibration(lens, a10, a20)
        assert shifted.trace.s == base_trace.s + ks * p
        assert canon(shifted.fibration) == base


def test_sign_flip_of_both_weights():
    for p, q in lens_parameters(10):
        lens = LensSpace(p, q)
        for a10, a20 in [(1, 1), (2, 3), (3, -2), (1, -5)]:
            plus = canon(construct_fibration(lens, a10, a20).fibration)
            minus = canon(construct_fibration(lens, -a10, -a20).fibration)
            assert plus == minus


def test_construct_s2xs1():
    assert construct_s2xs1(1, 0) == fibration(0, (1, 0), (1, 0))
    assert construct_s2xs1(2, 1) == fibration(0, (2, 1), (2, -1))
    assert construct_s2xs1(3, 2) == fibration(0, (3, 2), (3, -2))
    assert recognize(construct_s2xs1(5, 3)) == LensSpace(0, 1)
    with pytest.raises(NotCoprimeError):
        construct_s2xs1(2, 0)
    with pytest.raises(InvalidRangeError):
        construct_s2xs1(0, 1)
    with pytest.raises(InvalidRangeError):
        construct_s2xs1(2, -1)


def test_s3_fibration():
    assert s3_fibration(1, 1) == fibration(0, (1, 0), (1, 1))
    # 3*(-1) + 2*2 = 1 with 0 <= beta1 < 3
    assert s3_fibration(3, 2) == fibration(0, (3, 2), (2, -1))
    for a1, a2 in coprime_pairs(9):
        if a1 < a2:
            continue
        f = s3_fibration(a1, a2)
        b1 = f.pairs[0].beta
        assert 0 <= b1 < a1
        assert a1 * f.pairs[1].beta + b1 * a2 == 1
        assert recognize(f) == LensSpace(1, 0)
    with pytest.raises(InvalidRangeError):
        s3_fibration(2, 3)
    with pytest.raises(NotCoprimeError):
        s3_fibration(4, 2)


def test_model_fibration_examples():
    got = model_fibration(LensSpace(7, 2), ModelWeights(2, 5))
    assert canon(got) == canon("M(0;(35,-2),(14,1))")
    got = model_fibration(LensSpace(1, 0), ModelWeights(2, 3))
    assert canon(got) == canon(s3_fibration(3, 2))
    for p in range(1, 10):
        got = model_fibration(LensSpace(p, 1 % p), ModelWeights(1, 1))
        assert canon(got) == canon(fibration(0, (1, p)))


def test_model_fibration_multiplicities():
    for p, q in lens_parameters(12):
        lens = LensSpace(p, q)
        for k1, k2 in [(1, 1), (2, 3), (-3, 1), (5, -2)]:
            w = ModelWeights(k1, k2)
            u = isotropy_order(lens, w)
            f = model_fibration(lens, w)
            assert abs(f.pairs[0].alpha) == p * abs(k2) // u
            assert abs(f.pairs[1].alpha) == p * abs(k1) // u


def test_model_weights_validation():
    with pytest.raises(ZeroWeightError):
        ModelWeights(0, 1)
    with pytest.raises(NotCoprimeError):
        ModelWeights(2, 4)
    for k1, k2, value in ((2**62 + 1, 1, 2**62 + 1), (1, -2**70, -2**70)):
        with pytest.raises(OverflowLimitError, match=rf"^\|{value}\| exceeds"):
            ModelWeights(k1, k2)


def test_isotropy_order_examples():
    assert isotropy_order(LensSpace(6, 5), ModelWeights(3, 1)) == 2
    assert isotropy_order_oracle(LensSpace(6, 5), ModelWeights(3, 1)) == 2
    for w in [ModelWeights(1, 1), ModelWeights(3, -7)]:
        assert isotropy_order(LensSpace(1, 0), w) == 1
        assert isotropy_order_oracle(LensSpace(1, 0), w) == 1
    for p, q in lens_parameters(15):
        lens = LensSpace(p, q)
        _, s = gluing_choice(p, q)
        assert isotropy_order(lens, ModelWeights(1, 1)) == gcd(p, s - 1)


def test_isotropy_agreement_sample():
    for p, q in lens_parameters(20):
        lens = LensSpace(p, q)
        for k1, k2 in [(1, 1), (3, 1), (2, -5), (-4, 7), (6, 1)]:
            if gcd(k1, k2) != 1:
                continue
            w = ModelWeights(k1, k2)
            u = isotropy_order(lens, w)
            assert u == isotropy_order_oracle(lens, w)
            # congruence bridge between the two gcd expressions
            _, s = gluing_choice(p, q)
            assert u == gcd(p, q * k1 - k2)


def test_construct_matches_isotropy_u():
    for p, q in lens_parameters(12):
        lens = LensSpace(p, q)
        for k1, k2 in [(1, 2), (3, -1), (5, 4)]:
            w = ModelWeights(k1, k2)
            _, tr = construct_fibration(lens, k2, k1)
            assert tr.u == isotropy_order(lens, w)


def test_round_trip_oriented():
    for p, q in lens_parameters(14):
        lens = LensSpace(p, q)
        for a10, a20 in [(1, 1), (1, -1), (3, 2), (-2, 5), (7, -3)]:
            fib, _ = construct_fibration(lens, a10, a20)
            assert lens_equal_oriented(recognize(fib), lens)


def test_no_recipe_value_escapes_the_guard(monkeypatch):
    """Every value of the recipe, and the lens it starts from, is checked
    against the guard: with the guard at the largest of them the
    construction is unchanged, and one below it the construction raises."""
    weights = [(a10, a20) for a10 in range(-6, 7) for a20 in range(-6, 7)
               if a10 and a20 and gcd(a10, a20) == 1]
    cases = [(p, q, a10, a20) for (p, q), (a10, a20) in product(lens_parameters(25), weights)]
    # Only with s shifted is beta1', which no pair holds, the largest value.
    runs = [((0, 0), cases), ((0, 2), cases), ((1, 1), [(7, 2, 5, 2)])]

    def build(guard, p, q, a10, a20):
        lower_guard(monkeypatch, guard)
        return construct_fibration(LensSpace(p, q), a10, a20)

    checked = 0
    for shifts, calls in runs:
        other_choices(monkeypatch, *shifts)
        for call in calls:
            built = build(2**62, *call)
            tr = built.trace
            m = max(abs(v) for v in (*call[:2], tr.alpha1, tr.alpha2, tr.alpha1_prime,
                                     tr.beta1, tr.beta1_prime, tr.beta2))
            if m == 1:
                continue
            assert build(m, *call) == built
            with pytest.raises(OverflowLimitError):
                build(m - 1, *call)
            checked += 1
    assert checked == 36_797
    # The last call, the one with s shifted.
    assert m == tr.beta1_prime == 103
