import random
from math import gcd

import pytest
from helpers import apply_random_moves, lens_by_plumbing, lens_parameters, random_pair

from lensfib import (
    DomainError,
    LensSpace,
    OverflowLimitError,
    construct_fibration,
    fibration,
    lens_equal_oriented,
    lens_equal_unoriented,
    parse,
    recognize,
)
from lensfib.errors import NotCoprimeError, NotLensSpaceError, NotLensSpaceReason
from lensfib.recognize import lens_normalize, lens_reverse
from lensfib.seifert import reverse_orientation


def test_lens_normalize_examples():
    assert lens_normalize(-4, 3) == LensSpace(4, 1)
    assert lens_normalize(5, 7) == LensSpace(5, 2)
    assert lens_normalize(0, -1) == LensSpace(0, 1)
    assert lens_normalize(1, 12) == LensSpace(1, 0)
    with pytest.raises(NotCoprimeError):
        lens_normalize(4, 6)
    with pytest.raises(NotCoprimeError):
        lens_normalize(0, 3)


def test_lens_space_requires_normal_form():
    with pytest.raises(ValueError):
        LensSpace(5, 7)
    with pytest.raises(ValueError):
        LensSpace(-3, 1)
    with pytest.raises(ValueError):
        LensSpace(0, 3)


@pytest.mark.parametrize("p, q", [(7, 9), (-1, 0), (0, 2)])
def test_lens_space_bad_parameters_are_domain_errors(p, q):
    with pytest.raises(DomainError):
        LensSpace(p, q)


@pytest.mark.parametrize("p, q", [(2**62 + 1, 1), (-2**62 - 1, 1), (5, 2**70)])
def test_lens_space_beyond_guard_names_the_value(p, q):
    value = p if abs(p) > 2**62 else q
    with pytest.raises(OverflowLimitError, match=rf"^\|{value}\| exceeds"):
        LensSpace(p, q)


def test_recognize_beyond_guard_names_p():
    # Both pairs are within the guard; p = a1*b2 + b1*a2 = 2**63 - 4 is not.
    f = fibration(0, (2**62 - 1, 1), (2**62 - 3, 1))
    with pytest.raises(OverflowLimitError, match=rf"^\|{2**63 - 4}\| exceeds"):
        recognize(f)


def test_recognize_examples():
    assert recognize(parse("M(0;(3,-1),(3,2))")) == LensSpace(3, 2)
    got = recognize(parse("M(0;(5,4),(5,-3))"))
    # q is only pinned up to inversion mod p: 2*3 = 6 = 1 (mod 5).
    assert got.p == 5
    assert lens_equal_oriented(got, LensSpace(5, 3))
    assert recognize(parse("M(-1;(1,1))")) == LensSpace(4, 1)
    assert recognize(parse("M(-1;(1,-1))")) == LensSpace(4, 3)
    assert recognize(parse("M(0;)")) == LensSpace(0, 1)
    assert recognize(parse("M(0;(2,1),(2,-1))")) == LensSpace(0, 1)
    assert recognize(parse("M(0;(1,7))")) == LensSpace(7, 1)


def test_plumbing_oracle_examples():
    """Hand-worked chains: M(0;(1,7)) is the chain [7]; M(0;(3,-1),(3,2))
    has b = -1 and two arms [3], so its chain is [3, 1, 3], with continuants
    3 and 2; M(0;(5,4),(5,-3)) gives [3, 2, 1, 5], with 5 and 3."""
    assert lens_by_plumbing(parse("M(0;(1,7))")) == LensSpace(7, 1)
    assert lens_by_plumbing(parse("M(0;(3,-1),(3,2))")) == LensSpace(3, 2)
    assert lens_by_plumbing(parse("M(0;(5,4),(5,-3))")) == LensSpace(5, 3)
    assert lens_by_plumbing(parse("M(0;)")) == LensSpace(0, 1)
    assert lens_by_plumbing(parse("M(0;(2,1),(2,-1))")) == LensSpace(0, 1)


def test_recognize_matches_plumbing_oracle():
    """On 20,000 seeded genus-0 lists with at most two singular fibres,
    ``recognize`` gives the oriented type that the plumbing chain gives.
    On the lists whose lens is not its own reverse this pins orientation."""
    rng = random.Random(2)
    chiral = 0
    for _ in range(20_000):
        pairs = [random_pair(rng, 40) for _ in range(rng.randint(0, 2))]
        f = fibration(0, *pairs, (1, rng.randint(-6, 6)))
        lens = lens_by_plumbing(f)
        assert lens_equal_oriented(recognize(f), lens), f
        chiral += not lens_equal_oriented(lens, lens_reverse(lens))
    assert chiral == 17_080


def test_recognize_returns_the_smaller_of_q_and_its_inverse():
    """Of the two residues that name the same oriented lens, q and q^-1
    (mod p), ``recognize`` returns the smaller, on 2,000 seeded fibrations
    constructed on lenses with p up to 10**6."""
    rng = random.Random(29)
    done = 0
    while done < 2000:
        p = int(10 ** rng.uniform(0, 6))
        q, a10, a20 = rng.randrange(p), rng.randint(1, 50), rng.randint(-50, 50)
        if gcd(p, q) != 1 or gcd(a10, a20) != 1 or not a20:
            continue
        got = recognize(construct_fibration(LensSpace(p, q), a10, a20).fibration)
        assert got == LensSpace(p, min(q, pow(q, -1, p))), (p, q, a10, a20)
        done += 1


def test_recognize_rejections():
    with pytest.raises(NotLensSpaceError) as exc:
        recognize(parse("M(0;(2,1),(2,1),(2,1))"))
    assert exc.value.reason is NotLensSpaceReason.TOO_MANY_SINGULAR_FIBRES
    with pytest.raises(NotLensSpaceError) as exc:
        recognize(parse("M(-1;(2,1))"))
    assert exc.value.reason is NotLensSpaceReason.NON_CYCLIC
    for b in (0, 2, -2, 5):
        with pytest.raises(NotLensSpaceError) as exc:
            recognize(fibration(-1, (1, b)))
        assert exc.value.reason is NotLensSpaceReason.NON_CYCLIC
    for genus in (1, 2, -2):
        with pytest.raises(NotLensSpaceError) as exc:
            recognize(fibration(genus, (3, 1)))
        assert exc.value.reason is NotLensSpaceReason.BAD_BASE


def test_recognize_move_invariance_and_reversal():
    rng = random.Random(23)
    pool = [
        parse("M(0;(3,-1),(3,2))"),
        parse("M(0;(35,-2),(14,1))"),
        parse("M(0;(5,4),(5,-3))"),
        parse("M(0;(2,1),(2,-1))"),
        parse("M(-1;(1,1))"),
        parse("M(0;(1,-3))"),
        parse("M(0;)"),
    ]
    for f in pool:
        lens = recognize(f)
        for _ in range(40):
            moved = apply_random_moves(rng, f, rng.randint(1, 8))
            assert recognize(moved) == lens
        rev = recognize(reverse_orientation(f))
        assert rev.p == lens.p
        assert lens_equal_oriented(rev, lens_reverse(lens))


def test_recognize_construct_round_trip_sample():
    for p, q in lens_parameters(12):
        lens = LensSpace(p, q)
        for a10, a20 in [(1, 1), (1, -1), (2, 3), (-3, 2), (5, -4)]:
            fib, _ = construct_fibration(lens, a10, a20)
            assert lens_equal_oriented(recognize(fib), lens)


def test_lens_equal_oriented():
    assert lens_equal_oriented(LensSpace(5, 2), LensSpace(5, 3))
    assert not lens_equal_oriented(LensSpace(7, 2), LensSpace(7, 3))
    assert lens_equal_oriented(LensSpace(7, 2), LensSpace(7, 4))
    assert not lens_equal_oriented(LensSpace(5, 2), LensSpace(7, 2))
    for p, q in lens_parameters(10):
        assert lens_equal_oriented(LensSpace(p, q), LensSpace(p, q))
    assert lens_equal_oriented(LensSpace(0, 1), LensSpace(0, 1))


def test_lens_equal_unoriented():
    # 2*2 = 4 = -1 (mod 5): amphichiral.
    assert lens_equal_unoriented(LensSpace(5, 2), lens_reverse(LensSpace(5, 2)))
    # 2 = -1 (mod 3), but 2 != 1 and 2*1 != 1 (mod 3).
    assert lens_equal_unoriented(LensSpace(3, 2), LensSpace(3, 1))
    assert not lens_equal_oriented(LensSpace(3, 2), LensSpace(3, 1))
    # 2 = -5 (mod 7).
    assert lens_equal_unoriented(LensSpace(7, 2), LensSpace(7, 5))
    # 2*3 = -1 (mod 7), so these are equivalent after reversing as well.
    assert lens_equal_unoriented(LensSpace(7, 2), LensSpace(7, 3))
    assert not lens_equal_unoriented(LensSpace(7, 2), LensSpace(7, 1))


def test_lens_reverse():
    assert lens_reverse(LensSpace(4, 1)) == LensSpace(4, 3)
    assert lens_reverse(LensSpace(0, 1)) == LensSpace(0, 1)
    assert lens_reverse(LensSpace(1, 0)) == LensSpace(1, 0)
    for p, q in lens_parameters(10):
        lens = LensSpace(p, q)
        assert lens_reverse(lens_reverse(lens)) == lens
