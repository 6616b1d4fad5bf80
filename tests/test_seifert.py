import random
from fractions import Fraction

import pytest
from helpers import apply_random_moves, random_fibration

from lensfib import (
    CanonicalForm,
    NotCoprimePairError,
    OverflowLimitError,
    SeifertFibration,
    SeifertPair,
    ZeroAlphaError,
    fibration,
    normalize,
    parse,
    unparse,
)
from lensfib.construct import construct_s2xs1, s3_fibration
from lensfib.errors import FibrationParseError, InapplicableMoveError
from lensfib.seifert import (
    IsoType,
    delete_trivial,
    euler_number,
    flip_signs,
    insert_trivial,
    isomorphism_type,
    permute,
    reverse_canonical,
    reverse_orientation,
    shift_betas,
    validate,
)


def test_validate():
    validate(parse("M(0;(35,-2),(14,1))"))
    with pytest.raises(ZeroAlphaError):
        validate(fibration(0, (0, 1)))
    with pytest.raises(NotCoprimePairError):
        validate(fibration(0, (4, 2)))
    with pytest.raises(ZeroAlphaError):
        # first violation wins
        validate(fibration(0, (3, 1), (0, 1), (4, 2)))


@pytest.mark.parametrize("build, error", [
    (lambda: SeifertFibration(0, (SeifertPair(4, 2),)), NotCoprimePairError),
    (lambda: fibration(0, (0, 1)), ZeroAlphaError),
    (lambda: parse("M(0;(4,2))"), NotCoprimePairError),
    (lambda: shift_betas(fibration(0, (3, 1), (5, 2)), (2**61, -2**61)), OverflowLimitError),
    (lambda: CanonicalForm(0, 2**70, ()).expand(), OverflowLimitError),
    (lambda: construct_s2xs1(2**70, 1), OverflowLimitError),
    (lambda: s3_fibration(2**70 + 1, 2**70), OverflowLimitError),
], ids=["constructor", "fibration", "parse", "shift_betas", "expand",
        "construct_s2xs1", "s3_fibration"])
def test_every_constructor_checks_its_list(build, error):
    with pytest.raises(error):
        build()


def test_move_examples():
    f = fibration(0, (-1, 3))
    assert flip_signs(f, 0) == fibration(0, (1, -3))

    f = fibration(0, (3, -1), (3, 2))
    assert insert_trivial(f, 2) == fibration(0, (3, -1), (3, 2), (1, 0))
    shifted = shift_betas(f, (1, -1))
    assert shifted == fibration(0, (3, 2), (3, -1))

    assert permute(f, (1, 0)) == fibration(0, (3, 2), (3, -1))
    g = fibration(0, (1, 0), (3, 2))
    assert delete_trivial(g, 0) == fibration(0, (3, 2))
    assert delete_trivial(fibration(0, (-1, 0)), 0) == fibration(0)


def test_inapplicable_moves():
    f = fibration(0, (3, -1), (3, 2))
    with pytest.raises(InapplicableMoveError):
        permute(f, (0, 0))
    with pytest.raises(InapplicableMoveError):
        delete_trivial(f, 0)
    with pytest.raises(InapplicableMoveError):
        delete_trivial(f, 7)
    with pytest.raises(InapplicableMoveError):
        shift_betas(f, (1, -1, 0))
    with pytest.raises(InapplicableMoveError):
        shift_betas(f, (1, 2))
    # the total shift is checked before the number of shifts
    with pytest.raises(InapplicableMoveError, match="sum to zero"):
        shift_betas(f, (1, 2, 0))
    with pytest.raises(InapplicableMoveError):
        flip_signs(f, 2)
    with pytest.raises(InapplicableMoveError):
        insert_trivial(f, 3)


def test_normalize_examples():
    # -2 = 35*(-1) + 33
    assert normalize(parse("M(0;(35,-2),(14,1))")) == CanonicalForm(
        0, -1, (SeifertPair(14, 1), SeifertPair(35, 33))
    )
    assert normalize(parse("M(0;(1,0),(1,1))")) == CanonicalForm(0, 1, ())
    assert normalize(parse("M(0;(-1,3))")) == CanonicalForm(0, -3, ())
    assert normalize(parse("M(0;(1,-3))")) == CanonicalForm(0, -3, ())


def test_normalize_is_move_invariant():
    rng = random.Random(17)
    for _ in range(400):
        f = random_fibration(rng)
        expected = normalize(f)
        moved = apply_random_moves(rng, f, rng.randint(1, 8))
        assert normalize(moved) == expected


def test_normalize_idempotent():
    rng = random.Random(18)
    for _ in range(300):
        cf = normalize(random_fibration(rng))
        assert normalize(cf.expand()) == cf


def test_reverse_orientation():
    f = parse("M(0;(5,-1),(3,1))")
    assert reverse_orientation(f) == parse("M(0;(5,1),(3,-1))")
    assert reverse_orientation(fibration(0)) == fibration(0)
    rng = random.Random(19)
    for _ in range(200):
        f = random_fibration(rng)
        assert normalize(reverse_orientation(reverse_orientation(f))) == normalize(f)


def test_reverse_canonical_matches_reversed_list():
    rng = random.Random(22)
    for _ in range(3000):
        f = random_fibration(rng, genus_choices=range(-3, 4))
        assert reverse_canonical(normalize(f)) == normalize(reverse_orientation(f))


def test_euler_number_examples():
    for p in (0, 1, 5, -7):
        assert euler_number(fibration(0, (1, p))) == -p
    assert euler_number(fibration(0, (3, 2), (3, -2))) == 0
    assert euler_number(parse("M(0;(3,-1),(2,1))")) == Fraction(-1, 6)


def test_euler_number_properties():
    rng = random.Random(20)
    for _ in range(300):
        f = random_fibration(rng)
        e = euler_number(f)
        moved = apply_random_moves(rng, f, rng.randint(1, 6))
        assert euler_number(moved) == e
        assert euler_number(reverse_orientation(f)) == -e
        cf = normalize(f)
        total = Fraction(cf.b)
        for a, b in cf.pairs:
            total += Fraction(b, a)
        assert e == -total


def test_isomorphism_type_examples():
    assert isomorphism_type(
        parse("M(0;(15,2),(10,-1))"), parse("M(0;(15,-2),(10,1))")
    ) is IsoType.REVERSING
    assert isomorphism_type(
        parse("M(0;(3,-1),(3,2))"), parse("M(0;(1,-3))")
    ) is IsoType.NONE
    f = parse("M(0;(35,-2),(14,1))")
    assert isomorphism_type(f, f) is IsoType.ORIENTED
    # self-reversing class: the pair multiset is preserved by reversal
    assert isomorphism_type(
        parse("M(0;(2,1),(2,-1))"), parse("M(0;(2,-1),(2,1))")
    ) is IsoType.BOTH


def test_isomorphism_type_relations():
    rng = random.Random(21)
    for _ in range(150):
        f1 = random_fibration(rng)
        f2 = apply_random_moves(rng, f1, rng.randint(0, 5))
        f3 = apply_random_moves(rng, f2, rng.randint(0, 5))
        assert isomorphism_type(f1, f1) in (IsoType.ORIENTED, IsoType.BOTH)
        t12 = isomorphism_type(f1, f2)
        t21 = isomorphism_type(f2, f1)
        assert t12 == t21
        assert t12 in (IsoType.ORIENTED, IsoType.BOTH)
        assert isomorphism_type(f1, f3) in (IsoType.ORIENTED, IsoType.BOTH)
        other = random_fibration(rng)
        assert isomorphism_type(f1, other) == isomorphism_type(other, f1)


def test_parse_examples():
    f = parse("M(0;(35,-2),(14,1))")
    assert f.genus == 0
    assert f.pairs == (SeifertPair(35, -2), SeifertPair(14, 1))
    f = parse("M(-1;(1,1))")
    assert f.genus == -1 and f.pairs == (SeifertPair(1, 1),)
    assert parse("M(0;)") == fibration(0)
    assert parse("  M ( 0 ; ( 3 , -1 ) , ( 3 , 2 ) ) ") == fibration(0, (3, -1), (3, 2))


def test_parse_errors_report_position():
    for text, pos in [
        ("", 0),
        ("N(0;)", 0),
        ("M(0)", 3),
        ("M(0;(1,2)", 9),
        ("M(0;(1,2)),", 10),
        ("M(0;(x,2))", 5),
    ]:
        with pytest.raises(FibrationParseError) as exc:
            parse(text)
        assert exc.value.position == pos


def test_parse_unparse_round_trip():
    rng = random.Random(22)
    for _ in range(300):
        f = random_fibration(rng)
        text = unparse(f)
        assert parse(text) == f
        assert unparse(parse(text)) == text
    spaced = "M( 0 ; (35, -2), (14, 1) )"
    assert unparse(parse(spaced)) == spaced.replace(" ", "")
