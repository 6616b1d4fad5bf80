import random
from math import gcd

import pytest
from helpers import (
    apply_random_moves,
    deadline,
    det_bruteforce,
    first_homology_by_presentation,
    lens_parameters,
    random_pair,
)

import lensfib.exact_arith
from lensfib import (
    LensSpace,
    OverflowLimitError,
    SeifertFibration,
    SeifertPair,
    construct_fibration,
    fibration,
    first_homology,
    normalize,
    parse,
    recognize,
)
from lensfib.pi1 import base_orbifold, presentation, render_word
from lensfib.seifert import reverse_orientation


def test_presentation_genus_zero_two_fibres():
    pres = presentation(parse("M(0;(35,-2),(14,1))"))
    assert pres.generators == ("q1", "q2", "h")
    assert pres.relators == (
        (("h", 1), ("q1", 1), ("h", -1), ("q1", -1)),
        (("h", 1), ("q2", 1), ("h", -1), ("q2", -1)),
        (("q1", 35), ("h", -2)),
        (("q2", 14), ("h", 1)),
        (("q1", 1), ("q2", 1)),
    )
    assert render_word(pres.relators[2]) == "q1^35 h^-2"


def test_presentation_projective_plane():
    pres = presentation(parse("M(-1;(1,1))"))
    assert pres.generators == ("a1", "q1", "h")
    assert pres.relators == (
        (("a1", -1), ("h", 1), ("a1", 1), ("h", 1)),
        (("h", 1), ("q1", 1), ("h", -1), ("q1", -1)),
        (("q1", 1), ("h", 1)),
        (("q1", 1), ("a1", 2)),
    )
    assert render_word(pres.relators[0]) == "a1^-1 h a1 h"


def test_presentation_degenerate_and_higher_genus():
    pres = presentation(parse("M(0;)"))
    assert pres.generators == ("h",)
    assert pres.relators == ()

    pres = presentation(fibration(2, (3, 1)))
    assert pres.generators == ("a1", "b1", "a2", "b2", "q1", "h")
    assert pres.relators == (
        (("h", 1), ("a1", 1), ("h", -1), ("a1", -1)),
        (("h", 1), ("b1", 1), ("h", -1), ("b1", -1)),
        (("h", 1), ("a2", 1), ("h", -1), ("a2", -1)),
        (("h", 1), ("b2", 1), ("h", -1), ("b2", -1)),
        (("h", 1), ("q1", 1), ("h", -1), ("q1", -1)),
        (("q1", 3), ("h", 1)),
        (
            ("q1", 1),
            ("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1),
            ("a2", 1), ("b2", 1), ("a2", -1), ("b2", -1),
        ),
    )

    pres = presentation(fibration(-2, (2, 1)))
    assert pres.generators == ("a1", "a2", "q1", "h")
    assert pres.relators[-1] == (("q1", 1), ("a1", 2), ("a2", 2))


def test_presentation_relator_order_without_pairs_and_non_orientable():
    pres = presentation(parse("M(1;)"))
    assert pres.generators == ("a1", "b1", "h")
    assert pres.relators == (
        (("h", 1), ("a1", 1), ("h", -1), ("a1", -1)),
        (("h", 1), ("b1", 1), ("h", -1), ("b1", -1)),
        (("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1)),
    )

    pres = presentation(parse("M(-2;)"))
    assert pres.generators == ("a1", "a2", "h")
    assert pres.relators == (
        (("a1", -1), ("h", 1), ("a1", 1), ("h", 1)),
        (("a2", -1), ("h", 1), ("a2", 1), ("h", 1)),
        (("a1", 2), ("a2", 2)),
    )

    pres = presentation(fibration(-2, (2, 1), (3, -1)))
    assert pres.generators == ("a1", "a2", "q1", "q2", "h")
    assert pres.relators == (
        (("a1", -1), ("h", 1), ("a1", 1), ("h", 1)),
        (("a2", -1), ("h", 1), ("a2", 1), ("h", 1)),
        (("h", 1), ("q1", 1), ("h", -1), ("q1", -1)),
        (("h", 1), ("q2", 1), ("h", -1), ("q2", -1)),
        (("q1", 2), ("h", 1)),
        (("q2", 3), ("h", -1)),
        (("q1", 1), ("q2", 1), ("a1", 2), ("a2", 2)),
    )


def test_first_homology_examples():
    # independent determinant check of the relation matrix
    m = [[35, 0, -2], [0, 14, 1], [1, 1, 0]]
    assert abs(det_bruteforce(m)) == 7
    assert first_homology(parse("M(0;(35,-2),(14,1))")) == (7,)

    m = [[5, 0, -1], [0, 3, 1], [1, 1, 0]]
    assert abs(det_bruteforce(m)) == 2
    assert first_homology(parse("M(0;(5,-1),(3,1))")) == (2,)

    assert first_homology(parse("M(-1;(1,1))")) == (4,)
    assert first_homology(parse("M(-1;(1,-1))")) == (4,)


def test_first_homology_degenerate_cases():
    assert first_homology(parse("M(0;)")) == (0,)
    assert first_homology(parse("M(0;(2,1),(2,-1))")) == (0,)
    assert first_homology(parse("M(0;(1,0),(1,1))")) == ()
    # circle bundle over a genus-2 surface with zero twisting
    assert first_homology(fibration(2)) == (0, 0, 0, 0, 0)
    # flat orientable circle bundle over the projective plane
    assert first_homology(fibration(-1, (1, 0))) == (2, 2)


@pytest.mark.parametrize("text, factors", [
    ("M(-1;)", (2, 2)), ("M(-2;)", (2, 2, 0)), ("M(-1;(2,1))", (8,)), ("M(-2;(3,1))", (12, 0)),
    ("M(0;(5,2))", (2,)), ("M(1;(3,1))", (0, 0)), ("M(-3;(4,1),(6,-5))", (2, 48, 0, 0)),
])
def test_first_homology_around_the_unit_pivot_taken_by_hand(text, factors):
    """Lists without pairs, with one pair, and with crosscaps: the edge rows
    of the block left once the product relator's unit pivot is taken."""
    f = parse(text)
    assert first_homology(f) == factors
    assert first_homology_by_presentation(f) == factors


def test_first_homology_matches_lens_order():
    for p, q in lens_parameters(12):
        lens = LensSpace(p, q)
        for weights in [(1, 1), (1, -1), (3, 2), (-2, 5)]:
            fib, _ = construct_fibration(lens, *weights)
            expected = (p,) if p >= 2 else ()
            assert first_homology(fib) == expected


def test_first_homology_invariance():
    rng = random.Random(41)
    pool = [
        parse("M(0;(35,-2),(14,1))"),
        parse("M(0;(3,-1),(3,2))"),
        parse("M(-1;(1,1))"),
        parse("M(0;(2,1),(2,-1))"),
        parse("M(0;)"),
    ]
    for f in pool:
        expected = first_homology(f)
        assert first_homology(reverse_orientation(f)) == expected
        for _ in range(25):
            moved = apply_random_moves(rng, f, rng.randint(1, 6))
            assert first_homology(moved) == expected


def _random_lists(seed: int, count: int):
    """Invariant lists of genus -4..3 with 0-4 pairs, entries up to 40."""
    rng = random.Random(seed)
    while count:
        pairs = []
        for _ in range(rng.randint(0, 4)):
            alpha = rng.choice((-1, 1)) * rng.randint(1, 40)
            beta = rng.randint(-40, 40)
            if gcd(alpha, beta) == 1:
                pairs.append(SeifertPair(alpha, beta))
        yield SeifertFibration(rng.randint(-4, 3), tuple(pairs))
        count -= 1


def test_first_homology_matches_whole_presentation_on_random_lists():
    """The genus-independent block agrees with the Smith form of the whole
    abelianised presentation wherever that finishes, and never overflows."""
    compared = overflowed = 0
    for f in _random_lists(2024, 20_000):
        got = first_homology(f)
        try:
            expected = first_homology_by_presentation(f)
        except OverflowLimitError:
            overflowed += 1
            continue
        assert got == expected, f
        compared += 1
    # The whole matrix overflows on some lists the block finishes.
    assert overflowed > 0 and compared + overflowed == 20_000


def test_first_homology_of_lists_whose_whole_matrix_outgrows_the_guard(monkeypatch):
    singular = parse("M(-2;(14,31),(-26,-51),(26,27),(5,-22))")
    assert first_homology(singular) == (2, 26, 3640, 0)
    assert first_homology(parse("M(-1;(31,-27),(-31,-34),(-39,-2),(-33,-5))")) == (186, 26598)
    # This block trips the guard in the plain pass, so the answer comes from
    # the rerun modulo its determinant.
    reruns = []
    determinant = lensfib.exact_arith._abs_determinant
    monkeypatch.setattr(lensfib.exact_arith, "_abs_determinant",
                        lambda m: reruns.append([row[:] for row in m]) or determinant(m))
    fib = parse("M(-1;(-20,13),(-38,33),(35,-16),(27,2))")
    assert first_homology(fib) == (10, 287280)
    assert len(reruns) == 1 and abs(det_bruteforce(reruns[0])) == 10 * 287280


def test_modular_rerun_agrees_with_the_plain_pass_under_a_raised_guard(monkeypatch):
    """On seeded lists whose block trips the guard, so that Smith form reruns
    modulo the determinant, ``first_homology`` equals the plain elimination's
    answer with the guard raised out of reach."""
    reruns = []
    determinant = lensfib.exact_arith._abs_determinant
    monkeypatch.setattr(lensfib.exact_arith, "_abs_determinant",
                        lambda m: reruns.append(m) or determinant(m))
    pinned = parse("M(1;(60,-97),(-23,57),(25,9),(41,-88),(71,48),(27,83))")
    rng = random.Random(22)
    lists = [pinned]
    for _ in range(3000):
        alpha_max = rng.choice((100, 1000))
        pairs = tuple(random_pair(rng, alpha_max) for _ in range(rng.randint(4, 6)))
        lists.append(SeifertFibration(rng.randint(-2, 2), pairs))
    rerun = {}
    for f in lists:
        count = len(reruns)
        got = first_homology(f)
        if len(reruns) > count:
            rerun[f] = got
    assert rerun[pinned] == (5778787935, 0, 0)
    assert len(rerun) > 500
    monkeypatch.setattr(lensfib.exact_arith, "_int_limit", 10**400)
    count = len(reruns)
    for f, got in rerun.items():
        assert first_homology(f) == got, f
    assert len(reruns) == count


def test_first_homology_cost_does_not_grow_with_the_genus():
    with deadline(2):
        non_orientable = first_homology(parse("M(-1600;(2,1))"))
        orientable = first_homology(parse("M(1600;(2,1))"))
    assert non_orientable == (8,) + (0,) * 1599
    assert orientable == (0,) * 3200


def test_base_orbifold():
    orb = base_orbifold(parse("M(0;(35,-2),(14,1))"))
    assert orb.surface == "S2"
    assert orb.cone_orders == (14, 35)
    assert str(orb) == "S2(14,35)"

    orb = base_orbifold(parse("M(-1;(1,1))"))
    assert orb.surface == "RP2"
    assert orb.cone_orders == ()
    assert str(orb) == "RP2"

    orb = base_orbifold(parse("M(0;(1,5))"))
    assert orb.surface == "S2" and orb.cone_orders == ()

    orb = base_orbifold(fibration(2, (4, 1), (-6, 1)))
    assert orb.surface == "orientable genus 2"
    assert orb.cone_orders == (4, 6)


def test_base_orbifold_matches_canonical_multiplicities():
    rng = random.Random(42)
    for p, q in lens_parameters(10):
        fib, _ = construct_fibration(LensSpace(p, q), 3, rng.choice([2, -2]))
        cf = normalize(fib)
        assert base_orbifold(fib).cone_orders == tuple(
            sorted(a for a, _ in cf.pairs)
        )
        assert recognize(fib).p == p
