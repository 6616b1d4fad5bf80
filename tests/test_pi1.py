import random

from helpers import apply_random_moves, det_bruteforce, lens_parameters

from lensfib import (
    LensSpace,
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
