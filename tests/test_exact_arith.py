import random
from itertools import combinations
from math import gcd

import pytest
from helpers import deadline, det_bruteforce, lower_guard

import lensfib.exact_arith
from lensfib import LensSpace, OverflowLimitError, classify_pair, construct_fibration
from lensfib.construct import ModelWeights, construct_s2xs1, s3_fibration
from lensfib.errors import InvalidRangeError, NotCoprimeError
from lensfib.exact_arith import (
    check_magnitude,
    mod_inverse,
    read_int,
    smith_normal_form,
    unimodular_complement,
)
from lensfib.recognize import lens_normalize


def test_gcd_nonneg_examples():
    """The package calls math.gcd and relies on its sign conventions."""
    assert gcd(7, 18) == 1
    assert gcd(0, 0) == 0
    # u-denominator of the p=6, q=5, k1=3, k2=1 instance: q*k1 - k2 = 14.
    assert gcd(6, 14) == 2
    assert gcd(-6, 14) == 2
    assert gcd(6, -14) == 2
    assert gcd(-4, 0) == 4


def test_mod_inverse_examples():
    assert mod_inverse(2, 7) == 4
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(123456, 1) == 0
    assert mod_inverse(-1, 1) == 0
    assert mod_inverse(0, 1) == 0


def test_mod_inverse_random():
    rng = random.Random(202)
    done = 0
    while done < 2000:
        m = rng.randint(1, 10**6)
        a = rng.randint(-10**6, 10**6)
        if gcd(a, m) != 1:
            continue
        x = mod_inverse(a, m)
        assert 0 <= x < m
        assert m == 1 or (a * x) % m == 1
        done += 1


def test_mod_inverse_not_coprime():
    with pytest.raises(NotCoprimeError):
        mod_inverse(4, 6)
    with pytest.raises(InvalidRangeError):
        mod_inverse(1, 0)


def test_unimodular_complement_examples():
    # 35*17 - 18*33 = 595 - 594 = 1, with 0 <= beta < 35.
    assert unimodular_complement(35, 18) == (33, 17)
    assert unimodular_complement(1, 0) == (0, 1)
    for k in (-5, 0, 3, 17):
        assert unimodular_complement(1, k) == (0, 1)


def test_unimodular_complement_tie_break_and_identity():
    rng = random.Random(303)
    done = 0
    while done < 2000:
        alpha = rng.choice([-1, 1]) * rng.randint(1, 500)
        alpha_prime = rng.randint(-500, 500)
        if gcd(alpha, alpha_prime) != 1:
            continue
        beta, beta_prime = unimodular_complement(alpha, alpha_prime)
        assert alpha * beta_prime - alpha_prime * beta == 1
        if abs(alpha) == 1:
            assert beta == 0
        else:
            assert 0 <= beta < abs(alpha)
        # Deterministic: feeding the same input reproduces the same output.
        assert unimodular_complement(alpha, alpha_prime) == (beta, beta_prime)
        done += 1


def test_unimodular_complement_not_coprime():
    with pytest.raises(NotCoprimeError):
        unimodular_complement(4, 6)
    with pytest.raises(NotCoprimeError):
        unimodular_complement(0, 0)
    for alpha_prime in (1, -1):
        with pytest.raises(InvalidRangeError, match="alpha must be non-zero"):
            unimodular_complement(0, alpha_prime)


@pytest.mark.parametrize("function, args", [
    (LensSpace, (6, 4)),
    (lens_normalize, (-6, 4)),
    (ModelWeights, (4, -6)),
    (lambda a10, a20: construct_fibration(LensSpace(5, 2), a10, a20), (-4, 6)),
    (construct_s2xs1, (2, 0)),
    (s3_fibration, (9, 6)),
    (lambda m1, m2: classify_pair(LensSpace(7, 2), m1, m2), (2, 4)),
], ids=["LensSpace", "lens_normalize", "ModelWeights", "construct_fibration",
        "construct_s2xs1", "s3_fibration", "classify_pair"])
def test_every_entry_point_refuses_a_common_factor_naming_the_pair(function, args):
    """Each public value or function that needs a coprime pair refuses one
    with a common factor, naming it in argument order, as the CLI prints it."""
    with pytest.raises(NotCoprimeError) as refused:
        function(*args)
    assert str(refused.value) == "gcd({}, {}) != 1".format(*args)


@pytest.mark.parametrize("function, args", [
    (mod_inverse, (1, 2**62 + 1)),
    (mod_inverse, (-2**62 - 1, 1)),
    (mod_inverse, (2**70, 3)),
    (unimodular_complement, (2**62 + 1, 1)),
    (unimodular_complement, (1, -2**62 - 1)),
])
def test_arguments_beyond_guard_raise_naming_them(function, args):
    value = next(v for v in args if abs(v) > 2**62)
    with pytest.raises(OverflowLimitError, match=rf"^\|{value}\| exceeds"):
        function(*args)


def test_snf_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    m = [[35, 0, -2], [0, 14, 1], [1, 1, 0]]
    d = det_bruteforce(m)
    assert abs(d) == 7
    factors = smith_normal_form(m)
    assert factors == [1, 1, 7]
    prod = 1
    for f in factors:
        prod *= f
    assert prod == abs(d)


def test_snf_rectangular_and_degenerate():
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 4, 6]]) == [2]
    assert smith_normal_form([[2], [4], [6]]) == [2]
    assert smith_normal_form([[1, 2], [2, 4], [3, 6]]) == [1, 0]


def test_snf_divisibility_and_determinant_random():
    rng = random.Random(404)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(m)
        assert len(factors) == n
        for a, b in zip(factors, factors[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        prod = 1
        for f in factors:
            prod *= f
        assert prod == abs(det_bruteforce(m))


def _assert_prefixes_are_gcds_of_minors(m, factors):
    rows, cols = len(m), len(m[0])
    assert len(factors) == min(rows, cols)
    prefix = 1
    for k, d in enumerate(factors, start=1):
        prefix *= d
        minors_gcd = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                minor = [[m[r][c] for c in cs] for r in rs]
                minors_gcd = gcd(minors_gcd, det_bruteforce(minor))
        assert prefix == minors_gcd, (m, factors, k)


def test_snf_prefix_products_are_gcds_of_minors_random():
    """d1*...*dk is the gcd of all k x k minors, for every k."""
    rng = random.Random(606)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _assert_prefixes_are_gcds_of_minors(m, smith_normal_form(m))


def test_snf_blocks_of_at_most_two_rows_or_columns_are_gcds_of_minors(monkeypatch):
    """Shapes 1xk, kx1, 2x2, 2xk and kx2 (k <= 5), which end in, or are, the
    block of at most 2x2 finished by its gcd and determinant: seeded entries
    up to 10**6, with rank-one, zero and scaled matrices among them.  The
    guard is raised out of reach, as the subject is the factors: on 2xk and
    kx2 with k >= 3, the Euclidean steps before the block grow some entries
    past 2**62 (42 of these matrices raise under the default guard)."""
    monkeypatch.setattr(lensfib.exact_arith, "_int_limit", 10**400)
    rng = random.Random(2323)
    shapes = [shape for k in range(1, 6) for shape in ((1, k), (k, 1), (2, k), (k, 2))]
    for i in range(2000):
        rows, cols = rng.choice(shapes)
        if i % 4 == 0:
            m = [[rng.randint(-10**6, 10**6) for _ in range(cols)] for _ in range(rows)]
        elif i % 4 == 1:
            v = [rng.randint(-1000, 1000) for _ in range(cols)]
            m = [[a * b for b in v] for a in (rng.randint(-1000, 1000) for _ in range(rows))]
        elif i % 4 == 2:
            m = [[0] * cols for _ in range(rows)]
            m[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((0, rng.randint(-10**6, 10**6)))
        else:
            c = rng.randint(2, 1000)
            m = [[c * rng.randint(-1000, 1000) for _ in range(cols)] for _ in range(rows)]
        _assert_prefixes_are_gcds_of_minors(m, smith_normal_form(m))


def test_snf_factors_of_the_closed_form_block_meet_the_guard(monkeypatch):
    """Under a guard of 50, on seeded 2x2 and 3x3 matrices: each matrix with
    an invariant factor beyond the guard raises, a 2x2 one only then, and
    every answer is the one the gcds of minors give.  A 3x3 one may also
    raise on an entry that its first pivot's steps reach."""
    rng = random.Random(2424)
    cases = []
    for _ in range(1000):
        n, top = rng.choice((2, 3)), rng.choice((3, 9, 50))
        m = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        factors = smith_normal_form(m)
        _assert_prefixes_are_gcds_of_minors(m, factors)
        cases.append((m, factors))
    lower_guard(monkeypatch, 50)
    raised = 0
    for m, factors in cases:
        beyond = max(factors) > 50
        try:
            got = smith_normal_form(m)
        except OverflowLimitError:
            assert beyond or len(m) == 3, m
            raised += 1
        else:
            assert got == factors and not beyond, m
    assert 100 < raised < 900


def test_snf_factors_of_the_divisibility_chain_meet_the_guard(monkeypatch):
    """Elimination leaves the diagonal (5, 1, 42) of diag(5, 6, 7), within a
    guard of 50; the chain's lcm 210 is beyond it and raises, while diag(2, 3, 7)
    reaches its factor 42 through the chain."""
    lower_guard(monkeypatch, 50)
    with pytest.raises(OverflowLimitError, match=r"^\|210\| exceeds the integer guard 50$"):
        smith_normal_form([[5, 0, 0], [0, 6, 0], [0, 0, 7]])
    assert smith_normal_form([[2, 0, 0], [0, 3, 0], [0, 0, 7]]) == [1, 1, 42]


def _random_unimodular_ops(rng, m):
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0])
    for _ in range(rng.randint(5, 25)):
        op = rng.randrange(3)
        if op == 0 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            k = rng.randint(-3, 3)
            for c in range(cols):
                m[i][c] += k * m[j][c]
        elif op == 1 and cols > 1:
            i, j = rng.sample(range(cols), 2)
            k = rng.randint(-3, 3)
            for r in range(rows):
                m[r][i] += k * m[r][j]
        else:
            r = rng.randrange(rows)
            for c in range(cols):
                m[r][c] = -m[r][c]
    return m


def test_snf_invariant_under_unimodular_ops():
    rng = random.Random(505)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        expected = smith_normal_form(m)
        assert smith_normal_form(_random_unimodular_ops(rng, m)) == expected


def test_snf_reruns_modulo_the_determinant_when_the_guard_trips(monkeypatch):
    """Under a low guard the plain pass overflows on many small-determinant
    matrices; the rerun modulo |det| must still give the Smith form."""
    reruns = []
    determinant = lensfib.exact_arith._abs_determinant
    monkeypatch.setattr(lensfib.exact_arith, "_abs_determinant",
                        lambda m: reruns.append(m) or determinant(m))
    lower_guard(monkeypatch, 50)
    rng = random.Random(909)
    answered_by_rerun = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        m = [[rng.randint(1, 3) if i == j else 0 for j in range(n)] for i in range(n)]
        m = _random_unimodular_ops(rng, m)
        if any(abs(v) > 50 for row in m for v in row):
            continue
        before = len(reruns)
        try:
            factors = smith_normal_form(m)
        except OverflowLimitError:
            assert abs(det_bruteforce(m)) > 50
            continue
        _assert_prefixes_are_gcds_of_minors(m, factors)
        answered_by_rerun += len(reruns) > before
    assert answered_by_rerun >= 50


@pytest.mark.parametrize("matrix, why", [
    ([[4, -7, 7], [0, 6, 3], [0, -8, -4]], "singular"),
    ([[8, -4], [-2, 9]], "determinant 64 beyond the guard"),
])
def test_snf_beyond_the_guard_without_a_usable_determinant_raises(monkeypatch, matrix, why):
    expected = smith_normal_form(matrix)
    lower_guard(monkeypatch, 60)
    with pytest.raises(OverflowLimitError, match="exceeds the integer guard 60"):
        smith_normal_form(matrix)
    monkeypatch.undo()
    assert smith_normal_form(matrix) == expected


def test_int_guard(monkeypatch):
    lower_guard(monkeypatch, 100)
    check_magnitude(100, -100)
    with pytest.raises(OverflowLimitError):
        check_magnitude(101)
    with pytest.raises(OverflowLimitError):
        mod_inverse(10**6, 3)
    with pytest.raises(OverflowLimitError):
        smith_normal_form([[101]])
    # Entries meet the guard after each pivot, not on entry: the first pivot
    # clears 101 before any check sees it.
    assert smith_normal_form([[2, 101], [0, 1]]) == [1, 2]

    lower_guard(monkeypatch, 55)
    check_magnitude(55)
    with pytest.raises(OverflowLimitError):
        check_magnitude(56)
    monkeypatch.undo()
    check_magnitude(2**62)
    with pytest.raises(OverflowLimitError):
        check_magnitude(2**62 + 1)


@pytest.mark.parametrize("text, value", [
    ("1_000", 1000), (" -0_0_7 ", -7), ("0" * 5000 + "7", 7), ("+" + "0_" * 3000 + "1_2", 12),
    ("\t" + "0" * 50 + "٣\n", 3), ("_".join("9" * 38), 10**38 - 1),
], ids=["short", "signed-zeros", "zeros", "underscored-zeros", "unicode", "38-digits"])
def test_read_int_reads_what_int_reads(text, value):
    """Leading zeros and the underscores between digits never count."""
    assert read_int(text) == value


@pytest.mark.parametrize("text", [
    "1__1" * 20, "_" + "1" * 50, "1" * 50 + "_", "1_" * 30 + "+1", "0" * 20000 + "x",
    " " * 20000 + "x", "1_" * 10000 + "x", "7" * 20000 + " 7",
], ids=["double", "leading", "trailing", "inner-sign", "zeros-then-x", "spaces-then-x",
        "underscored-then-x", "two-numbers"])
def test_read_int_refuses_what_int_refuses_in_linear_time(text):
    """Long text that ``int`` refuses is refused with its ValueError, at once:
    the regex backtracks at most once per character."""
    with deadline(0.5), pytest.raises(ValueError):
        read_int(text)


@pytest.mark.parametrize("text, digits", [
    ("_".join("1" * 39), 39), ("-" + "0_" * 100 + "_".join("7" * 3000), 3000),
], ids=["39-digits", "3000-digits"])
def test_read_int_counts_digits_without_underscores(text, digits):
    with pytest.raises(OverflowLimitError) as exc:
        read_int(text)
    assert str(exc.value) == f"a {digits}-digit integer exceeds the integer guard {2**62}"
