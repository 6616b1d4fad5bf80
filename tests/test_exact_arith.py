import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd

import pytest
from helpers import det_bruteforce

from lensfib import OverflowLimitError
from lensfib.errors import InvalidRangeError, NotCoprimeError
from lensfib.exact_arith import (
    check_magnitude,
    ext_gcd,
    int_limit,
    mod_inverse,
    refresh_int_limit,
    smith_normal_form,
    unimodular_complement,
)


@pytest.fixture
def restore_limit(monkeypatch):
    old = int_limit()
    yield
    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", str(old))
    refresh_int_limit()


def test_gcd_nonneg_examples():
    """The package calls math.gcd and relies on its sign conventions."""
    assert gcd(7, 18) == 1
    assert gcd(0, 0) == 0
    # u-denominator of the p=6, q=5, k1=3, k2=1 instance: q*k1 - k2 = 14.
    assert gcd(6, 14) == 2
    assert gcd(-6, 14) == 2
    assert gcd(6, -14) == 2
    assert gcd(-4, 0) == 4


def test_ext_gcd_examples():
    g, x, y = ext_gcd(35, -18)
    assert g == 1 and 35 * x + (-18) * y == 1
    assert ext_gcd(1, 0) == (1, 1, 0)
    g, x, y = ext_gcd(2, 7)
    assert g == 1 and 2 * x + 7 * y == 1


def test_ext_gcd_identity_random():
    rng = random.Random(101)
    for _ in range(3000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g


def test_mod_inverse_examples():
    assert mod_inverse(2, 7) == 4
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(123456, 1) == 0
    assert mod_inverse(-1, 1) == 0


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


def test_snf_prefix_products_are_gcds_of_minors_random():
    """d1*...*dk is the gcd of all k x k minors, for every k."""
    rng = random.Random(606)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = smith_normal_form(m)
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


def test_int_guard(restore_limit, monkeypatch):
    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", "100")
    refresh_int_limit()
    check_magnitude(100, -100)
    with pytest.raises(OverflowLimitError):
        check_magnitude(101)
    with pytest.raises(OverflowLimitError):
        ext_gcd(10**6, 3)
    with pytest.raises(OverflowLimitError):
        smith_normal_form([[101]])

    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", "55")
    assert refresh_int_limit() == 55
    assert int_limit() == 55
    monkeypatch.setenv("SEIFERT_MAX_INT_GUARD", "zero")
    with pytest.raises(InvalidRangeError):
        refresh_int_limit()
    monkeypatch.delenv("SEIFERT_MAX_INT_GUARD")
    assert refresh_int_limit() == 2**62


@pytest.mark.parametrize("raw, limit", [("55", 55), ("abc", 2**62), ("0", 2**62)])
def test_import_reads_guard_and_never_raises(raw, limit):
    """A valid SEIFERT_MAX_INT_GUARD applies at import; a bad one leaves the
    default in place, to be reported by refresh_int_limit."""
    proc = subprocess.run(
        [sys.executable, "-c", "import lensfib.exact_arith as e; print(e.int_limit())"],
        capture_output=True,
        text=True,
        env=dict(os.environ, SEIFERT_MAX_INT_GUARD=raw),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == limit
