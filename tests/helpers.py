"""Shared test utilities: brute-force oracles and random generators."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from itertools import permutations
from math import gcd

from lensfib import (
    InvalidRangeError,
    SeifertFibration,
    SeifertPair,
    construct_fibration,
    fibration,
    lens_equal_oriented,
    normalize,
    recognize,
)
from lensfib.construct import construct_s2xs1
from lensfib.seifert import (
    delete_trivial,
    flip_signs,
    insert_trivial,
    permute,
    shift_betas,
)


def det_bruteforce(matrix) -> int:
    """Determinant by signed permutation expansion; independent of any
    elimination code under test."""
    n = len(matrix)
    assert all(len(row) == n for row in matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += prod
    return total


def coprime_pairs(bound: int):
    """All ordered coprime (m1, m2) with 1 <= m1, m2 <= bound."""
    for m1 in range(1, bound + 1):
        for m2 in range(1, bound + 1):
            if gcd(m1, m2) == 1:
                yield m1, m2


def lens_parameters(p_max: int):
    """All normalized (p, q) with 1 <= p <= p_max."""
    for p in range(1, p_max + 1):
        for q in range(p == 1 and 0 or 1, p or 1):
            if gcd(p, q) == 1:
                yield p, q


def enumerate_by_construction(lens, max_mult: int) -> set:
    """The classes of ``lens`` with multiplicities <= max_mult, built through
    the public constructors alone: every coprime weight pair (a10, a20) with
    1 <= a10, |a20| <= max_mult for p >= 1, every coprime (alpha, beta) with
    0 <= beta < alpha <= max_mult for p = 0, and the projective-plane lists
    that ``recognize`` puts on ``lens``.  No divisor, residue or exchange
    pruning, so it checks the sweep of ``enumerate_fibrations``."""
    found = set()
    if lens.p == 0:
        for alpha in range(1, max_mult + 1):
            for beta in range(alpha):
                if gcd(alpha, beta) == 1:
                    found.add(normalize(construct_s2xs1(alpha, beta)))
    else:
        for a10 in range(1, max_mult + 1):
            for a20 in range(-max_mult, max_mult + 1):
                if a20 and gcd(a10, a20) == 1:
                    cf = normalize(construct_fibration(lens, a10, a20).fibration)
                    if all(alpha <= max_mult for alpha, _ in cf.pairs):
                        found.add(cf)
    for projective in (fibration(-1, (1, 1)), fibration(-1, (1, -1))):
        if lens_equal_oriented(recognize(projective), lens):
            found.add(normalize(projective))
    return found


def isotropy_order_oracle(lens, weights) -> int:
    """Independent count of ``isotropy_order`` by lattice enumeration.

    The translates of a point on a regular fibre land back on the fibre's
    lifts exactly when p divides l*(q*k1 - k2); count those l in 1..p.
    """
    if lens.p < 1:
        raise InvalidRangeError(f"p must be >= 1, got {lens.p}")
    p, q = lens.p, lens.q
    d = q * weights.k1 - weights.k2
    return sum(1 for l in range(1, p + 1) if (l * d) % p == 0)


def random_pair(rng, alpha_max: int = 9) -> SeifertPair:
    while True:
        alpha = rng.choice([-1, 1]) * rng.randint(1, alpha_max)
        beta = rng.randint(-alpha_max, alpha_max)
        if gcd(alpha, beta) == 1:
            return SeifertPair(alpha, beta)


def random_fibration(rng, genus_choices=(0, 0, 0, -1, 1), max_pairs: int = 4):
    genus = rng.choice(genus_choices)
    pairs = tuple(random_pair(rng) for _ in range(rng.randint(0, max_pairs)))
    return SeifertFibration(genus, pairs)


def random_move(rng, f: SeifertFibration, max_pairs: int = 8):
    """A random move that applies to ``f``: a move function and its argument."""
    n = len(f.pairs)
    kinds = []
    if n > 0:
        kinds += ["permute", "shift", "flip"]
    if n < max_pairs:
        kinds.append("insert")
    trivial = [
        i for i, pr in enumerate(f.pairs)
        if pr in (SeifertPair(1, 0), SeifertPair(-1, 0))
    ]
    if trivial:
        kinds.append("delete")
    kind = rng.choice(kinds)
    if kind == "permute":
        order = list(range(n))
        rng.shuffle(order)
        return permute, tuple(order)
    if kind == "shift":
        offsets = [rng.randint(-3, 3) for _ in range(n - 1)]
        offsets.append(-sum(offsets))
        return shift_betas, tuple(offsets)
    if kind == "flip":
        return flip_signs, rng.randrange(n)
    if kind == "insert":
        return insert_trivial, rng.randint(0, n)
    return delete_trivial, rng.choice(trivial)


def apply_random_moves(rng, f: SeifertFibration, count: int, max_pairs: int = 8):
    for _ in range(count):
        move, argument = random_move(rng, f, max_pairs)
        f = move(f, argument)
    return f


@contextmanager
def deadline(seconds):
    """Turn a call that runs past ``seconds`` into a failure, not a hang."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
