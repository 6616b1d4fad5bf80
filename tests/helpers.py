"""Shared test utilities: brute-force oracles and random generators."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from itertools import permutations
from math import gcd

from lensfib import (
    InvalidRangeError,
    OverflowLimitError,
    SeifertFibration,
    SeifertPair,
    construct_fibration,
    fibration,
    lens_equal_oriented,
    normalize,
    recognize,
)
from lensfib import construct, exact_arith
from lensfib.construct import GluingChoice, construct_s2xs1, gluing_choice
from lensfib.exact_arith import smith_normal_form, unimodular_complement
from lensfib.pi1 import presentation
from lensfib.recognize import lens_normalize
from lensfib.seifert import (
    delete_trivial,
    flip_signs,
    insert_trivial,
    permute,
    shift_betas,
)


def lower_guard(monkeypatch, n: int) -> None:
    """Hold every value to |v| <= n until the test ends; the library reads
    the guard when each check runs."""
    monkeypatch.setattr(exact_arith, "_int_limit", n)


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


def first_homology_by_presentation(f: SeifertFibration) -> tuple[int, ...]:
    """Invariant factors of H_1 from the whole abelianised ``presentation``:
    one row of exponent sums per relator, Smith form of all of it.  An
    oracle for ``first_homology``, which splits the surface part off first."""
    pres = presentation(f)
    ncols = len(pres.generators)
    column = {g: i for i, g in enumerate(pres.generators)}
    rows = []
    for word in pres.relators:
        row = [0] * ncols
        for g, e in word:
            row[column[g]] += e
        if any(row):
            rows.append(row)
    if not rows:
        return (0,) * ncols
    factors = smith_normal_form(rows)
    rank = sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d > 1)
    return torsion + (0,) * (ncols - rank)


def coprime_pairs(bound: int):
    """All ordered coprime (m1, m2) with 1 <= m1, m2 <= bound."""
    for m1 in range(1, bound + 1):
        for m2 in range(1, bound + 1):
            if gcd(m1, m2) == 1:
                yield m1, m2


def lens_parameters(p_max: int):
    """All normalized (p, q) with 1 <= p <= p_max, L(1,0) included."""
    for p in range(1, p_max + 1):
        for q in range(0 if p == 1 else 1, p):
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


def variants(lens, m1: int, m2: int) -> tuple:
    """The fibrations e, a, b, c built from the weights (m1, m2), (m1, -m2),
    (m2, m1) and (m2, -m1), the four that ``classify_pair`` compares."""
    return tuple(construct_fibration(lens, *weights).fibration
                 for weights in ((m1, m2), (m1, -m2), (m2, m1), (m2, -m1)))


def other_choices(monkeypatch, s_shift: int, beta_shift: int) -> None:
    """Make ``construct_fibration`` take other admissible choices: s + s_shift*p
    for the inverse s of q mod p (with r adjusted), and (beta1 + k*alpha1,
    beta1' + k*alpha1') with k = beta_shift for the unimodular completion.
    The paper's construction gives isomorphic fibrations for every choice.
    Each call shifts the original choices, not those of an earlier call."""

    def shifted_choice(p, q):
        r, s = gluing_choice(p, q)
        return GluingChoice(r - s_shift * q, s + s_shift * p)

    def shifted_complement(alpha, alpha_prime):
        beta, beta_prime = unimodular_complement(alpha, alpha_prime)
        return beta + beta_shift * alpha, beta_prime + beta_shift * alpha_prime

    monkeypatch.setattr(construct, "gluing_choice", shifted_choice)
    monkeypatch.setattr(construct, "unimodular_complement", shifted_complement)


def hirzebruch_jung(n: int, d: int) -> list[int]:
    """The expansion n/d = c1 - 1/(c2 - 1/(... - 1/ck)), every c >= 2, for
    n > d > 0."""
    expansion = []
    while d:
        c = -(-n // d)
        expansion.append(c)
        n, d = d, c * d - n
    return expansion


def lens_by_plumbing(f: SeifertFibration):
    """The oriented lens type of a genus-0 list with at most two singular
    fibres, read off the linear plumbing it bounds (Neumann, Trans. AMS 268,
    1981).  From the canonical form (b; (alpha1, r1), (alpha2, r2)) each arm
    is the expansion of alpha/(alpha - r) and the centre weight is b + n for
    n stored pairs.  The chain reversed(arm1) + [b + n] + arm2 has continuant
    p, and without its first entry continuant q.  An oracle for
    ``recognize``: no determinant formula, complement or gluing choice."""
    cf = normalize(f)
    assert cf.genus == 0 and len(cf.pairs) <= 2, cf
    arms = [hirzebruch_jung(alpha, alpha - r) for alpha, r in cf.pairs] + [[], []]
    chain = arms[0][::-1] + [cf.b + len(cf.pairs)] + arms[1]
    # Continuants from the last entry back: K(e, rest) = e*K(rest) - K(rest[1:]).
    rest, whole = 0, 1
    for e in reversed(chain):
        rest, whole = whole, e * whole - rest
    return lens_normalize(whole, rest)


def invert_recipe(f: SeifertFibration):
    """The weight pairs whose recipe gives the class of a genus-0 list ``f``
    on ``recognize(f)`` = L(p,q), p >= 1: ``(w, hits, skipped)``.  The recipe's
    multiplicities are alpha*|a10| and alpha*|a20| with gcd(a10, a20) = 1,
    so with ``normalize(f)`` padded to two pairs, alpha = gcd(alpha1, alpha2)
    and w = (alpha1/alpha, alpha2/alpha) sorted, the class must come from one
    of (w1, w2), (w1, -w2), (w2, w1), (w2, -w1).  ``hits`` lists the variants
    whose ``construct_fibration`` normalises to it; ``skipped`` counts those
    that raise ``OverflowLimitError``, whose own pairs outgrow the guard."""
    cf = normalize(f)
    assert cf.genus == 0 and len(cf.pairs) <= 2, cf
    alpha1, alpha2 = [alpha for alpha, _ in cf.pairs] + [1] * (2 - len(cf.pairs))
    alpha = gcd(alpha1, alpha2)
    w1, w2 = sorted((alpha1 // alpha, alpha2 // alpha))
    lens, hits, skipped = recognize(f), [], 0
    for weights in ((w1, w2), (w1, -w2), (w2, w1), (w2, -w1)):
        try:
            built = construct_fibration(lens, *weights).fibration
        except OverflowLimitError:
            skipped += 1
            continue
        if normalize(built) == cf:
            hits.append(weights)
    return (w1, w2), hits, skipped


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


def normalize_by_moves(f: SeifertFibration) -> SeifertFibration:
    """``normalize(f).expand()`` reached from ``f`` by the library's moves
    alone: each move checks that it applies, so equality with the canonical
    form certifies that ``normalize`` changes a list only by moves."""
    for i, (alpha, _) in enumerate(f.pairs):
        if alpha < 0:
            f = flip_signs(f, i)
    n = len(f.pairs)
    f = insert_trivial(f, n)
    quotients = [beta // alpha for alpha, beta in f.pairs[:n]]
    f = shift_betas(f, tuple(-k for k in quotients) + (sum(quotients),))
    for i in reversed(range(n)):
        if f.pairs[i] == (1, 0):
            f = delete_trivial(f, i)
    m = len(f.pairs) - 1
    return permute(f, tuple(sorted(range(m), key=f.pairs.__getitem__)) + (m,))


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
