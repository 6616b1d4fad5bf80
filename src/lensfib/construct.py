"""Construction of Seifert fibrations on a prescribed lens space.

Given L(p, q) with p >= 1 and a coprime pair of non-zero weights
(a10, a20), the two-solid-torus gluing calculus produces a fibration
M(0; (alpha1, beta1), (alpha2, beta2)) over the sphere whose singular-fibre
multiplicities have coprime parts |a10|, |a20|.  With s an inverse of q
modulo p (so q*s + p*r = 1) the recipe is

    u       = gcd(p, s*a10 - a20)
    alpha   = p / u,   alpha1 = alpha*a10,   alpha2 = alpha*a20
    alpha1' = (s*a10 - a20) / u
    beta1, beta1'  with  alpha1*beta1' - alpha1'*beta1 = 1
    beta2   = -s*beta1 + p*beta1'

Every output satisfies alpha1*beta2 + beta1*alpha2 = p and
gcd(alpha2, beta2) = 1, and different admissible choices of (r, s) and
(beta1, beta1') only change the result by equivalence moves.

The same calculus covers the quotient models: the circle action
(z1, z2) -> (e^(i*k1*t) z1, e^(i*k2*t) z2) on the 3-sphere descends to
L(p, q), and its Seifert invariants are obtained by running the recipe with
weights (k2, k1).  The number of deck transformations preserving a regular
fibre is u = gcd(p, s*k2 - k1).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .errors import Checked, InvalidRangeError, ZeroWeightError
from .exact_arith import check_coprime, check_magnitude, mod_inverse, unimodular_complement
from .recognize import LensSpace
from .seifert import SeifertFibration, SeifertPair

_new = tuple.__new__  # a plain named tuple's __new__, without its Python-level frame


class GluingChoice(NamedTuple):
    """Integers (r, s) with q*s + p*r = 1 for the solid-torus gluing."""

    r: int
    s: int


class ConstructionTrace(NamedTuple):
    """All intermediate quantities of the construction, for auditing."""

    u: int
    alpha: int
    alpha1: int
    alpha2: int
    alpha1_prime: int
    beta1: int
    beta1_prime: int
    beta2: int
    r: int
    s: int


class Construction(NamedTuple):
    fibration: SeifertFibration
    trace: ConstructionTrace


class ModelWeights(Checked, NamedTuple("ModelWeights", [("k1", int), ("k2", int)])):
    """Non-zero coprime weights (k1, k2) of a circle action on the 3-sphere."""

    __slots__ = ()

    def __new__(cls, k1: int, k2: int):
        check_magnitude(k1, k2)
        if k1 == 0 or k2 == 0:
            raise ZeroWeightError("model weights must be non-zero")
        check_coprime(k1, k2)
        return _new(cls, (k1, k2))


# Bounded so that a long-lived process does not grow with every lens it meets.
@lru_cache(maxsize=4096)
def gluing_choice(p: int, q: int) -> GluingChoice:
    """Deterministic (r, s): s the inverse of q mod p lifted to [0, p)."""
    if p < 1:
        raise InvalidRangeError(f"p must be >= 1, got {p}")
    s = mod_inverse(q, p)
    r = (1 - q * s) // p
    assert q * s + p * r == 1
    return _new(GluingChoice, (r, s))


def construct_fibration(lens: LensSpace, a10: int, a20: int) -> Construction:
    """Fibration of ``lens`` with prescribed coprime weight pair (a10, a20)."""
    p, q = lens.p, lens.q
    if p < 1:
        raise InvalidRangeError(
            f"p must be >= 1, got {p}; the p = 0 fibrations form their own family"
        )
    if a10 == 0 or a20 == 0:
        raise ZeroWeightError(f"weights must be non-zero, got ({a10}, {a20})")
    check_coprime(a10, a20)

    r, s = gluing_choice(p, q)
    u = gcd(p, s * a10 - a20)
    alpha = p // u
    alpha1 = alpha * a10
    alpha2 = alpha * a20
    alpha1_prime = (s * a10 - a20) // u
    beta1, beta1_prime = unimodular_complement(alpha1, alpha1_prime)
    beta2 = -s * beta1 + p * beta1_prime

    assert alpha1 * beta2 + beta1 * alpha2 == p, (p, s, a10, a20)
    # beta1' is in no pair, so the fibration's own check does not reach it.
    check_magnitude(beta1_prime)
    fib = SeifertFibration(0, (_new(SeifertPair, (alpha1, beta1)),
                               _new(SeifertPair, (alpha2, beta2))))
    trace = _new(ConstructionTrace, (u, alpha, alpha1, alpha2, alpha1_prime,
                                     beta1, beta1_prime, beta2, r, s))
    return _new(Construction, (fib, trace))


def construct_s2xs1(alpha: int, beta: int) -> SeifertFibration:
    """The fibrations of the product of the 2-sphere and the circle:
    M(0; (alpha, beta), (alpha, -beta)) for coprime alpha > 0, beta >= 0."""
    if alpha < 1 or beta < 0:
        raise InvalidRangeError(f"need alpha >= 1 and beta >= 0, got ({alpha}, {beta})")
    check_coprime(alpha, beta)
    return SeifertFibration(0, (SeifertPair(alpha, beta), SeifertPair(alpha, -beta)))


def s3_fibration(a1: int, a2: int) -> SeifertFibration:
    """The 3-sphere fibration with multiplicities a1 >= a2 >= 1 coprime.

    The betas are pinned by a1*b2 + b1*a2 = 1 with 0 <= b1 < a1, which is
    the unique representative of the class.
    """
    if a1 < 1 or a2 < 1 or a1 < a2:
        raise InvalidRangeError(f"need a1 >= a2 >= 1, got ({a1}, {a2})")
    check_coprime(a1, a2)
    b1 = mod_inverse(a2, a1)
    b2 = (1 - b1 * a2) // a1
    return SeifertFibration(0, (SeifertPair(a1, b1), SeifertPair(a2, b2)))


def model_fibration(lens: LensSpace, weights: ModelWeights) -> SeifertFibration:
    """Seifert invariants of the weighted circle action descended to ``lens``.

    The singular fibre of weight k1 is the spine of the solid torus carrying
    the second gluing index, so the weights enter the recipe swapped.
    """
    return construct_fibration(lens, weights.k2, weights.k1).fibration


def isotropy_order(lens: LensSpace, weights: ModelWeights) -> int:
    """Order of the deck-transformation subgroup preserving a regular fibre."""
    _, s = gluing_choice(lens.p, lens.q)
    return gcd(lens.p, s * weights.k2 - weights.k1)
