"""Oriented lens-space recognition for Seifert invariant lists.

A genus-zero fibration with at most two singular fibres is a union of two
solid tori, hence a lens space.  Writing the (padded) invariant list as
``M(0; (a1, b1), (a2, b2))``, the oriented type is ``L(p, q)`` with

    p = a1*b2 + b1*a2,      q = a1*b2' + b1*a2',

where (a2', b2') completes (a2, b2) to a determinant-one matrix.  Over the
projective plane only ``M(-1; (1, +-1))`` gives lens spaces, namely L(4,1)
and L(4,3).  Lens equality uses the classical criterion: L(p,q) and L(p,q')
are oriented-diffeomorphic iff q = q' or q*q' = 1 (mod p), and become
diffeomorphic after reversing one orientation iff q = -q' or q*q' = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    InvalidRangeError,
    NotCoprimeError,
    NotLensSpaceError,
    NotLensSpaceReason,
)
from .exact_arith import mod_inverse, unimodular_complement
from .seifert import SeifertFibration, SeifertPair, normalize


@dataclass(frozen=True, order=True)
class LensSpace:
    """Oriented diffeomorphism type L(p, q), stored in normalized form:
    p >= 0, and 0 <= q < p for p >= 1; L(0, 1) is the 2-sphere bundle."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0:
            raise InvalidRangeError(f"p must be >= 0, got {self.p}")
        if self.p == 0:
            if self.q != 1:
                raise InvalidRangeError("the p = 0 lens space is L(0, 1)")
        elif not 0 <= self.q < self.p:
            raise InvalidRangeError(f"q = {self.q} not normalized for p = {self.p}")
        if gcd(self.p, self.q) != 1:
            raise NotCoprimeError(f"gcd({self.p}, {self.q}) != 1")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


def lens_normalize(p: int, q: int) -> LensSpace:
    """L(p, q) for arbitrary coprime (p, q): L(-p, -q) for p < 0, q mod p."""
    if gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 0:
        p, q = -p, -q
    if p == 0:
        return LensSpace(0, 1)
    return LensSpace(p, q % p)


def recognize(f: SeifertFibration) -> LensSpace:
    """The oriented lens-space type of the fibration's total space.

    Raises NotLensSpaceError when the base or the singular-fibre data rules
    a lens space out.  The result is a function of the canonical form, so it
    is invariant under all equivalence moves; among the two equivalent
    residues q and q^-1 (mod p) the smaller one is returned.
    """
    if f.genus == 0:
        cf = normalize(f)
        if len(cf.pairs) > 2:
            raise NotLensSpaceError(
                NotLensSpaceReason.TOO_MANY_SINGULAR_FIBRES,
                f"{len(cf.pairs)} singular fibres",
            )
        pairs = list(cf.pairs)
        while len(pairs) < 2:
            pairs.append(SeifertPair(1, 0))
        # Fold b into the first pair; a legal shift against the (1, b) slot.
        a1, b1 = pairs[0]
        b1 += cf.b * a1
        a2, b2 = pairs[1]
        p = a1 * b2 + b1 * a2
        a2p, b2p = unimodular_complement(a2, b2)
        q = a1 * b2p + b1 * a2p
        lens = lens_normalize(p, q)
        if lens.p > 2:
            q_inv = mod_inverse(lens.q, lens.p)
            if q_inv < lens.q:
                lens = LensSpace(lens.p, q_inv)
        return lens
    if f.genus == -1:
        if any(abs(a) != 1 for a, _ in f.pairs):
            raise NotLensSpaceError(
                NotLensSpaceReason.NON_CYCLIC,
                "projective-plane base with a singular fibre",
            )
        b = normalize(f).b
        if b == 1:
            return LensSpace(4, 1)
        if b == -1:
            return LensSpace(4, 3)
        raise NotLensSpaceError(
            NotLensSpaceReason.NON_CYCLIC, f"projective-plane base with b = {b}"
        )
    raise NotLensSpaceError(NotLensSpaceReason.BAD_BASE, f"genus {f.genus}")


def lens_equal_oriented(l1: LensSpace, l2: LensSpace) -> bool:
    """Oriented diffeomorphism: q1 = q2 or q1*q2 = 1 (mod p)."""
    if l1.p != l2.p:
        return False
    p = l1.p
    if p == 0:
        return True
    return (l1.q - l2.q) % p == 0 or (l1.q * l2.q - 1) % p == 0


def lens_equal_unoriented(l1: LensSpace, l2: LensSpace) -> bool:
    """Diffeomorphism ignoring orientation: adds q1 = -q2 or q1*q2 = -1."""
    return lens_equal_oriented(l1, l2) or lens_equal_oriented(lens_reverse(l1), l2)


def lens_reverse(l: LensSpace) -> LensSpace:
    """The same manifold with the opposite orientation: L(p, -q)."""
    if l.p == 0:
        return l
    return lens_normalize(l.p, -l.q)
