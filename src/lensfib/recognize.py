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

from math import gcd
from typing import NamedTuple

from .errors import (
    Checked,
    InvalidRangeError,
    NotCoprimeError,
    NotLensSpaceError,
    NotLensSpaceReason,
)
from .exact_arith import check_magnitude, unimodular_complement
from .seifert import SeifertFibration, normalize


class LensSpace(Checked, NamedTuple("LensSpace", [("p", int), ("q", int)])):
    """Oriented diffeomorphism type L(p, q), stored in normalized form:
    p >= 0, and 0 <= q < p for p >= 1; L(0, 1) is the 2-sphere bundle."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        check_magnitude(p, q)
        if p < 0:
            raise InvalidRangeError(f"p must be >= 0, got {p}")
        if p == 0:
            if q != 1:
                raise InvalidRangeError("the p = 0 lens space is L(0, 1)")
        elif not 0 <= q < p:
            raise InvalidRangeError(f"q = {q} not normalized for p = {p}")
        if gcd(p, q) != 1:
            raise NotCoprimeError(f"gcd({p}, {q}) != 1")
        return tuple.__new__(cls, (p, q))

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
        # Pad with (1, 0) to two pairs and fold b into the first one: a legal
        # shift against the (1, b) slot.
        (a1, b1), (a2, b2) = cf.pairs + ((1, 0),) * (2 - len(cf.pairs))
        b1 += cf.b * a1
        p = a1 * b2 + b1 * a2
        a2p, b2p = unimodular_complement(a2, b2)
        q = a1 * b2p + b1 * a2p
        # (p, q) is (a1, b1) times a unimodular matrix, so gcd(p, q) = 1.
        if p < 0:
            p, q = -p, -q
        if p == 0:
            return LensSpace(0, 1)
        q %= p
        if p > 2:
            q = min(q, pow(q, -1, p))
        return LensSpace(p, q)
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
    """Oriented diffeomorphism: q1 = q2, which covers L(0, 1), or q1*q2 = 1 (mod p)."""
    return l1.p == l2.p and (l1.q == l2.q or (l1.q * l2.q - 1) % l1.p == 0)


def lens_equal_unoriented(l1: LensSpace, l2: LensSpace) -> bool:
    """Diffeomorphism ignoring orientation: adds q1 = -q2 or q1*q2 = -1."""
    return lens_equal_oriented(l1, l2) or lens_equal_oriented(lens_reverse(l1), l2)


def lens_reverse(l: LensSpace) -> LensSpace:
    """The same manifold with the opposite orientation: L(p, -q), or L(0, 1) for p = 0."""
    return lens_normalize(l.p, -l.q)
