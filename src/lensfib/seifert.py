"""Seifert invariants, their equivalence moves, and the canonical form.

A closed Seifert fibred 3-manifold over a base of genus ``g`` (negative for
non-orientable bases, -1 meaning the projective plane) is encoded by the
invariant list ``M(g; (alpha_1, beta_1), ..., (alpha_n, beta_n))`` of coprime
pairs with alpha_i != 0.  Two invariant lists describe isomorphic oriented
fibrations exactly when they are related by the four classical rewrites:
permutation, insertion/deletion of a (1, 0) pair, shifting the betas by
multiples of their alphas with total shift zero, and negating both entries
of a pair.  Replacing every beta by its negative yields the orientation
reversal.

An invariant list is checked when it is built: ``SeifertFibration`` calls
:func:`validate`, so ``parse`` raises ``NotCoprimePairError`` or
``ZeroAlphaError`` on a bad pair and nothing that takes a list checks it
again.  It takes ``SeifertPair``s; :func:`fibration` takes plain tuples.

Normalising (all alphas positive, betas reduced into [0, alpha), multiplicity
one pairs folded into a single integer ``b``, pairs sorted) produces a unique
fingerprint per isomorphism class, which is how isomorphism is decided here.
"""

from __future__ import annotations

import re
from math import gcd
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    FibrationParseError,
    InapplicableMoveError,
    NotCoprimePairError,
    ZeroAlphaError,
)
from .exact_arith import check_magnitude


class SeifertPair(NamedTuple):
    alpha: int
    beta: int

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta})"


@dataclass(frozen=True)
class SeifertFibration:
    """Invariant list M(genus; (alpha_1,beta_1), ..., (alpha_n,beta_n))."""

    genus: int
    pairs: tuple[SeifertPair, ...]

    def __post_init__(self):
        validate(self)

    def __str__(self) -> str:
        return unparse(self)


def fibration(genus: int, *pairs: tuple[int, int]) -> SeifertFibration:
    """Convenience constructor: fibration(0, (3, -1), (3, 2))."""
    return SeifertFibration(genus, tuple(SeifertPair(a, b) for a, b in pairs))


class CanonicalForm(NamedTuple):
    """Unique representative of an oriented fibration-isomorphism class.

    Stored pairs satisfy alpha >= 2 and 0 < beta < alpha and are sorted;
    all multiplicity-one contributions are absorbed into ``b``.
    """

    genus: int
    b: int
    pairs: tuple[SeifertPair, ...]

    def expand(self) -> SeifertFibration:
        """An invariant list normalising back to this canonical form."""
        return SeifertFibration(self.genus, self.pairs + (SeifertPair(1, self.b),))


def validate(f: SeifertFibration) -> None:
    """Check the type invariants, raising on the first violation; every
    ``SeifertFibration`` is checked by this when it is built."""
    for i, (alpha, beta) in enumerate(f.pairs):
        if alpha == 0:
            raise ZeroAlphaError(f"pair {i} has alpha = 0")
        if gcd(alpha, beta) != 1:
            raise NotCoprimePairError(
                f"pair {i} = ({alpha}, {beta}) is not coprime"
            )
    check_magnitude(f.genus, *(v for pair in f.pairs for v in pair))


# --- equivalence moves -----------------------------------------------------
#
# Each move rewrites the invariant list without changing the total space and
# raises InapplicableMoveError where it does not apply.


def permute(f: SeifertFibration, order: tuple[int, ...]) -> SeifertFibration:
    """Reorder the pairs: pair ``order[j]`` becomes pair j."""
    n = len(f.pairs)
    if sorted(order) != list(range(n)):
        raise InapplicableMoveError(f"{order} is not a permutation of 0..{n - 1}")
    return SeifertFibration(f.genus, tuple(f.pairs[j] for j in order))


def insert_trivial(f: SeifertFibration, index: int) -> SeifertFibration:
    """Insert a (1, 0) pair before pair ``index`` (at the end for index n)."""
    pairs = f.pairs
    if not 0 <= index <= len(pairs):
        raise InapplicableMoveError(f"insertion index {index} out of range")
    return SeifertFibration(f.genus, pairs[:index] + (SeifertPair(1, 0),) + pairs[index:])


def delete_trivial(f: SeifertFibration, index: int) -> SeifertFibration:
    """Delete pair ``index``, which must be (1, 0) or (-1, 0)."""
    pairs = f.pairs
    if not 0 <= index < len(pairs):
        raise InapplicableMoveError(f"deletion index {index} out of range")
    if pairs[index] not in (SeifertPair(1, 0), SeifertPair(-1, 0)):
        raise InapplicableMoveError(f"pair {pairs[index]} is not (1, 0) up to sign")
    return SeifertFibration(f.genus, pairs[:index] + pairs[index + 1 :])


def shift_betas(f: SeifertFibration, offsets: tuple[int, ...]) -> SeifertFibration:
    """Replace each (alpha_i, beta_i) by (alpha_i, beta_i + k_i*alpha_i)."""
    if sum(offsets) != 0:
        raise InapplicableMoveError(f"beta shifts must sum to zero, got {offsets}")
    n = len(f.pairs)
    if len(offsets) != n:
        raise InapplicableMoveError(f"expected {n} beta shifts, got {len(offsets)}")
    return SeifertFibration(
        f.genus, tuple(SeifertPair(a, b + k * a) for (a, b), k in zip(f.pairs, offsets))
    )


def flip_signs(f: SeifertFibration, index: int) -> SeifertFibration:
    """Negate both entries of pair ``index``."""
    pairs = f.pairs
    if not 0 <= index < len(pairs):
        raise InapplicableMoveError(f"flip index {index} out of range")
    a, b = pairs[index]
    flipped = (SeifertPair(-a, -b),)
    return SeifertFibration(f.genus, pairs[:index] + flipped + pairs[index + 1 :])


def normalize(f: SeifertFibration) -> CanonicalForm:
    """Deterministic, idempotent canonical form under the equivalence moves.

    Signs are flipped so every alpha is positive, each beta is reduced
    modulo its alpha with the quotients accumulated into ``b``, pairs of
    multiplicity one are dropped, and the remainder is sorted.
    """
    return _canonical_form(f.genus, f.pairs)


def _canonical_form(genus: int, pairs) -> CanonicalForm:
    """The body of :func:`normalize`, for (alpha, beta) pairs already known
    to form a valid invariant list."""
    b = 0
    kept = []
    for alpha, beta in pairs:
        if alpha < 0:
            alpha, beta = -alpha, -beta
        q, r = divmod(beta, alpha)
        b += q
        if alpha > 1:
            kept.append(SeifertPair(alpha, r))
    kept.sort()
    return CanonicalForm(genus, b, tuple(kept))


def reverse_orientation(f: SeifertFibration) -> SeifertFibration:
    """The same fibration on the oppositely oriented total space."""
    return SeifertFibration(f.genus, tuple(SeifertPair(a, -b) for a, b in f.pairs))


def reverse_canonical(cf: CanonicalForm) -> CanonicalForm:
    """``normalize(reverse_orientation(f))`` computed from ``cf = normalize(f)``.

    Each stored pair has 0 < r < alpha, so -r reduces to alpha - r with
    quotient -1; together with the negated ``b`` that gives -b - n for n pairs.
    """
    pairs = sorted(SeifertPair(a, a - r) for a, r in cf.pairs)
    return CanonicalForm(cf.genus, -cf.b - len(cf.pairs), tuple(pairs))


def euler_number(f: SeifertFibration) -> Fraction:
    """-sum(beta_i / alpha_i), a move-invariant rational."""
    total = Fraction(0)
    for alpha, beta in f.pairs:
        total += Fraction(beta, alpha)
    return -total


class IsoType(Enum):
    ORIENTED = "oriented"
    REVERSING = "reversing"
    BOTH = "both"
    NONE = "none"


def isomorphism_type(f1: SeifertFibration, f2: SeifertFibration) -> IsoType:
    """How f1 and f2 compare as fibrations of oriented manifolds."""
    c1 = normalize(f1)
    c2 = normalize(f2)
    oriented = c1 == c2
    reversing = c1 == reverse_canonical(c2)
    if oriented and reversing:
        return IsoType.BOTH
    if oriented:
        return IsoType.ORIENTED
    if reversing:
        return IsoType.REVERSING
    return IsoType.NONE


# --- text form -------------------------------------------------------------
#
#   fibration := "M(" integer ";" [ pair { "," pair } ] ")"
#   pair      := "(" integer "," integer ")"
#
# Whitespace is ignored everywhere; the canonical text uses none.

_INT_RE = re.compile(r"-?\d+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise FibrationParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def integer(self) -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if m is None:
            raise FibrationParseError("expected an integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise FibrationParseError("trailing input", self.pos)


def parse(text: str) -> SeifertFibration:
    """Parse invariant-list text such as ``M(0;(35,-2),(14,1))``."""
    s = _Scanner(text)
    s.expect("M")
    s.expect("(")
    genus = s.integer()
    s.expect(";")
    pairs = []
    if not s.peek(")"):
        while True:
            s.expect("(")
            alpha = s.integer()
            s.expect(",")
            beta = s.integer()
            s.expect(")")
            pairs.append(SeifertPair(alpha, beta))
            if not s.peek(","):
                break
            s.expect(",")
    s.expect(")")
    s.end()
    return SeifertFibration(genus, tuple(pairs))


def unparse(f: SeifertFibration) -> str:
    """Canonical text form: no whitespace, pairs in stored order."""
    body = ",".join(f"({a},{b})" for a, b in f.pairs)
    return f"M({f.genus};{body})"
