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

An invariant list is checked however it is built: ``SeifertFibration``'s own
``__new__`` calls :func:`validate`, so ``parse`` raises ``NotCoprimePairError``
or ``ZeroAlphaError`` on a bad pair and nothing that takes a list checks it
again.  It takes ``SeifertPair``s; :func:`fibration` takes plain tuples.

Normalising (all alphas positive, betas reduced into [0, alpha), multiplicity
one pairs folded into a single integer ``b``, pairs sorted) produces a unique
fingerprint per isomorphism class, which is how isomorphism is decided here.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import chain
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    Checked,
    FibrationParseError,
    InapplicableMoveError,
    NotCoprimePairError,
    OverflowLimitError,
    ZeroAlphaError,
)
from .exact_arith import check_magnitude, read_int

if TYPE_CHECKING:
    from fractions import Fraction

_new = tuple.__new__  # a plain named tuple's __new__, without its Python-level frame


class SeifertPair(NamedTuple):
    alpha: int
    beta: int

    def __str__(self) -> str:
        return f"({self.alpha},{self.beta})"


class SeifertFibration(Checked, NamedTuple("SeifertFibration", [
        ("genus", int), ("pairs", tuple[SeifertPair, ...])])):
    """Invariant list M(genus; (alpha_1,beta_1), ..., (alpha_n,beta_n))."""

    __slots__ = ()

    def __new__(cls, genus: int, pairs: tuple[SeifertPair, ...]):
        self = _new(cls, (genus, pairs))
        validate(self)
        return self

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
    check_magnitude(f.genus, *chain.from_iterable(f.pairs))


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
    b = 0
    kept = []
    for alpha, beta in f.pairs:
        if alpha < 0:
            alpha, beta = -alpha, -beta
        q, r = divmod(beta, alpha)
        b += q
        if alpha > 1:
            kept.append(_new(SeifertPair, (alpha, r)))
    kept.sort()
    check_magnitude(b)
    return _new(CanonicalForm, (f.genus, b, tuple(kept)))


def reverse_orientation(f: SeifertFibration) -> SeifertFibration:
    """The same fibration on the oppositely oriented total space."""
    return SeifertFibration(f.genus, tuple(SeifertPair(a, -b) for a, b in f.pairs))


def reverse_canonical(cf: CanonicalForm) -> CanonicalForm:
    """``normalize(reverse_orientation(f))`` computed from ``cf = normalize(f)``.

    Each stored pair has 0 < r < alpha, so -r reduces to alpha - r with
    quotient -1; together with the negated ``b`` that gives -b - n for n pairs.
    """
    pairs = sorted(SeifertPair(a, a - r) for a, r in cf.pairs)
    b = -cf.b - len(cf.pairs)
    check_magnitude(b)
    return CanonicalForm(cf.genus, b, tuple(pairs))


def euler_number(f: SeifertFibration) -> Fraction:
    """-sum(beta_i / alpha_i), a move-invariant rational."""
    from fractions import Fraction  # not at import: it loads ``decimal``

    return -sum((Fraction(beta, alpha) for alpha, beta in f.pairs), Fraction(0))


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
# Whitespace is ignored everywhere; the canonical text uses none.  _LIST is
# the whole grammar as one regex: text it matches is read with one findall of
# its integers.  Other text, or an integer read_int refuses, goes to the walk,
# the only source of errors.  _TOKEN cuts the text into integers (group 1) and
# single other characters, then an empty token at len(text); the walk checks
# them once against the token sequences the grammar expects: "M ( int ;", pairs
# "( int , int )" separated by commas, then ")" and the end.  The first token
# that differs gives the error's position.

_PAIR = r"\(\s*-?\d+\s*,\s*-?\d+\s*\)\s*"
_LIST = re.compile(rf"\s*M\s*\(\s*-?\d+\s*;\s*(?:{_PAIR}(?:,\s*{_PAIR})*)?\)\s*")
_INT = re.compile(r"-?\d+")
_TOKEN = re.compile(r"(-?\d+)|\S|\Z")


def _walk(tokens, *expected) -> list[int]:
    """Check the next tokens against ``expected``, each a character, ``int``
    for an integer or ``""`` for the end, and return the integers read."""
    values = []
    for want, token in zip(expected, tokens):
        if want is not int:
            if token[0] != want:
                message = f"expected {want!r}" if want else "trailing input"
                raise FibrationParseError(message, token.start())
        elif token[1] is None:
            raise FibrationParseError("expected an integer", token.start())
        else:
            try:
                values.append(read_int(token[1]))
            except OverflowLimitError as exc:
                raise OverflowLimitError(f"{exc} (at position {token.start()})") from None
    return values


def parse(text: str) -> SeifertFibration:
    """Parse invariant-list text such as ``M(0;(35,-2),(14,1))``."""
    if _LIST.fullmatch(text):
        try:
            genus, *values = map(read_int, _INT.findall(text))
        except OverflowLimitError:
            pass
        else:
            return SeifertFibration(genus, tuple([
                _new(SeifertPair, pair) for pair in zip(values[::2], values[1::2])]))
    tokens = _TOKEN.finditer(text)
    genus, = _walk(tokens, "M", "(", int, ";")
    pairs = []
    token = next(tokens)
    # A pair follows the ";" unless the list closes there, and follows each ",".
    while token[0] == "," or not pairs and token[0] != ")":
        if pairs:
            token = next(tokens)
        pairs.append(_new(SeifertPair, _walk(chain([token], tokens), "(", int, ",", int, ")")))
        token = next(tokens)
    _walk(chain([token], tokens), ")", "")
    return SeifertFibration(genus, tuple(pairs))


def unparse(f: SeifertFibration | CanonicalForm) -> str:
    """Canonical text form: no whitespace, pairs in stored order.  A
    ``CanonicalForm`` is written as the list it expands to, (1,b) last."""
    pairs = f.pairs + ((1, f.b),) if isinstance(f, CanonicalForm) else f.pairs
    body = ",".join(f"({a},{b})" for a, b in pairs)
    return f"M({f.genus};{body})"
