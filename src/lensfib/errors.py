"""Exception hierarchy and the base of the checked value types of lensfib.

Everything mathematical that can go wrong derives from ``DomainError``,
so callers (notably the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations

from enum import Enum


class DomainError(Exception):
    """Base class for all errors raised on invalid mathematical input."""


class OverflowLimitError(DomainError, OverflowError):
    """An integer exceeded the configured magnitude guard."""


class NotCoprimeError(DomainError, ValueError):
    """Two integers required to be coprime are not."""


class ZeroAlphaError(DomainError, ValueError):
    """A Seifert pair has multiplicity alpha = 0."""


class NotCoprimePairError(DomainError, ValueError):
    """A Seifert pair (alpha, beta) with gcd(|alpha|, |beta|) > 1."""


class InapplicableMoveError(DomainError, ValueError):
    """An equivalence move cannot be applied to the given invariant list."""


class FibrationParseError(DomainError, ValueError):
    """Invariant-list text does not match the fibration grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ZeroWeightError(DomainError, ValueError):
    """A prescribed singular-fibre weight is zero."""


class InvalidRangeError(DomainError, ValueError):
    """A numeric argument is outside the documented range."""


class NotLensSpaceReason(Enum):
    TOO_MANY_SINGULAR_FIBRES = "too many singular fibres"
    BAD_BASE = "base surface cannot carry a lens space"
    NON_CYCLIC = "fundamental group is not cyclic"


class NotLensSpaceError(DomainError):
    """The total space of the fibration is not a lens space."""

    def __init__(self, reason: NotLensSpaceReason, detail: str = ""):
        text = reason.value if not detail else f"{reason.value}: {detail}"
        super().__init__(text)
        self.reason = reason


class PredictionMismatchError(RuntimeError):
    """A census count disagrees with its prediction: a bug, so the CLI exits 3."""


class Checked:
    """Base of a named tuple whose own ``__new__`` checks its fields; ``_make``
    (so ``_replace``), ``pickle`` and ``copy`` call it, so every build checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)
