"""Exact-arithmetic Seifert fibrations of lens spaces.

Construct every Seifert fibration of a given lens space L(p, q), normalise
invariant lists to a canonical isomorphism fingerprint, recognise the
oriented lens-space type of a fibration, and classify the fibrations with
prescribed singular-fibre weights, with fundamental-group and homology
cross-checks.  All arithmetic is exact.
"""

from .classify import CaseTag, classify_pair, enumerate_fibrations
from .construct import ConstructionTrace, construct_fibration
from .errors import (
    DomainError,
    InvalidRangeError,
    NotCoprimePairError,
    OverflowLimitError,
    ZeroAlphaError,
)
from .exact_arith import refresh_int_limit
from .pi1 import first_homology
from .recognize import LensSpace, lens_equal_oriented, lens_equal_unoriented, recognize
from .seifert import (
    CanonicalForm,
    SeifertFibration,
    SeifertPair,
    fibration,
    normalize,
    parse,
    unparse,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CaseTag",
    "ConstructionTrace",
    "DomainError",
    "InvalidRangeError",
    "LensSpace",
    "NotCoprimePairError",
    "OverflowLimitError",
    "SeifertFibration",
    "SeifertPair",
    "ZeroAlphaError",
    "classify_pair",
    "construct_fibration",
    "enumerate_fibrations",
    "fibration",
    "first_homology",
    "lens_equal_oriented",
    "lens_equal_unoriented",
    "normalize",
    "parse",
    "recognize",
    "refresh_int_limit",
    "unparse",
]
