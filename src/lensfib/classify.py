"""Classification of the Seifert fibrations of a fixed lens space.

Fixing L(p, q) with p >= 1 and an unordered coprime weight pair {m1, m2},
the candidate fibrations come from the four ordered sign choices

    e = (m1, m2),  a = (m1, -m2),  b = (m2, m1),  c = (m2, -m1)

(negating both weights has no effect).  How many of the four are distinct,
and which are isomorphic after reversing orientation, is decided purely by
the residue of q*q modulo p:

  equal weights (m1 = m2 = 1): two distinct fibrations, a reversing pair
      exactly when q*q = -1 (mod p);
  m1 != m2:
      q*q != +-1        -> four distinct;
      q*q = +1 only     -> two distinct (e = b and a = c);
      q*q = -1 only     -> four distinct in two reversing pairs
                           (e = -c and a = -b);
      q*q = +1 and -1   -> two distinct forming one reversing pair
                           (forces p in {1, 2}).

The three pairwise predicates are exposed separately: e vs a is never
oriented-isomorphic and reverses exactly for p in {1, 2} (equal weights:
q*q = -1); e vs b is oriented-isomorphic exactly for equal weights or
q*q = +1, and never reverses; e vs c reverses exactly for q*q = -1 and is
never oriented-isomorphic.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import NamedTuple

from .construct import _recipe, construct_fibration, gluing_choice
from .errors import InvalidRangeError, NotCoprimeError, PredictionMismatchError
from .exact_arith import check_magnitude
from .pi1 import BaseOrbifold, base_orbifold
from .recognize import LensSpace, lens_equal_oriented, recognize
from .seifert import (
    CanonicalForm,
    SeifertFibration,
    _canonical_form,
    fibration,
    normalize,
    reverse_canonical,
)


class CaseTag(Enum):
    EQUAL_SPLIT = "i-split"
    EQUAL_REVERSING = "i-reversing"
    FOUR_DISTINCT = "ii-1"
    TWO_DISTINCT = "ii-2"
    TWO_REVERSING_PAIRS = "ii-3"
    ONE_REVERSING_PAIR = "ii-4"


class CasePrediction(NamedTuple):
    tag: CaseTag
    class_count: int
    reversing_pair_count: int
    # Pairwise predicates for (e, a), (e, b), (e, c) respectively.
    flip_gives_reversing: bool
    exchange_gives_oriented: bool
    exchange_flip_gives_reversing: bool


def predicted_case(lens: LensSpace, m1: int, m2: int) -> CasePrediction:
    """Class counts and pairwise predicates for the weight pair {m1, m2}."""
    if m1 < 1 or m2 < 1:
        raise InvalidRangeError(f"weights must be >= 1, got ({m1}, {m2})")
    if gcd(m1, m2) != 1:
        raise NotCoprimeError(f"gcd({m1}, {m2}) != 1")
    if lens.p < 1:
        raise InvalidRangeError("the census needs p >= 1")

    p, q = lens.p, lens.q
    sq_plus = (q * q - 1) % p == 0
    sq_minus = (q * q + 1) % p == 0
    equal = m1 == m2

    if equal:
        tag = CaseTag.EQUAL_REVERSING if sq_minus else CaseTag.EQUAL_SPLIT
        classes, pairs = 2, (1 if sq_minus else 0)
    elif sq_plus and sq_minus:
        tag, classes, pairs = CaseTag.ONE_REVERSING_PAIR, 2, 1
    elif sq_plus:
        tag, classes, pairs = CaseTag.TWO_DISTINCT, 2, 0
    elif sq_minus:
        tag, classes, pairs = CaseTag.TWO_REVERSING_PAIRS, 4, 2
    else:
        tag, classes, pairs = CaseTag.FOUR_DISTINCT, 4, 0

    return CasePrediction(
        tag=tag,
        class_count=classes,
        reversing_pair_count=pairs,
        flip_gives_reversing=(sq_minus if equal else p in (1, 2)),
        exchange_gives_oriented=(equal or sq_plus),
        exchange_flip_gives_reversing=sq_minus,
    )


class ClassEntry(NamedTuple):
    canonical: CanonicalForm
    weights: tuple[int, int]
    representative: SeifertFibration
    orbifold: BaseOrbifold


class ClassificationReport(NamedTuple):
    lens: LensSpace
    weights: tuple[int, int]
    classes: tuple[ClassEntry, ...]
    reversing_pairs: tuple[tuple[int, int], ...]
    prediction: CasePrediction


def classify_pair(lens: LensSpace, m1: int, m2: int) -> ClassificationReport:
    """Deduplicate the four variant fibrations and verify the prediction.

    A disagreement between the computed classes and the number-theoretic
    prediction would be an implementation bug and raises loudly.
    """
    prediction = predicted_case(lens, m1, m2)

    classes: list[ClassEntry] = []
    seen: dict[CanonicalForm, int] = {}
    for weights in ((m1, m2), (m1, -m2), (m2, m1), (m2, -m1)):
        fib = construct_fibration(lens, *weights).fibration
        cf = normalize(fib)
        if cf not in seen:
            seen[cf] = len(classes)
            classes.append(ClassEntry(cf, weights, fib, base_orbifold(fib)))

    reversed_forms = [reverse_canonical(entry.canonical) for entry in classes]
    reversing = [(i, j) for i in range(len(classes)) for j in range(i + 1, len(classes))
                 if classes[i].canonical == reversed_forms[j]]

    if len(classes) != prediction.class_count:
        raise PredictionMismatchError(
            f"{lens} weights ({m1}, {m2}): found {len(classes)} classes, "
            f"predicted {prediction.class_count}"
        )
    if len(reversing) != prediction.reversing_pair_count:
        raise PredictionMismatchError(
            f"{lens} weights ({m1}, {m2}): found {len(reversing)} reversing "
            f"pairs, predicted {prediction.reversing_pair_count}"
        )
    return ClassificationReport(lens, (m1, m2), tuple(classes), tuple(reversing), prediction)


def enumerate_fibrations(lens: LensSpace, max_mult: int) -> list[CanonicalForm]:
    """All fibration classes of ``lens`` with multiplicities <= max_mult.

    For p >= 1 every class comes from a weight pair (a10, a20), and a10 > 0
    is enough, since negating both weights changes nothing.  The recipe
    gives multiplicities alpha*|a10| and alpha*|a20| with alpha = p/u and
    u = gcd(p, s*a10 - a20).  So the sweep runs over the divisors alpha of
    p up to max_mult (trial division, no factoring), takes both weights up
    to max_mult // alpha, and lets a20 run only over the residue class of
    s*a10 modulo u.  Each admissible pair, coprime and with exactly this u,
    goes through the integer recipe once and is canonicalised straight from
    its two pairs, which are valid by construction.  M = [[alpha1, alpha1'],
    [beta1, beta1']] has determinant 1, so gcd(alpha1, beta1) = 1; and as
    alpha*u = p, (alpha2, -beta2) = M*(s, -p) with gcd(s, p) = 1, so
    gcd(alpha2, beta2) = 1.  |alpha2| <= max_mult, which is checked up front,
    and 0 <= beta1 < |alpha1|, which the complement checks.  Only beta2, with
    |beta2| < p/alpha1 + max_mult, keeps its guard.  When q*q = 1 (mod p),
    exchanging the weights gives the same class (e = b and a = c) with the
    same u, as s*s = 1 too, so a20 runs only over |a20| <= a10.  Each class
    is thus computed once, and the work is proportional to max_mult plus the
    classes found.  The projective-plane fibration is added for L(4,1) and
    L(4,3).  For the p = 0 space it is the family
    M(0; (alpha, beta), (alpha, -beta)), where beta and alpha - beta give one
    class.
    """
    if max_mult < 1:
        raise InvalidRangeError(f"max_mult must be >= 1, got {max_mult}")
    # Checked up front: it bounds every value of the p = 0 sweep, and although
    # the recipe checks its own values, a sweep towards a huge bound would
    # run practically forever before one fails the guard.
    check_magnitude(max_mult)
    found: set[CanonicalForm] = set()
    if lens.p == 0:
        # beta, beta + alpha and alpha - beta give one class: 0 <= beta <= alpha/2.
        for alpha in range(1, max_mult + 1):
            for beta in range(alpha // 2 + 1):
                if gcd(alpha, beta) == 1:
                    found.add(_canonical_form(0, ((alpha, beta), (alpha, -beta))))
        return sorted(found)

    p = lens.p
    _, s = gluing_choice(p, lens.q)
    exchange = lens.q * lens.q % p == 1 % p
    for alpha in range(1, min(p, max_mult) + 1):
        if p % alpha:
            continue
        u, bound = p // alpha, max_mult // alpha
        for a10 in range(1, bound + 1):
            top = a10 if exchange else bound
            # The least a20 >= -top with a20 = s*a10 (mod u).
            first = (s * a10 + top) % u - top
            for a20 in range(first, top + 1, u):
                if not a20 or gcd(a10, a20) != 1 or gcd(p, s * a10 - a20) != u:
                    continue
                _, alpha1, alpha2, _, beta1, _, beta2 = _recipe(p, s, a10, a20, u)
                # Only beta2 can pass the guard; the docstring proves the rest.
                check_magnitude(beta2)
                found.add(_canonical_form(0, ((alpha1, beta1), (alpha2, beta2))))
    for projective in (fibration(-1, (1, 1)), fibration(-1, (1, -1))):
        if lens_equal_oriented(recognize(projective), lens):
            found.add(normalize(projective))
    return sorted(found)
