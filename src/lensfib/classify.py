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

from .construct import construct_fibration, gluing_choice
from .errors import InvalidRangeError, NotCoprimeError, PredictionMismatchError
from .exact_arith import check_magnitude
from .pi1 import BaseOrbifold, base_orbifold
from .recognize import LensSpace, lens_equal_oriented, recognize
from .seifert import (
    CanonicalForm,
    SeifertFibration,
    SeifertPair,
    fibration,
    normalize,
    reverse_canonical,
)

_new = tuple.__new__  # a plain named tuple's __new__, without its Python-level frame


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
    """All fibration classes of ``lens`` with multiplicities <= N = max_mult.

    For p >= 1 every class comes from a weight pair (a10, a20), and a10 > 0
    is enough, since negating both weights changes nothing.  The recipe
    gives multiplicities alpha1 = alpha*a10 and alpha2 = alpha*a20 with
    alpha = p/u and u = gcd(p, s*a10 - a20).  So the sweep runs over the
    divisors alpha of p up to N (trial division, no factoring), takes both
    weights up to N/alpha, and lets a20 run only over the residue class of
    s*a10 modulo u.  There s*a10 - a20 = u*alpha1' and p = u*alpha, so u is
    the gcd exactly when gcd(alpha, alpha1') = 1, and the pair is admissible
    when a20 != 0 and gcd(a10, a20) = gcd(alpha, alpha1') = 1.  When
    q*q = 1 (mod p), exchanging the weights gives the same class (e = b and
    a = c) with the same u, as s*s = 1 too, so a20 runs only over
    |a20| <= a10.  Each class is thus computed once, and the work is
    proportional to N plus the classes found.

    The recipe runs inline: beta1 = (-alpha1')^-1 mod alpha1 and
    beta2 = -s*beta1 + p*beta1' with beta1' = (1 + alpha1'*beta1)/alpha1.
    The inverse exists, as gcd(alpha, alpha1') = 1 and a prime dividing a10
    and alpha1' would divide a20 = s*a10 - u*alpha1'.  Both pairs are coprime:
    M = [[alpha1, alpha1'], [beta1, beta1']] has determinant 1 and, with
    alpha*u = p, (alpha2, -beta2) = M*(s, -p) where gcd(s, p) = 1.

    One check up front bounds every value.  For 1 <= a10, |a20| <= N/alpha
    and 0 <= s < p: |alpha1'| = |s*a10 - a20|/u <= N; 0 <= beta1 < alpha1 <= N
    and |beta1'| <= N; |beta2| = |p - beta1*alpha2|/alpha1 is p when
    alpha1 = 1 and at most p//2 + N otherwise.  p is a checked lens
    parameter, so checking N (first, so that a bad max_mult is named) and
    p//2 + N suffices.  It refuses only N > 2**61, a sweep without end.

    alpha1 > 0 and beta1 is reduced, so only the second pair needs a flip
    and a divmod.  Flat keys (b,), (b, a, r) or (b, a, r, a', r'), pairs in
    order, sort exactly as the canonical forms do; each form and pair is built
    once, straight from its sorted key, by tuple.__new__: that call is all the
    generated __new__ of these named tuples makes, and they have no check.
    The genus -1 form of L(4,1) or L(4,3) comes first: M(-1; (1, +-1)) has
    p = 4, so it is built only then.  For p = 0 the classes are M(0; (alpha,
    beta), (alpha, -beta)), where beta and alpha - beta give one class: for
    0 < beta <= alpha/2, the sorted forms CanonicalForm(0, -1, ((alpha, beta),
    (alpha, alpha - beta))), then beta = 0.
    """
    if max_mult < 1:
        raise InvalidRangeError(f"max_mult must be >= 1, got {max_mult}")
    p = lens.p
    check_magnitude(max_mult, p // 2 + max_mult)
    if p == 0:
        forms = [_new(CanonicalForm, (0, -1, (_new(SeifertPair, (alpha, beta)),
                                              _new(SeifertPair, (alpha, alpha - beta)))))
                 for alpha in range(2, max_mult + 1) for beta in range(1, alpha // 2 + 1)
                 if gcd(alpha, beta) == 1]
        return forms + [CanonicalForm(0, 0, ())]

    _, s = gluing_choice(p, lens.q)
    exchange = lens.q * lens.q % p == 1 % p
    keys = []
    for alpha in range(1, min(p, max_mult) + 1):
        if p % alpha:
            continue
        u, bound = p // alpha, max_mult // alpha
        for a10 in range(1, bound + 1):
            alpha1, sa10 = alpha * a10, s * a10
            top = a10 if exchange else bound
            # The least a20 >= -top with a20 = s*a10 (mod u).
            for a20 in range((sa10 + top) % u - top, top + 1, u):
                alpha1p = (sa10 - a20) // u
                if not a20 or gcd(a10, a20) != 1 or alpha > 1 and gcd(alpha, alpha1p) != 1:
                    continue
                beta1 = pow(-alpha1p, -1, alpha1)
                beta2 = p * (1 + alpha1p * beta1) // alpha1 - s * beta1
                alpha2 = alpha * a20
                if alpha2 < 0:
                    alpha2, beta2 = -alpha2, -beta2
                b, r2 = divmod(beta2, alpha2)
                if alpha2 == 1:
                    keys.append((b, alpha1, beta1) if alpha1 > 1 else (b,))
                elif alpha1 == 1:
                    keys.append((b, alpha2, r2))
                elif alpha1 < alpha2 or alpha1 == alpha2 and beta1 < r2:
                    keys.append((b, alpha1, beta1, alpha2, r2))
                else:
                    keys.append((b, alpha2, r2, alpha1, beta1))
    keys.sort()
    forms = [normalize(f) for f in (fibration(-1, (1, 1)), fibration(-1, (1, -1)))
             if lens_equal_oriented(recognize(f), lens)] if p == 4 else []
    for key in keys:
        if len(key) == 5:
            pairs = (_new(SeifertPair, key[1:3]), _new(SeifertPair, key[3:]))
        else:
            pairs = (_new(SeifertPair, key[1:]),) if len(key) == 3 else ()
        forms.append(_new(CanonicalForm, (0, key[0], pairs)))
    return forms
