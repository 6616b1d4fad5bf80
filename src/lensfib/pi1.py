"""Fundamental-group presentations and the first-homology oracle.

For an invariant list M(g; (a_1,b_1), ..., (a_n,b_n)) the fundamental group
of the total space has the standard presentation on fibre class h, one
generator q_i per distinguished fibre, and surface generators: for g >= 0

    < a_1, b_1, ..., a_g, b_g, q_1, ..., q_n, h |
      h central, q_i^{a_i} h^{b_i}, q_1...q_n [a_1,b_1]...[a_g,b_g] >

and for g < 0 (non-orientable base, |g| crosscaps)

    < a_1, ..., a_|g|, q_1, ..., q_n, h |
      a_j^-1 h a_j h, [h, q_i], q_i^{a_i} h^{b_i}, q_1...q_n a_1^2...a_|g|^2 >.

First homology is this presentation abelianised: :func:`first_homology`
reads the relation rows straight from the pairs, with no words, and takes
the product relator's unit pivot by hand.  For a lens-space fibration it
recovers |H_1| = p, from a 2x2 block, independently of the gluing
determinants used by recognition, which makes it a useful cross-check.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact_arith import smith_normal_form
from .seifert import SeifertFibration

Word = tuple[tuple[str, int], ...]


class GroupPresentation(NamedTuple):
    generators: tuple[str, ...]
    relators: tuple[Word, ...]


def render_word(word: Word) -> str:
    """Render a relator in exponent notation, e.g. ``q1^3 h^-1``."""
    if not word:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def _commutator(x: str, y: str) -> Word:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def presentation(f: SeifertFibration) -> GroupPresentation:
    """The standard presentation of the fundamental group of the total space.

    The two kinds of base differ only in their surface generators, the
    relators tying those to ``h`` and the surface factor of the product
    relator; the rest is built once, in the order of the module docstring.
    """
    g = f.genus
    if g >= 0:
        surface: list[str] = []
        relators: list[Word] = []
        surface_product: list[tuple[str, int]] = []
        for j in range(1, g + 1):
            a, b = f"a{j}", f"b{j}"
            surface += (a, b)
            relators += (_commutator("h", a), _commutator("h", b))
            surface_product += _commutator(a, b)
    else:
        surface = [f"a{j}" for j in range(1, -g + 1)]
        relators = [((a, -1), ("h", 1), (a, 1), ("h", 1)) for a in surface]
        surface_product = [(a, 2) for a in surface]
    qs = [f"q{i}" for i in range(1, len(f.pairs) + 1)]
    for q in qs:
        relators.append(_commutator("h", q))
    for (alpha, beta), q in zip(f.pairs, qs):
        relators.append(((q, alpha), ("h", beta)))
    product = [(q, 1) for q in qs] + surface_product
    if product:
        relators.append(tuple(product))
    return GroupPresentation((*surface, *qs, "h"), tuple(relators))


def first_homology(f: SeifertFibration) -> tuple[int, ...]:
    """Invariant factors of H_1 (d1 | d2 | ..., 0 meaning a free factor).

    The commutators abelianise to zero rows and the surface part splits off:
    on an orientable base the 2g surface columns are zero, giving Z^2g; with
    k crosscaps, taking column a_1 from the others clears them, giving
    Z^(k-1), and leaves one of the k equal rows 2h.  With pairs, the product
    relator's entry 1 in column q_1 is a unit pivot taken by hand: taking
    that column from the other q columns, and twice it from a_1, splits off
    a unit factor.  The Smith form of the square block left on q_2, ..., q_n,
    h (and a_1) gives the rest; its size does not depend on the genus, and a
    lens fibration leaves the 2x2 block [[-a_1, b_1], [a_2, b_2]].
    """
    g, pairs = f.genus, f.pairs
    n = len(pairs)
    crosscap = [0] if g < 0 else []
    if n:
        (a1, b1), *rest = pairs
        rows = [[-a1] * (n - 1) + [b1] + [-2 * a1] * len(crosscap)]
        for i, (alpha, beta) in enumerate(rest):
            rows.append([0] * i + [alpha] + [0] * (n - 2 - i) + [beta] + crosscap)
        if g < 0:
            rows.append([0] * (n - 1) + [2, 0])
    else:
        rows = [[0, 2], [2, 0]] if g < 0 else []
    factors = smith_normal_form(rows) if rows else [0]
    return tuple(d for d in factors if d != 1) + (0,) * (2 * g if g >= 0 else -g - 1)


class BaseOrbifold(NamedTuple):
    """The base surface together with the multiset of cone-point orders."""

    genus: int
    cone_orders: tuple[int, ...]

    @property
    def surface(self) -> str:
        if self.genus == 0:
            return "S2"
        if self.genus == -1:
            return "RP2"
        kind = "orientable" if self.genus > 0 else "non-orientable"
        return f"{kind} genus {abs(self.genus)}"

    def __str__(self) -> str:
        if not self.cone_orders:
            return self.surface
        return f"{self.surface}({','.join(map(str, self.cone_orders))})"


def base_orbifold(f: SeifertFibration) -> BaseOrbifold:
    """Base surface plus cone orders {|alpha| : |alpha| >= 2}, sorted."""
    orders = sorted(abs(a) for a, _ in f.pairs if abs(a) >= 2)
    return BaseOrbifold(f.genus, tuple(orders))
