"""Fundamental-group presentations and the first-homology oracle.

For an invariant list M(g; (a_1,b_1), ..., (a_n,b_n)) the fundamental group
of the total space has the standard presentation on fibre class h, one
generator q_i per distinguished fibre, and surface generators: for g >= 0

    < a_1, b_1, ..., a_g, b_g, q_1, ..., q_n, h |
      h central, q_i^{a_i} h^{b_i}, q_1...q_n [a_1,b_1]...[a_g,b_g] >

and for g < 0 (non-orientable base, |g| crosscaps)

    < a_1, ..., a_|g|, q_1, ..., q_n, h |
      a_j^-1 h a_j h, [h, q_i], q_i^{a_i} h^{b_i}, q_1...q_n a_1^2...a_|g|^2 >.

First homology is this presentation abelianised: one row of exponent sums
per relator, with the Smith invariant factors read off.  For a lens-space
fibration this recovers |H_1| = p independently of the gluing determinants
used by recognition, which makes it a useful cross-check.
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

    Abelianises :func:`presentation`: each relator becomes its row of
    exponent sums per generator, the all-zero rows of the commutators are
    dropped, and the Smith invariant factors of what is left are read off,
    dropping trivial ones.
    """
    pres = presentation(f)
    ncols = len(pres.generators)
    column = {g: i for i, g in enumerate(pres.generators)}
    rows = []
    for word in pres.relators:
        row = [0] * ncols
        for g, e in word:
            row[column[g]] += e
        if any(row):
            rows.append(row)
    if not rows:
        return (0,) * ncols
    factors = smith_normal_form(rows)
    rank = sum(1 for d in factors if d != 0)
    torsion = tuple(d for d in factors if d > 1)
    return torsion + (0,) * (ncols - rank)


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
