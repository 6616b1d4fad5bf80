"""Fundamental-group presentations and the first-homology oracle.

For an invariant list M(g; (a_1,b_1), ..., (a_n,b_n)) the fundamental group
of the total space has the standard presentation on fibre class h, one
generator q_i per distinguished fibre, and surface generators: for g >= 0

    < a_1, b_1, ..., a_g, b_g, q_1, ..., q_n, h |
      h central, q_i^{a_i} h^{b_i}, q_1...q_n [a_1,b_1]...[a_g,b_g] >

and for g < 0 (non-orientable base, |g| crosscaps)

    < a_1, ..., a_|g|, q_1, ..., q_n, h |
      a_j^-1 h a_j h, [h, q_i], q_i^{a_i} h^{b_i}, q_1...q_n a_1^2...a_|g|^2 >.

Abelianising and taking Smith invariant factors gives first homology; for a
lens-space fibration this recovers |H_1| = p independently of the gluing
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

    def __str__(self) -> str:
        rels = ", ".join(render_word(w) for w in self.relators)
        return f"< {', '.join(self.generators)} | {rels} >"


def render_word(word: Word) -> str:
    """Render a relator in exponent notation, e.g. ``q1^3 h^-1``."""
    if not word:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word)


def _commutator(x: str, y: str) -> Word:
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def presentation(f: SeifertFibration) -> GroupPresentation:
    """The standard presentation of the fundamental group of the total space."""
    g = f.genus
    n = len(f.pairs)
    qs = tuple(f"q{i + 1}" for i in range(n))

    if g >= 0:
        surface = []
        for j in range(1, g + 1):
            surface += [f"a{j}", f"b{j}"]
        gens = tuple(surface) + qs + ("h",)
        relators: list[Word] = [_commutator("h", x) for x in gens[:-1]]
        for (alpha, beta), q in zip(f.pairs, qs):
            relators.append(((q, alpha), ("h", beta)))
        product: list[tuple[str, int]] = [(q, 1) for q in qs]
        for j in range(1, g + 1):
            product += list(_commutator(f"a{j}", f"b{j}"))
        if product:
            relators.append(tuple(product))
        return GroupPresentation(gens, tuple(relators))

    crosscaps = tuple(f"a{j}" for j in range(1, -g + 1))
    gens = crosscaps + qs + ("h",)
    relators = [((a, -1), ("h", 1), (a, 1), ("h", 1)) for a in crosscaps]
    relators += [_commutator("h", q) for q in qs]
    for (alpha, beta), q in zip(f.pairs, qs):
        relators.append(((q, alpha), ("h", beta)))
    product = [(q, 1) for q in qs] + [(a, 2) for a in crosscaps]
    relators.append(tuple(product))
    return GroupPresentation(gens, tuple(relators))


def abelianized_relations(f: SeifertFibration) -> tuple[int, list[list[int]]]:
    """Generator count and relation rows of the abelianised presentation.

    Column order matches :func:`presentation`: surface generators, then
    q_1..q_n, then h.  Commutator relators vanish and are omitted; for a
    non-orientable base each crosscap relation abelianises to 2h = 0.
    """
    g = f.genus
    n = len(f.pairs)
    nsurface = 2 * g if g >= 0 else -g
    ncols = nsurface + n + 1
    rows = []
    if g < 0:
        for _ in range(-g):
            row = [0] * ncols
            row[-1] = 2
            rows.append(row)
    for i, (alpha, beta) in enumerate(f.pairs):
        row = [0] * ncols
        row[nsurface + i] = alpha
        row[-1] = beta
        rows.append(row)
    product = [0] * ncols
    for i in range(n):
        product[nsurface + i] = 1
    if g < 0:
        for j in range(-g):
            product[j] = 2
    if any(product):
        rows.append(product)
    return ncols, rows


def first_homology(f: SeifertFibration) -> tuple[int, ...]:
    """Invariant factors of H_1 (d1 | d2 | ..., 0 meaning a free factor).

    Abelianises the presentation into an integer relation matrix and reads
    off its Smith invariant factors, dropping trivial ones.
    """
    ncols, rows = abelianized_relations(f)
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
