"""Exact signed-integer number theory used throughout the package: modular
inverses (``pow(a, -1, m)`` and ``math.gcd`` do the work), the completion of
a coprime column to a determinant-one matrix, and Smith normal form.

Python integers are arbitrary precision, so every operation here is exact
by construction.  The documented contract nevertheless promises that values
stay below a fixed magnitude; :func:`check_magnitude` enforces that promise
loudly.  Smith normal form checks its entries after each pivot, not on
entry, the factors it reads off a last block of at most 2x2, and each factor
its divisibility chain changes; each other function here checks its
arguments.  Where that trips on a square matrix with nonzero determinant D,
the same elimination reruns with entries kept modulo D; a singular matrix,
or a D beyond the guard, raises.
:func:`read_int` reads integer text, refusing one too long to convert.
The threshold is the constant 2**62.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .errors import InvalidRangeError, NotCoprimeError, OverflowLimitError

# The magnitude contract: a constant, read by each check when it runs.
_int_limit = 2**62


def check_magnitude(*values: int) -> None:
    """Fail loudly if any value exceeds the magnitude guard."""
    limit = _int_limit
    for v in values:
        if v > limit or -v > limit:
            raise OverflowLimitError(f"|{v}| exceeds the integer guard {limit}")


_DIGITS = re.compile(r"\s*([+-]?)(\d(?:_?\d)*)\s*")


def read_int(text: str) -> int:
    """``int(text)``, refusing first, by its length, an integer with more
    significant digits than twice the guard's, on which ``int`` is slow or
    raises a ValueError.  Longer text that ``int`` takes meets the regex and
    is converted from its sign and significant digits: leading zeros and
    underscores never count.  The value of shorter text is checked where used."""
    most = 2 * len(str(_int_limit))
    if len(text) > most:
        match = _DIGITS.fullmatch(text)
        if match:
            sign, digits = match.groups()
            digits = digits.replace("_", "").lstrip("0") or "0"
            if len(digits) > most:
                raise OverflowLimitError(f"a {len(digits)}-digit integer exceeds the "
                                         f"integer guard {_int_limit}")
            text = sign + digits
    return int(text)


def mod_inverse(a: int, m: int) -> int:
    """The inverse of a modulo m, in [0, m).  By convention 0 for m = 1."""
    check_magnitude(a, m)
    if m < 1:
        raise InvalidRangeError(f"modulus must be >= 1, got {m}")
    g = gcd(a, m)
    if g != 1:
        raise NotCoprimeError(f"{a} is not invertible modulo {m} (gcd = {g})")
    return pow(a, -1, m)


def unimodular_complement(alpha: int, alpha_prime: int) -> tuple[int, int]:
    """Complete a coprime column (alpha, alpha_prime) to a determinant-1 matrix.

    Returns (beta, beta_prime) with alpha*beta_prime - alpha_prime*beta = 1.
    All solutions differ by integer multiples of (alpha, alpha_prime); the
    deterministic representative has 0 <= beta < |alpha|, and beta = 0 when
    alpha = +-1.  Both are bounded in magnitude by the arguments, so they
    need no guard of their own.
    """
    check_magnitude(alpha, alpha_prime)
    g = gcd(alpha, alpha_prime)
    if g != 1:
        raise NotCoprimeError(f"gcd({alpha}, {alpha_prime}) = {g} != 1")
    if alpha == 0:
        raise InvalidRangeError(f"alpha must be non-zero, got ({alpha}, {alpha_prime})")
    # alpha_prime*beta = -1 (mod alpha), so alpha divides 1 + alpha_prime*beta.
    beta = pow(-alpha_prime, -1, abs(alpha))
    return beta, (1 + alpha_prime * beta) // alpha


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Returns min(rows, cols) non-negative entries; trailing zeros indicate
    rank deficiency.  Intended for the small relation matrices arising from
    fibration presentations, not as a general-purpose SNF: rows must have
    equal lengths, and entries meet the guard after each pivot, not on entry.
    A last block of at most 2x2 is not eliminated step by step: its factors
    are the gcd g of its entries and, for 2x2, |det|/g, and meet the guard.
    So does each factor that the divisibility chain d1 | d2 | ... changes.
    """
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    try:
        diag = _eliminate([row[:] for row in m], rows, cols)
    except OverflowLimitError:
        # |det| annihilates the cokernel, so the same elimination may keep
        # its entries modulo D = |det| (Cohen, section 2.4).
        d = _abs_determinant(m) if rows == cols else 0
        if not 0 < d <= _int_limit:
            raise
        diag = [gcd(v, d) for v in _eliminate(m, rows, cols, d)]
    # gcd and lcm turn the diagonal into the chain of invariant factors; a
    # unit already divides the rest, and only an lcm can outgrow the guard.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[i] == 1:
                break
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
            check_magnitude(diag[j])
    return diag


def _abs_determinant(m: list[list[int]]) -> int:
    """|det m| by Bareiss fraction-free elimination (Cohen, section 2.2)."""
    a = [row[:] for row in m]
    n, previous = len(a), 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return abs(a[-1][-1])


def _eliminate(m: list[list[int]], rows: int, cols: int, modulus: int = 0) -> list[int]:
    """A diagonal, zeros last, that row and column operations bring ``m`` to.
    The entries are checked against the guard after each pivot, or with a
    ``modulus`` reduced to symmetric residues by every operation.  A last
    block of at most 2x2 is finished in closed form, with no steps."""
    limit = _int_limit
    half = modulus // 2
    size = min(rows, cols)
    diag = []
    for t in range(size):
        if rows - t <= 2 and cols - t <= 2:
            # With at most two rows or columns left, the invariant factors are
            # the determinantal divisors: the gcd g of the entries, |det|/g for 2x2.
            g = gcd(*m[t][t:], *m[-1][t:])
            diag.append(g)
            if rows - t == cols - t == 2:
                (a, b), (c, d) = m[t][t:], m[-1][t:]
                diag.append(abs(a * d - b * c) // g if g else 0)
            for v in diag[t:]:
                if v > limit and not modulus:
                    raise OverflowLimitError(f"|{v}| exceeds the integer guard {limit}")
            break
        # The nonzero entry of least magnitude is the pivot; a unit ends the search.
        pivot = 0
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (v < pivot or not pivot):
                    pivot, pi, pj = v, i, j
            if pivot == 1:
                break
        if not pivot:
            break
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]

        # Clear row and column t by Euclidean steps, restarting whenever a
        # remainder smaller than the pivot shows up.
        while True:
            top = m[t]
            p = top[t]
            for i in range(t + 1, rows):
                row = m[i]
                if row[t]:
                    q = row[t] // p
                    for j in range(t, cols):
                        row[j] -= q * top[j]
                    if modulus:
                        row[t:] = [(v + half) % modulus - half for v in row[t:]]
                    if row[t]:
                        m[t], m[i] = row, top
                        break
            else:
                for j in range(t + 1, cols):
                    if top[j]:
                        q = top[j] // p
                        for row in m[t:]:
                            row[j] -= q * row[t]
                            if modulus:
                                row[j] = (row[j] + half) % modulus - half
                        if top[j]:
                            for row in m:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    break
        for row in m[t:]:
            for v in row:
                if v > limit or -v > limit:
                    raise OverflowLimitError(f"|{v}| exceeds the integer guard {limit}")
        diag.append(abs(m[t][t]))

    return diag + [0] * (size - len(diag))
