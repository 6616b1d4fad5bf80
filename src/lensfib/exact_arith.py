"""Exact signed-integer number theory used throughout the package.

Python integers are arbitrary precision, so every operation here is exact
by construction.  The documented contract nevertheless promises that values
stay below a fixed magnitude; :func:`check_magnitude` enforces that promise
loudly instead of letting runaway intermediate values grow silently.  The
threshold defaults to 2**62 and can be lowered for testing through the
``SEIFERT_MAX_INT_GUARD`` environment variable.
"""

from __future__ import annotations

import os

from .errors import InvalidRangeError, NotCoprimeError, OverflowLimitError

_GUARD_ENV = "SEIFERT_MAX_INT_GUARD"
_DEFAULT_LIMIT = 2**62


def _read_limit_from_env() -> int:
    raw = os.environ.get(_GUARD_ENV)
    if raw is None:
        return _DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise InvalidRangeError(f"{_GUARD_ENV} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise InvalidRangeError(f"{_GUARD_ENV} must be positive, got {limit}")
    return limit


try:
    _int_limit = _read_limit_from_env()
except InvalidRangeError:
    # Importing never fails; a bad value is reported where it is re-read,
    # by refresh_int_limit (the CLI re-reads it on every run).
    _int_limit = _DEFAULT_LIMIT


def int_limit() -> int:
    """Current magnitude threshold for the overflow guard."""
    return _int_limit


def refresh_int_limit() -> int:
    """Re-read the guard threshold from the environment (used by the CLI)."""
    global _int_limit
    _int_limit = _read_limit_from_env()
    return _int_limit


def check_magnitude(*values: int) -> None:
    """Fail loudly if any value exceeds the configured magnitude guard."""
    limit = _int_limit
    for v in values:
        if v > limit or -v > limit:
            raise OverflowLimitError(f"|{v}| exceeds the integer guard {limit}")


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(|a|, |b|)."""
    r0, r1 = a, b
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1 != 0:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0 < 0:
        r0, x0, y0 = -r0, -x0, -y0
    check_magnitude(r0, x0, y0)
    return r0, x0, y0


def mod_inverse(a: int, m: int) -> int:
    """The inverse of a modulo m, in [0, m).  By convention 0 for m = 1."""
    if m < 1:
        raise InvalidRangeError(f"modulus must be >= 1, got {m}")
    if m == 1:
        return 0
    g, x, _ = ext_gcd(a, m)
    if g != 1:
        raise NotCoprimeError(f"{a} is not invertible modulo {m} (gcd = {g})")
    return x % m


def unimodular_complement(alpha: int, alpha_prime: int) -> tuple[int, int]:
    """Complete a coprime column (alpha, alpha_prime) to a determinant-1 matrix.

    Returns (beta, beta_prime) with alpha*beta_prime - alpha_prime*beta = 1.
    All solutions differ by integer multiples of (alpha, alpha_prime); the
    deterministic representative has 0 <= beta < |alpha|, and beta = 0 when
    alpha = +-1.
    """
    g, x, y = ext_gcd(alpha, alpha_prime)
    if g != 1:
        raise NotCoprimeError(f"gcd({alpha}, {alpha_prime}) = {g} != 1")
    # alpha*x + alpha_prime*y = 1, so (beta, beta_prime) = (-y, x) is one solution.
    if alpha == 1 or alpha == -1:
        return 0, alpha
    beta = (-y) % abs(alpha)
    num = 1 + alpha_prime * beta
    beta_prime, rem = divmod(num, alpha)
    assert rem == 0, (alpha, alpha_prime, beta)
    check_magnitude(beta, beta_prime)
    return beta, beta_prime


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of an integer matrix.

    Returns min(rows, cols) non-negative entries; trailing zeros indicate
    rank deficiency.  Intended for the small relation matrices arising from
    fibration presentations, not as a general-purpose SNF.
    """
    m = [[int(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise InvalidRangeError("matrix rows have unequal lengths")
    check_magnitude(*(v for row in m for v in row))

    size = min(rows, cols)
    diag = []
    t = 0
    while t < size:
        # Pick the nonzero entry of smallest magnitude as pivot.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = m[i][j]
                if v != 0 and (pivot is None or abs(v) < abs(pivot[2])):
                    pivot = (i, j, v)
        if pivot is None:
            break
        pi, pj, _ = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]

        # Clear row and column t by Euclidean steps, restarting whenever a
        # remainder smaller than the pivot shows up.
        while True:
            p = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    for j in range(t, cols):
                        m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    for i in range(t, rows):
                        m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for i in range(rows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        dirty = True
                        break
            if not dirty:
                break
        check_magnitude(*(v for row in m for v in row))

        # Divisibility: fold any submatrix entry the pivot misses.
        p = abs(m[t][t])
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, cols):
                m[t][j] += m[offender][j]
            continue
        diag.append(p)
        t += 1

    diag.extend(0 for _ in range(size - len(diag)))
    return diag
