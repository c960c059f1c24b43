"""Arbitrary-precision exact arithmetic and classical combinatorial numbers.

The universal scalar type is :class:`fractions.Fraction` (always in lowest
terms, positive denominator, canonical zero ``0/1``), re-exported here as
``Rational``.  On top of it sit generalized binomial coefficients, falling
factorials over any ring with ``*`` and ``-``, and grow-on-demand tables of
Stirling numbers of both kinds (the first kind in the *signed* convention,
so that ``(x)_j = sum_k s(j,k) x^k``).
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

__all__ = [
    "Rational",
    "binomial",
    "falling_factorial",
    "stirling2",
    "stirling1_signed",
    "StirlingCache",
]


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k), generalized to negative n.

    ``k < 0`` is rejected.  For ``0 <= n < k`` the value is 0; for negative
    ``n`` the product formula ``n(n-1)...(n-k+1)/k!`` applies.
    """
    if k < 0:
        raise ValueError(f"binomial: k must be >= 0, got {k}")
    if n >= 0:
        return Fraction(math.comb(n, k))
    num = 1
    for i in range(k):
        num *= n - i
    return Fraction(num, math.factorial(k))


def falling_factorial(x, i: int):
    """x(x-1)...(x-i+1); the multiplicative identity for i=0.

    Works for Fraction, int, or any ring element supporting ``*`` and
    ``-`` with ints (in particular polynomials); the result has the same
    kind as ``x``.
    """
    if i < 0:
        raise ValueError(f"falling_factorial: i must be >= 0, got {i}")
    if i == 0:
        return Fraction(1)
    out = x
    for j in range(1, i):
        out = out * (x - j)
    return out


class StirlingCache:
    """Grow-on-demand tables of Stirling numbers, never evicted.

    Intended working range is order <= 64.
    """

    def __init__(self) -> None:
        self._second: list[list[int]] = [[1]]
        self._first_signed: list[list[int]] = [[1]]

    @property
    def max_order(self) -> int:
        return len(self._second) - 1

    def _grow(self, order: int) -> None:
        while len(self._second) <= order:
            r = len(self._second)
            prev = self._second[r - 1]
            row = [0] * (r + 1)
            for i in range(1, r + 1):
                # {r, i} = {r-1, i-1} + i * {r-1, i}
                row[i] = prev[i - 1] + (i * prev[i] if i < r else 0)
            self._second.append(row)

            sprev = self._first_signed[r - 1]
            srow = [0] * (r + 1)
            for k in range(1, r + 1):
                # s(r, k) = s(r-1, k-1) - (r-1) * s(r-1, k)
                srow[k] = sprev[k - 1] - (r - 1) * (sprev[k] if k < r else 0)
            self._first_signed.append(srow)

    def second_kind(self, r: int, i: int) -> int:
        if r < 0 or i < 0:
            raise ValueError("stirling2: indices must be >= 0")
        if i > r:
            return 0
        if r > self.max_order:
            self._grow(r)
        return self._second[r][i]

    def first_kind_signed(self, j: int, k: int) -> int:
        if j < 0 or k < 0:
            raise ValueError("stirling1_signed: indices must be >= 0")
        if k > j:
            return 0
        if j > self.max_order:
            self._grow(j)
        return self._first_signed[j][k]


_CACHE = StirlingCache()


def stirling2(r: int, i: int) -> int:
    """Stirling number of the second kind {r brace i}."""
    return _CACHE.second_kind(r, i)


def stirling1_signed(j: int, k: int) -> int:
    """Signed Stirling number of the first kind s(j, k)."""
    return _CACHE.first_kind_signed(j, k)
