"""Arbitrary-precision exact arithmetic and classical combinatorial numbers.

The universal scalar type is :class:`fractions.Fraction` (always in lowest
terms, positive denominator, canonical zero ``0/1``).  On top of it sit
generalized binomial coefficients, falling factorials over any ring with
``*`` and ``-``, and Stirling numbers of both kinds read from grow-on-demand
tables (the first kind in the *signed* convention, so that
``(x)_j = sum_k s(j,k) x^k``), and forward differences of integer samples.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["binomial", "falling_factorial", "forward_differences", "stirling2", "stirling1_signed"]


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


# Rows 0..N of the Stirling numbers {r brace i} and s(j, k), grown together
# on demand by _grow_stirling and never evicted; the working range is order <= 64.
_STIRLING2: list[list[int]] = [[1]]
_STIRLING1_SIGNED: list[list[int]] = [[1]]


def _grow_stirling(order: int) -> None:
    """Extend both tables through row ``order``."""
    while len(_STIRLING2) <= order:
        r = len(_STIRLING2)
        second = _STIRLING2[-1] + [0]  # row r-1, with {r-1, r} = 0
        first = _STIRLING1_SIGNED[-1] + [0]
        # {r, i} = {r-1, i-1} + i {r-1, i};  s(r, k) = s(r-1, k-1) - (r-1) s(r-1, k)
        _STIRLING2.append([0] + [second[i - 1] + i * second[i] for i in range(1, r + 1)])
        _STIRLING1_SIGNED.append([0] + [first[k - 1] - (r - 1) * first[k] for k in range(1, r + 1)])


def stirling2(r: int, i: int) -> int:
    """Stirling number of the second kind {r brace i}."""
    if r < 0 or i < 0:
        raise ValueError("stirling2: indices must be >= 0")
    if i > r:
        return 0
    if r >= len(_STIRLING2):
        _grow_stirling(r)
    return _STIRLING2[r][i]


def stirling1_signed(j: int, k: int) -> int:
    """Signed Stirling number of the first kind s(j, k)."""
    if j < 0 or k < 0:
        raise ValueError("stirling1_signed: indices must be >= 0")
    if k > j:
        return 0
    if j >= len(_STIRLING1_SIGNED):
        _grow_stirling(j)
    return _STIRLING1_SIGNED[j][k]


def forward_differences(values, degree: int) -> tuple[list[int], int | None]:
    """Delta^0..Delta^degree at ``values[0]``, and the index of the first value they miss, or None.

    ``values`` are integers at equally spaced points.  Each value replaces the last difference
    diagonal; the new difference of order degree + 1 is zero exactly when it lies on the polynomial.
    """
    if len(values) <= degree:
        raise ValueError(f"forward_differences: {len(values)} values cannot fix a polynomial of degree {degree}")
    top, diagonal = [], []  # Delta^k at values[0], and ending at the value last read
    for i, v in enumerate(values):
        for k, d in enumerate(diagonal):
            diagonal[k], v = v, v - d
        if i <= degree:
            top.append(v)
            diagonal.append(v)
        elif v:
            return top, i
    return top, None
