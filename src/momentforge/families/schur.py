"""Monochromatic Schur triples of [1, n] under random c-colorings.

A triple {x, y, x+y} is treated as its set of distinct integers, so the
degenerate kind {x, x, 2x} has two elements and indicator probability 1/c,
while the generic kind has three and probability 1/c^2.  There are
k2 = floor(n/2) triples of two elements and k3 = floor((n-1)^2/4) of three
(one per pair x < y with x + y <= n), so c^2 E[X] = a = k2 c + k3.

E[X^2] sums P(S and T monochromatic) over ordered pairs of triples.  Two
facts reduce it to three floor counts:

* Triples sharing at most one element are independent:
  P = c^(1-|S|) c^(1-|T|).  Disjoint ones trivially; if they share e, S is
  monochromatic with probability c^(1-|S|), and then T is exactly when its
  |T| - 1 other elements, none in S, take the color of e.
* Distinct triples share at most two elements, and k3 unordered pairs of
  them share two.  {x, 2x} lies in a three-element triple only as
  {x, 2x, 3x}: t = floor(n/3) pairs.  A pair {p < q} lies in {p, q, p+q}
  when p + q <= n, in {q-p, p, q} when q != 2p, and in no other triple, so
  two three-element triples share it exactly when p + q <= n and q != 2p:
  k3 - t pairs, as the pairs p < q with p + q <= n are the k3 triples'
  two smaller elements.  Such a pair's union has |S| + |T| - 2 elements,
  so P = c^(3-|S|-|T|), c times the independent value.

So, over c^4: the diagonal gives a c^2, the ordered pairs S != T weighed
as independent a^2 - (k2 c^2 + k3), and each ordered pair sharing two
elements adds c^2 - c ({x, 2x} in {x, 2x, 3x}) or c - 1 (two
three-element triples):

    c^4 E[X^2] = a c^2 + a^2 - k2 c^2 - k3 + 2t(c^2 - c) + 2(k3 - t)(c - 1).

O(1) integer arithmetic at any n (checked in the tests against a walk
over every intersecting pair and the exhaustive oracle).  Closed forms
stop at r = 2: the paper's third moment is out of scope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from momentforge import oracle
from momentforge.families.common import Family
from momentforge.moment_algebra import MomentVector

__all__ = ["FAMILY", "second_moment", "second_moment_grid"]


def _counts(n: int, c: int) -> tuple[int, int]:
    """k2 and k3, the triples of two and of three elements in [1, n]."""
    if n < 1:
        raise ValueError("need n >= 1")
    if c < 2:
        raise ValueError("need c >= 2")
    return n // 2, (n - 1) ** 2 // 4


def first_moment(n: int, c: int) -> Fraction:
    """E[X] = (k2 c + k3) / c^2."""
    k2, k3 = _counts(n, c)
    return Fraction(k2 * c + k3, c * c)


def second_moment(n: int, c: int) -> Fraction:
    """E[X^2] by the module's closed form."""
    k2, k3 = _counts(n, c)
    t = n // 3
    a = k2 * c + k3  # c^2 E[X]
    total = a * c * c + a * a - k2 * c * c - k3 + 2 * t * (c * c - c) + 2 * (k3 - t) * (c - 1)
    return Fraction(total, c**4)


def second_moment_grid(ns: Sequence[int], c: int) -> list[tuple[int, Fraction]]:
    """E[X^2] at every n of ``ns``, in that order."""
    return [(n, second_moment(n, c)) for n in ns]


def _max_order(p: dict) -> int:
    """2, the highest order of the closed forms, once n and c are checked."""
    _counts(p["n"], p["c"])
    return 2


def _moments(r_max: int, p: dict) -> MomentVector:
    n, c = p["n"], p["c"]
    entries = [Fraction(1), first_moment(n, c)]
    if r_max >= 2:
        entries.append(second_moment(n, c))
    return MomentVector("raw", entries[: r_max + 1])


FAMILY = Family(
    name="schur",
    params=("n", "c"),
    defaults={"c": 2},
    space_size=lambda p: p["c"] ** p["n"],
    space_bits=lambda p: p["n"] * math.log2(p["c"]),
    max_order=_max_order,
    moments=_moments,
    mean=lambda p: first_moment(p["n"], p["c"]),
    closed_pgf=lambda p: None,
    enumerate=lambda p: (oracle.enumerate_schur(p["n"], p["c"]), {}),
)
