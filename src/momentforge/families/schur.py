"""Monochromatic Schur triples of [1, n] under random c-colorings.

A triple {x, y, x+y} is treated as its set of distinct integers, so the
degenerate kind {x, x, 2x} has two elements and indicator probability 1/c,
while the generic kind has three and probability 1/c^2.  The second moment
is a sum over ordered pairs of triples with

    E[X_S1 X_S2] = c / c^p   if the triples share an element,
                   c^2 / c^p otherwise,   with p = |S1 union S2|.

Disjoint pairs are folded into E[X]^2, so E[X^2] is read off the counts
of the two kinds of triples and of the intersecting pairs by the sizes of
the two triples and of their union (``_read_off``).  None of these counts
depends on c.  One sweep over n adds, at each step, the triples whose
largest element is n; their pairs with the triples already present are
counted from how many triples there are of each kind and how many pass
through n/2, in O(1) arithmetic per step, with no triple visited, so the
counts for every n <= N cost O(N), once for every c.  A request reads off
only the n and c it asks for.  Closed forms stop at r = 2: the paper's
third moment is out of scope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from momentforge import oracle
from momentforge.families.common import Family, charge
from momentforge.moment_algebra import MomentVector

__all__ = ["FAMILY", "second_moment", "second_moment_grid"]


def first_moment(n: int, c: int) -> Fraction:
    """E[X], split by the parity of n."""
    _check(n, c)
    if n % 2:
        return Fraction((n - 1) * (n - 1 + 2 * c), 4 * c * c)
    return Fraction(n * (n - 2 + 2 * c), 4 * c * c)


def second_moment(n: int, c: int) -> Fraction:
    """E[X^2] at one n, read from the sweep of :func:`second_moment_grid`."""
    return second_moment_grid([n], c)[0][1]


# Bound on the n a sweep reaches.  The sweep costs O(1) arithmetic per n
# (about 0.1 s to n = 50000), but a fit reads off and checks every n of its
# range: fit --family schur --n-min 1 --n-max 50000 takes 2.2-3.4 s as a
# whole process on one Intel Xeon core, and moments --n 50000 about 0.35 s.
SWEEP_GUARD = 50000

# The pair counts a step changes, as indices s*8 + p of ``_read_off``'s multi.
_KEYS = (35, 43, 44, 52, 53)

# (k3, multi[35], multi[43], multi[44], multi[52], multi[53]) at n = 0..N
# from the longest sweep run so far.  No count depends on c, and a sweep's
# counts at n do not depend on where it stops, so one sweep serves every c
# and every n <= N.
_SWEPT: list[tuple[int, ...]] = []


def second_moment_grid(ns: Sequence[int], c: int) -> list[tuple[int, Fraction]]:
    """E[X^2] at every n of ``ns`` (any order, repeats allowed), in that order.

    Every n is read off the counts of one sweep over n = 1..N with
    N >= max(ns): the longest sweep already run, or a new one to max(ns).
    Raises SizeGuardError when max(ns) exceeds SWEEP_GUARD.
    """
    global _SWEPT
    ns = list(ns)
    for n in ns:
        _check(n, c)
    top = max(ns, default=0)
    charge(top, SWEEP_GUARD, "SWEEP_GUARD", "the n the Schur E[X^2] sweep reaches", summed=False)
    if len(_SWEPT) <= top:
        _SWEPT = _sweep(top)
    out = []
    for n in ns:
        k3, *pairs = _SWEPT[n]
        multi = [0] * 64
        for key, count in zip(_KEYS, pairs):
            multi[key] = count
        out.append((n, _read_off(n // 2, k3, multi, c)))
    return out


def _sweep(top: int) -> list[tuple[int, ...]]:
    """The c-free counts of ``_SWEPT`` at n = 0..top, O(1) arithmetic per n.

    Two triples S and U with p = |S union U| add s - p to multi[s*8 + p],
    s = |S| + |U|: a walk over per-element buckets meets a pair once per
    shared element, and these are its visits, counted.  Step n adds
    the m = floor((n-1)/2) triples {x, n-x, n}, then {h, n} if n = 2h.
    At its start, k2 = m and k3 count the present triples of two and three
    elements, all inside [1, n-1]; none contains n.

    * Visits of the new three-element triples.  Their elements x and n-x
      cover [1, n-1] minus {h} once, and each earlier new triple of the
      step shares n alone, so they meet three-element triples
      v3 = 3 k3 - c3(h) [n even] + m(m-1)/2 times and two-element ones
      v2 = 2 k2 - c2(h) [n even] times.
    * Present triples through h = n/2: c3(h) = (ceil(h/2) - 1) + (h - 1)
      (h = a + b with a < b, or {b, h, b + h} with b < h) and
      c2(h) = [h even] ({h/2, h}; {h, n} is not present yet).
    * A present triple shares two elements with {x, n-x, n} only through
      {x, n-x}: {x, 2x} when n = 3x, {n-2x, x, n-x} otherwise.  So
      d2 = [3 | n] and d3 = m - d2 pairs share two elements and are
      visited twice; every other visit shares one.
    * {h, n} meets the m new triples through n and the c3(h) + c2(h)
      present ones through h, each sharing one element.

    So multi[44] (a two- and a three-element triple sharing one element)
    gains v2 - 2 d2, multi[43] gains 2 d2, multi[53] v3 - 2 d3 and
    multi[52] 2 d3; then {h, n} adds c2(h) to multi[35] and c3(h) + m to
    multi[44].

    The counts are exact for every n >= 1 (checked in the tests against
    the bucket walk and the exhaustive oracle).
    """
    k3 = m35 = m43 = m44 = m52 = m53 = 0
    counts = [(0, 0, 0, 0, 0, 0)]
    for n in range(1, top + 1):
        m = (n - 1) // 2
        h, odd = divmod(n, 2)
        c3h = 0 if odd else (h + 1) // 2 + h - 2
        c2h = 0 if odd else 1 - h % 2
        d2 = 0 if n % 3 else 1
        d3 = m - d2
        m44 += 2 * m - c2h - 2 * d2  # k2 = m
        m43 += 2 * d2
        m53 += 3 * k3 - c3h + m * (m - 1) // 2 - 2 * d3
        m52 += 2 * d3
        k3 += m
        if not odd:
            m35 += c2h
            m44 += c3h + m
        counts.append((k3, m35, m43, m44, m52, m53))
    return counts


def _read_off(k2: int, k3: int, multi: list[int], c: int) -> Fraction:
    """E[X^2] from k2 triples {x, 2x}, k3 of three elements and the pair counts.

    Over ordered pairs S, T: the diagonal gives E[X], S != T gives
    c^(2-s) as if disjoint, and an intersecting pair adds c^(1-p) - c^(2-s).
    Every term is an integer over c^4.
    """
    a = k2 * c + k3  # c^2 E[X]
    total = a * c * c + a * a - (k2 * c * c + k3)
    for s in range(4, 7):
        for p in range(2, s):
            total += 2 * (multi[s * 8 + p] // (s - p)) * (c ** (5 - p) - c ** (6 - s))
    return Fraction(total, c**4)


def _check(n: int, c: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if c < 2:
        raise ValueError("need c >= 2")


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
    max_order=lambda p: 2,
    moments=_moments,
    mean=lambda p: first_moment(p["n"], p["c"]),
    closed_pgf=lambda p: None,
    enumerate=lambda p: (oracle.enumerate_schur(p["n"], p["c"]), {}),
)
