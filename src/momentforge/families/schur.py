"""Monochromatic Schur triples of [1, n] under random c-colorings.

A triple {x, y, x+y} is treated as its set of distinct integers, so the
degenerate kind {x, x, 2x} has two elements and indicator probability 1/c,
while the generic kind has three and probability 1/c^2.  The second moment
is a sum over ordered pairs of triples with

    E[X_S1 X_S2] = c / c^p   if the triples share an element,
                   c^2 / c^p otherwise,   with p = |S1 union S2|.

Only intersecting pairs are enumerated (bucketed by shared element);
disjoint pairs are folded into E[X]^2.  One sweep over n adds, at each
step, the triples whose largest element is n and their pairs with the
triples already present, so E[X^2] on the whole grid 1..N costs O(N^3),
the same as at N alone.  Closed forms stop at r = 2: the paper's third
moment is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from momentforge import oracle
from momentforge.errors import SizeGuardError
from momentforge.families.common import Family
from momentforge.moment_algebra import MomentVector, raw_to_binomial, raw_to_central
from momentforge.poly_series import Polynomial, QuasiPolynomial

__all__ = [
    "Triple",
    "triples",
    "first_moment",
    "first_moment_quasi",
    "indicator_first_moment",
    "second_moment",
    "second_moment_grid",
    "SWEEP_GUARD",
]


@dataclass(frozen=True)
class Triple:
    """A Schur triple {x, y, x+y} in [1, n], classified by multiplicity."""

    x: int
    y: int
    total: int
    kind: str  # "S1" for {x, x, 2x}, "S2" for distinct x < y
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.x > self.y or self.x + self.y != self.total:
            raise ValueError("inconsistent triple")
        expected = "S1" if self.x == self.y else "S2"
        if self.kind != expected:
            raise ValueError(f"kind {self.kind} inconsistent with x={self.x}, y={self.y}")


def triples(n: int) -> list[Triple]:
    """All Schur triples with x <= y and x + y <= n."""
    out = []
    for x in range(1, n + 1):
        for y in range(x, n - x + 1):
            if x == y:
                out.append(Triple(x, y, 2 * x, "S1", (x, 2 * x)))
            else:
                out.append(Triple(x, y, x + y, "S2", (x, y, x + y)))
    return out


def first_moment(n: int, c: int) -> Fraction:
    """E[X], split by the parity of n."""
    _check(n, c)
    if n % 2:
        return Fraction((n - 1) * (n - 1 + 2 * c), 4 * c * c)
    return Fraction(n * (n - 2 + 2 * c), 4 * c * c)


def first_moment_quasi(c: int) -> QuasiPolynomial:
    """E[X] as a period-2 quasi-polynomial in n (c fixed numeric)."""
    if c < 2:
        raise ValueError("need c >= 2")
    nn = Polynomial.variable("n")
    odd = (nn - 1) * (nn - 1 + 2 * c) / (4 * c * c)
    even = nn * (nn - 2 + 2 * c) / (4 * c * c)
    return QuasiPolynomial(2, [even, odd])


def indicator_first_moment(n: int, c: int) -> Fraction:
    """E[X] summed triple by triple: 1/c per S1 triple, 1/c^2 per S2."""
    _check(n, c)
    acc = Fraction(0)
    for t in triples(n):
        acc += Fraction(1, c ** (len(t.elements) - 1))
    return acc


def second_moment(n: int, c: int) -> Fraction:
    """E[X^2] at one n: the sweep of :func:`second_moment_grid` up to n."""
    return second_moment_grid([n], c)[0][1]


# Bound on the n a sweep reaches.  The sweep costs O(n^3) pair visits and
# takes about 18 s at n = 600 on one Intel Xeon core.
SWEEP_GUARD = 600


def second_moment_grid(ns: Sequence[int], c: int) -> list[tuple[int, Fraction]]:
    """E[X^2] at every n of ``ns`` (any order, repeats allowed), in that order.

    One sweep over n = 1..max(ns).  Step n adds the triples whose largest
    element is n, {x, n-x, n} and {n/2, n}, and pairs each with the triples
    already present that share one of its elements, walking the
    per-element buckets.  A pair sharing k elements is met there k times,
    and k = |S1| + |S2| - p recovers the multiplicity, so no pair set is
    kept.  E[X^2] is read off the running pair counts after every step.
    Raises SizeGuardError when max(ns) exceeds SWEEP_GUARD.
    """
    ns = list(ns)
    for n in ns:
        _check(n, c)
    top = max(ns, default=0)
    if top > SWEEP_GUARD:
        raise SizeGuardError(
            f"the Schur E[X^2] sweep to n = {top} is beyond the SWEEP_GUARD "
            f"size guard of n <= {SWEEP_GUARD}"
        )
    masks: list[int] = []
    sizes: list[int] = []
    by_elem: list[list[int]] = [[] for _ in range(top + 1)]
    # multi[s*8 + p] counts intersecting unordered pairs with multiplicity
    multi = [0] * 64
    values = [Fraction(0)]
    for n in range(1, top + 1):
        new = [(x, n - x, n) for x in range(1, (n + 1) // 2)]
        if n % 2 == 0:
            new.append((n // 2, n))
        for elements in new:
            mask = sum(1 << e for e in elements)
            st = len(elements)
            for e in elements:
                for u in by_elem[e]:
                    s = st + sizes[u]
                    multi[s * 8 + s - (mask & masks[u]).bit_count()] += 1
            for e in elements:
                by_elem[e].append(len(masks))
            masks.append(mask)
            sizes.append(st)
        values.append(_read_off(n // 2, len(masks) - n // 2, multi, c))
    return [(n, values[n]) for n in ns]


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


def _moments(kind: str, r_max: int, p: dict) -> tuple[MomentVector, None]:
    n, c = p["n"], p["c"]
    e1 = first_moment(n, c)
    entries = [Fraction(1), e1]
    if r_max >= 2:
        entries.append(second_moment(n, c))
    raw = MomentVector("raw", entries[: r_max + 1], family="schur", params=p)
    if kind == "raw":
        return raw, None
    central = raw_to_central(raw, e1)
    return (central if kind == "central" else raw_to_binomial(central)), None


FAMILY = Family(
    name="schur",
    params=("n", "c"),
    defaults={"c": 2},
    space_size=lambda p: p["c"] ** p["n"],
    space_bits=lambda p: p["n"] * math.log2(p["c"]),
    max_order=lambda p: 2,
    moments=_moments,
    closed_pgf=lambda p: None,
    enumerate=lambda p: (oracle.enumerate_schur(p["n"], p["c"]), {}),
)
