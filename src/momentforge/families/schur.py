"""Monochromatic Schur triples of [1, n] under random c-colorings.

A triple {x, y, x+y} is treated as its set of distinct integers, so the
degenerate kind {x, x, 2x} has two elements and indicator probability 1/c,
while the generic kind has three and probability 1/c^2.  The second moment
is a sum over ordered pairs of triples with

    E[X_S1 X_S2] = c / c^p   if the triples share an element,
                   c^2 / c^p otherwise,   with p = |S1 union S2|.

The pair sum is organized so that only intersecting pairs are enumerated
(bucketed by shared element); disjoint pairs are folded into E[X]^2.
Closed forms stop at r = 2: the paper's third moment is out of scope.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from momentforge import oracle
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
    """E[X^2] by direct summation over ordered pairs of triples.

    Only intersecting pairs are enumerated: a pair sharing k elements is
    met exactly k times when walking the per-element membership lists, and
    k = |S1| + |S2| - p recovers the multiplicity, so no pair set is kept.
    """
    _check(n, c)
    masks: list[int] = []
    sizes: list[int] = []
    by_elem: list[list[int]] = [[] for _ in range(n + 1)]
    for idx, t in enumerate(triples(n)):
        mask = 0
        for e in t.elements:
            mask |= 1 << e
            by_elem[e].append(idx)
        masks.append(mask)
        sizes.append(len(t.elements))

    # multi[s*8 + p] counts intersecting unordered pairs with multiplicity
    multi = [0] * 64
    for bucket in by_elem:
        ln = len(bucket)
        for a in range(ln):
            t = bucket[a]
            mt = masks[t]
            st = sizes[t]
            for b in range(a + 1, ln):
                u = bucket[b]
                s = st + sizes[u]
                p = s - (mt & masks[u]).bit_count()
                multi[s * 8 + p] += 1

    e1 = Fraction(0)
    diag = Fraction(0)  # sum over S of c^(2 - 2|S|)
    for z in sizes:
        e1 += Fraction(1, c ** (z - 1))
        diag += Fraction(1, c ** (2 * z - 2))

    total = e1 + e1 * e1 - diag
    for s in range(4, 7):
        for p in range(2, s):
            m = multi[s * 8 + p]
            if not m:
                continue
            pairs = m // (s - p)
            total += 2 * pairs * (Fraction(1, c ** (p - 1)) - Fraction(1, c ** (s - 2)))
    return total


def second_moment_grid(
    ns: Sequence[int], c: int, workers: int | None = None
) -> list[tuple[int, Fraction]]:
    """E[X^2] over a grid of n values, optionally in parallel processes.

    The reduction is a deterministic ordered gather, so the worker count
    never changes the result.
    """
    ns = list(ns)
    if workers and workers > 1 and len(ns) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_second_moment_task, [(n, c) for n in ns]))
        return list(zip(ns, values))
    return [(n, second_moment(n, c)) for n in ns]


def _second_moment_task(args: tuple[int, int]) -> Fraction:
    return second_moment(*args)


def _check(n: int, c: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if c < 2:
        raise ValueError("need c >= 2")


def _moments(kind: str, r_max: int, p: dict) -> tuple[MomentVector, None]:
    n, c = p["n"], p["c"]
    e1 = first_moment(n, c)
    entries = [Fraction(1), e1, second_moment(n, c)][: r_max + 1]
    raw = MomentVector("raw", entries, family="schur", params=p)
    if kind == "raw":
        return raw, None
    if r_max < 1:
        return MomentVector(kind, [Fraction(1)], family="schur", params=p, about_mean=True), None
    central = raw_to_central(raw, e1)
    return (central if kind == "central" else raw_to_binomial(central)), None


FAMILY = Family(
    name="schur",
    params=("n", "c"),
    defaults={"c": 2},
    space_size=lambda p: p["c"] ** p["n"],
    max_order=lambda p: 2,
    moments=_moments,
    closed_pgf=lambda p: None,
    enumerate=lambda p: (oracle.enumerate_schur(p["n"], p["c"]), {}),
)
