"""Conversions among raw, central, and binomial moments, and their normalized values.

``convert`` is the one way between the kinds: raw and central moments are
one binomial shift by the mean apart, and binomial moments are taken about
the mean, from the central ones.  The binomial moment of order r is
E[C(X - center, r)]; each conversion, the shift too, is r steps of one
three-term recurrence over the vector, numbers in integers (``_walk``).
Gaussian targets are (2s)!/(2^s s!) for even order 2s and 0 for odd order;
``normality_report`` measures a grid's normalized moments against them and
returns the values, which the CLI formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import mpmath

from momentforge.poly_series import Polynomial

__all__ = [
    "MomentVector",
    "binomial_to_raw",
    "raw_to_binomial",
    "raw_to_central",
    "central_to_raw",
    "cumulants_to_moments",
    "convert",
    "check_grid",
    "normality_report",
]

KINDS = ("raw", "central", "binomial")


@dataclass(frozen=True)
class MomentVector:
    """Exact moments indexed 0..r_max.

    ``kind`` is one of raw / central / binomial; ``about_mean`` records the
    centering (it is implied True for central, False for raw).  Entries are
    Fractions or Polynomials.
    """

    kind: str
    entries: tuple
    about_mean: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown moment kind {self.kind!r}")
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.kind == "central":
            object.__setattr__(self, "about_mean", True)
        if self.kind == "raw" and self.about_mean:
            raise ValueError("raw moments are about the origin; use kind='central'")
        if self.entries and self.entries[0] != 1:
            raise ValueError(f"moment of order 0 must be 1, got {self.entries[0]!r}")
        centered = self.kind == "central" or (self.kind == "binomial" and self.about_mean)
        if centered and len(self.entries) > 1 and self.entries[1]:
            raise ValueError(
                f"order-1 entry of a mean-centered vector must be 0, got {self.entries[1]!r}"
            )

    @property
    def r_max(self) -> int:
        return len(self.entries) - 1


def _walk(vec: MomentVector, step: Callable[[int, list], list], scale=lambda r: 1) -> list:
    """[g_0 / scale(r) for r <= r_max], g after r steps g <- step(r, g) from the entries of ``vec``.

    Each step maps g_0..g_k to g_0..g_{k-1}, a g_{i+1} + b g_i with small a
    and b: no products of two entries.  Numbers are walked in integers over
    their common denominator, one division per result.
    """
    g, d = list(vec.entries), 1
    if not any(isinstance(x, Polynomial) for x in g):
        d = math.lcm(*(x.denominator for x in g))
        g = [x.numerator * (d // x.denominator) for x in g]
    out = []
    for r in range(vec.r_max + 1):
        g = step(r, g) if r else g
        out.append(Fraction(1, d * scale(r)) * g[0])
    return out


def binomial_to_raw(vec: MomentVector) -> MomentVector:
    """Power moments from binomial moments: M_r = sum_i {r brace i} B_i i!, by x C(x, i) = (i+1) C(x, i+1) + i C(x, i).

    The result is about the same center as the input, so a mean-centered
    binomial vector converts to central power moments.
    """
    if vec.kind != "binomial":
        raise ValueError("binomial_to_raw expects a binomial MomentVector")
    out = _walk(vec, lambda r, g: [(i + 1) * x + i * y for i, (y, x) in enumerate(zip(g, g[1:]))])
    return MomentVector("central" if vec.about_mean else "raw", out, vec.about_mean)


def raw_to_binomial(vec: MomentVector) -> MomentVector:
    """Inverse of :func:`binomial_to_raw`: B_r = E[(X)_r] / r!, by (x)_r = (x)_(r-1) (x - r + 1)."""
    if vec.kind == "binomial":
        raise ValueError("raw_to_binomial expects power moments")
    out = _walk(vec, lambda r, g: [x - (r - 1) * y for y, x in zip(g, g[1:])], math.factorial)
    return MomentVector("binomial", out, about_mean=(vec.kind == "central"))


def _shift(vec: MomentVector, mu) -> list:
    """E[(Y + mu)^r], r <= r_max, from the entries E[Y^i] of ``vec``.

    The one binomial shift between raw and central moments: with mu = p/q,
    E[(qY + p)^r] over q^r, by (q y + p) y^i = q y^(i+1) + p y^i; over
    numbers or Polynomials alike.
    """
    p, q = (mu.numerator, mu.denominator) if isinstance(mu, Fraction) else (mu, 1)
    return _walk(vec, lambda r, g: [q * x + p * y for y, x in zip(g, g[1:])], lambda r: q**r)


def cumulants_to_moments(kappa: Sequence) -> list:
    """Moments m_0..m_r from cumulants kappa_0..kappa_r: m_j = sum_k C(j-1, k-1) kappa_k m_{j-k}.

    kappa_0 = 0 in the ring of the entries, numbers or Polynomials; kappa_1,
    the mean or 0, makes them raw or central.  A zero cumulant costs nothing.
    """
    moments = [kappa[0] ** 0]
    for j in range(1, len(kappa)):
        terms = (math.comb(j - 1, k - 1) * kappa[k] * moments[j - k] for k in range(1, j + 1) if kappa[k])
        moments.append(sum(terms, kappa[0]))
    return moments


def raw_to_central(vec: MomentVector, mu) -> MomentVector:
    """Moments about the mean, the raw ones shifted by -mu; ``mu`` must be the first raw moment."""
    if vec.kind != "raw":
        raise ValueError("raw_to_central expects raw moments")
    if vec.r_max >= 1 and not vec.entries[1] == mu:
        raise ValueError(f"mu={mu!r} does not match first raw moment {vec.entries[1]!r}")
    return MomentVector("central", _shift(vec, -mu))


def central_to_raw(vec: MomentVector, mu) -> MomentVector:
    """Inverse of :func:`raw_to_central`: E[X^r] = sum_i C(r,i) central_i mu^{r-i}."""
    if vec.kind != "central":
        raise ValueError("central_to_raw expects central moments")
    return MomentVector("raw", _shift(vec, mu))


def convert(vec: MomentVector, kind: str, mean) -> MomentVector:
    """The raw or central ``vec`` as moments of ``kind``, X having the mean ``mean``.

    Raw and central moments are one shift by the mean apart; binomial ones,
    E[C(X - mean, r)], come from the central ones.  Nothing converts there
    and back: a vector already of ``kind`` is returned as it is.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown moment kind {kind!r}")
    if vec.kind == kind:
        return vec
    if kind == "raw":
        return central_to_raw(vec, mean)
    central = vec if vec.kind == "central" else raw_to_central(vec, mean)
    return central if kind == "central" else raw_to_binomial(central)


def gaussian_moment(r: int) -> Fraction:
    """Standard-normal moment of order r: (2s)!/(2^s s!) for r=2s, 0 odd."""
    if r < 0:
        raise ValueError("moment order must be >= 0")
    if r % 2:
        return Fraction(0)
    s = r // 2
    return Fraction(math.factorial(2 * s), 2**s * math.factorial(s))


def normalized_moments(vec: MomentVector, dps: int = 50) -> list[mpmath.mpf]:
    """m_r = central_r / central_2^{r/2} as high-precision reals.

    Even orders are computed exactly and then converted; odd orders use an
    arbitrary-precision square root at ``dps`` significant digits (>= 50 by
    contract).
    """
    if vec.kind != "central":
        raise ValueError("normalized_moments expects central moments")
    if vec.r_max < 2:
        raise ValueError("need central moments through order 2")
    var = vec.entries[2]
    if not isinstance(var, Fraction):
        raise ValueError("normalized moments need numeric central moments")
    if var <= 0:
        raise ValueError("zero variance: normalized moments undefined")
    dps = max(dps, 50)
    out = []
    with mpmath.workdps(dps):
        sigma = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
        for r in range(vec.r_max + 1):
            c = vec.entries[r]
            if r % 2 == 0:
                exact = c / var ** (r // 2)
                out.append(mpmath.mpf(exact.numerator) / exact.denominator)
            else:
                base = c / var ** ((r - 1) // 2)
                out.append(mpmath.mpf(base.numerator) / base.denominator / sigma)
    return out


def check_grid(ns: Sequence[int]) -> None:
    """Refuse a normality grid of fewer than 3 points or not strictly increasing in n (ValueError)."""
    if len(ns) < 3:
        raise ValueError("normality report needs a grid of at least 3 points")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("grid points must be strictly increasing in n")


def normality_report(
    grid: Sequence[tuple[int, MomentVector]], r_max: int, threshold: float = 0.05, dps: int = 50
) -> tuple[list[tuple], list[bool]]:
    """|m_r - gaussian target| over an n-grid, and a convergence verdict per order.

    ``grid`` supplies exact central moments for each n, ascending; at least
    3 grid points are required.  Returns the rows (r, n, m_r, target,
    deviation), by n and then r, with m_r and the deviation mpmath reals
    at max(dps, 50) digits and the target exact; and the verdict of each
    order r, True when the deviation at the largest grid point is below the
    threshold and the deviations are non-increasing over the last three
    grid points.
    """
    check_grid([n for n, _ in grid])
    rows = []
    devs: list[list[mpmath.mpf]] = [[] for _ in range(r_max + 1)]
    with mpmath.workdps(max(dps, 50)):
        for n, vec in grid:
            if vec.r_max < r_max:
                raise ValueError(f"grid point n={n} lacks moments up to {r_max}")
            ms = normalized_moments(vec, dps=dps)
            for r in range(r_max + 1):
                target = gaussian_moment(r)
                dev = abs(ms[r] - mpmath.mpf(target.numerator) / target.denominator)
                devs[r].append(dev)
                rows.append((r, n, ms[r], target, dev))
    verdicts = [bool(d[-1] < threshold and d[-3] >= d[-2] >= d[-1]) for d in devs]
    return rows, verdicts
