"""Shared helpers for the family modules.

Symbol conventions used by the closed forms:

* ``n``  — the size parameter (interval length, permutation length, ...)
* ``W``  — stands for 2^n (boolean family)
* ``w``  — stands for 2^(n-1) (boolean binomial moments)
* ``mu`` — the domino mean m*n - m/2 - n/2

``uniform_sum_moments`` is the one moment route of the inversion number
and of Binomial(N, 1/2) (``half_binomial_moments``): sums of independent
uniforms, whose cumulants add; it charges nothing, its numeric callers
charge first (``charge_numeric_order``).  Binomial(N, 1/2) is the law of
the boolean 0-cube count (N = 2^n), of the domino boards whose slots form
a forest (N = A, printed only: their numbers come from the perimeter
counts) and of H_n(q) at k = 0.  Its moments are numbers for an integer N
and polynomials for a polynomial N (in W, w or mu), the latter refused
past ``SYMBOLIC_ORDER_GUARD`` before any is built; its PGF is one binomial
row (``half_binomial_pgf``).

Closed-form PGFs are polynomials in q built as integer counts over one
total (``Polynomial("q", counts, total)``): nothing is divided when a PGF
is built, and each coefficient is reduced once, when it is printed.  ``pgf_total`` refuses a
PGF beyond ``PGF_GUARD`` before its row is built.

``mgf_deviation`` is the one loop of the MGF limits, the distance of
G_n(e^{t/sigma}) from e^{t^2/2} on a t grid; a family supplies only G_n
and its evaluations per t point.  The loop refuses a request beyond
``MGF_GUARD`` (``mgf_digits``, the work weighed by the precision) before it
reads a t point, so a ``TGrid`` is never built past the guard.

``normality_digits`` charges a normality grid's precision to the same
guard, before any of its points is built.

``charge`` is the one refusal decision of every size guard: a weight over
its limit is a share of one budget, about 0.3 to 3.7 s of work, refused
past one; the points of a CLI request's normality grid add their largest,
and their floor shares are counted apart (``GRID_POINTS_GUARD``).
``charge_size`` charges a count that may be too large to build, such as an
oracle's sample space, refusing it from a bound on its bit length first.

``Family`` is the type of one entry of ``momentforge.families.FAMILIES``;
each family module defines its own entry as ``FAMILY``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Mapping

import mpmath

from momentforge.errors import SizeGuardError
from momentforge.moment_algebra import cumulants_to_moments
from momentforge.poly_series import Polynomial

if TYPE_CHECKING:
    from momentforge.moment_algebra import MomentVector
    from momentforge.oracle import Histogram

SYMBOL_LEGEND = {
    "n": "size parameter",
    "W": "2^n",
    "w": "2^(n-1)",
    "mu": "m*n - m/2 - n/2",
}


# The current request's normality grid: per point, its n and its largest
# charge (share, name, what, shown weight, limit), and their sum; [] outside a grid.
_grid: list[list] = []
_grid_total = 0.0


@contextmanager
def request_budget():
    """One CLI request: a normality grid opened within it (``grid_point``) is summed, then dropped."""
    global _grid_total
    try:
        yield
    finally:
        _grid.clear()
        _grid_total = 0.0


# Most points of a normality grid.  Each point costs about 1 ms whatever its
# size (its moment vector, mpmath normalization and r + 1 report rows: an
# invmaj point at r = 8 takes 0.4 + 0.25 + 0.2 ms in process on one Intel
# Xeon core), a floor share of about 1/2000 of a budget that no size guard
# weighs.  The floors are counted apart from the size shares, as the printed
# digits are, so no grid's size edge moves; the count is known from the
# grid itself, so a longer grid is refused before any point is built.
GRID_POINTS_GUARD = 2000


def grid_point(n: int) -> None:
    """Charge what follows to a new point n of the request's normality grid."""
    _grid.append([n, 0.0, None])


def charge(weight, limit, name: str, what: str, summed: bool = True, alone: bool = True) -> None:
    """Refuse ``what`` (SizeGuardError) if its ``weight`` is past the size guard ``name`` = ``limit``.

    alone=False: only a grid refuses it.  summed: inside a normality grid
    each point adds its largest share weight / limit, and a grid past one
    budget is refused, naming the largest share; discrete bounds (an
    order, a dimension, an n) pass summed=False.
    """
    global _grid_total
    shown = _shown(weight)
    if alone and weight > limit:
        raise _refusal(what, shown, name, limit)
    if not (summed and _grid):
        return
    point = _grid[-1]
    # capped as an int: 1e300 * limit is inf for a limit past 1.8e8, and a huge int over it overflows
    share = min(weight, 10**300 * limit) / limit
    if share > point[1]:
        _grid_total += share - point[1]
        point[1:] = share, (name, what, shown, limit)
    if _grid_total > 1:
        n, share, (name, what, shown, limit) = max(_grid, key=lambda p: p[1])
        raise SizeGuardError(
            f"the normality grid's points down to n = {_shown(_grid[-1][0])} weigh {_grid_total:.9g} size budgets "
            f"together, past one; its largest share, {share:.3g} at n = {_shown(n)}, is {what} = {shown}, "
            f"against the {name} size guard ({name} = {limit})"
        )


def _shown(weight) -> str | int:
    """A weight as a refusal prints it: exactly, unless too long to print at all."""
    if isinstance(weight, float):
        return f"{weight:.6g}"
    return weight if weight < 2**64 else f"2^{weight.bit_length() - 1} or more"


def _refusal(what: str, shown, name: str, limit) -> SizeGuardError:
    return SizeGuardError(f"{what} = {shown}, beyond the {name} size guard ({name} = {limit})")


def charge_size(bits: int, size: Callable[[], int], limit: int, name: str, what: str) -> None:
    """``charge`` the count ``size()``, of at least ``bits`` bits, building it only if it could be within ``limit``.

    A count past the limit on ``bits`` alone, 2^(bits-1) or more with
    bits > 64, is refused unbuilt and shown as that bound.
    """
    if bits > max(limit.bit_length(), 64):
        raise _refusal(what, f"2^{bits - 1} or more", name, limit)
    charge(size(), limit, name, what)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """The Bernoulli number B_k, exactly (B_1 = -1/2)."""
    return Fraction(*mpmath.bernfrac(k))


def uniform_sum_moments(mean, excess: Callable[[int], object], r_max: int) -> list:
    """Moments of order 0..r_max of a sum X of independent uniforms on {0, ..., i-1}.

    kappa_1 = ``mean`` and kappa_k = B_k excess(k) / k for even k >= 2 (odd
    ones vanish), with excess(k) = sum_i (i^k - 1) over the uniforms' sizes
    i; the moments follow by ``moment_algebra.cumulants_to_moments``.  With
    mean = E[X] the moments are raw, with a zero mean central.  Entries are
    Fractions or Polynomials, in the ring of ``mean`` and ``excess``; a
    negative r_max gives none.  Nothing is charged, as in ``cumulants_to_moments``.
    """
    zero = mean * 0  # 0 in the ring of the entries
    kappa = [zero, mean]
    for k in range(2, r_max + 1):
        kappa.append(zero if k % 2 else bernoulli(k) * excess(k) / k)
    return cumulants_to_moments(kappa[: r_max + 1]) if r_max >= 0 else []


# Bound on r^3 (1000 + b^1.6) for a moment vector of numbers to order r,
# with b the bit length of its scale max(|mean|, sqrt(kappa_2)): building
# it takes about r^2 products of entries of up to r b bits.  The cost was
# fitted in process on one Intel Xeon core, about 4e-11 s a unit from
# b = 5 to b = 5000 (invmaj n = 10 to 10^1000).  The two numeric cumulant
# routes charge it before they build anything: invmaj at every n
# (``invmaj.central_moments``, from sigma^2), and boolean at every k as
# Binomial(2^n, 1/2) at an order of at least 1, before 2^n is built (its
# forms in W are evaluated at W = 2^n).
NUMERIC_ORDER_GUARD = 6 * 10**10


def charge_numeric_order(r_max: int, scale: int) -> None:
    """``charge`` moments to order r_max at a scale of ``scale`` bits to NUMERIC_ORDER_GUARD.

    An order or a scale past 2^64, far past the guard, is weighed as 2^64,
    so that the weight stays within float range.
    """
    charge(
        min(r_max, 2**64) ** 3 * (1000 + min(scale, 2**64) ** 1.6), NUMERIC_ORDER_GUARD, "NUMERIC_ORDER_GUARD",
        f"moments to order {_shown(r_max)} at a scale of {_shown(scale)} bits weigh r^3 (1000 + b^1.6)",
    )


# Highest order of a moment vector built over polynomials: the boolean
# 0-cube count in W or w and the domino mu-forms (``half_binomial_moments``).
# The cost of such a vector grows about as r^3.5; the slowest request
# inside the guard, moments --family boolean --n 10 --r 128, takes 0.4-0.6 s
# as a whole process on one Intel Xeon core (r = 200 takes 1.5 s).
SYMBOLIC_ORDER_GUARD = 128


def half_binomial_moments(count, r_max: int, central: bool) -> list:
    """E[X^j], or E[(X - count/2)^j] if ``central``, for X ~ Binomial(count, 1/2), j <= r_max.

    X is a sum of ``count`` uniforms on {0, 1}, so excess(k) = count (2^k - 1).
    ``count`` is an integer or a Polynomial; for a Polynomial, r_max past
    SYMBOLIC_ORDER_GUARD raises SizeGuardError before any entry is built.
    """
    if isinstance(count, Polynomial):
        charge(r_max, SYMBOLIC_ORDER_GUARD, "SYMBOLIC_ORDER_GUARD", f"the order in {count.symbol}", summed=False)
    mean = count * Fraction(0 if central else 1, 2)
    return uniform_sum_moments(mean, lambda k: count * (2**k - 1), r_max)


def eval_at_n(value, n: int) -> Fraction:
    """Collapse nested polynomials to an exact rational at integer n.

    The outer symbol decides the substitution: W -> 2^n, w -> 2^(n-1),
    n -> n.  ``mu`` is rejected here (it needs both board dimensions).
    """
    while isinstance(value, Polynomial):
        sym = value.symbol
        if sym == "W":
            point: Fraction | int = Fraction(2**n)
        elif sym == "w":
            point = Fraction(2 ** (n - 1))
        elif sym == "n":
            point = Fraction(n)
        else:
            raise ValueError(f"cannot evaluate symbol {sym!r} from n alone")
        value = value.eval(point)
    return value


# Bound on (degree + 1) * bit_length(total) for a closed-form PGF, the size
# of its integer row and of its printed coefficients.  The last request
# inside it on each route takes, as a whole process on one Intel Xeon
# core, 0.5 s (boolean n = 12, 17 MB of JSON), 0.5 to 0.7 s (a 1-by-4472
# domino board, 21 MB) and 1.1 to 1.3 s (invmaj n = 187, 22 MB, of which
# the Mahonian row is about 0.4 s and one gcd per coefficient 0.2 s).
PGF_GUARD = 2 * 10**7


def pgf_total(degree: int, total: Callable[[], int]) -> int:
    """``total()``, the common denominator of a PGF of this degree, within PGF_GUARD.

    A degree past the guard on its own is refused before ``total`` is
    called, so a huge total is never built; a degree too long to print is
    shown as a bound.
    """
    pgf = f"a PGF of degree {_shown(degree)}"
    charge(degree + 1, PGF_GUARD, "PGF_GUARD", f"{pgf}: its coefficients, degree + 1")
    value = total()
    charge((degree + 1) * value.bit_length(), PGF_GUARD, "PGF_GUARD", f"{pgf}: (degree + 1) * bit_length(total)")
    return value


def half_binomial_pgf(N: int) -> Polynomial:
    """((1+q)/2)^N, the PGF of Binomial(N, 1/2): the row C(N, d) over 2^N.

    Raises SizeGuardError beyond PGF_GUARD before the row is built.
    """
    total = pgf_total(N, lambda: 1 << N)
    return Polynomial("q", binomial_row(N), total)


def binomial_row(N: int) -> list[int]:
    """[C(N, 0), ..., C(N, N)], by the multiplicative recurrence."""
    row = [1]
    for d in range(N):
        row.append(row[-1] * (N - d) // (d + 1))
    return row


# Bound on the work of an MGF deviation, in units of one mpmath evaluation
# at 50 digits.  A t point costs its route's own evaluations plus about 8
# units for the Gaussian target, the exponential and the printed row; at
# d > 50 digits each unit weighs (d / 50)^2, which overstates the cost of
# high precision.  invmaj weighs a point as ceil(n/2) evaluations, though
# its fixed-point integer loop costs about 0.08 units per n: the weight
# overstates an invmaj point about sixfold, and is kept so that the guard
# serves and refuses the same requests as when each step was an mpf
# multiply-add (about 0.4 units per n).  The 1-by-n board weighs none.
# The slowest requests inside it are at 50 digits: invmaj n = 2 with 20000
# steps and a 1-by-n board with 25000 steps take 2.0 to 2.4 s as whole
# processes on one Intel Xeon core (the host's speed varies); invmaj
# n = 23512 with 17 steps, the largest n served, takes 0.37 to 0.46 s.
MGF_GUARD = 2 * 10**5


def mgf_digits(evaluations: int, steps: int, dps: int) -> int:
    """The working precision max(dps, 50) of an MGF deviation, within MGF_GUARD.

    ``evaluations`` is the route's own count per t point, ``steps`` the
    number of t points.  Raises SizeGuardError beyond the guard.
    """
    digits = max(dps, 50)
    charge(
        -(-(evaluations + 8) * steps * digits**2 // 50**2), MGF_GUARD, "MGF_GUARD",
        f"{_shown(steps)} t points of {evaluations + 8} evaluations at {_shown(digits)} digits weigh",
    )
    return digits


def normality_digits(points: int, dps: int) -> int:
    """The working precision max(dps, 50) of a normality grid of ``points`` points, within MGF_GUARD.

    A point is normalized at d digits in about (d / 350)^1.6 units, its
    square root and its divisions (fitted in process on one Intel Xeon
    core: 0.027, 0.085 and 0.25 s a point at 5*10^4, 10^5 and 2*10^5
    digits, whatever the order).  A precision past 2^64 digits is weighed
    as 2^64.  Raises SizeGuardError beyond the guard.
    """
    digits = max(dps, 50)
    charge(
        points * (min(digits, 2**64) / 350) ** 1.6, MGF_GUARD, "MGF_GUARD",
        f"{points} grid points normalized at {_shown(digits)} digits weigh points * (digits / 350)^1.6",
    )
    return digits


@dataclass(frozen=True)
class TGrid:
    """``steps`` >= 2 equally spaced exact t from lo to hi, each made as it is read."""

    lo: Fraction
    hi: Fraction
    steps: int

    def __len__(self) -> int:
        return self.steps

    def __iter__(self) -> Iterator[Fraction]:
        return (self.lo + (self.hi - self.lo) * i / (self.steps - 1) for i in range(self.steps))


def mgf_deviation(
    variance: Fraction, evaluations: int, pgf_at: Callable[[], Callable], t_values: Collection, dps: int
):
    """max |G(e^{t/sigma}) - e^{t^2/2}| over the t grid, with sigma^2 = ``variance``.

    ``pgf_at()`` is called once at the working precision (``mgf_digits``)
    and returns u -> G(e^{2u}), read at u = t/(2 sigma); G(1) = 1 needs no
    call.  ``evaluations`` is its cost per t point.  Raises SizeGuardError
    beyond MGF_GUARD before any t is read.  Returns (sup, rows), where rows
    pair each t with its deviation.
    """
    # a TGrid may hold more points than len() can return
    steps = t_values.steps if isinstance(t_values, TGrid) else len(t_values)
    digits = mgf_digits(evaluations, steps, dps)
    rows = []
    sup = mpmath.mpf(0)
    with mpmath.workdps(digits):
        sigma = mpmath.sqrt(mpmath.mpf(variance.numerator) / variance.denominator)
        at = pgf_at()
        for t in t_values:
            tt = mpmath.mpmathify(t)
            target = mpmath.e ** (tt * tt / 2)
            phi = at(tt / (2 * sigma)) if tt else mpmath.mpf(1)
            dev = abs(phi - target)
            rows.append((tt, dev))
            sup = max(sup, dev)
    return sup, rows


@dataclass(frozen=True)
class Family:
    """How every request is answered for one family.

    Each route takes the resolved parameters (``resolve``), the size ``n``
    included.  Moments are asked for through ``families.moment_vector``,
    which checks the parameters and the order against ``max_order`` before
    the ``moments`` route runs.  That route returns the one vector the
    family computes, raw or central; ``moment_vector`` converts it about
    the ``mean`` route, E[X].  ``closed_forms`` prints the symbolic forms of
    the requested kind and is never needed for the values.  ``mgf``, the
    MGF deviation on a t grid, runs the shared loop ``mgf_deviation``, where
    a family has one (invmaj, and domino on a 1-by-n board).  Routes call
    the family's layer functions through module globals at call time, never
    through function objects captured at import, so wrapping a module
    attribute (as the benchmark's tracer does) reaches every call.
    """

    name: str
    params: tuple[str, ...]
    defaults: Mapping[str, int]
    space_size: Callable[[dict], int]
    # a lower bound on bit_length(space_size), cheap even where the size is not
    space_bits: Callable[[dict], float]
    # highest moment order the moment route serves; None: every order
    max_order: Callable[[dict], int | None]
    # the exact moment vector (r_max, params) the family computes, raw or central
    moments: Callable[[int, dict], MomentVector]
    # E[X] (params), the shift between raw and central moments
    mean: Callable[[dict], Fraction]
    # the closed-form PGF, or None where the oracle's histogram serves it
    closed_pgf: Callable[[dict], Polynomial | None]
    # exhaustive histogram plus extra result fields (invmaj: its joint histogram)
    enumerate: Callable[[dict], tuple[Histogram, dict]]
    # seeded sampler (params, samples, seed); None: exhaustive only
    sample: Callable[[dict, int, int], Histogram] | None = None
    # the symbolic moments to print (kind, r_max, params), or None where
    # they are not exact; None: the family prints none
    closed_forms: Callable[[str, int, dict], list[Polynomial] | None] | None = None
    # MGF deviation (params, t_values, dps) -> (sup, rows) by ``mgf_deviation``;
    # None: the family has no MGF route
    mgf: Callable[[dict, Collection, int], tuple] | None = None

    def resolve(self, given: Mapping) -> dict[str, int]:
        """The family's parameters from ``given`` with defaults filled in; others dropped."""
        merged = {**self.defaults, **{name: v for name, v in given.items() if v is not None}}
        return {name: int(merged[name]) for name in self.params if name in merged}

    def pgf(self, params: dict) -> tuple[Polynomial, str]:
        """The PGF and its source: the closed form where there is one, else the oracle."""
        row = self.closed_pgf(params)
        if row is not None:
            return row, "closed-form"
        return self.enumerate(params)[0].pgf(), "oracle"
