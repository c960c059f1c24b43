"""Shared helpers for the family modules.

Symbol conventions used by the closed forms:

* ``n``  — the size parameter (interval length, permutation length, ...)
* ``W``  — stands for 2^n (boolean family)
* ``w``  — stands for 2^(n-1) (boolean binomial-moment recurrence)
* ``mu`` — the domino mean m*n - m/2 - n/2

``log_centered_kernel`` is the z-series of log((2+z) / (2*sqrt(1+z))),
the shared multiplicative step of the centered generating functions of
both the 1-by-n board (power n-1) and the boolean 0-cube count
(power 2^n).

Closed-form PGFs are rows of integer counts over one total: ``count_pgf``
divides once per coefficient, and ``pgf_total`` refuses a PGF beyond
``PGF_GUARD`` before its row is built.  ``mgf_digits`` refuses an MGF
deviation beyond ``MGF_GUARD``, its work weighed by the precision.

``Family`` is the type of one entry of ``momentforge.families.FAMILIES``;
each family module defines its own entry as ``FAMILY``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping

from momentforge.errors import SizeGuardError
from momentforge.poly_series import (
    Polynomial,
    TruncatedSeries,
    generalized_binomial_series,
    log_series,
)

if TYPE_CHECKING:
    from momentforge.moment_algebra import MomentVector
    from momentforge.oracle import Histogram

SYMBOL_LEGEND = {
    "n": "size parameter",
    "q": "generating-function variable",
    "z": "shift variable (q = 1 + z)",
    "W": "2^n",
    "w": "2^(n-1)",
    "mu": "m*n - m/2 - n/2",
}


@lru_cache(maxsize=None)
def log_centered_kernel(order: int) -> TruncatedSeries:
    """z-series of log((2 + z) / (2*sqrt(1+z))): z^2/8 - z^3/8 + ..."""
    z = TruncatedSeries.variable(order)
    half = generalized_binomial_series(Fraction(-1, 2), order)
    return log_series((1 + z / 2) * half)


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


def w_to_big_w(poly: Polynomial) -> Polynomial:
    """Rewrite a polynomial in w = 2^(n-1) as a polynomial in W = 2^n."""
    if poly.symbol != "w":
        raise ValueError(f"expected a polynomial in 'w', got {poly.symbol!r}")
    half_W = Polynomial("W", (0, Fraction(1, 2)))
    return poly.compose(half_W)


# Bound on (degree + 1) * bit_length(total) for a closed-form PGF, the size
# of its integer row and of its printed coefficients.  The last request
# inside it on each route (boolean n = 12, invmaj n = 187, a 1-by-4472
# domino board) takes 1.0 to 1.7 s on one Intel Xeon core and prints 17 to
# 22 MB of JSON.
PGF_GUARD = 2 * 10**7


def pgf_total(degree: int, total: Callable[[], int]) -> int:
    """``total()``, the common denominator of a PGF of this degree, within PGF_GUARD.

    Raises SizeGuardError when (degree + 1) * bit_length(total) exceeds
    PGF_GUARD.  A degree past the guard on its own is refused before
    ``total`` is called, so a huge total is never built.
    """
    size = degree + 1
    if size <= PGF_GUARD:
        value = total()
        size *= value.bit_length()
        if size <= PGF_GUARD:
            return value
    raise SizeGuardError(
        f"a PGF of degree {degree} needs (degree + 1) * bit_length(total) >= {size}, "
        f"beyond the PGF_GUARD = {PGF_GUARD} size guard"
    )


def count_pgf(counts: list[int], total: int) -> Polynomial:
    """The PGF sum_d (counts[d] / total) q^d, one division per coefficient."""
    return Polynomial("q", [Fraction(c, total) for c in counts])


def binomial_row(N: int) -> list[int]:
    """[C(N, 0), ..., C(N, N)] by the multiplicative recurrence."""
    row = [1]
    for d in range(N):
        row.append(row[-1] * (N - d) // (d + 1))
    return row


# Bound on the work of an MGF deviation, in units of one mpmath evaluation
# at 50 digits.  A t point costs its route's own evaluations (n sinh-log
# pairs for invmaj, none for the 1-by-n board) plus about 8 units for the
# Gaussian target, the exponential and the printed row; at d > 50 digits
# each unit weighs (d / 50)^2, which overstates the cost of high precision.
# The slowest requests inside it are at 50 digits: invmaj n = 11756 with 17
# steps, or n = 2 with 20000 steps, take 2 to 5 s as whole processes on one
# Intel Xeon core (the host's speed varies); a 1-by-n board with 25000 steps
# about half that.
MGF_GUARD = 2 * 10**5


def mgf_digits(evaluations: int, steps: int, dps: int) -> int:
    """The working precision max(dps, 50) of an MGF deviation, within MGF_GUARD.

    ``evaluations`` is the route's own count per t point, ``steps`` the
    number of t points.  Raises SizeGuardError beyond the guard.
    """
    digits = max(dps, 50)
    work = (evaluations + 8) * steps * digits**2
    if work > MGF_GUARD * 50**2:
        raise SizeGuardError(
            f"{steps} t points of {evaluations + 8} evaluations at {digits} digits weigh "
            f"{work / 50**2:.6g}, beyond the MGF_GUARD = {MGF_GUARD} size guard"
        )
    return digits


@dataclass(frozen=True)
class Family:
    """How every request is answered for one family.

    Each route takes the resolved parameters (``resolve``), the size ``n``
    included.  Routes call the family's layer functions through module
    globals at call time, never through function objects captured at import,
    so wrapping a module attribute (as the benchmark's tracer does) reaches
    every call.
    """

    name: str
    params: tuple[str, ...]
    defaults: Mapping[str, int]
    space_size: Callable[[dict], int]
    # a lower bound on bit_length(space_size), cheap even where the size is not
    space_bits: Callable[[dict], float]
    # highest moment order the moment route serves; None: every order
    max_order: Callable[[dict], int | None]
    # (vector, closed-form texts or None) for kind raw | central | binomial
    moments: Callable[[str, int, dict], tuple[MomentVector, list[str] | None]]
    # the closed-form PGF, or None where the oracle's histogram serves it
    closed_pgf: Callable[[dict], Polynomial | None]
    # exhaustive histogram plus extra result fields (invmaj: its joint histogram)
    enumerate: Callable[[dict], tuple[Histogram, dict]]
    # seeded sampler (params, samples, seed); None: exhaustive only
    sample: Callable[[dict, int, int], Histogram] | None = None
    # central moments (params, r_max) along a normality grid; None: no grid
    normality_grid: Callable[[dict, int], MomentVector] | None = None

    def resolve(self, given: Mapping) -> dict[str, int]:
        """The family's parameters from ``given`` with defaults filled in; others dropped."""
        merged = {**self.defaults, **{name: v for name, v in given.items() if v is not None}}
        return {name: int(merged[name]) for name in self.params if name in merged}

    def pgf(self, params: dict) -> tuple[Polynomial, str]:
        """The PGF and its source: the closed form where there is one, else the oracle."""
        poly = self.closed_pgf(params)
        if poly is not None:
            return poly, "closed-form"
        return self.enumerate(params)[0].pgf(), "oracle"
