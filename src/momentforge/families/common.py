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

``Family`` is the type of one entry of ``momentforge.families.FAMILIES``;
each family module defines its own entry as ``FAMILY``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping

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
