"""Reconstruct (quasi-)polynomial closed forms from exact data points.

A fit is accepted only when it reproduces held-out verification points
bit-for-bit; the period and degree bound remain recorded hypotheses in the
provenance block.  Leading coefficients of asymptotic laws are estimated
separately by Neville extrapolation in 1/n, which is exact on polynomial
input and flags a non-convergent tail otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from momentforge.errors import FitVerificationError, UnderdeterminedFitError
from momentforge.poly_series import Polynomial, QuasiPolynomial

__all__ = [
    "FitSpec",
    "FitResult",
    "fit_quasi_polynomial",
    "LeadingTermResult",
    "fit_leading_term",
]


@dataclass(frozen=True)
class FitSpec:
    """Inputs of a quasi-polynomial fit.

    Per residue class the lowest ``degree + 1`` sample points are the
    interpolation nodes; everything after them is held out, and at least
    ``verify_count`` held-out points are required.
    """

    period: int
    degree: int
    samples: tuple[tuple[int, Fraction], ...]
    verify_count: int = 3

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.degree < 0:
            raise ValueError("degree bound must be >= 0")
        if self.verify_count < 2:
            raise ValueError("need at least 2 verification points per residue")
        object.__setattr__(
            self,
            "samples",
            tuple((int(n), Fraction(v)) for n, v in self.samples),
        )
        seen = {}
        for n, v in self.samples:
            if n in seen and seen[n] != v:
                raise ValueError(f"conflicting samples at n={n}")
            seen[n] = v


@dataclass(frozen=True)
class FitResult:
    quasi: QuasiPolynomial
    provenance: dict = field(default_factory=dict)


def _lagrange(points: Sequence[tuple[int, Fraction]]) -> Polynomial:
    """Exact Lagrange interpolation over the rationals, as a polynomial in n."""
    out = Polynomial("n", ())
    xvar = Polynomial.variable("n")
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        term = Polynomial.const("n", yi)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * (xvar - xj) / Fraction(xi - xj)
        out = out + term
    return out


def fit_quasi_polynomial(spec: FitSpec) -> FitResult:
    """Interpolate one polynomial per residue class and verify exactly.

    Raises :class:`UnderdeterminedFitError` when a class has fewer than
    degree+1 samples plus ``verify_count`` extra points, and
    :class:`FitVerificationError` (reporting the class and point) when a
    held-out point disagrees.
    """
    by_residue: dict[int, list[tuple[int, Fraction]]] = {j: [] for j in range(spec.period)}
    for n, v in sorted(spec.samples):
        by_residue[n % spec.period].append((n, v))

    nodes_needed = spec.degree + 1
    branches: list[Polynomial] = []
    verified: dict[int, list[int]] = {}
    for j in range(spec.period):
        pts = by_residue[j]
        if len(pts) < nodes_needed + spec.verify_count:
            raise UnderdeterminedFitError(
                f"residue class {j} (mod {spec.period}) has {len(pts)} samples; "
                f"needs {nodes_needed} nodes + {spec.verify_count} verification points"
            )
        nodes, holdout = pts[:nodes_needed], pts[nodes_needed:]
        poly = _lagrange(nodes)
        for n, v in holdout:
            got = poly.eval(n)
            if got != v:
                raise FitVerificationError(j, n, v, got)
        branches.append(poly)
        verified[j] = [n for n, _ in holdout]

    quasi = QuasiPolynomial(spec.period, branches)
    ns = [n for n, _ in spec.samples]
    provenance = {
        "period_hypothesis": spec.period,
        "degree_hypothesis": spec.degree,
        "canonical_period": quasi.period,
        "sample_range": [min(ns), max(ns)],
        "sample_count": len(spec.samples),
        "verification_points": {str(j): v for j, v in verified.items()},
    }
    return FitResult(quasi=quasi, provenance=provenance)


@dataclass(frozen=True)
class LeadingTermResult:
    estimate: Fraction
    converged: bool
    level: int  # extrapolation depth the estimate was taken from
    diagnostics: tuple[Fraction, ...]  # successive extrapolation estimates


def fit_leading_term(
    data: Sequence[tuple[int, Fraction]], degree: int
) -> LeadingTermResult:
    """Estimate the coefficient of n^degree by extrapolation in 1/n.

    ``value / n^degree`` is treated as a polynomial in 1/n and extrapolated
    to 0 by Neville's algorithm over exact rationals.  The reported value
    is the tableau level with the smallest correction (the usual stopping
    rule for sequence acceleration): on exactly polynomial input of the
    hypothesized degree the corrections vanish and the answer is exact,
    while data with a non-polynomial tail stops before the deep levels
    amplify it.  A tail whose corrections only ever grow is flagged
    non-convergent.
    """
    pts = sorted((int(n), Fraction(v)) for n, v in data)
    if len(pts) < 3:
        raise ValueError("need at least 3 data points at large n")
    if any(n <= 0 for n, _ in pts):
        raise ValueError("data points must have n >= 1")
    xs = [Fraction(1, n) for n, _ in pts]
    ys = [v / Fraction(n) ** degree for n, v in pts]

    # Neville tableau evaluated at x = 0; level k keeps the entry built
    # from the last k+1 points, which leans on the largest n values.
    estimates: list[Fraction] = [ys[-1]]
    tableau = list(ys)
    m = len(pts)
    for k in range(1, m):
        nxt = []
        for i in range(m - k):
            x_lo, x_hi = xs[i], xs[i + k]
            val = (x_hi * tableau[i] - x_lo * tableau[i + 1]) / (x_hi - x_lo)
            nxt.append(val)
        tableau = nxt
        estimates.append(tableau[-1])

    corrections = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    best = min(range(len(corrections)), key=lambda i: (corrections[i], i))
    level = best + 1
    increasing = all(b > a for a, b in zip(corrections, corrections[1:]))
    converged = corrections[best] == 0 or not (increasing and len(corrections) > 1)
    return LeadingTermResult(
        estimate=estimates[level],
        converged=converged,
        level=level,
        diagnostics=tuple(estimates),
    )
