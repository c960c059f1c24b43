"""Reconstruct (quasi-)polynomial closed forms from exact data points.

Each residue class is interpolated exactly through one Newton
divided-difference table.  A fit is accepted only when it reproduces
held-out verification points bit-for-bit; the period and degree bound
remain recorded hypotheses in the provenance block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from momentforge.errors import FitVerificationError, UnderdeterminedFitError
from momentforge.families.common import charge
from momentforge.poly_series import Polynomial, QuasiPolynomial

__all__ = ["FitSpec", "check_fit_size", "fit_quasi_polynomial"]

# Bound on period * (degree + 1)^2, the size of a fit's divided-difference
# tables.  A class whose samples are no polynomial of that degree fills its
# table with numbers that grow with the degree, so its cost climbs about as
# (degree + 1)^2.8: as a whole process on one Intel Xeon core,
# fit --r 2 --period 1 --degree 255 --n-min 1 --n-max 50000 (at the guard,
# every n read and the class refused at its first held-out point) takes
# 2.3-3.4 s.
FIT_GUARD = 2**16

# Bound on the largest n of a fit.  A fit reads off and checks every n of its
# range: fit --family schur --n-min 1 --n-max 50000 takes 2.2-3.4 s as a
# whole process on one Intel Xeon core.
FIT_N_GUARD = 50000


def check_fit_size(period: int, degree: int, n_max: int) -> None:
    """Raise SizeGuardError when n_max exceeds FIT_N_GUARD or period * (degree + 1)^2 FIT_GUARD."""
    charge(n_max, FIT_N_GUARD, "FIT_N_GUARD", "a fit reads off and checks every n of its range: n_max")
    charge(period * (degree + 1) ** 2, FIT_GUARD, "FIT_GUARD", f"period {period}, degree {degree}: period * (degree + 1)^2")


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


def _interpolate(points: Sequence[tuple[int, Fraction]]) -> Polynomial:
    """The polynomial in n through ``points`` (distinct nodes), exactly.

    One divided-difference table gives the Newton coefficients c_j, its top
    edge; p(n) = c_0 + (n - x_0)(c_1 + (n - x_1)(c_2 + ...)) is then expanded
    Horner-style, one product with a linear factor per node: O(d^2) rational
    operations for d + 1 nodes.
    """
    xs = [x for x, _ in points]
    column = [Fraction(y) for _, y in points]
    newton = [column[0]]
    for j in range(1, len(xs)):
        column = [(b - a) / (xs[i + j] - xs[i]) for i, (a, b) in enumerate(zip(column, column[1:]))]
        newton.append(column[0])
    poly = Polynomial("n", ())
    for x, c in zip(reversed(xs), reversed(newton)):
        poly = poly * Polynomial("n", (-x, 1)) + c
    return poly


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
        poly = _interpolate(nodes)
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
