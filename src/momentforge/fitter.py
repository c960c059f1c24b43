"""Reconstruct (quasi-)polynomial closed forms from exact data points.

Each residue class is one walk of integer forward differences, expanded in
Newton form, and is accepted only when it reproduces its held-out points
bit-for-bit; period and degree bound stay recorded hypotheses in the provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from momentforge.exact_core import forward_differences
from momentforge.errors import FitVerificationError, UnderdeterminedFitError
from momentforge.families.common import charge
from momentforge.poly_series import Polynomial, QuasiPolynomial

__all__ = ["FitSpec", "check_fit_size", "fit_quasi_polynomial"]

# Bound on period * (degree + 1)^2, the integer products of a fit's Newton
# expansions, which grow with the degree when a class is no polynomial of
# it: 0.03 s at degree 255, 1 s at degree 1000 (period 1, in process, one
# Intel Xeon core).  As a whole process, fit --r 2 --period 1 --degree 255
# --n-min 1 --n-max 50000 (every n read, the class refused at its first
# held-out point) takes 1.5-1.7 s, nearly all of it reading the samples.
FIT_GUARD = 2**16

# Bound on the largest n of a fit.  A fit reads off and checks every n of its
# range: fit --family schur --r 2 --period 12 --degree 4 --n-min 1 --n-max
# 50000 takes 0.67-1.1 s as a whole process on one Intel Xeon core, of
# which reading the samples is about 0.35 s and fitting them 0.1 s.
FIT_N_GUARD = 50000


def check_fit_size(period: int, degree: int, n_max: int) -> None:
    """Raise SizeGuardError when n_max exceeds FIT_N_GUARD or period * (degree + 1)^2 FIT_GUARD."""
    charge(n_max, FIT_N_GUARD, "FIT_N_GUARD", "a fit reads off and checks every n of its range: n_max")
    charge(period * (degree + 1) ** 2, FIT_GUARD, "FIT_GUARD", f"period {period}, degree {degree}: period * (degree + 1)^2")


@dataclass(frozen=True)
class FitSpec:
    """Inputs of a quasi-polynomial fit.

    The samples of each residue class are consecutive points of its progression, each once:
    the lowest ``degree + 1`` are the nodes, the rest, at least ``verify_count``, held out.
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
            tuple((int(n), v if isinstance(v, Fraction) else Fraction(v)) for n, v in self.samples),
        )
        last: dict[int, int] = {}  # residue -> largest n so far
        for n in sorted(n for n, _ in self.samples):
            j = n % self.period
            if last.setdefault(j, n - self.period) != n - self.period:
                raise ValueError(f"residue class {j} (mod {self.period}) goes from n={last[j]} to n={n}, not one step")
            last[j] = n


@dataclass(frozen=True)
class FitResult:
    quasi: QuasiPolynomial
    provenance: dict = field(default_factory=dict)


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
    for j in range(spec.period):
        pts = by_residue[j]
        if len(pts) < nodes_needed + spec.verify_count:
            raise UnderdeterminedFitError(
                f"residue class {j} (mod {spec.period}) has {len(pts)} samples; "
                f"needs {nodes_needed} nodes + {spec.verify_count} verification points"
            )
        scale = math.lcm(*(v.denominator for _, v in pts))
        diffs, miss = forward_differences([v.numerator * (scale // v.denominator) for _, v in pts], spec.degree)
        # sum_k Delta^k C((n - x_0)/period, k) times c = d! period^d, by Horner on integer lists
        acc, c = [diffs[-1]], 1
        for k in range(spec.degree - 1, -1, -1):
            c *= (k + 1) * spec.period
            x = pts[k][0]
            acc = [c * diffs[k] - x * acc[0]] + [a - x * b for a, b in zip(acc, acc[1:])] + [acc[-1]]
        poly = Polynomial("n", acc, c * scale)
        if miss is not None:
            n, v = pts[miss]
            raise FitVerificationError(j, n, v, poly.eval(n))
        branches.append(poly)

    quasi = QuasiPolynomial(spec.period, branches)
    ns = [n for n, _ in spec.samples]
    provenance = {
        "period_hypothesis": spec.period,
        "degree_hypothesis": spec.degree,
        "canonical_period": quasi.period,
        "sample_range": [min(ns), max(ns)],
        "sample_count": len(spec.samples),
        "verification_points": {str(j): [n for n, _ in pts[nodes_needed:]] for j, pts in by_residue.items()},
    }
    return FitResult(quasi=quasi, provenance=provenance)
