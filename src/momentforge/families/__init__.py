"""The four combinatorial families, addressed by canonical string IDs.

``FAMILIES`` maps each ID to its table entry (``common.Family``), defined
as ``FAMILY`` in the family's own module.  An entry declares the family's
parameters and their defaults, its sample-space size (and a lower bound on
its bit length, cheap where the size is not), its moment route
(with the highest order it serves and the closed-form texts where they are
exact), its PGF route, its oracle (exhaustive, and sampled for boolean)
and, where there is one, its normality grid.  The functions below and every
CLI subcommand are lookups in this table.

IDs and parameters:

* ``schur``  — n (interval length), c (colors >= 2, default 2)
* ``invmaj`` — n (permutation length)
* ``boolean`` — n (variables), k (cube dimension, default 0)
* ``domino`` — m, n (board dimensions, m default 1)
"""

from __future__ import annotations

from typing import Mapping

from momentforge.families import boolean, domino, invmaj, schur
from momentforge.families.common import SYMBOL_LEGEND, Family
from momentforge.moment_algebra import KINDS, MomentVector

FAMILIES: dict[str, Family] = {
    f.name: f for f in (schur.FAMILY, invmaj.FAMILY, boolean.FAMILY, domino.FAMILY)
}

FAMILY_PARAMS: dict[str, tuple[str, ...]] = {name: f.params for name, f in FAMILIES.items()}

__all__ = [
    "FAMILIES",
    "FAMILY_PARAMS",
    "SYMBOL_LEGEND",
    "Family",
    "boolean",
    "domino",
    "invmaj",
    "schur",
    "validate_family",
    "central_moments_at",
    "moment_vector",
    "sample_space_size",
]


def validate_family(family: str) -> Family:
    """The table entry of ``family``; ValueError for an unknown ID."""
    entry = FAMILIES.get(family)
    if entry is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r}; choose one of: {known}")
    return entry


def sample_space_size(family: str, params: Mapping) -> int:
    entry = validate_family(family)
    return entry.space_size(entry.resolve(params))


def moment_vector(family: str, kind: str, r_max: int, params: Mapping):
    """Numeric MomentVector of the requested kind, plus closed-form texts.

    Returns (vector, closed_forms) where ``closed_forms`` lists canonical
    polynomial texts of the symbolic entries when the family has them
    (domino in mu, only where every order is exact: r_max <= 3 or a
    1-by-n board; boolean in W = 2^n, coefficients in n), else None.
    Raises ValueError when the requested order exceeds the family's closed
    forms (the oracle subcommand covers those numerically), and
    SizeGuardError when a domino board is beyond the transfer-matrix guard.
    """
    entry = validate_family(family)
    if kind not in KINDS:
        raise ValueError(f"unknown moment kind {kind!r}")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    p = entry.resolve(params)
    limit = entry.max_order(p)
    if limit is not None and r_max > limit:
        raise ValueError(
            f"{family} closed forms for {p} stop at r = {limit}; "
            "use the oracle subcommand for higher orders"
        )
    return entry.moments(kind, r_max, p)


def central_moments_at(family: str, n: int, r_max: int, params: Mapping | None = None) -> MomentVector:
    """Numeric central moments of a family member at grid point n.

    Used by the normality report.  Supported: invmaj, domino (m from
    params, default 1; exact on every board, see ``domino.central_moments``),
    boolean with k=0.  Schur has closed forms only through r = 2, too few
    for a normality verdict.
    """
    entry = validate_family(family)
    if entry.normality_grid is None:
        raise ValueError(f"family {family!r} does not provide a closed-form central-moment grid")
    return entry.normality_grid(entry.resolve({**(params or {}), "n": n}), r_max)
