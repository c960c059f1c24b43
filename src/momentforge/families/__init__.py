"""The four combinatorial families, addressed by canonical string IDs.

``FAMILIES`` maps each ID to its table entry (``common.Family``), defined
as ``FAMILY`` in the family's own module.  An entry declares the family's
parameters and their defaults, its sample-space size (and a lower bound on
its bit length, cheap where the size is not), its moment route (with the
highest order it serves) and its mean, the closed forms of those moments
where they are exact, its PGF route, its oracle (exhaustive, and
sampled for boolean) and its MGF deviation where it has one (invmaj, and
domino on a 1-by-n board, both through the shared loop
``common.mgf_deviation``).  ``moment_vector`` is the one checked way to
the moments: the moment subcommands, ``fit`` and every point of a
normality grid go through it.  It converts the one vector a family's route
computes (raw: schur, every domino board from its perimeter counts,
boolean k >= 1; central: invmaj, boolean k = 0) in one place,
``moment_algebra.convert``; ``closed_forms`` checks a request for the
printed texts as it does.  The functions below and every CLI subcommand
are lookups in this table.

IDs and parameters:

* ``schur``  — n (interval length), c (colors >= 2, default 2)
* ``invmaj`` — n (permutation length)
* ``boolean`` — n (variables), k (cube dimension, default 0)
* ``domino`` — m, n (board dimensions, m default 1)
"""

from __future__ import annotations

from typing import Mapping

from momentforge.families import boolean, domino, invmaj, schur
from momentforge.families.common import Family
from momentforge.moment_algebra import KINDS, MomentVector, convert
from momentforge.poly_series import Polynomial

FAMILIES: dict[str, Family] = {
    f.name: f for f in (schur.FAMILY, invmaj.FAMILY, boolean.FAMILY, domino.FAMILY)
}

__all__ = ["FAMILIES", "Family", "boolean", "validate_family", "moment_vector", "closed_forms"]


def validate_family(family: str) -> Family:
    """The table entry of ``family``; ValueError for an unknown ID."""
    entry = FAMILIES.get(family)
    if entry is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r}; choose one of: {known}")
    return entry


def _request(family: str, kind: str, r_max: int, params: Mapping) -> tuple[Family, dict]:
    """The entry and resolved parameters of a moment request, once it is checked."""
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
    return entry, p


def moment_vector(family: str, kind: str, r_max: int, params: Mapping) -> MomentVector:
    """The exact MomentVector of the requested kind, orders 0..r_max.

    The family's ``moments`` route, converted about its ``mean`` only
    where the route's kind is not the one asked for.  Raises ValueError for
    parameters outside the family and for an order past its routes (the
    oracle subcommand covers those numerically), and SizeGuardError past a
    route's size guard.
    """
    entry, p = _request(family, kind, r_max, params)
    vec = entry.moments(r_max, p)
    return vec if vec.kind == kind else convert(vec, kind, entry.mean(p))


def closed_forms(family: str, kind: str, r_max: int, params: Mapping) -> list[Polynomial] | None:
    """The symbolic moments of a ``moment_vector`` request, checked as it is; None where there are none.

    Past ``common.SYMBOLIC_ORDER_GUARD`` it raises SizeGuardError before building any.
    """
    entry, p = _request(family, kind, r_max, params)
    return entry.closed_forms(kind, r_max, p) if entry.closed_forms else None
