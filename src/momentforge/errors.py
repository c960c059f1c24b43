"""Exception types shared across the package."""


class MomentForgeError(Exception):
    """Base class for all package-specific errors."""


class SizeGuardError(MomentForgeError):
    """A request weighs past a size guard or its one budget (``families.common.charge``)."""


class SingularSeriesError(MomentForgeError):
    """Series division or inversion with a non-invertible constant term."""


class UnderdeterminedFitError(MomentForgeError):
    """Not enough sample points to pin down the requested degree."""


class ConsistencyError(MomentForgeError):
    """A computed result failed an internal consistency check."""


class FitVerificationError(ConsistencyError):
    """A fitted polynomial failed to reproduce a held-out verification point."""

    def __init__(self, residue: int, point: int, expected, actual):
        self.residue = residue
        self.point = point
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"verification mismatch in residue class {residue} at n={point}: "
            f"data {expected} != fit {actual}"
        )
