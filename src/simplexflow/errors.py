"""Exception types shared across the package."""


class SimplexflowError(Exception):
    """Base class for all package-specific errors."""


class NegativeCoordinate(SimplexflowError):
    """A simplex coordinate was negative."""


class SumOutOfTolerance(SimplexflowError):
    """Coordinates do not sum to 1 within the accepted input tolerance."""


class ZeroParameter(SimplexflowError):
    """One of the interaction parameters a, b, c is exactly zero."""


class NonPositiveFactor(SimplexflowError):
    """A multiplicative update factor was <= 0 for a positive coordinate.

    Cannot happen for |a|,|b|,|c| <= 1 and speed values in (0,1] applied to a
    valid point away from machine-precision vertex collapse; it signals
    corrupted inputs or a linear-domain run that should have switched to the
    log-domain stepper.
    """


class NotOnFace(SimplexflowError):
    """Point is not on a two-species face of the simplex."""


class OrderOverflow(SimplexflowError):
    """Requested iterated-average order exceeds the configured maximum."""


class SizeLimit(SimplexflowError):
    """Requested coefficient table is larger than the supported test scale."""


class StrideTooCoarse(SimplexflowError):
    """Operation needs samples at consecutive steps but the trajectory has a gap."""


class StepTooLarge(SimplexflowError):
    """Reference integrator step size exceeds its accuracy contract."""


class ReferenceUnavailable(SimplexflowError):
    """Reference path failed its own self-consistency check."""
