"""Semantic exception hierarchy.

The CLI maps these onto distinct exit codes (cli.EXIT_PARSE to
cli.EXIT_CALIBRATION, 2 to 5); library users can catch the base class or a
specific failure mode.
"""


class ExpBandsError(Exception):
    """Base error for this package."""


class ParseError(ExpBandsError, ValueError):
    """Malformed input file or configuration document."""


class DomainError(ExpBandsError, ValueError):
    """Argument outside its mathematical domain."""


class InvalidSchemeError(DomainError):
    """Censoring scheme violates its defining constraints."""


class DegenerateSampleError(DomainError):
    """The scale estimate is zero (all observed failure times equal) or
    infinite (the weighted spacings overflow)."""


class InvalidTransformError(DomainError):
    """Monotone transform descriptor is not strictly increasing."""


class InfeasibleLevelError(DomainError):
    """Calibration constant incompatible with a nonempty region."""


class UnsupportedCaseError(DomainError):
    """Requested configuration is outside the implemented scope."""


class NumericError(ExpBandsError, ArithmeticError):
    """Quadrature, root finding, or optimization failed to converge."""


class CalibrationError(ExpBandsError):
    """Monte-Carlo calibration could not produce the requested constant."""


class CacheIntegrityError(CalibrationError):
    """Calibration cache file is corrupt."""
