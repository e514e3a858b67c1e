"""Typed errors raised across the package.

Every failure mode that callers are expected to handle gets its own class
so the CLI can map them to stable exit codes and library users can catch
them without string matching.
"""


class RandcompareError(Exception):
    """Base class for all structured errors raised by this package."""


class BoundsError(RandcompareError, IndexError):
    """A unit identifier or position falls outside its valid range."""


class DataValidationError(RandcompareError, ValueError):
    """Input data violate a documented invariant (shape, labels, finiteness)."""


class DesignInvalidError(RandcompareError, ValueError):
    """An assignment or selection design violates its invariants.

    Typical cause: a zero first-order inclusion probability where the
    requested operation needs a strictly positive one.
    """


class UnsupportedDesignError(RandcompareError):
    """The operation is only defined for a narrower class of designs."""


class EnumerationTooLargeError(RandcompareError):
    """The design's support size exceeds the enumeration cap. size is that
    size, or None when it has too many digits to write out."""

    def __init__(self, message: str, size: int, cap: int):
        super().__init__(message)
        self.size = size
        self.cap = cap


class NoncomputableDistributionError(RandcompareError):
    """The null distribution exists but is not computable from observed data."""


class DegenerateDataError(RandcompareError, ValueError):
    """The data admit no informative test statistic (e.g. zero standard error)."""


class InsufficientDataError(RandcompareError, ValueError):
    """Too few observations for the requested estimator."""


class UnknownScenarioError(RandcompareError, LookupError):
    """A scenario or fixed-vector identifier is not in the registry."""
