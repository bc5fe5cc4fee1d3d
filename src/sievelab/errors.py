"""Exception types shared across the package."""


class SieveLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SieveLabError, ValueError):
    """An argument violates a documented precondition."""


class EvaluationError(SieveLabError):
    """An integrand or differenced function returned a non-finite value.

    Carries the offending abscissa in ``.abscissa``.
    """

    def __init__(self, message, abscissa):
        super().__init__(f"{message} (at x={abscissa!r})")
        self.abscissa = abscissa


class ResourceError(SieveLabError):
    """A computation would exceed its configured work budget."""
