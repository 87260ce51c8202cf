"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatch(ToolkitError, ValueError):
    """Array shapes do not line up with the declared spaces."""


class InvalidParameter(ToolkitError, ValueError):
    """A scalar or structural parameter is outside its admissible range."""


class NonConvergence(ToolkitError, RuntimeError):
    """An iterative solver exhausted its budget.

    Carries the final residual so callers can judge how close the
    iteration got before giving up, and the index of the failed step
    when the solve was one step of a time integration.
    """

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step


class SingularStep(ToolkitError, RuntimeError):
    """The trapezoid march of `ocp.input_to_state` hit a singular
    I - (h/2) A or produced non-finite states (grid step too large)."""


class AccretivityViolation(ToolkitError, RuntimeError):
    """A probe found a negative monotonicity gap where none is allowed."""


class EigenFailure(ToolkitError, RuntimeError):
    """A dense eigensolve or Schur factorization did not converge, or
    a triangular Sylvester solve had to scale its solution down."""


class NotHurwitz(ToolkitError, RuntimeError):
    """A generator's spectrum touches the closed right half plane; carries its abscissa."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class InsufficientData(ToolkitError, ValueError):
    """A fit was requested on too few or degenerate samples."""


class ConfigError(ToolkitError, ValueError):
    """Scenario configuration failed validation; names the offending field."""

    def __init__(self, message, field=None):
        if field:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class FormatError(ToolkitError, ValueError):
    """A CSV or report file does not have the expected layout."""
