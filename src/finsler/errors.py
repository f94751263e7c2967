"""Exception hierarchy for the finsler package."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinslerError):
    """A sample point is malformed, its x lies outside the metric's
    declared domain or its y is zero, or L there is not a positive number."""


class DegenerateMetric(FinslerError):
    """The fundamental tensor g is singular or not positive definite.

    Carries the smallest eigenvalue found so failures are diagnosable.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class OrderUnsupported(FinslerError):
    """A derivative of higher order than the jet truncation supports
    was requested."""


class DslError(FinslerError):
    """Base class for metric-DSL errors.  Positions are 1-based."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class DslSyntaxError(DslError):
    pass


class UnknownIdentifier(DslError):
    pass


class ArityError(DslError):
    pass


class IndexOutOfRange(DslError):
    pass


class EvalDomainError(FinslerError):
    """Evaluation hit an invalid operand (sqrt of a negative number,
    division by ~0).  Carries the offending subexpression when known."""

    def __init__(self, message, subexpression=None):
        if subexpression:
            message = f"{message} (in {subexpression!r})"
        super().__init__(message)
        self.subexpression = subexpression


class HomogeneityError(FinslerError):
    """A user-supplied fundamental function failed the Euler degree-1
    homogeneity check y . dL/dy = L."""


class DimensionTooSmall(FinslerError):
    """Scalar-curvature classification requires dimension n >= 3."""


class InternalInconsistency(FinslerError):
    """The redundant constancy criteria (C, B, A) disagreed; indicates a
    pipeline bug or a tolerance far off the noise floor."""


class ConfigError(FinslerError):
    """Invalid run configuration."""
