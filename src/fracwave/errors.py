"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A mesh, potential, scheme, or run configuration violates a precondition."""


class NumericError(RuntimeError):
    """A numerical routine produced an unusable result (failed decomposition,
    negative quadratic form, non-finite reference integration)."""


class SolverFailure(RuntimeError):
    """The inner minimization hit its iteration cap before reaching tolerance,
    or its Newton system was not positive definite.

    Carries the best iterate found so the caller can inspect or report it.
    """

    def __init__(self, message, *, best=None, residual=None, iterations=None, step=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
        self.step = step


class BlowupError(RuntimeError):
    """NaN or overflow encountered while evaluating the step functional."""

    def __init__(self, message, *, step=None):
        super().__init__(message)
        self.step = step
