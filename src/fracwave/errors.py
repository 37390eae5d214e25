"""Exception types shared across the package.

A SolverFailure or BlowupError carries `step`, None where it is raised.
When a step of the time loop raises one, `run` sets `step` to that step's
index, puts "step i: " in front of the message and re-raises the same
error, so every field the minimization set travels with it.
"""


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

    step = None

    def __init__(self, message, *, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


class BlowupError(RuntimeError):
    """NaN or overflow encountered while evaluating the step functional."""

    step = None
