"""Exception types shared across the solver stack.

Each error declares, through one of three private bases, the CLI's exit
code for it and the label of the one stderr line that reports it:
2 configuration error, 3 precondition failure, 4 solver failure.
"""


class MultibumpError(Exception):
    """Base class for all package errors; only its subclasses are raised."""


class _ConfigurationFailure(MultibumpError):
    exit_code, label = 2, "configuration error"


class _PreconditionFailure(MultibumpError):
    exit_code, label = 3, "precondition failure"


class _SolverFailure(MultibumpError):
    exit_code, label = 4, "solver failure"


class InvalidFieldError(_PreconditionFailure):
    """A field contains non-finite entries."""


class GridMismatchError(_PreconditionFailure):
    """Two fields live on different grids."""


class MisalignedTranslationError(_PreconditionFailure):
    """Requested translation is not an exact number of grid points."""


class AssumptionViolationError(_PreconditionFailure):
    """The discrete operator -Lap + V is not positive definite."""


class LinearSolverError(_SolverFailure):
    """An iterative linear solve failed to reach its tolerance."""


class GluingFailedError(_SolverFailure):
    """Newton on the extended Lagrangian diverged."""

    def __init__(self, message, separation=None, residual_history=None):
        super().__init__(message)
        self.separation = separation
        self.residual_history = list(residual_history or [])


class DegenerateSuperpositionError(_SolverFailure):
    """The bordered system at the current iterate is numerically singular."""


class NotFreelyNondegenerateError(_PreconditionFailure):
    """The linearized operator has a near-zero eigenvalue; z is undefined."""


class NoInstabilityDetected(_PreconditionFailure):
    """No negative eigenvalue of the constrained quotient is returned.

    Raised when the constrained Morse index is 0 (the quotient has no
    negative eigenvalue), or when the computed minimum is refused because
    its residual does not bound its error below its size.  Reported, not
    asserted.  Carries the computed quotient minimum.
    """

    def __init__(self, message, mu=None):
        super().__init__(message)
        self.mu = mu


class PositivityViolationError(_PreconditionFailure):
    """The comparison operator is not positive definite on the tangent space."""


class PreconditionError(_PreconditionFailure):
    """An operation was called outside its documented preconditions."""


class CriticalExponentError(_PreconditionFailure):
    """The exponent sits exactly at the mass-critical value."""


class MassRangeError(_PreconditionFailure):
    """Requested per-bump mass lies outside the family's mass curve."""

    def __init__(self, message, mass_range=None):
        super().__init__(message)
        self.mass_range = mass_range


class ContinuationNeededError(_SolverFailure):
    """Direct Newton solve diverged; step the parameter down from a converged point."""


class IntegratorFaultError(_SolverFailure):
    """Time integration violated a conservation tolerance."""


class FitRejectedError(_SolverFailure):
    """The requested fit window is outside the linear growth regime."""


class ConfigError(_ConfigurationFailure):
    """A run configuration is malformed or violates a parse-time invariant."""


class UncertifiedCountError(_SolverFailure):
    """A Ritz block reached its size cap without certifying a Morse count.

    Carries the last block size and its largest Ritz residual.
    """

    def __init__(self, message, block_size=None, residual=None):
        super().__init__(message)
        self.block_size = block_size
        self.residual = residual
