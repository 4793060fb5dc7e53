"""Exception taxonomy.

Every exception carries an ``exit_code`` used by the command line front end:
2 input error, 3 spectral radius out of range, 4 observability / model
hypothesis failure, 5 series did not converge within the stored tables.
"""


class HardyBetaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class InvalidParameterError(HardyBetaError):
    """A constructor or operation received an out-of-range parameter."""

    exit_code = 2


class NormalizationError(InvalidParameterError):
    """A weight sequence does not start at 1."""


class AdmissibilityError(InvalidParameterError):
    """A weight sequence violates positivity or the non-increase condition."""


class TruncationError(HardyBetaError):
    """A coefficient table is too short for the requested index range."""

    exit_code = 2


class HereditaryDomainError(HardyBetaError):
    """Input operator pair leaves the domain of the hereditary calculus."""

    exit_code = 2


class SpectralRadiusError(HardyBetaError):
    """Spectral radius too large for series-summed quantities."""

    exit_code = 3


class DivergenceError(SpectralRadiusError):
    """Evaluation point outside the disk of convergence."""


class ObservabilityError(HardyBetaError):
    """An operation required a strictly positive definite gramian."""

    exit_code = 4


class ModelHypothesisError(HardyBetaError):
    """Operator fails the hypercontraction / strong stability hypotheses."""

    exit_code = 4


class ModelCoordinatesError(HardyBetaError):
    """Functional-model coordinates require the gramian to be the identity."""

    exit_code = 4


class ConvergenceError(HardyBetaError):
    """Adaptive truncation exhausted the stored tables before the tail bound
    met the tolerance."""

    exit_code = 5


class NotCoisometrizableError(HardyBetaError):
    """Cholesky defect matrix has a genuinely negative eigenvalue."""

    exit_code = 5
