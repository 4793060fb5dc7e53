"""Exception taxonomy, and the two parameter checks every entry shares.

Every exception carries an ``exit_code`` used by the command line front end:
2 input error, 3 spectral radius out of range, 4 observability / model
hypothesis failure, 5 either the series did not converge within its term
budget (ConvergenceError) or a defect matrix has a genuinely negative
eigenvalue, so the gramians are inconsistent (NotCoisometrizableError).

Every public entry with a ``tol`` refuses, before any work, a ``tol`` that
is negative, NaN or infinite (``_check_tol``); 0 is allowed.  ``classify``,
``delta_limit``, the family builders and ``check_inner_family`` refuse a
``k_max`` below its least value by name (``_check_k_max``).
"""

import math


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


class HereditaryDomainError(HardyBetaError):
    """Input operator pair leaves the domain of the hereditary calculus."""

    exit_code = 2


class SpectralRadiusError(HardyBetaError):
    """Spectral radius beyond 0.999, where gramians and classification are
    refused."""

    exit_code = 3


class DivergenceError(SpectralRadiusError):
    """Evaluation point outside the disk of convergence."""


class ObservabilityError(HardyBetaError):
    """An operation required a strictly positive definite gramian;
    ``index`` names the first singular matrix of a stack (None for one)."""

    exit_code = 4

    def __init__(self, message: str = "", index: int | None = None):
        super().__init__(message)
        self.index = index


class ModelHypothesisError(HardyBetaError):
    """Operator fails the hypercontraction / strong stability hypotheses."""

    exit_code = 4


class ModelCoordinatesError(HardyBetaError):
    """Functional-model coordinates require the gramian to be the identity."""

    exit_code = 4


class ConvergenceError(HardyBetaError):
    """The series found no certified decay rate, or no cut whose tail bound
    met the tolerance, within its term budget."""

    exit_code = 5


class NotCoisometrizableError(HardyBetaError):
    """Cholesky defect matrix has a genuinely negative eigenvalue."""

    exit_code = 5


def _check_tol(tol, name: str = "tol"):
    """Refuse, naming ``name``, a tolerance that is not a finite number
    ``>= 0``: a negative value, NaN or an infinity.  0 passes."""
    if not 0.0 <= tol < math.inf:  # NaN fails both comparisons
        raise InvalidParameterError(
            f"{name} must be a finite number >= 0, got {tol}")


def _check_k_max(k_max: int, least: int, context: str):
    """Refuse, naming ``context``, a ``k_max`` below ``least``."""
    if not k_max >= least:
        raise InvalidParameterError(
            f"{context} needs k_max >= {least}, got k_max={k_max}")
