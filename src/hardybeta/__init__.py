"""Numerical toolkit for weighted Hardy spaces on finite matrices.

Admissible weight sequences, hereditary calculus and observability
gramians, Cholesky-built colligation families with their transfer and
inner function families, reproducing kernels of shift-invariant and
coinvariant subspaces, characteristic function families of
star-hypercontractions, and the associated time-varying linear system.
"""

from .colligation import (
    ColligationFamily,
    ColligationStep,
    build_family,
    build_step,
    defect_kernel,
    metric_residuals,
    transfer_eval,
    transfer_taylor,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DivergenceError,
    HardyBetaError,
    HereditaryDomainError,
    InvalidParameterError,
    ModelCoordinatesError,
    ModelHypothesisError,
    NormalizationError,
    NotCoisometrizableError,
    ObservabilityError,
    SpectralRadiusError,
    TruncationError,
)
from .hereditary import (
    ClassificationReport,
    DeltaReport,
    GramianTable,
    OutputPair,
    classify,
    delta_limit,
    gamma_binomial,
    gamma_k_map,
    gamma_map,
    gramian,
    gramian_table,
    observability_coeffs,
    resolvent_apply,
    resolvent_scalar,
    spectral_radius,
    stein_residual,
)
from .kernels import (
    HardyElement,
    InnerFamilyReport,
    KernelGrid,
    MultiplierReport,
    check_contractive_multiplier,
    check_hardy_to_weighted_multiplier,
    check_inner_family,
    default_grid,
    hardy_inner,
    kernel_coinvariant,
    kernel_gap,
    kernel_invariant,
    kernel_shifted,
    observability_element,
    shift_adjoint_apply,
    shift_apply,
    space_kernel,
)
from .model import (
    CharFamily,
    CoincidenceResult,
    check_coincidence,
    characteristic_family,
    defect_form_family,
    defect_operator,
    functional_model_colligation,
    model_roundtrip_residual,
    wandering_theta,
)
from .syssim import (
    IOMatrix,
    Trajectory,
    check_io_isometry,
    check_ztransform,
    closed_form_trajectory,
    io_matrix,
    simulate,
    stack_inputs,
)
from .weights import (
    WeightSequence,
    WienerReport,
    gamma_k_coeffs,
    make_weight_beta_alpha,
    make_weight_custom,
    make_weight_hardy,
    reciprocal_coeffs,
    shifted_resolvent_coeffs,
    wiener_report,
)

__version__ = "0.1.0"
