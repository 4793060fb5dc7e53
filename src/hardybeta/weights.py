"""Weight sequences for weighted Hardy spaces and their coefficient tables.

A weight sequence ``beta_0, beta_1, ...`` is admissible when ``beta_0 = 1``
and ``1 <= beta_j / beta_{j+1} <= M`` for some ``M >= 1``, so the weights are
positive and non-increasing with a bounded step-down ratio.  All derived
scalar tables are materialized eagerly at construction up to a finite
truncation length (default 256):

* ``inv_betas``     reciprocals ``1 / beta_j``, the Taylor coefficients of
  the generating function ``R(z) = sum 1/beta_j z^j``,
* ``c_coeffs``      coefficients of ``1 / R(z)``, obtained from the exact
  recursion ``c_0 = 1``, ``c_n = -sum_{j<n} c_j / beta_{n-j}``,
* shifted tables ``1 / beta_{k+j}`` and the quotient-series coefficients
  ``d^(k)_j = -sum_{l=1..k} c_{j+l} / beta_{k-l}`` used by the hereditary
  calculus.

Instances are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AdmissibilityError,
    InvalidParameterError,
    NormalizationError,
    TruncationError,
)

DEFAULT_TRUNC = 256

#: relative tolerance for recognizing the constant weight / beta_0 = 1
_ONE_TOL = 1e-12


@dataclass
class WienerReport:
    """Heuristic summability report for the reciprocal coefficients."""

    partial_sum: float
    tail_estimate: float
    verdict: str  # "summable" | "inconclusive" | "diverging"


@dataclass
class WeightSequence:
    """An admissible weight sequence with its cached coefficient tables.

    Attributes
    ----------
    betas : ndarray
        ``beta_0 .. beta_N`` with ``beta_0 = 1``, positive, non-increasing.
    ratio_bound : float
        ``M = max_j beta_j / beta_{j+1}`` over the stored range.
    kind : str
        ``"hardy"`` (constant weight), ``"beta_alpha"`` or ``"custom"``.
    c_coeffs : ndarray
        Reciprocal-series coefficients ``c_0 .. c_N``.
    alpha : float or None
        Parameter of the ``beta_alpha`` family, if applicable.
    """

    betas: np.ndarray
    ratio_bound: float
    kind: str
    c_coeffs: np.ndarray
    alpha: float | None = None
    inv_betas: np.ndarray = field(init=False)
    wiener: WienerReport | None = field(init=False, default=None)

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        self.inv_betas = 1.0 / self.betas
        if self.trunc_len >= 8:
            self.wiener = wiener_report(self, self.trunc_len)

    @property
    def trunc_len(self) -> int:
        return len(self.betas) - 1

    def __repr__(self):
        tag = f", alpha={self.alpha}" if self.alpha is not None else ""
        return f"WeightSequence(kind={self.kind!r}, n={self.trunc_len}{tag})"


def _reciprocal_series(inv_betas: np.ndarray) -> np.ndarray:
    """Exact recursion for the coefficients of 1 / sum(inv_betas[j] z^j).

    Entries smaller than the rounding scale of their own defining sum are
    snapped to exact zero, so weights whose reciprocal series is a
    polynomial (integer-alpha families) get exactly polynomial tables
    instead of roundoff dust.
    """
    n = len(inv_betas)
    c = np.zeros(n)
    c[0] = 1.0
    eps = np.finfo(float).eps
    for m in range(1, n):
        # c_m = -sum_{j=0}^{m-1} c_j / beta_{m-j}
        terms = c[:m] * inv_betas[m:0:-1]
        val = -terms.sum()
        if abs(val) <= 8.0 * eps * np.abs(terms).sum():
            val = 0.0
        c[m] = val
    return c


def make_weight_hardy(n: int = DEFAULT_TRUNC) -> WeightSequence:
    """Constant weight sequence beta_j = 1 (the classical Hardy space)."""
    if n < 1:
        raise InvalidParameterError("need at least two stored weights")
    betas = np.ones(n + 1)
    return WeightSequence(betas, 1.0, "hardy", _reciprocal_series(1.0 / betas))


def make_weight_beta_alpha(alpha: float, n: int = DEFAULT_TRUNC) -> WeightSequence:
    """Weight sequence ``beta_k = k! Gamma(alpha) / Gamma(alpha + k)``.

    Computed by the stable recurrence ``beta_{k+1} = beta_k (k+1)/(alpha+k)``.
    For integer ``alpha = n`` the reciprocal series ``1/R`` is the polynomial
    ``(1 - z)^n``.  Requires ``alpha > 1``; the step-down ratio
    ``beta_k / beta_{k+1} = (alpha+k)/(k+1)`` is maximal at ``k = 0`` so the
    ratio bound is ``alpha`` itself.
    """
    if not alpha > 1:
        raise InvalidParameterError(f"alpha must exceed 1, got {alpha}")
    if n < 1:
        raise InvalidParameterError("need at least two stored weights")
    betas = np.empty(n + 1)
    betas[0] = 1.0
    for k in range(n):
        betas[k + 1] = betas[k] * (k + 1) / (alpha + k)
    return WeightSequence(betas, float(alpha), "beta_alpha",
                          _reciprocal_series(1.0 / betas), alpha=float(alpha))


def make_weight_custom(betas) -> WeightSequence:
    """Validate an explicitly supplied weight sequence.

    Checks ``beta_0 = 1`` (NormalizationError otherwise), positivity and the
    non-increase condition ``beta_j >= beta_{j+1}`` (AdmissibilityError
    otherwise), and records the observed ratio bound.  An all-ones sequence
    is tagged as the constant Hardy weight.
    """
    arr = np.asarray(betas, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise InvalidParameterError("betas must be a nonempty 1-d sequence")
    if np.any(arr <= 0):
        raise AdmissibilityError("weights must be strictly positive")
    if abs(arr[0] - 1.0) > _ONE_TOL:
        raise NormalizationError(f"beta_0 must equal 1, got {arr[0]}")
    if len(arr) == 1:
        return WeightSequence(arr, 1.0, "custom", np.array([1.0]))
    ratios = arr[:-1] / arr[1:]
    bad = np.nonzero(ratios < 1.0 - _ONE_TOL)[0]
    if bad.size:
        j = int(bad[0])
        raise AdmissibilityError(
            f"weights must be non-increasing; beta_{j} < beta_{j + 1}")
    kind = "hardy" if np.all(np.abs(arr - 1.0) <= _ONE_TOL) else "custom"
    return WeightSequence(arr, float(ratios.max()), kind,
                          _reciprocal_series(1.0 / arr))


def reciprocal_coeffs(w: WeightSequence, n: int) -> np.ndarray:
    """Coefficients ``c_0 .. c_n`` of the reciprocal series ``1/R``."""
    if n > w.trunc_len:
        raise TruncationError(
            f"requested c_0..c_{n} but only {w.trunc_len + 1} weights stored")
    return w.c_coeffs[:n + 1].copy()


def wiener_report(w: WeightSequence, n: int) -> WienerReport:
    """Heuristic check that the reciprocal coefficients are summable.

    Returns the partial sum ``sum_{j<=n} |c_j|``, a geometric-ratio tail
    extrapolation fitted on the trailing quarter of the coefficients, and a
    verdict.  The verdict is advisory: "inconclusive" warns but never aborts
    downstream computations, only "diverging" does.
    """
    if n < 8:
        raise InvalidParameterError("wiener_report needs n >= 8")
    if n > w.trunc_len:
        raise TruncationError("not enough stored coefficients")
    mags = np.abs(w.c_coeffs[:n + 1])
    partial = float(mags.sum())
    q = max(2, n // 4)
    window = mags[n - q:n + 1]
    if window.max() == 0.0:
        return WienerReport(partial, 0.0, "summable")
    if window.max() <= 1e-9 * max(partial, 1.0):
        # trailing coefficients at the recursion noise floor: negligible tail
        return WienerReport(partial, float(window.sum()), "summable")
    # log-linear fit of the nonzero trailing magnitudes gives the decay ratio
    idx = np.nonzero(window > 0)[0]
    if len(idx) < 2:
        return WienerReport(partial, float(window.max()), "inconclusive")
    slope = np.polyfit(idx.astype(float), np.log(window[idx]), 1)[0]
    ratio = float(np.exp(slope))
    if ratio >= 1.0:
        return WienerReport(partial, float("inf"), "diverging")
    last = float(window[idx[-1]])
    gap = len(window) - 1 - idx[-1]
    tail = last * ratio ** gap * ratio / (1.0 - ratio)
    verdict = "summable" if tail <= max(0.01 * partial, 1e-6) else "inconclusive"
    return WienerReport(partial, tail, verdict)


def shifted_resolvent_coeffs(w: WeightSequence, k: int, n: int) -> np.ndarray:
    """Coefficients ``1/beta_{k+j}`` for ``j = 0..n`` of the k-shifted series."""
    if k < 0 or n < 0:
        raise InvalidParameterError("k and n must be nonnegative")
    if k + n > w.trunc_len:
        raise TruncationError(
            f"index {k + n} exceeds stored length {w.trunc_len}")
    return w.inv_betas[k:k + n + 1].copy()


def quotient_rows(w: WeightSequence, ks, n: int) -> np.ndarray:
    """Taylor coefficients ``d^(k)_0 .. d^(k)_n`` of the quotient series
    ``R_k / R``, one row per ``k >= 1`` in ``ks``, from one product.

    ``d^(k)_j = -sum_{l=1}^{k_max} c_{j+l} B[l-1, k]`` with
    ``B[l-1, k] = 1/beta_{k-l}`` for ``l <= k`` and 0 beyond, where
    ``k_max = max(ks)``.
    """
    ks = np.asarray(ks)
    if n < 0 or ks.size == 0 or ks.min() < 1:
        raise InvalidParameterError("need n >= 0 and shifts k >= 1")
    k_max = int(ks.max())
    if n + k_max > w.trunc_len:
        raise TruncationError(
            f"need c-table to index {n + k_max}, stored {w.trunc_len}")
    gap = ks - np.arange(1, k_max + 1)[:, None]  # k - l
    B = np.where(gap >= 0, w.inv_betas[np.maximum(gap, 0)], 0.0)
    # row j of the window is c_{j+1}, ..., c_{j+k_max}
    return -(sliding_window_view(w.c_coeffs[1:n + k_max + 1], k_max) @ B).T


def gamma_k_coeffs(w: WeightSequence, k: int, n: int) -> np.ndarray:
    """Taylor coefficients ``d^(k)_j`` of the quotient series ``R_k / R``.

    ``d^(k)_j = -sum_{l=1}^{k} c_{j+l} / beta_{k-l}`` for ``j = 0..n``: the
    one-row case of ``quotient_rows``.  The degenerate index ``k = 0``
    returns ``(1, 0, 0, ...)`` since the quotient is then identically 1.
    """
    if k < 0 or n < 0:
        raise InvalidParameterError("k and n must be nonnegative")
    if k == 0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    return quotient_rows(w, [k], n)[0]
