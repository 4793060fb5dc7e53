"""Weight sequences for weighted Hardy spaces and their coefficient tables.

A weight sequence ``beta_0, beta_1, ...`` is admissible when ``beta_0 = 1``
and ``1 <= beta_j / beta_{j+1} <= M`` for some ``M >= 1``, so the weights are
positive and non-increasing with a bounded step-down ratio.  All derived
scalar tables are materialized eagerly at construction up to a finite
truncation length (default 256):

* ``inv_betas``     reciprocals ``1 / beta_j``, the Taylor coefficients of
  the generating function ``R(z) = sum 1/beta_j z^j``,
* ``c_coeffs``      coefficients of ``1 / R(z)``: ``(-1)^j C(alpha, j)`` for
  the constant weight (``alpha = 1``) and ``beta_alpha``, the recursion
  ``c_0 = 1``, ``c_n = -sum_{j<n} c_j / beta_{n-j}`` for custom weights,
* shifted tables ``1 / beta_{k+j}`` and the quotient-series coefficients
  ``d^(k)_j = -sum_{l=1..k} c_{j+l} / beta_{k-l}`` used by the hereditary
  calculus.

Each weight knows its tails: step bounds on ``|row[j+1] / row[j]|`` past a
cut (``inv_step``, ``c_step``) and the Wiener report of ``c``, all proved
except the ``c`` step and floor of a custom weight, the one estimate left.

Instances are immutable after construction and safe for concurrent reads;
the stacked rows of the hereditary maps (``hereditary_rows``) and the
quadrature rules of the spectral route (``spectral.py``) are built on
first use and kept, read-only, on the weight.
"""

from __future__ import annotations

import math
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
    """Summability of the reciprocal coefficients: ``sum_{j<=n} |c_j|``, the
    tail ``sum_{j>n} |c_j|`` and the verdict."""

    partial_sum: float
    tail_estimate: float
    verdict: str  # "summable" | "diverging"


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
    wiener: WienerReport = field(init=False)
    _rows: dict = field(init=False, default_factory=dict, repr=False,
                        compare=False)
    _nodes: dict = field(init=False, default_factory=dict, repr=False,
                         compare=False)

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        self.inv_betas = 1.0 / self.betas
        r = self.betas[:-1] / self.betas[1:] if self.trunc_len else np.ones(1)
        self.inv_steps = np.maximum.accumulate(r[::-1])[::-1]
        self._c_step, self.c_floor = (_trailing_step(self.c_coeffs)
                                      if self.kind == "custom" else (None, 0.0))
        self.wiener = wiener_report(self, self.trunc_len)

    @property
    def trunc_len(self) -> int:
        return len(self.betas) - 1

    def inv_step(self, m: int) -> float:
        """A bound on ``beta_i / beta_{i+1}`` for every ``i >= m``: the step
        of the rows ``1/beta_{k+j}`` cut at ``k + j = m``.  The ratio is 1
        for hardy, decreasing for ``beta_alpha``, and a custom weight
        continues at its last ratio by definition."""
        return float(self.inv_steps[min(m, len(self.inv_steps) - 1)])

    def c_step(self, m: int) -> float:
        """A bound on ``|row[j+1] / row[j]|`` for every ``j >= m`` of the
        ``c`` row and the quotient rows.  Closed-form kinds (hardy:
        ``alpha = 1``): 1 once ``m >= floor(alpha)``, since
        ``|c_{j+1}/c_j| = |j - alpha|/(j + 1) <= 1`` there and the
        ``c_{j+l}`` in each ``d^(k)_j`` share one sign; ``inf`` before.
        Custom weights: the estimate of ``_trailing_step``, from the level
        ``max(|row[m]|, c_floors)``."""
        if self._c_step is not None:
            return self._c_step
        return 1.0 if m >= math.floor(self.alpha or 1.0) else math.inf

    def c_floors(self, ks) -> np.ndarray:
        """The level at which the quotient rows ``d^(k)`` (``k = 0``: the
        ``c`` row) may persist past the table: ``c_floor``, nonzero only for
        a custom ``c`` ending at its noise floor, times
        ``sum_{i<k} 1/beta_i`` (1 for ``k = 0``), as
        ``|d^(k)_j| <= sum_{l=1..k} |c_{j+l}| / beta_{k-l}``."""
        ks = np.asarray(ks)
        sums = np.cumsum(self.inv_betas)[np.maximum(ks - 1, 0)]
        return self.c_floor * np.where(ks > 0, sums, 1.0)

    def __repr__(self):
        tag = f", alpha={self.alpha}" if self.alpha is not None else ""
        return f"WeightSequence(kind={self.kind!r}, n={self.trunc_len}{tag})"


def _binomial_series(alpha: float, n: int) -> np.ndarray:
    """``c_j = (-1)^j C(alpha, j)`` for ``j = 0..n``, the coefficients of
    ``(1 - z)^alpha``, from ``c_{j+1} = c_j (j - alpha)/(j + 1)``: exact
    zeros past an integer alpha."""
    c = np.ones(n + 1)
    # + 0.0 turns the -0.0 past an odd integer alpha into 0.0
    c[1:] = np.cumprod((np.arange(n) - alpha) / np.arange(1, n + 1)) + 0.0
    return c


def _reciprocal_series(inv_betas: np.ndarray) -> np.ndarray:
    """Recursion for the coefficients of 1 / sum(inv_betas[j] z^j), used for
    custom weights.  Entries below the rounding scale of their own defining
    sum are snapped to exact zero, so polynomial reciprocal series get
    exactly polynomial tables instead of roundoff dust."""
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


def _trailing_step(c: np.ndarray, window: int = 16) -> tuple:
    """The one tail estimate left, not a bound: the step and floor of a
    custom weight's ``c`` past its table ``c_0 .. c_N``, read from its last
    ``window + 1`` entries past ``c_0`` (``|c_1 / c_0| = 1/beta_1`` is no
    step of the tail).

    Past the table the weight continues at its last ratio, so ``1/R`` is
    ``(1 - rz) / Q(z)`` with ``Q`` of degree ``N - 1`` and the ``c_j``,
    ``j >= 2``, obey a recurrence of that order: ``N - 1`` trailing zeros
    end the table, and so do ``window`` of them in a longer one (step 0).
    Entries at the recursion's noise floor (at most 1e-9 of the largest)
    persist at ten times their level, damped only by ``q`` (step 1, that
    floor).  Otherwise the step is the largest per-step ratio of the
    nonzero entries; fewer than two give ``inf``.  A one-entry table is
    the Hardy weight, ``1/R = 1 - z``: step 1, then 0."""
    n = len(c) - 1
    if not n:
        return 1.0, 0.0
    mags = np.abs(c[max(n - window, 1):])
    if not mags[1:].any():
        return 0.0, 0.0
    if mags.max() <= 1e-9 * np.abs(c).max():
        return 1.0, 10.0 * float(mags.max())
    nz = np.flatnonzero(mags)
    if len(nz) < 2:
        return math.inf, 0.0
    ratios = (mags[nz[1:]] / mags[nz[:-1]]) ** (1.0 / np.diff(nz))
    return float(ratios.max()), 0.0


def make_weight_hardy(n: int = DEFAULT_TRUNC) -> WeightSequence:
    """Constant weight sequence beta_j = 1 (the classical Hardy space)."""
    if n < 1:
        raise InvalidParameterError("need at least two stored weights")
    return WeightSequence(np.ones(n + 1), 1.0, "hardy",
                          _binomial_series(1.0, n))


def make_weight_beta_alpha(alpha: float, n: int = DEFAULT_TRUNC) -> WeightSequence:
    """Weight sequence ``beta_k = k! Gamma(alpha) / Gamma(alpha + k)``.

    Computed by the stable recurrence ``beta_{k+1} = beta_k (k+1)/(alpha+k)``.
    The reciprocal series ``1/R`` is ``(1 - z)^alpha``, a polynomial for
    integer alpha.  Requires ``alpha > 1``; the step-down ratio
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
                          _binomial_series(alpha, n), alpha=float(alpha))


def make_weight_custom(betas) -> WeightSequence:
    """Validate an explicitly supplied weight sequence ``beta_0 .. beta_N``.

    Checks ``beta_0 = 1`` (NormalizationError otherwise), positivity and the
    non-increase condition ``beta_j >= beta_{j+1}`` (AdmissibilityError
    otherwise), and records the observed ratio bound.  An all-ones sequence
    is tagged as the constant Hardy weight.  Past its table a custom weight
    is defined by its last ratio: ``beta_{m+1} = beta_m beta_N / beta_{N-1}``
    for ``m >= N``.
    """
    arr = np.asarray(betas, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise InvalidParameterError("betas must be a nonempty 1-d sequence")
    if np.any(arr <= 0):
        raise AdmissibilityError("weights must be strictly positive")
    if abs(arr[0] - 1.0) > _ONE_TOL:
        raise NormalizationError(f"beta_0 must equal 1, got {arr[0]}")
    ratios = arr[:-1] / arr[1:]
    bad = np.nonzero(ratios < 1.0 - _ONE_TOL)[0]
    if bad.size:
        j = int(bad[0])
        raise AdmissibilityError(
            f"weights must be non-increasing; beta_{j} < beta_{j + 1}")
    bound = float(ratios.max()) if ratios.size else 1.0
    if len(arr) > 1 and np.all(np.abs(arr - 1.0) <= _ONE_TOL):
        c = _binomial_series(1.0, len(arr) - 1)
        return WeightSequence(arr, bound, "hardy", c)
    return WeightSequence(arr, bound, "custom", _reciprocal_series(1.0 / arr))


def reciprocal_coeffs(w: WeightSequence, n: int) -> np.ndarray:
    """Coefficients ``c_0 .. c_n`` of the reciprocal series ``1/R``."""
    if n > w.trunc_len:
        raise TruncationError(
            f"requested c_0..c_{n} but only {w.trunc_len + 1} weights stored")
    return w.c_coeffs[:n + 1].copy()


def wiener_report(w: WeightSequence, n: int) -> WienerReport:
    """Summability of the reciprocal coefficients: the partial sum
    ``sum_{j<=n} |c_j|``, the tail ``sum_{j>n} |c_j|`` and a verdict.

    Exact for the closed-form kinds, always summable: past
    ``m = max(n, floor(alpha))`` the ``c_j`` share one sign and all of them
    sum to ``(1 - 1)^alpha = 0``, so the tail is ``sum_{n<j<=m} |c_j|`` plus
    ``|sum_{j<=m} c_j| = |C(alpha - 1, m)| = |c_m| |alpha - m| / alpha``
    (0 for integer alpha), taken without cancellation.  A custom weight
    continues from ``c_N`` at its estimated step ``s``, "diverging" when
    ``s >= 1``, except that a table ending at its noise floor is summable
    to that resolution, with the floor as its tail past the table, and
    that a one-entry table is the Hardy weight, whose tail is ``|c_1| = 1``.
    """
    if n < 0 or n > w.trunc_len:
        raise TruncationError(
            f"need 0 <= n <= {w.trunc_len} stored coefficients, got {n}")
    mags = np.abs(w.c_coeffs)
    partial = float(mags[:n + 1].sum())
    if w.kind == "custom":
        if not w.trunc_len:
            return WienerReport(partial, 1.0, "summable")
        s, stored = w.c_step(n), float(mags[n + 1:].sum())
        if w.c_floor:
            return WienerReport(partial, stored + w.c_floor, "summable")
        if s >= 1.0:
            return WienerReport(partial, math.inf, "diverging")
        tail = stored + float(mags[-1]) * s / (1.0 - s)
        return WienerReport(partial, tail, "summable")
    alpha = w.alpha or 1.0
    m = max(n, math.floor(alpha))
    if m > w.trunc_len:
        mags = np.abs(_binomial_series(alpha, m))
    tail = mags[n + 1:m + 1].sum() + mags[m] * abs(alpha - m) / alpha
    return WienerReport(partial, float(tail), "summable")


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


def hereditary_rows(w: WeightSequence, ks, n: int,
                    gamma: bool) -> np.ndarray:
    """The ``c`` row ``c_0 .. c_n`` (when ``gamma``) stacked over
    ``quotient_rows(w, ks, n)`` (when ``ks`` is not empty): the coefficient
    rows of ``Gamma`` and ``Gamma^(k)``.  Built once per weight, shifts and
    length, and returned read-only."""
    key = (gamma, tuple(int(k) for k in ks), n)
    rows = w._rows.get(key)
    if rows is None:
        parts = [w.c_coeffs[None, :n + 1]] if gamma else []
        if key[1]:
            parts.append(quotient_rows(w, key[1], n))
        # kept in this layout: the contraction with the terms, and so
        # every hereditary sum, rounds by it
        rows = np.vstack(parts)
        rows.flags.writeable = False
        w._rows[key] = rows
    return rows
