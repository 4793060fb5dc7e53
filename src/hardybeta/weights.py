"""Weight sequences for weighted Hardy spaces and their coefficient tables.

A weight sequence ``beta_0, beta_1, ...`` is admissible when ``beta_0 = 1``
and ``1 <= beta_j / beta_{j+1} <= M`` for some ``M >= 1``, so the weights are
positive and non-increasing with a bounded step-down ratio.  A weight
stores its tables up to a length (default 256), which the reports alone
read (the ``weights`` report lists the tables, and every report names the
length):

* ``inv_betas``     reciprocals ``1 / beta_j``, the Taylor coefficients of
  the generating function ``R(z) = sum 1/beta_j z^j``,
* ``c_coeffs``      coefficients of ``1 / R(z)``: ``(-1)^j C(alpha, j)`` for
  the constant weight (``alpha = 1``) and ``beta_alpha``, the recursion
  ``c_0 = 1``, ``c_n = -sum_{j<n} c_j / beta_{n-j}`` for custom weights,
* shifted tables ``1 / beta_{k+j}`` and the quotient-series coefficients
  ``d^(k)_j = -sum_{l=1..k} c_{j+l} / beta_{k-l}`` used by the hereditary
  calculus.

Every weight answers at every index.  Every read of ``beta_i`` and
``1/beta_i`` takes ``WeightSequence._entries``, and every read of ``c``
takes ``reciprocal_coeffs``.  Hardy and ``beta_alpha`` are fixed by ``R``
itself: past the stored table they extend their tables in place by their
own recurrences, whose prefix is the stored table bit for bit, and keep
them.  A custom weight's table ``beta_0 .. beta_N`` defines it up to
``N``, and past it the weight continues at its last ratio
``s = beta_{N-1} / beta_N`` (``make_weight_custom``), so
``1/beta_{N+j} = s^j / beta_N`` and its ``c`` continues its own recursion.
Then ``1/R = (1 - s z) / P(z)`` exactly, with ``P = (1 - s z) R`` a
polynomial of degree below ``N``, and every shifted ``R_k`` is
``P_k / (1 - s z)`` with ``P_k = (1 - s z) R_k`` of degree below ``N - k``
(``rational_rows``): its hereditary maps need no tail.  Each weight knows
the tails of the series that remain: step bounds on
``|row[j+1] / row[j]|`` past a cut, whatever the stored length
(``inv_step``; ``c_step`` for hardy and ``beta_alpha``), and the Wiener
report of ``c``, with the rule of its verdict.  None of them is estimated.

Instances are immutable after construction and safe for concurrent reads;
the longer tables of hardy and ``beta_alpha``, a custom weight's longer
``c``, the stacked rows of the hereditary maps (``hereditary_rows``) and
the quadrature rules of the spectral route (``spectral.py``) are built on
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
)

DEFAULT_TRUNC = 256

#: relative tolerance for recognizing the constant weight / beta_0 = 1
_ONE_TOL = 1e-12


@dataclass
class WienerReport:
    """Summability of the reciprocal coefficients: ``sum_{j<=n} |c_j|``, the
    tail ``sum_{j>n} |c_j|`` (None where it is not known exactly), the
    verdict and the rule it came from."""

    partial_sum: float
    tail_estimate: float | None
    verdict: str  # "summable" | "diverging"
    rule: str  # closed form, polynomial 1/R or Schur-Cohn on P of degree d


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
    _long: tuple = field(init=False, repr=False, compare=False)
    _c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        self.inv_betas = 1.0 / self.betas
        self._long = (self.betas, self.inv_betas)
        self._c = self.c_coeffs
        r = self.betas[:-1] / self.betas[1:] if self.trunc_len else np.ones(1)
        #: the largest ratio from each index on: a custom weight's steps
        self.inv_steps = np.maximum.accumulate(r[::-1])[::-1]
        #: ``s = beta_{N-1} / beta_N``, at which a custom weight continues
        #: past its table (1 for a one-entry table)
        self.last_ratio = float(r[-1])
        self.wiener = wiener_report(self, self.trunc_len)

    @property
    def trunc_len(self) -> int:
        return len(self.betas) - 1

    def _entries(self, i):
        """``(beta_i, 1/beta_i)`` at an index or an index array ``i >= 0``,
        at every index: the stored table's entries within it.  Past it hardy
        and ``beta_alpha`` extend their tables in place by their
        recurrences, whose prefix is the stored table bit for bit, and keep
        them; a custom weight continues at its last ratio ``s``,
        ``1/beta_{N+j} = s^j / beta_N`` (``inf``, and ``beta`` 0, where
        that overflows)."""
        top = np.asarray(i).max(initial=0)
        betas, inv_betas = self._long  # one read: a call may replace it
        if top >= len(betas):
            if self.kind == "custom":  # the entry at min(i, N), stepped
                with np.errstate(over="ignore"):
                    step = self.last_ratio ** np.maximum(
                        np.asarray(i) - self.trunc_len, 0)
                    return (betas.take(i, mode="clip") / step,
                            inv_betas.take(i, mode="clip") * step)
            n = max(top, 2 * len(betas))
            betas = np.ones(n + 1) if self.alpha is None \
                else _beta_alpha_table(self.alpha, n, betas)
            inv_betas = 1.0 / betas
            self._long = (betas, inv_betas)
        return betas[i], inv_betas[i]

    def inv_step(self, m):
        """A bound on ``beta_i / beta_{i+1}`` for every ``i >= m``, at an
        index or an index array ``m``: the step of the rows
        ``1/beta_{k+j}`` past ``k + j = m``, whatever the stored length.
        Hardy steps by 1 and ``beta_alpha`` by ``(alpha + i)/(i + 1)``,
        which decreases, so its value at ``m`` bounds the rest; a custom
        weight takes its largest ratio from ``m`` on, and its last ratio
        past the table, where it continues at that ratio by definition
        (``_entries``)."""
        m = np.asarray(m)
        if self.kind == "custom":
            return self.inv_steps[np.minimum(m, len(self.inv_steps) - 1)]
        alpha = self.alpha or 1.0
        return (alpha + m) / (m + 1.0)

    def c_step(self, m):
        """A bound on ``|row[j+1] / row[j]|`` for every ``j >= m`` of the
        ``c`` row and the quotient rows of hardy (``alpha = 1``) and
        ``beta_alpha``, at an index or an index array ``m``: 1 once
        ``m >= floor(alpha)``, since ``|c_{j+1}/c_j| = |j - alpha|/(j + 1)
        <= 1`` there and the ``c_{j+l}`` in each ``d^(k)_j`` share one
        sign; ``inf`` before.  A custom weight is refused: its maps take the
        rational form (``rational_rows``) and need no step."""
        if self.kind == "custom":
            raise InvalidParameterError(
                "c_step has no bound for a custom weight: its hereditary "
                "maps take the rational form (rational_rows)")
        return np.where(np.asarray(m) >= math.floor(self.alpha or 1.0),
                        1.0, np.inf)

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


def _reciprocal_series(inv_betas: np.ndarray, head=(1.0,)) -> np.ndarray:
    """Recursion for the coefficients of 1 / sum(inv_betas[j] z^j), used for
    custom weights, continued from the coefficients ``head`` (``c_0 = 1``
    alone by default).  Entries below the rounding scale of their own
    defining sum are snapped to exact zero, so polynomial reciprocal series
    get exactly polynomial tables instead of roundoff dust."""
    n = len(inv_betas)
    c = np.zeros(n)
    c[:len(head)] = head
    eps = np.finfo(float).eps
    for m in range(len(head), n):
        # c_m = -sum_{j=0}^{m-1} c_j / beta_{m-j}
        terms = c[:m] * inv_betas[m:0:-1]
        val = -terms.sum()
        if abs(val) <= 8.0 * eps * np.abs(terms).sum():
            val = 0.0
        c[m] = val
    return c


def _beta_alpha_table(alpha: float, n: int, head=(1.0,)) -> np.ndarray:
    """``beta_0 .. beta_n`` of ``beta_alpha``: the table ``head`` continued
    by ``beta_{k+1} = beta_k (k+1)/(alpha+k)`` on Python floats."""
    betas = np.asarray(head, dtype=float).tolist()
    b = betas[-1]
    for k in range(len(betas) - 1, n):
        b = b * (k + 1) / (alpha + k)
        betas.append(b)
    return np.array(betas)


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
    integer alpha.  Requires a finite ``alpha > 1``; the step-down ratio
    ``beta_k / beta_{k+1} = (alpha+k)/(k+1)`` is maximal at ``k = 0`` so the
    ratio bound is ``alpha`` itself.
    """
    if not 1 < alpha < math.inf:  # NaN fails
        raise InvalidParameterError(f"alpha must be finite, > 1, got {alpha}")
    if n < 1:
        raise InvalidParameterError("need at least two stored weights")
    return WeightSequence(_beta_alpha_table(float(alpha), n), float(alpha),
                          "beta_alpha",
                          _binomial_series(alpha, n), alpha=float(alpha))


def make_weight_custom(betas) -> WeightSequence:
    """Validate an explicitly supplied weight sequence ``beta_0 .. beta_N``.

    Refuses a non-finite entry, and checks ``beta_0 = 1``
    (NormalizationError otherwise), positivity and the
    non-increase condition ``beta_j >= beta_{j+1}`` (AdmissibilityError
    otherwise), and records the observed ratio bound.  An all-ones sequence
    is tagged as the constant Hardy weight.  Past its table a custom weight
    is defined by its last ratio: ``beta_{m+1} = beta_m beta_N / beta_{N-1}``
    for ``m >= N``, and every call reads it there (``_entries``).
    """
    arr = np.asarray(betas, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise InvalidParameterError("betas must be a nonempty 1-d sequence")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("betas must be finite")
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
    """Coefficients ``c_0 .. c_n`` of the reciprocal series ``1/R`` at any
    ``n``, the one reader of the ``c`` table.  Past the stored table hardy
    and ``beta_alpha`` take their binomial series, and a custom weight its
    recursion continued over its continued reciprocals (``_entries``), an
    ``O(n^2)`` loop; either is built on first use and kept, and its prefix
    is the stored table bit for bit."""
    c = w._c  # one read: a concurrent call may replace it
    if n >= len(c):
        c = w._c = _binomial_series(w.alpha or 1.0, n) \
            if w.kind != "custom" \
            else _reciprocal_series(w._entries(np.arange(n + 1))[1], c)
    return c[:n + 1].copy()


def _schur_cohn(p) -> bool:
    """Whether the real polynomial ``sum_m p_m z^m`` (``p_0 != 0``) has no
    zero in the closed unit disk: the Schur–Cohn test on the reversed
    polynomial ``f``, whose zeros are then all in the open disk.  With ``f``
    made monic, that holds iff ``|k| < 1`` for ``k = f_0`` and it holds for
    ``(f - k f_rev) / z`` (Rouché on the circle, where
    ``|f_rev| = |f|``); ``O(d^2)`` for degree ``d``, and NaN fails it."""
    f = np.asarray(p, dtype=float)[::-1]
    while len(f) > 1:
        f = f / f[-1]
        if not abs(f[0]) < 1.0:
            return False
        f = (f - f[0] * f[::-1])[1:]
    return True


def wiener_report(w: WeightSequence, n: int) -> WienerReport:
    """Summability of the reciprocal coefficients: the partial sum
    ``sum_{j<=n} |c_j|``, the tail ``sum_{j>n} |c_j|``, a verdict and its
    rule.

    Closed form for hardy and ``beta_alpha``, always summable: past
    ``m = max(n, floor(alpha))`` the ``c_j`` share one sign and all of them
    sum to ``(1 - 1)^alpha = 0``, so the tail is ``sum_{n<j<=m} |c_j|`` plus
    ``|sum_{j<=m} c_j| = |C(alpha - 1, m)| = |c_m| |alpha - m| / alpha``
    (0 for integer alpha), taken without cancellation.  A custom weight has
    ``1/R = (1 - s z) / P(z)`` (``rational_rows``), Wiener-summable iff
    ``P`` has no zero in the closed disk, which the Schur–Cohn test decides;
    its tail is exact, and given, only where ``P`` is constant (``P(0) = 1``)
    and ``1/R = 1 - s z`` a polynomial, and None otherwise.
    """
    if n < 0:
        raise InvalidParameterError(f"wiener_report needs n >= 0, got {n}")
    alpha = w.alpha or 1.0
    m = n if w.kind == "custom" else max(n, math.floor(alpha))
    mags = np.abs(reciprocal_coeffs(w, m))
    partial = float(mags[:n + 1].sum())
    if w.kind == "custom":
        p = rational_denominator(w)
        if len(p) == 1:
            tail = float(np.sum([1.0, w.last_ratio][n + 1:]))
            return WienerReport(partial, tail, "summable", "polynomial 1/R")
        return WienerReport(partial, None,
                            "summable" if _schur_cohn(p) else "diverging",
                            f"Schur-Cohn on P of degree {len(p) - 1}")
    tail = mags[n + 1:m + 1].sum() + mags[m] * abs(alpha - m) / alpha
    return WienerReport(partial, float(tail), "summable", "closed form")


def shifted_resolvent_coeffs(w: WeightSequence, k: int, n: int) -> np.ndarray:
    """Coefficients ``1/beta_{k+j}`` for ``j = 0..n`` of the k-shifted series."""
    if k < 0 or n < 0:
        raise InvalidParameterError("k and n must be nonnegative")
    return w._entries(np.arange(k, k + n + 1))[1]


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
    inv_betas = w._entries(np.arange(k_max))[1]
    c = reciprocal_coeffs(w, n + k_max)
    gap = ks - np.arange(1, k_max + 1)[:, None]  # k - l
    B = np.where(gap >= 0, inv_betas[np.maximum(gap, 0)], 0.0)
    # row j of the window is c_{j+1}, ..., c_{j+k_max}
    return -(sliding_window_view(c[1:], k_max) @ B).T


def rational_rows(w: WeightSequence, ks, n: int) -> np.ndarray:
    """Coefficients ``0 .. n`` of ``P_k = (1 - s z) R_k``, one row per shift
    of ``ks``, for a weight continued past its table at ``s = last_ratio``:
    ``1/beta_k`` at ``m = 0`` (``_entries``, at any shift), then
    ``1/beta_{k+m} - s/beta_{k+m-1}``, exactly 0 once ``k + m >= N``, since
    past the table ``1/beta`` steps by ``s``; so ``P_k`` has degree below
    ``N - k`` (``P_k = 1/beta_k`` from ``k = N - 1`` on).  ``P_0`` is ``P``,
    ``R_k / R = P_k / P``, and past ``m = 0`` the row is ``P`` shifted by
    ``k``: no ``P_k`` is of higher degree than ``P``."""
    ks = np.asarray(ks)
    N, inv = w.trunc_len, w.inv_betas
    # P's coefficients 1 .. N - 1 from the table, 0 past it
    p = np.zeros(max(N, ks.max(initial=0) + n + 1))
    p[1:N] = inv[1:N] - w.last_ratio * inv[:N - 1]
    rows = p[ks[:, None] + np.arange(n + 1)]
    rows[:, 0] = w._entries(ks)[1]
    return rows


def rational_denominator(w: WeightSequence) -> np.ndarray:
    """The coefficients of ``P = (1 - s z) R`` (``P_0`` of
    ``rational_rows``) up to its last nonzero one; ``P(0) = 1``."""
    return np.trim_zeros(rational_rows(w, [0], max(w.trunc_len - 1, 0))[0],
                         "b")


def hereditary_rows(w: WeightSequence, ks, n: int,
                    gamma: bool) -> np.ndarray:
    """Coefficient rows ``0 .. n`` of ``Gamma`` (when ``gamma``) stacked over
    those of ``Gamma^(k)`` for each shift ``k >= 1`` of ``ks`` (when not
    empty): the ``c`` row over ``quotient_rows``, or, for a custom weight,
    the numerators over ``P`` that ``P(L)^-1 X`` is summed with:
    ``1 - s z`` over ``rational_rows``.  Built once per weight, shifts and
    length, and returned read-only."""
    key = (gamma, tuple(int(k) for k in ks), n)
    rows = w._rows.get(key)
    if rows is None:
        custom = w.kind == "custom"
        parts = [np.eye(1, n + 1) - w.last_ratio * np.eye(1, n + 1, 1)
                 if custom else reciprocal_coeffs(w, n)[None]] \
            if gamma else []
        if key[1]:
            parts.append((rational_rows if custom else quotient_rows)(
                w, key[1], n))
        # kept in this layout: the contraction with the terms, and so
        # every hereditary sum, rounds by it
        rows = np.vstack(parts)
        rows.flags.writeable = False
        w._rows[key] = rows
    return rows
