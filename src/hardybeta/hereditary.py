"""Hereditary calculus on matrices: resolvents, gramians, Stein identities.

For an output pair ``(C, A)`` (``A`` an n-by-n complex matrix, ``C`` p-by-n)
and an admissible weight sequence this module evaluates

* the weighted resolvents ``R_k(zA) = sum_j (1/beta_{k+j}) (zA)^j``, on a
  whole point array from one table of powers ``(rA)^j`` at the array's
  largest radius ``r``,
* the shifted observability gramians
  ``G^(k) = sum_j (1/beta_{j+k}) A^{*j} C^* C A^j``,
* the hereditary maps ``Gamma[X] = sum_j c_j A^{*j} X A^j`` and their shifted
  companions built from the quotient-series tables,
* Stein-identity residuals and a tolerance-qualified classification of the
  pair (contractive, isometric, hypercontractive, strongly stable, exactly
  observable).

All series are cut adaptively by the engine in ``series.py``, with each
coefficient row's step bound past the table taken from the weight.  The
tail bound it reports holds under the transient constant ``K`` observed on
the terms summed so far (terms dominated by ``K * q^j`` for a decay rate
``q`` chosen from the spectral radius); transient growth of a non-normal
``A`` after the stop is not covered (see ROADMAP.md).  A resolvent grid is
cut once, at its largest radius ``r``: since ``|z_i / r|^j <= 1``, the tail
bound of the powers ``(rA)^j`` holds at every point of the grid.
Series-summed quantities are restricted to spectral radius at most 0.999.

Everything here is a pure function of immutable inputs; results are safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import series
from .errors import (
    DivergenceError,
    HereditaryDomainError,
    InvalidParameterError,
    ObservabilityError,
    SpectralRadiusError,
    TruncationError,
)
from .weights import WeightSequence, gamma_k_coeffs, quotient_rows

#: series-summed quantities refuse spectral radius beyond this
RHO_MAX = 0.999


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize roundoff: (M + M*) / 2, of one matrix or of each matrix
    of a stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def opnorm(M: np.ndarray) -> float:
    """Operator (spectral) norm."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def spectral_radius(A: np.ndarray) -> float:
    A = np.atleast_2d(np.asarray(A))
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


def min_eig(M: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(M))[0])


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Hermitian square root; negative roundoff eigenvalues are clipped to 0."""
    lam, V = np.linalg.eigh(hermitize(M))
    lam = np.where(lam < 0.0, 0.0, lam)
    return hermitize((V * np.sqrt(lam)) @ V.conj().T)


def hermitian_inverse(M: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix via eigen-solve.

    Refuses (rather than pseudo-inverts) matrices whose smallest eigenvalue
    falls below ``rank_tol`` times the largest.
    """
    lam, V = np.linalg.eigh(hermitize(M))
    if lam[0] <= rank_tol * max(lam[-1], 0.0) or lam[0] <= 0.0:
        raise ObservabilityError(
            f"matrix numerically singular: eig range [{lam[0]:.3e}, {lam[-1]:.3e}]")
    return hermitize((V / lam) @ V.conj().T)


@dataclass
class OutputPair:
    """Matrices ``(C, A)`` with ``A`` n-by-n on the state space and ``C``
    p-by-n into the output space; the spectral radius of ``A`` is cached."""

    A: np.ndarray
    C: np.ndarray
    spectral_radius: float = field(init=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=complex))
        if self.A.shape[0] != self.A.shape[1]:
            raise InvalidParameterError("A must be square")
        if self.C.shape[1] != self.A.shape[0]:
            raise InvalidParameterError(
                f"C has {self.C.shape[1]} columns, expected {self.A.shape[0]}")
        self.spectral_radius = spectral_radius(self.A)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass
class GramianTable:
    """Shifted gramians ``G^(k)`` for ``k = 0..k_max`` with their tail
    bounds and the truncation order of the shared series."""

    entries: dict
    tail_bounds: dict
    trunc_order: int

    def __getitem__(self, k: int) -> np.ndarray:
        return self.entries[k]

    @property
    def k_max(self) -> int:
        return max(self.entries)


@dataclass
class ClassificationReport:
    """Tolerance-qualified classification flags with their justifying residuals."""

    contractive_pair: bool
    isometric_pair: bool
    hypercontraction: bool
    strongly_stable_beta: bool
    exactly_observable: bool
    residuals: dict
    k_checked: int
    certified_all_k: bool = False

    @property
    def flags(self) -> dict:
        return {
            "contractive_pair": self.contractive_pair,
            "isometric_pair": self.isometric_pair,
            "hypercontraction": self.hypercontraction,
            "strongly_stable_beta": self.strongly_stable_beta,
            "exactly_observable": self.exactly_observable,
        }


@dataclass
class DeltaReport:
    """Limit data for the decreasing sequence ``A^{*k} Gamma^(k)[H] A^k``."""

    delta: np.ndarray
    converged: bool
    monotone_min_eig: float
    sum_identity_residual: float | None


# ---------------------------------------------------------------------------
# series: conjugation sums and resolvents
# ---------------------------------------------------------------------------

def _hereditary_sums(A, X, rows, steps, q, tol, context, floors=0.0):
    """``sum_j rows[i, j] A^{*j} X A^j`` for every row of the 2-d array
    ``rows`` (step bounds ``steps`` and ``floors`` past the table), cut once
    for all rows by the series engine and contracted in one product.
    Returns (sums, series record)."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    rec = series.adaptive_sum(np.asarray(X, dtype=complex), A, rows, q,
                              steps, tol, context, left=A.conj().T,
                              floors=floors)
    J1 = rec.J + 1
    # real coefficients against the real view of the complex terms
    flat = rec.terms.reshape(J1, n * n).view(float)
    sums = (np.asarray(rows, dtype=float)[:, :J1] @ flat).view(complex)
    return hermitize(sums.reshape(-1, n, n)), rec


def _resolvent_table(w: WeightSequence, k: int, A, z, tol: float):
    """``R_k(z_i A)`` for a point or a 1-d array of points, of shape
    ``np.shape(z) + (n, n)``, together with the series record of the powers
    at the grid radius ``r = max |z_i|`` (None when the sum is exact because
    ``r = 0`` or ``A = 0``)."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    n = A.shape[0]
    if not np.isfinite(zs).all():
        raise InvalidParameterError("resolvent points must be finite")
    rho = spectral_radius(A)
    r = float(np.max(np.abs(zs))) if zs.size else 0.0
    if r * rho >= 1.0:
        raise DivergenceError(
            f"|z| * rho(A) = {r * rho:.6f} >= 1: series diverges")
    if w.trunc_len - k < 0:
        raise TruncationError(f"shift k={k} exceeds stored length")
    inv_b = w.inv_betas[k:]
    shape = np.shape(z) + (n, n)
    if r == 0.0 or not A.any():
        return np.broadcast_to(inv_b[0] * np.eye(n, dtype=complex),
                               shape).copy(), None
    # |z_i / r|^j <= 1, so the tail bound of the powers (rA)^j bounds the
    # tail at every point of the grid
    rec = series.adaptive_sum(np.eye(n, dtype=complex), r * A, [inv_b],
                              series.decay_rate(rho, r),
                              w.inv_step(w.trunc_len), tol, "resolvent_apply")
    coef = (zs[:, None] / r) ** np.arange(rec.J + 1) * inv_b[:rec.J + 1]
    S = np.tensordot(coef, rec.terms, axes=(1, 0))
    return S.reshape(shape), rec


def resolvents(w: WeightSequence, k: int, A, zs,
               tol: float = 1e-12) -> np.ndarray:
    """``R_k(z_i A)`` at a point or a 1-d array of points, of shape
    ``np.shape(zs) + (n, n)``, from one table of powers ``(rA)^j`` at the
    grid radius ``r = max |z_i|``, cut once for the whole grid with tail
    <= tol at every point.

    Requires finite points and ``r * rho(A) < 1``.  Raises ConvergenceError
    when the stored coefficient table is exhausted before the tail bound
    drops below ``tol``.
    """
    return _resolvent_table(w, k, A, zs, tol)[0]


def resolvent_apply(w: WeightSequence, k: int, A, z: complex,
                    tol: float = 1e-12) -> np.ndarray:
    """Evaluate ``R_k(zA) = sum_j (1/beta_{k+j}) z^j A^j`` with tail <= tol
    at one point: the one-point grid of ``resolvents``.

    Requires ``|z| * rho(A) < 1``.  Raises ConvergenceError when the stored
    coefficient table is exhausted before the tail bound drops below
    ``tol``.
    """
    return resolvents(w, k, A, complex(z), tol)


def resolvent_scalar(w: WeightSequence, k: int, x, tol: float = 1e-12):
    """Scalar series ``sum_j x^j / beta_{k+j}`` vectorized over ``x``.

    Used for the space kernel ``K(z, zeta) = R(z * conj(zeta))``.  Requires
    finite points with ``|x| < 1``.
    """
    xs = np.asarray(x, dtype=complex)
    if not np.isfinite(xs).all():
        raise InvalidParameterError("scalar resolvent points must be finite")
    if np.any(np.abs(xs) >= 1.0):
        raise DivergenceError("scalar resolvent needs |x| < 1")
    if w.trunc_len - k < 0:
        raise TruncationError(f"shift k={k} exceeds stored length")
    inv_b = w.inv_betas[k:]
    q = float(np.max(np.abs(xs), initial=0.0))
    # |x^j| <= q^j exactly, so the transient constant is 1
    J = 0 if q == 0.0 else series.RowTails(
        [inv_b], q, w.inv_step(w.trunc_len)).cut(1.0, tol, "resolvent_scalar")
    # Horner evaluation of the degree-J truncation
    return np.polyval(inv_b[J::-1], xs)


# ---------------------------------------------------------------------------
# gramians and observability
# ---------------------------------------------------------------------------

def _gramian_rows(w, ks, pair, tol, context):
    if pair.spectral_radius > RHO_MAX:
        raise SpectralRadiusError(
            f"rho(A) = {pair.spectral_radius:.4f} > {RHO_MAX}: gramian series "
            "not summable at desk scale")
    kmax = max(ks)
    Jcap = w.trunc_len - kmax
    if Jcap < 4:
        raise TruncationError(
            f"stored weights too short for gramian shift k={kmax}")
    rows = np.array([w.inv_betas[k:k + Jcap + 1] for k in ks])
    steps = [w.inv_step(k + Jcap) for k in ks]
    sums, rec = _hereditary_sums(
        pair.A, pair.C.conj().T @ pair.C, rows, steps,
        series.conjugation_rate(pair.spectral_radius), tol, context)
    return dict(zip(ks, sums)), dict(zip(ks, rec.tails)), rec.J


def gramian(w: WeightSequence, k: int, pair: OutputPair,
            tol: float = 1e-10) -> np.ndarray:
    """Shifted observability gramian ``G^(k)`` with tail bound <= tol."""
    return _gramian_rows(w, [k], pair, tol, "gramian")[0][k]


def gramian_table(w: WeightSequence, pair: OutputPair, k_max: int,
                  tol: float = 1e-10) -> GramianTable:
    """All shifted gramians ``G^(k)``, ``k = 0..k_max``, from shared moments."""
    entries, tails, J = _gramian_rows(w, list(range(k_max + 1)), pair, tol,
                                      "gramian_table")
    return GramianTable(entries=entries, tail_bounds=tails, trunc_order=J)


def observability_coeffs(w: WeightSequence, k: int, pair: OutputPair,
                         J: int) -> list:
    """Taylor coefficients ``(1/beta_{j+k}) C A^j`` of the shifted
    observability map, for ``j = 0..J``."""
    if k + J > w.trunc_len:
        raise TruncationError("stored weights too short")
    out = []
    Q = pair.C.copy()
    for j in range(J + 1):
        out.append(w.inv_betas[k + j] * Q)
        if j < J:
            Q = Q @ pair.A
    return out


# ---------------------------------------------------------------------------
# hereditary maps
# ---------------------------------------------------------------------------

def _check_domain(A, X, tol):
    """Domain condition for the hereditary calculus: X >= A* X A >= 0."""
    X = hermitize(np.asarray(X, dtype=complex))
    A = np.asarray(A, dtype=complex)
    scale = max(opnorm(X), 1.0)
    if min_eig(X) < -tol * scale:
        raise HereditaryDomainError("X must be positive semidefinite")
    if min_eig(X - A.conj().T @ X @ A) < -tol * scale:
        raise HereditaryDomainError("X - A* X A must be positive semidefinite")


def _check_summable(w: WeightSequence):
    """The hereditary maps need a reciprocal coefficient table whose
    summability check did not come back "diverging"."""
    if w.wiener.verdict == "diverging":
        raise HereditaryDomainError(
            "reciprocal coefficients diverge: hereditary map undefined")


def gamma_map(w: WeightSequence, A, X, tol: float = 1e-10) -> np.ndarray:
    """Hereditary map ``Gamma[X] = sum_j c_j A^{*j} X A^j``.

    Requires the domain condition ``X >= A* X A >= 0`` and a reciprocal
    coefficient table whose summability check did not come back "diverging".
    """
    _check_domain(A, X, tol)
    _check_summable(w)
    return _hereditary_sums(A, X, w.c_coeffs[None], w.c_step(w.trunc_len),
                            series.conjugation_rate(spectral_radius(A)),
                            tol, "gamma_map", w.c_floor)[0][0]


def gamma_k_map(w: WeightSequence, k: int, A, X,
                tol: float = 1e-10) -> np.ndarray:
    """Shifted hereditary map built from the quotient-series coefficients."""
    _check_domain(A, X, tol)
    _check_summable(w)
    if k == 0:
        return hermitize(np.asarray(X, dtype=complex))
    d = gamma_k_coeffs(w, k, w.trunc_len - k)
    return _hereditary_sums(A, X, d[None], w.c_step(w.trunc_len - k),
                            series.conjugation_rate(spectral_radius(A)),
                            tol, "gamma_k_map", w.c_floors([k]))[0][0]


def gamma_binomial(m: int, A, X) -> np.ndarray:
    """Finite binomial defect map ``sum_j (-1)^j binom(m, j) A^{*j} X A^j``."""
    A = np.asarray(A, dtype=complex)
    M = np.asarray(X, dtype=complex)
    out = np.zeros_like(M)
    for j in range(m + 1):
        out = out + ((-1) ** j * math.comb(m, j)) * M
        if j < m:
            M = A.conj().T @ M @ A
    return hermitize(out)


def stein_residual(w: WeightSequence, k: int, pair: OutputPair,
                   G_k, G_k1) -> float:
    """Operator-norm residual of ``A* G^(k+1) A + (1/beta_k) C* C = G^(k)``."""
    A, C = pair.A, pair.C
    lhs = A.conj().T @ np.asarray(G_k1, dtype=complex) @ A \
        + w.inv_betas[k] * (C.conj().T @ C)
    return opnorm(lhs - np.asarray(G_k, dtype=complex))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _psd_defects(Ms) -> np.ndarray:
    """Most negative scaled eigenvalue of the Hermitian part of each matrix
    of a stack; >= 0 means PSD to working precision.  The scale is
    ``max(|lambda_min|, |lambda_max|, 1)``, the operator norm floored at 1."""
    lam = np.linalg.eigvalsh(hermitize(Ms))
    lo, hi = lam[..., 0], lam[..., -1]
    return lo / np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)


def _psd_defect(M) -> float:
    """``_psd_defects`` of one matrix."""
    return float(_psd_defects(M))


def _hereditary_rows(w: WeightSequence, k_max: int):
    """The reciprocal-series row and the quotient rows ``d^(1..k_max)``,
    cut at their common length, with their common step bound and floors."""
    cap = w.trunc_len - k_max
    rows = np.vstack([w.c_coeffs[:cap + 1],
                      quotient_rows(w, range(1, k_max + 1), cap)])
    return rows, w.c_step(cap), w.c_floors(range(k_max + 1))


def classify(w: WeightSequence, pair: OutputPair, k_max: int = 20,
             tol: float = 1e-8) -> ClassificationReport:
    """Tolerance-qualified classification of an output pair.

    Checks, with every verdict accompanied by its numeric residual: operator
    contractivity, positivity of the hereditary maps of the identity up to
    ``k_max`` (certified for all k at once when the weight is a beta_alpha
    family with integer alpha, via the binomial defect maps), the
    contractive / isometric pair conditions, exact observability of the
    gramian, and strong stability in the weighted sense.

    Series-summed quantities restrict the spectral radius to 0.999, and a
    weight whose reciprocal series is "diverging" is refused (as
    ``gamma_map`` does).
    """
    A = pair.A
    rho = pair.spectral_radius
    if rho > RHO_MAX:
        raise SpectralRadiusError(
            f"rho(A) = {rho:.4f} > {RHO_MAX}: classification needs a "
            "series-summable gramian")
    _check_summable(w)
    n = pair.n
    I = np.eye(n, dtype=complex)
    opA = opnorm(A)
    contraction = opA <= 1.0 + tol

    rows, step, floors = _hereditary_rows(w, k_max)
    sums = _hereditary_sums(A, I, rows, step, series.conjugation_rate(rho),
                            tol * 0.1, "classify", floors)[0]
    gamma_I = sums[0]
    gamma_k_I = sums[1:]

    defects = _psd_defects(sums)
    gamma_min = float(defects[0])
    gamma_k_min = float(defects[1:].min())
    hyper_truncated = contraction and gamma_min >= -tol and gamma_k_min >= -tol

    certified = False
    betan_min = None
    if w.kind == "beta_alpha" and w.alpha is not None \
            and abs(w.alpha - round(w.alpha)) < 1e-12:
        nn = int(round(w.alpha))
        betan_min = min(_psd_defect(gamma_binomial(1, A, I)),
                        _psd_defect(gamma_binomial(nn, A, I)))
        certified = contraction and betan_min >= -tol
    hypercontraction = hyper_truncated or certified

    CstarC = pair.C.conj().T @ pair.C
    pair_defect = gamma_I - CstarC
    contractive_pair = hypercontraction and _psd_defect(pair_defect) >= -tol
    isom_res = opnorm(pair_defect)
    isometric_pair = hypercontraction and isom_res <= tol * max(opnorm(gamma_I), 1.0)

    table = gramian_table(w, pair, 0, tol=tol * 0.1)
    G = table[0]
    gram_eigs = np.linalg.eigvalsh(hermitize(G))
    exactly_observable = bool(gram_eigs[0] > tol * max(gram_eigs[-1], 1.0))

    Ak = np.linalg.matrix_power(A, k_max)
    stab = Ak.conj().T @ gamma_k_I[-1] @ Ak
    stab_res = opnorm(stab)
    strongly_stable_beta = stab_res <= tol

    residuals = {
        "operator_norm_excess": opA - 1.0,
        "gamma_identity_min_eig": gamma_min,
        "gamma_shifted_min_eig": gamma_k_min,
        "pair_defect_min_eig": _psd_defect(pair_defect),
        "isometry_residual": isom_res,
        "gramian_min_eig": float(gram_eigs[0]),
        "gramian_tail_bound": table.tail_bounds[0],
        "beta_strong_stability": stab_res,
    }
    if betan_min is not None:
        residuals["integer_alpha_certificate_min_eig"] = betan_min

    return ClassificationReport(
        contractive_pair=contractive_pair,
        isometric_pair=isometric_pair,
        hypercontraction=hypercontraction,
        strongly_stable_beta=strongly_stable_beta,
        exactly_observable=exactly_observable,
        residuals=residuals,
        k_checked=k_max,
        certified_all_k=certified,
    )


def delta_limit(w: WeightSequence, A, H, k_max: int = 20,
                tol: float = 1e-8) -> DeltaReport:
    """Limit of the decreasing sequence ``D_k = A^{*k} Gamma^(k)[H] A^k``.

    Requires ``H`` to satisfy the domain and shifted-positivity conditions up
    to ``tol``, and a weight whose reciprocal series is not "diverging" (as
    ``gamma_map`` does).  Returns ``D_{k_max}`` together with a monotone-decrease
    certificate (worst eigenvalue of the decrements, which must be PSD) and,
    when the sequence has numerically converged, the residual of the
    summation identity ``sum_j (1/beta_j) A^{*j} Gamma[H] A^j = H - Delta``.
    """
    A = np.asarray(A, dtype=complex)
    H = hermitize(np.asarray(H, dtype=complex))
    _check_domain(A, H, tol)
    _check_summable(w)
    scale = max(opnorm(H), 1.0)

    q = series.conjugation_rate(spectral_radius(A))
    rows, step, floors = _hereditary_rows(w, k_max + 1)
    sums = _hereditary_sums(A, H, rows, step, q, tol * 0.1, "delta_limit",
                            floors)[0]
    gamma_H = sums[0]
    bad = np.flatnonzero(_psd_defects(sums[1:]) < -tol)
    if bad.size:
        raise HereditaryDomainError(
            f"shifted hereditary map of H not PSD at k={bad[0] + 1}")

    D = [H]  # D_0 = Gamma^(0)[H] = H
    P = np.eye(A.shape[0], dtype=complex)
    for k in range(1, k_max + 2):
        P = P @ A
        D.append(hermitize(P.conj().T @ sums[k] @ P))
    mono = min(min_eig(D[k] - D[k + 1]) for k in range(k_max + 1)) / scale
    if mono < -10 * tol:
        raise HereditaryDomainError(
            f"monotone decrease violated: worst decrement eigenvalue {mono:.3e}")

    delta = D[k_max]
    converged = opnorm(D[k_max] - D[k_max - 1]) <= tol * scale

    residual = None
    if converged and _psd_defect(gamma_H) >= -tol:
        sums2 = _hereditary_sums(A, gamma_H, w.inv_betas[None],
                                 w.inv_step(w.trunc_len), q, tol * 0.1,
                                 "delta_limit sum identity")[0]
        residual = opnorm(sums2[0] - (H - delta))

    return DeltaReport(delta=delta, converged=converged,
                       monotone_min_eig=mono,
                       sum_identity_residual=residual)
