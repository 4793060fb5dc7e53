"""Truncated elements of the weighted Hardy space and reproducing kernels.

Elements are stored as truncated Taylor coefficient sequences ``f_0..f_J``
with values in ``C^p`` and squared norm ``sum_j beta_j ||f_j||^2``.  The
module evaluates the reproducing kernels of

* the full space,                ``K(z, zeta) = R(z conj(zeta)) I``,
* the coinvariant subspace attached to an exactly observable pair,
  ``C R(zA) inv(G) R(zeta A)* C*``,
* its orthogonal complement (a shift-invariant subspace) and the images of
  that subspace under powers of the shift,
* the wandering gaps between consecutive shift images,

and runs two verification suites: the inner-function-family check
(isometry, mutual orthogonality, shifted containment with an explicit
truncation allowance) and the contractive-multiplier check (pointwise norm
bound plus positivity of the associated block kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import series
from .colligation import ColligationFamily, transfer_taylor
from .errors import InvalidParameterError, TruncationError
from .hereditary import (
    OutputPair,
    gramian,
    hermitian_inverse,
    hermitize,
    min_eig,
    opnorm,
    resolvent_apply,
    resolvent_scalar,
)
from .weights import WeightSequence


# ---------------------------------------------------------------------------
# truncated Hardy elements
# ---------------------------------------------------------------------------

@dataclass
class HardyElement:
    """Truncated Taylor coefficients ``f_0..f_J`` of a vector-valued element.

    ``coeffs`` has shape ``(J+1, p)``; the squared norm
    ``sum_j beta_j ||f_j||^2`` is stored at construction.
    """

    weight: WeightSequence
    coeffs: np.ndarray
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if self.degree > self.weight.trunc_len:
            raise TruncationError(
                f"degree {self.degree} exceeds stored weights "
                f"({self.weight.trunc_len})")
        b = self.weight.betas[:self.degree + 1]
        self.norm_sq = float(np.sum(b * np.sum(np.abs(self.coeffs) ** 2, axis=1)))

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def p(self) -> int:
        return self.coeffs.shape[1]


def hardy_inner(f: HardyElement, g: HardyElement) -> complex:
    """Weighted inner product ``sum_j beta_j <f_j, g_j>``.

    Truncated at the shorter of the two coefficient sequences; both elements
    must share the weight and the value dimension.
    """
    if f.weight is not g.weight and not np.array_equal(f.weight.betas,
                                                       g.weight.betas):
        raise InvalidParameterError("elements live in different spaces")
    if f.p != g.p:
        raise InvalidParameterError("value dimensions differ")
    m = min(f.degree, g.degree) + 1
    b = f.weight.betas[:m]
    return complex(np.sum(b * np.sum(np.conj(g.coeffs[:m]) * f.coeffs[:m],
                                     axis=1)))


def shift_apply(f: HardyElement) -> HardyElement:
    """Multiplication by the coordinate function: coefficients move up."""
    shifted = np.vstack([np.zeros((1, f.p), dtype=complex), f.coeffs])
    return HardyElement(f.weight, shifted)


def shift_adjoint_apply(f: HardyElement) -> HardyElement:
    """Adjoint of the shift: ``g_j = (beta_{j+1} / beta_j) f_{j+1}``."""
    if f.degree == 0:
        return HardyElement(f.weight, np.zeros((1, f.p), dtype=complex))
    ratios = (f.weight.betas[1:f.degree + 1]
              / f.weight.betas[:f.degree])[:, None]
    return HardyElement(f.weight, ratios * f.coeffs[1:])


def observability_element(w: WeightSequence, pair: OutputPair, x,
                          J: int) -> HardyElement:
    """The element ``sum_j (1/beta_j) (C A^j x) z^j`` truncated at degree J."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    rows = []
    v = x
    for j in range(J + 1):
        rows.append(w.inv_betas[j] * (pair.C @ v))
        v = pair.A @ v
    return HardyElement(w, np.array(rows))


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------

def space_kernel(w: WeightSequence, z: complex, zeta: complex,
                 tol: float = 1e-12) -> complex:
    """Scalar reproducing kernel ``R(z * conj(zeta))`` of the full space."""
    return complex(resolvent_scalar(w, 0, z * np.conj(zeta), tol))


def _range_kernel(w: WeightSequence, k: int, pair: OutputPair, G_inv,
                  z: complex, zeta: complex, tol: float) -> np.ndarray:
    """``C R_k(zA) G_inv R_k(zeta A)* C*``."""
    Rz = resolvent_apply(w, k, pair.A, z, tol)
    Rzeta = resolvent_apply(w, k, pair.A, zeta, tol)
    return pair.C @ Rz @ G_inv @ Rzeta.conj().T @ pair.C.conj().T


def kernel_coinvariant(w: WeightSequence, pair: OutputPair, z: complex,
                       zeta: complex, gram_inv: np.ndarray | None = None,
                       tol: float = 1e-12) -> np.ndarray:
    """Kernel ``C R(zA) inv(G) R(zeta A)* C*`` of the coinvariant subspace
    spanned by the observability range of an exactly observable pair."""
    if gram_inv is None:
        gram_inv = hermitian_inverse(gramian(w, 0, pair, tol))
    return _range_kernel(w, 0, pair, gram_inv, z, zeta, tol)


def kernel_invariant(w: WeightSequence, pair: OutputPair, z: complex,
                     zeta: complex, gram_inv: np.ndarray | None = None,
                     tol: float = 1e-12) -> np.ndarray:
    """Kernel of the complementary shift-invariant subspace:
    ``R(z conj(zeta)) I - C R(zA) inv(G) R(zeta A)* C*``."""
    K = kernel_coinvariant(w, pair, z, zeta, gram_inv, tol)
    return space_kernel(w, z, zeta, tol) * np.eye(pair.p) - K


def kernel_shifted(w: WeightSequence, k: int, pair: OutputPair,
                   gramians, z: complex, zeta: complex,
                   tol: float = 1e-12) -> np.ndarray:
    """Kernel of the k-th shift image of the invariant subspace."""
    K = _range_kernel(w, k, pair, hermitian_inverse(gramians[k]), z, zeta, tol)
    scal = resolvent_scalar(w, k, z * np.conj(zeta), tol)
    return (z * np.conj(zeta)) ** k * (scal * np.eye(pair.p) - K)


def kernel_gap(w: WeightSequence, k: int, pair: OutputPair, gramians,
               z: complex, zeta: complex, tol: float = 1e-12) -> np.ndarray:
    """Kernel of the wandering gap between shift images k and k+1."""
    Gk_inv = hermitian_inverse(gramians[k])
    Gk1_inv = hermitian_inverse(gramians[k + 1])
    K0 = _range_kernel(w, k, pair, Gk_inv, z, zeta, tol)
    K1 = _range_kernel(w, k + 1, pair, Gk1_inv, z, zeta, tol)
    inner = w.inv_betas[k] * np.eye(pair.p) - K0 + (z * np.conj(zeta)) * K1
    return (z * np.conj(zeta)) ** k * inner


@dataclass
class KernelGrid:
    """Kernel evaluations over a list of point pairs.

    ``points`` holds ``(z, zeta)`` pairs and ``values`` the matching p-by-p
    matrices.  When the grid contains both orders of a pair, the values must
    be Hermitian transposes of each other.
    """

    points: list
    values: list

    def hermitian_symmetry_residual(self) -> float:
        lookup = {pt: V for pt, V in zip(self.points, self.values)}
        worst = 0.0
        for (z, zeta), V in lookup.items():
            mirror = lookup.get((zeta, z))
            if mirror is not None:
                worst = max(worst, opnorm(np.asarray(V)
                                          - np.asarray(mirror).conj().T))
        return worst


def default_grid(radii=(0.0, 0.2, 0.4, 0.6, 0.8), angles: int = 8):
    """Tensor grid of radii and equispaced angles, deduplicating the origin."""
    pts = []
    for r in radii:
        if r == 0.0:
            pts.append(0j)
            continue
        for m in range(angles):
            pts.append(r * np.exp(2j * np.pi * m / angles))
    return pts


# ---------------------------------------------------------------------------
# inner-function-family verification
# ---------------------------------------------------------------------------

@dataclass
class InnerFamilyReport:
    """Residuals of the three defining properties of an inner family.

    ``isometry_residual``      worst deviation of ||shifted element||^2 from 1,
    ``orthogonality_residual`` worst cross inner product between distinct steps,
    ``containment_residual``   worst projection residual of a once-more-shifted
                               element onto the span of the later steps,
    ``containment_allowance``  explicit truncation allowance for the span
                               (the span is cut at k_max and degree J), so
                               "inconclusive" is distinguishable from "fail".
    """

    isometry_residual: float
    orthogonality_residual: float
    containment_residual: float
    containment_allowance: float
    verdict: str
    details: dict = field(default_factory=dict)


def _element_columns(w, taylor_k, k, length, p):
    """Weighted coefficient vectors of ``S^k Theta_k e_i`` up to ``length``.

    Returns an array of shape ``(length * p, u_k)`` whose columns are the
    elements scaled by ``sqrt(beta_m)`` per degree, so Euclidean inner
    products of columns equal the weighted space inner products.
    """
    u = taylor_k[0].shape[1]
    E = np.zeros((length, p, u), dtype=complex)
    for j, T in enumerate(taylor_k):
        if k + j < length:
            E[k + j] = T
    wgt = np.sqrt(w.betas[:length])[:, None, None]
    return (wgt * E).reshape(length * p, u)


def check_inner_family(w: WeightSequence, family: ColligationFamily,
                       k_max: int, J: int, tol: float = 1e-8) -> InnerFamilyReport:
    """Verify the inner-function-family properties from Taylor data.

    (1) each map ``u -> S^k Theta_k u`` is isometric, (2) distinct steps are
    mutually orthogonal, (3) the once-more-shifted image of step k is
    contained in the span of steps ``k+1..k_max``.  Property (3) is verified
    by projection residuals against the truncated span, with the reported
    allowance bounding what the cut tail of the span could still absorb.
    """
    k_max = min(k_max, family.k_max)
    p = family.pair.p
    rho = family.pair.spectral_radius
    length = k_max + J + 2
    if length - 1 > w.trunc_len:
        raise TruncationError("weight table too short for requested J")

    taylor = {k: transfer_taylor(family, k, J) for k in range(k_max + 1)}
    cols = {k: _element_columns(w, taylor[k], k, length, p)
            for k in range(k_max + 1)}

    # truncation tail of each element family: the squared weighted
    # coefficient norms continued geometrically past degree J
    q = series.conjugation_rate(rho)
    tails = {}
    for k in range(k_max + 1):
        t = [w.betas[k + j] * np.linalg.norm(T, 2) ** 2
             for j, T in enumerate(taylor[k])]
        tails[k] = series.geometric_tail(series.transient_constant(t, q), q,
                                         J + 1)

    iso_res = 0.0
    for k in range(k_max + 1):
        W = cols[k]
        G = W.conj().T @ W
        if G.size:
            iso_res = max(iso_res, float(np.max(np.abs(
                G - np.eye(G.shape[0])))))

    orth_res = 0.0
    for k in range(k_max + 1):
        for l in range(k + 1, k_max + 1):
            X = cols[k].conj().T @ cols[l]
            if X.size:
                orth_res = max(orth_res, float(np.max(np.abs(X))))

    # containment: project S^{k+1} Theta_k u onto span of steps k+1..k_max
    cont_res = 0.0
    allow = 0.0
    per_k = []
    for k in range(k_max):
        gcols = _element_columns(w, taylor[k], k + 1, length, p)
        span = np.hstack([cols[l] for l in range(k + 1, k_max + 1)])
        if span.shape[1] == 0:
            continue
        sol, *_ = np.linalg.lstsq(span, gcols, rcond=None)
        resid = gcols - span @ sol
        res_k = float(np.linalg.norm(resid, axis=0).max())
        # part of g supported beyond degree k_max, reachable only by cut steps
        g_far = gcols[(k_max + 1) * p:, :]
        allow_k = (float(np.linalg.norm(g_far, axis=0).max())
                   + np.sqrt(max(tails[k], 0.0))
                   + max(np.sqrt(max(tails[l], 0.0))
                         for l in range(k + 1, k_max + 1)))
        per_k.append({"k": k, "residual": res_k, "allowance": allow_k})
        cont_res = max(cont_res, res_k)
        allow = max(allow, allow_k)

    cont_ok_per_k = all(d["residual"] <= tol + d["allowance"] for d in per_k)
    if iso_res <= tol and orth_res <= tol and cont_res <= tol:
        verdict = "pass"
    elif iso_res <= tol and orth_res <= tol and cont_ok_per_k:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return InnerFamilyReport(
        isometry_residual=iso_res,
        orthogonality_residual=orth_res,
        containment_residual=cont_res,
        containment_allowance=allow,
        verdict=verdict,
        details={"k_max": k_max, "J": J, "taylor_tails": tails,
                 "containment": per_k},
    )


# ---------------------------------------------------------------------------
# contractive-multiplier verification
# ---------------------------------------------------------------------------

@dataclass
class MultiplierReport:
    contractive: bool
    sup_norm: float
    block_kernel_min_eig: float
    details: dict = field(default_factory=dict)


def _block_kernel(w: WeightSequence, theta_eval, grid, entry):
    """Sup norm of ``Theta`` over the grid and the trace-scaled smallest
    eigenvalue of the Hermitian block kernel whose ``(i, j)`` block is
    ``entry(K(z_i, z_j), Theta(z_i), Theta(z_j), z_i conj(z_j))``."""
    pts = list(grid)
    vals = [np.atleast_2d(np.asarray(theta_eval(z), dtype=complex))
            for z in pts]
    sup = max(opnorm(V) for V in vals)
    p = vals[0].shape[0]
    N = len(pts)
    block = np.zeros((N * p, N * p), dtype=complex)
    for i, zi in enumerate(pts):
        for j, zj in enumerate(pts):
            block[i * p:(i + 1) * p, j * p:(j + 1) * p] = entry(
                space_kernel(w, zi, zj), vals[i], vals[j], zi * np.conj(zj))
    block = hermitize(block)
    scale = max(abs(float(np.trace(block).real)) / (N * p), 1e-30)
    return float(sup), float(min_eig(block) / scale), N


def check_contractive_multiplier(w: WeightSequence, theta_eval, grid,
                                 tol: float = 1e-8) -> MultiplierReport:
    """Check the contractive-multiplier criterion on a grid.

    ``theta_eval`` maps a point of the open disk to a p-by-u matrix.  The
    criterion is the pointwise bound ``||Theta(z)|| <= 1`` together with
    positivity of the block kernel ``[(I - Theta(z_i) Theta(z_j)*) K(z_i, z_j)]``;
    the smallest eigenvalue is reported after scaling by the mean diagonal
    (trace scaling).
    """
    sup, lam_min, N = _block_kernel(
        w, theta_eval, grid,
        lambda K, Vi, Vj, x: (np.eye(Vi.shape[0]) - Vi @ Vj.conj().T) * K)
    ok = sup <= 1.0 + tol and lam_min >= -tol
    return MultiplierReport(contractive=bool(ok), sup_norm=sup,
                            block_kernel_min_eig=lam_min,
                            details={"points": N})


def check_hardy_to_weighted_multiplier(w: WeightSequence, theta_eval, grid,
                                       tol: float = 1e-8) -> MultiplierReport:
    """Multiplier contractivity from the unweighted Hardy space.

    The map ``f -> Theta f`` is contractive from the classical Hardy space
    into the weighted one exactly when the block kernel
    ``[R(z_i conj(z_j)) I - Theta(z_i) Theta(z_j)* / (1 - z_i conj(z_j))]``
    is positive; this is the criterion met by wandering-gap transfer
    functions, whose pointwise norms may exceed 1.
    """
    sup, lam_min, N = _block_kernel(
        w, theta_eval, grid,
        lambda K, Vi, Vj, x: K * np.eye(Vi.shape[0])
        - (Vi @ Vj.conj().T) / (1.0 - x))
    return MultiplierReport(contractive=bool(lam_min >= -tol), sup_norm=sup,
                            block_kernel_min_eig=lam_min,
                            details={"points": N})
