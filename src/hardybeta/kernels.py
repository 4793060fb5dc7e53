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

each on a whole grid in one call: ``z`` and ``zeta`` are scalars or 1-d
point arrays, the value has shape ``np.shape(z) + np.shape(zeta) + (p, p)``
and a scalar pair is the 1-by-1 grid.  Every point must lie in the open
unit disk; a point with ``|z| >= 1`` or a NaN or infinite part raises
InvalidParameterError.  The resolvents ``R_k(zA)`` of a point array are
one ``resolvents`` call on the pair (closed form for hardy and integer
alpha, from one batched inverse; the spectral route for non-integer alpha
within its gate; otherwise one table of powers of ``A`` cut at the grid's
largest radius), which reads the pair's cached spectral radius and
diagonalization, so a kernel grid makes no eigen-solve of ``A`` past the
gramian table; each shift's range kernel is one matrix product over the
whole grid, and the point products ``z conj(zeta)`` are formed once per
kernel.  With ``zeta is z`` every kernel grid is Hermitian off its
diagonal bit for bit: ``K[j, i]`` is the conjugate transpose of
``K[i, j]`` for ``i != j``, signed zeros included.

The module also runs two verification suites: the inner-function-family
check (isometry, mutual orthogonality, and containment of each
once-more-shifted step in the next shift image, tested by the exact
orthogonality condition with the gramian remainder past the Taylor cut as
allowance) and the contractive-multiplier check (pointwise norm bound plus
positivity of the associated block kernel, built for the whole grid at
once).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .colligation import ColligationFamily, _taylor_stack
from .errors import InvalidParameterError, _check_k_max, _check_tol
from .hereditary import (
    OutputPair,
    _gramian_remainders,
    gramian,
    hermitian_inverse,
    hermitize,
    min_eig,
    observability_coeffs,
    opnorm,
    # not called here: it stays importable from kernels because
    # bench/selftest.py checks that the benchmark's tracer patches it in
    # this namespace as well as in hereditary and colligation
    resolvent_apply,  # noqa: F401
    resolvent_scalar,
    resolvents,
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
        b = self.weight._entries(np.arange(self.degree + 1))[0]
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
    must live in one space and share the value dimension.  Two hardy
    weights, or two ``beta_alpha`` weights with one ``alpha``, are one
    space whatever their stored lengths; custom weights are one space when
    their tables are equal.
    """
    v, w = f.weight, g.weight
    same = v is w or (v.kind == w.kind and v.alpha == w.alpha and (
        v.kind != "custom" or np.array_equal(v.betas, w.betas)))
    if not same:
        raise InvalidParameterError("elements live in different spaces")
    if f.p != g.p:
        raise InvalidParameterError("value dimensions differ")
    m = min(f.degree, g.degree) + 1
    b = v._entries(np.arange(m))[0]
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
    b = f.weight._entries(np.arange(f.degree + 1))[0]
    ratios = (b[1:] / b[:-1])[:, None]
    return HardyElement(f.weight, ratios * f.coeffs[1:])


def observability_element(w: WeightSequence, pair: OutputPair, x,
                          J: int) -> HardyElement:
    """The element ``sum_j (1/beta_j) (C A^j x) z^j`` truncated at degree J."""
    return HardyElement(w, observability_coeffs(w, 0, pair, J)
                        @ np.asarray(x, dtype=complex).reshape(-1))


# ---------------------------------------------------------------------------
# reproducing kernels
# ---------------------------------------------------------------------------

def _point_grid(z, zeta):
    """``z`` and ``zeta`` as 1-d complex arrays (one array when ``zeta is
    z``) and the products ``x = z conj(zeta)``, of the shape
    ``np.shape(z) + np.shape(zeta)`` that every kernel value leads with.
    Every point must lie in the open unit disk, where the kernels live."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    zetas = zs if zeta is z else np.atleast_1d(np.asarray(zeta, dtype=complex))
    for pts in (zs, zetas):
        if not np.all(np.abs(pts) < 1.0):  # also refuses NaN
            raise InvalidParameterError(
                "kernel points must be finite and lie in |z| < 1")
    # in real arithmetic: numpy's complex product rounds differently on a
    # grid than on a single pair, and a pair must be the 1-by-1 grid
    a, b = zs.real[:, None], zs.imag[:, None]
    x = np.empty((len(zs), len(zetas)), dtype=complex)
    x.real = a * zetas.real + b * zetas.imag
    x.imag = b * zetas.real - a * zetas.imag
    return zs, zetas, x.reshape(np.shape(z) + np.shape(zeta))


def space_kernel(w: WeightSequence, z, zeta, tol: float = 1e-12) -> np.ndarray:
    """Scalar reproducing kernel ``R(z * conj(zeta))`` of the full space,
    of shape ``np.shape(z) + np.shape(zeta)``; ``tol`` is
    ``resolvent_scalar``'s (finite, ``>= 0``; 0 as there)."""
    _check_tol(tol)
    return resolvent_scalar(w, 0, _point_grid(z, zeta)[2], tol)


def _mirrored(K: np.ndarray, same: bool) -> np.ndarray:
    """A kernel value ``K`` with, when ``same`` (``zeta is z``) and ``K``
    is a grid of shape ``(m, m, p, p)``, every block below the diagonal
    copied in place from the conjugate transpose of its mirror.

    Every public matrix kernel ends here: the arithmetic is symmetric under
    conjugation, so each copy equals the value computed, up to roundoff
    and to the signs of exact zeros (``x^k`` at a point 0)."""
    if same and K.ndim == 4:
        low = np.tri(len(K), k=-1, dtype=bool)
        K[low] = K.swapaxes(0, 1).swapaxes(2, 3)[low].conj()
    return K


def _cross(X, Y) -> np.ndarray:
    """``Z[..., i, j, :, :] = X[..., i, :, :] @ Y[..., j, :, :]^*`` for two
    stacks of matrices with the same leading axes and column count, from
    one product over the stacked rows."""
    *lead, N, a, c = X.shape
    Yh = Y.reshape(*lead, -1, c).conj().swapaxes(-1, -2)
    Z = X.reshape(*lead, N * a, c) @ Yh
    return Z.reshape(*lead, N, a, -1, Y.shape[-2]).swapaxes(-3, -2)


def _range_kernel(w: WeightSequence, k, pair: OutputPair, G_inv,
                  z, zeta, tol: float):
    """``C R_k(zA) G_inv R_k(zeta A)* C*`` for a shift ``k`` or a sequence
    of shifts (``G_inv`` then the matching stack), of shape
    ``np.shape(k) + np.shape(z) + np.shape(zeta) + (p, p)``, and the point
    products ``x = z conj(zeta)`` of ``_point_grid`` with two trailing axes
    of length 1, to broadcast over the blocks; the resolvents are one
    ``resolvents`` call on the pair per point array (one in all when
    ``zeta is z``), and each shift's grid is one ``_cross`` of the stacked
    ``C R_k(z_i A) G_inv`` with the stacked ``C R_k(zeta_j A)``."""
    zs, zetas, x = _point_grid(z, zeta)
    lead, n, p = np.shape(k), pair.n, pair.p
    CRz = pair.C @ resolvents(w, k, pair, zs, tol)
    CRzeta = CRz if zetas is zs \
        else pair.C @ resolvents(w, k, pair, zetas, tol)
    K = _cross(CRz @ np.reshape(G_inv, lead + (1, n, n)), CRzeta)
    return K.reshape(lead + x.shape + (p, p)), x[..., None, None]


def _coinvariant(w, pair, z, zeta, gram_inv, tol):
    """``_range_kernel`` at shift 0 with ``inv(G^(0))``, inverted here when
    ``gram_inv`` is None."""
    if gram_inv is None:
        gram_inv = hermitian_inverse(gramian(w, 0, pair, tol))
    return _range_kernel(w, 0, pair, gram_inv, z, zeta, tol)


def kernel_coinvariant(w: WeightSequence, pair: OutputPair, z, zeta,
                       gram_inv: np.ndarray | None = None,
                       tol: float = 1e-12) -> np.ndarray:
    """Kernel ``C R(zA) inv(G) R(zeta A)* C*`` of the coinvariant subspace
    spanned by the observability range of an exactly observable pair.
    ``tol`` is the resolvents' (finite, ``>= 0``; 0 as for
    ``resolvents``)."""
    _check_tol(tol)
    return _mirrored(_coinvariant(w, pair, z, zeta, gram_inv, tol)[0],
                     zeta is z)


def kernel_invariant(w: WeightSequence, pair: OutputPair, z, zeta,
                     gram_inv: np.ndarray | None = None,
                     tol: float = 1e-12) -> np.ndarray:
    """Kernel of the complementary shift-invariant subspace:
    ``R(z conj(zeta)) I - C R(zA) inv(G) R(zeta A)* C*``; ``tol`` as for
    ``kernel_coinvariant``."""
    _check_tol(tol)
    K, x = _coinvariant(w, pair, z, zeta, gram_inv, tol)
    return _mirrored(resolvent_scalar(w, 0, x, tol) * np.eye(pair.p) - K,
                     zeta is z)


def kernel_shifted(w: WeightSequence, k: int, pair: OutputPair,
                   gramians, z, zeta, tol: float = 1e-12,
                   rank_tol: float = 1e-10) -> np.ndarray:
    """Kernel of the k-th shift image of the invariant subspace; ``G^(k)``
    is inverted under ``rank_tol`` (``hermitian_inverse``), and ``tol`` is
    as for ``kernel_coinvariant``."""
    _check_tol(tol)
    K, x = _range_kernel(w, k, pair, hermitian_inverse(gramians[k], rank_tol),
                         z, zeta, tol)
    scal = resolvent_scalar(w, k, x, tol)
    return _mirrored(x ** k * (scal * np.eye(pair.p) - K), zeta is z)


def kernel_gap(w: WeightSequence, k: int, pair: OutputPair, gramians,
               z, zeta, tol: float = 1e-12,
               rank_tol: float = 1e-10) -> np.ndarray:
    """Kernel of the wandering gap between shift images k and k+1; both
    range kernels come from one ``resolvents`` table, and ``G^(k)``,
    ``G^(k+1)`` are inverted under ``rank_tol``; ``tol`` as for
    ``kernel_coinvariant``."""
    _check_tol(tol)
    (K0, K1), x = _range_kernel(w, (k, k + 1), pair,
                                gramians.inverses(k, k + 1, rank_tol), z,
                                zeta, tol)
    return _mirrored(x ** k * (w._entries(k)[1] * np.eye(pair.p) - K0
                               + x * K1), zeta is z)


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
    ``containment_residual``   worst norm of ``P_k``, whose vanishing is the
                               containment of ``S^(k+1) Theta_k U_k`` in the
                               shift image ``M_(k+1)``,
    ``containment_allowance``  largest bound on the part of ``P_k`` cut off
                               past degree J (the gramian remainder).
    """

    isometry_residual: float
    orthogonality_residual: float
    containment_residual: float
    containment_allowance: float
    verdict: str
    details: dict = field(default_factory=dict)


def _element_columns(w, taylor, length):
    """Weighted coefficient vectors of ``S^k Theta_k e_i`` up to
    degree ``length - 1`` for the stack ``taylor`` of every step
    ``k = 0..K-1``.

    Returns an array of shape ``(K, length * p, u)`` whose columns are the
    elements scaled by ``sqrt(beta_m)`` per degree, so Euclidean inner
    products of columns equal the weighted space inner products.
    """
    K, J1, p, u = taylor.shape
    E = np.zeros((K, length, p, u), dtype=complex)
    ks = np.arange(K)[:, None]
    deg = ks + np.arange(J1)
    fits = deg < length
    E[np.broadcast_to(ks, deg.shape)[fits], deg[fits]] = taylor[fits]
    wgt = np.sqrt(w._entries(np.arange(length))[0])[:, None, None]
    return (wgt * E).reshape(K, length * p, u)


def check_inner_family(family: ColligationFamily, k_max: int, J: int,
                       tol: float = 1e-8) -> InnerFamilyReport:
    """Verify the inner-function-family properties from Taylor data.

    (1) each map ``u -> S^k Theta_k u`` is isometric, (2) distinct steps are
    mutually orthogonal, (3) the once-more-shifted image of step k lies in
    the shift image ``M_{k+1}``, the orthogonal complement in ``z^{k+1} H``
    of the functions ``z^{k+1} C R_{k+1}(zA) v``.  The weighted inner
    product of ``S^{k+1} Theta_k u`` with such a function is
    ``v^* P_k u``, ``P_k = sum_i A^{*i} C^* Theta_{k,i}``, so (3) holds
    exactly when ``P_k = 0``.  ``P_k`` is summed to degree J; the part cut
    off is ``A^* (G^(k+1) - sum_{l<J} A^{*l} C^* C A^l / beta_{k+1+l}) B_k``,
    whose norm the allowance bounds by ``||A|| ||B_k||`` times the gramian
    remainder (the difference with the table's ``G^(k+1)`` plus its tail
    bound).  The Taylor data of all steps are one array, zero-padded past
    each step's input dimension; zero columns change none of the residuals.
    Steps ``0..k_max`` are checked: ``k_max >= 0``, and a ``k_max`` past the
    family's is refused as ``ColligationFamily.step`` refuses it.  ``tol``
    bounds every residual: finite and ``>= 0`` (0 asks for exact
    identities).
    """
    _check_tol(tol)
    _check_k_max(k_max, 0, "check_inner_family")
    w = family.weight
    length = k_max + J + 1
    ks = np.arange(k_max + 1)
    taylor, inputs, CA = _taylor_stack(family, ks, J)
    cols = _element_columns(w, taylor, length)

    G = cols.conj().swapaxes(-1, -2) @ cols
    iso_res = float(np.abs(G - inputs[:, None, :] * np.eye(G.shape[-1]))
                    .max(initial=0.0))
    X = cols.conj().swapaxes(-1, -2)[:, None] @ cols[None]
    upper = ks[:, None] < ks[None, :]
    orth_res = float(np.abs(X[upper]).max(initial=0.0))

    # containment: P_k for every step, and the remainder of G^(k+1) after
    # the J terms that P_k used
    res = opnorm(np.einsum("jpn,kjpu->knu", CA.conj(), taylor))
    allow = opnorm(family.pair.A) \
        * _gramian_remainders(w, family.gramians, CA[:J], ks + 1) \
        * [opnorm(family.step(k).B) for k in ks]
    per_k = [{"k": int(k), "residual": float(r), "allowance": float(a)}
             for k, r, a in zip(ks, res, allow)]

    ok = iso_res <= tol and orth_res <= tol \
        and all(d["residual"] <= tol + d["allowance"] for d in per_k)
    return InnerFamilyReport(
        isometry_residual=iso_res,
        orthogonality_residual=orth_res,
        containment_residual=float(res.max()),
        containment_allowance=float(allow.max()),
        verdict="pass" if ok else "fail",
        details={"k_max": k_max, "J": J, "containment": per_k},
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
    eigenvalue of the Hermitian block kernel ``entry(K, P, x)``, whose
    arguments hold every point pair at once: ``K = K(z_i, z_j)``,
    ``P = Theta(z_i) Theta(z_j)*`` and ``x = z_i conj(z_j)``, each of
    shape ``(N, N, ...)``, with ``K`` and ``x`` broadcast over the blocks."""
    pts = list(grid)
    if not pts:
        raise InvalidParameterError(
            "a multiplier check needs at least one grid point")
    vals = np.stack([np.atleast_2d(np.asarray(theta_eval(z), dtype=complex))
                     for z in pts])
    sup = float(opnorm(vals).max())
    N, p = vals.shape[:2]
    if np.isnan(sup):  # a non-finite Theta: NaN fails both verdicts
        return sup, sup, N
    x = _point_grid(pts, pts)[2][..., None, None]
    P = vals[:, None] @ vals.conj().swapaxes(-1, -2)[None]
    blocks = entry(resolvent_scalar(w, 0, x), P, x)
    block = hermitize(blocks.swapaxes(1, 2).reshape(N * p, N * p))
    scale = max(abs(float(np.trace(block).real)) / (N * p), 1e-30)
    return sup, float(min_eig(block) / scale), N


def check_contractive_multiplier(w: WeightSequence, theta_eval, grid,
                                 tol: float = 1e-8) -> MultiplierReport:
    """Check the contractive-multiplier criterion on a grid.

    ``theta_eval`` maps a point of the open disk to a p-by-u matrix.  The
    criterion is the pointwise bound ``||Theta(z)|| <= 1`` together with
    positivity of the block kernel ``[(I - Theta(z_i) Theta(z_j)*) K(z_i, z_j)]``;
    the smallest eigenvalue is reported after scaling by the mean diagonal
    (trace scaling).  An empty grid is refused.  ``tol`` is the slack of
    both tests: finite and ``>= 0`` (0 allows none).
    """
    _check_tol(tol)
    sup, lam_min, N = _block_kernel(
        w, theta_eval, grid,
        lambda K, P, x: (np.eye(P.shape[-1]) - P) * K)
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
    functions, whose pointwise norms may exceed 1.  ``tol`` as for
    ``check_contractive_multiplier``.
    """
    _check_tol(tol)
    sup, lam_min, N = _block_kernel(
        w, theta_eval, grid,
        lambda K, P, x: K * np.eye(P.shape[-1]) - P / (1.0 - x))
    return MultiplierReport(contractive=bool(lam_min >= -tol), sup_norm=sup,
                            block_kernel_min_eig=lam_min,
                            details={"points": N})
