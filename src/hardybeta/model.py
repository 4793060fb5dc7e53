"""Characteristic function families and the functional-model colligation.

For a matrix ``T`` whose adjoint ``A = T*`` is a hypercontraction for the
weight (all hereditary maps of the identity PSD) and strongly stable in the
weighted sense, the pair ``(D, A)`` with defect ``D = Gamma[I]^(1/2)`` is
isometric with identity gramian, and the Cholesky colligation construction
applied to it yields the characteristic transfer family of ``T``, unique up
to a constant unitary on each input space.  This module provides

* the defect operator and the characteristic family (Cholesky route),
* an independent defect-form construction that works in gramian-weighted
  square-root coordinates and produces a coinciding family,
* a coincidence decision procedure (alternating unitary Procrustes),
* the kernel round-trip residual tying the family back to the coinvariant
  subspace kernel,
* the functional-model colligation checks and the coordinate form of its
  input operator, and
* the wandering-subspace transfer function (step 0 of the construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import series
from .colligation import (
    ColligationFamily,
    ColligationStep,
    _phase_fixed,
    _transfer_values,
    build_family,
    build_step,
    metric_residuals,
    transfer_eval,
    transfer_taylor,
)
from .errors import ModelCoordinatesError, ModelHypothesisError
from .hereditary import (
    ClassificationReport,
    OutputPair,
    classify,
    gamma_map,
    gramian_table,
    hermitize,
    opnorm,
    psd_sqrt,
)
from .kernels import default_grid, kernel_invariant
from .weights import WeightSequence


@dataclass
class CharFamily:
    """Characteristic data of a star-hypercontraction: defect, colligation
    family with output matrix equal to the defect, and classification."""

    T: np.ndarray
    weight: WeightSequence
    defect: np.ndarray
    family: ColligationFamily
    classification: ClassificationReport
    gramian_identity_residual: float = field(default=0.0)

    @property
    def k_max(self) -> int:
        return self.family.k_max


def defect_operator(w: WeightSequence, T, tol: float = 1e-10) -> np.ndarray:
    """PSD square root of ``Gamma[I]`` evaluated at ``A = T*``.

    Raises ModelHypothesisError when ``Gamma[I]`` has an eigenvalue below
    ``-10 tol``, i.e. when ``T`` is not a star-hypercontraction at the
    zeroth level.
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    A = T.conj().T
    G = gamma_map(w, A, np.eye(A.shape[0]), tol)
    lam = np.linalg.eigvalsh(G)
    if lam[0] < -10 * tol * max(lam[-1], 1.0):
        raise ModelHypothesisError(
            f"Gamma[I] has eigenvalue {lam[0]:.3e}: not a star-hypercontraction")
    return psd_sqrt(G)


def characteristic_family(w: WeightSequence, T, k_max: int = 12,
                          rank_tol: float = 1e-10,
                          tol: float = 1e-10) -> CharFamily:
    """Characteristic transfer family of ``T`` via the Cholesky construction.

    Sets ``A = T*`` and ``C = Gamma[I]^(1/2)``, requires the classification
    to report a strongly stable hypercontraction, and delegates to the
    colligation builder.  The base gramian of ``(C, A)`` is the identity;
    its deviation is recorded on the returned bundle.
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    D = defect_operator(w, T, tol)
    pair = OutputPair(A=T.conj().T, C=D)
    ctol = max(tol, 1e-8)
    # pick the stability-check depth so a geometric decay at the spectral
    # radius has room to reach the tolerance
    rho = max(pair.spectral_radius, 1e-3)
    k_stab = max(20, k_max)
    if rho < 1.0:
        k_stab = max(k_stab, int(np.ceil(np.log(ctol) / (2 * np.log(rho)))) + 5)
    k_stab = min(k_stab, w.trunc_len - 8)
    report = classify(w, pair, k_max=k_stab, tol=ctol)
    if not report.hypercontraction:
        raise ModelHypothesisError(
            f"adjoint is not a hypercontraction: residuals {report.residuals}")
    if not report.strongly_stable_beta:
        raise ModelHypothesisError(
            "adjoint is not strongly stable in the weighted sense: "
            f"residual {report.residuals['beta_strong_stability']:.3e}")
    fam = build_family(w, pair, k_max, rank_tol, tol=min(tol, 1e-12))
    gram_res = opnorm(fam.gramians[0] - np.eye(pair.n))
    return CharFamily(T=T, weight=w, defect=D, family=fam,
                      classification=report,
                      gramian_identity_residual=gram_res)


def defect_form_family(w: WeightSequence, T, k_max: int = 12,
                       rank_tol: float = 1e-10,
                       tol: float = 1e-10) -> ColligationFamily:
    """Characteristic family via defect operators in weighted coordinates.

    Works in the square-root coordinates of the shifted gramians: with
    ``At_k = G^(k+1)^(1/2) A G^(k)^(-1/2)`` and
    ``Ct_k = beta_k^(-1/2) C G^(k)^(-1/2)`` the column ``[At_k; Ct_k]`` is an
    isometry, the unitary ``omega_k`` relating ``Ct_k`` to the defect of
    ``At_k`` comes from a polar decomposition, and the colligation completes
    with the adjoint defect ``(I - At_k At_k*)^(1/2)``.  Mapping back to the
    original coordinates gives step data ``(B_k, D_k)`` for the same output
    pair; the resulting transfer family coincides with the Cholesky-route
    characteristic family up to per-step right unitaries.

    Assumes the defect operator has full rank, so the output space does not
    degenerate.
    """
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    A = T.conj().T
    C = defect_operator(w, T, tol)
    pair = OutputPair(A=A, C=C)
    gramians = gramian_table(w, pair, k_max + 1, tol=min(tol, 1e-12))
    steps = []
    n = pair.n
    for k in range(k_max + 1):
        lam_k, V_k = np.linalg.eigh(hermitize(gramians[k]))
        lam_k1, V_k1 = np.linalg.eigh(hermitize(gramians[k + 1]))
        if lam_k[0] <= rank_tol * lam_k[-1] or lam_k1[0] <= rank_tol * lam_k1[-1]:
            raise ModelHypothesisError("gramian numerically singular")
        Gk_half_inv = (V_k / np.sqrt(lam_k)) @ V_k.conj().T
        Gk1_half = (V_k1 * np.sqrt(lam_k1)) @ V_k1.conj().T
        Gk1_half_inv = (V_k1 / np.sqrt(lam_k1)) @ V_k1.conj().T
        At = Gk1_half @ A @ Gk_half_inv
        Ct = (w.betas[k] ** -0.5) * (C @ Gk_half_inv)
        # polar factor of Ct: Ct = omega * (Ct* Ct)^(1/2), and the positive
        # factor equals the defect of At by the isometry identity
        U_svd, _, Vh_svd = np.linalg.svd(Ct)
        omega = U_svd @ Vh_svd
        D_At_star = psd_sqrt(np.eye(n) - At @ At.conj().T)
        lam_d, V_d = np.linalg.eigh(hermitize(np.eye(n) - At @ At.conj().T))
        keep = lam_d >= rank_tol * max(float(lam_d[-1]), 1e-300)
        # fix phases so the construction is reproducible
        basis = _phase_fixed(V_d[:, keep])
        Bt = D_At_star @ basis
        Dt = -(omega @ At.conj().T) @ basis
        B = Gk1_half_inv @ Bt
        D = (w.betas[k] ** 0.5) * Dt
        steps.append(ColligationStep(B=B, D=D, u=B.shape[1]))
    fam = ColligationFamily(weight=w, pair=pair, steps=steps,
                            gramians=gramians)
    for k in range(k_max + 1):
        res = metric_residuals(fam, k)
        fam.isometry_residuals.append(res["isometry"])
        fam.coisometry_residuals.append(res["coisometry"])
    return fam


# ---------------------------------------------------------------------------
# coincidence of families
# ---------------------------------------------------------------------------

@dataclass
class CoincidenceResult:
    coincide: bool
    residual: float
    tau: np.ndarray | None
    sigmas: list | None
    sweeps: int = 0
    reason: str = ""


# at most this many Procrustes sweeps per coincidence check
_MAX_SWEEPS = 50


def _polar_unitary(M: np.ndarray) -> np.ndarray:
    U, _, Vh = np.linalg.svd(M)
    return U @ Vh


def check_coincidence(famA, famB, grid=None,
                      tol: float = 1e-8) -> CoincidenceResult:
    """Decide whether two transfer families coincide.

    Searches for a unitary ``tau`` on the output space and per-step unitaries
    ``sigma_k`` on the input spaces minimizing
    ``sum ||tau Theta_k(z_i) - Theta'_k(z_i) sigma_k||^2`` by alternating
    orthogonal Procrustes sweeps from one start.  A coinciding ``tau`` solves
    ``tau P_A(z, zeta) = P_B(z, zeta) tau`` with ``P = Theta(z) Theta(zeta)*``
    (the input unitaries drop out).  The solutions are ``X tau_0`` with ``X``
    in the commutant of the ``P_B``, a *-algebra, so the polar factor of an
    invertible solution is a unitary one, also for repeated spectra: one
    start is enough.  It is the polar factor of the system's right singular
    vector for its smallest singular value (of a weighted sum of the vectors
    whose singular values are below ``tol`` times the largest), from the SVD
    of the stacked system rather than its normal equations, which square the
    condition number.  Structural dimension mismatches yield a negative
    verdict rather than an exception.  The minimizing unitaries are one
    representative; they are not claimed unique.
    """
    A_col = famA.family if isinstance(famA, CharFamily) else famA
    B_col = famB.family if isinstance(famB, CharFamily) else famB
    if grid is None:
        grid = [0.15 + 0.1j, -0.3 + 0.2j, 0.45j, -0.5 - 0.1j, 0.6,
                0.2 - 0.55j, -0.05 + 0.05j, 0.35 + 0.35j]
    k_max = min(A_col.k_max, B_col.k_max)
    if A_col.pair.p != B_col.pair.p:
        return CoincidenceResult(False, float("inf"), None, None,
                                 reason="output dimensions differ")
    for k in range(k_max + 1):
        if A_col.step(k).u != B_col.step(k).u:
            return CoincidenceResult(False, float("inf"), None, None,
                                     reason=f"input dimensions differ at k={k}")
    ks = list(range(k_max + 1))
    # (N, p, u_k) stacks of the values at the grid points
    evalA = {k: transfer_eval(A_col, k, grid, 1e-12) for k in ks}
    evalB = {k: transfer_eval(B_col, k, grid, 1e-12) for k in ks}
    p = A_col.pair.p
    N = len(evalA[0])

    def columns(vals):
        """The (N, p, u) stack as the p-by-(N u) block row of its points."""
        return vals.transpose(1, 0, 2).reshape(p, -1)

    def residual(tau, sigmas):
        return max(float(np.linalg.norm(
            (tau @ evalA[k] - evalB[k] @ sigmas[k]).reshape(N, -1),
            axis=1).max()) for k in ks)

    # the stacked points of Theta'_k, and the block row of every Theta_k
    MB = {k: evalB[k].reshape(N * p, -1) for k in ks}
    X = np.hstack([columns(evalA[k]) for k in ks])

    # For every point pair at once, tau P_A(z, zeta) = P_B(z, zeta) tau is
    # M vec(tau) = 0 with M = kron(I, P_A^T) - kron(P_B, I), stored as
    # M[..., a, b, c, d] = I[a, c] P_A[..., d, b] - P_B[..., a, c] I[b, d],
    # stacked over the pairs and the first five steps.
    Ip = np.eye(p, dtype=complex)
    Ms = []
    for k in ks[:min(len(ks), 5)]:
        PA = evalA[k][:, None] @ evalA[k].conj().swapaxes(-1, -2)[None]
        PB = evalB[k][:, None] @ evalB[k].conj().swapaxes(-1, -2)[None]
        M = np.einsum("ac,ijdb->ijabcd", Ip, PA) \
            - np.einsum("ijac,bd->ijabcd", PB, Ip)
        Ms.append(M.reshape(-1, p * p))
    # Distinct weights: for a repeated singular value the SVD may return
    # singular matrices (matrix units of the commutant) whose plain sum is
    # singular too.
    _, S, Vh = np.linalg.svd(np.vstack(Ms), full_matrices=False)
    null = Vh[S <= max(S[-1], tol * S[0])][::-1].conj()
    weights = 1.0 / np.arange(1, len(null) + 1)
    tau = _polar_unitary((weights @ null).reshape(p, p))

    sigmas = [np.eye(A_col.step(k).u, dtype=complex) for k in ks]
    res = residual(tau, sigmas)
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        for k in ks:
            if MB[k].size == 0:
                continue
            MA = (tau @ evalA[k]).reshape(MB[k].shape)
            sigmas[k] = _polar_unitary(MB[k].conj().T @ MA)
        Y = np.hstack([columns(evalB[k] @ sigmas[k]) for k in ks])
        if X.size:
            tau = _polar_unitary(Y @ X.conj().T)
        prev, res = res, residual(tau, sigmas)
        if abs(prev - res) < tol / 10:
            break
    return CoincidenceResult(coincide=bool(res <= tol), residual=res,
                             tau=tau, sigmas=sigmas, sweeps=sweeps)


# ---------------------------------------------------------------------------
# model round-trip
# ---------------------------------------------------------------------------

@dataclass
class RoundTripReport:
    residual: float
    allowance: float
    k_max: int


def model_roundtrip_residual(w: WeightSequence, char, k_max: int = 16,
                             grid=None, tol: float = 1e-12) -> RoundTripReport:
    """Kernel identity tying the characteristic family to the model space.

    Over all grid point pairs, compares the invariant-subspace kernel
    ``R(z conj(zeta)) I - C R(zA) R(zeta A)* C*`` (the gramian is the
    identity here) against ``sum_k z^k conj(zeta)^k Theta_k(z)
    Theta_k(zeta)*``.  The k-sum is truncated at the family length; the
    reported allowance is the larger of ``max_k sup_grid ||Theta_k||^2``
    times the geometric tail of ``r^{2k}`` at the grid radius ``r``, and the
    kernel-domination bound: each step-k kernel is dominated on the diagonal
    by ``r^{2k} R_k(r^2)``, so the cut tail is at most
    ``sum_{m > k_max} (m - k_max) r^{2m} / beta_m``, the series engine's
    tail of that row at ``q = r^2``.

    ``char`` may be a CharFamily or the matrix ``T`` itself, in which case
    the characteristic family is built with ``k_max`` steps first.
    """
    if not isinstance(char, CharFamily):
        char = characteristic_family(w, char, k_max=k_max)
    fam = char.family
    if grid is None:
        grid = default_grid(radii=(0.0, 0.15, 0.3, 0.45, 0.6))
    pair = fam.pair
    k_max = fam.k_max
    ks = list(range(k_max + 1))
    zs = np.asarray(grid, dtype=complex)
    N = len(zs)
    evals = {k: transfer_eval(fam, k, zs, tol) for k in ks}
    r = float(np.max(np.abs(zs)))
    theta_sup = max(float(np.linalg.norm(evals[k], 2, axis=(1, 2)).max())
                    for k in ks)
    heuristic = series.geometric_tail(theta_sup ** 2, r * r, k_max + 1)
    # the geometric heuristic can undershoot when the reciprocal weights
    # grow; take the larger of it and the kernel-domination bound
    cap = w.trunc_len
    row = np.maximum(np.arange(cap + 1) - k_max, 0) * w.inv_betas
    # past cap the factor (m - k_max) multiplies the step of 1/beta_m by at
    # most (cap + 1 - k_max)/(cap - k_max); the row is 0 if cap <= k_max
    step = w.inv_step(cap) * (cap + 1 - k_max) / max(cap - k_max, 1)
    domination = series.RowTails([row], r * r, step).tails[0, k_max]
    allowance = max(heuristic, float(domination))
    x = zs[:, None] * np.conj(zs)[None, :]
    diff = kernel_invariant(w, pair, zs, zs, np.eye(pair.n), tol)
    for k in ks:
        diff = diff - (x ** k)[:, :, None, None] \
            * np.einsum("ipu,jqu->ijpq", evals[k], evals[k].conj())
    worst = float(np.linalg.norm(diff.reshape(N * N, -1), axis=1).max())
    return RoundTripReport(residual=worst, allowance=allowance, k_max=k_max)


# ---------------------------------------------------------------------------
# functional-model colligation
# ---------------------------------------------------------------------------

@dataclass
class FunctionalModelReport:
    check_state: float      # Stein block: A* G^(k+1) A + (1/beta_k) C* C = G^(k)
    check_cross: float      # A* G^(k+1) B_k + (1/beta_k) C* D_k = 0
    check_input: float      # B_k* G^(k+1) B_k + (1/beta_k) D_k* D_k = I
    input_coordinates: np.ndarray
    alignment_residual: float
    alignment_allowance: float


def functional_model_colligation(w: WeightSequence, fam: ColligationFamily,
                                 k: int, J: int,
                                 tol: float = 1e-8) -> FunctionalModelReport:
    """Verify the functional-model form of the step-k colligation.

    Requires identity base gramian (the characteristic-family situation).
    Recomputes the input operator from Taylor data alone,

        x_B(u) = sum_{j<=J} (beta_{j+k+1} / beta_j) A^{*j} C* Theta_{k,j+1} u,

    and reports its alignment against the stored ``B_k`` up to a right
    unitary, together with the three block identities of the weighted
    isometry property.
    """
    pair = fam.pair
    if opnorm(fam.gramians[0] - np.eye(pair.n)) > max(tol, 1e-8):
        raise ModelCoordinatesError(
            "functional-model coordinates need an identity base gramian")
    st = fam.step(k)
    A, C = pair.A, pair.C
    Gk, Gk1 = fam.gramians[k], fam.gramians[k + 1]
    c1 = opnorm(A.conj().T @ Gk1 @ A + w.inv_betas[k] * (C.conj().T @ C) - Gk)
    c2 = opnorm(A.conj().T @ Gk1 @ st.B + w.inv_betas[k] * (C.conj().T @ st.D))
    c3 = opnorm(st.B.conj().T @ Gk1 @ st.B
                + w.inv_betas[k] * (st.D.conj().T @ st.D) - np.eye(st.u))

    taylor = transfer_taylor(fam, k, J + 1)
    xB = np.zeros((pair.n, st.u), dtype=complex)
    Gpart = np.zeros((pair.n, pair.n), dtype=complex)
    Astar_j = np.eye(pair.n, dtype=complex)
    CAj = C.copy()
    for j in range(J + 1):
        ratio = w.betas[j + k + 1] / w.betas[j]
        xB = xB + ratio * (Astar_j @ C.conj().T @ taylor[j + 1])
        Gpart = Gpart + w.inv_betas[j] * (CAj.conj().T @ CAj)
        Astar_j = Astar_j @ A.conj().T
        CAj = CAj @ A
    if st.u:
        sigma = _polar_unitary(st.B.conj().T @ xB)
        align = opnorm(xB - st.B @ sigma)
    else:
        align = 0.0
    # x_B equals (J-truncated base gramian) B_k exactly, so the cut tail is
    # bounded by the gramian truncation remainder times ||B_k||
    gram_remainder = opnorm(fam.gramians[0] - Gpart) \
        + fam.gramians.tail_bounds[0]
    allowance = gram_remainder * opnorm(st.B)
    return FunctionalModelReport(check_state=c1, check_cross=c2,
                                 check_input=c3, input_coordinates=xB,
                                 alignment_residual=align,
                                 alignment_allowance=allowance)


# ---------------------------------------------------------------------------
# wandering-subspace transfer function
# ---------------------------------------------------------------------------

@dataclass
class WanderingTheta:
    B: np.ndarray
    D: np.ndarray
    pair: OutputPair
    weight: WeightSequence

    def eval(self, z, tol: float = 1e-12) -> np.ndarray:
        """``Theta(z) = D + z C R_1(zA) B`` at a point or a 1-d array of
        points, of shape ``np.shape(z) + (p, u)`` (``transfer_eval`` at
        step 0, where ``1/beta_0 = 1``)."""
        return _transfer_values(self.weight, 0, self.pair, self.B, self.D,
                                z, tol)


def wandering_theta(w: WeightSequence, pair: OutputPair,
                    rank_tol: float = 1e-10,
                    tol: float = 1e-12) -> WanderingTheta:
    """Transfer function of the wandering gap at step 0.

    Specializes the Cholesky step to ``k = 0`` (the leading weight is 1, so
    the constant term needs no scaling).  The result factors the gap kernel
    as ``Theta(z) Theta(zeta)*`` and is a contractive multiplier from the
    unweighted Hardy space into the weighted one.
    """
    gramians = gramian_table(w, pair, 1, tol=tol)
    B, D = build_step(w, 0, pair, gramians, rank_tol)
    return WanderingTheta(B=B, D=D, pair=pair, weight=w)
