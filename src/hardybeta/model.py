"""Characteristic function families and the functional-model colligation.

For a matrix ``T`` whose adjoint ``A = T*`` is a hypercontraction for the
weight (a contraction with all hereditary maps of the identity PSD) and
strongly stable in the weighted sense, the pair ``(D, A)`` with defect
``D = Gamma[I]^(1/2)`` is
isometric with identity gramian, and the Cholesky colligation construction
applied to it yields the characteristic transfer family of ``T``, unique up
to a constant unitary on each input space.  A ``T`` whose adjoint is not
a contraction fails the hypothesis by name (ModelHypothesisError) at every
entry that takes ``T``, and the hypothesis is decided by
``classify``'s rules: strong stability by the rate ``s rho(A)^2 < 1``, and
positivity at every shift by one rule per weight kind, on the stack
``Gamma^(1..k)[I]`` that the report records.  This module provides

* the defect operator and the characteristic family (Cholesky route),
* an independent defect-form construction that works in gramian-weighted
  square-root coordinates and produces a coinciding family,
* a coincidence decision procedure (alternating unitary Procrustes),
* the kernel round trip tying the family back to the model space, exact
  because the kernel of the shift image past the last step closes the
  k-sum,
* the functional-model colligation checks and the coordinate form of its
  input operator.

The wandering-subspace transfer function of a pair has no function of its
own: it is step 0 of ``build_family(w, pair, 0)``, evaluated with
``transfer_eval`` at step 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .colligation import (
    ColligationFamily,
    ColligationStep,
    _checked_family,
    _family_from_table,
    _phase_fixed,
    _taylor_stack,
    transfer_eval,
)
from .errors import (
    InvalidParameterError,
    ModelCoordinatesError,
    ModelHypothesisError,
    _check_k_max,
    _check_tol,
)
from .hereditary import (
    ClassificationReport,
    OutputPair,
    _check_domain,
    _classification,
    _gramian_remainders,
    _hereditary_sums,
    _Operator,
    _right_powers,
    _stability_rate,
    eigh,
    gramian_table,
    hermitize,
    opnorm,
    stein_residual,
)
from .kernels import _cross, _range_kernel, default_grid
from .weights import WeightSequence

@dataclass
class CharFamily:
    """Characteristic data of a star-hypercontraction: defect, colligation
    family with output matrix equal to the defect, and classification."""

    T: np.ndarray
    defect: np.ndarray
    family: ColligationFamily
    classification: ClassificationReport
    gramian_identity_residual: float = field(default=0.0)

    @property
    def weight(self) -> WeightSequence:
        return self.family.weight

    @property
    def k_max(self) -> int:
        return self.family.k_max


def _defect_root(G: np.ndarray, tol: float) -> np.ndarray:
    """PSD square root of ``G = Gamma[I]``, from one eigen-solve, refused
    below ``-10 tol`` and on NaN."""
    lam, V = eigh(G)
    if not lam[0] >= -10 * tol * max(lam[-1], 1.0):
        raise ModelHypothesisError(
            f"Gamma[I] has eigenvalue {lam[0]:.3e}: not a star-hypercontraction")
    lam = np.where(lam < 0.0, 0.0, lam)  # clip negative roundoff
    return hermitize((V * np.sqrt(lam)) @ V.conj().T)


def _adjoint(w: WeightSequence, T, tol: float):
    """``T`` as a complex matrix, and the operator ``A = T*`` of the model,
    built once: every hereditary sum, pair and gramian table of ``T`` reads
    its spectral data.  The door of every entry that takes ``T``: ``I`` in
    the hereditary domain (``_check_domain``), except that an ``A`` that is
    not a contraction, ``I - A* A`` with an eigenvalue below ``-tol``,
    fails the model's hypothesis by name (ModelHypothesisError)."""
    T = np.atleast_2d(np.asarray(T, dtype=complex))
    return T, _check_domain(
        w, T.conj().T, np.eye(len(T)), tol,
        lambda lam: ModelHypothesisError(
            f"adjoint is not a contraction: I - A* A has eigenvalue {lam:.3e}"))


def _defect(w: WeightSequence, op: _Operator, tol: float) -> np.ndarray:
    """``defect_operator`` of the operator ``op = T*`` from ``_adjoint``:
    ``Gamma[I]``, one hereditary sum, and its root."""
    return _defect_root(_hereditary_sums(w, op, np.eye(op.n), [], tol,
                                         "defect_operator", gamma=True)[0],
                        tol)


def defect_operator(w: WeightSequence, T, tol: float = 1e-10) -> np.ndarray:
    """PSD square root of ``Gamma[I]`` evaluated at ``A = T*``.

    Raises ModelHypothesisError when ``A`` is not a contraction (as
    ``_adjoint`` tests it) or ``Gamma[I]`` has an eigenvalue below
    ``-10 tol``, i.e. when ``T`` is not a star-hypercontraction at the
    zeroth level.  ``tol`` is finite and ``>= 0`` (0 allows no negative
    roundoff).
    """
    _check_tol(tol)
    return _defect(w, _adjoint(w, T, tol)[1], tol)


def characteristic_family(w: WeightSequence, T, k_max: int = 12,
                          rank_tol: float = 1e-10,
                          tol: float = 1e-10) -> CharFamily:
    """Characteristic transfer family of ``T`` via the Cholesky construction.

    Sets ``A = T*``, refused unless it is a contraction (as by
    ``defect_operator``) and strongly stable in the weighted sense: a
    rate ``s rho(A)^2`` of 1 or more (``classify``'s rule) is refused by
    name before any sum.  One hereditary stack
    ``Gamma[I], Gamma^(1..k)[I]``, ``k = max(20, k_max)`` as at
    ``classify``'s default depth, gives ``C = Gamma[I]^(1/2)`` (refused
    as by ``defect_operator``) and the positivity checks, and with one
    gramian table ``G^(0..k_max+1)`` of ``(C, A)`` (refused past
    ``rho(A) = 0.999``) the classification, which must report a
    hypercontraction; the table is then factored into the family.  The
    verdict is ``classify``'s rule for the weight, decided at every
    shift, where one is proven (hardy, integer ``alpha``,
    ``1 < alpha < 2``, and a custom weight with ``deg P <= k``), and
    the stack read to ``k`` for non-integer ``alpha > 2``, where no rule
    is proven and the hypothesis is only sampled at those ``k`` shifts;
    ``k`` is the report's ``k_checked``.  The base gramian of ``(C, A)``
    is the identity; its deviation is recorded on the bundle.  ``A`` is
    eigen-solved once for all of it.  ``k_max >= 0``; ``tol`` is finite
    and ``>= 0`` (0 as for ``defect_operator``).
    """
    _check_tol(tol)
    _check_k_max(k_max, 0, "characteristic_family")
    T, op = _adjoint(w, T, tol)
    rate = _stability_rate(w, op)
    if not rate < 1.0:
        raise ModelHypothesisError(
            "adjoint is not strongly stable in the weighted sense: "
            f"s rho(A)^2 = {rate:.6g} >= 1")
    I = np.eye(op.n)
    ctol = max(tol, 1e-8)
    sums = _hereditary_sums(w, op, I, range(1, max(20, k_max) + 1),
                            min(tol, 0.1 * ctol), "characteristic_family",
                            gamma=True)
    D = _defect_root(sums[0], tol)
    pair = OutputPair(A=op, C=D)
    table = gramian_table(w, pair, k_max + 1, tol=min(tol, 1e-12))
    report = _classification(w, pair, sums, table, ctol)
    if not report.hypercontraction:
        raise ModelHypothesisError(
            f"adjoint is not a hypercontraction: residuals {report.residuals}")
    return CharFamily(T=T, defect=D,
                      family=_family_from_table(w, pair, table, rank_tol),
                      classification=report,
                      gramian_identity_residual=opnorm(table[0] - I))


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
    degenerate.  ``A`` is eigen-solved once for the defect and the
    gramians.  A ``T`` whose adjoint is not a contraction is refused as
    by ``defect_operator``.  ``k_max >= 0``; ``tol`` as for
    ``characteristic_family``.
    """
    _check_tol(tol)
    _check_k_max(k_max, 0, "defect_form_family")
    op = _adjoint(w, T, tol)[1]
    pair = OutputPair(A=op, C=_defect(w, op, tol))
    A, C = pair.A, pair.C
    gramians = gramian_table(w, pair, k_max + 1, tol=min(tol, 1e-12))
    n = pair.n
    lam, V = eigh(gramians.stack(0, k_max + 1))
    if not np.all(lam[:, 0] > rank_tol * lam[:, -1]):  # NaN fails
        raise ModelHypothesisError("gramian numerically singular")
    root = np.sqrt(lam)[:, None, :]
    G_half = (V * root) @ V.conj().swapaxes(-1, -2)
    G_half_inv = (V / root) @ V.conj().swapaxes(-1, -2)
    steps = []
    for k in range(k_max + 1):
        At = G_half[k + 1] @ A @ G_half_inv[k]
        Ct = (w._entries(k)[0] ** -0.5) * (C @ G_half_inv[k])
        # polar factor of Ct: Ct = omega * (Ct* Ct)^(1/2), and the positive
        # factor equals the defect of At by the isometry identity
        omega = _polar_unitary(Ct)
        lam_d, V_d = eigh(np.eye(n) - At @ At.conj().T)
        keep = lam_d >= rank_tol * max(float(lam_d[-1]), 1e-300)
        # fix phases so the construction is reproducible; the adjoint
        # defect (I - At At*)^(1/2) scales its eigenvectors by sqrt(lam)
        basis = _phase_fixed(V_d[:, keep])
        Bt = basis * np.sqrt(lam_d[keep])
        Dt = -(omega @ At.conj().T) @ basis
        B = G_half_inv[k + 1] @ Bt
        D = (w._entries(k)[0] ** 0.5) * Dt
        steps.append(ColligationStep(B=B, D=D, u=B.shape[1]))
    return _checked_family(w, pair, steps, gramians,
                           gramians.inverses(0, k_max + 1, rank_tol))


# ---------------------------------------------------------------------------
# coincidence of families
# ---------------------------------------------------------------------------

@dataclass
class CoincidenceResult:
    """The verdict, the residual of the unitaries found (for a "no" decided
    before any sweep, the floor every unitary pair's residual is above),
    the unitaries and the number of Procrustes sweeps run."""

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


def _residual_floor(S, values, p: int) -> float:
    """A lower bound on ``max ||tau Theta_k(z_i) - Theta'_k(z_i) sigma_k||``
    over unitary ``tau``, ``sigma_k`` from the singular values ``S`` of the
    stacked intertwining system (``check_coincidence``) and the
    ``Theta'_k(z_i)`` it was built from, ``values`` of shape
    ``(K, N, p, u)``, less a rounding allowance: ``S_min`` is lowered by
    ``16 p^2 eps S_max`` for the rounding of the system and its SVD, and
    the floor by ``64 eps (1 + beta)`` for that of a computed residual."""
    eps = np.finfo(float).eps
    rows = len(values) * values.shape[1] ** 2  # blocks of p^2 rows
    beta = float(opnorm(values).max())
    c = max(S[-1] - 16 * p * p * eps * S[0], 0.0) * np.sqrt(p / rows)
    return float(c / (beta + np.sqrt(beta * beta + c))
                 - 64 * eps * (1.0 + beta))


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

    The system also bounds every residual from below, so a "no" may need
    no sweep: with ``P`` built from ``Theta'`` values of norm at most
    ``beta``, a unitary pair of residual ``res`` leaves each of the
    system's ``R`` blocks of rows a defect of at most ``res (2 beta + res)``,
    while the whole defect is at least ``S_min sqrt(p)`` for the smallest
    singular value ``S_min``.  So ``res`` is at least
    ``c / (beta + sqrt(beta^2 + c))``, ``c = S_min sqrt(p / R)``; when that
    floor, less an allowance for rounding, exceeds ``tol`` the check
    returns "no" with no unitaries and 0 sweeps.  An empty ``grid`` is
    refused.  ``tol`` is finite and ``>= 0``; at 0 only an exact
    coincidence is one, and every sweep runs.
    """
    _check_tol(tol)
    A_col = famA.family if isinstance(famA, CharFamily) else famA
    B_col = famB.family if isinstance(famB, CharFamily) else famB
    if grid is None:
        grid = [0.15 + 0.1j, -0.3 + 0.2j, 0.45j, -0.5 - 0.1j, 0.6,
                0.2 - 0.55j, -0.05 + 0.05j, 0.35 + 0.35j]
    elif not np.size(grid):
        raise InvalidParameterError(
            "check_coincidence needs at least one grid point")
    k_max = min(A_col.k_max, B_col.k_max)
    if A_col.pair.p != B_col.pair.p:
        return CoincidenceResult(False, float("inf"), None, None,
                                 reason="output dimensions differ")
    for k in range(k_max + 1):
        if A_col.step(k).u != B_col.step(k).u:
            return CoincidenceResult(False, float("inf"), None, None,
                                     reason=f"input dimensions differ at k={k}")
    ks = list(range(k_max + 1))
    u = np.array([A_col.step(k).u for k in ks])
    # (K, N, p, u) stacks of the values at the grid points, every step of a
    # family from one resolvents table, zero columns past each u_k
    EA = transfer_eval(A_col, ks, grid, 1e-12)
    EB = transfer_eval(B_col, ks, grid, 1e-12)
    K, N, p, width = EA.shape
    # the identity on the padding, so that every sigma_k is unitary there
    pad = (np.arange(width) >= u[:, None])[:, None, :] * np.eye(width)

    def columns(vals):
        """The (K, N, p, u) stack as the p-by-(K N u) block row of every
        step's points."""
        return vals.transpose(2, 0, 1, 3).reshape(p, -1)

    def residual(tau, sigmas):
        return float(np.linalg.norm(
            (tau @ EA - EB @ sigmas[:, None]).reshape(K, N, -1),
            axis=-1).max())

    # the stacked points of Theta'_k, and the block row of every Theta_k
    MB = EB.reshape(K, N * p, width)
    X = columns(EA)

    # For every point pair at once, tau P_A(z, zeta) = P_B(z, zeta) tau is
    # M vec(tau) = 0 with M = kron(I, P_A^T) - kron(P_B, I), stored as
    # M[..., a, b, c, d] = I[a, c] P_A[..., d, b] - P_B[..., a, c] I[b, d],
    # stacked over the first five steps and the pairs.
    Ip = np.eye(p, dtype=complex)
    first = slice(0, min(K, 5))
    PA = EA[first, :, None] @ EA[first, None].conj().swapaxes(-1, -2)
    PB = EB[first, :, None] @ EB[first, None].conj().swapaxes(-1, -2)
    M = np.einsum("ac,kijdb->kijabcd", Ip, PA) \
        - np.einsum("kijac,bd->kijabcd", PB, Ip)
    # Distinct weights: for a repeated singular value the SVD may return
    # singular matrices (matrix units of the commutant) whose plain sum is
    # singular too.
    _, S, Vh = np.linalg.svd(M.reshape(-1, p * p), full_matrices=False)
    floor = _residual_floor(S, EB[first], p)
    if floor > tol:
        return CoincidenceResult(
            False, floor, None, None,
            reason=f"every unitary pair leaves a residual above {floor:.3e}")
    null = Vh[S <= max(S[-1], tol * S[0])][::-1].conj()
    weights = 1.0 / np.arange(1, len(null) + 1)
    tau = _polar_unitary((weights @ null).reshape(p, p))

    sigmas = np.broadcast_to(np.eye(width, dtype=complex), (K, width, width))
    res = residual(tau, sigmas)
    sweeps = 0
    for sweeps in range(1, _MAX_SWEEPS + 1):
        MA = (tau @ EA).reshape(MB.shape)
        sigmas = _polar_unitary(MB.conj().swapaxes(-1, -2) @ MA + pad)
        if X.size:
            tau = _polar_unitary(columns(EB @ sigmas[:, None]) @ X.conj().T)
        prev, res = res, residual(tau, sigmas)
        if abs(prev - res) < tol / 10:
            break
    sigmas = [sigma[:uk, :uk] for sigma, uk in zip(sigmas, u)]
    return CoincidenceResult(coincide=bool(res <= tol), residual=res,
                             tau=tau, sigmas=sigmas, sweeps=sweeps)


# ---------------------------------------------------------------------------
# model round-trip
# ---------------------------------------------------------------------------

@dataclass
class RoundTripReport:
    residual: float
    k_max: int


def model_roundtrip_residual(char: CharFamily, grid=None,
                             tol: float = 1e-12) -> RoundTripReport:
    """Kernel identity tying the characteristic family to the model space.

    Over all grid point pairs, compares the invariant-subspace kernel
    ``R(z conj(zeta)) I - C R(zA) R(zeta A)* C*`` (the gramian is the
    identity here) against ``sum_{k <= K} x^k Theta_k(z) Theta_k(zeta)*``
    (``x = z conj(zeta)``, ``K`` the family length) plus the kernel of the
    shift image ``M_{K+1}``, ``kernel_shifted(K + 1)``.  By the
    wandering-subspace decomposition the identity is exact: each gap
    kernel ``kernel_shifted(k) - kernel_shifted(k + 1)`` is
    ``x^k Theta_k(z) Theta_k(zeta)*``, so no allowance enters.  Both range
    kernels (shift 0 with ``G = I`` and shift ``K + 1``) come from one
    ``resolvents`` table, and their scalar parts combine into the
    polynomial ``sum_{j <= K} x^j / beta_j``.  An empty ``grid`` is
    refused.  ``tol`` is the resolvents' (finite, ``>= 0``; 0 as for
    ``resolvents``).
    """
    _check_tol(tol)
    fam, w = char.family, char.weight
    if grid is None:
        grid = default_grid(radii=(0.0, 0.15, 0.3, 0.45, 0.6))
    elif not np.size(grid):
        raise InvalidParameterError(
            "model_roundtrip_residual needs at least one grid point")
    pair = fam.pair
    k_max = fam.k_max
    ks = list(range(k_max + 1))
    zs = np.asarray(grid, dtype=complex)
    N = len(zs)
    # (K, N, p, u) values of every step from one resolvents table, zero
    # columns past each u_k
    evals = transfer_eval(fam, ks, zs, tol)
    # sum_k (z conj(zeta))^k Theta_k(z) Theta_k(zeta)* is Phi(z) Phi(zeta)*
    # for the block row Phi(z) = [z^k Theta_k(z)]_k: one product
    Phi = (zs[:, None] ** ks).T[..., None, None] * evals
    Phi = Phi.transpose(1, 2, 0, 3).reshape(N, pair.p, -1)
    # kernel_invariant - kernel_shifted(K + 1), from one resolvents table
    G_inv = np.stack([np.eye(pair.n, dtype=complex),
                      fam.gramians.inverses(k_max + 1, k_max + 1)[0]])
    (K0, K1), x = _range_kernel(w, (0, k_max + 1), pair, G_inv, zs, zs, tol)
    head = np.polyval(w._entries(np.arange(k_max, -1, -1))[1], x) \
        * np.eye(pair.p) - K0 + x ** (k_max + 1) * K1
    diff = head - _cross(Phi, Phi)
    worst = float(np.linalg.norm(diff.reshape(N * N, -1), axis=1).max())
    return RoundTripReport(residual=worst, k_max=k_max)


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


def functional_model_colligation(fam: ColligationFamily, k: int, J: int,
                                 tol: float = 1e-8) -> FunctionalModelReport:
    """Verify the functional-model form of the step-k colligation.

    Requires identity base gramian (the characteristic-family situation).
    Recomputes the input operator from Taylor data alone,

        x_B(u) = sum_{j<=J} (beta_{j+k+1} / beta_j) A^{*j} C* Theta_{k,j+1} u,

    and reports its alignment against the stored ``B_k`` up to a right
    unitary, together with the three block identities of the weighted
    isometry property.  ``tol`` (finite, ``>= 0``; 0 allowed) bounds the
    identity base gramian's deviation, floored at 1e-8.
    """
    _check_tol(tol)
    w, pair = fam.weight, fam.pair
    if opnorm(fam.gramians[0] - np.eye(pair.n)) > max(tol, 1e-8):
        raise ModelCoordinatesError(
            "functional-model coordinates need an identity base gramian")
    st = fam.step(k)
    A, C = pair.A, pair.C
    Gk, Gk1 = fam.gramians[k], fam.gramians[k + 1]
    betas, inv_betas = w._entries(np.arange(k + J + 2))
    c1 = stein_residual(w, k, pair, Gk, Gk1)
    c2 = opnorm(A.conj().T @ Gk1 @ st.B + inv_betas[k] * (C.conj().T @ st.D))
    c3 = opnorm(st.B.conj().T @ Gk1 @ st.B
                + inv_betas[k] * (st.D.conj().T @ st.D) - np.eye(st.u))

    (taylor,), _, CA = _taylor_stack(fam, [k], J + 1)
    Astar = _right_powers(np.eye(pair.n, dtype=complex), A.conj().T, J + 1)
    ratio = betas[k + 1:] / betas[:J + 1]
    xB = (ratio[:, None, None] * (Astar @ C.conj().T @ taylor[1:])).sum(0)
    if st.u:
        sigma = _polar_unitary(st.B.conj().T @ xB)
        align = opnorm(xB - st.B @ sigma)
    else:
        align = 0.0
    # x_B equals (J-truncated base gramian) B_k exactly, so the cut tail is
    # bounded by the gramian truncation remainder times ||B_k||
    allowance = float(_gramian_remainders(
        w, fam.gramians, CA[:J + 1], [0])[0]) * opnorm(st.B)
    return FunctionalModelReport(check_state=c1, check_cross=c2,
                                 check_input=c3, input_coordinates=xB,
                                 alignment_residual=align,
                                 alignment_allowance=allowance)

