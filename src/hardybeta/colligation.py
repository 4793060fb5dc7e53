"""Colligation families built by rank-revealing Cholesky factorization.

Given an exactly observable output pair ``(C, A)`` with shifted gramians
``G^(k)``, each step solves the factorization problem

    [B_k; D_k] [B_k; D_k]* = diag(inv(G^(k+1)), beta_k I) -
                             [A; C] inv(G^(k)) [A*, C*]

for an injective ``[B_k; D_k]`` (eigen-decomposition with rank truncation).
The resulting block operators ``U_k = [[A, B_k], [C, D_k]]`` satisfy the two
weighted metric identities

    U_k* diag(G^(k+1), (1/beta_k) I) U_k = diag(G^(k), I)          (isometry)
    U_k  diag(inv(G^(k)), I) U_k*     = diag(inv(G^(k+1)), beta_k I)
                                                                 (coisometry)

and carry the transfer-function family
``Theta_k(z) = (1/beta_k) D_k + z C R_{k+1}(zA) B_k`` whose Taylor
coefficients are ``Theta_{k,0} = (1/beta_k) D_k`` and
``Theta_{k,j+1} = (1/beta_{j+k+1}) C A^j B_k``.

Steps are independent given the gramian table and may be built in parallel;
built families are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotCoisometrizableError, ObservabilityError
from .hereditary import (
    GramianTable,
    OutputPair,
    gramian_table,
    hermitian_inverse,
    hermitize,
    opnorm,
    resolvent_apply,
)
from .weights import WeightSequence


@dataclass
class ColligationStep:
    """Per-index data ``(B_k, D_k)`` with input dimension ``u_k``."""

    B: np.ndarray  # n x u_k
    D: np.ndarray  # p x u_k
    u: int


@dataclass
class ColligationFamily:
    """A family of colligation steps sharing one output pair and weight."""

    weight: WeightSequence
    pair: OutputPair
    steps: list
    gramians: GramianTable
    isometry_residuals: list = field(default_factory=list)
    coisometry_residuals: list = field(default_factory=list)

    @property
    def k_max(self) -> int:
        return len(self.steps) - 1

    def step(self, k: int) -> ColligationStep:
        return self.steps[k]


def _phase_fixed(V: np.ndarray) -> np.ndarray:
    """The columns of ``V``, each rotated so that its largest-magnitude
    entry is real positive; makes eigenvector bases reproducible."""
    cols = []
    for i in range(V.shape[1]):
        v = V[:, i]
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot]
        cols.append(v * (phase.conjugate() / abs(phase)) if abs(phase) > 0
                    else v)
    if cols:
        return np.column_stack(cols)
    return np.zeros((V.shape[0], 0), dtype=complex)


def _psd_factor(R: np.ndarray, rank_tol: float):
    """Rank-revealing PSD square-root factor ``F`` with ``F F* = R``.

    Eigenpairs with eigenvalue below ``rank_tol`` times the largest are
    dropped (that is the injectivity constraint); a genuinely negative
    eigenvalue signals inconsistent input.  The phase of each retained
    eigenvector is fixed by making its largest-magnitude entry real positive
    so the factor is reproducible.
    """
    R = hermitize(R)
    lam, V = np.linalg.eigh(R)
    lam_max = max(float(lam[-1]), 0.0)
    neg_floor = -10.0 * rank_tol * max(lam_max, 1.0)
    if float(lam[0]) < neg_floor:
        raise NotCoisometrizableError(
            f"defect matrix has negative eigenvalue {lam[0]:.3e} "
            f"(floor {neg_floor:.3e}): gramians inconsistent")
    keep = lam >= rank_tol * max(lam_max, 1e-300)
    return _phase_fixed(V[:, keep][:, ::-1]) * np.sqrt(lam[keep][::-1])


def build_step(w: WeightSequence, k: int, pair: OutputPair,
               gramians: GramianTable, rank_tol: float = 1e-10):
    """Solve the step-k Cholesky factorization problem.

    Returns ``(B_k, D_k)``.  Both ``G^(k)`` and ``G^(k+1)`` must be strictly
    positive definite; a singular gramian raises ObservabilityError, and a
    defect matrix with a genuinely negative eigenvalue raises
    NotCoisometrizableError.
    """
    try:
        Gk_inv = hermitian_inverse(gramians[k], rank_tol)
        Gk1_inv = hermitian_inverse(gramians[k + 1], rank_tol)
    except ObservabilityError as exc:
        raise ObservabilityError(
            f"step {k}: exact observability required ({exc})") from exc
    AC = np.vstack([pair.A, pair.C])
    R = _block_diag(Gk1_inv, w.betas[k], pair.p) - AC @ Gk_inv @ AC.conj().T
    F = _psd_factor(R, rank_tol)
    return F[:pair.n, :], F[pair.n:, :]


def build_family(w: WeightSequence, pair: OutputPair, k_max: int,
                 rank_tol: float = 1e-10, tol: float = 1e-12) -> ColligationFamily:
    """Build colligation steps ``0..k_max`` with their metric residuals.

    The pair must be exactly observable; strict positivity of the base
    gramian propagates to every shifted gramian, so all inversions in the
    step factorizations are genuine.
    """
    gramians = gramian_table(w, pair, k_max + 1, tol=tol)
    lam = np.linalg.eigvalsh(hermitize(gramians[0]))
    if lam[0] <= rank_tol * max(lam[-1], 0.0):
        raise ObservabilityError(
            f"pair not exactly observable: gramian eigenvalues in "
            f"[{lam[0]:.3e}, {lam[-1]:.3e}]")
    steps = []
    for k in range(k_max + 1):
        B, D = build_step(w, k, pair, gramians, rank_tol)
        steps.append(ColligationStep(B=B, D=D, u=B.shape[1]))
    fam = ColligationFamily(weight=w, pair=pair, steps=steps,
                            gramians=gramians)
    for k in range(k_max + 1):
        res = metric_residuals(fam, k)
        fam.isometry_residuals.append(res["isometry"])
        fam.coisometry_residuals.append(res["coisometry"])
    return fam


def colligation_block(family: ColligationFamily, k: int) -> np.ndarray:
    """The block operator ``U_k = [[A, B_k], [C, D_k]]``."""
    pair, st = family.pair, family.step(k)
    top = np.hstack([pair.A, st.B])
    bot = np.hstack([pair.C, st.D])
    return np.vstack([top, bot])


def _block_diag(M: np.ndarray, c: float, m: int) -> np.ndarray:
    """The complex block-diagonal matrix ``diag(M, c I_m)``."""
    n = M.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = M
    out[n:, n:] = c * np.eye(m)
    return out


def _coisometry_weights(family: ColligationFamily, k: int):
    """Block weights ``V_in = diag(inv(G^(k)), I)`` and
    ``V_out = diag(inv(G^(k+1)), beta_k I)`` of the coisometry identity."""
    V_in = _block_diag(hermitian_inverse(family.gramians[k]), 1.0,
                       family.step(k).u)
    V_out = _block_diag(hermitian_inverse(family.gramians[k + 1]),
                        family.weight.betas[k], family.pair.p)
    return V_in, V_out


def metric_residuals(family: ColligationFamily, k: int) -> dict:
    """Operator-norm residuals of the weighted isometry and coisometry
    identities at step ``k``."""
    w, pair, st = family.weight, family.pair, family.step(k)
    U = colligation_block(family, k)
    W_out = _block_diag(family.gramians[k + 1], w.inv_betas[k], pair.p)
    W_in = _block_diag(family.gramians[k], 1.0, st.u)
    isom = opnorm(U.conj().T @ W_out @ U - W_in)

    V_in, V_out = _coisometry_weights(family, k)
    coisom = opnorm(U @ V_in @ U.conj().T - V_out)
    return {"isometry": isom, "coisometry": coisom}


def transfer_eval(family: ColligationFamily, k: int, z: complex,
                  tol: float = 1e-12) -> np.ndarray:
    """Evaluate ``Theta_k(z) = (1/beta_k) D_k + z C R_{k+1}(zA) B_k``."""
    w, pair, st = family.weight, family.pair, family.step(k)
    out = w.inv_betas[k] * st.D.astype(complex)
    if z != 0 and st.u > 0:
        Rk1 = resolvent_apply(w, k + 1, pair.A, z, tol)
        out = out + z * (pair.C @ Rk1 @ st.B)
    return out


def transfer_taylor(family: ColligationFamily, k: int, J: int) -> list:
    """Taylor coefficients ``Theta_{k,0..J}`` of the step-k transfer function."""
    w, pair, st = family.weight, family.pair, family.step(k)
    coeffs = [w.inv_betas[k] * st.D.astype(complex)]
    CAj = pair.C.copy()
    for j in range(J):
        coeffs.append(w.inv_betas[j + k + 1] * (CAj @ st.B))
        CAj = CAj @ pair.A
    return coeffs


def defect_kernel(family: ColligationFamily, k: int, z: complex, zeta: complex,
                  tol: float = 1e-12) -> np.ndarray:
    """Quadratic-form defect kernel of step ``k`` at the point pair.

    Vanishes identically when the step satisfies the weighted coisometry
    identity; its size is proportional to the identity's violation.
    """
    w, pair = family.weight, family.pair
    p = pair.p
    U = colligation_block(family, k)
    V_in, V_out = _coisometry_weights(family, k)
    defect = V_out - U @ V_in @ U.conj().T

    Rz = resolvent_apply(w, k, pair.A, z, tol)
    Rzeta = resolvent_apply(w, k, pair.A, zeta, tol)
    left = np.hstack([z * (pair.C @ Rz), w.inv_betas[k] * np.eye(p)])
    right = np.vstack([np.conj(zeta) * (Rzeta.conj().T @ pair.C.conj().T),
                       w.inv_betas[k] * np.eye(p)])
    return left @ defect @ right
