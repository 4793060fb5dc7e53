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

The whole family is built as one stack over the step index: one stacked
eigen-solve inverts ``G^(0..k_max+1)``, the defects of every step are
factored with one more, and each metric identity's residual is one stacked
operator norm.  A step whose input dimension ``u_k`` is below the widest is
zero-padded in the stacks, since zero columns of ``U_k`` change neither
identity; ``build_step`` and ``metric_residuals`` are the one-step calls of
the same code.  The Taylor coefficients of one step are one array, and
``transfer_eval`` evaluates a sequence of steps from one ``resolvents``
table.  Every step is read through ``ColligationFamily.step``, which
refuses a step outside ``0..k_max`` by name.  Nothing here changes a built
family, but a family is not frozen: every evaluator reads ``steps`` as they
stand when it is called, so a step replaced after the build is what the
evaluators see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidParameterError,
    NotCoisometrizableError,
    _check_k_max,
    _check_tol,
)
from .hereditary import (
    GramianTable,
    OutputPair,
    _right_powers,
    eigh,
    gramian_table,
    opnorm,
    # not called here: bench/selftest.py checks that the benchmark's
    # tracer patches it in this namespace as well
    resolvent_apply,  # noqa: F401
    resolvents,
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
        """Step ``k``; a ``k`` outside ``0..k_max`` is refused."""
        if not 0 <= k < len(self.steps):
            raise InvalidParameterError(
                f"family holds steps 0..{self.k_max}, not k={k}")
        return self.steps[k]


def _phase_fixed(V: np.ndarray) -> np.ndarray:
    """The columns of ``V`` (of each matrix of a stack), each rotated so that
    its largest-magnitude entry is real positive; makes eigenvector bases
    reproducible."""
    pivot = np.argmax(np.abs(V), axis=-2)[..., None, :]
    phase = np.take_along_axis(V, pivot, axis=-2)
    # conj(phase) / |phase| rounded as numpy's scalar abs (hypot) and
    # complex division (Smith's, by the reciprocal) round it, zero signs too
    mag = np.hypot(phase.real, phase.imag)
    scale = 1.0 / np.where(mag > 0, mag, 1.0)
    a, b = phase.real, -phase.imag
    unit = np.empty_like(phase)
    unit.real, unit.imag = (a + b * 0.0) * scale, (b - a * 0.0) * scale
    return np.where(mag > 0, V * unit, V)


def _psd_factor(R: np.ndarray, rank_tol: float) -> np.ndarray:
    """Rank-revealing PSD square-root factor ``F`` with ``F F* = R``, of one
    matrix or of each matrix of a stack, from one eigen-solve.

    Eigenpairs with eigenvalue below ``rank_tol`` times the largest are
    dropped (that is the injectivity constraint); a genuinely negative
    eigenvalue signals inconsistent input.  The phase of each retained
    eigenvector is fixed by making its largest-magnitude entry real positive
    so the factor is reproducible.  A stack's factors have as many columns
    as the largest rank, those past each matrix's own rank zero.  A
    zero-size matrix is refused.
    """
    if not np.size(R):
        raise InvalidParameterError("_psd_factor needs a non-empty matrix")
    lam, V = eigh(R)
    lam_max = np.maximum(lam[..., -1:], 0.0)
    neg_floor = -10.0 * rank_tol * np.maximum(lam_max, 1.0)
    bad = np.flatnonzero(~(lam[..., :1] >= neg_floor))  # NaN fails
    if bad.size:
        i = int(bad[0])
        raise NotCoisometrizableError(
            f"defect matrix{f' {i}' if lam.ndim > 1 else ''} has negative "
            f"eigenvalue {lam[..., 0].flat[i]:.3e} (floor "
            f"{neg_floor.flat[i]:.3e}): gramians inconsistent")
    # descending: the kept eigenpairs come first
    lam, V = lam[..., ::-1], V[..., ::-1]
    keep = lam >= rank_tol * np.maximum(lam_max, 1e-300)
    rank = int(keep.sum(axis=-1).max(initial=0))
    root = np.sqrt(np.where(keep, lam, 0.0))[..., :rank]
    return _phase_fixed(V[..., :rank]) * root[..., None, :]


def _factor_steps(w: WeightSequence, pair: OutputPair,
                  gramians: GramianTable, k0: int, k1: int,
                  rank_tol: float):
    """Steps ``k0..k1`` of the Cholesky factorization problem as zero-padded
    stacks ``B`` and ``D`` with the input dimensions ``u``, together with
    ``inv(G^(k0..k1+1))``: one stacked inversion, one stacked defect
    ``R_k`` and one stacked factorization."""
    ks = np.arange(k0, k1 + 1)
    G_inv = gramians.inverses(k0, k1 + 1, rank_tol)
    AC = np.vstack([pair.A, pair.C])
    ones = np.ones(pair.p)
    R = _block_diag(G_inv[1:], w._entries(ks)[0][:, None] * ones) \
        - AC @ G_inv[:-1] @ AC.conj().T
    F = _psd_factor(R, rank_tol)
    u = np.count_nonzero(F.any(axis=-2), axis=-1)
    return F[:, :pair.n], F[:, pair.n:], u, G_inv


def build_step(w: WeightSequence, k: int, pair: OutputPair,
               gramians: GramianTable, rank_tol: float = 1e-10):
    """Solve the step-k Cholesky factorization problem.

    Returns ``(B_k, D_k)``.  Both ``G^(k)`` and ``G^(k+1)`` must be strictly
    positive definite; a singular gramian raises ObservabilityError, and a
    defect matrix with a genuinely negative eigenvalue raises
    NotCoisometrizableError.
    """
    B, D, _, _ = _factor_steps(w, pair, gramians, k, k, rank_tol)
    return B[0], D[0]


def build_family(w: WeightSequence, pair: OutputPair, k_max: int,
                 rank_tol: float = 1e-10, tol: float = 1e-12) -> ColligationFamily:
    """Build colligation steps ``0..k_max`` with their metric residuals.

    The pair must be exactly observable; strict positivity of the base
    gramian propagates to every shifted gramian, so all inversions in the
    step factorizations are genuine.  A singular gramian raises
    ObservabilityError naming its shift.  ``k_max >= 0``; ``tol``, the
    gramian table's, is finite and ``>= 0`` (0 as for ``gramian``).
    """
    _check_tol(tol)
    _check_k_max(k_max, 0, "build_family")
    return _family_from_table(w, pair, gramian_table(w, pair, k_max + 1,
                                                     tol=tol), rank_tol)


def _family_from_table(w: WeightSequence, pair: OutputPair,
                       gramians: GramianTable, rank_tol: float):
    """``build_family``'s steps ``0..k_max`` from ``G^(0..k_max+1)``."""
    k_max = gramians.k_max - 1
    B, D, u, G_inv = _factor_steps(w, pair, gramians, 0, k_max, rank_tol)
    steps = [ColligationStep(B=B[k, :, :u[k]], D=D[k, :, :u[k]], u=int(u[k]))
             for k in range(k_max + 1)]
    return _checked_family(w, pair, steps, gramians, G_inv)


def _checked_family(w, pair, steps, gramians, G_inv) -> ColligationFamily:
    """The family of ``steps`` with the metric residuals of every step,
    given ``G_inv = inv(G^(0..k_max+1))``."""
    fam = ColligationFamily(weight=w, pair=pair, steps=steps,
                            gramians=gramians)
    fam.isometry_residuals, fam.coisometry_residuals = \
        _metric_residuals(fam, 0, len(steps) - 1, G_inv)
    return fam


def _blocks(family: ColligationFamily, k0: int, k1: int):
    """The blocks ``U_k``, ``k = k0..k1``, as one stack with the input
    columns zero-padded to the widest step, and the mask of each step's own
    input columns."""
    n = family.pair.n
    B, D, inputs = _padded(family, range(k0, k1 + 1))
    U = np.zeros((len(B), n + family.pair.p, n + B.shape[-1]), dtype=complex)
    U[:, :n, :n] = family.pair.A
    U[:, n:, :n] = family.pair.C
    U[:, :n, n:] = B
    U[:, n:, n:] = D
    return U, inputs


def colligation_block(family: ColligationFamily, k: int) -> np.ndarray:
    """The block operator ``U_k = [[A, B_k], [C, D_k]]``."""
    return _blocks(family, k, k)[0][0]


def _block_diag(M: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The complex block-diagonal matrices ``diag(M_i, diag(d_i))`` for a
    stack ``M`` and the rows ``d_i`` of diagonal entries."""
    K, n, _ = M.shape
    m = d.shape[-1]
    out = np.zeros((K, n + m, n + m), dtype=complex)
    out[:, :n, :n] = M
    i = np.arange(n, n + m)
    out[:, i, i] = d
    return out


def _metric_defects(family: ColligationFamily, k0: int, k1: int, G_inv):
    """Stacks of the defects of the weighted isometry and coisometry
    identities of steps ``k0..k1``, given ``G_inv = inv(G^(k0..k1+1))``:
    ``U* diag(G^(k+1), (1/beta_k) I) U - diag(G^(k), I)`` and
    ``U diag(inv(G^(k)), I) U* - diag(inv(G^(k+1)), beta_k I)``."""
    w, p = family.weight, family.pair.p
    ks = np.arange(k0, k1 + 1)
    G = family.gramians.stack(k0, k1 + 1)
    U, inputs = _blocks(family, k0, k1)
    Uh = U.conj().swapaxes(-1, -2)
    betas, inv_betas = w._entries(ks[:, None])
    ones = np.ones(p)
    W_out = _block_diag(G[1:], inv_betas * ones)
    isom = Uh @ W_out @ U - _block_diag(G[:-1], inputs)
    V_out = _block_diag(G_inv[1:], betas * ones)
    coisom = U @ _block_diag(G_inv[:-1], inputs) @ Uh - V_out
    return isom, coisom


def _metric_residuals(family: ColligationFamily, k0: int, k1: int, G_inv):
    """Operator-norm residuals of both identities for steps ``k0..k1``, as
    two lists."""
    return [opnorm(X).tolist() for X in _metric_defects(family, k0, k1, G_inv)]


def metric_residuals(family: ColligationFamily, k: int) -> dict:
    """Operator-norm residuals of the weighted isometry and coisometry
    identities at step ``k``."""
    G_inv = family.gramians.inverses(k, k + 1)
    (isom,), (coisom,) = _metric_residuals(family, k, k, G_inv)
    return {"isometry": isom, "coisometry": coisom}


def _padded(family: ColligationFamily, ks):
    """``B_k`` and ``D_k`` for the steps ``ks`` as stacks zero-padded to the
    widest step, and the mask of each step's own input columns."""
    steps = [family.step(k) for k in ks]
    u = np.array([st.u for st in steps])
    B = np.zeros((len(steps), family.pair.n, u.max()), dtype=complex)
    D = np.zeros((len(steps), family.pair.p, u.max()), dtype=complex)
    for Bi, Di, st in zip(B, D, steps):
        Bi[:, :st.u] = st.B
        Di[:, :st.u] = st.D
    return B, D, np.arange(u.max()) < u[:, None]


def transfer_eval(family: ColligationFamily, k, z,
                  tol: float = 1e-12) -> np.ndarray:
    """Evaluate ``Theta_k(z) = (1/beta_k) D_k + z C R_{k+1}(zA) B_k`` at a
    point or a 1-d array of points; the value has shape
    ``np.shape(z) + (p, u_k)``.  For a sequence of steps ``k`` it has shape
    ``(len(k),) + np.shape(z) + (p, max u_k)``, each step's columns past
    its ``u_k`` zero, from one ``resolvents`` table; an empty sequence is
    refused.  ``tol`` is the table's (finite, ``>= 0``; 0 as for
    ``resolvents``)."""
    _check_tol(tol)
    w, pair = family.weight, family.pair
    ks = np.atleast_1d(k)
    if not ks.size:
        raise InvalidParameterError("transfer_eval needs at least one step k")
    B, D, _ = _padded(family, ks)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    R = resolvents(w, ks + 1, pair, zs, tol)
    vals = w._entries(ks)[1][:, None, None, None] * D[:, None] \
        + zs[None, :, None, None] * (pair.C @ R @ B[:, None])
    return vals.reshape(np.shape(k) + np.shape(z) + D.shape[-2:])


def _taylor_stack(family: ColligationFamily, ks, J: int):
    """Taylor coefficients ``Theta_{k,0..J}`` for the steps ``ks`` as one
    ``(len(ks), J + 1, p, max u_k)`` array, zero-padded past each ``u_k``,
    the mask of each step's own input columns and the products
    ``C A^j``, ``j = 0..J``, formed once for all steps."""
    if J < 0:
        raise InvalidParameterError(f"Taylor length J={J} must be >= 0")
    w, pair = family.weight, family.pair
    ks = np.asarray(ks)
    B, D, inputs = _padded(family, ks)
    out = np.empty((len(ks), J + 1) + D.shape[1:], dtype=complex)
    inv_betas = w._entries(ks[:, None] + np.arange(J + 1))[1][..., None, None]
    out[:, 0] = inv_betas[:, 0] * D
    CA = _right_powers(pair.C, pair.A, J + 1)
    out[:, 1:] = inv_betas[:, 1:] * (CA[None, :J] @ B[:, None])
    return out, inputs, CA


def transfer_taylor(family: ColligationFamily, k: int, J: int) -> np.ndarray:
    """Taylor coefficients ``Theta_{k,0..J}`` of the step-k transfer
    function as one ``(J + 1, p, u_k)`` array."""
    return _taylor_stack(family, [k], J)[0][0]


def defect_kernel(family: ColligationFamily, k: int, z: complex, zeta: complex,
                  tol: float = 1e-12) -> np.ndarray:
    """Quadratic-form defect kernel of step ``k`` at the point pair.

    Vanishes identically when the step satisfies the weighted coisometry
    identity; its size is proportional to the identity's violation.
    ``tol`` is the resolvents' (finite, ``>= 0``; 0 as for ``resolvents``).
    """
    _check_tol(tol)
    w, pair = family.weight, family.pair
    p = pair.p
    G_inv = family.gramians.inverses(k, k + 1)
    defect = -_metric_defects(family, k, k, G_inv)[1][0]

    Rz, Rzeta = resolvents(w, k, pair, [z, zeta], tol)
    inv_beta = w._entries(k)[1]
    left = np.hstack([z * (pair.C @ Rz), inv_beta * np.eye(p)])
    right = np.vstack([np.conj(zeta) * (Rzeta.conj().T @ pair.C.conj().T),
                       inv_beta * np.eye(p)])
    return left @ defect @ right
