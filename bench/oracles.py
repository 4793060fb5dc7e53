"""Independent oracles for the benchmark's correctness checks.

None of these call ``hardybeta``.  Coefficients come from closed forms:
for the weight ``beta_alpha`` (``alpha = 1`` is the constant Hardy weight)

    1/beta_m = C(alpha + m - 1, m),    c_j = (-1)^j C(alpha, j),

so ``R(x) = (1 - x)^(-alpha)`` and ``1/R(x) = (1 - x)^alpha``.  For integer
``alpha`` the shifted series are finite combinations of these powers,

    R_k(x) = sum_{r=0}^{alpha-1} C(k + r - 1, r) (1 - x)^(r - alpha),

which gives truncation-free gramians (one Lyapunov or Kronecker solve per
power), resolvents and hereditary maps.  Non-integer ``alpha`` uses a long
brute-force sum with the closed-form coefficients.

``L`` below is the conjugation map ``X -> A* X A``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_discrete_lyapunov
from scipy.special import binom


class OracleError(RuntimeError):
    """The oracle itself could not produce a reference value."""


def is_integer(alpha: float) -> bool:
    return abs(alpha - round(alpha)) < 1e-12


def inv_betas(alpha: float, m) -> np.ndarray:
    """``1/beta_m = C(alpha + m - 1, m)``."""
    m = np.asarray(m, dtype=float)
    return binom(alpha + m - 1.0, m)


def c_coeffs(alpha: float, j) -> np.ndarray:
    """Coefficients ``(-1)^j C(alpha, j)`` of ``(1 - x)^alpha``."""
    j = np.asarray(j, dtype=float)
    return np.where(j % 2 == 0, 1.0, -1.0) * binom(alpha, j)


def d_coeffs(alpha: float, k: int, j) -> np.ndarray:
    """Coefficients ``d^(k)_j = -sum_{l=1}^k c_{j+l} / beta_{k-l}`` of R_k/R."""
    j = np.asarray(j, dtype=float)
    if k == 0:
        return (j == 0).astype(float)
    out = np.zeros(j.shape)
    for l in range(1, k + 1):
        out -= c_coeffs(alpha, j + l) * float(inv_betas(alpha, k - l))
    return out


def _shift_weight(k: int, r: int) -> int:
    """``C(k + r - 1, r)``, the weight of ``(1 - x)^(r - alpha)`` in R_k."""
    return 1 if r == 0 else math.comb(k + r - 1, r)


def _conj(A, X):
    return A.conj().T @ X @ A


def _one_minus_L_power(A, X, r: int):
    """``(I - L)^r X`` by the finite binomial sum."""
    out = np.zeros_like(X)
    M = X
    for j in range(r + 1):
        out = out + ((-1) ** j * math.comb(r, j)) * M
        M = _conj(A, M)
    return out


def brute_force(A, X, coef, block: int = 64, max_terms: int = 1 << 17,
                rel: float = 1e-17) -> np.ndarray:
    """``sum_j coef(j)[i] A^{*j} X A^j`` for each row i of ``coef``.

    Moments are advanced a block at a time.  The sum stops once a whole
    block contributes less than ``rel`` of the sum while the moment norms
    fall across it, i.e. after any transient growth has been passed.
    """
    A = np.asarray(A, dtype=complex)
    X = np.asarray(X, dtype=complex)
    moments = [X]
    for _ in range(block - 1):
        moments.append(_conj(A, moments[-1]))
    M = np.stack(moments)
    P = np.linalg.matrix_power(A, block)
    Ph = P.conj().T
    S = None
    for j0 in range(0, max_terms, block):
        c = np.atleast_2d(coef(np.arange(j0, j0 + block)))
        part = np.einsum("rb,bij->rij", c, M)
        S = part if S is None else S + part
        norms = np.linalg.norm(M, axis=(1, 2))
        contrib = float(np.max(np.abs(c) @ norms))
        scale = float(np.max(np.linalg.norm(S, axis=(1, 2))))
        if j0 > 0 and norms[-1] <= norms[0] and contrib <= rel * scale:
            return S
        if contrib == 0.0 and norms[-1] == 0.0:
            return S
        M = Ph @ M @ P
    raise OracleError(f"brute-force sum did not settle in {max_terms} terms")


def gramians(A, C, alpha: float, ks) -> dict:
    """Shifted gramians ``G^(k) = sum_j (1/beta_{j+k}) A^{*j} C*C A^j``."""
    A = np.asarray(A, dtype=complex)
    C = np.asarray(C, dtype=complex)
    Q = C.conj().T @ C
    ks = list(ks)
    if alpha == 1.0:
        G = solve_discrete_lyapunov(A.conj().T, Q)
        return {k: G for k in ks}
    if is_integer(alpha):
        a = int(round(alpha))
        n = A.shape[0]
        lu = lu_factor(np.eye(n * n) - np.kron(A.conj().T, A.T))
        S, v = [], Q.reshape(-1)
        for _ in range(a):  # S[m] = (I - L)^-(m+1) Q
            v = lu_solve(lu, v)
            S.append(v.reshape(n, n))
        return {k: sum(_shift_weight(k, r) * S[a - 1 - r] for r in range(a))
                for k in ks}
    sums = brute_force(A, Q, lambda j: np.stack(
        [inv_betas(alpha, j + k) for k in ks]))
    return dict(zip(ks, sums))


def gamma_map(A, X, alpha: float) -> np.ndarray:
    """``Gamma[X] = sum_j c_j A^{*j} X A^j``."""
    A = np.asarray(A, dtype=complex)
    X = np.asarray(X, dtype=complex)
    if is_integer(alpha):
        return _one_minus_L_power(A, X, int(round(alpha)))
    return brute_force(A, X, lambda j: c_coeffs(alpha, j))[0]


def gamma_k_map(A, X, alpha: float, k: int) -> np.ndarray:
    """Shifted hereditary map ``sum_j d^(k)_j A^{*j} X A^j``."""
    A = np.asarray(A, dtype=complex)
    X = np.asarray(X, dtype=complex)
    if is_integer(alpha):
        a = int(round(alpha))
        return sum(_shift_weight(k, r) * _one_minus_L_power(A, X, r)
                   for r in range(a))
    return brute_force(A, X, lambda j: d_coeffs(alpha, k, j))[0]


def resolvents(A, zs, alpha: int, k: int) -> np.ndarray:
    """``R_k(z A)`` for every z, stacked; closed form for integer alpha."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    out = []
    for z in zs:
        inv = np.linalg.inv(np.eye(n) - z * A)
        P = np.linalg.matrix_power(inv, alpha)  # (I - zA)^-alpha
        R = np.zeros((n, n), dtype=complex)
        for r in range(alpha):
            R += _shift_weight(k, r) * P
            P = P @ (np.eye(n) - z * A)
        out.append(R)
    return np.stack(out)


def resolvent_scalar(x, alpha: int, k: int):
    """Scalar ``R_k(x)`` in closed form for integer alpha."""
    x = np.asarray(x, dtype=complex)
    return sum(_shift_weight(k, r) * (1.0 - x) ** (r - alpha)
               for r in range(alpha))
