import math

import mpmath
import numpy as np
import pytest

import hardybeta as hb
from hardybeta.weights import WeightSequence

TRUNC = 256


@pytest.fixture(scope="session")
def w_hardy():
    return hb.make_weight_hardy(TRUNC)


@pytest.fixture(scope="session")
def w_beta2():
    return hb.make_weight_beta_alpha(2.0, TRUNC)


@pytest.fixture(scope="session")
def w_beta3():
    return hb.make_weight_beta_alpha(3.0, TRUNC)


@pytest.fixture(scope="session")
def w_beta25():
    return hb.make_weight_beta_alpha(2.5, TRUNC)


@pytest.fixture(scope="session")
def all_weights(w_hardy, w_beta2, w_beta3, w_beta25):
    return [w_hardy, w_beta2, w_beta3, w_beta25]


def series_copy(w):
    """The same table as a custom weight, whose gramians and resolvents sum
    the series (hardy and integer alpha are closed form) and whose maps take
    its rational form.  ``make_weight_custom`` tags an all-ones table hardy,
    so the hardy copy is built directly."""
    if w.kind == "hardy":
        return WeightSequence(w.betas, w.ratio_bound, "custom", w.c_coeffs)
    return hb.make_weight_custom(w.betas)


def long_copy(w, n=2048):
    """The hardy or ``beta_alpha`` weight of ``w`` with an ``n``-entry
    table: a call on ``w`` past its table must give these bits."""
    return hb.make_weight_hardy(n) if w.kind == "hardy" \
        else hb.make_weight_beta_alpha(w.alpha, n)


def custom_copy_8():
    """A custom copy of beta_2's table ``beta_0 .. beta_8``: past it the
    weight continues at its last ratio ``s = 9/8``, not as beta_2."""
    return hb.make_weight_custom(1 / np.arange(1, 10))


def continued_inv(w, m):
    """``1/beta_0 .. 1/beta_m`` of a custom weight by its definition: its
    table, then ``1/beta_{N+j} = s^j / beta_N``."""
    N, s = w.trunc_len, w.last_ratio
    return np.concatenate((w.inv_betas[:m + 1],
                           w.inv_betas[N] * s ** np.arange(1, m - N + 1)))


def off_route(A):
    """``A`` as the operator of the private hereditary helpers with the
    spectral route declined, so that its conjugation sums take the series
    (as past the route's gate)."""
    op = hb.hereditary._Operator(A)
    op.diagonalization = None
    return op


def continued_R(betas):
    """``R_k(x) = sum_j x^j / beta_{k+j}`` of a table ``beta_0 .. beta_N``
    continued past ``beta_N`` at its last ratio ``s = beta_{N-1}/beta_N``
    (1 for ``N = 0``), as a function of ``k`` and an mpmath point ``x``, at
    the working precision: the stored terms and the geometric rest."""
    inv = [1 / mpmath.mpf(float(b)) for b in betas]
    N = len(inv) - 1
    s = inv[N] / inv[N - 1] if N else mpmath.mpf(1)
    return lambda k, x: mpmath.polyval(inv[k:][::-1], x) \
        + x ** (N - k) * inv[N] * s * x / (1 - s * x)


def mp_maps(betas, A, X, ks, dps=34):
    """``Gamma[X]`` (``k = 0``) or ``Gamma^(k)[X]`` for each ``k`` of ``ks``
    for the table ``betas`` continued at its last ratio, at ``dps`` digits:
    ``f(L) X`` with ``f = R_k / R`` (``1 / R`` at ``k = 0``) and
    ``L: X -> A* X A``.  An ``A = lam I + N`` with a real ``lam`` and ``N``
    nilpotent (a triangular ``A`` with a constant diagonal, such as a
    Jordan block) takes the Taylor series of ``f`` at ``lam^2``, since
    ``L - lam^2`` is nilpotent; any other ``A`` must be diagonalizable,
    ``f(L) X = V^-* (F o (V* X V)) V^-1`` with
    ``F_ij = f(conj(d_i) d_j)``."""
    with mpmath.workdps(dps):
        R = continued_R(betas)
        num = [(lambda x, k=k: R(k, x)) if k else (lambda x: 1) for k in ks]
        n = len(A)
        Xm = mpmath.matrix(np.asarray(X).tolist())
        out = []
        if np.all(np.diag(A) == A[0, 0]):
            lam = mpmath.mpf(float(A[0, 0].real))
            Nm = mpmath.matrix((A - A[0, 0] * np.eye(n)).tolist())
            b = mpmath.taylor(lambda x: R(0, x), lam * lam, 2 * n - 2)
            for f in num:
                a = mpmath.taylor(f, lam * lam, 2 * n - 2)
                S, T, c = mpmath.matrix(n, n), Xm, []
                for m in range(len(a)):  # the Taylor series of f / R
                    c.append((a[m] - mpmath.fsum(c[j] * b[m - j]
                                                 for j in range(m))) / b[0])
                    S += c[m] * T
                    T = lam * (T * Nm + Nm.H * T) + Nm.H * T * Nm
                out.append(S)
        else:
            d, V = mpmath.eig(mpmath.matrix(np.asarray(A).tolist()))
            Vi = mpmath.inverse(V)
            Z = V.H * Xm * V
            xs = {(i, j): mpmath.conj(d[i]) * d[j]
                  for i in range(n) for j in range(n)}
            R0 = {ij: R(0, x) for ij, x in xs.items()}
            for f in num:
                F = Z.copy()
                for ij, x in xs.items():
                    F[ij] *= f(x) / R0[ij]
                out.append(Vi.H * F * Vi)
        return np.array([np.array(S.tolist(), dtype=complex) for S in out])


def deep_term(w, A, r):
    """``||A^{*D} Gamma^(D)[I] A^D||`` for a hardy or ``beta_alpha`` weight
    and ``rho(A) <= r``, from one ``gamma_k_map`` at a depth ``D <= 3e4``,
    at least 256, where ``r^(2D) 3e4^(alpha - 1)`` is 1e-9:
    ``||Gamma^(k)[I]||`` grows like ``k^(alpha - 1)``, so a strongly stable
    ``A`` of modest transient has its term within 1e-8 there."""
    a = w.alpha or 1.0
    D = max(math.ceil((math.log(1e-9) - (a - 1) * math.log(3e4))
                      / (2 * math.log(r))), 256)
    assert D <= 3e4
    AD = np.linalg.matrix_power(np.asarray(A, dtype=complex), D)
    term = AD.conj().T @ hb.gamma_k_map(w, D, A, np.eye(len(AD))) @ AD
    return float(np.linalg.norm(term, 2))


def cmat(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def stable_pair(rng, n, p, rho=0.7):
    A = cmat(rng, n, n)
    A *= rho / hb.spectral_radius(A)
    return hb.OutputPair(A=A, C=cmat(rng, p, n))


def hypercontraction_T(w, rng, n, norm=0.4):
    for _ in range(40):
        G = cmat(rng, n, n)
        T = G * (norm / np.linalg.norm(G, 2))
        rep = hb.classify(w, hb.OutputPair(A=T.conj().T, C=np.eye(n)),
                          k_max=24, tol=1e-9)
        if rep.hypercontraction and rep.strongly_stable_beta:
            return T
    raise RuntimeError("no hypercontraction found")
