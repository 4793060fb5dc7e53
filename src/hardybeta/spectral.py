"""The spectral route: scalar functions of the conjugation map by
diagonalization.

With ``L: X -> A* X A`` and ``A = V diag(d) V^-1``, every scalar function
``f`` of ``L`` acts as

    f(L)[X] = V^-* (F o (V* X V)) V^-1,    F_ij = f(conj(d_i) d_j),

so a gramian ``G^(k) = R_k(L)[C*C]`` or a hereditary map
``Gamma^(k) = (R_k / R)(L)`` needs ``f`` at the ``n^2`` eigenvalue products
only, however deep the weight, and a resolvent
``R_k(zA) = V diag(R_k(z d)) V^-1`` needs ``R_k`` at the ``n`` points
``z d_i``.  ``hereditary.py`` takes this route for
``beta_alpha`` with non-integer ``alpha = m + s`` (``0 < s < 1``), where
``1/R = (1 - x)^alpha`` on the principal branch, ``R_0 = (1 - x)^-alpha``
and every other ``R_k`` is Euler's Beta integral

    R_k(x) = 1/(Gamma(alpha) Gamma(1 - s))
             int_0^1 t^(k+s-1) (1-t)^(-s)
                 sum_{r<=m} e_{k,r} (tx)^r (1 - tx)^-(r+1) dt,
    e_{k,r} = m!/(m-r)! (k + s + r)_(m-r),

evaluated by Gauss–Jacobi quadrature for the weight ``t^(s-1) (1-t)^(-s)``:
Golub–Welsch nodes (``eigh`` of the Jacobi matrix; Chebyshev nodes in closed
form at ``s = 1/2``), built on first use and kept read-only on the weight,
one rule per count of the fixed ladder ``LADDER``.

**Gate.**  ``diagonalize`` accepts ``A`` when ``rho(A) < 1`` and its
unit-column eigenvector matrix has
``kappa(V) = ||V||_F ||V^-1||_F <= KAPPA_MAX``, an upper bound on the
2-norm condition number; a defective ``A`` has no such ``V`` and fails
it.  Every other ``A`` stays on the series.

**Node count.**  For ``|x| <= a = rho(A)^2`` the integrand, as a function
of ``u = 2t - 1``, is analytic inside the Bernstein ellipse ``E_p`` with
``T(p) a < 1``, ``T(p) = (1 + (p + 1/p)/2)/2`` its largest ``|t|``, where it
is at most ``M_k = T^k sum_r |e_{k,r}| (Ta)^r / (1 - Ta)^(r+1)``.  The
``N``-point rule, exact to degree ``2N - 1``, then errs by at most
``4 mu_0 M_k p^-2N / (p - 1)`` (``mu_0 = pi / sin(pi s)`` the weight's
mass) times the normalization, minimized over a fixed grid of ``p``.  The
count is the smallest ``N`` with that bound for ``k = 0`` below ``EPS``
(``R_0(0) = 1``), plus ``ceil((k_max + m)/2)`` for the factor ``t^k``,
rounded up the ladder; past its top rung the route declines.

**Error bound.**  ``stein_bounds`` reports, per shift, the error the gate
and the node count promise for ``G^(k)``, to first order in the rounding
unit ``u``:
``kappa(V)^2 ||X||_F (q_k + F_k u (n + 2 alpha kappa(V) n ||A||_F / (1 - a)))``,
with ``q_k`` the quadrature bound of the largest shift at the count used
(0 for the closed-form ``R_0``) and ``F_k = R_k(a)``,
the largest ``|R_k|`` over the products: ``kappa(V)^2`` carries an entry
error of ``F`` to the result, ``n u`` the rounding of the two conjugations,
and ``|R_k'(x)| <= alpha R_k(|x|) / (1 - |x|)`` an eigenvalue error of
``kappa(V) n u ||A||_F``.  It is 0 only for ``X = 0``, whose image is
exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: largest ``kappa(V) = ||V||_F ||V^-1||_F`` of the unit-column
#: eigenvector matrix the route accepts
KAPPA_MAX = 1e6

#: node counts of the cached Gauss–Jacobi rules, about 2^(1/4) apart
LADDER = (8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112,
          128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024)

#: target error of the quadrature for ``R_0``, relative to ``R_0(0) = 1``
EPS = 1e-15

#: the grid of ellipse parameters ``p = 1 + theta (p_max - 1)``, closer
#: to the pole for larger ``a``
_THETA = 1.0 - np.logspace(-0.3, -3.0, 10)

_U = np.finfo(float).eps / 2


@dataclass(frozen=True)
class Diagonalization:
    """``A = V diag(d) V^-1`` with ``W = V^-1`` and ``kappa`` the gate's
    ``kappa(V)``."""

    d: np.ndarray
    V: np.ndarray
    W: np.ndarray
    kappa: float

    @property
    def upper(self) -> np.ndarray:
        """The products ``conj(d_i) d_j``, the eigenvalues of ``L``, for
        ``i <= j``: those below are their conjugates, and so are the values
        of a function with real Taylor coefficients."""
        i, j = _triu(len(self.d))
        return self.d[i].conj() * self.d[j]

    def apply(self, values: np.ndarray, X) -> np.ndarray:
        """``V^-* (F o (V* X V)) V^-1`` for each row of ``values``, the
        values of ``f`` at ``upper``: ``F`` holds them at ``i <= j`` and
        their conjugates below."""
        n = len(self.d)
        i, j = _triu(n)
        F = np.empty(values.shape[:-1] + (n, n), dtype=complex)
        F[..., j, i] = values.conj()
        F[..., i, j] = values
        Y = self.V.conj().T @ np.asarray(X, dtype=complex) @ self.V
        return self.W.conj().T @ (F * Y) @ self.W


@lru_cache(maxsize=None)
def _triu(n: int):
    return np.triu_indices(n)


def diagonalize(A) -> Diagonalization | None:
    """The diagonalization of ``A`` when it passes the gate: ``rho(A) < 1``
    and ``kappa(V) = ||V||_F ||V^-1||_F <= KAPPA_MAX`` (an upper bound on
    the 2-norm condition number; ``||V||_F = sqrt(n)`` for the unit columns
    of ``eig``); None otherwise."""
    d, V = np.linalg.eig(np.asarray(A, dtype=complex))
    if not np.abs(d).max(initial=0.0) < 1.0:
        return None
    try:
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    kappa = math.sqrt(len(d)) * float(np.linalg.norm(W))
    if not kappa <= KAPPA_MAX:
        return None
    return Diagonalization(d, V, W, kappa)


def _gauss_jacobi(s: float, N: int):
    """Nodes in (0, 1) and weights of the N-point Gauss rule for
    ``t^(s-1) (1-t)^(-s)``: in ``u = 2t - 1`` the Jacobi weight
    ``(1-u)^a (1+u)^b``, ``a = -s``, ``b = s - 1``, whose recurrence at
    ``a + b = -1`` has diagonal ``(a - b)/(4j^2 - 1)`` and squared
    off-diagonal ``2(1+a)(1+b)``, then ``(j+a)(j+b)/(2j-1)^2``."""
    mass = math.pi / math.sin(math.pi * s)
    if s == 0.5:
        u = np.cos((2 * np.arange(N, 0, -1) - 1) * math.pi / (2 * N))
        return (1 + u) / 2, np.full(N, mass / N)
    a, b = -s, s - 1
    j = np.arange(1, N)
    off = (j + a) * (j + b) / (2.0 * j - 1) ** 2
    off[:1] = 2 * (1 + a) * (1 + b)
    jac = np.diag((a - b) / (4.0 * np.arange(N) ** 2 - 1))
    jac += np.diag(np.sqrt(off), 1) + np.diag(np.sqrt(off), -1)
    u, vecs = np.linalg.eigh(jac)
    return (1 + u) / 2, mass * vecs[0] ** 2


def _rule(w, N: int):
    """The N-point rule of the weight, normalization folded into its
    weights, built on first use and kept read-only on the weight."""
    rule = w._nodes.get(N)
    if rule is None:
        t, wts = _gauss_jacobi(w.alpha - math.floor(w.alpha), N)
        wts = wts * _constants(w.alpha)[2]
        for arr in (t, wts):
            arr.flags.writeable = False
        rule = w._nodes[N] = (t, wts)
    return rule


@lru_cache(maxsize=None)
def _constants(alpha: float):
    """``m``, ``r = 0..m``, the normalization
    ``norm = 1/(Gamma(alpha) Gamma(1 - s))``, ``log(4 mu_0 norm)`` and
    ``e_{0,r}``."""
    m = math.floor(alpha)
    s = alpha - m
    norm = 1.0 / (math.gamma(alpha) * math.gamma(1.0 - s))
    lead = math.log(4.0 * math.pi / math.sin(math.pi * s) * norm)
    r = np.arange(m + 1)
    return m, r, norm, lead, _e_table(alpha, (0,))[0]


@lru_cache(maxsize=256)
def _e_table(alpha: float, ks: tuple) -> np.ndarray:
    """``e_{k,r} = m!/(m-r)! (k + s + r)_(m-r)``, one row per shift of the
    tuple ``ks``: the Pochhammer symbols are the suffix products of
    ``k + s + i``, ``i < m``.  Cached and read-only."""
    m = math.floor(alpha)
    terms = np.asarray(ks, dtype=float)[:, None] + (alpha - m) \
        + np.arange(m + 1)
    terms[:, m] = 1.0
    poch = np.cumprod(terms[:, ::-1], axis=1)[:, ::-1]
    table = poch * [math.perm(m, r) for r in range(m + 1)]
    table.flags.writeable = False
    return table


def _ellipses(alpha: float, a: float):
    """On the grid ellipses for ``|x| <= a`` (``T(p) a < 1``): ``log p``,
    ``log T(p)`` and ``log(4 mu_0 / (p - 1))`` plus the normalization,
    and the rows ``(Ta)^r / (1 - Ta)^(r+1)``, ``r = 0..m``."""
    m, r, _, lead, _ = _constants(alpha)
    a = max(a, 1e-6)  # a larger a bounds a smaller one
    c = 2.0 / a - 1.0
    p = 1.0 + _THETA * (c + math.sqrt(c * c - 1.0) - 1.0)
    T = 0.5 + 0.25 * (p + 1.0 / p)
    Ta = (T * a)[:, None]
    return (np.log(p), np.log(T), lead - np.log(p - 1.0),
            Ta ** r / (1.0 - Ta) ** (r + 1))


def quadrature_bound(alpha: float, a: float, k: int, N: int) -> float:
    """The ellipse bound on ``|R_j(x) - Q_N(x)|`` over ``|x| <= a`` for
    every ``j <= k``: ``T >= 1`` and ``e_{j,r}`` grow with ``j``."""
    logp, logT, lead, ratio = _ellipses(alpha, a)
    M = np.log(ratio @ _e_table(alpha, (k,))[0]) + k * logT
    return float(np.exp(np.min(M + lead - 2.0 * N * logp)))


def node_count(alpha: float, a: float, k_max: int) -> int | None:
    """Nodes for every ``R_k``, ``k <= k_max``, on ``|x| <= a``: the ellipse
    count for ``R_0`` plus ``ceil((k_max + m)/2)``, up the ladder; None past
    its top.  Taken at ``a`` rounded up to ``1 - 2^(-i/16)``, since a
    larger ``a`` needs no fewer nodes, so that the counts are cached."""
    i = math.ceil(-16.0 * math.log2(1.0 - a)) if a > 0.0 else 0
    return _node_count(alpha, i, k_max)


@lru_cache(maxsize=4096)
def _node_count(alpha: float, i: int, k_max: int) -> int | None:
    """``node_count`` at ``a = 1 - 2^(-i/16)``."""
    m, _, _, _, e0 = _constants(alpha)
    a = 1.0 - 2.0 ** (-i / 16.0)
    logp, _, lead, ratio = _ellipses(alpha, a)
    need = (np.log(ratio @ e0) + lead - math.log(EPS)) / (2.0 * logp)
    need = max(math.ceil(need.min()), 1) + math.ceil((k_max + m) / 2)
    return next((n for n in LADDER if n >= need), None)


def shifted(w, ks, x):
    """``R_k(x)`` for every shift of ``ks`` at the 1-d points ``x``
    (``|x| < 1``), one row per shift, with the node count used (0 when
    no shift needs one): ``R_0 = (1 - x)^-alpha`` in closed form, every
    other shift from one real product ``(w_i t_i^k)[K, N] @ M[N, r, x]``
    over ``M_r = (tx)^r (1 - tx)^-(r+1)``.  None when the count passes the
    ladder."""
    ks = np.asarray(ks)
    x = np.asarray(x, dtype=complex)
    live = ks[ks > 0]
    if not live.size:
        return np.repeat(((1.0 - x) ** -w.alpha)[None], len(ks), axis=0), 0
    kmax = int(live.max())
    N = node_count(w.alpha, float(np.abs(x).max(initial=0.0)), kmax)
    if N is None:
        return None
    t, wts = _rule(w, N)
    powers = np.empty((kmax, N))
    powers[:] = t
    np.cumprod(powers, axis=0, out=powers)  # row j holds t^(j+1)
    coef = _e_table(w.alpha, tuple(live.tolist()))
    m = coef.shape[1] - 1
    tx = t[:, None] * x
    M = np.empty((N, m + 1, len(x)), dtype=complex)
    M[:, 0] = np.reciprocal(1.0 - tx)
    for r in range(1, m + 1):
        np.multiply(M[:, r - 1] * tx, M[:, 0], out=M[:, r])
    prod = (wts * powers[live - 1]) @ M.view(float).reshape(N, -1)
    vals = (coef[:, None] @ prod.view(complex).reshape(len(live), m + 1,
                                                        len(x)))[:, 0]
    if live.size == len(ks):
        return vals, N
    out = np.empty((len(ks), len(x)), dtype=complex)
    out[ks == 0] = (1.0 - x) ** -w.alpha
    out[ks > 0] = vals
    return out, N


def stein_bounds(spec: Diagonalization, alpha: float, ks, N: int, R, X,
                 norm_A: float) -> np.ndarray:
    """First-order error bound of ``R_k(L)[X]`` for every shift (module
    docstring), from the values ``R`` of ``shifted``, its count ``N`` and
    ``||A||_F``; the closed-form ``R_0`` has no quadrature error, and the
    bound of the largest shift serves every other one."""
    ks = np.asarray(ks)
    n = len(spec.d)
    a = float(np.abs(spec.d).max()) ** 2
    quad = np.where(ks > 0, quadrature_bound(alpha, a, int(ks.max()), N)
                    if N else 0.0, 0.0)
    top = np.abs(R).max(axis=1)
    roundoff = _U * (n + 2 * alpha * spec.kappa * n * norm_A / (1 - a))
    return spec.kappa ** 2 * float(np.linalg.norm(X)) * (quad + top * roundoff)
