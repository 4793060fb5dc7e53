"""Hereditary calculus on matrices: resolvents, gramians, Stein identities.

For an output pair ``(C, A)`` (``A`` an n-by-n complex matrix, ``C`` p-by-n)
and an admissible weight sequence this module evaluates

* the weighted resolvents ``R_k(zA) = sum_j (1/beta_{k+j}) (zA)^j``, for
  one shift ``k`` or a sequence of shifts (the steps of a colligation
  family) on a whole point array, and the scalar ``R_k(x)``,
* the shifted observability gramians
  ``G^(k) = sum_j (1/beta_{j+k}) A^{*j} C^* C A^j``,
* the hereditary maps ``Gamma[X] = sum_j c_j A^{*j} X A^j`` and their shifted
  companions built from the quotient-series tables,
* Stein-identity residuals and a tolerance-qualified classification of the
  pair (contractive, isometric, hypercontractive, strongly stable, exactly
  observable).

One door for the operator: every entry that takes ``A`` (``gamma_map``,
``gamma_k_map``, ``gamma_binomial``, ``delta_limit``, ``resolvents``,
``resolvent_apply``) takes a matrix or an OutputPair and turns it once into
an ``_Operator``, which refuses a non-square or empty ``A`` by name, and
makes ``rho(A)`` and the spectral route's diagonalization on first use and
keeps them; an OutputPair is one, with ``C``.  The private helpers take
only that object, so no ``A`` is eigen-solved twice: ``rho(A)`` is read
from the diagonalization when that came first, a pair's gramian table,
hereditary maps and resolvent grids share one diagonalization, and a hardy
or integer-alpha map eigen-solves nothing.

Hardy and integer alpha (``R(x) = (1 - x)^-alpha``) never enter the
series: a gramian table takes alpha chained solves of ``I - L``,
``L: X -> A* X A``, from ``_kron_solver``; the hereditary maps are finite
sums over the moments ``X, L X, .., L^alpha X``, since their rows vanish
past index alpha; and a resolvent grid is
``R_k(zA) = sum_{r<alpha} C(k + r - 1, r) (I - zA)^(r - alpha)`` for
every shift, from one batched inverse of ``I - z_i A`` over the points and
its powers (the scalar ``R_k(x)`` likewise from ``1 / (1 - x)``).  The
route follows the weight's kind alone, never its table or the input: a
closed form reports tail 0 (a resolvent no record) and raises no
ConvergenceError, and it answers at every shift, since hardy and
``beta_alpha`` give their entries at every index
(``WeightSequence._entries``).

The hereditary maps of a custom weight leave the series too.  Past its
table it continues at its last ratio ``s``, so ``1/R = (1 - s z) / P`` and
``R_k / R = P_k / P`` with ``P_k = (1 - s z) R_k`` of degree below
``N - k`` (``weights.rational_rows``): with ``Y = P(L)^-1 X`` from one
solve of ``_kron_solver``, ``Gamma[X] = Y - s L Y`` and
``Gamma^(k)[X] = P_k(L) Y``, finite sums over the moments of ``Y``.  They
use no ``tol``, have no tail and need no rate, for a Jordan block and at
``rho(A) = 1`` alike.

``_kron_solver`` is the one solver of a polynomial ``p(L)``, and forms
the only Kronecker matrix of the package: ``p(L)`` by Horner from the
leading coefficient on ``K = kron(A^*, A^T)`` (``I - K`` itself at degree
1), inverted once, each solve refined once.  A ``p(L)`` that overflows
(``A`` too large, or ``rho(A)`` far past 1 against the degree of ``p``)
is refused by name.

Non-integer alpha takes the spectral route of ``spectral.py``: with
``A = V diag(d) V^-1`` from one ``np.linalg.eig``,
``f(L)[X] = V^-* (F o (V* X V)) V^-1`` with ``F_ij = f(conj(d_i) d_j)``,
where ``f`` is ``R_k`` (gramians), ``(1 - x)^alpha`` (``Gamma``) or
``(1 - x)^alpha R_k`` (``Gamma^(k)``), a resolvent grid is
``R_k(z_i A) = V diag(R_k(z_i d)) V^-1`` (Higham, *Functions of
Matrices*, ch. 4), and ``R_k``, ``k >= 1``, is a Gauss–Jacobi quadrature
of Euler's Beta integral.  Its gate is ``rho(A) < 1`` and
``kappa(V) = ||V||_F ||V^-1||_F <= spectral.KAPPA_MAX`` (1e6); a defective
``A``, such as a Jordan block, fails it.  The table length plays no part:
the route raises no ConvergenceError and ``tol`` is not used.  A gramian
table from it reports, per shift, the first-order error bound that its
gate and node count promise (``spectral.stein_bounds``; 0 only for
``C = 0``), with truncation order -1; a resolvent grid reports no record.
The diagonalization is the operator's, made once by whichever of its
gramian table, hereditary stack or resolvent grid comes first.  The
scalar ``R_k(x)`` needs no gate: it is the quadrature at ``x`` itself.
A node count past the top of the quadrature's ladder (points too close to
the unit circle) keeps the series.

Every other sum (the gramians, resolvents and scalars of custom weights;
non-integer alpha past the gate or the ladder) is cut adaptively by the
engine in ``series.py``.  It reads the weight, not its table: the rows
``1/beta_{k+j}`` come from ``WeightSequence._entries`` (a custom weight
past its table by its definition, ``1/beta_{N+j} = s^j / beta_N``) and
the ``c`` and quotient rows from ``hereditary_rows``, at whatever length
the cut needs, with the weight's step bounds (``inv_step``, ``c_step``).
It raises ConvergenceError, naming the function called, ``q`` and the
term budget, when no span or cut within the budget certifies ``q`` or
meets ``tol``; no stored table and no shift refuses a sum.  The decay rate
``q`` is chosen from the spectral radius and the rows' step far out,
``s = lim beta_k / beta_{k+1}`` (``_growth``: a custom weight's last ratio,
1 for hardy and ``beta_alpha``): below ``1/s`` as well as 1, so a sum with
``s rho(A)^2 < 1`` (gramians) or ``s |z| rho(A) < 1`` (resolvents) is
answered, and one at or past 1 is refused by name with DivergenceError
(``_divergence``), quoting ``s`` and the product, unless its terms end.
The engine certifies ``q`` on powers of ``A`` before it sums: every term
is at most ``K q^j`` for the certified transient constant ``K``, so the
tail bound holds for a non-normal ``A`` too.  A resolvent grid on the
series is one table of powers ``(rA)^j``, cut once at its largest radius
``r``: since ``|z_i / r|^j <= 1``, the tail bound of the powers holds at
every point of the grid.  A sequence of shifts adds one coefficient row
``1/beta_{k+j}`` per shift to the same sum, each bounded past a cut by its
entry there and the weight's step; the one cut is the first index where
every row's bound holds, so the tail is <= tol at every shift and point.
A gramian table is one ``(k_max + 1, n, n)`` array, inverted as one stack.
The powers ``X A^j`` and the conjugation moments ``A^{*j} X A^j`` of the
finite sums and the Taylor data all come from ``_right_powers``; the
series engine makes its own terms, and the strong-stability residual takes
one binary power.
``GramianTable.tail_bounds`` (a dict by shift) is 0 on the closed forms,
the spectral route's error bound there, and the series' tail bound (``K``
times the row's coefficient tail past the cut) on the series.
Gramians and classification are restricted to spectral radius at most
0.999, on every route; resolvents need ``|z| < 1`` and
``|z| rho(A) < 1``.

``opnorm`` (every spectral norm of the package), ``eigh`` (every
Hermitian eigen-solve) and ``min_eig`` take one matrix or a stack with any
leading axes, one LAPACK call per stack, and give NaN for a matrix with a
non-finite entry: every check built on them reports NaN, and fails its
verdict, instead of raising.  Every positivity verdict (the hereditary
domain, the shifted maps of ``delta_limit``, ``hermitian_inverse``) is
written so that NaN fails it, and a non-finite ``A``, ``C`` or ``X`` is
refused by name before any product is formed.  A non-square ``A``, an
empty state space (``n = 0``), an ``X`` not of ``A``'s shape, a ``C* C``
that overflows and an ``X - A* X A`` that overflows are refused by name
too.  Every entry refuses a negative, NaN
or infinite ``tol`` before any work (0 is allowed), and ``classify`` and
``delta_limit`` a ``k_max`` below 1.

Everything here is a pure function of immutable inputs; results are safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import series, spectral
from .errors import (
    DivergenceError,
    HereditaryDomainError,
    InvalidParameterError,
    ObservabilityError,
    SpectralRadiusError,
    _check_k_max,
    _check_tol,
)
from .weights import (
    WeightSequence,
    hereditary_rows,
    rational_denominator,
)

#: gramians and classification refuse spectral radius beyond this
RHO_MAX = 0.999


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize roundoff: (M + M*) / 2, of one matrix or of each matrix
    of a stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def _finite(M):
    """``M`` as an array, and the mask of its finite matrices: of one matrix
    (a 0-d mask) or of each matrix of a stack with any leading axes.  A
    matrix with a non-finite entry is masked out before LAPACK sees it: the
    SVD does not converge on a NaN, and ``hermitize`` warns on
    ``inf - inf``."""
    M = np.asarray(M)
    return M, np.isfinite(M).all(axis=(-2, -1))


def _stacked(f, M):
    """``f`` of one matrix (a float) or of each matrix of a stack with any
    leading axes (an array), from one call of ``f`` on the finite ones
    (``_finite``); a masked matrix gets NaN, a zero-size matrix 0."""
    M, ok = _finite(M)
    out = np.where(ok, 0.0, np.nan)
    if M.size:
        out[ok] = f(M[ok])
    return out if out.ndim else float(out)


def opnorm(M: np.ndarray):
    """Operator (spectral) norm, the largest singular value, of one matrix
    or of each matrix of a stack (``_stacked``).  Every spectral norm of
    the package is taken here."""
    return _stacked(lambda S: np.linalg.svd(S, compute_uv=False)[..., 0], M)


def eigh(M: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of the Hermitian part, and its eigenvectors
    (as columns) when ``vectors``, of one matrix or of each matrix of a
    stack with any leading axes, from one LAPACK call on the finite ones
    (``_finite``).  A matrix with a non-finite entry gets NaN eigenvalues
    and eigenvectors.  Every Hermitian eigen-solve of the package is taken
    here."""
    M, ok = _finite(M)
    S = hermitize(M[ok])
    lam = np.full(M.shape[:-1], np.nan)
    if not vectors:
        lam[ok] = np.linalg.eigvalsh(S)
        return lam
    V = np.full(M.shape, np.nan, dtype=S.dtype)
    lam[ok], V[ok] = np.linalg.eigh(S)
    return lam, V


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue modulus; a non-finite matrix is refused."""
    A = np.atleast_2d(np.asarray(A))
    if not np.isfinite(A).all():
        raise InvalidParameterError("spectral radius needs a finite matrix")
    return float(np.max(np.abs(np.linalg.eigvals(A)))) if A.size else 0.0


def min_eig(M: np.ndarray):
    """Smallest eigenvalue of the Hermitian part, of one matrix (a float) or
    of each matrix of a stack (``eigh``): NaN for a matrix with a
    non-finite entry, 0 for a zero-size one."""
    lam = eigh(M, vectors=False)
    lo = lam[..., 0] if lam.shape[-1] else np.zeros(lam.shape[:-1])
    return lo if lo.ndim else float(lo)


def hermitian_inverse(M: np.ndarray, rank_tol: float = 1e-10) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix, or of each matrix of
    a stack, from one eigen-solve.

    Refuses (rather than pseudo-inverts) a matrix whose smallest eigenvalue
    does not exceed ``rank_tol`` times the largest, or one with a
    non-finite entry; for a stack the ObservabilityError names, as
    ``index``, the first such matrix.  A zero-size matrix is refused.
    """
    if not np.size(M):
        raise InvalidParameterError("hermitian_inverse needs a non-empty "
                                    "matrix")
    lam, V = eigh(M)
    lo, hi = lam[..., 0], lam[..., -1]
    # written so that NaN fails it
    good = (lo > rank_tol * np.maximum(hi, 0.0)) & (lo > 0.0)
    bad = np.flatnonzero(~good)
    if bad.size:
        i = int(bad[0])
        where = f" {i} of the stack" if lam.ndim > 1 else ""
        raise ObservabilityError(
            f"matrix{where} numerically singular: eig range "
            f"[{lo.flat[i]:.3e}, {hi.flat[i]:.3e}]",
            index=i if lam.ndim > 1 else None)
    return hermitize((V / lam[..., None, :]) @ V.conj().swapaxes(-1, -2))


class _Operator:
    """An n-by-n complex matrix ``A``, ``n >= 1``, with its spectral data,
    each made on first use and kept: the spectral route's diagonalization
    and ``rho(A)``.  A non-square or empty ``A`` is refused."""

    def __init__(self, A):
        self.A = np.atleast_2d(np.asarray(A, dtype=complex))
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise InvalidParameterError("A must be square")
        if not self.A.size:
            raise InvalidParameterError("the state space must have n >= 1")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def diagonalization(self) -> spectral.Diagonalization | None:
        """``A = V diag(d) V^-1`` when ``A`` passes the spectral route's
        gate, else None (also for a non-finite ``A``, which ``eig`` cannot
        take)."""
        return spectral.diagonalize(self.A) if np.isfinite(self.A).all() \
            else None

    @cached_property
    def spectral_radius(self) -> float:
        """``rho(A)``: the largest ``|d_i|`` of the diagonalization when that
        was made first, else ``spectral_radius``, which refuses a non-finite
        ``A``."""
        spec = self.__dict__.get("diagonalization")
        return spectral_radius(self.A) if spec is None \
            else float(np.abs(spec.d).max())


def _operator(A) -> _Operator:
    """The door of every entry that takes an operator: a matrix becomes an
    ``_Operator``; an OutputPair (or an ``_Operator``) is taken as it is,
    with the data it has cached."""
    return A if isinstance(A, _Operator) else _Operator(A)


@dataclass
class OutputPair(_Operator):
    """Matrices ``(C, A)`` with ``A`` n-by-n, ``n >= 1``, on the state space
    and ``C`` p-by-n into the output space: an ``_Operator`` (which refuses
    a non-square or empty ``A``) with ``C``, whose spectral radius is
    computed at construction.  ``A`` may be an
    ``_Operator``, whose cached spectral data the pair then shares."""

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        C = self.C
        vars(self).update(vars(_operator(self.A)))
        self.C = np.atleast_2d(np.asarray(C, dtype=complex))
        if self.C.shape[1] != self.A.shape[0]:
            raise InvalidParameterError(
                f"C has {self.C.shape[1]} columns, expected {self.A.shape[0]}")
        if not np.isfinite(self.C).all():
            raise InvalidParameterError("C must be finite")
        self.spectral_radius  # made now, so a non-finite A is refused here

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def CstarC(self) -> np.ndarray:
        """``C* C``, formed once; a ``C`` whose ``C* C`` overflows is
        refused."""
        with np.errstate(over="ignore", invalid="ignore"):
            G = self.C.conj().T @ self.C
        if not np.isfinite(G).all():
            raise InvalidParameterError("C* C overflows: C is too large")
        return G


@dataclass
class GramianTable:
    """Shifted gramians ``G^(k)`` for ``k = 0..k_max`` as one
    ``(k_max + 1, n, n)`` array, with their tail bounds (a dict by shift)
    and the truncation order of the shared series: the index of its last
    term.  Hardy and integer alpha are closed form, a Stein solve with
    tail bounds 0 and truncation order -1, since no term is summed;
    non-integer alpha takes the spectral route when ``A`` passes its gate,
    with the route's error bounds (0 only for ``C = 0``) and truncation
    order -1;
    custom weights and ``A`` past the gate sum the series."""

    entries: np.ndarray
    tail_bounds: dict
    trunc_order: int

    def __getitem__(self, k: int) -> np.ndarray:
        return self.stack(k, k)[0]

    @property
    def k_max(self) -> int:
        return len(self.entries) - 1

    def stack(self, k0: int, k1: int) -> np.ndarray:
        """``G^(k0..k1)``: a ``(k1 - k0 + 1, n, n)`` view of ``entries``."""
        if not 0 <= k0 <= k1 <= self.k_max:
            raise InvalidParameterError(f"gramian table holds shifts 0.."
                                        f"{self.k_max}, not {k0}..{k1}")
        return self.entries[k0:k1 + 1]

    def inverses(self, k0: int, k1: int, rank_tol: float = 1e-10):
        """``inv(G^(k))`` for ``k = k0..k1`` as one stack, from one stacked
        eigen-solve; a numerically singular ``G^(k)`` raises
        ObservabilityError naming that ``k``."""
        try:
            return hermitian_inverse(self.stack(k0, k1), rank_tol)
        except ObservabilityError as exc:
            k = k0 + exc.index
            raise ObservabilityError(
                f"exact observability required at G^({k}) ({exc})",
                index=k) from exc


@dataclass
class ClassificationReport:
    """Tolerance-qualified classification flags with their justifying
    residuals.  ``k_checked`` is the depth of the stack
    ``Gamma^(1..k)[I]`` and of the recorded stability term.
    ``certified_all_k`` is True when the weight's rule decides the
    hypercontraction hypothesis at every shift and it holds (``classify``);
    strong stability itself is decided by its rate, at every depth
    (``_classification``)."""

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
    """Limit data for the decreasing sequence ``A^{*k} Gamma^(k)[H] A^k``:
    its recorded term at ``k_max`` (``delta``, not the limit: a limit
    decided by the rate is 0), whether the limit is reached (decided by
    the rate, or measured at a rate of 1 or more), the monotone
    certificate and the sum identity's residual."""

    delta: np.ndarray
    converged: bool
    monotone_min_eig: float
    sum_identity_residual: float | None


# ---------------------------------------------------------------------------
# conjugation sums: closed forms and the series
# ---------------------------------------------------------------------------

def _integer_alpha(w: WeightSequence) -> int | None:
    """``alpha`` of a weight with ``R(x) = (1 - x)^-alpha`` for an integer
    ``alpha``: 1 for hardy, ``alpha`` for a beta_alpha family with integer
    ``alpha``; None for every other weight, whose sums stay on the series."""
    if w.kind == "hardy":
        return 1
    if w.kind == "beta_alpha" and float(w.alpha).is_integer():
        return int(w.alpha)
    return None


def _route(w: WeightSequence,
           op: _Operator) -> spectral.Diagonalization | None:
    """The operator's diagonalization when the weight takes the spectral
    route, ``beta_alpha`` with non-integer ``alpha``, and ``A`` passes its
    gate; None otherwise, and the sums stay on the closed forms or the
    series."""
    if w.kind != "beta_alpha" or float(w.alpha).is_integer():
        return None
    return op.diagonalization


def _contract(rows, terms) -> np.ndarray:
    """``sum_j rows[i, j] terms[j]`` over the ``len(terms)`` leading columns,
    for every row, as one stack of Hermitian parts."""
    J1, n = terms.shape[:2]
    # real coefficients against the real view of the complex terms
    flat = terms.reshape(J1, n * n).view(float)
    sums = (np.asarray(rows, dtype=float)[:, :J1] @ flat).view(complex)
    return hermitize(sums.reshape(-1, n, n))


def _shifted_rows(w: WeightSequence, ks):
    """The rows ``1/beta_{k+j}``, one per shift of ``ks``, read at every
    index (``_entries``), and their step bounds past the cuts ``J``
    (``inv_step`` at ``k + J``), as the functions of the length and the
    cuts that the series engine reads."""
    ks = np.asarray(ks)[:, None]
    return (lambda n: w._entries(ks + np.arange(n + 1))[1],
            lambda J: w.inv_step(ks + J))


def _growth(w: WeightSequence) -> float:
    """``s = lim beta_k / beta_{k+1}``, the step of the rows
    ``1/beta_{k+j}`` far out: a custom weight's ``last_ratio``, at which it
    continues past its table by definition, and 1 for hardy and
    ``beta_alpha``."""
    return w.last_ratio if w.kind == "custom" else 1.0


def _divergence(s: float, rate: float, name: str, context: str) -> str:
    """The refusal of a sum of the rows ``1/beta_{k+j}``, which grow like
    ``s^j``, against terms that fall like ``rate^j``, when ``s rate`` is at
    least 1: unless its terms end, the series diverges.  Empty below 1, and
    at ``s = 1`` (hardy and ``beta_alpha``), whose rows grow at most
    polynomially: their domains keep ``rate < 1``, and a rate of 1 (a
    hereditary map at ``rho(A) >= 1``) is the engine's to refuse."""
    if s == 1.0 or s * rate < 1.0:
        return ""
    return (f"{context}: {name} = {s * rate:.6g} >= 1 at the weight's last "
            f"ratio s = {s:.6g}: series diverges")


def _series_sums(op: _Operator, X, rows, steps, tol, context, s=1.0):
    """``sum_j rows(J)[i, j] A^{*j} X A^j`` for every row, the rows and
    their step bounds read as functions of the length and the cuts
    (``series.cut``), cut once for all rows by the series engine at the
    rate of ``rho(A)`` and of the rows' step ``s`` far out, and contracted
    in one product; refused by name at ``s rho(A)^2 >= 1`` unless the
    terms end (``_divergence``).  Returns (sums, series record)."""
    A, rho = op.A, op.spectral_radius
    rec = series.adaptive_sum(np.asarray(X, dtype=complex), A, rows,
                              series.conjugation_rate(rho, s), steps, tol,
                              context, left=A.conj().T,
                              diverges=_divergence(s, rho * rho,
                                                   "s rho(A)^2", context))
    return _contract(rec.rows, rec.terms), rec


def _binomial_sum(ks, a: int, first, step) -> np.ndarray:
    """``R_k = sum_{r<a} C(k + r - 1, r) P^(a - r)`` for every shift of
    ``ks``, one row per shift, when ``1/beta_m = C(a + m - 1, m)``: ``P`` is
    ``(1 - x)^-1`` applied to what it acts on, ``first`` its first
    application and ``step`` the next one (a refined Kronecker solve, a
    batched matrix product or an elementwise one)."""
    powers = [first]
    for _ in range(a - 1):
        powers.append(step(powers[-1]))
    coefs = np.array([[math.comb(k + r - 1, r) if r else 1
                       for r in range(a)] for k in ks], dtype=float)
    P = np.array(powers[::-1])
    # one 2-d product: at desk scale np.tensordot's set-up costs more
    return (coefs @ P.reshape(a, -1)).reshape((len(coefs),) + P.shape[1:])


def _kron_solver(A, coefs):
    """The solver of ``p(L)[Y] = X``, ``L: X -> A* X A``, for the polynomial
    ``p(z) = sum_i coefs[i] z^i``: it takes and returns the row-major
    vectorization.  ``p(L)`` is formed on the Kronecker matrix
    ``K = kron(A^*, A^T)`` of ``L`` by Horner from the leading coefficient,
    so degree 1 is ``c_0 I + c_1 K`` with no product (``I - K`` for
    ``1 - z``), and inverted once;
    each solve is followed by one step of iterative refinement, which a
    strongly non-normal ``A`` needs for full accuracy.  A ``p(L)`` that
    overflows (``A`` too large, or ``rho(A)`` far past 1 against the degree
    of ``p``) is refused.  Every Kronecker matrix of the package is formed
    here."""
    *low, top = coefs
    n = len(A)
    with np.errstate(over="ignore", invalid="ignore"):
        # kron(A^*, A^T) as one broadcast product
        K = (A.conj().T[:, None, :, None] * A.T[None, :, None, :]) \
            .reshape(n * n, n * n)
        I = np.eye(n * n)
        M = low.pop() * I + top * K if low else top * I
        for c in low[::-1]:
            M = M @ K + c * I
    if not np.isfinite(M).all():
        raise InvalidParameterError(
            "the Kronecker matrix of p(L), L: X -> A* X A, overflows: A is "
            "too large")
    inv = np.linalg.inv(M)

    def solve(v):
        x = inv @ v
        x += inv @ (v - M @ x)
        return x
    return solve


def _closed_gramians(A, X, ks, a: int) -> np.ndarray:
    """``sum_j (1/beta_{j+k}) A^{*j} X A^j`` for every shift of ``ks`` when
    ``1/beta_m = C(a + m - 1, m)``, as one stack: ``_binomial_sum`` over
    ``(I - L)^-(m+1) X``, ``a`` chained refined solves of ``I - L``
    (``_kron_solver``)."""
    solve = _kron_solver(A, [1.0, -1.0])
    first = solve(np.asarray(X, dtype=complex).reshape(-1))
    return hermitize(_binomial_sum(ks, a, first, solve).reshape(-1, *A.shape))


def _stein_sums(w: WeightSequence, op: _Operator, X, ks, tol, context):
    """``sum_j (1/beta_{j+k}) A^{*j} X A^j`` for every shift of ``ks``, with
    the error or tail bound of each and the index of the last term summed.

    Closed form (tails 0, index -1: no term is summed) for hardy and integer
    alpha; the spectral route on the operator's diagonalization
    (``_route``; the bounds of ``spectral.stein_bounds``, index -1);
    otherwise the series, over the rows ``1/beta_{k+j}``
    (``_shifted_rows``), at the rows' step ``s`` far out (``_growth``)."""
    a = _integer_alpha(w)
    if a is not None:
        return _closed_gramians(op.A, X, ks, a), [0.0] * len(ks), -1
    spec = _route(w, op)
    values = None if spec is None else spectral.shifted(w, ks, spec.upper)
    if values is not None:
        R, N = values
        return (hermitize(spec.apply(R, X)),
                list(spectral.stein_bounds(spec, w.alpha, ks, N, R, X,
                                           float(np.linalg.norm(op.A)))), -1)
    sums, rec = _series_sums(op, X, *_shifted_rows(w, ks), tol, context,
                             _growth(w))
    return sums, rec.tails, rec.J


def _spectral_quotients(w: WeightSequence, ks, gamma: bool, x):
    """``(1 - x)^alpha`` (when ``gamma``) over ``(1 - x)^alpha R_k(x)`` for
    every shift of ``ks``, at the 1-d points ``x``, one row each; None
    when the quadrature declines (``spectral.shifted``)."""
    one = (1.0 - x) ** w.alpha  # principal branch: Re(1 - x) > 0
    values = spectral.shifted(w, ks, x)
    if values is None:
        return None
    return np.concatenate([one[None], one * values[0]]) if gamma \
        else one * values[0]


def _integer_shifts(k, context) -> np.ndarray:
    """The shift or shifts ``k`` as an integer array of their shape; a
    shift that is not an integer (a fraction, NaN or inf) is refused by
    name, never truncated."""
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        bad = ks[~(np.isfinite(ks) & (ks == np.round(ks)))]
        if bad.size:
            raise InvalidParameterError(
                f"{context} needs integer shifts, got k={bad.flat[0]}")
        ks = ks.astype(int)
    return ks


def _hereditary_sums(w: WeightSequence, op: _Operator, X, ks, tol, context,
                     gamma=False) -> np.ndarray:
    """``Gamma[X]`` (when ``gamma``) followed by ``Gamma^(k)[X]`` for every
    shift ``k >= 1`` of ``ks``, as one stack, from the coefficient rows
    kept on the weight (``hereditary_rows``).

    For hardy and integer alpha the ``c`` and quotient rows vanish past
    index alpha: the sums are finite, over the moments
    ``X, L X, .., L^alpha X``.  A custom weight is exact too, with no tail:
    ``1/R = (1 - s z) / P`` and ``R_k / R = P_k / P``, so the sums are the
    finite rows ``1 - s z`` and ``P_k`` (degree below ``N - k``) over the
    moments of ``Y = P(L)^-1 X`` (``_kron_solver``).  With the
    operator's diagonalization (``_route``) they are the spectral route's
    ``(1 - x)^alpha`` and ``(1 - x)^alpha R_k(x)`` at the eigenvalue
    products.  Non-integer alpha past the gate takes the series, over the
    rows read to its cut.  None of them but the series uses ``tol``."""
    ks = _integer_shifts(ks, context)
    if ks.size and ks.min() < 1:
        raise InvalidParameterError(
            f"{context} needs shifts k >= 1, got k={ks.min()}")
    a = _integer_alpha(w)
    A = op.A
    if w.kind == "custom":  # P_k[m] = P[k + m] for m >= 1: no row outlasts P
        P = rational_denominator(w)
        a, X = len(P), _kron_solver(A, P)(np.ravel(X)).reshape(np.shape(X))
    if a is not None:  # finite rows, 0 past index a
        return _contract(hereditary_rows(w, ks, a, gamma),
                         _right_powers(X, A, a + 1, A.conj().T))
    spec = _route(w, op)
    F = None if spec is None else _spectral_quotients(w, ks, gamma,
                                                      spec.upper)
    if F is not None:
        return hermitize(spec.apply(F, X))
    return _series_sums(op, X, lambda n: hereditary_rows(w, ks, n, gamma),
                        w.c_step, tol, context)[0]


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------


def _resolvent_table(w, k, op: _Operator, z, tol, context="resolvents"):
    """``R_k(z_i A)`` for a shift or a sequence of shifts and a point or a
    1-d array of points, of shape ``np.shape(k) + np.shape(z) + (n, n)``,
    together with the series record of the powers at the grid radius
    ``r = max |z_i|``, or None off the series: a closed form (hardy and
    integer alpha, from one batched inverse of ``I - z_i A``), the exact
    sum at ``r = 0`` or ``A = 0``, or the spectral route
    (``V diag(R_k(z_i d)) V^-1`` from one ``spectral.shifted`` call).  On
    the series every shift's row ``1/beta_{k+j}`` (``_shifted_rows``) is
    read to the one cut.
    ``rho(A)`` and the diagonalization are the operator's, made once.  A
    ConvergenceError of the series names ``context``, the caller."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    ks = np.atleast_1d(_integer_shifts(k, context))
    if not ks.size:
        raise InvalidParameterError("resolvents need at least one shift k")
    if ks.min() < 0:
        raise InvalidParameterError(f"shift k={ks.min()} must be >= 0")
    if not np.isfinite(zs).all():
        raise InvalidParameterError("resolvent points must be finite")
    spec = _route(w, op)
    A, n, rho = op.A, op.n, op.spectral_radius
    r = float(np.max(np.abs(zs))) if zs.size else 0.0
    if r * rho >= 1.0:
        raise DivergenceError(
            f"|z| * rho(A) = {r * rho:.6f} >= 1: series diverges")
    if r >= 1.0:
        raise InvalidParameterError(
            "resolvent points must be finite and lie in |z| < 1")
    shape = np.shape(k) + np.shape(z) + (n, n)
    a = _integer_alpha(w)
    if a is not None:
        inv = np.linalg.inv(np.eye(n) - zs[:, None, None] * A)
        return _binomial_sum(ks, a, inv,
                             lambda P: P @ inv).reshape(shape), None
    if r == 0.0 or not A.any():
        return (w._entries(ks)[1][:, None, None, None]
                * np.eye(n, dtype=complex)
                * np.ones((len(zs), 1, 1))).reshape(shape), None
    values = None if spec is None else spectral.shifted(
        w, ks, np.outer(zs, spec.d).ravel())
    if values is not None:  # V diag(R_k(z_i d)) V^-1
        F = values[0].reshape(len(ks), len(zs), 1, n)
        return ((spec.V * F) @ spec.W).reshape(shape), None
    # |z_i / r|^j <= 1, so the tail bound of the powers (rA)^j bounds the
    # tail at every point of the grid
    rows, steps = _shifted_rows(w, ks)
    s = _growth(w)
    rec = series.adaptive_sum(np.eye(n, dtype=complex), r * A, rows,
                              series.decay_rate(rho, r, s), steps, tol,
                              context, diverges=_divergence(
                                  s, r * rho, "s |z| rho(A)", context))
    coef = (zs[:, None] / r) ** np.arange(rec.J + 1) * rec.rows[:, None]
    S = np.tensordot(coef, rec.terms, axes=(2, 0))
    return S.reshape(shape), rec


def resolvents(w: WeightSequence, k, A, zs,
               tol: float = 1e-12) -> np.ndarray:
    """``R_k(z_i A)`` at a point or a 1-d array of points, of shape
    ``np.shape(k) + np.shape(zs) + (n, n)``: ``k`` is one shift or a
    sequence of shifts, and ``A`` a matrix or an OutputPair.  A pair's
    spectral radius and diagonalization are reused, and a matrix's are made
    once (the evaluators of kernels, transfer families and the model pass
    the pair, so they eigen-solve nothing its gramian table did not).

    Hardy and integer alpha are closed form,
    ``R_k(zA) = sum_{r<alpha} C(k + r - 1, r) (I - zA)^(r - alpha)``, from
    one batched inverse of ``I - z_i A`` and its powers.  Non-integer
    alpha takes the spectral route when ``A`` passes its gate,
    ``V diag(R_k(z_i d)) V^-1`` with ``R_k`` by quadrature at the ``n``
    points ``z_i d`` of every ``z_i``.  Neither uses ``tol``.  Every other
    case (custom weights; ``A`` past the gate, or points past the
    quadrature's ladder) sums one table of powers ``(rA)^j`` at the grid
    radius ``r = max |z_i|`` for every shift and point, cut once with
    tail <= tol at every shift and every point.

    Requires finite points in the open unit disk, ``r * rho(A) < 1`` (a
    DivergenceError names it first), ``s r rho(A) < 1`` for a custom
    weight of last ratio ``s`` (DivergenceError too) and integer shifts
    ``k >= 0`` (a fraction is refused, never truncated).  The series
    raises ConvergenceError when no cut within its term budget brings the
    tail bound below ``tol``.  ``tol`` must be finite and ``>= 0``; at 0
    only an exact sum (a closed form, the spectral route, a vanishing tail)
    is returned.
    """
    _check_tol(tol)
    return _resolvent_table(w, k, _operator(A), zs, tol)[0]


def resolvent_apply(w: WeightSequence, k: int, A, z: complex,
                    tol: float = 1e-12) -> np.ndarray:
    """Evaluate ``R_k(zA) = sum_j (1/beta_{k+j}) z^j A^j`` at one point: the
    one-point grid of ``resolvents``, so closed form for hardy and integer
    alpha, the spectral route for non-integer alpha within its gate, and
    otherwise a series with tail <= tol.  ``A`` is a matrix or an
    OutputPair, as for ``resolvents``.

    Requires ``|z| < 1`` and ``|z| * rho(A) < 1``, and ``s |z| rho(A) < 1``
    for a custom weight of last ratio ``s``.  On the series, raises
    ConvergenceError when no cut within its term budget brings the tail
    bound below ``tol``, which must be finite and ``>= 0`` (0 as for
    ``resolvents``).
    """
    _check_tol(tol)
    return _resolvent_table(w, k, _operator(A), complex(z), tol,
                            "resolvent_apply")[0]


def resolvent_scalar(w: WeightSequence, k: int, x, tol: float = 1e-12):
    """Scalar ``R_k(x) = sum_j x^j / beta_{k+j}`` vectorized over ``x``.

    Used for the space kernel ``K(z, zeta) = R(z * conj(zeta))``.  Requires
    an integer ``k >= 0`` and finite points with ``|x| < 1``.  Hardy and integer alpha
    are closed form, ``sum_{r<alpha} C(k + r - 1, r) (1 - x)^(r - alpha)``;
    non-integer alpha is ``spectral.shifted`` at the points, with no gate.
    Custom weights, and points past the quadrature's ladder, sum the series
    with tail <= tol, or raise ConvergenceError when no cut within its term
    budget reaches ``tol``.  ``tol`` must be finite and ``>= 0``; at 0 the
    series returns only a vanishing tail.
    """
    _check_tol(tol)
    k = int(_integer_shifts(k, "resolvent_scalar"))
    if k < 0:
        raise InvalidParameterError(f"shift k={k} must be >= 0")
    xs = np.asarray(x, dtype=complex)
    if not np.isfinite(xs).all() or np.any(np.abs(xs) >= 1.0):
        raise InvalidParameterError(
            "scalar resolvent points must be finite and lie in |x| < 1")
    a = _integer_alpha(w)
    if a is not None:
        inv = 1.0 / (1.0 - xs)
        return _binomial_sum([k], a, inv, lambda P: P * inv)[0]
    if w.kind == "beta_alpha":  # non-integer alpha: the spectral route
        values = spectral.shifted(w, [k], xs.ravel())
        if values is not None:
            return values[0][0].reshape(xs.shape)[()]
    q = float(np.max(np.abs(xs), initial=0.0))
    # |x^j| <= q^j exactly, so the transient constant is 1
    rows, steps = _shifted_rows(w, [k])
    inv_b = rows(0) if q == 0.0 else series.cut(
        rows, steps, q, 1.0, tol, "resolvent_scalar")[1]
    # Horner evaluation of the truncation
    return np.polyval(inv_b[0, ::-1], xs)


# ---------------------------------------------------------------------------
# gramians and observability
# ---------------------------------------------------------------------------

def _gramian_rows(w, ks, pair, tol, context):
    if min(ks, default=-1) < 0:
        raise InvalidParameterError(f"{context} needs shifts >= 0, got "
                                    + (f"k={min(ks)}" if ks else "k_max < 0"))
    if pair.spectral_radius > RHO_MAX:
        raise SpectralRadiusError(
            f"rho(A) = {pair.spectral_radius:.4f} > {RHO_MAX}: gramian series "
            "not summable at desk scale")
    return _stein_sums(w, pair, pair.CstarC, ks, tol, context)


def gramian(w: WeightSequence, k: int, pair: OutputPair,
            tol: float = 1e-10) -> np.ndarray:
    """Shifted observability gramian ``G^(k)``: a Stein solve for hardy and
    integer alpha, the spectral route for non-integer alpha (``A`` within
    its gate), otherwise a series with tail bound <= tol (finite and
    ``>= 0``; at 0 the series raises ConvergenceError unless its tail
    vanishes).  A custom weight of last ratio ``s`` needs
    ``s rho(A)^2 < 1``; DivergenceError names the product otherwise."""
    _check_tol(tol)
    return _gramian_rows(w, [k], pair, tol, "gramian")[0][0]


def gramian_table(w: WeightSequence, pair: OutputPair, k_max: int,
                  tol: float = 1e-10) -> GramianTable:
    """All shifted gramians ``G^(k)``, ``k = 0..k_max``, from one Stein
    inverse (hardy and integer alpha), one diagonalization (non-integer
    alpha, ``A`` within the spectral route's gate) or one shared series;
    ``tol`` as for ``gramian``."""
    _check_tol(tol)
    ks = list(range(k_max + 1))
    entries, tails, J = _gramian_rows(w, ks, pair, tol, "gramian_table")
    return GramianTable(entries=entries, tail_bounds=dict(zip(ks, tails)),
                        trunc_order=J)


def _right_powers(X: np.ndarray, A: np.ndarray, m: int,
                  left: np.ndarray | None = None) -> np.ndarray:
    """``X A^j`` for ``j = 0..m-1`` as one ``(m,) + X.shape`` array, by
    repeated right multiplication; with ``left = A*`` the conjugation
    moments ``A^{*j} X A^j``, each ``(A* T) A`` of the one before."""
    out = np.empty((max(m, 0),) + np.shape(X), dtype=complex)
    if m > 0:
        out[0] = X
    for j in range(1, m):
        T = out[j - 1] if left is None else left @ out[j - 1]
        np.matmul(T, A, out=out[j])
    return out


def observability_coeffs(w: WeightSequence, k: int, pair: OutputPair,
                         J: int) -> np.ndarray:
    """Taylor coefficients ``(1/beta_{j+k}) C A^j`` of the shifted
    observability map, for ``j = 0..J``, as one ``(J + 1, p, n)`` array."""
    if k < 0 or J < 0:
        raise InvalidParameterError(
            f"shift k={k} and length J={J} must be >= 0")
    return w._entries(np.arange(k, k + J + 1))[1][:, None, None] \
        * _right_powers(pair.C, pair.A, J + 1)


# ---------------------------------------------------------------------------
# hereditary maps
# ---------------------------------------------------------------------------

def _like_A(op: _Operator, X) -> np.ndarray:
    """``X`` as a complex array, refused unless it has ``A``'s shape."""
    X = np.asarray(X, dtype=complex)
    if X.shape != op.A.shape:
        raise InvalidParameterError(
            f"X has shape {X.shape}, expected {op.A.shape} like A")
    return X


def _check_domain(w: WeightSequence, A, X, tol,
                  refusal=None) -> _Operator:
    """The operator of ``A`` (a matrix or a pair, through ``_operator``)
    once ``X`` is in the domain of the hereditary calculus:
    ``X >= A* X A >= 0``, from one eigen-solve of ``X`` and ``X - A* X A``,
    and a summable reciprocal series (``_check_summable``).  An ``X`` not
    of ``A``'s shape is refused, a non-finite ``A`` or ``X`` before the
    product, and ``X - A* X A`` when it overflows; every test fails on
    NaN.  ``refusal``, when given, makes the error for an ``X - A* X A``
    that is not PSD from its least scaled eigenvalue, in place of
    HereditaryDomainError (the model's contraction test, ``X = I``)."""
    op = _operator(A)
    X = _like_A(op, X)
    A = op.A
    if not np.isfinite(A).all():
        raise HereditaryDomainError("A must be finite")
    if not np.isfinite(X).all():
        raise HereditaryDomainError(
            "X must be positive semidefinite: it has a non-finite entry")
    with np.errstate(over="ignore", invalid="ignore"):
        X = hermitize(X)
        D = X - A.conj().T @ X @ A
    if not np.isfinite(D).all():
        raise HereditaryDomainError("X - A* X A must be finite: it overflows")
    lam = eigh(np.stack((X, D)), vectors=False)
    # the operator norm of the Hermitian X, floored at 1
    scale = max(-lam[0, 0], lam[0, -1], 1.0)
    if not lam[0, 0] >= -tol * scale:
        raise HereditaryDomainError("X must be positive semidefinite")
    if not lam[1, 0] >= -tol * scale:
        raise HereditaryDomainError("X - A* X A must be positive semidefinite") \
            if refusal is None else refusal(lam[1, 0] / scale)
    _check_summable(w)
    return op


def _check_summable(w: WeightSequence):
    """The hereditary maps need a reciprocal coefficient table whose
    summability check did not come back "diverging"."""
    if w.wiener.verdict == "diverging":
        raise HereditaryDomainError(
            "reciprocal coefficients diverge: hereditary map undefined")


def gamma_map(w: WeightSequence, A, X, tol: float = 1e-10) -> np.ndarray:
    """Hereditary map ``Gamma[X] = sum_j c_j A^{*j} X A^j``: a finite sum
    for hardy and integer alpha, ``(1 - s L) P(L)^-1 X`` for a custom
    weight, the spectral route or the series (with tail <= tol) for
    non-integer alpha.

    ``A`` is a matrix or an OutputPair, whose cached diagonalization is
    reused.  Requires the domain condition ``X >= A* X A >= 0`` up to
    ``tol`` (finite and ``>= 0``; 0 asks for it exactly, and for an exact
    series) and a reciprocal coefficient table whose summability check did
    not come back "diverging".
    """
    _check_tol(tol)
    op = _check_domain(w, A, X, tol)
    return _hereditary_sums(w, op, X, np.arange(0), tol, "gamma_map",
                            gamma=True)[0]


def gamma_k_map(w: WeightSequence, k, A, X,
                tol: float = 1e-10) -> np.ndarray:
    """Shifted hereditary map ``(R_k / R)(L)[X]``, built from the
    quotient-series coefficients, for one integer shift ``k`` or a
    sequence of integer shifts ``k >= 1``: then a ``(len(k), n, n)`` stack
    from one evaluation on the weight's route (``_hereditary_sums``), as
    ``classify`` does; on the series every shift's row is cut at one
    index.  ``A`` and ``tol`` as for ``gamma_map``."""
    _check_tol(tol)
    if not np.size(k):
        raise InvalidParameterError("gamma_k_map needs at least one shift k")
    op = _check_domain(w, A, X, tol)
    if np.ndim(k) == 0 and k == 0:
        return hermitize(np.asarray(X, dtype=complex))
    sums = _hereditary_sums(w, op, X, np.atleast_1d(k), tol, "gamma_k_map")
    return sums if np.ndim(k) else sums[0]


def gamma_binomial(m: int, A, X) -> np.ndarray:
    """Finite binomial defect map ``sum_j (-1)^j binom(m, j) A^{*j} X A^j``
    for ``m >= 0``; ``A`` is a matrix or an OutputPair, and ``X`` a finite
    matrix of its shape.  A negative ``m`` and a non-finite ``A`` or ``X``
    are refused before any product."""
    if m < 0:
        raise InvalidParameterError(f"gamma_binomial needs m >= 0, got m={m}")
    op = _operator(A)
    X, A = _like_A(op, X), op.A
    if not (np.isfinite(A).all() and np.isfinite(X).all()):
        raise InvalidParameterError("gamma_binomial needs a finite A and X")
    return hermitize(sum((-1) ** j * math.comb(m, j) * M for j, M in
                         enumerate(_right_powers(X, A, m + 1, A.conj().T))))


def stein_residual(w: WeightSequence, k: int, pair: OutputPair,
                   G_k, G_k1) -> float:
    """Operator-norm residual of ``A* G^(k+1) A + (1/beta_k) C* C = G^(k)``;
    a negative shift ``k`` is refused."""
    if k < 0:
        raise InvalidParameterError(
            f"stein_residual needs a shift k >= 0, got k={k}")
    A = pair.A
    lhs = A.conj().T @ np.asarray(G_k1, dtype=complex) @ A \
        + w._entries(k)[1] * pair.CstarC
    return opnorm(lhs - np.asarray(G_k, dtype=complex))


def _gramian_remainders(w: WeightSequence, table: GramianTable, CA,
                        ks) -> np.ndarray:
    """``||G^(k) - sum_{l<J} A^{*l} C* C A^l / beta_{k+l}|| + tail_bounds[k]``
    for every shift of ``ks``, from the ``J`` products ``CA = C A^l``
    (``_right_powers``): a bound on the part of ``G^(k)`` past a Taylor cut
    at ``J`` terms."""
    ks = np.asarray(ks)
    moments = CA.conj().swapaxes(-1, -2) @ CA
    cut = np.tensordot(w._entries(ks[:, None] + np.arange(len(CA)))[1],
                       moments, axes=(1, 0))
    return opnorm(table.entries[ks] - cut) \
        + [table.tail_bounds[k] for k in ks]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _psd_defects(Ms) -> np.ndarray:
    """Most negative scaled eigenvalue of the Hermitian part of each matrix
    of a stack; >= 0 means PSD to working precision.  The scale is
    ``max(|lambda_min|, |lambda_max|, 1)``, the operator norm floored at 1;
    NaN for a matrix with a non-finite entry."""
    return _scaled_min(eigh(Ms, vectors=False))


def _scaled_min(lam) -> np.ndarray:
    """``_psd_defects`` of the matrices with the ascending eigenvalues
    ``lam`` (``eigh``)."""
    lo, hi = lam[..., 0], lam[..., -1]
    return lo / np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)


def classify(w: WeightSequence, pair: OutputPair, k_max: int = 20,
             tol: float = 1e-8) -> ClassificationReport:
    """Tolerance-qualified classification of an output pair.

    Checks, with every verdict accompanied by its numeric residual: operator
    contractivity, positivity of the hereditary maps of the identity, the
    contractive / isometric pair conditions, exact observability of the
    gramian, and weighted strong stability.

    The hypercontraction hypothesis, ``Gamma^(k)[I] >= 0`` for every
    ``k >= 0`` with ``A`` a contraction, is decided by one rule per weight
    kind where one is proven (``_rule_depth``), and ``certified_all_k``
    says that the rule holds:

    * hardy, integer ``alpha`` and ``1 < alpha < 2``: a contraction with
      ``Gamma[I] >= 0``.  For hardy ``R_k = R``, so every ``Gamma^(k)[I]``
      is ``I``; for integer ``alpha`` it is Agler's theorem on
      m-hypercontractions; for ``1 < alpha < 2`` Euler's transformation
      gives ``Gamma^(k)[I] = ((alpha)_k / k!) k int_0^1 t^(k-1) F(t) dt``
      with ``F(t) = (1 - tL)^(alpha-1)[I] = I - sum_j a_j t^j A^{*j} A^j``,
      every ``a_j >= 0`` and ``sum a_j = 1``, so a contraction has
      ``F(t) >= 0`` on ``[0, 1]``;
    * a custom weight: a contraction with ``Gamma^(0..d)[I] >= 0``,
      ``d = deg P``, once ``k_max >= d``; past ``d`` the quotient
      ``P_k = (1 - s z) R_k`` is the constant ``1/beta_k``, so
      ``Gamma^(k)[I] = P(L)^-1[I] / beta_k`` is ``Gamma^(d)[I]`` scaled;
    * non-integer ``alpha > 2`` has no rule: ``F(t)`` has coefficients of
      both signs, and that contraction with ``Gamma[I] >= 0`` gives
      ``F(t) >= 0`` is supported by random and boundary draws but not
      proven.  The verdict is read on the stack ``Gamma^(1..k_max)[I]``,
      and ``certified_all_k`` is False.

    The rule's residual is ``hypercontraction_certificate_min_eig``, the
    least scaled eigenvalue of ``Gamma^(0..d)[I]``; the contraction is
    the ``operator_norm_excess`` test.
    ``gamma_shifted_min_eig`` is read on the stack to ``k_max`` for every
    weight.

    Weighted strong stability is decided, not measured: it holds exactly
    when the rate ``s rho(A)^2`` is below 1 (``_stability_rate``).  So
    every pair that ``classify`` answers on hardy or ``beta_alpha`` is
    strongly stable, at any ``k_max``; a custom weight reads False from
    ``rho(A) >= 1/sqrt(s)`` on.  ``beta_strong_stability`` is the term
    ``||A^{*k} Gamma^(k)[I] A^k||`` at ``k = k_max``, recorded, not tested.

    The spectral radius is restricted to 0.999, and a weight whose
    reciprocal series is "diverging" is refused (as ``gamma_map`` does).
    ``k_max >= 1``; ``tol`` is finite and ``>= 0`` (0 asks for exact
    verdicts, and the series at ``0.1 tol`` for an exact sum).
    """
    _check_tol(tol)
    _check_k_max(k_max, 1, "classify")
    if pair.spectral_radius > RHO_MAX:
        raise SpectralRadiusError(
            f"rho(A) = {pair.spectral_radius:.4f} > {RHO_MAX}: classification "
            "needs a series-summable gramian")
    _check_summable(w)
    sums = _hereditary_sums(w, pair, np.eye(pair.n), range(1, k_max + 1),
                            tol * 0.1, "classify", gamma=True)
    return _classification(w, pair, sums,
                           gramian_table(w, pair, 0, tol=tol * 0.1), tol)


def _stability_rate(w: WeightSequence, op: _Operator) -> float:
    """The rate ``s rho(A)^2``: weighted strong stability,
    ``A^{*k} Gamma^(k)[I] A^k -> 0``, holds exactly when it is below 1.
    ``s = lim beta_k / beta_{k+1}`` and ``rho(A)`` is the operator's
    spectral radius, made once.  For hardy and ``beta_alpha`` ``s = 1``:
    ``||Gamma^(k)[I]||`` grows at most polynomially in ``k``, so the term
    falls like ``rho(A)^(2k)`` up to a polynomial.  A custom weight has
    ``s = last_ratio``: past its table ``Gamma^(k)[I] = (1/beta_k)
    P(L)^-1[I]`` and ``1/beta_k`` grows like ``s^k``."""
    return _growth(w) * op.spectral_radius ** 2


def _rule_depth(w: WeightSequence) -> int | None:
    """The depth ``d`` at which the contraction test and the stack
    ``Gamma[I], Gamma^(1..d)[I]`` decide ``Gamma^(k)[I] >= 0`` for every
    ``k`` (``classify`` gives the rules): 0 for hardy, integer ``alpha``
    and ``1 < alpha < 2``, ``deg P`` for a custom weight, and None for
    non-integer ``alpha > 2``, which has no proven rule."""
    if w.kind == "custom":
        return len(rational_denominator(w)) - 1
    return 0 if _integer_alpha(w) or w.alpha < 2 else None


def _classification(w: WeightSequence, pair: OutputPair, sums,
                    table: GramianTable, tol: float) -> ClassificationReport:
    """``classify``'s report from the stack ``Gamma[I], Gamma^(1..k)[I]``
    of ``pair.A`` and a gramian table of ``pair`` holding ``G^(0)``.
    ``k_checked`` is the stack's depth ``k``.  All its eigenvalues come
    from one ``eigh`` and all its norms from one ``opnorm`` of a stack.

    The hypercontraction verdict is the weight's rule
    (``_rule_depth``) when the stack reaches its depth, and the stack
    read to ``k`` otherwise.  Weighted strong stability is decided by
    its rate (``_stability_rate``), the residual
    ``strong_stability_rate``; ``beta_strong_stability`` is the term's
    norm at depth ``k``, from the stack's last entry, for the record."""
    A = pair.A
    k_max = len(sums) - 1
    Ak = np.linalg.matrix_power(A, k_max)
    term = Ak.conj().T @ sums[-1] @ Ak
    gamma_I = sums[0]
    pair_defect = gamma_I - pair.CstarC
    depth = _rule_depth(w)
    ruled = depth is not None and depth <= k_max
    lam = eigh(np.stack([*sums, pair_defect, table[0]]), vectors=False)
    defects = _scaled_min(lam)
    opA, isom_res, gamma_norm, stab_res = map(float, opnorm(np.stack(
        [A, pair_defect, gamma_I, term])))
    contraction = opA <= 1.0 + tol

    gamma_min = float(defects[0])
    gamma_k_min = float(defects[1:k_max + 1].min())
    # the rule's matrices Gamma^(0..d)[I], with the contraction test, or
    # the whole stack; np.min keeps a NaN, and `>=` fails on it
    hyper_min = float(defects[:(depth if ruled else k_max) + 1].min())
    hypercontraction = contraction and hyper_min >= -tol

    pair_min = float(defects[k_max + 1])
    contractive_pair = hypercontraction and pair_min >= -tol
    isometric_pair = hypercontraction and isom_res <= tol * max(gamma_norm, 1.0)

    gram_eigs = lam[k_max + 2]
    exactly_observable = bool(gram_eigs[0] > tol * max(gram_eigs[-1], 1.0))

    rate = _stability_rate(w, pair)

    residuals = {
        "operator_norm_excess": opA - 1.0,
        "gamma_identity_min_eig": gamma_min,
        "gamma_shifted_min_eig": gamma_k_min,
        "pair_defect_min_eig": pair_min,
        "isometry_residual": isom_res,
        "gramian_min_eig": float(gram_eigs[0]),
        "gramian_tail_bound": table.tail_bounds[0],
        "beta_strong_stability": stab_res,
        "strong_stability_rate": rate,
    }
    if ruled:
        residuals["hypercontraction_certificate_min_eig"] = hyper_min

    return ClassificationReport(
        contractive_pair=contractive_pair,
        isometric_pair=isometric_pair,
        hypercontraction=hypercontraction,
        strongly_stable_beta=rate < 1.0,
        exactly_observable=exactly_observable,
        residuals=residuals,
        k_checked=k_max,
        certified_all_k=ruled and hypercontraction,
    )


def delta_limit(w: WeightSequence, A, H, k_max: int = 20,
                tol: float = 1e-8) -> DeltaReport:
    """Limit ``Delta`` of the decreasing sequence
    ``D_k = A^{*k} Gamma^(k)[H] A^k``.

    Requires ``H`` to satisfy the domain and shifted-positivity conditions up
    to ``tol``, and a weight whose reciprocal series is not "diverging" (as
    ``gamma_map`` does).  Returns ``D_{k_max}``, the recorded term, together
    with a monotone-decrease certificate (worst eigenvalue of the
    decrements, which must be PSD) and the residual of the summation
    identity ``sum_j (1/beta_j) A^{*j} Gamma[H] A^j = H - Delta``.

    The limit is decided by the rate of ``classify`` (``_stability_rate``):
    for ``s rho(A)^2 < 1`` ``Gamma^(k)[H]`` grows at most like ``s^k``
    times a polynomial, so ``Delta = 0``, ``converged`` is True and the
    identity is checked against ``H``; ``delta`` stays the term
    ``D_{k_max}``, not the limit.  The identity's sum is the weight's
    route (``_stein_sums``) for hardy and ``beta_alpha``, and for a custom
    weight ``R(L) = P(L) (1 - s L)^-1`` exactly, from one solve.  At a
    rate of 1 or more the limit is measured: ``converged`` when
    ``||D_{k_max} - D_{k_max - 1}||`` is within ``tol`` of the scale of
    ``H``, and the identity is checked against ``H - D_{k_max}``, on the
    weight's route, when it has converged and ``rho(A) < 1`` (past it no
    rate certifies the series); None otherwise.  ``A`` is a matrix or an
    OutputPair, ``k_max >= 1``, and ``tol`` finite and ``>= 0`` (0 as for
    ``gamma_map``).
    """
    _check_tol(tol)
    _check_k_max(k_max, 1, "delta_limit")
    op = _check_domain(w, A, H, tol)
    H = hermitize(np.asarray(H, dtype=complex))
    scale = max(opnorm(H), 1.0)

    sums = _hereditary_sums(w, op, H, range(1, k_max + 2), tol * 0.1,
                            "delta_limit", gamma=True)
    gamma_H = sums[0]
    bad = np.flatnonzero(~(_psd_defects(sums[1:]) >= -tol))  # NaN fails
    if bad.size:
        raise HereditaryDomainError(
            f"shifted hereditary map of H not PSD at k={bad[0] + 1}")

    # D_0 = Gamma^(0)[H] = H
    P = _right_powers(np.eye(op.n), op.A, k_max + 2)[1:]
    D = np.concatenate([H[None], hermitize(
        P.conj().swapaxes(-1, -2) @ sums[1:] @ P)])
    # one stacked call; np.min keeps a NaN, and `not >=` fails on it
    mono = float(np.min(min_eig(D[:-1] - D[1:]))) / scale
    if not mono >= -10 * tol:
        raise HereditaryDomainError(
            f"monotone decrease violated: worst decrement eigenvalue {mono:.3e}")

    delta = D[k_max]
    # the rate decides the limit 0; at a rate of 1 or more it is measured
    decided = _stability_rate(w, op) < 1.0
    converged = decided or opnorm(D[k_max] - D[k_max - 1]) <= tol * scale

    residual = None
    if converged and op.spectral_radius < 1.0 \
            and _psd_defects(gamma_H) >= -tol:
        if decided and w.kind == "custom":
            # R = P / (1 - s z), so R(L) = P(L) (1 - s L)^-1 exactly: the
            # series' tail at the rate may not meet tol before 1/beta_j
            # overflows
            den = rational_denominator(w)
            Y = _kron_solver(op.A, [1.0, -w.last_ratio])(np.ravel(gamma_H))
            total = _contract(den[None], _right_powers(
                Y.reshape(gamma_H.shape), op.A, len(den), op.A.conj().T))[0]
        else:
            total = _stein_sums(w, op, gamma_H, [0], tol * 0.1,
                                "delta_limit sum identity")[0][0]
        residual = opnorm(total - (H if decided else H - delta))

    return DeltaReport(delta=delta, converged=converged,
                       monotone_min_eig=mono,
                       sum_identity_residual=residual)
