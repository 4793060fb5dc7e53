"""Truncation and tail bounds of the package's weighted power series.

This is the fallback engine of ``hereditary.py``: the gramians,
resolvents and scalars of custom weights, and ``beta_alpha`` with
non-integer ``alpha`` when ``A`` fails the spectral route's gate or its
node count passes the ladder (``spectral.py``).  Hardy and integer alpha
are closed form, and the hereditary maps of a custom weight take its
rational form; neither reaches it.

Every series summed here is ``sum_j row_i[j] T_j``: scalar coefficient rows
(reciprocal weights, reciprocal-series or quotient-series coefficients)
against matrix terms ``T_{j+1} = L T_j R``, the powers ``(zA)^j`` of the
resolvents (``T_0 = I``, ``R = zA``, no ``L``) or the conjugations
``A^{*j} X A^j`` of the gramians and hereditary maps (``T_0 = X``,
``L = A^*``, ``R = A``).  The caller's decay rate ``q`` (``decay_rate``,
``conjugation_rate``) is certified before anything is summed: ``L`` and
``R`` are squared until ``||L^m||_F ||R^m||_F <= q^m`` for some
``m = 2^i`` (no ``L`` counts 1), and since ``T_{tm+s} = L^{tm} T_s R^{tm}``
every term then obeys ``||T_j||_F <= K q^j`` with the transient constant
``K = max_{s<m} ||T_s||_F / q^s``.  The cut ``J`` is fixed once, the
first ``j >= 4`` with ``K * max_i tail_i(j) <= tol``;
ConvergenceError is raised when the stored table holds none, or when
``m`` would pass the first power of two past the table, so the terms
never take twice the table.  A term with every entry 0 in the span ends
a finite sum, with tail 0.  A table with no cut even for ``||T_0|| <= K``
is refused before any term is made, unless ``det(A) = 0``: a zero term
past ``T_0`` needs a singular ``A``, and comes by ``T_n`` (the ranges of
``A^j`` settle by ``j = n``), so the span then reaches past
``T_min(n, cap)`` before the cut refuses the sum.  Past the stored table
a row's tail is geometric in the step bound the weight proves for it
(``RowTails``); nothing is extrapolated here.  At ``q >= 1`` (a
hereditary map at ``rho(A) >= 1``) that bound is ``inf``, as the ``c`` row
of a non-integer alpha steps by 1, and the sum is refused with the rate
named.

Terms are made one product at a time, ``T_{j+1} = (L T_j) R``; the
squares serve the certificate only.  Past the first ``m`` terms only those
up to ``J`` are made, with no norms.  Callers sum the returned terms in
their own order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: no cut comes before this term index
_MIN_J = 4


def decay_rate(rho: float, scale: float = 1.0) -> float:
    """Decay rate ``q`` of the powers ``(scale A)^j`` when ``rho(A) = rho``."""
    return scale * 0.5 * (1.0 + rho)


def conjugation_rate(rho: float) -> float:
    """Decay rate of the conjugations ``A^{*j} X A^j``: the square of
    ``decay_rate``.  At ``rho >= 1`` the hereditary domain condition
    ``X >= A* X A`` still keeps them bounded, so the rate is 1."""
    return decay_rate(rho) ** 2 if rho < 1.0 else 1.0


class RowTails:
    """Coefficient tails of several rows at one decay rate ``q``.

    ``cap`` is the last index stored in every row, and ``steps`` bounds
    ``|row_i[j+1] / row_i[j]|`` for ``j >= cap`` (one per row, or one for
    all).  For a cut ``J <= cap``, ``tails[i, J]`` bounds
    ``sum_{j > J} |row_i[j]| q^j``: the stored suffix sum plus
    ``|row_i[cap]| q^cap s q / (1 - s q)`` (``inf`` when ``s q >= 1``).
    ``K * worst[J]`` bounds every row's tail at once.
    """

    def __init__(self, rows, q: float, steps):
        self.cap = cap = min(len(r) for r in rows) - 1
        self.q = q
        damped = np.array([r[:cap + 1] for r in rows], dtype=float)
        # in place: a fresh temporary this size costs more in page faults
        np.multiply(np.abs(damped, out=damped),
                    np.power(q, np.arange(cap + 1)), out=damped)
        self.steps = np.broadcast_to(np.asarray(steps, dtype=float),
                                     len(damped))
        sq = self.steps * q
        qcap = np.power(q, cap)
        last = np.abs([r[cap] for r in rows]) * qcap
        ok = sq < 1.0
        beyond = np.full(len(damped), np.inf)
        beyond[ok] = last[ok] * sq[ok] / (1.0 - sq[ok])
        beyond[last == 0.0] = 0.0
        #: the rows whose tail past the table no geometric step bounds
        self.unbounded = beyond == np.inf
        # the stored suffix sums past J, 0 at J = cap
        self.tails = tails = np.empty((len(damped), cap + 1))
        tails[:, cap] = beyond
        if cap:
            np.cumsum(damped[:, :0:-1], axis=1, out=tails[:, cap - 1::-1])
            tails[:, :cap] += beyond[:, None]
        self.worst = tails.max(axis=0)

    def check(self, K: float, J: int, tol: float, context: str):
        """Raise ConvergenceError, naming ``context``, unless
        ``K * worst[J] <= tol``, with the bound 0 at ``K = 0`` (no term).
        An infinite bound names its cause: at ``q >= 1`` the rate, which no
        table length makes bound a tail, and at ``q < 1`` the largest step
        past the table whose product with ``q`` is at least 1 (a custom
        weight keeps its last ratio there, so no longer table lowers it).
        Only a finite bound is told to increase the weight truncation."""
        bound = K * self.worst[J] if K else 0.0
        if bound == np.inf and self.q >= 1.0:
            raise ConvergenceError(
                f"{context}: tail bound inf > tol {tol:.3e}: the decay rate "
                f"q = {self.q:.6g} >= 1 bounds no tail, whatever the weight "
                "truncation")
        if bound == np.inf and self.unbounded.any():
            s = float(self.steps[self.unbounded].max())
            raise ConvergenceError(
                f"{context}: tail bound inf > tol {tol:.3e} after {J + 1} "
                f"stored terms: a row's step bound past the table, {s:.6g}, "
                f"times the decay rate q = {self.q:.6g} is "
                f"{s * self.q:.6g} >= 1")
        if not bound <= tol:
            raise ConvergenceError(
                f"{context}: tail bound {bound:.3e} > tol "
                f"{tol:.3e} after {J + 1} stored terms; increase the weight "
                "truncation")

    def cut(self, K: float, tol: float, context: str) -> int:
        """The first ``J >= 4`` with ``K * worst[J] <= tol`` for a certified
        constant ``K``; ``cap`` when none is and the bound there holds."""
        hit = np.flatnonzero(K * self.worst[_MIN_J:] <= tol)
        J = _MIN_J + int(hit[0]) if hit.size else self.cap
        self.check(K, J, tol, context)
        return J


@dataclass
class SeriesRecord:
    """One truncated series: the stored terms ``T_0..T_J`` as one
    ``(J + 1, n, n)`` array, the cut ``J``, the certified transient
    constant ``K`` and, per row, the tail bound ``K * RowTails.tails[i, J]``
    past ``J``."""

    terms: np.ndarray
    J: int
    K: float
    tails: list


def _fro(M: np.ndarray) -> float:
    return math.sqrt(np.vdot(M, M).real)


def _extend(terms: np.ndarray, s: int, e: int, L, R):
    """Make ``T_s..T_{e-1}`` in place, ``T_{j+1} = (L T_j) R`` one product
    at a time (no left factor when ``L`` is None)."""
    for j in range(s, e):
        T = terms[j - 1]
        terms[j] = (T if L is None else L @ T) @ R


def adaptive_sum(first: np.ndarray, right: np.ndarray, rows, q: float,
                 steps, tol: float, context: str,
                 left: np.ndarray | None = None) -> SeriesRecord:
    """Generate ``T_0 = first``, ``T_{j+1} = left @ T_j @ right`` (no left
    factor when ``left`` is None) up to the first cut where every row's
    tail bound is at most ``tol``; ``steps`` bound the rows past the table
    (RowTails).

    The matrices must be complex.  The decay rate ``q`` is certified on
    the squares of ``left`` and ``right`` before the cut is chosen (see the
    module docstring).  Raises ConvergenceError, naming ``context``, when
    no span up to the first power of two past the table certifies ``q``
    or the shortest row runs out before the bound holds.
    """
    tails = RowTails(rows, q, steps)
    cap, n = tails.cap, first.shape[0]
    size = 1 << cap.bit_length()  # the first power of two past the table
    try:
        tails.check(_fro(first), cap, tol, context)  # K >= ||T_0||
        zero = 0
    except ConvergenceError:
        # unless the sum is finite: a term with every entry 0 comes by T_n,
        # and past T_0 only for a singular A
        if np.linalg.det(right) != 0.0:
            raise
        zero = min(n, cap)
    terms = np.empty((size, n, n), dtype=complex)
    terms[0] = first
    L, R, m = left, right, 1  # T_0..T_{m-1} are made; L^m and R^m
    while m <= zero or _fro(R) * (1.0 if L is None else _fro(L)) > q ** m:
        if m == size:
            raise ConvergenceError(f"{context}: decay rate q = {q:.6g} is "
                                   f"not certified by ||A^{m}|| within "
                                   f"{cap + 1} stored terms")
        _extend(terms, m, 2 * m, left, right)
        L, R = (None if L is None else L @ L), R @ R
        m *= 2
    # T_{j+1} = L T_j R, so past a term whose entries are all 0 every term is
    live = terms[:m].reshape(m, -1).any(axis=1)
    span = m if live.all() else int(np.argmin(live))
    flat = terms[:span].reshape(span, -1).view(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = float(np.max(np.sqrt(np.einsum("ij,ij->i", flat, flat))
                         / np.power(q, np.arange(span)), initial=0.0))
    if span < m and span <= cap:
        return SeriesRecord(terms[:span + 1], span, K, [0.0] * len(rows))
    J = tails.cut(K, tol, context)
    _extend(terms, m, J + 1, left, right)  # the terms past the span
    return SeriesRecord(terms[:J + 1], J, K, list(K * tails.tails[:, J]))
