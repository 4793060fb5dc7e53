"""Truncation and tail bounds of the package's weighted power series.

Every series summed here is ``sum_j row_i[j] T_j``: scalar coefficient rows
(reciprocal weights, reciprocal-series or quotient-series coefficients)
against matrix terms ``T_{j+1} = L T_j R``, the powers ``(zA)^j`` of the
resolvents (``T_0 = I``, ``R = zA``, no ``L``) or the conjugations
``A^{*j} X A^j`` of the gramians and hereditary maps (``T_0 = X``,
``L = A^*``, ``R = A``).  This module alone chooses the decay rate ``q``
(``|z| (1 + rho)/2`` for powers, its square for conjugations), estimates the
transient constant ``K`` (the running maximum of ``||T_j|| / q^j``), bounds
each row's coefficient tail and runs the adaptive loop: stop at the first
``j >= 4`` with ``K * max_i tail_i(j) <= tol``, or raise ConvergenceError.
A term whose computed Frobenius norm is 0 ends the series, and its tail is
zero: an exact zero, or a term whose entries all lie below about 1.5e-162,
where their squares underflow.  Past
the stored table a row's tail is geometric in the step bound the weight
gives for it (``RowTails``); nothing is extrapolated here.

Work is sized by the cut, not by the stored table:

* A row's damped entries ``|row[j]| q^j``, their suffix sums and ``q^j``
  are formed only while ``q^j`` is above the underflow guard 1e-280; past
  it they are 0 (below a tail of 1e-250 the sums then differ from the
  full-table ones in rounding only).
* ``K >= ||T_0||``, so the first ``j >= 4`` with ``||T_0|| worst[j] <= tol``
  is a lower bound ``J0`` on the cut.  Terms are made in doubling blocks:
  with ``s`` terms stored the next ``min(s, cap + 1 - s)`` are
  ``L^s T_i R^s``, one product over the stacked block, with ``L^s`` and
  ``R^s`` kept by squaring.  Blocks below ``J0`` are made without norms or
  tests; the first tested block covers every term made so far, and each
  later block is tested once, so the zero-term rule and the running ``K``
  see every term and the cut ``J`` is the one a term-by-term loop finds.
  The terms of the last block past ``J`` are dropped.
* With no ``J0`` in the table the loop can only raise at ``cap``, unless a
  term is zero.  It is refused before any block is made when no term up
  to ``cap`` can vanish: ``T_cap`` is formed through the squares
  ``L^(2^b)``, ``R^(2^b)``, ``b <= log2(cap)``, and with ``P`` the product
  of their Frobenius norms floored at 1, ``||T_j|| >= ||T_cap|| / P`` for
  every ``j <= cap``; ``||T_cap|| >= 1e-150 P`` keeps every term clear of
  the squares' underflow that makes a computed norm 0.  The error then
  quotes ``||T_0|| worst[cap]``, which is at most the loop's
  ``K worst[cap]``.

``K`` is an estimate, not a bound: transient growth of a non-normal ``A``
after the stop is not covered (see ROADMAP.md).  Callers sum the returned
terms in their own order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: the estimate of K ignores decay-rate powers below this (underflow noise);
#: past it a row's damped entries and their suffix sums are not formed
_UNDERFLOW = 1e-280

#: a term whose Frobenius norm is at least this has an entry whose square
#: does not underflow, for any n below 1e11, so its computed norm is not 0
_NONZERO = 1e-150

#: the adaptive loop never stops before this term index
_MIN_J = 4


def decay_rate(rho: float, scale: float = 1.0) -> float:
    """Decay rate ``q`` of the powers ``(scale A)^j`` when ``rho(A) = rho``."""
    return scale * 0.5 * (1.0 + rho)


def conjugation_rate(rho: float) -> float:
    """Decay rate of the conjugations ``A^{*j} X A^j``: the square of
    ``decay_rate``.  At ``rho >= 1`` the hereditary domain condition
    ``X >= A* X A`` still keeps them bounded, so the rate is 1."""
    return decay_rate(rho) ** 2 if rho < 1.0 else 1.0


def _frobenius(T: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex ``(m, n, n)`` stack."""
    flat = T.reshape(len(T), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


class RowTails:
    """Coefficient tails of several rows at one decay rate ``q``.

    ``cap`` is the last index stored in every row, and ``steps`` bounds
    ``|row_i[j+1] / row_i[j]|`` for ``j >= cap`` from the level
    ``max(|row_i[cap]|, floors_i)`` (each one per row, or one for all).  For
    a cut ``J <= cap``, ``tails[i, J]`` bounds ``sum_{j > J} |row_i[j]| q^j``:
    the stored suffix sum plus that level times ``q^cap s q / (1 - s q)``
    (``inf`` when ``s q >= 1``).  ``K * worst[J]`` bounds every row's tail
    at once.

    ``powq`` holds ``q^j`` only while it is above the underflow guard; the
    suffix sums leave out the entries past it, each below
    ``1e-280 |row_i[j]|``.
    """

    def __init__(self, rows, q: float, steps, floors=0.0):
        self.cap = cap = min(len(r) for r in rows) - 1
        self.q = q
        m = cap + 1
        if 0.0 < q < 1.0:  # q^j <= _UNDERFLOW from about this index on
            m = min(m, int(math.log(_UNDERFLOW) / math.log(q)) + 2)
        powq = np.power(q, np.arange(m))
        self.powq = powq = powq[:np.count_nonzero(powq > _UNDERFLOW)]
        m = len(powq)
        damped = np.array([r[:m] for r in rows], dtype=float)
        # in place: a fresh temporary this size costs more in page faults
        np.multiply(np.abs(damped, out=damped), powq, out=damped)
        sq = np.broadcast_to(np.asarray(steps, dtype=float) * q, len(damped))
        qcap = np.power(q, cap)
        last = np.maximum(np.abs([r[cap] for r in rows]) * qcap,
                          np.multiply(floors, qcap))
        ok = sq < 1.0
        beyond = np.full(len(damped), np.inf)
        beyond[ok] = last[ok] * sq[ok] / (1.0 - sq[ok])
        beyond[last == 0.0] = 0.0
        # the stored suffix sums past J, 0 from J = m - 1 on
        self.tails = tails = np.empty((len(damped), cap + 1))
        tails[:, m - 1:] = beyond[:, None]
        self.worst = np.empty(cap + 1)
        self.worst[m - 1:] = beyond.max()
        if m > 1:
            np.cumsum(damped[:, :0:-1], axis=1, out=tails[:, m - 2::-1])
            tails[:, :m - 1] += beyond[:, None]
            self.worst[:m - 1] = tails[:, :m - 1].max(axis=0)

    def scaled(self, norms: np.ndarray, lo: int) -> np.ndarray:
        """``norms[i] / q^(lo + i)``, with 0 past the underflow guard."""
        out = np.zeros(len(norms))
        k = min(len(norms), max(len(self.powq) - lo, 0))
        np.divide(norms[:k], self.powq[lo:lo + k], out=out[:k])
        return out

    def check(self, K: float, J: int, tol: float, context: str):
        """Raise ConvergenceError, naming ``context``, when ``K * worst[J]``
        exceeds ``tol``.  An infinite bound at ``q >= 1`` names ``q``: no
        table length makes that bound finite."""
        bound = K * self.worst[J]
        if bound == np.inf and self.q >= 1.0:
            raise ConvergenceError(
                f"{context}: tail bound inf > tol {tol:.3e}: the decay rate "
                f"q = {self.q:.6g} >= 1 bounds no tail, whatever the weight "
                "truncation")
        if bound > tol:
            raise ConvergenceError(
                f"{context}: tail bound {bound:.3e} > tol "
                f"{tol:.3e} after {J + 1} stored terms; increase the weight "
                "truncation")

    def first_cut(self, K: float, tol: float) -> int | None:
        """The first ``J >= 4`` with ``K * worst[J] <= tol``, or None."""
        hit = np.flatnonzero(K * self.worst[_MIN_J:] <= tol)
        return _MIN_J + int(hit[0]) if hit.size else None

    def cut(self, K: float, tol: float, context: str) -> int:
        """The first ``J >= 4`` with ``K * worst[J] <= tol`` for a known
        constant ``K``; ``cap`` when none is and the bound there holds."""
        J = self.first_cut(K, tol)
        J = self.cap if J is None else J
        self.check(K, J, tol, context)
        return J


@dataclass
class SeriesRecord:
    """One truncated series: the stored terms ``T_0..T_J`` as one
    ``(J + 1, n, n)`` array, the cut ``J``, the transient estimate ``K`` and,
    per row, the tail bound ``K * RowTails.tails[i, J]`` past ``J``."""

    terms: np.ndarray
    J: int
    K: float
    tails: list


def _cannot_vanish(first, right, left, cap: int) -> bool:
    """Whether every term ``T_j = L^j T_0 R^j``, ``j <= cap``, has a
    Frobenius norm of at least ``_NONZERO``.

    ``T_cap`` is formed through the squares ``L^(2^b)`` and ``R^(2^b)``,
    ``2^b <= cap``.  Every ``d <= cap`` is a sum of distinct such powers,
    so with ``P`` the product of ``max(1, ||L^(2^b)||_F)`` and
    ``max(1, ||R^(2^b)||_F)`` over every such ``b``,
    ``||T_cap|| = ||L^d T_j R^d|| <= P ||T_j||`` for ``d = cap - j``."""
    def fro(M):
        return math.sqrt(np.vdot(M, M).real)

    T, L, R, P = first, left, right, 1.0
    for b in range(cap.bit_length()):
        if b:
            R = R @ R
            L = None if L is None else L @ L
        P *= max(1.0, fro(R)) * (1.0 if L is None else max(1.0, fro(L)))
        if cap >> b & 1:
            T = T @ R if L is None else L @ T @ R
    return fro(T) >= _NONZERO * P


def adaptive_sum(first: np.ndarray, right: np.ndarray, rows, q: float,
                 steps, tol: float, context: str,
                 left: np.ndarray | None = None,
                 floors=0.0) -> SeriesRecord:
    """Generate ``T_0 = first``, ``T_{j+1} = left @ T_j @ right`` (no left
    factor when ``left`` is None) until every row's tail bound is at most
    ``tol``; ``steps`` and ``floors`` describe the rows past the table
    (RowTails).

    The matrices must be complex.  Terms are made in doubling blocks, and
    ``K`` is updated from the Frobenius norm of each term.  Raises
    ConvergenceError, naming ``context``, when the shortest row runs out
    before the bound holds.  The loop's error quotes ``K * worst[cap]``;
    a series refused before any block is made, because its table holds no
    cut for ``K = ||T_0||`` and no term up to ``cap`` can vanish, quotes
    ``||T_0|| * worst[cap]`` instead.
    """
    tails = RowTails(rows, q, steps, floors)
    cap, n = tails.cap, first.shape[0]
    terms = np.empty((cap + 1, n, n), dtype=complex)
    terms[0] = first
    # K >= ||T_0||, so no cut comes before J0
    norm0 = float(_frobenius(terms[:1])[0])
    J0 = tails.first_cut(norm0, tol)
    if J0 is None:
        if _cannot_vanish(first, right, left, cap):
            tails.check(norm0, cap, tol, context)
        J0 = cap
    L, R = left, right  # L^s and R^s for the block made from s terms
    K, lo, hi = 0.0, 0, 1  # terms lo..hi-1 are made and not yet tested
    while True:
        if hi > J0:
            norms = _frobenius(terms[lo:hi])
            Ks = np.fmax(np.fmax.accumulate(tails.scaled(norms, lo)), K)
            stop = (norms == 0.0) | ((np.arange(lo, hi) >= _MIN_J)
                                     & (Ks * tails.worst[lo:hi] <= tol))
            hit = np.flatnonzero(stop)
            if hit.size:
                i = int(hit[0])
                J, K = lo + i, float(Ks[i])  # a zero term leaves K as it was
                bounds = ([0.0] * len(rows) if norms[i] == 0.0
                          else list(K * tails.tails[:, J]))
                return SeriesRecord(terms[:J + 1], J, K, bounds)
            K = float(Ks[-1])
            if hi > cap:
                tails.check(K, cap, tol, context)
                return SeriesRecord(terms, cap, K,
                                    list(K * tails.tails[:, cap]))
            lo = hi
        s = hi
        m = min(s, cap + 1 - s)
        if s > 1:
            R = R @ R
            L = None if L is None else L @ L
        # the block T_s..T_{s+m-1} = L^s T_i R^s, i < m, as 2-d products
        Y = terms[s:s + m]
        np.matmul(terms[:m].reshape(m * n, n), R, out=Y.reshape(m * n, n))
        if L is not None:
            Y[...] = (L @ Y.transpose(1, 0, 2).reshape(n, m * n)).reshape(
                n, m, n).transpose(1, 0, 2)
        hi = s + m
