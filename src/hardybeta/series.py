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
A term that is exactly zero ends the series, and its tail is zero.  Past
the stored table a row's tail is geometric in the step bound the weight
gives for it (``RowTails``); nothing is extrapolated here.

Terms are made in doubling blocks: with ``s`` terms stored the next
``min(s, cap + 1 - s)`` are ``L^s T_i R^s``, one product over the stacked
block, with ``L^s`` and ``R^s`` kept by squaring.  Norms, the running ``K``
and the stop test are taken once per block, so the cut ``J`` is the one a
term-by-term loop finds; the terms of the last block past ``J`` are
dropped.

``K`` is an estimate, not a bound: transient growth of a non-normal ``A``
after the stop is not covered (see ROADMAP.md).  Callers sum the returned
terms in their own order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

#: the estimate of K ignores decay-rate powers below this (underflow noise)
_UNDERFLOW = 1e-280

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


def _scaled(norms: np.ndarray, powq: np.ndarray) -> np.ndarray:
    """``norms / powq`` term by term, with 0 where ``powq`` is at or below
    the underflow guard."""
    out = np.zeros(len(norms))
    np.divide(norms, powq, out=out, where=powq > _UNDERFLOW)
    return out


class RowTails:
    """Coefficient tails of several rows at one decay rate ``q``.

    ``cap`` is the last index stored in every row, and ``steps`` bounds
    ``|row_i[j+1] / row_i[j]|`` for ``j >= cap`` from the level
    ``max(|row_i[cap]|, floors_i)`` (each one per row, or one for all).  For
    a cut ``J <= cap``, ``tails[i, J]`` bounds ``sum_{j > J} |row_i[j]| q^j``:
    the stored suffix sum plus that level times ``q^cap s q / (1 - s q)``
    (``inf`` when ``s q >= 1``).  ``K * worst[J]`` bounds every row's tail
    at once.
    """

    def __init__(self, rows, q: float, steps, floors=0.0):
        self.cap = cap = min(len(r) for r in rows) - 1
        self.q = q
        self.powq = powq = np.power(q, np.arange(cap + 1))
        damped = np.array([r[:cap + 1] for r in rows], dtype=float)
        # in place: a fresh temporary this size costs more in page faults
        np.multiply(np.abs(damped, out=damped), powq, out=damped)
        sq = np.broadcast_to(np.asarray(steps, dtype=float) * q, len(damped))
        last = np.maximum(damped[:, -1], np.multiply(floors, powq[-1]))
        ok = sq < 1.0
        beyond = np.full(len(damped), np.inf)
        beyond[ok] = last[ok] * sq[ok] / (1.0 - sq[ok])
        beyond[last == 0.0] = 0.0
        self.tails = np.zeros_like(damped)  # stored suffix sums past J
        np.cumsum(damped[:, :0:-1], axis=1, out=self.tails[:, -2::-1])
        self.tails += beyond[:, None]
        self.worst = self.tails.max(axis=0)

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

    def cut(self, K: float, tol: float, context: str) -> int:
        """The first ``J >= 4`` with ``K * worst[J] <= tol`` for a known
        constant ``K``; ``cap`` when none is and the bound there holds."""
        hit = np.flatnonzero(K * self.worst[_MIN_J:] <= tol)
        J = _MIN_J + int(hit[0]) if hit.size else self.cap
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
    before the bound holds.
    """
    tails = RowTails(rows, q, steps, floors)
    cap, n = tails.cap, first.shape[0]
    terms = np.empty((cap + 1, n, n), dtype=complex)
    terms[0] = first
    L, R = left, right  # L^s and R^s for the block made from s terms
    K, lo, hi = 0.0, 0, 1
    while True:
        flat = terms[lo:hi].reshape(hi - lo, -1).view(float)
        norms = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        Ks = np.fmax(np.fmax.accumulate(_scaled(norms, tails.powq[lo:hi])), K)
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
            return SeriesRecord(terms, cap, K, list(K * tails.tails[:, cap]))
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
        lo, hi = s, s + m
