"""Truncation and tail bounds of the package's weighted power series.

Every series summed here is ``sum_j row_i[j] T_j``: scalar coefficient rows
(reciprocal weights, reciprocal-series or quotient-series coefficients)
against matrix terms from a linear recurrence ``T_{j+1} = L(T_j)``, the
powers ``(zA)^j`` of the resolvents or the conjugations ``A^{*j} X A^j`` of
the gramians and hereditary maps.  This module alone chooses the decay rate
``q`` (``|z| (1 + rho)/2`` for powers, its square for conjugations),
estimates the transient constant ``K`` (the running maximum of
``||T_j|| / q^j``), bounds each row's coefficient tail (the stored suffix
sum plus an extrapolation past the table) and runs the adaptive loop: stop
at the first ``j >= 4`` with ``K * max_i tail_i(j) <= tol``, or raise
ConvergenceError.  A term that is exactly zero ends the series, and its
tail is zero.

``K`` is an estimate, not a bound: transient growth of a non-normal ``A``
after the stop is not covered (see ROADMAP.md).  Callers sum the returned
terms in their own order.
"""

from __future__ import annotations

import functools
import math
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


def _frobenius(T: np.ndarray) -> float:
    """``np.linalg.norm(T)`` of a complex array by the same arithmetic (so
    the same bits), without its per-call argument handling."""
    x = T.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _update_K(K: float, norm: float, q: float, j: int) -> float:
    qj = q ** j
    return max(K, norm / qj) if qj > _UNDERFLOW else K


def transient_constant(norms, q: float, start: int = 0) -> float:
    """Estimate ``K = max_j norms[j] / q^(start + j)`` of the constant in
    ``norm_j <= K q^j``, from the terms seen (not a bound on later ones)."""
    K = 0.0
    for j, v in enumerate(norms, start):
        K = _update_K(K, v, q, j)
    return K


def geometric_tail(K: float, q: float, m: int) -> float:
    """``sum_{j >= m} K q^j``, or ``inf`` when ``q >= 1``."""
    return K * q ** m / (1.0 - q) if q < 1.0 else float("inf")


def _beyond(row_abs: np.ndarray, powq: np.ndarray, q: float,
            window: int = 16) -> float:
    """Bound on the sum of the (unstored) continuation of ``row_abs * powq``.

    Decaying tails are extrapolated geometrically from the trailing growth
    ratio of the damped sequence.  Trailing coefficients that sit at the
    recursion noise floor (negligible against the row's scale) are assumed
    to stay at that floor, so only the ``q`` damping continues.  A genuinely
    non-decaying tail yields ``inf`` and the caller reports non-convergence.
    """
    m = min(window + 1, len(row_abs))
    traw = row_abs[-m:]
    if traw.max() == 0.0:
        return 0.0
    if traw.max() <= 1e-9 * row_abs.max() and q < 1.0:
        return geometric_tail(10.0 * float(traw.max()) * float(powq[-1]), q, 1)
    nz = np.nonzero(traw > 0)[0]
    if len(nz) < 2:
        return float("inf")
    steps = np.diff(nz).astype(float)
    ratios = (traw[nz[1:]] / traw[nz[:-1]]) ** (1.0 / steps)
    r = float(ratios.max()) * q  # per-step growth of the damped sequence
    if r >= 1.0:
        return float("inf")
    last = float(traw[nz[-1]]) * float(powq[len(row_abs) - m + nz[-1]])
    gap = m - 1 - nz[-1]
    return last * r ** gap * r / (1.0 - r)


class RowTails:
    """Coefficient tails of several rows at one decay rate ``q``.

    ``cap`` is the last index stored in every row.  For a cut ``J <= cap``,
    ``at(J)[i]`` bounds ``sum_{j > J} |row_i[j]| q^j``: the stored suffix sum
    plus the extrapolation past the table.  ``worst[J]`` is the largest of
    them, so ``K * worst[J]`` bounds every row's tail at once.
    """

    def __init__(self, rows, q: float):
        self.cap = min(len(r) for r in rows) - 1
        powq = np.power(q, np.arange(self.cap + 1))
        self.suffix, self.beyond = [], []
        for r in rows:
            row_abs = np.abs(np.asarray(r[:self.cap + 1], dtype=float))
            rev = np.cumsum((row_abs * powq)[::-1])[::-1]
            suffix = np.zeros_like(rev)
            suffix[:-1] = rev[1:]
            self.suffix.append(suffix)
            self.beyond.append(_beyond(row_abs, powq, q))
        self.worst = functools.reduce(
            np.maximum, [s + b for s, b in zip(self.suffix, self.beyond)])

    def at(self, J: int) -> list:
        return [s[J] + b for s, b in zip(self.suffix, self.beyond)]

    def check(self, K: float, J: int, tol: float, context: str):
        """Raise ConvergenceError, naming ``context``, when ``K * worst[J]``
        exceeds ``tol``."""
        if K * self.worst[J] > tol:
            raise ConvergenceError(
                f"{context}: tail bound {K * self.worst[J]:.3e} > tol "
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
    """One truncated series: the stored terms ``T_0..T_J``, the cut ``J``,
    the transient estimate ``K`` and, per row, the tail bound
    ``K * (suffix + beyond)`` past ``J``."""

    terms: list
    J: int
    K: float
    tails: list


def adaptive_sum(first: np.ndarray, step, rows, q: float, tol: float,
                 context: str) -> SeriesRecord:
    """Generate ``T_0 = first``, ``T_{j+1} = step(T_j)`` until every row's
    tail bound is at most ``tol``.

    The terms must be complex arrays; ``K`` is updated from the Frobenius
    norm of each.  Raises ConvergenceError, naming ``context``, when the
    shortest row runs out before the bound holds.
    """
    tails = RowTails(rows, q)
    terms, K, T = [], 0.0, first
    for j in range(tails.cap + 1):
        if j:
            T = step(T)
        terms.append(T)
        nrm = _frobenius(T)
        if nrm == 0.0:
            return SeriesRecord(terms, j, K, [0.0] * len(rows))
        K = _update_K(K, nrm, q, j)
        if j >= _MIN_J and K * tails.worst[j] <= tol:
            break
    else:
        tails.check(K, tails.cap, tol, context)
    J = len(terms) - 1
    return SeriesRecord(terms, J, K, [K * t for t in tails.at(J)])
