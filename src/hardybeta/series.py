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
``conjugation_rate``) is certified before the cut is chosen: ``L`` and
``R`` are squared until ``||L^m||_F ||R^m||_F <= q^m`` for some
``m = 2^i`` (no ``L`` counts 1), and since ``T_{tm+s} = L^{tm} T_s R^{tm}``
every term then obeys ``||T_j||_F <= K q^j`` with the transient constant
``K = max_{s<m} ||T_s||_F / q^s``.  A term with every entry 0 in the span
``s < m`` ends a finite sum, with tail 0.

The rows are the weight's, read at any length (``rows(n)`` gives the
entries ``0..n`` of every row), never a stored table.  A row's tail past a
cut ``J`` is bounded by its one entry there: with ``s`` a bound on
``|row[j+1] / row[j]|`` for every ``j >= J`` (the weight's ``inv_step`` or
``c_step``, read at ``J``),
``sum_{j>J} |row[j]| q^j <= |row[J]| q^J s q / (1 - s q)``, ``inf`` where
``s q >= 1`` and 0 at a zero entry under a finite step.  The cut is the
first ``J >= 4`` with ``K * max_i tail_i(J) <= tol``, looked for from the
certified span ``m`` on in windows of the rows that end about where the
bound, falling by ``q`` a term, would meet ``tol`` (``cut``).

The only limit is the term budget ``_BUDGET``: no span and no cut passes
it, so the terms made, ``(J + 1) n^2`` complex entries, stay within
``_BUDGET n^2``.  ConvergenceError, naming the caller, ``q`` and the
budget, is raised when no span within it certifies ``q`` (at ``q >= 1`` no
row's tail is bounded either, as every step is at least 1) or no cut
within it meets ``tol``.

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

#: no span and no cut passes this term index: it bounds the terms made
_BUDGET = 1 << 15


def decay_rate(rho: float, scale: float = 1.0) -> float:
    """Decay rate ``q`` of the powers ``(scale A)^j`` when ``rho(A) = rho``."""
    return scale * 0.5 * (1.0 + rho)


def conjugation_rate(rho: float) -> float:
    """Decay rate of the conjugations ``A^{*j} X A^j``: the square of
    ``decay_rate``.  At ``rho >= 1`` the hereditary domain condition
    ``X >= A* X A`` still keeps them bounded, so the rate is 1."""
    return decay_rate(rho) ** 2 if rho < 1.0 else 1.0


def _tails(entries, steps, q: float, J) -> np.ndarray:
    """``|row[J]| q^J s q / (1 - s q)`` for the entries ``row[J]`` at the
    cuts ``J`` (a 1-d array) and the step bounds ``s`` past them: ``inf``
    where ``s q >= 1`` or the entry is not finite, and 0 at a zero entry
    under a finite step."""
    sq = np.broadcast_to(np.asarray(steps) * q, entries.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tails = np.abs(entries) * np.power(q, J) * sq / (1.0 - sq)
    tails[~(sq < 1.0) | np.isnan(tails)] = np.inf
    tails[(entries == 0.0) & (sq < 1.0)] = 0.0
    return tails


def _reach(bound: float, q: float, tol: float, j: int) -> int:
    """Half again the index where ``bound``, a tail bound at ``j``, would
    meet ``tol`` if it fell by ``q`` a term; ``j`` when that says nothing.
    The rows grow the bound by their entries and steps, so that index
    falls short of the cut."""
    if not (0.0 < tol < bound < math.inf and 0.0 < q < 1.0):
        return j
    return math.ceil(1.5 * (j + math.log(tol / bound) / math.log(q)))


def cut(rows, steps, q: float, K: float, tol: float, context: str,
        start: int = 0):
    """The first ``J >= 4`` at which ``K`` times every row's tail is at most
    ``tol`` (the bound 0 at ``K = 0``), with the rows read to it, as a
    ``(r, J + 1)`` array, and their bounds there.

    ``rows(n)`` gives the entries ``0..n`` of ``r`` rows and ``steps(J)``
    their step bounds past the cuts ``J`` (a 1-d array), broadcastable to
    ``(r, len(J))``, and must not increase with ``J``.  The rows are read
    in windows, each ending where the last bound (``K`` at ``J = 0``)
    would meet ``tol`` falling by ``q`` a term (``_reach``): the first at
    least at ``start`` and 8, every later one 1.25 to 2 times as long as the
    one before; the cut does not depend on them.  ConvergenceError, naming
    ``context``, ``q`` and the budget, when none holds by ``_BUDGET``, and
    at once when a row's step there times ``q`` is at least 1."""
    # the steps do not increase with J: one that bounds no tail at the
    # budget bounds none before it
    s = float(np.max(steps(np.array([_BUDGET]))))
    if K and not s * q < 1.0:
        raise ConvergenceError(
            f"{context}: tail bound inf > tol {tol:.3e}: a row's step bound "
            f"{s:.6g} at the term budget J = {_BUDGET} times the decay rate "
            f"q = {q:.6g} is {s * q:.6g} >= 1")
    lo, hi = _MIN_J, min(max(start, 8, _reach(K, q, tol, 0)), _BUDGET)
    while True:
        R = rows(hi)
        J = np.arange(lo, hi + 1)
        tails = K * _tails(R[:, lo:], steps(J), q, J) if K \
            else np.zeros((len(R), len(J)))
        worst = tails.max(axis=0)
        hit = np.flatnonzero(worst <= tol)
        if hit.size:
            i = int(hit[0])
            return lo + i, R[:, :lo + i + 1], list(tails[:, i])
        if hi == _BUDGET:
            break
        lo, hi = hi + 1, min(max(_reach(worst[-1], q, tol, hi),
                                 hi + hi // 4), 2 * hi, _BUDGET)
    raise ConvergenceError(
        f"{context}: tail bound {worst[-1]:.3e} > tol {tol:.3e} at the term "
        f"budget J = {_BUDGET}, at the decay rate q = {q:.6g}")


@dataclass
class SeriesRecord:
    """One truncated series: the stored terms ``T_0..T_J`` as one
    ``(J + 1, n, n)`` array, the rows cut at ``J`` as one ``(r, J + 1)``
    array, the cut ``J``, the certified transient constant ``K`` and, per
    row, the tail bound past ``J`` (``cut``)."""

    terms: np.ndarray
    rows: np.ndarray
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
    tail bound is at most ``tol``; ``rows`` and ``steps`` are functions of
    the length and the cuts, as for ``cut``.

    The matrices must be complex.  The decay rate ``q`` is certified on
    the squares of ``left`` and ``right`` before the cut is chosen (see the
    module docstring).  Raises ConvergenceError, naming ``context``, ``q``
    and the budget, when no span within ``_BUDGET`` certifies ``q`` or no
    cut within it meets ``tol``.
    """
    L, R, m = left, right, 1  # L^m and R^m
    # squares that overflow certify nothing: NaN and inf fail the test
    with np.errstate(over="ignore", invalid="ignore"):
        while not _fro(R) * (1.0 if L is None else _fro(L)) <= q ** m:
            if m == _BUDGET:
                raise ConvergenceError(
                    f"{context}: decay rate q = {q:.6g} is not certified "
                    f"by ||A^{m}|| within the term budget J = {_BUDGET}")
            L, R = (None if L is None else L @ L), R @ R
            m *= 2
    terms = np.empty((m,) + first.shape, dtype=complex)
    terms[0] = first
    _extend(terms, 1, m, left, right)
    # T_{j+1} = L T_j R, so past a term whose entries are all 0 every term is
    live = terms.reshape(m, -1).any(axis=1)
    span = m if live.all() else int(np.argmin(live))
    # first.size, not -1: a first term of zeros leaves span 0
    flat = terms[:span].reshape(span, first.size).view(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = float(np.max(np.sqrt(np.einsum("ij,ij->i", flat, flat))
                         / np.power(q, np.arange(span)), initial=0.0))
    if span < m:
        coefs = rows(span)
        return SeriesRecord(terms[:span + 1], coefs, span, K,
                            [0.0] * len(coefs))
    J, coefs, tails = cut(rows, steps, q, K, tol, context, start=m)
    if J >= m:  # the terms past the span
        terms = np.concatenate([terms, np.empty((J + 1 - m,) + first.shape,
                                                dtype=complex)])
        _extend(terms, m, J + 1, left, right)
    return SeriesRecord(terms[:J + 1], coefs, J, K, tails)
