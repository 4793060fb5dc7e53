"""Time-domain simulation of the weighted time-varying linear system.

A colligation family ``{A, B_k, C, D_k}`` over its weight sequence drives
the discrete-time recursion

    x(j+1) = (beta_j / beta_{j+1}) A x(j) + (1 / beta_{j+1}) B_j u(j)
    y(j)   = C x(j) + (1 / beta_j) D_j u(j)

with inputs ``u(j)`` living in per-step spaces of possibly varying
dimension.  The module cross-validates the recursion against its closed
forms, materializes the block lower-triangular input-output matrix, checks
consistency with the frequency-domain transfer family, and verifies the
input-output energy identity for weighted-isometric families, exactly: the
output energy past the horizon is a closed form in the shifted gramian.

Simulation is inherently sequential in the step index; independent trials
parallelize freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colligation import ColligationFamily, _taylor_stack, transfer_taylor
from .errors import InvalidParameterError, _check_tol
from .hereditary import _right_powers


@dataclass
class Trajectory:
    """States ``x(0..T)``, outputs ``y(0..T-1)`` and the inputs that drove them."""

    states: list
    outputs: list
    inputs: list


def _conform_inputs(family: ColligationFamily, inputs) -> list:
    out = []
    for j, u in enumerate(inputs):
        if j > family.k_max:
            raise InvalidParameterError(
                f"family has steps 0..{family.k_max}, input at step {j} given")
        u = np.asarray(u, dtype=complex).reshape(-1)
        need = family.step(j).u
        if len(u) != need:
            raise InvalidParameterError(
                f"input at step {j} has dimension {len(u)}, expected {need}")
        out.append(u)
    return out


def simulate(family: ColligationFamily, x0, inputs) -> Trajectory:
    """Run the recursion for ``len(inputs)`` steps from initial state x0."""
    w, A, C = family.weight, family.pair.A, family.pair.C
    us = _conform_inputs(family, inputs)
    T = len(us)
    x = np.asarray(x0, dtype=complex).reshape(-1)
    if len(x) != family.pair.n:
        raise InvalidParameterError("x0 has wrong dimension")
    betas, inv_betas = w._entries(np.arange(T + 1))
    states, outputs = [x], []
    for j in range(T):
        st = family.step(j)
        y = C @ x + inv_betas[j] * (st.D @ us[j])
        outputs.append(y)
        x = (betas[j] / betas[j + 1]) * (A @ x) \
            + inv_betas[j + 1] * (st.B @ us[j])
        states.append(x)
    return Trajectory(states=states, outputs=outputs, inputs=us)


def closed_form_trajectory(family: ColligationFamily, x0,
                           inputs) -> Trajectory:
    """Independent evaluation of the summed closed forms

        x(j) = (1/beta_j) (A^j x0 + sum_{l<j} A^{j-l-1} B_l u(l))
        y(j) = (1/beta_j) (C A^j x0 + sum_{l<j} C A^{j-l-1} B_l u(l) + D_j u(j))

    used as a cross-check oracle for the recursion in ``simulate``.
    """
    w, A, C = family.weight, family.pair.A, family.pair.C
    us = _conform_inputs(family, inputs)
    T = len(us)
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    powers = _right_powers(np.eye(family.pair.n), A, T + 1)
    inv_betas = w._entries(np.arange(T + 1))[1]
    states, outputs = [], []
    for j in range(T + 1):
        acc = powers[j] @ x0
        for l in range(j):
            acc = acc + powers[j - l - 1] @ (family.step(l).B @ us[l])
        states.append(inv_betas[j] * acc)
    for j in range(T):
        acc = C @ (powers[j] @ x0)
        for l in range(j):
            acc = acc + C @ (powers[j - l - 1] @ (family.step(l).B @ us[l]))
        acc = acc + family.step(j).D @ us[j]
        outputs.append(inv_betas[j] * acc)
    return Trajectory(states=states, outputs=outputs, inputs=us)


@dataclass
class IOMatrix:
    """Dense block lower-triangular input-output matrix with block offsets.

    Row block ``i`` spans ``p`` rows; column block ``j`` spans ``u_j``
    columns starting at ``col_offsets[j]`` (inputs are ragged, so column
    blocks vary in width).
    """

    matrix: np.ndarray
    row_offsets: list
    col_offsets: list


def io_matrix(family: ColligationFamily, T_steps: int) -> IOMatrix:
    """Materialize the input-output map over ``T_steps`` steps.

    Block ``(i, j)`` is zero above the diagonal and the Taylor coefficient
    ``Theta_{j, i-j}`` on and below it: ``(1/beta_i) D_i`` on the diagonal
    and ``(1/beta_i) C A^{i-1-j} B_j`` below, so column block ``j`` is
    ``transfer_taylor(family, j, T_steps - 1 - j)``.
    """
    if not 0 <= T_steps <= family.k_max + 1:
        raise InvalidParameterError(
            f"io_matrix needs 0 <= T_steps <= {family.k_max + 1}, "
            f"got {T_steps}")
    p = family.pair.p
    us = [family.step(j).u for j in range(T_steps)]
    col_off = list(np.cumsum([0] + us))
    row_off = [p * i for i in range(T_steps + 1)]
    M = np.zeros((p * T_steps, col_off[-1]), dtype=complex)
    for j, u in enumerate(us):
        # Theta_{j, 0..T_steps-1-j}, one row block each: beta_{T_steps-1}
        # is the last weight read
        M[row_off[j]:, col_off[j]:col_off[j + 1]] = \
            transfer_taylor(family, j, T_steps - 1 - j).reshape(-1, u)
    return IOMatrix(matrix=M, row_offsets=row_off, col_offsets=col_off)


def stack_inputs(inputs) -> np.ndarray:
    """Ragged input sequence -> flat vector matching the io_matrix columns."""
    if not inputs:
        return np.zeros(0, dtype=complex)
    return np.concatenate([np.asarray(u, dtype=complex).reshape(-1)
                           for u in inputs])


def check_ztransform(family: ColligationFamily, x0, inputs, J: int) -> float:
    """Residual between time-domain outputs and frequency-domain data.

    Output coefficient ``j`` must equal the degree-j Taylor coefficient of
    ``O(x0) + sum_k z^k Theta_k(z) u(k)``, i.e.
    ``(1/beta_j) C A^j x0 + sum_{k<=j} Theta_{k, j-k} u(k)``.
    Returns the max norm violation over ``j <= J``.
    """
    us = _conform_inputs(family, inputs)
    if J >= len(us):
        raise InvalidParameterError("J must not exceed the simulated horizon")
    traj = simulate(family, x0, us)
    w, A, C = family.weight, family.pair.A, family.pair.C
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    # Theta_{k,i} u(k) for every step k <= J and degree i, from one Taylor
    # stack (zero-padded inputs meet its zero-padded columns)
    ks = np.arange(J + 1)
    taylor = _taylor_stack(family, ks, J)[0]
    U = np.zeros((J + 1, taylor.shape[-1], 1), dtype=complex)
    for k in ks:
        U[k, :len(us[k]), 0] = us[k]
    terms = (taylor @ U[:, None])[..., 0]
    v = x0.copy()
    inv_betas = w._entries(np.arange(J + 1))[1]
    rhs = np.empty((J + 1, len(C)), dtype=complex)
    for j in range(J + 1):
        rhs[j] = inv_betas[j] * (C @ v)
        v = A @ v
    # degree j collects Theta_{k, j-k} u(k), k = 0..j, in that order
    for k in ks:
        rhs[k:] += terms[k, :J + 1 - k]
    return float(np.linalg.norm(np.array(traj.outputs[:J + 1]) - rhs,
                                axis=1).max())


def zero_input_tail_energy(family: ColligationFamily, h: int, x) -> float:
    """``sum_{j >= h} beta_j ||y(j)||^2`` from ``x = x(h)`` with zero input
    from step ``h <= k_max + 1`` on: ``beta_j x(j) = A^{j-h} beta_h x(h)``
    and ``y(j) = C x(j)``, so it is ``beta_h^2 x^* G^(h) x``."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    return float(family.weight._entries(h)[0] ** 2
                 * np.vdot(x, family.gramians[h] @ x).real)


@dataclass
class IsometryReport:
    isometric: bool
    worst_defect: float
    allowance: float
    trials: int


def check_io_isometry(family: ColligationFamily, trials: int, horizon: int,
                      tol: float = 1e-8, seed: int = 0) -> IsometryReport:
    """Energy identity for the input-output map of a weighted-isometric family.

    For random finitely supported inputs the weighted output energy
    ``sum_j beta_j ||y(j)||^2`` must match the input energy
    ``sum_k ||u(k)||^2`` up to ``tol`` plus the reported allowance.  The
    outputs before the horizon ``h`` are simulated; the energy of those
    from ``h`` on, where the input is zero, is ``zero_input_tail_energy``
    of the state ``x(h)``.  The allowance is that closed form's truncation,
    ``beta_h^2 ||x(h)||^2`` times the tail bound of ``G^(h)``.  The horizon
    is at least 1, since one input step is always simulated, and at most
    ``k_max + 1``; ``trials`` is at least 1, since a verdict on no input
    checks nothing.  ``tol`` is finite and ``>= 0`` (0 allows no slack
    past the allowance).
    """
    _check_tol(tol)
    w = family.weight
    rng = np.random.default_rng(seed)
    if trials < 1:
        raise InvalidParameterError(
            f"check_io_isometry needs trials >= 1, got trials={trials}")
    if horizon < 1:
        raise InvalidParameterError(
            f"check_io_isometry needs horizon >= 1, got horizon={horizon}")
    if horizon - 1 > family.k_max:
        raise InvalidParameterError("family too short for requested horizon")
    worst = 0.0
    allow = 0.0
    support = max(1, min(horizon // 3, family.k_max + 1))
    betas = w._entries(np.arange(horizon + 1))[0]
    for _ in range(trials):
        us = [rng.standard_normal(family.step(k).u)
              + 1j * rng.standard_normal(family.step(k).u)
              for k in range(support)]
        us += [np.zeros(family.step(k).u) for k in range(support, horizon)]
        traj = simulate(family, np.zeros(family.pair.n), us)
        energy_in = sum(float(np.vdot(u, u).real) for u in us)
        energy_out = sum(betas[j] * float(np.vdot(y, y).real)
                         for j, y in enumerate(traj.outputs))
        x = traj.states[horizon]
        energy_out += zero_input_tail_energy(family, horizon, x)
        # np.maximum, not max: max(0.0, nan) is 0.0, and a NaN energy must
        # fail the verdict
        allow = np.maximum(allow, betas[horizon] ** 2 * np.vdot(x, x).real
                           * family.gramians.tail_bounds[horizon])
        worst = np.maximum(worst, abs(energy_out - energy_in))
    return IsometryReport(isometric=bool(worst <= tol + allow),
                          worst_defect=worst, allowance=allow, trials=trials)
