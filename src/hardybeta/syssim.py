"""Time-domain simulation of the weighted time-varying linear system.

A colligation family ``{A, B_k, C, D_k}`` together with a weight sequence
drives the discrete-time recursion

    x(j+1) = (beta_j / beta_{j+1}) A x(j) + (1 / beta_{j+1}) B_j u(j)
    y(j)   = C x(j) + (1 / beta_j) D_j u(j)

with inputs ``u(j)`` living in per-step spaces of possibly varying
dimension.  The module cross-validates the recursion against its closed
forms, materializes the block lower-triangular input-output matrix, checks
consistency with the frequency-domain transfer family, and verifies the
input-output energy identity for weighted-isometric families.

Simulation is inherently sequential in the step index; independent trials
parallelize freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series
from .colligation import ColligationFamily, transfer_taylor
from .errors import InvalidParameterError, TruncationError
from .weights import WeightSequence


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


def simulate(w: WeightSequence, family: ColligationFamily, x0,
             inputs) -> Trajectory:
    """Run the recursion for ``len(inputs)`` steps from initial state x0."""
    us = _conform_inputs(family, inputs)
    T = len(us)
    if T > w.trunc_len:
        raise TruncationError("horizon exceeds stored weights")
    A, C = family.pair.A, family.pair.C
    x = np.asarray(x0, dtype=complex).reshape(-1)
    if len(x) != family.pair.n:
        raise InvalidParameterError("x0 has wrong dimension")
    states, outputs = [x], []
    for j in range(T):
        st = family.step(j)
        y = C @ x + w.inv_betas[j] * (st.D @ us[j])
        outputs.append(y)
        x = (w.betas[j] / w.betas[j + 1]) * (A @ x) \
            + w.inv_betas[j + 1] * (st.B @ us[j])
        states.append(x)
    return Trajectory(states=states, outputs=outputs, inputs=us)


def closed_form_trajectory(w: WeightSequence, family: ColligationFamily,
                           x0, inputs) -> Trajectory:
    """Independent evaluation of the summed closed forms

        x(j) = (1/beta_j) (A^j x0 + sum_{l<j} A^{j-l-1} B_l u(l))
        y(j) = (1/beta_j) (C A^j x0 + sum_{l<j} C A^{j-l-1} B_l u(l) + D_j u(j))

    used as a cross-check oracle for the recursion in ``simulate``.
    """
    us = _conform_inputs(family, inputs)
    T = len(us)
    A, C = family.pair.A, family.pair.C
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    powers = [np.eye(family.pair.n, dtype=complex)]
    for _ in range(T):
        powers.append(A @ powers[-1])
    states, outputs = [], []
    for j in range(T + 1):
        acc = powers[j] @ x0
        for l in range(j):
            acc = acc + powers[j - l - 1] @ (family.step(l).B @ us[l])
        states.append(w.inv_betas[j] * acc)
    for j in range(T):
        acc = C @ (powers[j] @ x0)
        for l in range(j):
            acc = acc + C @ (powers[j - l - 1] @ (family.step(l).B @ us[l]))
        acc = acc + family.step(j).D @ us[j]
        outputs.append(w.inv_betas[j] * acc)
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


def io_matrix(w: WeightSequence, family: ColligationFamily,
              T_steps: int) -> IOMatrix:
    """Materialize the input-output map over ``T_steps`` steps.

    Block ``(i, j)`` is zero above the diagonal, ``(1/beta_i) D_i`` on it,
    and ``(1/beta_i) C A^{i-1-j} B_j`` below.
    """
    if T_steps - 1 > family.k_max:
        raise InvalidParameterError("family too short for requested horizon")
    p = family.pair.p
    A, C = family.pair.A, family.pair.C
    us = [family.step(j).u for j in range(T_steps)]
    col_off = list(np.concatenate([[0], np.cumsum(us)]))
    row_off = [p * i for i in range(T_steps + 1)]
    M = np.zeros((p * T_steps, col_off[-1]), dtype=complex)
    powers = [np.eye(family.pair.n, dtype=complex)]
    for _ in range(T_steps):
        powers.append(A @ powers[-1])
    for i in range(T_steps):
        for j in range(i + 1):
            if j == i:
                blk = w.inv_betas[i] * family.step(i).D
            else:
                blk = w.inv_betas[i] * (C @ powers[i - 1 - j] @ family.step(j).B)
            M[row_off[i]:row_off[i + 1], col_off[j]:col_off[j + 1]] = blk
    return IOMatrix(matrix=M, row_offsets=row_off, col_offsets=col_off)


def stack_inputs(inputs) -> np.ndarray:
    """Ragged input sequence -> flat vector matching the io_matrix columns."""
    if not inputs:
        return np.zeros(0, dtype=complex)
    return np.concatenate([np.asarray(u, dtype=complex).reshape(-1)
                           for u in inputs])


def check_ztransform(w: WeightSequence, family: ColligationFamily, x0,
                     inputs, J: int, tol: float = 1e-12) -> float:
    """Residual between time-domain outputs and frequency-domain data.

    Output coefficient ``j`` must equal the degree-j Taylor coefficient of
    ``O(x0) + sum_k z^k Theta_k(z) u(k)``, i.e.
    ``(1/beta_j) C A^j x0 + sum_{k<=j} Theta_{k, j-k} u(k)``.
    Returns the max norm violation over ``j <= J``.
    """
    us = _conform_inputs(family, inputs)
    if J >= len(us):
        raise InvalidParameterError("J must not exceed the simulated horizon")
    traj = simulate(w, family, x0, us)
    A, C = family.pair.A, family.pair.C
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    taylor = {k: transfer_taylor(family, k, J) for k in range(len(us))}
    worst = 0.0
    v = x0.copy()
    for j in range(J + 1):
        rhs = w.inv_betas[j] * (C @ v)
        for k in range(j + 1):
            rhs = rhs + taylor[k][j - k] @ us[k]
        worst = max(worst, float(np.linalg.norm(traj.outputs[j] - rhs)))
        v = A @ v
    return worst


@dataclass
class IsometryReport:
    isometric: bool
    worst_defect: float
    allowance: float
    trials: int


def check_io_isometry(w: WeightSequence, family: ColligationFamily,
                      trials: int, horizon: int, tol: float = 1e-8,
                      seed: int = 0) -> IsometryReport:
    """Energy identity for the input-output map of a weighted-isometric family.

    For random finitely supported inputs the weighted output energy
    ``sum_j beta_j ||y(j)||^2`` must match the input energy
    ``sum_k ||u(k)||^2`` up to ``tol`` plus a reported decay allowance for
    the part of the output beyond the horizon (bounded geometrically from
    the trailing computed outputs).
    """
    rng = np.random.default_rng(seed)
    if horizon - 1 > family.k_max:
        raise InvalidParameterError("family too short for requested horizon")
    r = series.conjugation_rate(family.pair.spectral_radius)
    worst = 0.0
    allow = 0.0
    support = max(1, min(horizon // 3, family.k_max + 1))
    for _ in range(trials):
        us = [rng.standard_normal(family.step(k).u)
              + 1j * rng.standard_normal(family.step(k).u)
              for k in range(support)]
        us += [np.zeros(family.step(k).u) for k in range(support, horizon)]
        traj = simulate(w, family, np.zeros(family.pair.n), us)
        energy_in = sum(float(np.vdot(u, u).real) for u in us)
        terms = [w.betas[j] * float(np.vdot(y, y).real)
                 for j, y in enumerate(traj.outputs)]
        energy_out = sum(terms)
        # geometric allowance for steps >= horizon
        K = series.transient_constant(terms[support:horizon], r, support)
        allow = max(allow, series.geometric_tail(K, r, horizon))
        worst = max(worst, abs(energy_out - energy_in))
    return IsometryReport(isometric=bool(worst <= tol + allow),
                          worst_defect=worst, allowance=allow, trials=trials)
