"""Randomized residual suite: every structural identity becomes a bound.

Each criterion draws seeded random instances at desk scale (matrices up to
8-by-8, the constant weight plus the alpha = 2, 3 and 2.5 families), runs
one identity or construction, and asserts a residual bound.  Truncated
identities are closed by their exact remainders where the shift images give
them: the model round trip adds the kernel of the shift image past the
family, the energy identity the output energy past the horizon, and
containment is the orthogonality condition to the observability functions.
What is left is an explicit allowance from the gramian tail bounds, added
to the bound, never silently absorbed.

``run_suite`` is the one harness, for the test suite and the ``verify``
subcommand of the CLI: it builds the four suite weights once, at the
default table length (they take only the closed and spectral routes, which
read no table), calls each criterion as
``criterion(cfg, weights)`` and times the call.  The criteria run on the
usable CPUs, in worker processes forked from the caller (``fork``, one per
CPU; ``_workers``), which inherit the config, the weights and the
criterion list, so only a criterion's index goes out and only its result
comes back.  With one usable CPU, off Linux, with a BLAS other than
OpenBLAS, or with a criterion wrapped by an observer, they run
in-process.  Either way the suite computes on one OpenBLAS thread, so its
numbers do not depend on the caller's BLAS threads.  Each ``seconds`` is
the criterion's own time, in its worker.  ``RunConfig`` holds the
three settings of a run: ``rank_tol``, ``seed`` and ``trials``.  Three
draw generators yield each random instance already built: ``_pairs`` a
random output pair with its weight (criteria 1 and 2), and, together with
the criterion's seeded generator for any further draws, ``_families`` the
colligation family of a well-conditioned observable pair (criteria 3, 4, 5
and 11) and ``_char_families`` the characteristic family of a
star-hypercontraction (criteria 8, 9 and 10).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import hereditary as her
from . import kernels as ker
from . import model as mod
from . import syssim as sys_
from .colligation import build_family, transfer_eval
from .errors import ModelHypothesisError
from .hereditary import OutputPair
from .weights import make_weight_beta_alpha, make_weight_hardy

#: draws per random instance before a helper gives up
DRAW_TRIES = 60
#: spectral radius and gramian condition number of a conditioned pair
PAIR_RHO_MAX, PAIR_COND_MAX = 0.8, 1e3
#: largest operator norm of a drawn star-hypercontraction ``T``
T_NORM_MAX = 0.45


@dataclass
class RunConfig:
    """The settings ``run_suite`` reads."""

    rank_tol: float = 1e-10
    seed: int = 7
    trials: int = 20


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    bound: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keyvals = " ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.measured.items())
        return (f"{status}  {self.number:2d} {self.name:<28s} {keyvals}"
                f"  [{self.bound}]  ({self.seconds:.2f}s)")


def suite_weights():
    return [("hardy", make_weight_hardy())] + [
        (f"beta{a:g}", make_weight_beta_alpha(a)) for a in (2.0, 3.0, 2.5)]


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def _rng(cfg: RunConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, tag)))


def _cmat(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_pair(rng, n, p, rho_max=0.9, rho_min=0.3):
    G = _cmat(rng, n, n)
    A = G * (rng.uniform(rho_min, rho_max) / her.spectral_radius(G))
    return OutputPair(A=A, C=_cmat(rng, p, n))


def random_conditioned_pair(w, rng, n, p):
    """Exactly observable pair whose gramian is well conditioned, so that
    inverse-based identities can be checked near machine precision."""
    for _ in range(DRAW_TRIES):
        pair = random_pair(rng, n, p, rho_max=PAIR_RHO_MAX, rho_min=0.4)
        lam = her.eigh(her.gramian(w, 0, pair, 1e-12), vectors=False)
        if lam[0] > 0 and lam[-1] / lam[0] <= PAIR_COND_MAX:
            return pair
    raise RuntimeError("could not draw a well-conditioned observable pair")


def random_star_hypercontraction(w, rng, n, k_max, rank_tol):
    """Characteristic family of a random n-by-n matrix T whose adjoint is a
    strongly stable hypercontraction for the given weight.

    ``characteristic_family`` classifies ``T*`` itself and refuses any other
    T, so a refused draw is simply replaced by the next."""
    for _ in range(DRAW_TRIES):
        G = _cmat(rng, n, n)
        T = G * (rng.uniform(0.25, T_NORM_MAX) / her.opnorm(G))
        try:
            return mod.characteristic_family(w, T, k_max=k_max,
                                             rank_tol=rank_tol)
        except ModelHypothesisError:
            pass
    raise RuntimeError("could not draw a star-hypercontraction")


def _pairs(cfg, weights, tag):
    """Yield ``(w, pair)``, ``cfg.trials`` per weight: a random pair with
    ``2 <= n <= 8`` states, ``1 <= p <= 3`` outputs and spectral radius
    at most 0.9."""
    rng = _rng(cfg, tag)
    for _, w in weights:
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 4))
            yield w, random_pair(rng, n, p)


def _families(cfg, weights, tag, trials, n_hi, p_hi, k_max):
    """Yield ``(rng, family)``, ``trials`` per weight: the colligation
    family of a well-conditioned observable pair with ``2 <= n < n_hi``
    states and ``1 <= p < p_hi`` outputs."""
    rng = _rng(cfg, tag)
    for _, w in weights:
        for _ in range(trials):
            n = int(rng.integers(2, n_hi))
            p = int(rng.integers(1, p_hi))
            pair = random_conditioned_pair(w, rng, n, p)
            yield rng, build_family(w, pair, k_max=k_max,
                                    rank_tol=cfg.rank_tol, tol=1e-13)


def _char_families(cfg, weights, tag, k_max):
    """Yield ``(rng, char)``, a quarter of ``cfg.trials`` per weight: the
    characteristic family of a star-hypercontraction on 1 to 3 states."""
    rng = _rng(cfg, tag)
    for _, w in weights:
        for _ in range(max(1, cfg.trials // 4)):
            n = int(rng.integers(1, 4))
            yield rng, random_star_hypercontraction(w, rng, n, k_max,
                                                    cfg.rank_tol)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _worst(*values) -> float:
    """The largest of ``values``, NaN when any of them is NaN, so that a
    verdict ``worst <= bound`` fails on NaN (Python's ``max(0.0, nan)`` is
    0.0)."""
    return float(np.max(values))


def _criterion(number: int, name: str):
    """Make a criterion of a function that returns ``(passed, measured,
    bound)``: it is called as ``criterion(cfg, weights)`` and returns a
    CriterionResult under this number and name, its only ones.  A criterion
    that raises fails under them, with the exception's type and message as
    its ``error``."""
    def wrap(fn):
        @functools.wraps(fn)
        def criterion(cfg: RunConfig, weights) -> CriterionResult:
            try:
                return CriterionResult(number, name, *fn(cfg, weights))
            except Exception as exc:
                return CriterionResult(
                    number, name, False,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    "runs without raising")
        return criterion
    return wrap


@_criterion(1, "stein-identity")
def criterion_1_stein(cfg: RunConfig, weights) -> tuple:
    """Weighted Stein identity on the gramians of one ``gramian_table``,
    k <= 10.

    For beta_2.5 each gramian is its own function of ``L`` on the spectral
    route, so the identity ties independent evaluations of ``R_k`` and
    ``R_{k+1}`` together (a draw past the route's gate would sum one
    series, whose terms both sides share).  For hardy and integer alpha
    the table is a Stein solve and the residual is that solve's own.  The
    verdict bounds the runtime too, so the criterion keeps its own timer;
    the time stays out of ``measured``, which is the same for the same
    configuration and seed."""
    t0 = time.perf_counter()
    worst = 0.0
    for w, pair in _pairs(cfg, weights, 1):
        table = her.gramian_table(w, pair, 11, tol=1e-9)
        for k in range(11):
            worst = _worst(worst, her.stein_residual(
                w, k, pair, table[k], table[k + 1]))
    dt = time.perf_counter() - t0
    return (worst <= 1e-7 and dt < 5.0,
            {"max_residual": worst},
            "residual <= 1e-7, runtime < 5 s")


@_criterion(2, "gamma-gramian-duality")
def criterion_2_gamma_gramian(cfg: RunConfig, weights) -> tuple:
    """Hereditary maps of the gramian reproduce C*C and the shifted gramians.

    For beta_2.5 both sides are spectral-route functions of ``L`` on one
    diagonalization of ``A``, the pair's (the maps take the pair):
    ``(1 - x)^alpha R_k`` applied to ``G^(0)`` against ``R_k`` applied to
    ``C* C``.  For hardy and integer alpha it
    compares two different computations: a Stein solve for the gramians,
    finite binomial sums for the maps."""
    worst = 0.0
    for w, pair in _pairs(cfg, weights, 2):
        table = her.gramian_table(w, pair, 6, tol=1e-10)
        G = table[0]
        worst = _worst(worst, her.opnorm(
            her.gamma_map(w, pair, G, 1e-10) - pair.CstarC))
        maps = her.gamma_k_map(w, range(1, 7), pair, G, 1e-10)
        worst = _worst(worst, *her.opnorm(maps - table.stack(1, 6)))
    return (worst <= 1e-7,
            {"max_residual": worst}, "residual <= 1e-7")


@_criterion(3, "cholesky-colligation")
def criterion_3_cholesky(cfg: RunConfig, weights) -> tuple:
    """Every built colligation step meets both weighted metric identities."""
    worst = 0.0
    for _, fam in _families(cfg, weights, 3, cfg.trials, 6, 4, 8):
        worst = _worst(worst, *fam.isometry_residuals,
                       *fam.coisometry_residuals)
    return (worst <= 1e-9,
            {"max_residual": worst}, "residual <= 1e-9")


def _kernel_identity_residuals(fam, ks, grid):
    """Residuals of the two difference-kernel identities and the gap
    factorization at each step of ``ks`` over all grid point pairs.

    The two identities are products (``kernels._cross``) of the grid's
    resolvents, those of every shift ``k`` and ``k + 1`` from one table;
    the factorization compares the library's gap kernel with
    ``x^k Theta_k(z) Theta_k(zeta)*``.  Residuals are measured in Frobenius
    norm, which dominates the operator norm.
    """
    w, pair = fam.weight, fam.pair
    C = pair.C
    zs = np.asarray(grid, dtype=complex)
    N = len(zs)
    shifts = tuple(sorted({s for k in ks for s in (k, k + 1)}))
    R = dict(zip(shifts, her.resolvents(w, shifts, pair, zs, 1e-13)))
    thetas = transfer_eval(fam, ks, zs, 1e-13)
    x = zs[:, None] * np.conj(zs)[None, :]  # z * conj(zeta) for all pairs

    def worst(diff):
        return float(np.linalg.norm(diff.reshape(N * N, -1), axis=1).max())

    def gram(P, G):
        """``P[i]^* G P[j]`` for every pair: the conjugate of the product
        of the transposed stacks ``P^T`` and ``(G P)^T``."""
        return ker._cross(P.swapaxes(1, 2), (G @ P).swapaxes(1, 2)).conj()

    out = []
    for k, th in zip(ks, thetas):
        st = fam.step(k)
        th = th[..., :st.u]
        Gk, Gk1 = fam.gramians[k], fam.gramians[k + 1]
        Gk_inv, Gk1_inv = fam.gramians.inverses(k, k + 1)
        Rk, Rk1 = R[k], R[k + 1]
        thth = ker._cross(th, th)

        # input-side identity (conjugate-linear in the first argument)
        PB = Rk @ st.B          # R_k(zA) B, shape (N, n, u)
        PB1 = Rk1 @ st.B
        thT = th.swapaxes(1, 2)
        beta, inv_beta = w._entries(k)
        lhs_in = inv_beta * np.eye(st.u)[None, None] \
            - ker._cross(thT, thT).conj()
        rhs_in = beta * (gram(PB, Gk1)
                               - np.conj(x)[:, :, None, None] * gram(PB1, Gk))
        out.append(worst(lhs_in - rhs_in))

        # output-side identity (linear in the first argument)
        V = C @ Rk      # C R_k(zA)
        V1 = C @ Rk1
        core = ker._cross(V @ Gk_inv, V) \
            - x[:, :, None, None] * ker._cross(V1 @ Gk1_inv, V1)
        lhs_out = inv_beta * np.eye(pair.p)[None, None] - thth
        out.append(worst(lhs_out - core))

        # gap kernel factorization: gap kernel = x^k Theta Theta*
        gap = ker.kernel_gap(w, k, pair, fam.gramians, zs, zs, 1e-13)
        out.append(worst(gap - (x ** k)[:, :, None, None] * thth))
    return out


@_criterion(4, "kernel-identities")
def criterion_4_kernel_identities(cfg: RunConfig, weights) -> tuple:
    grid = ker.default_grid()
    worst = 0.0
    for _, fam in _families(cfg, weights, 4, max(1, cfg.trials // 4),
                            5, 3, 3):
        worst = _worst(worst, *_kernel_identity_residuals(fam, (0, 2), grid))
    return (worst <= 1e-7,
            {"max_residual": worst},
            "residual <= 1e-7 on default grid")


@_criterion(5, "inner-family")
def criterion_5_inner_family(cfg: RunConfig, weights) -> tuple:
    worst12 = worst3 = 0.0
    ok = True
    for _, fam in _families(cfg, weights, 5, max(1, cfg.trials // 4),
                            5, 3, 8):
        rep = ker.check_inner_family(fam, k_max=8, J=110, tol=1e-7)
        worst12 = _worst(worst12, rep.isometry_residual,
                         rep.orthogonality_residual)
        cont = rep.details["containment"]
        worst3 = _worst(worst3, *[d["residual"] - d["allowance"]
                                  for d in cont])
        ok = ok and rep.isometry_residual <= 1e-7 \
            and rep.orthogonality_residual <= 1e-7 \
            and all(d["residual"] <= 1e-6 + d["allowance"] for d in cont)
    return (ok,
            {"max_isometry_orthogonality": worst12,
                            "max_containment_minus_allowance": worst3},
                           "props 1,2 <= 1e-7; prop 3 <= 1e-6 + allowance")


@_criterion(6, "scalar-golden-blaschke")
def criterion_6_scalar_golden(cfg: RunConfig, weights) -> tuple:
    """Constant weight, T = 0.5: the characteristic function is the
    classical single-zero inner factor (z - 0.5)/(1 - 0.5 z)."""
    char = mod.characteristic_family(dict(weights)["hardy"],
                                     np.array([[0.5]]), k_max=2,
                                     rank_tol=cfg.rank_tol)
    rng = _rng(cfg, 6)
    zs = np.array([0.85 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
                   for _ in range(20)])
    got = transfer_eval(char.family, 0, zs, 1e-13)[:, 0, 0]
    worst_in = _worst(*np.abs(got - (zs - 0.5) / (1.0 - 0.5 * zs)))
    # boundary check by the closed rational form of the realization
    st, pair = char.family.step(0), char.family.pair
    B, D = complex(st.B[0, 0]), complex(st.D[0, 0])
    a, c = complex(pair.A[0, 0]), complex(pair.C[0, 0])
    worst_bd = 0.0
    for m in range(16):
        zb = np.exp(2j * np.pi * m / 16)
        val = D + zb * c * B / (1.0 - zb * a)
        worst_bd = _worst(worst_bd, abs(abs(val) - 1.0))
    passed = worst_in <= 1e-11 and worst_bd <= 1e-10
    return (passed,
            {"interior_residual": worst_in,
                            "boundary_residual": worst_bd},
                           "interior <= 1e-11, boundary <= 1e-10")


@_criterion(7, "integer-alpha-identity")
def criterion_7_integer_alpha_identity(cfg: RunConfig,
                                       weights) -> tuple:
    """For alpha = n in {2, 3} the shifted hereditary maps expand as
    binomial combinations of the classical defect maps."""
    rng = _rng(cfg, 7)
    worst = 0.0
    for nn in (2, 3):
        w = dict(weights)[f"beta{nn}"]
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 9))
            G = _cmat(rng, n, n)
            A = G * (rng.uniform(0.3, 0.95) / her.opnorm(G))
            I = np.eye(n)
            maps = her.gamma_k_map(w, range(1, 6), A, I, 1e-12)
            binom = [her.gamma_binomial(l, A, I) for l in range(nn)]
            rhs = [sum(math.comb(l + k - 1, l) * binom[l] for l in range(nn))
                   for k in range(1, 6)]
            worst = _worst(worst, *her.opnorm(maps - np.array(rhs)))
    return (worst <= 1e-7,
            {"max_residual": worst},
            "residual <= 1e-7 for k <= 5")


@_criterion(8, "model-roundtrip")
def criterion_8_model_roundtrip(cfg: RunConfig, weights) -> tuple:
    worst = 0.0
    for _, char in _char_families(cfg, weights, 8, 16):
        worst = _worst(worst, mod.model_roundtrip_residual(char).residual)
    return (worst <= 1e-5,
            {"max_roundtrip_residual": worst},
            "residual <= 1e-5, k_max 16")


@_criterion(9, "coincidence")
def criterion_9_coincidence(cfg: RunConfig, weights) -> tuple:
    ok = True
    worst = 0.0
    for rng, famA in _char_families(cfg, weights, 9, 6):
        w, T = famA.weight, famA.T
        n = T.shape[0]
        Q, _ = np.linalg.qr(_cmat(rng, n, n))
        famB = mod.characteristic_family(w, Q @ T @ Q.conj().T, k_max=6,
                                         rank_tol=cfg.rank_tol)
        res = mod.check_coincidence(famA, famB, tol=1e-7)
        ok = ok and res.coincide
        worst = _worst(worst, res.residual)
        # a spectrally distinct operator must not coincide
        T3 = T * 0.5 if n == 1 else T + 0.3 * np.eye(n)
        try:
            famC = mod.characteristic_family(w, T3, k_max=6,
                                             rank_tol=cfg.rank_tol)
        except ModelHypothesisError:
            continue
        ok = ok and not mod.check_coincidence(famA, famC, tol=1e-7).coincide
    return (ok,
            {"max_conjugation_residual": worst},
            "conjugated: residual <= 1e-7; distinct: no")


@_criterion(10, "functional-model-checks")
def criterion_10_functional_model(cfg: RunConfig, weights) -> tuple:
    ok = True
    worst_checks = 0.0
    worst_align = -np.inf
    for _, char in _char_families(cfg, weights, 10, 6):
        for k in (0, 3):
            rep = mod.functional_model_colligation(char.family, k, J=110)
            checks = _worst(rep.check_state, rep.check_cross, rep.check_input)
            worst_checks = _worst(worst_checks, checks)
            worst_align = _worst(worst_align, rep.alignment_residual
                                 - rep.alignment_allowance)
            ok = ok and checks <= 1e-7 \
                and rep.alignment_residual <= 1e-5 + rep.alignment_allowance
    return (ok,
            {"max_block_residual": worst_checks,
                            "max_align_minus_allowance": worst_align},
                           "blocks <= 1e-7; alignment <= 1e-5 + allowance")


@_criterion(11, "system-transfer-consistency")
def criterion_11_system_transfer(cfg: RunConfig, weights) -> tuple:
    worst_zt = 0.0
    iso_ok = True
    worst_iso = -np.inf
    for rng, fam in _families(cfg, weights, 11, max(1, cfg.trials // 4),
                              5, 3, 25):
        x0 = _cmat(rng, fam.pair.n, 1).ravel()
        us = [_cmat(rng, fam.step(k).u, 1).ravel() for k in range(25)]
        worst_zt = _worst(worst_zt, sys_.check_ztransform(fam, x0, us, J=24))
        rep = sys_.check_io_isometry(fam, trials=3, horizon=24,
                                     tol=1e-6, seed=int(rng.integers(1 << 30)))
        iso_ok = iso_ok and rep.isometric
        worst_iso = _worst(worst_iso, rep.worst_defect - rep.allowance)
    ok = worst_zt <= 1e-9 and iso_ok
    return (ok,
            {"max_ztransform_residual": worst_zt,
                            "max_isometry_defect_minus_allowance": worst_iso},
                           "z-transform <= 1e-9; energy <= 1e-6 + allowance")


@_criterion(12, "contractive-multiplier")
def criterion_12_contractive_multiplier(cfg: RunConfig,
                                        weights) -> tuple:
    grid = ker.default_grid()
    ok = True
    worst_eig = 0.0
    for _, w in weights:
        blaschke = lambda z: np.array([[(z - 0.5) / (1.0 - 0.5 * z)]])
        rep = ker.check_contractive_multiplier(w, blaschke, grid, tol=1e-8)
        ok = ok and rep.contractive and rep.block_kernel_min_eig >= -1e-8
        # np.min, not min, so that a NaN is kept (as by _worst)
        worst_eig = float(np.min((worst_eig, rep.block_kernel_min_eig)))
        bad = ker.check_contractive_multiplier(
            w, lambda z: 1.1 * np.eye(2), grid, tol=1e-8)
        ok = ok and not bad.contractive
    return (ok,
            {"min_block_eig": worst_eig},
            "inner factor passes, 1.1 I fails")


CRITERIA = [
    criterion_1_stein,
    criterion_2_gamma_gramian,
    criterion_3_cholesky,
    criterion_4_kernel_identities,
    criterion_5_inner_family,
    criterion_6_scalar_golden,
    criterion_7_integer_alpha_identity,
    criterion_8_model_roundtrip,
    criterion_9_coincidence,
    criterion_10_functional_model,
    criterion_11_system_transfer,
    criterion_12_contractive_multiplier,
]


#: the criteria this module defines; ``_workers`` keeps a suite in-process
#: when another has taken the place of one of them
_OWN = frozenset(CRITERIA)


@functools.cache
def _openblas():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS that numpy
    loaded, or None where none is found (another BLAS, or no
    ``/proc/self/maps``)."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return None
    # the sixth field is the mapped file; one deleted since it was mapped
    # reads "<path> (deleted)" and cannot be opened again
    paths = sorted({f[5] for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()
                    and not f[5].endswith(" (deleted)")})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        for pre, suf in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                         ("openblas_", "")):
            get = getattr(lib, f"{pre}get_num_threads{suf}", None)
            set_ = getattr(lib, f"{pre}set_num_threads{suf}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Compute on one OpenBLAS thread, and restore the caller's count on
    the way out.  A multi-threaded BLAS sums in another order (criterion
    9's residual moves in its last bits), and forked workers inherit the
    count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _workers() -> int:
    """Worker processes for ``run_suite``: one per usable CPU, at most one
    per criterion.  1 (in-process) off Linux, where ``fork`` is not safe
    or not there; where numpy's BLAS is not an OpenBLAS whose threads can
    be set to one (a worker would keep the caller's BLAS threads, whose
    idle spinning takes the CPUs the other workers compute on: on two
    CPUs with a two-thread BLAS, ``verify --seed 1`` took 1.0-1.5 s with
    two such workers and 0.8-0.9 s in-process); and where a criterion is
    not this module's own, since what a wrapper records in a worker stays
    there."""
    if (not sys.platform.startswith("linux") or _openblas() is None
            or not _OWN.issuperset(CRITERIA)):
        return 1
    return min(len(CRITERIA), len(os.sched_getaffinity(0)))


def _timed(run, index: int) -> CriterionResult:
    """Run criterion ``index`` of ``run = (cfg, weights, criteria)`` and
    time it."""
    cfg, weights, criteria = run
    t0 = time.perf_counter()
    res = criteria[index](cfg, weights)
    res.seconds = time.perf_counter() - t0
    return res


#: the ``run`` a forked worker serves, set in the worker by ``_adopt``
_WORKER_RUN = None


def _adopt(*run):
    global _WORKER_RUN
    _WORKER_RUN = run


def _timed_in_worker(index: int) -> CriterionResult:
    return _timed(_WORKER_RUN, index)


def _results(run, workers: int):
    """Yield the timed results of ``run`` in criterion order, each once it
    is ready, from ``workers`` forked processes, or in-process for one.
    The workers inherit ``run`` through the fork, unpickled; the pool is
    shut down, its workers joined, on the way out."""
    indices = range(len(run[2]))
    if workers == 1:
        yield from (_timed(run, i) for i in indices)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=run) as pool:
        for future in [pool.submit(_timed_in_worker, i) for i in indices]:
            yield future.result()


def run_suite(cfg: RunConfig | None = None, echo=None) -> list:
    """Run every acceptance criterion on one set of suite weights and
    return the results in criterion order, each timed, with ``echo`` given
    each line once it and every line before it are ready.  A criterion that
    raises fails under its own number and name (``_criterion``), and the
    suite goes on; no worker process outlives the call.  The suite
    computes on one OpenBLAS thread, in-process or forked, so its numbers
    do not depend on the caller's BLAS threads."""
    results = []
    with _one_blas_thread():
        run = (cfg or RunConfig(), suite_weights(), CRITERIA)
        for res in _results(run, _workers()):
            results.append(res)
            if echo is not None:
                echo(res.line())
    return results
