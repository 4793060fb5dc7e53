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

``run_suite`` returns one result per criterion and is consumed both by the
test suite and by the ``verify`` subcommand of the CLI.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import hereditary as her
from . import kernels as ker
from . import model as mod
from . import syssim as sys_
from .colligation import build_family, transfer_eval
from .hereditary import OutputPair
from .weights import make_weight_beta_alpha, make_weight_hardy

#: weight-table length used by the suite; the gramian tail bounds at
#: spectral radius 0.9 and shift 11 need a deep table
SUITE_TRUNC = 768


@dataclass
class RunConfig:
    """Reproducibility envelope serialized alongside every report."""

    tol: float = 1e-8
    rank_tol: float = 1e-10
    k_max: int = 12
    trunc: int = 256
    seed: int = 7
    trials: int = 20

    def to_json(self) -> dict:
        return asdict(self)


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


def suite_weights(trunc: int = SUITE_TRUNC):
    return [
        ("hardy", make_weight_hardy(trunc)),
        ("beta2", make_weight_beta_alpha(2.0, trunc)),
        ("beta3", make_weight_beta_alpha(3.0, trunc)),
        ("beta2.5", make_weight_beta_alpha(2.5, trunc)),
    ]


# ---------------------------------------------------------------------------
# seeded random instances
# ---------------------------------------------------------------------------

def _rng(cfg: RunConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, tag)))


def _cmat(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_stable_A(rng, n, rho_max=0.9, rho_min=0.3):
    G = _cmat(rng, n, n)
    target = rng.uniform(rho_min, rho_max)
    return G * (target / her.spectral_radius(G))


def random_pair(rng, n, p, rho_max=0.9, rho_min=0.3):
    return OutputPair(A=random_stable_A(rng, n, rho_max, rho_min),
                      C=_cmat(rng, p, n))


def random_conditioned_pair(w, rng, n, p, rho_max=0.8, cond_max=1e3,
                            tries=60):
    """Exactly observable pair whose gramian is well conditioned, so that
    inverse-based identities can be checked near machine precision."""
    for _ in range(tries):
        pair = random_pair(rng, n, p, rho_max=rho_max, rho_min=0.4)
        lam = np.linalg.eigvalsh(her.hermitize(her.gramian(w, 0, pair, 1e-12)))
        if lam[0] > 0 and lam[-1] / lam[0] <= cond_max:
            return pair
    raise RuntimeError("could not draw a well-conditioned observable pair")


def random_star_hypercontraction(w, rng, n, norm_max=0.45, tries=60):
    """Matrix T whose adjoint classifies as a strongly stable
    hypercontraction for the given weight."""
    for _ in range(tries):
        G = _cmat(rng, n, n)
        T = G * (rng.uniform(0.25, norm_max) / np.linalg.norm(G, 2))
        rep = her.classify(w, OutputPair(A=T.conj().T, C=np.eye(n)), k_max=24,
                           tol=1e-9)
        if rep.hypercontraction and rep.strongly_stable_beta:
            return T
    raise RuntimeError("could not draw a star-hypercontraction")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1_stein(cfg: RunConfig) -> CriterionResult:
    """Weighted Stein identity on series-computed gramians, k <= 10.

    Both sides are sums of the same stored conjugation terms
    ``T_j = A^{*j} C^* C A^j`` of one ``gramian_table``, so the residual
    measures how consistently the terms follow the recurrence
    ``T_{j+1} = A^* T_j A``, not how accurate the gramians are (their
    truncation is bounded by the table's tail bounds)."""
    t0 = time.perf_counter()
    rng = _rng(cfg, 1)
    worst = 0.0
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 4))
            pair = random_pair(rng, n, p, rho_max=0.9)
            table = her.gramian_table(w, pair, 11, tol=1e-9)
            for k in range(11):
                worst = max(worst, her.stein_residual(
                    w, k, pair, table[k], table[k + 1]))
    dt = time.perf_counter() - t0
    return CriterionResult(1, "stein-identity", worst <= 1e-7 and dt < 5.0,
                           {"max_residual": worst, "seconds": dt},
                           "residual <= 1e-7, runtime < 5 s", dt)


def criterion_2_gamma_gramian(cfg: RunConfig) -> CriterionResult:
    """Hereditary maps of the gramian reproduce C*C and the shifted gramians.

    The maps conjugate the gramian by the same powers of ``A`` from which
    the gramian table was summed, so, as in criterion 1, the residual
    measures how consistently the stored terms follow the recurrence
    ``T_{j+1} = A^* T_j A``, not how accurate the gramians are."""
    t0 = time.perf_counter()
    rng = _rng(cfg, 2)
    worst = 0.0
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(1, 4))
            pair = random_pair(rng, n, p, rho_max=0.9)
            table = her.gramian_table(w, pair, 6, tol=1e-10)
            G = table[0]
            worst = max(worst, her.opnorm(
                her.gamma_map(w, pair.A, G, 1e-10)
                - pair.C.conj().T @ pair.C))
            maps = her.gamma_k_map(w, range(1, 7), pair.A, G, 1e-10)
            for k, M in enumerate(maps, 1):
                worst = max(worst, her.opnorm(M - table[k]))
    dt = time.perf_counter() - t0
    return CriterionResult(2, "gamma-gramian-duality", worst <= 1e-7,
                           {"max_residual": worst}, "residual <= 1e-7", dt)


def criterion_3_cholesky(cfg: RunConfig) -> CriterionResult:
    """Every built colligation step meets both weighted metric identities."""
    t0 = time.perf_counter()
    rng = _rng(cfg, 3)
    worst = 0.0
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            pair = random_conditioned_pair(w, rng, n, p)
            fam = build_family(w, pair, k_max=8, rank_tol=cfg.rank_tol,
                               tol=1e-13)
            worst = max(worst, max(fam.isometry_residuals),
                        max(fam.coisometry_residuals))
    dt = time.perf_counter() - t0
    return CriterionResult(3, "cholesky-colligation", worst <= 1e-9,
                           {"max_residual": worst}, "residual <= 1e-9", dt)


def _kernel_identity_residuals(w, fam, ks, grid):
    """Residuals of the two difference-kernel identities and the gap
    factorization at each step of ``ks`` over all grid point pairs.

    The two identities are einsum contractions of the grid's resolvents,
    those of every shift ``k`` and ``k + 1`` from one table; the
    factorization compares the library's gap kernel with
    ``x^k Theta_k(z) Theta_k(zeta)*``.  Residuals are measured in Frobenius
    norm, which dominates the operator norm.
    """
    pair = fam.pair
    C = pair.C
    zs = np.asarray(grid, dtype=complex)
    N = len(zs)
    shifts = tuple(sorted({s for k in ks for s in (k, k + 1)}))
    R = dict(zip(shifts, her.resolvents(w, shifts, pair.A, zs, 1e-13)))
    thetas = transfer_eval(fam, ks, zs, 1e-13)
    x = zs[:, None] * np.conj(zs)[None, :]  # z * conj(zeta) for all pairs

    def worst(diff):
        return float(np.linalg.norm(diff.reshape(N * N, -1), axis=1).max())

    out = []
    for k, th in zip(ks, thetas):
        st = fam.step(k)
        th = th[..., :st.u]
        Gk, Gk1 = fam.gramians[k], fam.gramians[k + 1]
        Gk_inv, Gk1_inv = fam.gramians.inverses(k, k + 1)
        Rk, Rk1 = R[k], R[k + 1]
        thth = np.einsum("ipu,jqu->ijpq", th, th.conj())

        # input-side identity (conjugate-linear in the first argument)
        PB = Rk @ st.B          # R_k(zA) B, shape (N, n, u)
        PB1 = Rk1 @ st.B
        lhs_in = w.inv_betas[k] * np.eye(st.u)[None, None] \
            - np.einsum("ipu,jpv->ijuv", th.conj(), th)
        rhs_in = w.betas[k] * (
            np.einsum("inu,nm,jmv->ijuv", PB.conj(), Gk1, PB)
            - np.conj(x)[:, :, None, None]
            * np.einsum("inu,nm,jmv->ijuv", PB1.conj(), Gk, PB1))
        out.append(worst(lhs_in - rhs_in))

        # output-side identity (linear in the first argument)
        V = np.einsum("pq,zqn->zpn", C, Rk)      # C R_k(zA)
        V1 = np.einsum("pq,zqn->zpn", C, Rk1)
        core = np.einsum("ipn,jqn->ijpq", V @ Gk_inv, V.conj()) \
            - x[:, :, None, None] * np.einsum("ipn,jqn->ijpq", V1 @ Gk1_inv,
                                              V1.conj())
        lhs_out = w.inv_betas[k] * np.eye(pair.p)[None, None] - thth
        out.append(worst(lhs_out - core))

        # gap kernel factorization: gap kernel = x^k Theta Theta*
        gap = ker.kernel_gap(w, k, pair, fam.gramians, zs, zs, 1e-13)
        out.append(worst(gap - (x ** k)[:, :, None, None] * thth))
    return out


def criterion_4_kernel_identities(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 4)
    grid = ker.default_grid()
    worst = 0.0
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            pair = random_conditioned_pair(w, rng, n, p)
            fam = build_family(w, pair, k_max=3, rank_tol=cfg.rank_tol,
                               tol=1e-13)
            worst = max(worst, *_kernel_identity_residuals(w, fam, (0, 2),
                                                           grid))
    dt = time.perf_counter() - t0
    return CriterionResult(4, "kernel-identities", worst <= 1e-7,
                           {"max_residual": worst},
                           "residual <= 1e-7 on default grid", dt)


def criterion_5_inner_family(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 5)
    worst12 = 0.0
    worst3 = 0.0
    ok = True
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            pair = random_conditioned_pair(w, rng, n, p)
            fam = build_family(w, pair, k_max=8, rank_tol=cfg.rank_tol,
                               tol=1e-13)
            rep = ker.check_inner_family(w, fam, k_max=8, J=110, tol=1e-7)
            worst12 = max(worst12, rep.isometry_residual,
                          rep.orthogonality_residual)
            cont = rep.details["containment"]
            worst3 = max([worst3] + [d["residual"] - d["allowance"]
                                     for d in cont])
            ok = ok and rep.isometry_residual <= 1e-7 \
                and rep.orthogonality_residual <= 1e-7 \
                and all(d["residual"] <= 1e-6 + d["allowance"] for d in cont)
    dt = time.perf_counter() - t0
    return CriterionResult(5, "inner-family", ok,
                           {"max_isometry_orthogonality": worst12,
                            "max_containment_minus_allowance": worst3},
                           "props 1,2 <= 1e-7; prop 3 <= 1e-6 + allowance", dt)


def criterion_6_scalar_golden(cfg: RunConfig) -> CriterionResult:
    """Constant weight, T = 0.5: the characteristic function is the
    classical single-zero inner factor (z - 0.5)/(1 - 0.5 z)."""
    t0 = time.perf_counter()
    w = make_weight_hardy(max(cfg.trunc, SUITE_TRUNC))
    char = mod.characteristic_family(w, np.array([[0.5]]), k_max=2)
    rng = _rng(cfg, 6)
    worst_in = 0.0
    for _ in range(20):
        z = 0.85 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        got = complex(transfer_eval(char.family, 0, z, 1e-13)[0, 0])
        ref = (z - 0.5) / (1.0 - 0.5 * z)
        worst_in = max(worst_in, abs(got - ref))
    # boundary check by the closed rational form of the realization
    B = complex(char.family.step(0).B[0, 0])
    D = complex(char.family.step(0).D[0, 0])
    a = complex(char.family.pair.A[0, 0])
    c = complex(char.family.pair.C[0, 0])
    worst_bd = 0.0
    for m in range(16):
        zb = np.exp(2j * np.pi * m / 16)
        val = D + zb * c * B / (1.0 - zb * a)
        worst_bd = max(worst_bd, abs(abs(val) - 1.0))
    dt = time.perf_counter() - t0
    passed = worst_in <= 1e-11 and worst_bd <= 1e-10
    return CriterionResult(6, "scalar-golden-blaschke", passed,
                           {"interior_residual": worst_in,
                            "boundary_residual": worst_bd},
                           "interior <= 1e-11, boundary <= 1e-10", dt)


def criterion_7_integer_alpha_identity(cfg: RunConfig) -> CriterionResult:
    """For alpha = n in {2, 3} the shifted hereditary maps expand as
    binomial combinations of the classical defect maps."""
    import math
    t0 = time.perf_counter()
    rng = _rng(cfg, 7)
    worst = 0.0
    for nn in (2, 3):
        w = make_weight_beta_alpha(float(nn), max(cfg.trunc, SUITE_TRUNC))
        for _ in range(cfg.trials):
            n = int(rng.integers(2, 9))
            G = _cmat(rng, n, n)
            A = G * (rng.uniform(0.3, 0.95) / np.linalg.norm(G, 2))
            I = np.eye(n)
            maps = her.gamma_k_map(w, range(1, 6), A, I, 1e-12)
            for k, lhs in enumerate(maps, 1):
                rhs = np.zeros_like(lhs)
                for l in range(nn):
                    rhs = rhs + math.comb(l + k - 1, l) \
                        * her.gamma_binomial(l, A, I)
                worst = max(worst, her.opnorm(lhs - rhs))
    dt = time.perf_counter() - t0
    return CriterionResult(7, "integer-alpha-identity", worst <= 1e-7,
                           {"max_residual": worst},
                           "residual <= 1e-7 for k <= 5", dt)


def criterion_8_model_roundtrip(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 8)
    grid = ker.default_grid(radii=(0.0, 0.15, 0.3, 0.45, 0.6))
    worst = 0.0
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(1, 4))
            T = random_star_hypercontraction(w, rng, n)
            char = mod.characteristic_family(w, T, k_max=16,
                                             rank_tol=cfg.rank_tol)
            rep = mod.model_roundtrip_residual(w, char, grid=grid)
            worst = max(worst, rep.residual)
    dt = time.perf_counter() - t0
    return CriterionResult(8, "model-roundtrip", worst <= 1e-5,
                           {"max_roundtrip_residual": worst},
                           "residual <= 1e-5, k_max 16", dt)


def criterion_9_coincidence(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 9)
    ok = True
    worst = 0.0
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(1, 4))
            T = random_star_hypercontraction(w, rng, n)
            Q, _ = np.linalg.qr(_cmat(rng, n, n))
            T2 = Q @ T @ Q.conj().T
            famA = mod.characteristic_family(w, T, k_max=6)
            famB = mod.characteristic_family(w, T2, k_max=6)
            res = mod.check_coincidence(famA, famB, tol=1e-7)
            ok = ok and res.coincide
            worst = max(worst, res.residual)
            # a spectrally distinct operator must not coincide
            T3 = T * 0.5 if n == 1 else T + 0.3 * np.eye(n)
            if her.spectral_radius(T3.conj().T) < 0.98:
                rep3 = her.classify(w, OutputPair(A=T3.conj().T, C=np.eye(n)),
                                    k_max=24, tol=1e-9)
                if rep3.hypercontraction and rep3.strongly_stable_beta:
                    famC = mod.characteristic_family(w, T3, k_max=6)
                    res3 = mod.check_coincidence(famA, famC, tol=1e-7)
                    ok = ok and not res3.coincide
    dt = time.perf_counter() - t0
    return CriterionResult(9, "coincidence", ok,
                           {"max_conjugation_residual": worst},
                           "conjugated: residual <= 1e-7; distinct: no", dt)


def criterion_10_functional_model(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 10)
    ok = True
    worst_checks = 0.0
    worst_align = -np.inf
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(1, 4))
            T = random_star_hypercontraction(w, rng, n)
            char = mod.characteristic_family(w, T, k_max=6)
            for k in (0, 3):
                rep = mod.functional_model_colligation(w, char.family, k,
                                                       J=110)
                worst_checks = max(worst_checks, rep.check_state,
                                   rep.check_cross, rep.check_input)
                worst_align = max(worst_align, rep.alignment_residual
                                  - rep.alignment_allowance)
                ok = ok and max(rep.check_state, rep.check_cross,
                                rep.check_input) <= 1e-7 \
                    and rep.alignment_residual <= 1e-5 + rep.alignment_allowance
    dt = time.perf_counter() - t0
    return CriterionResult(10, "functional-model-checks", ok,
                           {"max_block_residual": worst_checks,
                            "max_align_minus_allowance": worst_align},
                           "blocks <= 1e-7; alignment <= 1e-5 + allowance", dt)


def criterion_11_system_transfer(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    rng = _rng(cfg, 11)
    worst_zt = 0.0
    iso_ok = True
    worst_iso = -np.inf
    trials = max(1, cfg.trials // 4)
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        for _ in range(trials):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            pair = random_conditioned_pair(w, rng, n, p)
            fam = build_family(w, pair, k_max=25, rank_tol=cfg.rank_tol,
                               tol=1e-13)
            x0 = _cmat(rng, n, 1).ravel()
            us = [_cmat(rng, fam.step(k).u, 1).ravel() for k in range(25)]
            worst_zt = max(worst_zt, sys_.check_ztransform(
                w, fam, x0, us, J=24, tol=1e-12))
            rep = sys_.check_io_isometry(w, fam, trials=3, horizon=24,
                                         tol=1e-6, seed=int(rng.integers(1 << 30)))
            iso_ok = iso_ok and rep.isometric
            worst_iso = max(worst_iso, rep.worst_defect - rep.allowance)
    dt = time.perf_counter() - t0
    ok = worst_zt <= 1e-9 and iso_ok
    return CriterionResult(11, "system-transfer-consistency", ok,
                           {"max_ztransform_residual": worst_zt,
                            "max_isometry_defect_minus_allowance": worst_iso},
                           "z-transform <= 1e-9; energy <= 1e-6 + allowance",
                           dt)


def criterion_12_contractive_multiplier(cfg: RunConfig) -> CriterionResult:
    t0 = time.perf_counter()
    grid = ker.default_grid()
    ok = True
    worst_eig = 0.0
    for _, w in suite_weights(max(cfg.trunc, SUITE_TRUNC)):
        blaschke = lambda z: np.array([[(z - 0.5) / (1.0 - 0.5 * z)]])
        rep = ker.check_contractive_multiplier(w, blaschke, grid, tol=1e-8)
        ok = ok and rep.contractive and rep.block_kernel_min_eig >= -1e-8
        worst_eig = min(worst_eig, rep.block_kernel_min_eig)
        bad = ker.check_contractive_multiplier(
            w, lambda z: 1.1 * np.eye(2), grid, tol=1e-8)
        ok = ok and not bad.contractive
    dt = time.perf_counter() - t0
    return CriterionResult(12, "contractive-multiplier", ok,
                           {"min_block_eig": worst_eig},
                           "inner factor passes, 1.1 I fails", dt)


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


def run_suite(cfg: RunConfig | None = None, echo=None) -> list:
    """Run every acceptance criterion; returns the list of results."""
    cfg = cfg or RunConfig()
    results = []
    for crit in CRITERIA:
        res = crit(cfg)
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
