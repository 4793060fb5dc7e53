"""The spectral route of non-integer alpha: scalar evaluators against
mpmath, gramians and hereditary maps against brute-force sums, and the
inputs that fall back to the series."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import binom

import hardybeta as hb
from hardybeta import hereditary as her
from hardybeta import spectral

JORDAN = 0.9 * np.eye(8) + np.diag(np.ones(7), 1)


def _mp_shifted(alpha, k, x):
    """``R_k(x) = (alpha)_k / k! 2F1(1, alpha + k; k + 1; x)`` at 40 digits."""
    with mpmath.workdps(40):
        return complex(mpmath.rf(alpha, k) / mpmath.factorial(k)
                       * mpmath.hyp2f1(1, alpha + k, k + 1, x))


def _brute_force(A, X, coef, terms):
    """``sum_{j < terms} coef(j)[i] A^{*j} X A^j`` for each row of
    ``coef``, in blocks of 64 moments."""
    A = np.asarray(A, dtype=complex)
    M = [np.asarray(X, dtype=complex)]
    for _ in range(63):
        M.append(A.conj().T @ M[-1] @ A)
    M = np.stack(M)
    P = np.linalg.matrix_power(A, 64)
    S = 0.0
    for j0 in range(0, terms, 64):
        S = S + np.tensordot(coef(np.arange(j0, j0 + 64)), M, axes=(1, 0))
        M = P.conj().T @ M @ P
    return S


def _pair(rho, n=4, nonnormal=False, seed=3):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if nonnormal:
        G = np.diag(np.diag(G)) + 2.0 * np.triu(G, 1)
    # just inside rho, which rounding could otherwise put past 0.999
    A = G * (rho * (1 - 1e-12) / hb.spectral_radius(G))
    C = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return hb.OutputPair(A=A, C=C)


class TestScalarEvaluators:
    """``R_k`` by Gauss–Jacobi and ``(1 - x)^alpha R_k`` against mpmath,
    relative to ``R_k(|x|)``, the largest ``|R_k|`` on the circle."""

    XS = 0.998 * np.exp(1j * np.array([0.0, 0.05, 0.7, 2.0, np.pi]))
    XS = np.concatenate([XS, [0.0, 0.3, 0.5 + 0.5j, -0.6j, 0.9]])

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 7.25])
    def test_against_mpmath(self, alpha):
        w = hb.make_weight_beta_alpha(alpha, 64)
        ks = np.arange(21)
        R, _ = spectral.shifted(w, ks, self.XS)
        Q = her._spectral_quotients(w, ks[1:], True, self.XS)
        for x, got in zip(self.XS, Q[0]):
            one = complex(mpmath.power(1 - mpmath.mpc(x), alpha))
            assert abs(got - one) <= 1e-14 * abs(one)
        for k in ks:
            for x, got, quot in zip(self.XS, R[k], Q[k]):
                ref = _mp_shifted(alpha, int(k), x)
                scale = _mp_shifted(alpha, int(k), abs(x))
                assert abs(got - ref) <= 1e-13 * scale
                if k:
                    one = complex(mpmath.power(1 - mpmath.mpc(x), alpha))
                    assert abs(quot - one * ref) <= 1e-13 * abs(one) * scale

    def test_rules_are_cached_read_only(self):
        w = hb.make_weight_beta_alpha(1.5, 64)
        assert not w._nodes  # nothing is built at construction
        spectral.shifted(w, [0, 3], np.array([0.5, 0.9]))
        (N, (t, wts)), = w._nodes.items()
        assert N in spectral.LADDER
        assert not t.flags.writeable and not wts.flags.writeable
        # the Gauss rule integrates t^(s-1)(1-t)^(-s) t^j exactly for
        # j < 2N: the moments are Beta functions over the normalization
        for j in (0, 1, 5):
            exact = math.gamma(0.5 + j) * math.gamma(0.5) / math.gamma(1 + j)
            norm = math.gamma(1.5) * math.gamma(0.5)
            assert wts @ t ** j == pytest.approx(exact / norm, rel=1e-13)

    def test_golub_welsch_matches_chebyshev_at_one_half(self):
        # s = 1/2 takes the closed form; the Jacobi recurrence with
        # s -> 1/2 gives the same rule
        t0, w0 = spectral._gauss_jacobi(0.5, 12)
        t1, w1 = spectral._gauss_jacobi(0.5 + 1e-12, 12)
        np.testing.assert_allclose(t1, t0, rtol=0, atol=1e-11)
        np.testing.assert_allclose(w1, w0, rtol=1e-10)


class TestAgainstBruteForce:
    """Gramians and maps of the route against a long sum with closed-form
    coefficients: the gramians within their reported bounds."""

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    @pytest.mark.parametrize("rho,nonnormal", [
        (0.5, False), (0.9, False), (0.99, False), (0.999, False),
        (0.8, True)], ids=["0.5", "0.9", "0.99", "0.999", "nonnormal"])
    def test_route(self, alpha, rho, nonnormal):
        w = hb.make_weight_beta_alpha(alpha, 256)
        pair = _pair(rho, nonnormal=nonnormal)
        assert pair.diagonalization is not None
        terms = 64 * math.ceil(30.0 / (1.0 - rho ** 2) / 64)
        Q = pair.C.conj().T @ pair.C
        table = hb.gramian_table(w, pair, 4)
        assert table.trunc_order == -1
        ref = _brute_force(pair.A, Q, lambda j: np.stack(
            [binom(alpha + j + k - 1, j + k) for k in range(5)]), terms)
        for k in range(5):
            err = np.linalg.norm(table[k] - ref[k])
            assert 0.0 < table.tail_bounds[k]
            assert err <= table.tail_bounds[k]
            assert err <= 1e-10 * np.linalg.norm(ref[k])
        # the maps of the hardy gramian X, which has X >= A* X A >= 0
        X = hb.gramian_table(hb.make_weight_hardy(8), pair, 0)[0]
        c = lambda j: (-1.0) ** j * binom(alpha, j)  # noqa: E731
        d = lambda k, j: -sum(c(j + l) * binom(alpha + k - l - 1, k - l)
                              for l in range(1, k + 1))  # noqa: E731
        ref = _brute_force(pair.A, X, lambda j: np.stack(
            [c(j), d(1, j), d(3, j)]), terms)
        got = [hb.gamma_map(w, pair.A, X),
               *hb.gamma_k_map(w, [1, 3], pair.A, X)]
        for g, r in zip(got, ref):
            assert np.linalg.norm(g - r) <= 1e-10 * np.linalg.norm(X)


class TestResolventGrid:
    """A resolvent grid on a non-normal draw against 40 digits: ``mpmath``'s
    eigen-decomposition of the float ``A``, with ``R_k`` at ``z d_i``."""

    def test_nonnormal_grid_against_mpmath(self):
        # the gate's kappa(V) = 1.0e3 (2-norm condition 9.1e2),
        # |z| = 0.95 and rho(A) = 0.9: the route errs
        # 1.4e-11 and the series of the table as a custom weight 1.3e-11;
        # made in doubling blocks, the series erred 5.9e-10
        rng = np.random.default_rng(5)
        n, alpha, ks = 6, 2.5, (0, 3)
        U, Q = (np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
                for _ in range(2))
        V = U @ np.diag(np.logspace(0, -3, n)) @ Q
        d = 0.9 * np.exp(2j * np.pi * rng.uniform(size=n)) \
            * rng.uniform(0.5, 1, n)
        d[0] = 0.9
        A = V @ np.diag(d) @ np.linalg.inv(V)
        zs = 0.95 * np.exp(2j * np.pi * np.arange(9) / 9)
        with mpmath.workdps(40):
            dm, Vm = mpmath.eig(mpmath.matrix(A.tolist()))
            Wm = mpmath.inverse(Vm)
            ref = np.array([[(Vm * mpmath.diag([
                mpmath.rf(alpha, k) / mpmath.factorial(k)
                * mpmath.hyp2f1(1, alpha + k, k + 1, mpmath.mpc(z) * di)
                for di in dm]) * Wm).tolist() for z in zs] for k in ks],
                dtype=complex)
        w = hb.make_weight_beta_alpha(alpha, 2048)
        assert spectral.diagonalize(A).kappa > 1e3
        for weight in (w, hb.make_weight_custom(w.betas)):
            got = hb.resolvents(weight, ks, A, zs)
            err = her.opnorm(got - ref) / her.opnorm(ref)
            assert err.max() <= 1e-10


class TestLadderFallback:
    """A node count past the top of the ladder (1,024 nodes) hands a call
    that passes the gate to the series, which answers it or refuses it by
    name."""

    def test_gramian_table_answered_by_the_series(self):
        # the deepest shift needs ceil(2002 / 2) nodes on top of R_0's, so
        # the table is the series': 400 stored terms past shift 2000
        w = hb.make_weight_beta_alpha(2.5, 2400)
        rng = np.random.default_rng(3)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = G * (0.9 / hb.spectral_radius(G))
        C = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        pair = hb.OutputPair(A=A, C=C)
        assert pair.diagonalization is not None
        assert spectral.node_count(2.5, pair.spectral_radius ** 2,
                                   2000) is None
        table = hb.gramian_table(w, pair, 2000)
        assert 4 <= table.trunc_order < 400
        assert max(table.tail_bounds.values()) <= 1e-10
        # the direct sum of G^(2000) over 400 terms, in blocks of 64
        ref = _brute_force(
            A, pair.CstarC,
            lambda j: (w.inv_betas[2000 + np.minimum(j, 400)] * (j < 400))[None],
            448)[0]
        err = np.linalg.norm(table[2000] - ref)
        assert err <= table.tail_bounds[2000] + 1e-14 * np.linalg.norm(ref)

    W = hb.make_weight_beta_alpha(2.5, 256)
    A = np.diag([0.99995, 0.3])

    @pytest.mark.parametrize("call,text", [
        (lambda w, A: hb.resolvent_scalar(w, 1, 0.9999),
         "resolvent_scalar: tail bound 3.106e+09 > tol 1.000e-12 at the term "
         "budget J = 32768, at the decay rate q = 0.9999"),
        (lambda w, A: hb.resolvents(w, 1, A, 0.99995),
         "resolvents: tail bound 1.849e+10 > tol 1.000e-12 at the term "
         "budget J = 32768, at the decay rate q = 0.999925"),
    ], ids=["resolvent_scalar", "resolvents"])
    def test_refused_at_the_budget(self, call, text):
        # A passes the gate, but its points (0.99995^2 = 0.9999 for the
        # grid) need more nodes than the ladder holds; the rows 1/beta_{1+j}
        # grow like j^1.5, and their bound is still far above tol at the
        # series' term budget
        assert spectral.diagonalize(self.A) is not None
        assert spectral.node_count(2.5, 0.9999, 1) is None
        with pytest.raises(hb.ConvergenceError) as info:
            call(self.W, self.A)
        assert str(info.value) == text

    def test_map_past_the_ladder_answered_by_the_series(self):
        # the same A for gamma_k_map: the c row decays like j^-3.5, so the
        # series reaches tol within its budget; Gamma^(1)[I] is diagonal, with
        # entries (R_1 / R)(x) = (1 - (1 - x)^2.5) / x at x = |a_i|^2
        got = hb.gamma_k_map(self.W, 1, self.A, np.eye(2))
        x = np.diag(self.A) ** 2
        np.testing.assert_allclose(got, np.diag((1 - (1 - x) ** 2.5) / x),
                                   rtol=0, atol=1e-10)


class TestFallback:
    """Input that fails the gate takes the series, bit for bit."""

    def test_jordan_probe_takes_the_series(self):
        w = hb.make_weight_beta_alpha(2.5, 768)
        C = np.zeros((1, 8))
        C[0, 0] = 1e-7
        pair = hb.OutputPair(A=JORDAN, C=C)
        assert spectral.diagonalize(JORDAN) is None
        table = hb.gramian_table(w, pair, 3)
        assert table.trunc_order >= 0
        sums, tails, J = her._stein_sums(
            w, pair, pair.C.conj().T @ pair.C, [0, 1, 2, 3], 1e-10,
            "gramian_table")
        assert J == table.trunc_order
        assert all(np.array_equal(table[k], sums[k]) for k in range(4))
        assert [table.tail_bounds[k] for k in range(4)] == tails
        X = table[0]
        np.testing.assert_array_equal(
            hb.gamma_k_map(w, 2, JORDAN, X),
            her._hereditary_sums(w, pair, X, np.array([2]), 1e-10,
                                 "gamma_k_map")[0])

    def test_rate_one_takes_the_series(self):
        # rho(A) = 1 fails the gate, and the series, at rate 1, refuses the
        # c row of beta_2.5: its step is 1 at every index
        w = hb.make_weight_beta_alpha(2.5, 256)
        A, X = np.diag([1.0, 0.5]), np.diag([0.0, 1.0])
        assert spectral.diagonalize(A) is None
        with pytest.raises(hb.ConvergenceError,
                           match="times the decay rate q = 1 is 1 >= 1$"):
            hb.gamma_map(w, A, X, tol=1e-6)

    def test_kappa_past_the_gate(self, monkeypatch):
        pair = _pair(0.8, nonnormal=True)
        w = hb.make_weight_beta_alpha(2.5, 256)
        assert pair.diagonalization.kappa > 10.0
        monkeypatch.setattr(spectral, "KAPPA_MAX", 10.0)
        A = pair.A
        assert spectral.diagonalize(A) is None
        table = hb.gramian_table(w, hb.OutputPair(A=A, C=pair.C), 2)
        assert table.trunc_order >= 0
