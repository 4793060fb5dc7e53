import numpy as np
import pytest

import hardybeta as hb
from hardybeta import hereditary as her
from conftest import cmat, stable_pair


class TestResolvent:
    def test_zero_operator(self, w_beta2):
        R = hb.resolvent_apply(w_beta2, 3, np.zeros((3, 3)), 0.5 + 0.1j)
        np.testing.assert_allclose(R, 4.0 * np.eye(3), atol=1e-13)

    def test_hardy_geometric(self, w_hardy):
        a, z = 0.7, 0.4 - 0.3j
        R = hb.resolvent_apply(w_hardy, 0, [[a]], z, 1e-13)
        assert R[0, 0] == pytest.approx(1.0 / (1.0 - z * a), abs=1e-12)

    def test_beta2_squared_geometric(self, w_beta2):
        a, z = 0.55, 0.3 + 0.5j
        R = hb.resolvent_apply(w_beta2, 0, [[a]], z, 1e-13)
        assert R[0, 0] == pytest.approx(1.0 / (1.0 - z * a) ** 2, abs=1e-12)

    def test_divergence_guard(self, w_hardy):
        with pytest.raises(hb.DivergenceError):
            hb.resolvent_apply(w_hardy, 0, [[0.9]], 1.2)

    @pytest.mark.parametrize("A", [[[0.5]], [[0.0]]])
    def test_non_finite_points_refused(self, w_hardy, A):
        # a NaN radius used to pass the |z| rho(A) < 1 test
        for zs in (np.nan, [0.1, np.nan], [0.2, complex(0.0, np.inf)]):
            with pytest.raises(hb.InvalidParameterError, match="finite"):
                hb.resolvents(w_hardy, 0, A, zs)

    def test_scalar_non_finite_refused(self, w_hardy):
        # |nan| >= 1 is false, so NaN used to come back as nan+nanj
        for xs in (np.nan, [0.1, np.nan], [0.2, complex(np.inf, 0.0)]):
            with pytest.raises(hb.InvalidParameterError, match="finite"):
                hb.resolvent_scalar(w_hardy, 0, xs)

    def test_scalar_matches_matrix(self, w_beta25):
        xs = np.array([0.3 + 0.2j, -0.66, 0.1j])
        vals = hb.resolvent_scalar(w_beta25, 2, xs, 1e-13)
        for x, v in zip(xs, vals):
            R = hb.resolvent_apply(w_beta25, 2, [[1.0]], x, 1e-13)
            assert v == pytest.approx(R[0, 0], abs=1e-12)

    def test_nilpotent_truncates(self, w_beta3):
        A = np.array([[0, 1.0], [0, 0]])
        R = hb.resolvent_apply(w_beta3, 0, A, 0.5, 1e-13)
        ref = np.eye(2) + w_beta3.inv_betas[1] * 0.5 * A
        np.testing.assert_allclose(R, ref, atol=1e-13)


class TestGramian:
    def test_scalar_oracle(self, w_hardy):
        pair = hb.OutputPair(A=[[0.5]], C=[[1.0]])
        G = hb.gramian(w_hardy, 0, pair, 1e-12)
        assert G[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_zero_output(self, w_beta2):
        pair = hb.OutputPair(A=0.5 * np.eye(2), C=np.zeros((1, 2)))
        np.testing.assert_allclose(hb.gramian(w_beta2, 0, pair), 0, atol=0)

    def test_hardy_shift_invariant(self, w_hardy):
        rng = np.random.default_rng(1)
        pair = stable_pair(rng, 3, 2)
        G0 = hb.gramian(w_hardy, 0, pair)
        G7 = hb.gramian(w_hardy, 7, pair)
        np.testing.assert_allclose(G0, G7, atol=1e-12)

    def test_radius_guard(self, w_hardy):
        pair = hb.OutputPair(A=np.eye(2), C=np.ones((1, 2)))
        with pytest.raises(hb.SpectralRadiusError):
            hb.gramian(w_hardy, 0, pair)

    def test_table_monotone_and_shift_bound(self, all_weights):
        rng = np.random.default_rng(2)
        for w in all_weights:
            pair = stable_pair(rng, 4, 2, rho=0.8)
            tab = hb.gramian_table(w, pair, 6, tol=1e-11)
            G0 = tab[0]
            for k in range(6):
                dmin = np.linalg.eigvalsh(tab[k + 1] - tab[k])[0]
                assert dmin >= -1e-10
                bound = w.ratio_bound ** (k + 1) * G0 - tab[k + 1]
                assert np.linalg.eigvalsh(bound)[0] >= -1e-8

    def test_hermitian_and_tail_recorded(self, w_beta3):
        rng = np.random.default_rng(3)
        pair = stable_pair(rng, 4, 2, rho=0.85)
        tab = hb.gramian_table(w_beta3, pair, 3, tol=1e-10)
        for k in range(4):
            G = tab[k]
            np.testing.assert_allclose(G, G.conj().T, atol=1e-14)
            assert 0.0 <= tab.tail_bounds[k] <= 1e-10


class TestObservabilityCoeffs:
    def test_leading_term(self, w_beta2):
        rng = np.random.default_rng(4)
        pair = stable_pair(rng, 3, 2)
        coeffs = hb.observability_coeffs(w_beta2, 4, pair, 3)
        np.testing.assert_allclose(coeffs[0], w_beta2.inv_betas[4] * pair.C,
                                   atol=0)

    def test_nilpotent_vanishes(self, w_beta2):
        A = np.array([[0, 1.0], [0, 0]])
        pair = hb.OutputPair(A=A, C=np.eye(2))
        coeffs = hb.observability_coeffs(w_beta2, 0, pair, 5)
        for j in range(2, 6):
            np.testing.assert_allclose(coeffs[j], 0, atol=0)

    def test_model_pair_coefficients(self, w_beta3):
        # backward shift on truncated coefficient space with point evaluation:
        # coefficient j of the k-shifted map is (beta_j / beta_{k+j}) e_j^T
        m = 6
        w = w_beta3
        A = np.zeros((m, m))
        for j in range(m - 1):
            A[j, j + 1] = w.betas[j + 1] / w.betas[j]
        E = np.zeros((1, m))
        E[0, 0] = 1.0
        pair = hb.OutputPair(A=A, C=E)
        for k in (1, 3):
            coeffs = hb.observability_coeffs(w, k, pair, m - 1)
            for j in range(m):
                ref = np.zeros((1, m))
                ref[0, j] = w.betas[j] / w.betas[k + j]
                np.testing.assert_allclose(coeffs[j], ref, atol=1e-14)


class TestGammaMaps:
    def test_hardy_defect(self, w_hardy):
        rng = np.random.default_rng(5)
        A = cmat(rng, 3, 3)
        A *= 0.8 / np.linalg.norm(A, 2)
        X = np.eye(3)
        got = hb.gamma_map(w_hardy, A, X)
        np.testing.assert_allclose(got, X - A.conj().T @ X @ A, atol=1e-13)

    def test_beta2_expansion(self, w_beta2):
        rng = np.random.default_rng(6)
        A = cmat(rng, 3, 3)
        A *= 0.75 / np.linalg.norm(A, 2)
        X = np.eye(3)
        A2 = A @ A
        ref = X - 2 * A.conj().T @ X @ A + A2.conj().T @ X @ A2
        np.testing.assert_allclose(hb.gamma_map(w_beta2, A, X), ref,
                                   atol=1e-13)

    def test_zero_operator(self, w_beta25):
        X = np.diag([1.0, 2.0])
        np.testing.assert_allclose(hb.gamma_map(w_beta25, np.zeros((2, 2)), X),
                                   X, atol=0)

    def test_noninteger_alpha_near_the_circle(self):
        # Gamma[X]_ij = X_ij (1 - conj(l_i) l_j)^alpha for A = diag(l); with
        # c from the recursion this raised ConvergenceError (tail 1.816e-10)
        w = hb.make_weight_beta_alpha(2.5, 2048)
        lam = 0.995 * np.exp(1j * np.array([0.0, 0.7, 2.0, -2.9]))
        X = np.eye(4)
        exact = X * (1.0 - np.conj(lam)[:, None] * lam) ** 2.5
        got = hb.gamma_map(w, np.diag(lam), X)
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_domain_guard(self, w_beta2):
        # operator norm above 1 violates X >= A* X A for X = I
        rng = np.random.default_rng(7)
        A = cmat(rng, 3, 3)
        A *= 1.5 / np.linalg.norm(A, 2)
        with pytest.raises(hb.HereditaryDomainError):
            hb.gamma_map(w_beta2, A, np.eye(3))

    def test_diverging_weight_guard(self):
        w = hb.make_weight_custom([1.0, 1.0] + [0.25] * 60)
        with pytest.raises(hb.HereditaryDomainError):
            hb.gamma_map(w, 0.3 * np.eye(2), np.eye(2))

    def test_short_custom_table_is_summable(self):
        # 2^-j continued at its last ratio has 1/R = 1 - 2z exactly, so
        # Gamma[X] = X - 2 A* X A
        w = hb.make_weight_custom([2.0 ** -j for j in range(11)])
        assert w.wiener.verdict == "summable"
        got = hb.gamma_map(w, 0.3 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(got, 0.82 * np.eye(2), atol=1e-15)

    def test_custom_noise_floor_keeps_its_tail(self):
        # the c of a custom beta_2.5 table ends below 1e-9 of its largest
        # entry but still decays slowly: that floor persists past the table,
        # so near the circle the tail bound exceeds tol
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.5, 512).betas)
        assert w.wiener.verdict == "summable" and w.c_floor > 0.0
        ref = hb.make_weight_beta_alpha(2.5, 512)
        A = 0.3 * np.eye(2)
        np.testing.assert_allclose(hb.gamma_map(w, A, np.eye(2)),
                                   hb.gamma_map(ref, A, np.eye(2)), atol=1e-13)
        for run in (lambda: hb.gamma_map(w, 0.99 * np.eye(2), np.eye(2)),
                    lambda: hb.gamma_k_map(w, 3, 0.99 * np.eye(2), np.eye(2))):
            with pytest.raises(hb.ConvergenceError):
                run()

    def test_shifted_identity_map(self, w_hardy, w_beta2):
        rng = np.random.default_rng(8)
        A = cmat(rng, 3, 3)
        A *= 0.7 / np.linalg.norm(A, 2)
        X = np.eye(3)
        for k in (1, 4):
            np.testing.assert_allclose(hb.gamma_k_map(w_hardy, k, A, X), X,
                                       atol=1e-13)
        np.testing.assert_allclose(hb.gamma_k_map(w_beta2, 0, A, X), X,
                                   atol=0)

    def test_gramian_duality(self, w_beta25):
        rng = np.random.default_rng(9)
        pair = stable_pair(rng, 4, 2, rho=0.8)
        tab = hb.gramian_table(w_beta25, pair, 4, tol=1e-12)
        got = hb.gamma_map(w_beta25, pair.A, tab[0], 1e-12)
        np.testing.assert_allclose(got, pair.C.conj().T @ pair.C, atol=1e-10)
        for k in (1, 4):
            got = hb.gamma_k_map(w_beta25, k, pair.A, tab[0], 1e-12)
            np.testing.assert_allclose(got, tab[k], atol=1e-10)

    def test_integer_alpha_binomial_identity(self, w_beta3):
        import math
        rng = np.random.default_rng(10)
        A = cmat(rng, 4, 4)
        A *= 0.9 / np.linalg.norm(A, 2)
        I = np.eye(4)
        for k in range(1, 6):
            lhs = hb.gamma_k_map(w_beta3, k, A, I, 1e-12)
            rhs = sum(math.comb(l + k - 1, l) * hb.gamma_binomial(l, A, I)
                      for l in range(3))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestStein:
    def test_identity_on_computed_gramians(self, all_weights):
        rng = np.random.default_rng(11)
        for w in all_weights:
            pair = stable_pair(rng, 4, 2, rho=0.8)
            tab = hb.gramian_table(w, pair, 10, tol=1e-10)
            for k in range(10):
                assert hb.stein_residual(w, k, pair, tab[k], tab[k + 1]) < 1e-9

    def test_zero_gramians(self, w_beta2):
        rng = np.random.default_rng(12)
        pair = stable_pair(rng, 3, 2)
        Z = np.zeros((3, 3))
        ref = w_beta2.inv_betas[4] * np.linalg.norm(
            pair.C.conj().T @ pair.C, 2)
        assert hb.stein_residual(w_beta2, 4, pair, Z, Z) == pytest.approx(ref)

    def test_perturbation_linearity(self, w_beta2):
        rng = np.random.default_rng(13)
        pair = stable_pair(rng, 3, 1)
        tab = hb.gramian_table(w_beta2, pair, 1, tol=1e-13)
        eps = 1e-4
        res = hb.stein_residual(w_beta2, 0, pair, tab[0] + eps * np.eye(3),
                                tab[1])
        assert res == pytest.approx(eps, rel=1e-6)


class TestClassify:
    def test_psd_defects_of_a_stack(self):
        # the eigenvalue scale max(|lam_min|, |lam_max|, 1) is the operator
        # norm of a Hermitian matrix floored at 1
        rng = np.random.default_rng(3)
        Ms = [her.hermitize(s * cmat(rng, 4, 4)) for s in (0.1, 1.0, 30.0)]
        Ms.append(np.diag([5.0, 2.0, 1.0, 0.5]))
        got = her._psd_defects(np.stack(Ms))
        for M, d in zip(Ms, got):
            ref = her.min_eig(M) / max(np.linalg.norm(M, 2), 1.0)
            assert d == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert got[-1] == 0.1

    def test_classical_contraction(self, w_hardy):
        rng = np.random.default_rng(14)
        A = cmat(rng, 3, 3)
        A *= 0.8 / np.linalg.norm(A, 2)
        rep = hb.classify(w_hardy, hb.OutputPair(A=A, C=cmat(rng, 2, 3)),
                          k_max=45)
        assert rep.hypercontraction
        assert rep.strongly_stable_beta
        assert rep.exactly_observable

    def test_defect_pair_isometric(self, w_beta2):
        rng = np.random.default_rng(15)
        T = cmat(rng, 3, 3)
        T *= 0.4 / np.linalg.norm(T, 2)
        A = T.conj().T
        D = hb.defect_operator(w_beta2, T)
        rep = hb.classify(w_beta2, hb.OutputPair(A=A, C=D), k_max=20)
        assert rep.isometric_pair
        assert rep.contractive_pair

    def test_radius_guard(self, w_hardy):
        with pytest.raises(hb.SpectralRadiusError):
            hb.classify(w_hardy, hb.OutputPair(A=np.eye(2), C=np.ones((1, 2))))

    def test_zero_output_not_observable(self, w_beta2):
        rep = hb.classify(w_beta2,
                          hb.OutputPair(A=0.4 * np.eye(2), C=np.zeros((1, 2))))
        assert not rep.exactly_observable

    def test_integer_alpha_certificate(self, w_beta3):
        rng = np.random.default_rng(16)
        A = cmat(rng, 3, 3)
        A *= 0.4 / np.linalg.norm(A, 2)
        rep = hb.classify(w_beta3, hb.OutputPair(A=A, C=np.eye(3)), k_max=10)
        assert rep.certified_all_k

    def test_minimality_of_gramian(self, w_beta2):
        # any PSD solution of the inequalities dominates the gramian
        rng = np.random.default_rng(17)
        pair = stable_pair(rng, 3, 2, rho=0.75)
        Q = cmat(rng, 2, 3)
        bigger = hb.OutputPair(A=pair.A, C=np.vstack([pair.C, Q]))
        G = hb.gramian(w_beta2, 0, pair, 1e-12)
        H = hb.gramian(w_beta2, 0, bigger, 1e-12)
        assert np.linalg.eigvalsh(H - G)[0] >= -1e-10


class TestDeltaLimit:
    def test_hardy_identity(self, w_hardy):
        rng = np.random.default_rng(18)
        A = cmat(rng, 3, 3)
        A *= 0.6 / np.linalg.norm(A, 2)
        rep = hb.delta_limit(w_hardy, A, np.eye(3), k_max=30)
        assert rep.converged
        assert np.linalg.norm(rep.delta, 2) < 1e-10
        assert rep.sum_identity_residual < 1e-10

    def test_zero_operator(self, w_beta2):
        rep = hb.delta_limit(w_beta2, np.zeros((2, 2)), np.eye(2), k_max=5)
        assert np.linalg.norm(rep.delta) == 0.0

    def test_gramian_input(self, w_beta2):
        rng = np.random.default_rng(19)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        G = hb.gramian(w_beta2, 0, pair, 1e-12)
        rep = hb.delta_limit(w_beta2, pair.A, G, k_max=60, tol=1e-8)
        assert rep.converged
        assert rep.sum_identity_residual < 1e-7

    def test_domain_guard(self, w_beta2):
        rng = np.random.default_rng(20)
        A = cmat(rng, 3, 3)
        A *= 1.4 / np.linalg.norm(A, 2)
        with pytest.raises(hb.HereditaryDomainError):
            hb.delta_limit(w_beta2, A, np.eye(3))

    def test_diverging_weight_refused(self):
        # the reciprocal series of this weight diverges; delta_limit must
        # refuse it as gamma_map and gamma_k_map do
        w = hb.make_weight_custom([1.0] + [0.01] * 64)
        A = 0.3 * np.eye(2)
        for call in (lambda: hb.gamma_map(w, A, np.eye(2)),
                     lambda: hb.gamma_k_map(w, 1, A, np.eye(2)),
                     lambda: hb.delta_limit(w, A, np.eye(2))):
            with pytest.raises(hb.HereditaryDomainError, match="diverge"):
                call()
