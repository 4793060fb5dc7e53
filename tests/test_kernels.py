import numpy as np
import pytest

import hardybeta as hb
from conftest import cmat, long_copy, series_copy, stable_pair
from hardybeta import kernels as ker
from hardybeta.kernels import check_hardy_to_weighted_multiplier

GRID_Z = [0.2 + 0.3j, -0.5j, 0.62, -0.35 + 0.2j]
GRID_ZT = [0.1 - 0.55j, 0.4, -0.25 - 0.25j]


class TestHardyElements:
    def test_constant_norm(self, w_beta2):
        y = np.array([[1.0 + 2.0j, -1.0]])
        f = hb.HardyElement(w_beta2, y)
        assert f.norm_sq == pytest.approx(6.0, rel=1e-14)

    def test_monomials_orthogonal(self, w_beta3):
        p = 1
        for j in (0, 2, 4):
            for m in (0, 2, 4):
                fj = np.zeros((5, p), dtype=complex)
                fj[j, 0] = 1.0
                fm = np.zeros((5, p), dtype=complex)
                fm[m, 0] = 1.0
                ip = hb.hardy_inner(hb.HardyElement(w_beta3, fj),
                                    hb.HardyElement(w_beta3, fm))
                ref = w_beta3.betas[j] if j == m else 0.0
                assert ip == pytest.approx(ref, abs=1e-15)

    def test_linear_monomial_norm(self, w_beta2):
        f = np.zeros((2, 1), dtype=complex)
        f[1, 0] = 1.0
        assert hb.HardyElement(w_beta2, f).norm_sq == pytest.approx(0.5)

    def test_weight_mismatch(self, w_beta2, w_beta3):
        f = hb.HardyElement(w_beta2, np.ones((2, 1)))
        g = hb.HardyElement(w_beta3, np.ones((2, 1)))
        with pytest.raises(hb.InvalidParameterError):
            hb.hardy_inner(f, g)

    def test_stored_norm_matches_recomputation(self, w_beta25):
        rng = np.random.default_rng(34)
        f = hb.HardyElement(w_beta25, cmat(rng, 9, 3))
        recomputed = sum(w_beta25.betas[j] * np.vdot(f.coeffs[j], f.coeffs[j]).real
                         for j in range(9))
        assert f.norm_sq == pytest.approx(recomputed, rel=1e-12)


class TestShifts:
    def test_adjoint_of_constant_vanishes(self, w_beta2):
        f = hb.HardyElement(w_beta2, np.array([[2.0, 1.0]]))
        g = hb.shift_adjoint_apply(f)
        np.testing.assert_allclose(g.coeffs, 0, atol=0)

    def test_hardy_adjoint_is_left_shift(self, w_hardy):
        rng = np.random.default_rng(35)
        f = hb.HardyElement(w_hardy, cmat(rng, 5, 2))
        g = hb.shift_adjoint_apply(f)
        np.testing.assert_array_equal(g.coeffs, f.coeffs[1:])

    def test_adjoint_relation(self, all_weights):
        rng = np.random.default_rng(36)
        for w in all_weights:
            f = hb.HardyElement(w, cmat(rng, 6, 2))
            g = hb.HardyElement(w, cmat(rng, 7, 2))
            lhs = hb.hardy_inner(hb.shift_apply(f), g)
            rhs = hb.hardy_inner(f, hb.shift_adjoint_apply(g))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_contractive(self, all_weights):
        rng = np.random.default_rng(37)
        for w in all_weights:
            ratios = w.betas[1:20] / w.betas[:19]
            assert ratios.max() <= 1.0 + 1e-14
            f = hb.HardyElement(w, cmat(rng, 12, 1))
            g = hb.shift_adjoint_apply(f)
            assert g.norm_sq <= f.norm_sq * (1 + 1e-12)

    def test_observability_intertwining(self, w_beta25):
        # coefficients of (adjoint shift applied to the observability
        # element) equal those of the element of A x, exactly
        rng = np.random.default_rng(38)
        pair = stable_pair(rng, 3, 2, rho=0.7)
        x = cmat(rng, 3, 1).ravel()
        ox = hb.observability_element(w_beta25, pair, x, 12)
        oax = hb.observability_element(w_beta25, pair, pair.A @ x, 11)
        shifted = hb.shift_adjoint_apply(ox)
        np.testing.assert_allclose(shifted.coeffs, oax.coeffs, atol=1e-13)


class TestSubspaceKernels:
    def test_scalar_closed_form(self, w_hardy):
        a = 0.6
        pair = hb.OutputPair(A=[[a]], C=[[np.sqrt(1 - a * a)]])
        for z in GRID_Z:
            for zt in GRID_ZT:
                got = hb.kernel_coinvariant(w_hardy, pair, z, zt)[0, 0]
                ref = (1 - a * a) / ((1 - z * a) * (1 - np.conj(zt) * a))
                assert got == pytest.approx(ref, abs=1e-12)

    def test_origin_value(self, w_beta2):
        rng = np.random.default_rng(39)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        G_inv = np.linalg.inv(hb.gramian(w_beta2, 0, pair, 1e-13))
        got = hb.kernel_coinvariant(w_beta2, pair, 0.0, 0.0)
        np.testing.assert_allclose(got, pair.C @ G_inv @ pair.C.conj().T,
                                   atol=1e-11)

    def test_hermitian_symmetry(self, w_beta3):
        rng = np.random.default_rng(40)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        for z in GRID_Z[:2]:
            for zt in GRID_ZT[:2]:
                K1 = hb.kernel_coinvariant(w_beta3, pair, z, zt)
                K2 = hb.kernel_coinvariant(w_beta3, pair, zt, z)
                np.testing.assert_allclose(K1, K2.conj().T, atol=1e-12)

    def test_invariant_plus_coinvariant(self, w_beta25):
        rng = np.random.default_rng(41)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        z, zt = 0.3 + 0.2j, -0.4j
        KM = hb.kernel_invariant(w_beta25, pair, z, zt)
        KMp = hb.kernel_coinvariant(w_beta25, pair, z, zt)
        ref = hb.space_kernel(w_beta25, z, zt) * np.eye(2)
        np.testing.assert_allclose(KM + KMp, ref, atol=1e-12)

    def test_scalar_blaschke_invariant_kernel(self, w_hardy):
        a = 0.5
        pair = hb.OutputPair(A=[[a]], C=[[np.sqrt(1 - a * a)]])
        for z in GRID_Z[:3]:
            for zt in GRID_ZT[:2]:
                KM = hb.kernel_invariant(w_hardy, pair, z, zt)[0, 0]
                bl = lambda s: (s - a) / (1 - a * s)
                ref = bl(z) * np.conj(bl(zt)) / (1 - z * np.conj(zt))
                assert KM == pytest.approx(ref, abs=1e-12)

    def test_shifted_kernel_base_case(self, w_beta2):
        rng = np.random.default_rng(42)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        tab = hb.gramian_table(w_beta2, pair, 1, tol=1e-13)
        z, zt = 0.25 - 0.3j, 0.5
        K0 = hb.kernel_shifted(w_beta2, 0, pair, tab, z, zt)
        KM = hb.kernel_invariant(w_beta2, pair, z, zt)
        np.testing.assert_allclose(K0, KM, atol=1e-12)

    def test_shifted_kernel_vanishes_at_origin(self, w_beta2):
        rng = np.random.default_rng(43)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        tab = hb.gramian_table(w_beta2, pair, 2, tol=1e-13)
        np.testing.assert_allclose(
            hb.kernel_shifted(w_beta2, 2, pair, tab, 0.0, 0.3), 0, atol=0)

    def test_gap_is_difference_of_shifted(self, w_beta3):
        rng = np.random.default_rng(44)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        tab = hb.gramian_table(w_beta3, pair, 3, tol=1e-13)
        z, zt = 0.4 + 0.1j, -0.2 + 0.35j
        for k in (0, 1, 2):
            diff = hb.kernel_shifted(w_beta3, k, pair, tab, z, zt) \
                - hb.kernel_shifted(w_beta3, k + 1, pair, tab, z, zt)
            gap = hb.kernel_gap(w_beta3, k, pair, tab, z, zt)
            np.testing.assert_allclose(diff, gap, atol=1e-11)

    def test_partial_sum_reconstruction(self, w_beta2):
        rng = np.random.default_rng(45)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        K = 5
        tab = hb.gramian_table(w_beta2, pair, K + 1, tol=1e-13)
        z, zt = 0.3 - 0.25j, 0.45j
        total = sum(hb.kernel_gap(w_beta2, k, pair, tab, z, zt)
                    for k in range(K + 1))
        total += hb.kernel_shifted(w_beta2, K + 1, pair, tab, z, zt)
        KM = hb.kernel_invariant(w_beta2, pair, z, zt)
        np.testing.assert_allclose(total, KM, atol=1e-10)

    def test_gap_factorization(self, w_beta25):
        rng = np.random.default_rng(46)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta25, pair, k_max=2, tol=1e-13)
        z, zt = 0.35 + 0.2j, -0.3 + 0.4j
        for k in (0, 1):
            gap = hb.kernel_gap(w_beta25, k, pair, fam.gramians, z, zt)
            th_z = hb.transfer_eval(fam, k, z, 1e-13)
            th_zt = hb.transfer_eval(fam, k, zt, 1e-13)
            ref = (z * np.conj(zt)) ** k * (th_z @ th_zt.conj().T)
            np.testing.assert_allclose(gap, ref, atol=1e-11)


class TestOrthogonalityStructure:
    def test_shifted_elements_orthogonal_to_observability_range(self, w_beta2):
        rng = np.random.default_rng(47)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=4, tol=1e-13)
        J = 110
        x = cmat(rng, 3, 1).ravel()
        ox = hb.observability_element(w_beta2, pair, x, J + 6)
        for k in (0, 2, 4):
            tay = hb.transfer_taylor(fam, k, J)
            for i in range(fam.step(k).u):
                coeffs = np.zeros((k + J + 1, 2), dtype=complex)
                for j, T in enumerate(tay):
                    coeffs[k + j] = T[:, i]
                el = hb.HardyElement(w_beta2, coeffs)
                assert abs(hb.hardy_inner(el, ox)) < 1e-10

    def test_shifted_observability_orthogonal_to_later_steps(self, w_beta3):
        # the k-shifted observability element is orthogonal to every
        # element of the steps at indices >= k
        rng = np.random.default_rng(48)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta3, pair, k_max=4, tol=1e-13)
        J = 110
        k = 2
        x = cmat(rng, 3, 1).ravel()
        obs = hb.observability_coeffs(w_beta3, k, pair, J + 4)
        coeffs_obs = np.zeros((k + J + 5, 2), dtype=complex)
        for j, M in enumerate(obs):
            coeffs_obs[k + j] = (M @ x)
        el_obs = hb.HardyElement(w_beta3, coeffs_obs)
        for l in (k, k + 1, k + 2):
            tay = hb.transfer_taylor(fam, l, J)
            for i in range(fam.step(l).u):
                coeffs = np.zeros((l + J + 1, 2), dtype=complex)
                for j, T in enumerate(tay):
                    coeffs[l + j] = T[:, i]
                el = hb.HardyElement(w_beta3, coeffs)
                assert abs(hb.hardy_inner(el, el_obs)) < 1e-9

    def test_shift_isometry_defect_identity(self, w_beta2):
        # for a polynomial input f, the energy defect of the shifted
        # multiplication operator is the sum of the shift-defect terms
        rng = np.random.default_rng(49)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        k = 1
        st = fam.step(k)
        J = 120
        tay = hb.transfer_taylor(fam, k, J)
        deg = 4
        f = cmat(rng, deg + 1, st.u)

        def shifted_theta_coeffs(g):
            # coefficients of S^k Theta_k g for polynomial g
            L = k + J + deg + 2
            out = np.zeros((L, 2), dtype=complex)
            for d in range(g.shape[0]):
                for j, T in enumerate(tay):
                    out[k + d + j] += T @ g[d]
            return out

        el = hb.HardyElement(w_beta2, shifted_theta_coeffs(f))
        fnorm = float(np.sum(np.abs(f) ** 2))
        defect_sum = 0.0
        for j in range(1, deg + 1):
            g = f[j:]
            coeffs = shifted_theta_coeffs(g)
            # (I - S* S)^(1/2) acts diagonally with factor
            # sqrt(1 - beta_{m+1}/beta_m) in degree m
            fac = np.sqrt(1.0 - w_beta2.betas[1:coeffs.shape[0] + 1]
                          / w_beta2.betas[:coeffs.shape[0]])
            defect_sum += float(
                np.sum(w_beta2.betas[:coeffs.shape[0]]
                       * np.sum(np.abs(fac[:, None] * coeffs) ** 2, axis=1)))
        assert el.norm_sq == pytest.approx(fnorm - defect_sum, abs=1e-8)


class TestInnerFamilyCheck:
    def test_built_family_passes(self, w_beta2):
        rng = np.random.default_rng(50)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=6, tol=1e-13)
        rep = hb.check_inner_family(fam, k_max=6, J=100, tol=1e-8)
        assert rep.verdict == "pass"
        assert rep.isometry_residual < 1e-9
        assert rep.orthogonality_residual < 1e-9
        assert [d["k"] for d in rep.details["containment"]] == list(range(7))
        for d in rep.details["containment"]:
            assert d["residual"] <= 1e-10
            assert d["allowance"] <= 1e-10

    def test_J_past_the_table(self, w_beta2):
        # the columns reach degree k_max + J: past the table beta_2 reads
        # the entries of a longer one, and a custom weight its own
        # continuation, for which its family is inner too
        rng = np.random.default_rng(50)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=6, tol=1e-13)
        J = w_beta2.trunc_len - 6
        rep = hb.check_inner_family(fam, k_max=6, J=J, tol=1e-8)
        assert rep.verdict == "pass"
        assert rep.details["J"] == J
        longer = hb.build_family(long_copy(w_beta2), pair, k_max=6,
                                 tol=1e-13)
        assert hb.check_inner_family(fam, k_max=6, J=J + 1, tol=1e-8) \
            == hb.check_inner_family(longer, k_max=6, J=J + 1, tol=1e-8)
        custom = hb.build_family(series_copy(w_beta2), pair, k_max=6,
                                 tol=1e-13)
        for J_past in (J + 1, 400):
            rep = hb.check_inner_family(custom, k_max=6, J=J_past, tol=1e-8)
            assert rep.verdict == "pass" and rep.details["J"] == J_past

    def test_extra_zero_degree_changes_nothing(self, w_beta2, monkeypatch):
        # columns one degree longer (all zero there) give the same
        # residuals at criterion 5's k_max and J, up to roundoff
        rng = np.random.default_rng(53)
        pair = stable_pair(rng, 4, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=8, tol=1e-13)
        rep = hb.check_inner_family(fam, k_max=8, J=110, tol=1e-7)
        columns = ker._element_columns
        monkeypatch.setattr(ker, "_element_columns",
                            lambda w, taylor, length:
                            columns(w, taylor, length + 1))
        longer = hb.check_inner_family(fam, k_max=8, J=110,
                                       tol=1e-7)
        for name in ("isometry_residual", "orthogonality_residual",
                     "containment_residual", "containment_allowance"):
            assert getattr(rep, name) == pytest.approx(
                getattr(longer, name), rel=1e-9, abs=1e-15), name
        assert rep.verdict == longer.verdict == "pass"

    def test_scaled_feedthrough_fails_containment(self, w_beta2):
        # S^3 Theta_2 u leaves M_3 when D_2 alone is scaled by 1 + 1e-3;
        # no other step's containment moves
        rng = np.random.default_rng(50)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=6, tol=1e-13)
        st = fam.step(2)
        fam.steps[2] = hb.ColligationStep(B=st.B, D=(1 + 1e-3) * st.D,
                                          u=st.u)
        rep = hb.check_inner_family(fam, k_max=6, J=100, tol=1e-8)
        assert rep.verdict == "fail"
        for d in rep.details["containment"]:
            if d["k"] == 2:
                assert d["residual"] > 1e-6 + d["allowance"]
            else:
                assert d["residual"] <= 1e-10

    def test_hardy_family_containment_exact(self, w_hardy):
        # constant weight: all steps share one transfer function, so the
        # shifted image lies in the next step's range exactly
        rng = np.random.default_rng(51)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_hardy, pair, k_max=6, tol=1e-13)
        rep = hb.check_inner_family(fam, k_max=6, J=100, tol=1e-8)
        assert rep.verdict == "pass"
        assert rep.containment_residual < 1e-9

    def test_scaled_step_fails_isometry(self, w_beta2):
        rng = np.random.default_rng(52)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=3, tol=1e-13)
        st = fam.step(0)
        fam.steps[0] = hb.ColligationStep(B=2 * st.B, D=2 * st.D, u=st.u)
        rep = hb.check_inner_family(fam, k_max=3, J=100, tol=1e-8)
        assert rep.verdict == "fail"
        assert rep.isometry_residual == pytest.approx(3.0, rel=0.05)


    def test_nan_step_fails(self, w_beta2):
        # a NaN in one step's B fails the verdict instead of raising
        rng = np.random.default_rng(50)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=6, tol=1e-13)
        st = fam.step(2)
        B = st.B.copy()
        B[1, 0] = np.nan
        fam.steps[2] = hb.ColligationStep(B=B, D=st.D, u=st.u)
        rep = hb.check_inner_family(fam, k_max=6, J=100, tol=1e-8)
        assert rep.verdict == "fail"
        assert np.isnan(rep.isometry_residual)
        assert np.isnan(rep.containment_residual)
        for d in rep.details["containment"]:
            assert np.isnan(d["residual"]) == (d["k"] == 2)


class TestContractiveMultiplier:
    def test_zero_is_contractive(self, w_beta2):
        rep = hb.check_contractive_multiplier(
            w_beta2, lambda z: np.zeros((2, 2)), hb.default_grid())
        assert rep.contractive

    def test_blaschke_contractive_all_weights(self, all_weights):
        bl = lambda z: np.array([[(z - 0.5) / (1 - 0.5 * z)]])
        for w in all_weights:
            rep = hb.check_contractive_multiplier(w, bl, hb.default_grid())
            assert rep.contractive
            assert rep.block_kernel_min_eig >= -1e-8

    def test_expansion_fails(self, w_beta3):
        rep = hb.check_contractive_multiplier(
            w_beta3, lambda z: 1.1 * np.eye(2), hb.default_grid())
        assert not rep.contractive
        assert rep.sup_norm == pytest.approx(1.1)

    def test_nan_at_one_point_fails(self, w_beta2):
        # the sup norm is a stacked operator norm over the grid values
        grid = hb.default_grid()
        bad = grid[5]

        def theta(z):
            if z == bad:
                return np.full((1, 1), np.nan)
            return np.array([[(z - 0.5) / (1 - 0.5 * z)]])
        rep = hb.check_contractive_multiplier(w_beta2, theta, grid)
        assert not rep.contractive
        assert np.isnan(rep.sup_norm) and np.isnan(rep.block_kernel_min_eig)

    @pytest.mark.parametrize("check", [hb.check_contractive_multiplier,
                                       check_hardy_to_weighted_multiplier])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_theta_fails(self, w_beta2, check, bad):
        # Theta(z_i) Theta(z_j)* warned "invalid value encountered in
        # matmul" before anything masked the infinite values
        def theta(z):
            return np.full((1, 1), bad if abs(z) > 0.7 else 0.5 * z)
        rep = check(w_beta2, theta, hb.default_grid())
        assert not rep.contractive
        assert np.isnan(rep.sup_norm) and np.isnan(rep.block_kernel_min_eig)


    def test_wandering_theta_mixed_criterion(self, w_beta3):
        rng = np.random.default_rng(53)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.wandering_theta(w_beta3, pair)
        rep = check_hardy_to_weighted_multiplier(
            w_beta3, lambda z: hb.transfer_eval(fam, 0, z), hb.default_grid())
        assert rep.contractive


class TestArrayEvaluators:
    """Kernels and transfer functions evaluated on whole point arrays."""

    PTS = [0.0, 0.2 + 0.1j, -0.3j, 0.5, -0.45 + 0.3j]

    def pair_and_family(self, w):
        rng = np.random.default_rng(95)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        return pair, hb.build_family(w, pair, k_max=3, tol=1e-13)

    def kernels(self, w, pair, fam):
        tab = fam.gramians
        return {
            "coinvariant": lambda z, zt: hb.kernel_coinvariant(w, pair, z, zt),
            "invariant": lambda z, zt: hb.kernel_invariant(w, pair, z, zt),
            "shifted": lambda z, zt: hb.kernel_shifted(w, 2, pair, tab, z, zt),
            "gap": lambda z, zt: hb.kernel_gap(w, 1, pair, tab, z, zt),
        }

    def pointwise(self, f, zs, zts):
        return np.array([[f(z, zt) for zt in zts] for z in zs])

    def test_shapes(self, w_beta2):
        pair, fam = self.pair_and_family(w_beta2)
        pts = self.PTS
        for f in self.kernels(w_beta2, pair, fam).values():
            assert f(0.3, -0.2j).shape == (2, 2)
            assert f(pts, -0.2j).shape == (5, 2, 2)
            assert f(0.3, pts[:3]).shape == (3, 2, 2)
            assert f(pts, pts[:3]).shape == (5, 3, 2, 2)
        assert hb.space_kernel(w_beta2, pts, pts[:3]).shape == (5, 3)
        assert hb.space_kernel(w_beta2, 0.3, 0.1).shape == ()
        u = fam.step(1).u
        assert hb.transfer_eval(fam, 1, 0.3).shape == (2, u)
        assert hb.transfer_eval(fam, 1, pts).shape == (5, 2, u)

    def test_resolvents_one_point_and_closed_forms(self, w_hardy, w_beta2):
        rng = np.random.default_rng(96)
        A = stable_pair(rng, 3, 1, rho=0.6).A
        zs = np.asarray(hb.default_grid(), dtype=complex)  # z = 0 included
        tol = 1e-12
        for w, power in ((w_hardy, 1), (w_beta2, 2)):
            for k in (0, 3):
                R = hb.resolvents(w, k, A, zs, tol)
                assert R.shape == (33, 3, 3)
                # the scalar call is the one-point grid, bit for bit
                for z in zs[[0, 9, 32]]:
                    np.testing.assert_array_equal(
                        hb.resolvent_apply(w, k, A, z, tol),
                        hb.resolvents(w, k, A, [z], tol)[0])
                # one cut per grid against one cut per point
                ref = np.array([hb.resolvent_apply(w, k, A, z, tol)
                                for z in zs])
                np.testing.assert_allclose(R, ref, rtol=0, atol=tol)
                # closed forms: R_k = (I - zA)^-1 for hardy and
                # (I - zA)^-2 + k (I - zA)^-1 for beta_2
                inv = np.linalg.inv(np.eye(3) - zs[:, None, None] * A)
                exact = inv if power == 1 else inv @ inv + k * inv
                np.testing.assert_allclose(R, exact, rtol=0, atol=tol)

    def test_transfer_eval_within_tol(self, w_beta25):
        _, fam = self.pair_and_family(w_beta25)
        for k in (0, 2):
            got = hb.transfer_eval(fam, k, self.PTS, 1e-13)
            ref = np.array([hb.transfer_eval(fam, k, z, 1e-13)
                            for z in self.PTS])
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    def test_coinvariant_and_gap_within_tol(self, w_beta3):
        pair, fam = self.pair_and_family(w_beta3)
        kern = self.kernels(w_beta3, pair, fam)
        zts = self.PTS[1:4]
        for kind in ("coinvariant", "gap"):
            f = kern[kind]
            ref = self.pointwise(f, self.PTS, zts)
            np.testing.assert_allclose(f(self.PTS, zts), ref, rtol=0,
                                       atol=1e-12)
            np.testing.assert_allclose(f(self.PTS, self.PTS),
                                       self.pointwise(f, self.PTS, self.PTS),
                                       rtol=0, atol=1e-12)

    def test_transfer_eval_reads_the_pairs_radius(self, w_beta2,
                                                  monkeypatch):
        # the grid's resolvents take the spectral radius cached on the
        # family's pair: not one solve per point, nor one per grid
        _, fam = self.pair_and_family(w_beta2)
        her = hb.hereditary
        calls = []
        original = her.spectral_radius

        def counted(A):
            calls.append(1)
            return original(A)

        monkeypatch.setattr(her, "spectral_radius", counted)
        vals = hb.transfer_eval(fam, 1, hb.default_grid(), 1e-13)
        assert vals.shape[0] == 33
        assert calls == []

    def test_no_eigen_solve_past_the_table(self, w_beta25, monkeypatch):
        # a beta_2.5 pair's gramian table diagonalizes A once; every kernel
        # grid on the pair and every transfer evaluation of its family
        # reads that diagonalization and the pair's spectral radius
        pair, fam = self.pair_and_family(w_beta25)
        assert pair.diagonalization is not None
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda A, _f=original, _n=name:
                                calls.append(_n) or _f(A))
        pts = hb.default_grid()
        hb.kernel_coinvariant(w_beta25, pair, pts, pts)
        hb.kernel_invariant(w_beta25, pair, pts, pts[:3])
        hb.kernel_shifted(w_beta25, 1, pair, fam.gramians, pts, pts)
        hb.kernel_gap(w_beta25, 1, pair, fam.gramians, pts, pts)
        hb.transfer_eval(fam, [0, 1, 2], pts, 1e-13)
        hb.defect_kernel(fam, 1, 0.3, 0.2j)
        assert calls == []

    def test_scalar_kernel_within_tol(self, w_beta2):
        # the scalar series is cut once at the grid's largest |z conj(zeta)|;
        # a pointwise cut is never later, and the terms between the two cuts
        # are within the pointwise tail bound, itself below tol
        pair, fam = self.pair_and_family(w_beta2)
        kern = self.kernels(w_beta2, pair, fam)
        tol = 1e-12
        for f in (lambda z, zt: hb.space_kernel(w_beta2, z, zt, tol),
                  kern["invariant"], kern["shifted"]):
            ref = self.pointwise(f, self.PTS, self.PTS)
            np.testing.assert_allclose(f(self.PTS, self.PTS), ref, rtol=0,
                                       atol=tol)

    def test_hermitian_symmetry_on_grid(self, w_beta2):
        pair, fam = self.pair_and_family(w_beta2)
        for kind, f in self.kernels(w_beta2, pair, fam).items():
            V = f(self.PTS, self.PTS)
            mirror = V.swapaxes(0, 1).conj().swapaxes(-1, -2)
            np.testing.assert_allclose(V, mirror, rtol=0, atol=1e-12,
                                       err_msg=kind)
        # a perturbed off-diagonal entry breaks the symmetry
        V[0, 1] += 0.1j
        mirror = V.swapaxes(0, 1).conj().swapaxes(-1, -2)
        assert np.max(np.abs(V - mirror)) > 0.05

    @pytest.mark.parametrize("bad", [1.0, -0.6 - 0.8j, 1.5j, np.nan,
                                     complex(0.2, np.inf)])
    def test_points_outside_disk_refused(self, w_beta2, bad):
        # A = 0.5 I converges at |z| = 1, so only the domain check refuses
        pair = hb.OutputPair(A=0.5 * np.eye(2), C=np.eye(2))
        tab = hb.gramian_table(w_beta2, pair, 3)
        for f in (lambda z, zt: hb.kernel_coinvariant(w_beta2, pair, z, zt),
                  lambda z, zt: hb.kernel_gap(w_beta2, 1, pair, tab, z, zt)):
            for z, zt in ((bad, 0.3), (0.3, bad), ([0.0, bad], [0.0, 0.2])):
                with pytest.raises(hb.InvalidParameterError, match="|z| < 1"):
                    f(z, zt)


def _bits(a):
    """The bit patterns of a complex array's parts: equal patterns are
    equal floats with equal signs, zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("kind", ["coinvariant", "invariant", "shifted",
                                  "gap"])
def test_grid_hermitian_off_the_diagonal(all_weights, kind, k):
    # with zeta is z, every block below the diagonal is the conjugate
    # transpose of its mirror bit for bit; at k = 2 the point 0 makes
    # zeros, whose signs are mirrored too
    rng = np.random.default_rng(97)
    pair = stable_pair(rng, 4, 2, rho=0.6)
    pts = ker.default_grid()
    i, j = np.tril_indices(len(pts), -1)
    for w in all_weights:
        tab = hb.gramian_table(w, pair, k + 1, tol=1e-12)
        K = {"coinvariant": lambda: hb.kernel_coinvariant(w, pair, pts, pts),
             "invariant": lambda: hb.kernel_invariant(w, pair, pts, pts),
             "shifted": lambda: hb.kernel_shifted(w, k, pair, tab, pts, pts),
             "gap": lambda: hb.kernel_gap(w, k, pair, tab, pts, pts),
             }[kind]()
        np.testing.assert_array_equal(
            _bits(K[i, j]), _bits(K[j, i].conj().swapaxes(-1, -2)))


class TestRefusals:
    def test_element_past_the_weight_table(self):
        # beta_2 reads the weights of a longer table; a custom weight
        # continues at its last ratio s = beta_3 / beta_4 = 5/4
        w = hb.make_weight_beta_alpha(2.0, 4)
        f = hb.HardyElement(w, np.ones((6, 1)))
        assert f.norm_sq \
            == hb.HardyElement(long_copy(w), np.ones((6, 1))).norm_sq
        assert hb.shift_adjoint_apply(f).coeffs.tolist() \
            == hb.shift_adjoint_apply(hb.HardyElement(
                long_copy(w), np.ones((6, 1)))).coeffs.tolist()
        g = hb.HardyElement(series_copy(w), np.ones((6, 1)))
        assert g.norm_sq == pytest.approx(
            sum(w.betas) + w.betas[4] * 4 / 5, rel=1e-15)
        np.testing.assert_allclose(
            hb.shift_adjoint_apply(g).coeffs[:, 0],
            np.append(w.betas[1:] / w.betas[:-1], 4 / 5), rtol=1e-15)

    def test_one_space_whatever_the_table(self):
        # a weight is its R: hardy at 16 and 256 entries is one space, as
        # is beta_alpha at one alpha; custom weights compare by table
        def inner(v, w):
            return hb.hardy_inner(hb.HardyElement(v, [[1]]),
                                  hb.HardyElement(w, [[1]]))
        assert inner(hb.make_weight_hardy(16), hb.make_weight_hardy(256)) \
            == 1
        assert inner(hb.make_weight_beta_alpha(2.5, 16),
                     hb.make_weight_beta_alpha(2.5, 256)) == 1
        custom = hb.make_weight_custom(0.5 ** np.arange(9))
        assert inner(custom, hb.make_weight_custom(0.5 ** np.arange(9))) == 1
        for v, w in ((hb.make_weight_beta_alpha(2.0, 16),
                      hb.make_weight_beta_alpha(2.5, 16)),
                     (hb.make_weight_hardy(16), hb.make_weight_beta_alpha(
                         2.0, 16)),
                     (custom, hb.make_weight_custom(0.5 ** np.arange(10)))):
            with pytest.raises(hb.InvalidParameterError,
                               match="^elements live in different spaces$"):
                inner(v, w)

    def test_inner_product_value_dimensions(self, w_beta2):
        f = hb.HardyElement(w_beta2, np.ones((2, 1)))
        g = hb.HardyElement(w_beta2, np.ones((2, 2)))
        with pytest.raises(hb.InvalidParameterError,
                           match="^value dimensions differ$"):
            hb.hardy_inner(f, g)
