import copy

import numpy as np
import pytest

import hardybeta as hb
from conftest import cmat, deep_term, hypercontraction_T, stable_pair
from hardybeta import model as mod
from hardybeta.model import defect_form_family


class TestDefectOperator:
    def test_hardy_classical_defect(self, w_hardy):
        rng = np.random.default_rng(54)
        T = cmat(rng, 3, 3)
        T *= 0.7 / np.linalg.norm(T, 2)
        D = hb.defect_operator(w_hardy, T)
        lam, V = np.linalg.eigh(np.eye(3) - T @ T.conj().T)
        ref = (V * np.sqrt(lam)) @ V.conj().T
        np.testing.assert_allclose(D, ref, atol=1e-12)

    def test_zero_operator(self, w_beta2):
        np.testing.assert_allclose(
            hb.defect_operator(w_beta2, np.zeros((2, 2))), np.eye(2), atol=0)

    def test_scalar_beta2(self, w_beta2):
        for t in (0.3, 0.5 + 0.2j):
            D = hb.defect_operator(w_beta2, [[t]])
            assert D[0, 0] == pytest.approx(1 - abs(t) ** 2, abs=1e-12)

    def test_expansion_rejected(self, w_hardy):
        # an adjoint that is not a contraction fails the hypothesis by name
        with pytest.raises(hb.ModelHypothesisError, match=(
                r"^adjoint is not a contraction: I - A\* A has eigenvalue "
                r"-6\.900e-01$")):
            hb.defect_operator(w_hardy, 1.3 * np.eye(2))

    def test_negative_defect_refused(self, w_beta2):
        # A = T* = N, the 2 x 2 shift: I - A* A = diag(1, 0) is in the
        # domain, but Gamma[I] = I - 2 A* A + A*^2 A^2 = diag(1, -1)
        with pytest.raises(hb.ModelHypothesisError, match=(
                r"^Gamma\[I\] has eigenvalue -1\.000e\+00: "
                "not a star-hypercontraction$")):
            hb.defect_operator(w_beta2, np.diag([1.0], -1))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, w_beta2, bad):
        # a NaN T used to give a NaN defect
        T = np.diag([0.5, 0.2]).astype(complex)
        T[1, 0] = bad
        for call in (hb.defect_operator, defect_form_family,
                     hb.characteristic_family):
            with pytest.raises(hb.HereditaryDomainError,
                               match="^A must be finite$"):
                call(w_beta2, T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_refused(self, bad):
        G = np.eye(2, dtype=complex)
        G[0, 1] = bad
        with pytest.raises(hb.ModelHypothesisError, match=(
                r"^Gamma\[I\] has eigenvalue nan: not a star-hypercontraction$")):
            mod._defect_root(G, 1e-10)


class TestCharacteristicFamily:
    def test_weight_is_the_family_weight(self, w_beta3):
        char = hb.characteristic_family(w_beta3, [[0.4]], k_max=2)
        assert char.weight is char.family.weight is w_beta3

    def test_scalar_golden_blaschke(self, w_hardy):
        char = hb.characteristic_family(w_hardy, [[0.5]], k_max=3)
        for z in (0.2, 0.4 - 0.3j, 0.7j):
            got = hb.transfer_eval(char.family, 0, z, 1e-13)[0, 0]
            assert got == pytest.approx((z - 0.5) / (1 - 0.5 * z), abs=1e-12)

    def test_zero_operator_gives_shift(self, w_hardy):
        # the transfer function is z times a constant unitary (the unitary
        # reflects the right basis freedom of the factorization)
        char = hb.characteristic_family(w_hardy, np.zeros((2, 2)), k_max=2)
        U = hb.transfer_eval(char.family, 0, 0.5, 1e-13) / 0.5
        np.testing.assert_allclose(U @ U.conj().T, np.eye(2), atol=1e-12)
        for z in (0.3, -0.5j):
            np.testing.assert_allclose(
                hb.transfer_eval(char.family, 0, z, 1e-13), z * U,
                atol=1e-12)

    # a distinct operator of acceptance criterion 9 (seed 2, beta_3 at 768
    # terms), of spectral radius 0.65: past 0.54, where a decay like
    # rho^(2k) no longer reaches 1e-8 by depth 20
    T_SLOW = np.array([
        [0.41575247828230655 + 0.15993895553585377j,
         -0.02441475804397368 - 0.07594575850396067j],
        [0.1593451564353697 + 0.2554472181099646j,
         0.5565849393679749 + 0.17292611588658735j]])

    @staticmethod
    def spy_sums(monkeypatch):
        """The shifts of every ``_hereditary_sums`` call that
        ``characteristic_family`` makes."""
        real = mod._hereditary_sums
        calls = []

        def spy(w, op, X, ks, *args, **kwargs):
            calls.append(list(ks))
            return real(w, op, X, ks, *args, **kwargs)
        monkeypatch.setattr(mod, "_hereditary_sums", spy)
        return calls

    @pytest.mark.parametrize("weight, T, k_max", [
        (hb.make_weight_beta_alpha(3.0, 768), T_SLOW, 6),
        (hb.make_weight_hardy(), [[0.999]], 2),
        (hb.make_weight_beta_alpha(2.0), [[0.999]], 2),
        (hb.make_weight_beta_alpha(2.0), [[0.999]], 24),
        (hb.make_weight_hardy(), np.diag(np.ones(49), -1), 24),
    ], ids=["slow-beta3", "edge-hardy", "edge-beta2", "edge-beta2-k24",
            "shift50-hardy"])
    def test_one_stack_at_the_classify_depth(self, weight, T, k_max,
                                             monkeypatch):
        # the stack's depth does not follow rho(T): one hereditary sum of
        # max(20, k_max) shifts, classify's default depth, and the rules
        # decide every shift beyond it
        calls = self.spy_sums(monkeypatch)
        report = hb.characteristic_family(weight, T,
                                          k_max=k_max).classification
        depth = max(20, k_max)
        assert calls == [list(range(1, depth + 1))]
        assert report.k_checked == depth
        assert report.certified_all_k and report.strongly_stable_beta

    def test_gramian_is_identity(self, all_weights):
        rng = np.random.default_rng(55)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 2)
            char = hb.characteristic_family(w, T, k_max=4)
            assert char.gramian_identity_residual < 1e-9
            assert char.classification.isometric_pair

    def test_defect_is_the_defect_operator(self, all_weights):
        # the family takes D from row 0 of its hereditary stack; for
        # beta_2.5 both are the spectral route's (a series, each with tail
        # <= tol, for A past its gate)
        rng = np.random.default_rng(59)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 3)
            D = hb.characteristic_family(w, T, k_max=4, tol=1e-10).defect
            ref = hb.defect_operator(w, T, tol=1e-10)
            if w.alpha is None or float(w.alpha).is_integer():
                np.testing.assert_allclose(D, ref, rtol=0, atol=1e-13)
            else:
                np.testing.assert_allclose(D @ D, ref @ ref, rtol=0,
                                           atol=2e-10)

    def test_gramian_tail_bound_is_the_family_table(self, all_weights):
        rng = np.random.default_rng(60)
        for w in all_weights:
            char = hb.characteristic_family(w, hypercontraction_T(w, rng, 2),
                                            k_max=4)
            assert char.classification.residuals["gramian_tail_bound"] \
                == char.family.gramians.tail_bounds[0]

    def test_not_hypercontraction_refused(self, w_beta2):
        # T* = s N^T with s^2 = 0.503: Gamma[I] = (I - L)^2 I has eigenvalue
        # 1 - 2 s^2 = -6e-3, inside the defect operator's 10 tol allowance
        # but outside the tol at which classify certifies
        T = np.sqrt(0.503) * np.diag([1.0], 1)
        with pytest.raises(hb.ModelHypothesisError,
                           match="^adjoint is not a hypercontraction: "):
            hb.characteristic_family(w_beta2, T, tol=1e-3)

    @staticmethod
    def near_unitary(n, r):
        """``r U`` for a unitary ``U``: the QR factor of a complex Gaussian
        draw from ``default_rng(270)``, its phases fixed by ``R``."""
        rng = np.random.default_rng(270)
        Q, R = np.linalg.qr(cmat(rng, n, n))
        return r * Q * (np.diag(R) / abs(np.diag(R)))

    @pytest.mark.parametrize("weight, n, r", [
        pytest.param(w, 1, 0.97, id=w)
        for w in ("w_hardy", "w_beta2", "w_beta25")] + [
        pytest.param(w, n, r, id=f"{w}-n{n}-r{r}")
        for w in ("w_hardy", "w_beta2", "w_beta3")
        for n, r in ((4, 0.97), (4, 0.99), (8, 0.97), (8, 0.99),
                     (1, 0.99), (1, 0.995), (1, 0.999))] + [
        pytest.param("w_beta25", n, r, id=f"w_beta25-n{n}-r{r}")
        for n, r in ((4, 0.97), (4, 0.99), (8, 0.97), (8, 0.99),
                     (1, 0.99), (1, 0.995))])
    def test_strongly_stable_near_the_circle_answered(self, weight, n, r,
                                                      request, monkeypatch):
        # rho(T) < 1: T* is strongly stable for every weight, and its
        # characteristic family exists; T = r U, or the scalar T = r, is
        # answered up to the domain's edge from one hereditary sum, at the
        # rate r^2, and a deep term the test sums itself confirms the
        # verdict
        w = request.getfixturevalue(weight)
        T = self.near_unitary(n, r) if n > 1 else np.array([[r]])
        calls = self.spy_sums(monkeypatch)
        report = hb.characteristic_family(w, T, k_max=2).classification
        assert len(calls) == 1
        assert report.strongly_stable_beta
        assert report.residuals["strong_stability_rate"] == pytest.approx(
            r * r, rel=1e-12)
        assert deep_term(w, T.conj().T, r) <= 1e-8

    def test_flat_below_the_dimension_is_not_a_verdict(self, w_hardy,
                                                        monkeypatch):
        # A = T* is the nilpotent 50 x 50 shift: A^{*d} A^d is a projection
        # of norm 1 at the stack's depth 20 and 0 from 50 on; the rate
        # rho(A)^2 = 0 decides, with no deeper sum
        calls = self.spy_sums(monkeypatch)
        char = hb.characteristic_family(w_hardy, np.diag(np.ones(49), -1),
                                        k_max=2)
        assert calls == [list(range(1, 21))]
        report = char.classification
        assert report.strongly_stable_beta
        assert report.residuals["strong_stability_rate"] == 0.0
        assert report.residuals["beta_strong_stability"] == pytest.approx(
            1.0, rel=1e-12)

    @pytest.mark.parametrize("T", [[[2 ** -0.5]], np.diag([2 ** -0.5, 0.0])],
                             ids=["zero-defect", "series"])
    def test_custom_rate_one_is_not_answered(self, T, monkeypatch):
        # past its table [1, 1/2] the weight continues at s = 2, so A = T*
        # of spectral radius 2^-1/2 has the rate 1: not strongly stable,
        # refused by the rate before any sum
        calls = self.spy_sums(monkeypatch)
        with pytest.raises(hb.ModelHypothesisError, match=(
                r"^adjoint is not strongly stable in the weighted sense: "
                r"s rho\(A\)\^2 = 1 >= 1$")):
            hb.characteristic_family(hb.make_weight_custom([1.0, 0.5]), T,
                                     k_max=2)
        assert calls == []

    def test_non_stable_rejected(self, w_beta2):
        # operator norm above 1 fails the hypercontraction hypothesis by
        # name, at every entry that takes T
        for call in (hb.characteristic_family, hb.defect_operator,
                     defect_form_family):
            with pytest.raises(hb.ModelHypothesisError, match=(
                    r"^adjoint is not a contraction: I - A\* A has "
                    r"eigenvalue -4\.400e-01$")):
                call(w_beta2, 1.2 * np.eye(2))


class TestCoincidence:
    def test_self_coincides_trivially(self, w_beta2):
        rng = np.random.default_rng(56)
        T = hypercontraction_T(w_beta2, rng, 2)
        char = hb.characteristic_family(w_beta2, T, k_max=4)
        res = hb.check_coincidence(char, char, tol=1e-10)
        assert res.coincide
        assert res.residual < 1e-12

    def test_unitary_conjugation(self, all_weights):
        rng = np.random.default_rng(57)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 3)
            Q, _ = np.linalg.qr(cmat(rng, 3, 3))
            famA = hb.characteristic_family(w, T, k_max=5)
            famB = hb.characteristic_family(w, Q @ T @ Q.conj().T, k_max=5)
            res = hb.check_coincidence(famA, famB, tol=1e-7)
            assert res.coincide
            assert res.residual < 1e-10
            assert res.sweeps == 2  # the intertwiner start converges at once
            # returned unitaries actually align the families
            z = 0.3 - 0.2j
            TA = hb.transfer_eval(famA.family, 2, z, 1e-13)
            TB = hb.transfer_eval(famB.family, 2, z, 1e-13)
            np.testing.assert_allclose(res.tau @ TA, TB @ res.sigmas[2],
                                       atol=1e-9)

    def test_distinct_spectra_do_not_coincide(self, w_beta2):
        rng = np.random.default_rng(58)
        T = hypercontraction_T(w_beta2, rng, 2)
        famA = hb.characteristic_family(w_beta2, T, k_max=4)
        famB = hb.characteristic_family(w_beta2, 0.5 * T, k_max=4)
        res = hb.check_coincidence(famA, famB, tol=1e-7)
        assert not res.coincide
        # the system's smallest singular value rules out every unitary pair
        # before a sweep (the one start ran 45 sweeps to stall at 0.695)
        assert res.sweeps == 0 and res.tau is None
        assert res.residual == pytest.approx(0.17578, rel=1e-4)

    def test_residual_floor_holds(self, all_weights):
        # with tol above the floor the sweeps run, and every residual they
        # reach stays above it; a conjugated family has floor <= 0
        rng = np.random.default_rng(60)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 3)
            famA = hb.characteristic_family(w, T, k_max=4)
            for S in (0.6 * T, T + 0.3 * np.eye(3),
                      hypercontraction_T(w, rng, 3)):
                famB = hb.characteristic_family(w, S, k_max=4)
                floor = hb.check_coincidence(famA, famB, tol=1e-7).residual
                assert floor > 1e-7
                res = hb.check_coincidence(famA, famB, tol=2 * floor)
                assert res.sweeps > 0 and res.residual >= floor
            Q, _ = np.linalg.qr(cmat(rng, 3, 3))
            famB = hb.characteristic_family(w, Q @ T @ Q.conj().T, k_max=4)
            res = hb.check_coincidence(famA, famB, tol=1e-7)
            assert res.coincide and res.sweeps > 0

    def test_repeated_eigenvalue_self_coincides(self, all_weights):
        # the family's self-intertwiners form a commutant of more than one
        # dimension; a start from the normal equations misses it
        T = np.diag([0.3, 0.3, 0.2]).astype(complex)
        for w in all_weights:
            char = hb.characteristic_family(w, T, k_max=4)
            assert hb.check_coincidence(char, char, tol=1e-10).coincide

    def test_equal_blocks_defect_form(self, all_weights):
        # the SVD spans this commutant with singular matrices; the last one
        # alone is no start
        X = np.array([[0.3, 0.1], [0.0, -0.2]], dtype=complex)
        X *= 0.35 / np.linalg.norm(X, 2)
        T = np.kron(np.eye(2), X)
        for w in all_weights:
            char = hb.characteristic_family(w, T, k_max=4)
            alt = defect_form_family(w, T, k_max=4)
            assert hb.check_coincidence(char.family, alt, tol=1e-8).coincide

    def test_dimension_mismatch_is_structural(self, w_beta2):
        rng = np.random.default_rng(59)
        famA = hb.characteristic_family(w_beta2,
                                        hypercontraction_T(w_beta2, rng, 2),
                                        k_max=3)
        famB = hb.characteristic_family(w_beta2,
                                        hypercontraction_T(w_beta2, rng, 3),
                                        k_max=3)
        res = hb.check_coincidence(famA, famB, tol=1e-7)
        assert not res.coincide
        assert res.tau is None
        assert "dimensions" in res.reason

    def test_input_dimension_mismatch_names_the_step(self, w_beta2):
        char = hb.characteristic_family(w_beta2, [[0.4]], k_max=3)
        other = copy.copy(char.family)
        other.steps = list(other.steps)
        st = other.steps[2]
        other.steps[2] = hb.ColligationStep(
            B=np.hstack([st.B, np.zeros((1, 1))]),
            D=np.hstack([st.D, np.zeros((1, 1))]), u=st.u + 1)
        res = hb.check_coincidence(char, other, tol=1e-7)
        assert (res.coincide, res.residual, res.tau, res.sweeps) \
            == (False, float("inf"), None, 0)
        assert res.reason == "input dimensions differ at k=2"


class TestModelRoundTrip:
    def test_scalar_hardy(self, w_hardy):
        char = hb.characteristic_family(w_hardy, [[0.5]], k_max=12)
        grid = hb.default_grid(radii=(0.0, 0.2, 0.4, 0.6))
        rep = hb.model_roundtrip_residual(char, grid=grid)
        assert rep.residual <= 1e-10

    def test_zero_operator(self, w_hardy):
        char = hb.characteristic_family(w_hardy, np.zeros((1, 1)), k_max=16)
        grid = hb.default_grid(radii=(0.0, 0.3, 0.6))
        rep = hb.model_roundtrip_residual(char, grid=grid)
        assert rep.residual <= 1e-10

    def test_perturbation_breaks_identity(self, w_beta2):
        rng = np.random.default_rng(60)
        T = hypercontraction_T(w_beta2, rng, 2)
        char = hb.characteristic_family(w_beta2, T, k_max=12)
        grid = hb.default_grid(radii=(0.0, 0.3, 0.6))
        base = hb.model_roundtrip_residual(char, grid=grid)
        st = char.family.step(0)
        char.family.steps[0] = hb.ColligationStep(B=st.B, D=1.3 * st.D,
                                                  u=st.u)
        broken = hb.model_roundtrip_residual(char, grid=grid)
        assert base.residual <= 1e-10
        assert broken.residual > 100 * base.residual

    def test_scaled_feedthrough_fails(self, w_beta2):
        # the identity is exact, so scaling D_2 by 1 + 1e-3 shows far above
        # the acceptance bound 1e-5
        rng = np.random.default_rng(60)
        T = hypercontraction_T(w_beta2, rng, 2)
        char = hb.characteristic_family(w_beta2, T, k_max=12)
        grid = hb.default_grid(radii=(0.0, 0.3, 0.6))
        base = hb.model_roundtrip_residual(char, grid=grid)
        st = char.family.step(2)
        char.family.steps[2] = hb.ColligationStep(B=st.B, D=(1 + 1e-3) * st.D,
                                                  u=st.u)
        broken = hb.model_roundtrip_residual(char, grid=grid)
        assert base.residual <= 1e-10
        assert broken.residual > 1e-4


class TestFunctionalModel:
    def test_blocks_and_alignment(self, w_beta25):
        rng = np.random.default_rng(61)
        T = hypercontraction_T(w_beta25, rng, 2)
        char = hb.characteristic_family(w_beta25, T, k_max=5)
        for k in (0, 2, 4):
            rep = hb.functional_model_colligation(char.family, k,
                                                  J=110)
            assert rep.check_state < 1e-10
            assert rep.check_cross < 1e-10
            assert rep.check_input < 1e-10
            assert rep.alignment_residual <= 1e-8 + rep.alignment_allowance

    def test_state_block_equals_stein_residual(self, w_beta2):
        rng = np.random.default_rng(62)
        T = hypercontraction_T(w_beta2, rng, 2)
        char = hb.characteristic_family(w_beta2, T, k_max=3)
        rep = hb.functional_model_colligation(char.family, 1, J=60)
        ref = hb.stein_residual(w_beta2, 1, char.family.pair,
                                char.family.gramians[1],
                                char.family.gramians[2])
        assert rep.check_state == ref

    def test_truncation_allowance_covers_short_series(self, w_beta2):
        rng = np.random.default_rng(63)
        T = hypercontraction_T(w_beta2, rng, 2)
        char = hb.characteristic_family(w_beta2, T, k_max=3)
        short = hb.functional_model_colligation(char.family, 0, J=8)
        assert short.alignment_residual <= 1e-10 + short.alignment_allowance
        long = hb.functional_model_colligation(char.family, 0, J=110)
        assert long.alignment_allowance < short.alignment_allowance

    def test_requires_identity_gramian(self, w_beta2):
        rng = np.random.default_rng(64)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=2, tol=1e-13)
        with pytest.raises(hb.ModelCoordinatesError):
            hb.functional_model_colligation(fam, 0, J=40)


class TestDefectFormRoute:
    def test_coincides_with_cholesky_route(self, all_weights):
        rng = np.random.default_rng(65)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 2)
            char = hb.characteristic_family(w, T, k_max=4)
            alt = defect_form_family(w, T, k_max=4)
            assert max(alt.isometry_residuals) < 1e-9
            assert max(alt.coisometry_residuals) < 1e-9
            res = hb.check_coincidence(char.family, alt, tol=1e-8)
            assert res.coincide

    def test_singular_gramian_refused(self, w_hardy):
        # G^(k) = I / beta_k for T = 0.5 on the constant weight; a rank
        # tolerance of 1 declares every gramian singular
        with pytest.raises(hb.ModelHypothesisError,
                           match="^gramian numerically singular$"):
            defect_form_family(w_hardy, [[0.5]], k_max=2, rank_tol=1.0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gramian_refused(self, monkeypatch, w_hardy, bad):
        # the singularity test fails on NaN, and the masked eigen-solve
        # gives NaN for an infinite entry
        real = mod.gramian_table

        def poisoned(*args, **kwargs):
            table = real(*args, **kwargs)
            table.entries[1, 0, 0] = bad
            return table
        monkeypatch.setattr(mod, "gramian_table", poisoned)
        with pytest.raises(hb.ModelHypothesisError,
                           match="^gramian numerically singular$"):
            defect_form_family(w_hardy, [[0.5]], k_max=2)


class TestWanderingTransfer:
    """The wandering transfer function is the one-step family
    ``build_family(w, pair, 0)``, evaluated with ``transfer_eval`` at step
    0."""

    def test_matches_step_zero(self, w_beta3):
        # step 0 of a deeper family of the pair is the same step
        rng = np.random.default_rng(66)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        wt = hb.build_family(w_beta3, pair, 0).step(0)
        st = hb.build_family(w_beta3, pair, 3).step(0)
        np.testing.assert_allclose(wt.B, st.B, atol=1e-11)
        np.testing.assert_allclose(wt.D, st.D, atol=1e-11)

    def test_gap_kernel_factorization(self, w_beta2):
        rng = np.random.default_rng(67)
        pair = stable_pair(rng, 3, 2, rho=0.65)
        fam = hb.build_family(w_beta2, pair, 0)
        tab = hb.gramian_table(w_beta2, pair, 1, tol=1e-13)
        for z in (0.3 + 0.2j, -0.5, 0.45j):
            for zt in (0.2, -0.3j):
                KE = hb.kernel_gap(w_beta2, 0, pair, tab, z, zt, 1e-13)
                ref = hb.transfer_eval(fam, 0, z) \
                    @ hb.transfer_eval(fam, 0, zt).conj().T
                np.testing.assert_allclose(KE, ref, atol=1e-10)


    def test_eval_on_point_array(self, w_beta2):
        rng = np.random.default_rng(68)
        pair = stable_pair(rng, 3, 2, rho=0.65)
        fam = hb.build_family(w_beta2, pair, 0)
        D = fam.step(0).D
        pts = [0.0, 0.3 + 0.2j, -0.5, 0.45j]
        vals = hb.transfer_eval(fam, 0, pts, 1e-13)
        assert vals.shape == (4,) + D.shape
        assert hb.transfer_eval(fam, 0, 0.3, 1e-13).shape == D.shape
        np.testing.assert_array_equal(vals[0], D)
        for z, V in zip(pts, vals):
            np.testing.assert_allclose(V, hb.transfer_eval(fam, 0, z, 1e-13),
                                       rtol=0, atol=1e-13)


class TestIntertwining:
    def test_observability_intertwines_shift(self, all_weights):
        rng = np.random.default_rng(68)
        for w in all_weights:
            T = hypercontraction_T(w, rng, 3)
            A = T.conj().T
            D = hb.defect_operator(w, T)
            pair = hb.OutputPair(A=A, C=D)
            x = cmat(rng, 3, 1).ravel()
            ox = hb.observability_element(w, pair, x, 30)
            oax = hb.observability_element(w, pair, A @ x, 29)
            np.testing.assert_allclose(hb.shift_adjoint_apply(ox).coeffs,
                                       oax.coeffs, atol=1e-12)
