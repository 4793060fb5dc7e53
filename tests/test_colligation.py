import re

import numpy as np
import pytest
from scipy.linalg import block_diag

import hardybeta as hb
from conftest import cmat, continued_inv, custom_copy_8, stable_pair
from hardybeta.acceptance import suite_weights
from hardybeta.colligation import (
    _metric_residuals,
    _psd_factor,
    colligation_block,
)
from hardybeta.hereditary import hermitian_inverse


def scalar_hardy_family(w_hardy, a=0.5, k_max=4):
    pair = hb.OutputPair(A=[[a]], C=[[np.sqrt(1 - a * a)]])
    return hb.build_family(w_hardy, pair, k_max=k_max)


class TestPsdFactor:
    def test_zero_matrix_keeps_nothing(self):
        F = _psd_factor(np.zeros((3, 3), dtype=complex), 1e-10)
        assert F.shape == (3, 0)

    def test_rank_one(self):
        v = np.array([2.0, -1.0, 0.5 + 0.5j])
        R = np.outer(v, v.conj())
        F = _psd_factor(R, 1e-12)
        assert F.shape == (3, 1)
        np.testing.assert_allclose(F @ F.conj().T, R, atol=1e-12)
        # phase fix: the largest-magnitude entry is real positive
        pivot = np.argmax(np.abs(F[:, 0]))
        assert F[pivot, 0].imag == pytest.approx(0.0, abs=1e-14)
        assert F[pivot, 0].real > 0

    def test_negative_eigenvalue_rejected(self):
        R = np.diag([1.0, -0.5])
        with pytest.raises(hb.NotCoisometrizableError):
            _psd_factor(R.astype(complex), 1e-10)


    def test_stack_with_ragged_ranks(self):
        rng = np.random.default_rng(34)
        v = cmat(rng, 3, 2)
        R = np.stack([np.outer(v[:, 0], v[:, 0].conj()), v @ v.conj().T])
        F = _psd_factor(R, 1e-12)
        assert F.shape == (2, 3, 2)
        assert not F[0, :, 1].any()  # rank 1, zero-padded
        for Fi, Ri in zip(F, R):
            np.testing.assert_allclose(Fi @ Fi.conj().T, Ri, atol=1e-12)
            np.testing.assert_array_equal(Fi[:, :np.linalg.matrix_rank(Ri)],
                                          _psd_factor(Ri, 1e-12))


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_defect_refused(self, bad):
        # a NaN defect used to give an (n, 0) factor: a step with no inputs
        R = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        R[1, 0, 1] = bad
        with pytest.raises(hb.NotCoisometrizableError,
                           match="^defect matrix 1 has negative eigenvalue nan"):
            _psd_factor(R, 1e-10)
        with pytest.raises(hb.NotCoisometrizableError,
                           match="^defect matrix has negative eigenvalue nan"):
            _psd_factor(R[1], 1e-10)


def _reference_factor(R, rank_tol):
    """One defect matrix factored column by column."""
    lam, V = np.linalg.eigh(0.5 * (R + R.conj().T))
    keep = lam >= rank_tol * max(max(float(lam[-1]), 0.0), 1e-300)
    cols = []
    for v in V[:, keep][:, ::-1].T:
        phase = v[int(np.argmax(np.abs(v)))]
        cols.append(v * (phase.conjugate() / abs(phase)))
    F = np.column_stack(cols) if cols else np.zeros((len(R), 0), complex)
    return F * np.sqrt(lam[keep][::-1])


def _reference_block_diag(M, c, m):
    out = np.zeros((len(M) + m, len(M) + m), dtype=complex)
    out[:len(M), :len(M)] = M
    out[len(M):, len(M):] = c * np.eye(m)
    return out


def _reference_family(w, pair, gramians, k_max, rank_tol=1e-10):
    """A plain loop over the steps: per step two inversions, one defect,
    one factorization and the two identities' residuals."""
    n, p = pair.n, pair.p
    AC = np.vstack([pair.A, pair.C])
    out = []
    for k in range(k_max + 1):
        Gk_inv = hermitian_inverse(gramians[k])
        Gk1_inv = hermitian_inverse(gramians[k + 1])
        R = _reference_block_diag(Gk1_inv, w.betas[k], p) \
            - AC @ Gk_inv @ AC.conj().T
        F = _reference_factor(R, rank_tol)
        B, D = F[:n], F[n:]
        U = np.vstack([np.hstack([pair.A, B]), np.hstack([pair.C, D])])
        W_out = _reference_block_diag(gramians[k + 1], w.inv_betas[k], p)
        W_in = _reference_block_diag(gramians[k], 1.0, B.shape[1])
        isom = np.linalg.norm(U.conj().T @ W_out @ U - W_in, 2)
        V_in = _reference_block_diag(Gk_inv, 1.0, B.shape[1])
        V_out = _reference_block_diag(Gk1_inv, w.betas[k], p)
        coisom = np.linalg.norm(U @ V_in @ U.conj().T - V_out, 2)
        out.append((B, D, isom, coisom))
    return out


class TestStackedBuild:
    """The family is built as one stack; a plain step loop is the
    reference, bit for bit."""

    @pytest.mark.parametrize("k_max", [8, 25])
    @pytest.mark.parametrize("index", range(4))
    def test_matches_step_loop(self, index, k_max):
        name, w = suite_weights()[index]
        rng = np.random.default_rng([35, index, k_max])
        for n, p in ((2, 1), (4, 3), (5, 2)):
            pair = stable_pair(rng, n, p, rho=0.7)
            fam = hb.build_family(w, pair, k_max, tol=1e-13)
            ref = _reference_family(w, pair, fam.gramians, k_max)
            for k, (B, D, isom, coisom) in enumerate(ref):
                np.testing.assert_array_equal(fam.step(k).B, B)
                np.testing.assert_array_equal(fam.step(k).D, D)
                assert fam.isometry_residuals[k] == isom
                assert fam.coisometry_residuals[k] == coisom
                assert hb.metric_residuals(fam, k) == {
                    "isometry": isom, "coisometry": coisom}
            assert max(fam.isometry_residuals) < 1e-9

    def test_ragged_inputs_give_the_step_residuals(self, w_beta2):
        # zero-padding a step with u = 0 changes neither identity
        rng = np.random.default_rng(36)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=3, tol=1e-13)
        fam.steps[1] = hb.ColligationStep(B=np.zeros((3, 0), dtype=complex),
                                          D=np.zeros((2, 0), dtype=complex),
                                          u=0)
        isom, coisom = _metric_residuals(fam, 0, 3,
                                         fam.gramians.inverses(0, 4))
        for k in range(4):
            single = hb.metric_residuals(fam, k)
            assert isom[k] == pytest.approx(single["isometry"], abs=1e-14)
            assert coisom[k] == pytest.approx(single["coisometry"], abs=1e-14)
        assert coisom[1] > 1e-3  # the emptied step misses its defect

    def test_singular_gramian_named(self, w_beta2):
        pair = hb.OutputPair(A=0.5 * np.eye(2), C=np.zeros((1, 2)))
        with pytest.raises(hb.ObservabilityError, match=r"G\^\(0\)"):
            hb.build_family(w_beta2, pair, k_max=2)


class TestBuildFamily:
    def test_scalar_hardy_oracle(self, w_hardy):
        # rank-1 defect with factor (sqrt(1-a^2), -a), fixed sign
        a = 0.5
        pair = hb.OutputPair(A=[[a]], C=[[np.sqrt(1 - a * a)]])
        fam = hb.build_family(w_hardy, pair, 0, tol=1e-13)
        np.testing.assert_allclose(fam.gramians[0], [[1.0]], atol=1e-12)
        st = fam.step(0)
        assert st.B[0, 0] == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert st.D[0, 0] == pytest.approx(-0.5, abs=1e-10)

    def test_scalar_input_dims(self, w_hardy):
        fam = scalar_hardy_family(w_hardy)
        assert [st.u for st in fam.steps] == [1] * 5

    def test_zero_output_rejected(self, w_beta2):
        pair = hb.OutputPair(A=0.5 * np.eye(2), C=np.zeros((1, 2)))
        with pytest.raises(hb.ObservabilityError):
            hb.build_family(w_beta2, pair, k_max=2)

    def test_random_beta2_residuals(self, w_beta2):
        rng = np.random.default_rng(21)
        pair = stable_pair(rng, 3, 3, rho=0.7)
        fam = hb.build_family(w_beta2, pair, k_max=6, tol=1e-13)
        assert max(fam.isometry_residuals) < 1e-10
        assert max(fam.coisometry_residuals) < 1e-10

    def test_custom_past_the_table(self):
        # k_max = 10 reads beta_9 .. beta_11 past the 8-entry table, by the
        # weight's definition; both metric identities hold with it, and
        # G^(11) is its own series sum_j A^{*j} C* C A^j / beta_{11+j}
        w = custom_copy_8()
        A, C = np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[1.0, 1.0]])
        fam = hb.build_family(w, hb.OutputPair(A=A, C=C), k_max=10)
        inv = continued_inv(w, 200)
        G = fam.gramians
        CA = [C @ np.linalg.matrix_power(A, j) for j in range(190)]
        top = sum(inv[11 + j] * M.conj().T @ M for j, M in enumerate(CA))
        np.testing.assert_allclose(G[11], top, rtol=1e-12)
        for k in range(11):
            U, st = colligation_block(fam, k), fam.step(k)
            isom = U.conj().T @ block_diag(G[k + 1], inv[k] * np.eye(1)) @ U \
                - block_diag(G[k], np.eye(st.u))
            coisom = U @ block_diag(np.linalg.inv(G[k]), np.eye(st.u)) \
                @ U.conj().T - block_diag(np.linalg.inv(G[k + 1]),
                                          np.eye(1) / inv[k])
            assert np.linalg.norm(isom, 2) <= 1e-9
            assert np.linalg.norm(coisom, 2) <= 1e-9

    def test_generic_input_dimension_is_p(self, w_beta3):
        rng = np.random.default_rng(22)
        pair = stable_pair(rng, 4, 2, rho=0.6)
        fam = hb.build_family(w_beta3, pair, k_max=3, tol=1e-13)
        assert all(st.u == 2 for st in fam.steps)


class TestTransfer:
    def test_origin_value(self, w_beta2):
        rng = np.random.default_rng(23)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=3, tol=1e-13)
        for k in range(4):
            st = fam.step(k)
            np.testing.assert_allclose(hb.transfer_eval(fam, k, 0.0),
                                       w_beta2.inv_betas[k] * st.D, atol=0)

    def test_blaschke_closed_form(self, w_hardy):
        fam = scalar_hardy_family(w_hardy)
        for z in (0.5, 0.3 - 0.4j, -0.7j):
            got = hb.transfer_eval(fam, 0, z, 1e-13)[0, 0]
            assert got == pytest.approx((z - 0.5) / (1 - 0.5 * z), abs=1e-12)
        assert abs(hb.transfer_eval(fam, 0, 0.5)[0, 0]) < 1e-13

    def test_zero_input_map_constant(self, w_beta2):
        rng = np.random.default_rng(24)
        pair = stable_pair(rng, 2, 1, rho=0.5)
        fam = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        st = fam.step(0)
        fam.steps[0] = hb.ColligationStep(B=np.zeros_like(st.B), D=st.D,
                                          u=st.u)
        th0 = hb.transfer_eval(fam, 0, 0.6j)
        np.testing.assert_allclose(th0, w_beta2.inv_betas[0] * st.D, atol=0)

    def test_eval_matches_taylor_sum(self, w_beta25):
        rng = np.random.default_rng(25)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta25, pair, k_max=2, tol=1e-13)
        z = 0.45 - 0.3j
        coeffs = hb.transfer_taylor(fam, 1, 120)
        series = sum(c * z ** j for j, c in enumerate(coeffs))
        np.testing.assert_allclose(hb.transfer_eval(fam, 1, z, 1e-13), series,
                                   atol=1e-11)

    def test_step_sequence_is_one_stack(self, w_beta2):
        rng = np.random.default_rng(37)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=4, tol=1e-13)
        st = fam.step(2)
        fam.steps[2] = hb.ColligationStep(B=st.B[:, :1], D=st.D[:, :1], u=1)
        zs = np.array([0.0, 0.3 - 0.2j, -0.5j])
        vals = hb.transfer_eval(fam, [0, 2, 4], zs, 1e-13)
        assert vals.shape == (3, 3, 2, 2)
        for got, k in zip(vals, (0, 2, 4)):
            u = fam.step(k).u
            np.testing.assert_allclose(got[..., :u],
                                       hb.transfer_eval(fam, k, zs, 1e-13),
                                       rtol=0, atol=1e-13)
            assert not got[..., u:].any()

    def test_taylor_structure(self, w_beta3):
        rng = np.random.default_rng(26)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta3, pair, k_max=2, tol=1e-13)
        k = 1
        st = fam.step(k)
        coeffs = hb.transfer_taylor(fam, k, 3)
        np.testing.assert_allclose(coeffs[0], w_beta3.inv_betas[k] * st.D,
                                   atol=0)
        A, C = fam.pair.A, fam.pair.C
        for j in range(3):
            ref = w_beta3.inv_betas[j + k + 1] * (
                C @ np.linalg.matrix_power(A, j) @ st.B)
            np.testing.assert_allclose(coeffs[j + 1], ref, atol=1e-14)


class TestStepRange:
    """Every step stack is built by one helper, which refuses a step
    outside ``0..k_max`` by name: a negative step wrapped to the last one
    (``transfer_eval(fam, -1, 0.3)`` gave 4.42 - 13.09i here, with
    ``1/beta`` from the table's last entry, where step 3 gives
    0.36 - 0.80i), and a step past ``k_max`` raised a raw IndexError."""

    CALLS = {
        "transfer_eval": lambda fam, k: hb.transfer_eval(fam, k, 0.3),
        "transfer_eval-sequence":
            lambda fam, k: hb.transfer_eval(fam, [0, k], [0.3, -0.2j]),
        "transfer_taylor": lambda fam, k: hb.transfer_taylor(fam, k, 2),
        "colligation_block": lambda fam, k: colligation_block(fam, k),
    }

    @pytest.fixture(scope="class")
    def fam(self):
        pair = stable_pair(np.random.default_rng(12), 2, 1, rho=0.6)
        return hb.build_family(hb.make_weight_beta_alpha(2.0, 64), pair,
                               k_max=3)

    @pytest.mark.parametrize("k", [-1, 4])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_out_of_range_step_refused(self, fam, entry, k):
        with pytest.raises(hb.InvalidParameterError, match=re.escape(
                f"family holds steps 0..3, not k={k}")):
            self.CALLS[entry](fam, k)

    def test_negative_taylor_length_refused(self, fam):
        with pytest.raises(hb.InvalidParameterError,
                           match=re.escape("Taylor length J=-1 must be >= 0")):
            hb.transfer_taylor(fam, 0, -1)


class TestStepDoor:
    """``ColligationFamily.step`` is the one door for a step index: every
    entry that reads a step refuses ``k_max + 1`` and ``-1`` with its
    text.  ``fam.step(-1)`` answered with the last step,
    ``functional_model_colligation`` past ``k_max`` raised a raw
    IndexError, and ``check_inner_family`` cut a ``k_max`` past the
    family's to the family's own and checked only those steps."""

    ENTRIES = {
        "ColligationFamily.step": lambda fam, k: fam.step(k),
        "transfer_eval": lambda fam, k: hb.transfer_eval(fam, k, 0.3),
        "transfer_taylor": lambda fam, k: hb.transfer_taylor(fam, k, 2),
        "colligation_block": lambda fam, k: colligation_block(fam, k),
        "functional_model_colligation":
            lambda fam, k: hb.functional_model_colligation(fam, k, 10),
    }

    def test_every_step_entry_meets_the_door(self):
        # a characteristic family: its base gramian is the identity, as
        # functional_model_colligation needs
        fam = hb.characteristic_family(hb.make_weight_hardy(256),
                                       [[0.5]], k_max=3).family
        for name, call in self.ENTRIES.items():
            call(fam, 3)  # the last step is answered
            for k in (4, -1):
                with pytest.raises(hb.InvalidParameterError) as info:
                    call(fam, k)
                assert str(info.value) == \
                    f"family holds steps 0..3, not k={k}", name
        # check_inner_family reads steps 0..k_max: a k_max past the
        # family's meets the door, one below 0 its own named refusal
        hb.check_inner_family(fam, 3, 10)
        with pytest.raises(hb.InvalidParameterError) as info:
            hb.check_inner_family(fam, 4, 10)
        assert str(info.value) == "family holds steps 0..3, not k=4"
        with pytest.raises(hb.InvalidParameterError) as info:
            hb.check_inner_family(fam, -1, 10)
        assert str(info.value) == \
            "check_inner_family needs k_max >= 0, got k_max=-1"


class TestMetricResiduals:
    def test_scaled_input_block(self, w_beta2):
        rng = np.random.default_rng(27)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        k = 0
        st = fam.step(k)
        G1 = fam.gramians[k + 1]
        fam.steps[k] = hb.ColligationStep(B=2 * st.B, D=st.D, u=st.u)
        U = colligation_block(fam, k)
        n = fam.pair.n
        W_out = np.zeros((n + 2, n + 2), dtype=complex)
        W_out[:n, :n] = G1
        W_out[n:, n:] = w_beta2.inv_betas[k] * np.eye(2)
        defect = U.conj().T @ W_out @ U
        defect[:n, :n] -= fam.gramians[k]
        defect[n:, n:] -= np.eye(st.u)
        block22 = defect[n:, n:]
        ref = 3 * (st.B.conj().T @ G1 @ st.B)
        np.testing.assert_allclose(block22, ref, atol=1e-10)
        assert hb.metric_residuals(fam, k)["isometry"] >= np.linalg.norm(ref, 2) / 2

    def test_empty_input_reduces_to_stein(self, w_beta2):
        rng = np.random.default_rng(28)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        fam.steps[0] = hb.ColligationStep(B=np.zeros((3, 0), dtype=complex),
                                          D=np.zeros((2, 0), dtype=complex),
                                          u=0)
        res = hb.metric_residuals(fam, 0)["isometry"]
        ref = hb.stein_residual(w_beta2, 0, pair, fam.gramians[0],
                                fam.gramians[1])
        assert res == pytest.approx(ref, rel=1e-10, abs=1e-14)


    def test_nan_in_one_step_gives_nan(self, w_beta2):
        # the stacked operator norm masks the NaN step out of the SVD,
        # which raised "SVD did not converge" on it
        rng = np.random.default_rng(29)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=2, tol=1e-13)
        st = fam.step(1)
        B = st.B.copy()
        B[0, 0] = np.nan
        fam.steps[1] = hb.ColligationStep(B=B, D=st.D, u=st.u)
        res = hb.metric_residuals(fam, 1)
        assert np.isnan(res["isometry"]) and np.isnan(res["coisometry"])
        G_inv = fam.gramians.inverses(0, 3)
        isom, coisom = _metric_residuals(fam, 0, 2, G_inv)
        assert np.isnan(isom[1]) and np.isnan(coisom[1])
        assert max(isom[0], isom[2], coisom[0], coisom[2]) < 1e-9


class TestBasisCovariance:
    def test_right_unitary_leaves_products_invariant(self, w_beta2):
        rng = np.random.default_rng(29)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        st = fam.step(0)
        Q, _ = np.linalg.qr(cmat(rng, st.u, st.u))
        fam2 = hb.build_family(w_beta2, pair, k_max=1, tol=1e-13)
        fam2.steps[0] = hb.ColligationStep(B=st.B @ Q, D=st.D @ Q, u=st.u)
        for z in (0.3, -0.2 + 0.4j):
            for zeta in (0.5j, 0.1 - 0.1j):
                P1 = hb.transfer_eval(fam, 0, z) \
                    @ hb.transfer_eval(fam, 0, zeta).conj().T
                P2 = hb.transfer_eval(fam2, 0, z) \
                    @ hb.transfer_eval(fam2, 0, zeta).conj().T
                np.testing.assert_allclose(P1, P2, atol=1e-12)
        assert hb.metric_residuals(fam2, 0)["isometry"] < 1e-10


class TestSerialization:
    def test_family_roundtrip_bitstable(self, w_beta25):
        from hardybeta import serialize as ser
        rng = np.random.default_rng(33)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta25, pair, k_max=3, tol=1e-13)
        blob = ser.dumps(ser.family_to_json(fam))
        import json
        fam2 = ser.family_from_json(json.loads(blob))
        for k in range(4):
            np.testing.assert_array_equal(fam.step(k).B, fam2.step(k).B)
            np.testing.assert_array_equal(fam.step(k).D, fam2.step(k).D)
        np.testing.assert_array_equal(fam.pair.A, fam2.pair.A)
        blob2 = ser.dumps(ser.family_to_json(fam2))
        assert blob == blob2
