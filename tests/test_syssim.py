import dataclasses

import numpy as np
import pytest

import hardybeta as hb
from conftest import cmat, series_copy, stable_pair
from hardybeta.syssim import zero_input_tail_energy


@pytest.fixture()
def fam_beta2(w_beta2):
    rng = np.random.default_rng(70)
    pair = stable_pair(rng, 3, 2, rho=0.6)
    return hb.build_family(w_beta2, pair, k_max=12, tol=1e-13)


def random_inputs(rng, fam, steps):
    return [cmat(rng, fam.step(k).u, 1).ravel() for k in range(steps)]


class TestSimulate:
    def test_zero_input_hardy_outputs(self, w_hardy):
        rng = np.random.default_rng(71)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_hardy, pair, k_max=6, tol=1e-13)
        x0 = cmat(rng, 3, 1).ravel()
        us = [np.zeros(fam.step(k).u) for k in range(6)]
        traj = hb.simulate(fam, x0, us)
        for j in range(6):
            ref = pair.C @ np.linalg.matrix_power(pair.A, j) @ x0
            np.testing.assert_allclose(traj.outputs[j], ref, atol=1e-12)

    def test_impulse_response(self, fam_beta2, w_beta2):
        rng = np.random.default_rng(72)
        u = cmat(rng, fam_beta2.step(0).u, 1).ravel()
        us = [u] + [np.zeros(fam_beta2.step(k).u) for k in range(1, 8)]
        traj = hb.simulate(fam_beta2, np.zeros(3), us)
        pair = fam_beta2.pair
        np.testing.assert_allclose(traj.outputs[0], fam_beta2.step(0).D @ u,
                                   atol=1e-13)
        for j in range(1, 8):
            ref = w_beta2.inv_betas[j] * (
                pair.C @ np.linalg.matrix_power(pair.A, j - 1)
                @ fam_beta2.step(0).B @ u)
            np.testing.assert_allclose(traj.outputs[j], ref, atol=1e-12)

    def test_matches_closed_forms(self, fam_beta2):
        rng = np.random.default_rng(73)
        x0 = cmat(rng, 3, 1).ravel()
        us = random_inputs(rng, fam_beta2, 10)
        traj = hb.simulate(fam_beta2, x0, us)
        ref = hb.closed_form_trajectory(fam_beta2, x0, us)
        for a, b in zip(traj.states, ref.states):
            np.testing.assert_allclose(a, b, atol=1e-10)
        for a, b in zip(traj.outputs, ref.outputs):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_wrong_dimension_rejected(self, fam_beta2):
        with pytest.raises(hb.InvalidParameterError):
            hb.simulate(fam_beta2, np.zeros(3),
                        [np.zeros(fam_beta2.step(0).u + 1)])

    def test_missing_steps_rejected(self, fam_beta2):
        us = [np.zeros(2)] * (fam_beta2.k_max + 2)
        with pytest.raises(hb.InvalidParameterError):
            hb.simulate(fam_beta2, np.zeros(3), us)

    def test_causality(self, fam_beta2):
        rng = np.random.default_rng(74)
        x0 = cmat(rng, 3, 1).ravel()
        us = random_inputs(rng, fam_beta2, 10)
        traj1 = hb.simulate(fam_beta2, x0, us)
        us2 = [u.copy() for u in us]
        us2[7] = us2[7] + 10.0
        traj2 = hb.simulate(fam_beta2, x0, us2)
        for j in range(7):
            np.testing.assert_array_equal(traj1.outputs[j], traj2.outputs[j])


class TestIOMatrix:
    def test_diagonal_block(self, fam_beta2):
        io = hb.io_matrix(fam_beta2, 5)
        np.testing.assert_allclose(io.matrix[:2, :fam_beta2.step(0).u],
                                   fam_beta2.step(0).D, atol=0)

    def test_strict_upper_zero(self, fam_beta2):
        io = hb.io_matrix(fam_beta2, 5)
        for i in range(5):
            np.testing.assert_array_equal(
                io.matrix[io.row_offsets[i]:io.row_offsets[i + 1],
                          io.col_offsets[i + 1]:], 0)

    def test_matches_simulation(self, fam_beta2):
        rng = np.random.default_rng(75)
        us = random_inputs(rng, fam_beta2, 8)
        io = hb.io_matrix(fam_beta2, 8)
        y = io.matrix @ hb.stack_inputs(us)
        traj = hb.simulate(fam_beta2, np.zeros(3), us)
        np.testing.assert_allclose(y, np.concatenate(traj.outputs),
                                   atol=1e-11)

    def test_column_reproduces_impulse(self, fam_beta2):
        j = 2
        u = np.zeros(fam_beta2.step(j).u)
        u[0] = 1.0
        us = [np.zeros(fam_beta2.step(k).u) for k in range(8)]
        us[j] = u
        io = hb.io_matrix(fam_beta2, 8)
        col = io.matrix[:, io.col_offsets[j]]
        traj = hb.simulate(fam_beta2, np.zeros(3), us)
        np.testing.assert_allclose(col, np.concatenate(traj.outputs),
                                   atol=1e-11)

    def test_no_steps_is_empty(self, fam_beta2):
        io = hb.io_matrix(fam_beta2, 0)
        assert io.matrix.shape == (0, 0)
        assert io.row_offsets == [0] and io.col_offsets == [0]
        assert (io.matrix @ hb.stack_inputs([])).shape == (0,)

    def test_full_horizon_on_a_short_table(self):
        # 20 stored terms hold k_max = 12 (which needs 17) but not index
        # 2 k_max: the matrix over all 13 steps reads beta_0..beta_12 only
        rng = np.random.default_rng(77)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(hb.make_weight_beta_alpha(2.0, 20), pair,
                              k_max=12, tol=1e-13)
        us = random_inputs(rng, fam, 13)
        io = hb.io_matrix(fam, 13)
        traj = hb.simulate(fam, np.zeros(3), us)
        np.testing.assert_allclose(io.matrix @ hb.stack_inputs(us),
                                   np.concatenate(traj.outputs), atol=1e-11)

    def test_hardy_block_toeplitz(self, w_hardy):
        # constant weight: identical steps make the matrix block-Toeplitz
        rng = np.random.default_rng(76)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_hardy, pair, k_max=6, tol=1e-13)
        io = hb.io_matrix(fam, 6)
        u = fam.step(0).u
        for i in range(1, 5):
            for j in range(i + 1):
                blk = io.matrix[2 * i:2 * (i + 1), u * j:u * (j + 1)]
                nxt = io.matrix[2 * (i + 1):2 * (i + 2),
                                u * (j + 1):u * (j + 2)]
                np.testing.assert_allclose(blk, nxt, atol=1e-12)


class TestZTransform:
    def test_identity_residual(self, fam_beta2):
        rng = np.random.default_rng(77)
        x0 = cmat(rng, 3, 1).ravel()
        us = random_inputs(rng, fam_beta2, 12)
        assert hb.check_ztransform(fam_beta2, x0, us, J=11) < 1e-10

    def test_zero_state_single_channel(self, fam_beta2):
        rng = np.random.default_rng(78)
        us = [np.zeros(fam_beta2.step(k).u) for k in range(9)]
        us[3] = cmat(rng, fam_beta2.step(3).u, 1).ravel()
        traj = hb.simulate(fam_beta2, np.zeros(3), us)
        taylor = hb.transfer_taylor(fam_beta2, 3, 5)
        for j in range(3, 9):
            np.testing.assert_allclose(traj.outputs[j],
                                       taylor[j - 3] @ us[3], atol=1e-12)

    def test_classical_convolution_reduction(self, w_hardy):
        # constant weight and identical steps: outputs are the convolution
        # of one transfer function's coefficients with the input sequence
        rng = np.random.default_rng(79)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_hardy, pair, k_max=8, tol=1e-13)
        us = random_inputs(rng, fam, 8)
        traj = hb.simulate(fam, np.zeros(3), us)
        taylor = hb.transfer_taylor(fam, 0, 8)
        for j in range(8):
            ref = sum(taylor[j - k] @ us[k] for k in range(j + 1))
            np.testing.assert_allclose(traj.outputs[j], ref, atol=1e-11)

    def test_horizon_guard(self, fam_beta2):
        us = random_inputs(np.random.default_rng(80), fam_beta2, 5)
        with pytest.raises(hb.InvalidParameterError):
            hb.check_ztransform(fam_beta2, np.zeros(3), us, J=5)


class TestIOIsometry:
    def test_built_family_isometric(self, fam_beta2):
        rep = hb.check_io_isometry(fam_beta2, trials=4, horizon=13,
                                   tol=1e-6, seed=5)
        assert rep.isometric
        assert rep.worst_defect <= 1e-10
        assert rep.allowance <= 1e-10

    def test_scaled_feedthrough_violates(self, fam_beta2):
        # the inputs reach step 2 (support 4 of horizon 13)
        st = fam_beta2.step(2)
        fam_beta2.steps[2] = hb.ColligationStep(B=st.B, D=(1 + 1e-3) * st.D,
                                                u=st.u)
        rep = hb.check_io_isometry(fam_beta2, trials=4, horizon=13,
                                   tol=1e-6, seed=5)
        assert not rep.isometric
        assert rep.worst_defect > 1e-4

    def test_nan_output_is_not_isometric(self, fam_beta2):
        # max(0.0, nan) is 0.0: a NaN feedthrough used to pass, defect 0
        st = fam_beta2.step(0)
        fam_beta2.steps[0] = hb.ColligationStep(B=st.B, D=np.nan * st.D,
                                                u=st.u)
        rep = hb.check_io_isometry(fam_beta2, trials=2, horizon=13)
        assert not rep.isometric
        assert np.isnan(rep.worst_defect)

    def test_tail_energy_matches_continuation(self):
        # beta_h^2 x^* G^(h) x against the zero-input recursion run on to
        # step 400, where the remaining energy is below roundoff
        w = hb.make_weight_beta_alpha(2.0, 512)
        rng = np.random.default_rng(82)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w, pair, k_max=12, tol=1e-13)
        for h in (0, 5, 13):
            x = cmat(rng, 3, 1).ravel()
            v, energy = x, 0.0
            for j in range(h, 401):
                energy += w.betas[j] * np.linalg.norm(pair.C @ v) ** 2
                v = (w.betas[j] / w.betas[j + 1]) * (pair.A @ v)
            assert zero_input_tail_energy(fam, h, x) == pytest.approx(
                energy, rel=1e-12)

    def test_zero_input(self, fam_beta2):
        traj = hb.simulate(fam_beta2, np.zeros(3),
                           [np.zeros(fam_beta2.step(k).u) for k in range(5)])
        assert sum(np.linalg.norm(y) for y in traj.outputs) == 0.0

    def test_doubled_feedthrough_violates(self, w_beta2):
        rng = np.random.default_rng(81)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        fam = hb.build_family(w_beta2, pair, k_max=12, tol=1e-13)
        st = fam.step(0)
        fam.steps[0] = hb.ColligationStep(B=st.B, D=2 * st.D, u=st.u)
        rep = hb.check_io_isometry(fam, trials=4, horizon=13,
                                   tol=1e-6, seed=6)
        assert not rep.isometric
        assert rep.worst_defect > 0.01


class TestRefusals:
    """Every refusal of a horizon or a dimension names what it refuses."""

    def test_horizon_past_the_weight_table(self, fam_beta2):
        # the same steps over a 4-term table: five steps read beta_5, which
        # beta_2 gives as a longer table does, and a custom copy by its last
        # ratio s = 5/4, beta_5 = 4/25 instead of 1/6: x(5), which is
        # (1/beta_5) times a sum that does not read the weight, grows by
        # 25/24, and nothing before it moves
        w = hb.make_weight_beta_alpha(2.0, 4)
        fam = dataclasses.replace(fam_beta2, weight=w)
        rng = np.random.default_rng(78)
        us = random_inputs(rng, fam, 5)
        x0 = cmat(rng, 3, 1).ravel()
        traj = hb.simulate(fam, x0, us)
        ref = hb.simulate(fam_beta2, x0, us)
        np.testing.assert_array_equal(traj.states, ref.states)
        np.testing.assert_array_equal(traj.outputs, ref.outputs)
        fam = dataclasses.replace(fam_beta2, weight=series_copy(w))
        custom = hb.simulate(fam, x0, us)
        np.testing.assert_array_equal(custom.states[:5], ref.states[:5])
        np.testing.assert_array_equal(custom.outputs, ref.outputs)
        np.testing.assert_allclose(custom.states[5], ref.states[5] * 25 / 24,
                                   rtol=1e-13)

    def test_initial_state_dimension(self, fam_beta2):
        with pytest.raises(hb.InvalidParameterError,
                           match="^x0 has wrong dimension$"):
            hb.simulate(fam_beta2, np.zeros(4), [])

    @pytest.mark.parametrize("steps", [-1, 14])
    def test_io_matrix_horizon(self, fam_beta2, steps):
        with pytest.raises(hb.InvalidParameterError, match=(
                f"^io_matrix needs 0 <= T_steps <= 13, got {steps}$")):
            hb.io_matrix(fam_beta2, steps)

    def test_io_isometry_horizon(self, fam_beta2):
        with pytest.raises(hb.InvalidParameterError,
                           match="^family too short for requested horizon$"):
            hb.check_io_isometry(fam_beta2, trials=1, horizon=14)

    def test_io_isometry_horizon_below_one(self):
        # one input step is always simulated, so horizon 0 read the tail
        # energy from x(0) and failed an isometric family (defect 0.316),
        # and horizon -1 met the gramian table's refusal of shift -1
        pair = hb.OutputPair([[0.5]], [[0.866]])
        fam = hb.build_family(hb.make_weight_hardy(64), pair, k_max=3)
        for h in (1, 2, 3):
            assert hb.check_io_isometry(fam, 2, h).isometric
        for h in (0, -1):
            with pytest.raises(hb.InvalidParameterError, match=(
                    f"^check_io_isometry needs horizon >= 1, "
                    f"got horizon={h}$")):
                hb.check_io_isometry(fam, 2, h)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_io_isometry_needs_a_trial(self, trials):
        # no input was simulated, yet the verdict was isometric with
        # defect 0
        pair = hb.OutputPair([[0.5]], [[0.866]])
        fam = hb.build_family(hb.make_weight_hardy(64), pair, k_max=3)
        with pytest.raises(hb.InvalidParameterError, match=(
                f"^check_io_isometry needs trials >= 1, "
                f"got trials={trials}$")):
            hb.check_io_isometry(fam, trials, 2)
