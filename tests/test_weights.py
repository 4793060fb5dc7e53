import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import hardybeta as hb
from hardybeta import weights


def binomial_reciprocal(n_int, length):
    """Oracle: coefficients of (1 - z)^n via the numpy polynomial ring."""
    poly = np.array([1.0])
    for _ in range(n_int):
        poly = np.convolve(poly, [1.0, -1.0])
    out = np.zeros(length)
    out[:len(poly)] = poly
    return out


class TestConstructors:
    def test_beta_alpha_2(self):
        w = hb.make_weight_beta_alpha(2.0, 4)
        np.testing.assert_allclose(w.betas, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5],
                                   rtol=1e-15)
        assert w.ratio_bound == 2.0
        assert w.kind == "beta_alpha"

    def test_beta_alpha_3(self):
        w = hb.make_weight_beta_alpha(3.0, 2)
        np.testing.assert_allclose(w.betas, [1, 1 / 3, 1 / 6], rtol=1e-15)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 7.25])
    def test_matches_gamma_formula(self, alpha):
        # recurrence vs direct log-gamma evaluation
        w = hb.make_weight_beta_alpha(alpha, 64)
        k = np.arange(65)
        ref = np.exp(gammaln(k + 1) + gammaln(alpha) - gammaln(alpha + k))
        np.testing.assert_allclose(w.betas, ref, rtol=1e-12)

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(hb.InvalidParameterError):
            hb.make_weight_beta_alpha(1.0, 8)
        with pytest.raises(hb.InvalidParameterError):
            hb.make_weight_beta_alpha(0.5, 8)

    def test_custom_constant_is_hardy(self):
        w = hb.make_weight_custom([1.0, 1.0, 1.0, 1.0])
        assert w.kind == "hardy"
        assert w.ratio_bound == 1.0

    def test_custom_increase_rejected(self):
        with pytest.raises(hb.AdmissibilityError):
            hb.make_weight_custom([1.0, 0.5, 0.6])

    def test_custom_ratio_bound(self):
        w = hb.make_weight_custom([1.0, 0.5, 1.0 / 3.0])
        assert w.ratio_bound == pytest.approx(2.0, rel=1e-15)

    def test_normalization(self):
        with pytest.raises(hb.NormalizationError):
            hb.make_weight_custom([2.0, 1.0])

    def test_positivity(self):
        with pytest.raises(hb.AdmissibilityError):
            hb.make_weight_custom([1.0, -0.5])


class TestReciprocalCoeffs:
    def test_hardy(self, w_hardy):
        c = hb.reciprocal_coeffs(w_hardy, 6)
        np.testing.assert_allclose(c, [1, -1, 0, 0, 0, 0, 0], atol=0)

    @pytest.mark.parametrize("n_int", [2, 3])
    def test_integer_alpha_polynomial(self, n_int):
        w = hb.make_weight_beta_alpha(float(n_int), 32)
        ref = binomial_reciprocal(n_int, 33)
        np.testing.assert_allclose(w.c_coeffs, ref, atol=1e-13)

    @pytest.mark.parametrize("alpha", [2.5, 7.25])
    def test_closed_form(self, alpha):
        # (-1)^j C(alpha, j) to 40 digits; scipy.special.binom is itself off
        # by 4.6e-12 relative at these j
        w = hb.make_weight_beta_alpha(alpha, 2048)
        ref = np.array([float((-1) ** j * mpmath.binomial(alpha, j))
                        for j in range(2049)])
        np.testing.assert_allclose(w.c_coeffs, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("make", [
        hb.make_weight_hardy,
        lambda n: hb.make_weight_beta_alpha(2.0, n),
        lambda n: hb.make_weight_beta_alpha(3.0, n)])
    def test_integer_tables_unchanged(self, make):
        # bit for bit the tables of the recursion the closed form replaced,
        # exact zeros (no -0.0) past alpha included
        w = make(2048)
        old = weights._reciprocal_series(w.inv_betas)
        assert np.array_equal(w.c_coeffs, old)
        assert np.array_equal(np.signbit(w.c_coeffs), np.signbit(old))

    def test_truncation_guard(self, w_beta2):
        with pytest.raises(hb.TruncationError):
            hb.reciprocal_coeffs(w_beta2, w_beta2.trunc_len + 1)

    def test_convolution_identity(self, all_weights):
        # sum_j c_j / beta_{n-j} = delta_{n,0}
        for w in all_weights:
            n = 40
            conv = [np.dot(w.c_coeffs[:m + 1], w.inv_betas[:m + 1][::-1])
                    for m in range(n)]
            target = np.zeros(n)
            target[0] = 1.0
            np.testing.assert_allclose(conv, target, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=9,
                max_size=24))
def test_convolution_identity_random_weights(ratios):
    betas = np.concatenate([[1.0], 1.0 / np.cumprod(ratios)])
    w = hb.make_weight_custom(betas)
    m = w.trunc_len
    conv = np.array([np.dot(w.c_coeffs[:j + 1], w.inv_betas[:j + 1][::-1])
                     for j in range(m + 1)])
    assert abs(conv[0] - 1.0) < 1e-10
    assert np.max(np.abs(conv[1:])) < 1e-9 * max(1.0, np.abs(w.c_coeffs).max())


class TestWiener:
    def test_beta2(self, w_beta2):
        rep = hb.wiener_report(w_beta2, 16)
        assert rep.partial_sum == pytest.approx(4.0, abs=1e-12)
        assert rep.tail_estimate == 0.0
        assert rep.verdict == "summable"

    def test_hardy(self, w_hardy):
        rep = hb.wiener_report(w_hardy, 16)
        assert rep.partial_sum == pytest.approx(2.0, abs=1e-14)
        assert rep.verdict == "summable"

    def test_adversarial_diverges(self):
        # reciprocal generating function has zeros inside the disk, so the
        # quotient coefficients grow geometrically
        w = hb.make_weight_custom([1.0, 1.0] + [0.25] * 60)
        assert w.wiener.verdict == "diverging"
        mags = np.abs(w.c_coeffs)
        assert mags[40] > mags[20] > mags[10]

    def test_short_custom_tables(self):
        # past the table the c_j obey a recurrence of order N - 1; the step
        # is read past c_0, whose ratio |c_1 / c_0| = 1/beta_1 is no step
        w = hb.make_weight_custom([1.0, 0.5])  # 1/R = 1 - 2z
        assert (w.c_step(1), w.wiener.tail_estimate) == (0.0, 0.0)
        w = hb.make_weight_custom([1.0, 0.5, 0.2])  # c_{j+1} = c_j / 2, j >= 1
        assert w.c_step(2) == 0.5
        assert w.wiener.verdict == "summable"
        w = hb.make_weight_custom([2.0 ** -j for j in range(11)])
        assert (w.c_step(10), w.wiener.tail_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize("alpha", [2.5, 7.25])
    def test_noninteger_tail_is_exact(self, alpha):
        w = hb.make_weight_beta_alpha(alpha, 64)
        # the direct sum of |c_j| up to j = 40000 (closed-form table checked
        # against mpmath above), against the report's cancellation-free form
        long = np.abs(weights._binomial_series(alpha, 40000))
        for n in (3, 64):
            rep = hb.wiener_report(w, n)
            true = long[n + 1:].sum()
            assert rep.verdict == "summable"
            assert rep.tail_estimate == pytest.approx(true, rel=1e-6)

    def test_short_integer_table(self):
        rep = hb.make_weight_beta_alpha(3.0, 2).wiener
        assert rep.partial_sum == 7.0 and rep.tail_estimate == 1.0


class TestShiftedTables:
    def test_hardy_constant(self, w_hardy):
        np.testing.assert_allclose(hb.shifted_resolvent_coeffs(w_hardy, 7, 5),
                                   np.ones(6), atol=0)

    def test_beta2_shift(self, w_beta2):
        np.testing.assert_allclose(hb.shifted_resolvent_coeffs(w_beta2, 1, 4),
                                   [2, 3, 4, 5, 6], rtol=1e-14)

    def test_zero_shift_is_reciprocal(self, w_beta3):
        np.testing.assert_allclose(
            hb.shifted_resolvent_coeffs(w_beta3, 0, 10),
            1.0 / w_beta3.betas[:11], rtol=0)

    def test_overflow_guard(self, w_beta2):
        with pytest.raises(hb.TruncationError):
            hb.shifted_resolvent_coeffs(w_beta2, w_beta2.trunc_len, 1)

    def test_coefficient_cross_identity(self, all_weights):
        # R_j = z R_{j+1} + 1/beta_j at the coefficient level
        for w in all_weights:
            for j in (0, 1, 5):
                lhs = hb.shifted_resolvent_coeffs(w, j, 8)
                rhs = np.concatenate(
                    [[w.inv_betas[j]], hb.shifted_resolvent_coeffs(w, j + 1, 7)])
                np.testing.assert_allclose(lhs, rhs, rtol=0)


class TestGammaKCoeffs:
    def test_hardy_identity(self, w_hardy):
        for k in (1, 3, 7):
            d = hb.gamma_k_coeffs(w_hardy, k, 6)
            np.testing.assert_allclose(d, [1, 0, 0, 0, 0, 0, 0], atol=0)

    def test_k_zero_identity(self, w_beta2):
        np.testing.assert_allclose(hb.gamma_k_coeffs(w_beta2, 0, 4),
                                   [1, 0, 0, 0, 0], atol=0)

    def test_beta2_k1_polynomial_product(self, w_beta2):
        # oracle: multiply the shifted table by (1 - z)^2
        d = hb.gamma_k_coeffs(w_beta2, 1, 5)
        shifted = hb.shifted_resolvent_coeffs(w_beta2, 1, 7)
        ref = np.convolve(shifted, [1, -2, 1])[:6]
        np.testing.assert_allclose(d, ref, atol=1e-12)
        np.testing.assert_allclose(d, [2, -1, 0, 0, 0, 0], atol=1e-12)

    def test_quotient_times_reciprocal(self, all_weights):
        # conv(1/beta, d^(k))_j = 1/beta_{k+j}: the quotient-series table
        # really is the Taylor data of R_k / R
        for w in all_weights:
            for k in (1, 2, 5):
                d = hb.gamma_k_coeffs(w, k, 30)
                for j in (0, 1, 7, 22):
                    got = np.dot(w.inv_betas[:j + 1][::-1], d[:j + 1])
                    assert got == pytest.approx(w.inv_betas[k + j], rel=1e-11)

    def test_step_down_recursion(self, all_weights):
        # d^(j)_m = d^(j+1)_{m-1} + c_m / beta_j
        for w in all_weights:
            for j in (1, 3):
                dj = hb.gamma_k_coeffs(w, j, 12)
                dj1 = hb.gamma_k_coeffs(w, j + 1, 12)
                for m in range(1, 12):
                    ref = dj1[m - 1] + w.inv_betas[j] * w.c_coeffs[m]
                    assert dj[m] == pytest.approx(ref, abs=1e-12)

    def test_table_guard(self, w_beta2):
        with pytest.raises(hb.TruncationError):
            hb.gamma_k_coeffs(w_beta2, 3, w_beta2.trunc_len)

    def test_quotient_rows_are_the_single_rows(self, all_weights):
        # one product for all shifts gives each shift's own row
        for w in all_weights:
            n = w.trunc_len - 20
            rows = hb.quotient_rows(w, range(1, 21), n)
            assert rows.shape == (20, n + 1)
            for k in (1, 2, 9, 20):
                np.testing.assert_allclose(rows[k - 1],
                                           hb.gamma_k_coeffs(w, k, n),
                                           rtol=1e-13, atol=1e-15)

    def test_quotient_rows_guards(self, w_beta2):
        with pytest.raises(hb.TruncationError):
            hb.quotient_rows(w_beta2, [1, 4], w_beta2.trunc_len - 3)
        for ks, n in (([0, 1], 5), ([1, 2], -1)):
            with pytest.raises(hb.InvalidParameterError):
                hb.quotient_rows(w_beta2, ks, n)
