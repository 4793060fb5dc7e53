import re
import sys
import threading

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import hardybeta as hb
from hardybeta import weights
from conftest import (continued_R, continued_inv, custom_copy_8, long_copy,
                      series_copy)

W8 = custom_copy_8()


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

    def test_past_the_table(self, w_beta2):
        # past the table: the bits of a longer one, or a custom weight's
        # recursion continued over its continued reciprocals, whose prefix
        # is the stored table
        n = w_beta2.trunc_len + 1
        np.testing.assert_array_equal(
            hb.reciprocal_coeffs(w_beta2, n),
            hb.reciprocal_coeffs(long_copy(w_beta2), n))
        custom = series_copy(w_beta2)
        c = hb.reciprocal_coeffs(custom, n)
        assert np.array_equal(c[:n], custom.c_coeffs)
        assert abs(np.dot(c, continued_inv(custom, n)[::-1])) < 1e-12

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


def test_concurrent_reads_past_the_table():
    # threads released together on one fresh short weight, each reading to
    # its own index past the table: every read, of the entries and of c,
    # has the bits of a long table, whichever growth lands last
    ref = hb.make_weight_beta_alpha(2.5, 2048)
    tops = [40 * (t + 1) for t in range(8)]
    rounds = 60
    weights_ = [hb.make_weight_beta_alpha(2.5, 4) for _ in range(rounds)]
    barrier = threading.Barrier(len(tops), timeout=60)
    errors = []

    def read(top):
        idx = np.arange(top + 1)
        want = ref._entries(idx) + (hb.reciprocal_coeffs(ref, top),)
        try:
            for w in weights_:
                barrier.wait()
                got = w._entries(idx) + (hb.reciprocal_coeffs(w, top),)
                if not all(map(np.array_equal, got, want)):
                    errors.append(top)
        except Exception as exc:  # a raise in a thread must fail the test
            errors.append(exc)
            barrier.abort()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(t,)) for t in tops]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


class TestEveryIndex:
    """Every weight answers at every index: hardy and ``beta_alpha`` by
    their recurrences, a custom weight past its table by its definition."""

    def test_custom_entries_by_definition(self):
        beta, inv = W8._entries(np.arange(40))
        s = W8.last_ratio
        assert s == 9 / 8
        np.testing.assert_array_equal(inv, continued_inv(W8, 39))
        np.testing.assert_array_equal(beta, np.concatenate(
            (W8.betas, W8.betas[8] / s ** np.arange(1, 32))))
        assert W8._entries(12) == (beta[12], inv[12])
        # 1/beta_10000 = 9 (9/8)^9992 does not fit a float: inf, and beta
        # 0, with no RuntimeWarning
        assert W8._entries(10 ** 4) == (0.0, np.inf)

    def test_custom_reciprocal_coeffs(self):
        # the table's recursion continued: its prefix is the stored table
        # bit for bit, and sum_j c_j / beta_{n-j} = delta_{n,0} through 20
        # for the continued weight
        c = hb.reciprocal_coeffs(W8, 20)
        assert np.array_equal(c[:9], W8.c_coeffs)
        inv = continued_inv(W8, 20)
        conv = [np.dot(c[:n + 1], inv[:n + 1][::-1]) for n in range(21)]
        np.testing.assert_allclose(conv, np.eye(1, 21)[0], rtol=0,
                                   atol=1e-12)
        # read in two steps, the same bits
        w = hb.make_weight_custom(W8.betas)
        hb.reciprocal_coeffs(w, 12)
        assert np.array_equal(hb.reciprocal_coeffs(w, 20), c)

    @pytest.mark.parametrize("make", [
        hb.make_weight_hardy, lambda n: hb.make_weight_beta_alpha(2.5, n)],
        ids=["hardy", "beta2.5"])
    def test_tables_extended_in_place(self, make, monkeypatch):
        # past the table no weight is built, and no Wiener report made: the
        # tables grow by their own recurrences, to a longer table's bits
        w, ref = make(16), make(2048)
        for name in ("make_weight_hardy", "make_weight_beta_alpha",
                     "wiener_report"):
            monkeypatch.setattr(weights, name, _raise)
        idx = np.arange(2049)
        assert all(map(np.array_equal, w._entries(idx), ref._entries(idx)))
        np.testing.assert_array_equal(hb.reciprocal_coeffs(w, 2048),
                                      ref.c_coeffs)


def _raise(*args, **kwargs):
    raise AssertionError("called")


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

    @pytest.mark.parametrize("make", [
        hb.make_weight_hardy, lambda n: hb.make_weight_beta_alpha(2.5, n),
        lambda n: hb.make_weight_beta_alpha(7.5, n)],
        ids=["hardy", "beta2.5", "beta7.5"])
    def test_past_the_table(self, make):
        # c past a short table is that of a longer one: so is the report,
        # the one made at construction included (alpha 7.5 sums to c_7)
        w, ref = make(2), make(2048)
        for n in (2, 9, 40):
            assert hb.wiener_report(w, n) == hb.wiener_report(ref, n)
        assert w.wiener == hb.wiener_report(ref, 2)

    def test_custom_past_the_table(self):
        # 1/beta_j = 2^j, so 1/R = 1 - 2z: the report reads c_9, one past
        # the table, and the tail past it is exactly 0
        w = hb.make_weight_custom(0.5 ** np.arange(9))
        assert hb.wiener_report(w, 9) \
            == hb.WienerReport(3.0, 0.0, "summable", "polynomial 1/R")

    def test_adversarial_diverges(self):
        # reciprocal generating function has zeros inside the disk, so the
        # quotient coefficients grow geometrically
        w = hb.make_weight_custom([1.0, 1.0] + [0.25] * 60)
        assert w.wiener.verdict == "diverging"
        mags = np.abs(w.c_coeffs)
        assert mags[40] > mags[20] > mags[10]

    def test_short_custom_tables(self):
        # 1/R = (1 - s z) / P with P = (1 - s z) R of degree below N: a
        # constant P makes 1/R a polynomial with an exact tail, any other
        # P is decided by Schur-Cohn, with no tail
        w = hb.make_weight_custom([1.0, 0.5])  # 1/R = 1 - 2z
        assert (w.wiener.verdict, w.wiener.tail_estimate, w.wiener.rule) \
            == ("summable", 0.0, "polynomial 1/R")
        w = hb.make_weight_custom([1.0, 0.5, 0.2])  # P = 1 - z/2
        assert (w.wiener.verdict, w.wiener.tail_estimate, w.wiener.rule) \
            == ("summable", None, "Schur-Cohn on P of degree 1")
        w = hb.make_weight_custom([2.0 ** -j for j in range(11)])
        assert (w.wiener.verdict, w.wiener.tail_estimate, w.wiener.rule) \
            == ("summable", 0.0, "polynomial 1/R")

    @pytest.mark.parametrize("table,verdict", [
        *[((alpha, N), "summable") for alpha in (1.2, 2.0, 2.5, 2.9)
          for N in (16, 64, 256)],
        *[((alpha, N), "diverging") for alpha in (3.0, 3.5, 4.0)
          for N in (16, 64, 256)],
        ([1.0, 1.0] + [0.25] * 60, "diverging"),
        ([2.0 ** -j for j in range(20)] + [1 / (2.0 ** 20 - 1.0)],
         "summable"),
    ], ids=lambda v: v if isinstance(v, str)
        else "beta%g-%d" % v if isinstance(v, tuple) else f"table{len(v)}")
    def test_verdict_against_roots(self, table, verdict):
        # a custom copy of beta_alpha at N entries, or a fixed table: the
        # verdict is "summable" iff P = (1 - s z) R has no zero in the
        # closed disk.  beta_3's P is palindromic, p_m = (m+1)(N-m)/N, with
        # its zeros on the circle, which rounding moves by about 1e-13
        if isinstance(table, tuple):
            table = hb.make_weight_beta_alpha(*table).betas
        w = hb.make_weight_custom(table)
        inv = 1.0 / np.asarray(table)
        s = table[-2] / table[-1]
        P = np.trim_zeros(inv[:-1] - s * np.concatenate([[0.0], inv[:-2]]),
                          "b")
        nearest = np.abs(np.roots(P[::-1])).min()
        assert (nearest > 1.0 + 1e-9) == (verdict == "summable")
        assert w.wiener.verdict == verdict
        assert w.wiener.rule == f"Schur-Cohn on P of degree {len(P) - 1}"
        assert w.wiener.tail_estimate is None

    def test_one_entry_table_is_hardy(self):
        # the last-ratio rule continues beta_0 = 1 at ratio 1: 1/R = 1 - z,
        # so the tail past c_0 is |c_1| = 1 exactly
        w = hb.make_weight_custom([1.0])
        assert w.kind == "custom"
        assert (w.wiener.verdict, w.wiener.partial_sum,
                w.wiener.tail_estimate) == ("summable", 1.0, 1.0)

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

    def test_past_the_table(self, w_beta2):
        # the bits of a longer table, or a custom weight's definition
        N = w_beta2.trunc_len
        np.testing.assert_array_equal(
            hb.shifted_resolvent_coeffs(w_beta2, N, 1),
            hb.shifted_resolvent_coeffs(long_copy(w_beta2), N, 1))
        custom = series_copy(w_beta2)
        np.testing.assert_array_equal(
            hb.shifted_resolvent_coeffs(custom, N, 1),
            continued_inv(custom, N + 1)[N:])

    def test_coefficient_cross_identity(self, all_weights):
        # R_j = z R_{j+1} + 1/beta_j at the coefficient level
        for w in all_weights:
            for j in (0, 1, 5):
                lhs = hb.shifted_resolvent_coeffs(w, j, 8)
                rhs = np.concatenate(
                    [[w.inv_betas[j]], hb.shifted_resolvent_coeffs(w, j + 1, 7)])
                np.testing.assert_allclose(lhs, rhs, rtol=0)


class TestGammaKCoeffs:
    """The quotient-series rows ``d^(k)`` of ``quotient_rows``, the
    coefficients of the shifted hereditary maps."""

    def test_hardy_identity(self, w_hardy):
        d = hb.quotient_rows(w_hardy, [1, 3, 7], 6)
        np.testing.assert_allclose(d, [[1, 0, 0, 0, 0, 0, 0]] * 3, atol=0)

    def test_beta2_k1_polynomial_product(self, w_beta2):
        # oracle: multiply the shifted table by (1 - z)^2
        d = hb.quotient_rows(w_beta2, [1], 5)[0]
        shifted = hb.shifted_resolvent_coeffs(w_beta2, 1, 7)
        ref = np.convolve(shifted, [1, -2, 1])[:6]
        np.testing.assert_allclose(d, ref, atol=1e-12)
        np.testing.assert_allclose(d, [2, -1, 0, 0, 0, 0], atol=1e-12)

    def test_quotient_times_reciprocal(self, all_weights):
        # conv(1/beta, d^(k))_j = 1/beta_{k+j}: the quotient-series table
        # really is the Taylor data of R_k / R
        for w in all_weights:
            for k, d in zip((1, 2, 5), hb.quotient_rows(w, [1, 2, 5], 30)):
                for j in (0, 1, 7, 22):
                    got = np.dot(w.inv_betas[:j + 1][::-1], d[:j + 1])
                    assert got == pytest.approx(w.inv_betas[k + j], rel=1e-11)

    def test_step_down_recursion(self, all_weights):
        # d^(j)_m = d^(j+1)_{m-1} + c_m / beta_j
        for w in all_weights:
            for j in (1, 3):
                dj, dj1 = hb.quotient_rows(w, [j, j + 1], 12)
                for m in range(1, 12):
                    ref = dj1[m - 1] + w.inv_betas[j] * w.c_coeffs[m]
                    assert dj[m] == pytest.approx(ref, abs=1e-12)

    def test_past_the_table(self, w_beta2):
        # the bits of a longer table; a custom weight's rows past its table
        # are the Taylor data of R_k / R for the continued weight
        N = w_beta2.trunc_len
        for ks, n in (([3], N), ([1, 4], N - 3)):
            np.testing.assert_array_equal(
                hb.quotient_rows(w_beta2, ks, n),
                hb.quotient_rows(long_copy(w_beta2), ks, n))
        for k, d in zip((3, 12), hb.quotient_rows(W8, [3, 12], 20)):
            inv = continued_inv(W8, k + 20)
            for j in range(21):
                assert np.dot(inv[:j + 1][::-1], d[:j + 1]) \
                    == pytest.approx(inv[k + j], rel=1e-12)

    def test_quotient_rows_are_the_single_rows(self, all_weights):
        # one product for all shifts gives each shift's own row
        for w in all_weights:
            n = w.trunc_len - 20
            rows = hb.quotient_rows(w, range(1, 21), n)
            assert rows.shape == (20, n + 1)
            for k in (1, 2, 9, 20):
                np.testing.assert_allclose(rows[k - 1],
                                           hb.quotient_rows(w, [k], n)[0],
                                           rtol=1e-13, atol=1e-15)

    def test_quotient_rows_guards(self, w_beta2):
        for ks, n in (([0, 1], 5), ([1, 2], -1)):
            with pytest.raises(hb.InvalidParameterError):
                hb.quotient_rows(w_beta2, ks, n)

    def test_hereditary_rows_kept_read_only(self, all_weights):
        # built once per weight, shifts and length: the same read-only
        # array on every call, equal to a fresh build
        for w in all_weights:
            n = w.trunc_len - 6
            for ks, gamma in ((range(1, 7), True), ([3], False), ([], True)):
                rows = weights.hereditary_rows(w, ks, n, gamma)
                fresh = np.vstack(([w.c_coeffs[None, :n + 1]] if gamma
                                   else [])
                                  + ([hb.quotient_rows(w, ks, n)] if ks
                                     else []))
                assert np.array_equal(rows, fresh)
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[0, 0] = 1.0
                assert weights.hereditary_rows(w, list(ks), n, gamma) is rows


class TestRefusals:
    """Every refusal of a constructor or a table query names what it
    refuses."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda: hb.make_weight_hardy(0), hb.InvalidParameterError,
         "need at least two stored weights"),
        (lambda: hb.make_weight_beta_alpha(2.0, 0), hb.InvalidParameterError,
         "need at least two stored weights"),
        (lambda: hb.make_weight_custom([]), hb.InvalidParameterError,
         "betas must be a nonempty 1-d sequence"),
        (lambda: hb.make_weight_custom([[1.0, 0.5]]),
         hb.InvalidParameterError, "betas must be a nonempty 1-d sequence"),
        (lambda: hb.make_weight_custom([1.0, np.nan]),
         hb.InvalidParameterError, "betas must be finite"),
        (lambda: hb.make_weight_beta_alpha(np.inf), hb.InvalidParameterError,
         "alpha must be finite, > 1, got inf"),
        (lambda: hb.make_weight_beta_alpha(0.5), hb.InvalidParameterError,
         "alpha must be finite, > 1, got 0.5"),
        (lambda: hb.wiener_report(hb.make_weight_hardy(8), -1),
         hb.InvalidParameterError, "wiener_report needs n >= 0, got -1"),
        (lambda: hb.shifted_resolvent_coeffs(hb.make_weight_hardy(8), -1, 2),
         hb.InvalidParameterError, "k and n must be nonnegative"),
        # this c row steps by 0.9, not the hardy value 1 once answered
        (lambda: hb.make_weight_custom([1.0] + [1 / 1.9] * 180).c_step(180),
         hb.InvalidParameterError, "c_step has no bound for a custom "
         "weight: its hereditary maps take the rational form "
         "(rational_rows)"),
    ], ids=["hardy-short", "beta-short", "custom-empty", "custom-2d",
            "custom-nan", "alpha-inf", "alpha-low", "wiener-negative",
            "shifted-negative", "c-step-custom"])
    def test_refusal_text(self, call, error, match):
        with pytest.raises(error, match="^" + re.escape(match) + "$"):
            call()

    def test_shortest_tables_build(self):
        # n = 1, two stored weights, is the least table
        assert hb.make_weight_hardy(1).betas.tolist() == [1.0, 1.0]
        assert hb.make_weight_beta_alpha(2.0, 1).betas.tolist() == [1.0, 0.5]

    def test_one_trailing_entry_is_summable(self):
        # the table's c is 1 - 2z + z^20, one nonzero entry among
        # c_4..c_20, which shows nothing of the tail.  Past the table
        # P = 1 + sum_{m=1..19} 2^(m-20) z^m, whose nearest zero is at
        # 1.0016, so the weight is summable and its map is answered
        inv = [2.0 ** j for j in range(20)] + [2.0 ** 20 - 1.0]
        w = hb.make_weight_custom([1.0 / x for x in inv])
        assert np.count_nonzero(w.c_coeffs[4:]) == 1
        assert (w.wiener.verdict, w.wiener.tail_estimate, w.wiener.rule) \
            == ("summable", None, "Schur-Cohn on P of degree 19")
        with mpmath.workdps(34):
            ref = float(1 / continued_R(w.betas)(0, mpmath.mpf(0.09)))
        np.testing.assert_allclose(hb.gamma_map(w, 0.3 * np.eye(2),
                                                np.eye(2)),
                                   ref * np.eye(2), rtol=1e-14, atol=0)
