"""The series engine: where a series is cut, what its tail bound covers, and
how a too-short weight table is reported."""

import numpy as np
import pytest
from scipy.special import gammaln

import hardybeta as hb
from hardybeta import hereditary as her
from hardybeta import series
from conftest import mp_maps, off_route, series_copy

#: diagonal (normal) operator: ||A^j|| = rho^j, so the observed transient
#: constant is a true bound and the closed forms below are exact
DIAG = np.diag([0.9, -0.5 + 0.3j, 0.2j])


def _weight(kind):
    """The hardy or beta_2 table of 256 entries as a custom weight, which
    sums the series (hardy and integer alpha are closed form), and the
    power alpha of ``R(x) = (1 - x)^-alpha``."""
    if kind == "hardy":
        return series_copy(hb.make_weight_hardy(256)), 1
    return series_copy(hb.make_weight_beta_alpha(2.0, 256)), 2


def _span(right, q, left=None):
    """The certified span: the first ``m = 2^i`` with
    ``||L^m||_F ||R^m||_F <= q^m``, from plain matrix powers; 1 for a
    conjugation at ``q >= 1``."""
    m = 1
    while not (left is not None and q >= 1.0) and np.linalg.norm(
            np.linalg.matrix_power(right, m)) * (
            1.0 if left is None
            else np.linalg.norm(np.linalg.matrix_power(left, m))) > q ** m:
        m *= 2
    return m


def _reference(first, right, rows, q, steps, tol, left=None):
    """The certified rule as a plain per-term loop: ``T_{j+1} = left T_j
    right``, ``K`` the maximum of ``||T_s|| / q^s`` over the span ``s < m``,
    and the cut the first ``j >= 4`` with ``K * worst[j] <= tol``; a term
    with every entry 0 inside the span ends the series.  Returns (terms, K,
    ended by a zero term), or (terms, K, None) when the table runs out."""
    worst = series.RowTails(rows, q, steps).worst
    m = _span(right, q, left)
    terms = [first]
    while len(terms) < max(m, len(worst)):
        T = terms[-1]
        terms.append((T if left is None else left @ T) @ right)
    K = max(np.linalg.norm(terms[s]) / q ** s for s in range(m))
    for s in range(m):
        if not terms[s].any():
            return terms[:s + 1], K, True
    for j in range(4, len(worst)):
        if K * worst[j] <= tol:
            return terms[:j + 1], K, False
    return terms[:len(worst)], K, None


def _normal(rng, n, rho):
    U = np.linalg.qr(rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))[0]
    lam = rho * np.exp(2j * np.pi * rng.uniform(size=n))
    lam[0] = rho
    return (U * lam) @ U.conj().T


def _nonnormal(rng, n, rho):
    lam = rng.uniform(0.3, rho, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    lam[0] = rho
    return np.diag(lam) + 2.0 * np.triu(rng.standard_normal((n, n)), 1)


_JORDAN = 0.9 * np.eye(8) + np.diag(np.ones(7), 1)


class TestBlocksMatchTermByTerm:
    """The engine makes the terms of a term-by-term loop, bit for bit, and
    cuts where it cuts."""

    @pytest.mark.parametrize("make", ["normal", "nonnormal", "jordan"])
    @pytest.mark.parametrize("form", ["powers", "conjugations"])
    def test_same_cut_and_constant(self, make, form):
        rng = np.random.default_rng(7)
        w = hb.make_weight_beta_alpha(2.5, 2048)
        for trial in range(3):
            n = 8 if make == "jordan" else int(rng.integers(2, 7))
            A = {"normal": lambda: _normal(rng, n, 0.95),
                 "nonnormal": lambda: _nonnormal(rng, n, 0.9),
                 "jordan": lambda: _JORDAN}[make]().astype(complex)
            rho = hb.spectral_radius(A)
            if form == "powers":
                args = (np.eye(n, dtype=complex), A, [w.inv_betas],
                        series.decay_rate(rho), w.inv_step(w.trunc_len))
                left = None
            else:
                C = rng.standard_normal((2, n)) + 0j
                rows = [w.inv_betas[k:k + 2000] for k in range(3)]
                args = (C.conj().T @ C, A, rows, series.conjugation_rate(rho),
                        [w.inv_step(k + 1999) for k in range(3)])
                left = A.conj().T
            for tol in (1e-4, 1e-10):
                ref, K, zero = _reference(*args, tol, left=left)
                assert zero is False
                rec = series.adaptive_sum(*args, tol, "test", left=left)
                assert rec.J == len(ref) - 1
                assert rec.K == pytest.approx(K, rel=1e-13)
                np.testing.assert_array_equal(rec.terms, np.stack(ref))

    @pytest.mark.parametrize("index", [3, 5])
    def test_zero_term_inside_block_ends_series(self, w_hardy, index):
        # A^index = 0 exactly, so the certified span is m = 4 (index 3) or
        # 8 (index 5), and the zero term sits inside it: the sum is finite
        A = np.diag(np.ones(index - 1), 1).astype(complex)
        args = (np.eye(index, dtype=complex), A, [w_hardy.c_coeffs,
                                                  w_hardy.inv_betas],
                series.conjugation_rate(0.0),
                [w_hardy.c_step(256), w_hardy.inv_step(256)])
        ref, K, zero = _reference(*args, 1e-10, left=A.conj().T)
        assert zero is True and len(ref) == index + 1
        assert _span(A, args[3], A.conj().T) == {3: 4, 5: 8}[index]
        rec = series.adaptive_sum(*args, 1e-10, "test", left=A.conj().T)
        assert rec.J == index
        assert rec.K == K
        assert rec.tails == [0.0, 0.0]
        assert rec.terms.shape == (index + 1, index, index)
        assert not rec.terms[-1].any()

    def test_record_holds_exactly_the_cut(self, w_hardy):
        A = np.diag([0.7, 0.5j]).astype(complex)
        args = (np.eye(2, dtype=complex), A, [w_hardy.inv_betas],
                series.decay_rate(0.7), w_hardy.inv_step(256))
        rec = series.adaptive_sum(*args, 1e-6, "test")
        ref = _reference(*args, 1e-6)[0]
        J = rec.J
        assert J & (J + 1) and J & (J - 1)  # neither J nor J + 1 a power of 2
        assert isinstance(rec.terms, np.ndarray)
        assert rec.terms.shape == (J + 1, 2, 2) == (len(ref), 2, 2)


class TestTooShortTable:
    # hardy and integer alpha are closed form and beta_1.5 takes the
    # spectral route; its table entered as a custom weight sums the series,
    # and so do its maps past the spectral route's gate
    def test_resolvent_apply_names_caller(self):
        w = series_copy(hb.make_weight_beta_alpha(1.5, 16))
        with pytest.raises(hb.ConvergenceError, match="^resolvent_apply: "):
            hb.resolvent_apply(w, 0, 0.99 * np.eye(2), 0.99)

    def test_resolvent_scalar_names_caller(self):
        w = series_copy(hb.make_weight_beta_alpha(1.5, 16))
        with pytest.raises(hb.ConvergenceError, match="^resolvent_scalar: "):
            hb.resolvent_scalar(w, 0, 0.95)

    def test_gramian_table_names_caller(self):
        # hardy and integer alpha take the Stein solve and beta_1.5 the
        # spectral route; the beta_1.5 table as a custom weight sums a series
        w = series_copy(hb.make_weight_beta_alpha(1.5, 16))
        pair = hb.OutputPair(A=0.95 * np.eye(2), C=np.ones((1, 2)))
        with pytest.raises(hb.ConvergenceError, match="^gramian_table: "):
            hb.gramian_table(w, pair, 2)

    def test_message_text(self):
        # the whole message of a 16-term table, as the term-by-term engine
        # wrote it; the gamma_map bound is the closed-form c step's (the
        # trailing-ratio extrapolation it replaced gave inf here).  Every
        # case is beta_1.5's, since hardy is closed form; its resolvent row,
        # as a custom weight, steps by its last ratio 16.5/16 past the
        # table, and at q = 0.985 that bounds no tail, so the message names
        # the step and q and gives no advice: a custom weight keeps that
        # step however long its table.  The gramian and the resolvent are
        # the table's as a custom weight (the same rows and steps) and the
        # map is the series that gamma_map takes past the spectral route's
        # gate: the route answers all three inputs
        w = hb.make_weight_beta_alpha(1.5, 16)
        A = 0.95 * np.eye(2)
        cases = [
            (lambda: hb.gramian_table(series_copy(w),
                                      hb.OutputPair(A=A, C=np.ones((1, 2))),
                                      2),
             "gramian_table: tail bound 2.369e+02 > tol 1.000e-10 after 15 "
             "stored terms; increase the weight truncation"),
            (lambda: hb.resolvent_apply(series_copy(w), 0, 0.99 * np.eye(2),
                                        0.99),
             "resolvent_apply: tail bound inf > tol 1.000e-12 after 17 "
             "stored terms: a row's step bound past the table, 1.03125, "
             "times the decay rate q = 0.98505 is 1.01583 >= 1"),
            (lambda: her._hereditary_sums(w, off_route(np.diag([0.95, 0.5])),
                                          np.eye(2), np.arange(0), 1e-10,
                                          "gamma_map", gamma=True),
             "gamma_map: tail bound 5.656e-03 > tol 1.000e-10 after 17 stored "
             "terms; increase the weight truncation"),
        ]
        for call, text in cases:
            with pytest.raises(hb.ConvergenceError) as info:
                call()
            assert str(info.value) == text

    def test_unbounded_step_names_the_step_and_rate(self):
        # at q < 1 an infinite bound comes from a row whose step past the
        # table times q is at least 1; a custom weight keeps its last ratio
        # (65/64 for a beta_2 copy) there, so a longer table would not
        # help, and the message gives no advice (ROADMAP prototype P8)
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 64).betas)
        pair = hb.OutputPair(A=np.diag([0.995, 0.3]), C=np.ones((1, 2)))
        with pytest.raises(hb.ConvergenceError) as info:
            hb.gramian_table(w, pair, 0)
        assert str(info.value) == (
            "gramian_table: tail bound inf > tol 1.000e-10 after 65 stored "
            "terms: a row's step bound past the table, 1.01562, times the "
            "decay rate q = 0.995006 is 1.01055 >= 1")

    def test_unbounded_tail_names_the_rate(self):
        # a resolvent's rate |z| (1 + rho)/2 is below 1 on the disk, so
        # only a conjugation at rho(A) = 1 has q = 1: the c row of
        # beta_1.5 has step bound 1 past the table, and no table length
        # gives a bound (rho(A) = 1 fails the spectral route's gate)
        for n in (16, 256):
            with pytest.raises(hb.ConvergenceError) as info:
                hb.gamma_map(hb.make_weight_beta_alpha(1.5, n),
                             np.diag([1.0, 0.5]), np.diag([0.0, 1.0]), 1e-6)
            assert str(info.value) == (
                "gamma_map: tail bound inf > tol 1.000e-06: the decay "
                "rate q = 1 >= 1 bounds no tail, whatever the weight "
                "truncation")

    def test_uncertified_rate_names_q_and_m(self):
        # a rotation keeps ||R^m||_F = sqrt(2) > 1 = q^m for every m; the
        # row 2^-j goes on past its 64 entries at step 1/2, and its table
        # holds a cut for ||T_0||, so the refusal is the certificate's, at
        # the first power of two past the table
        R = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
        with pytest.raises(hb.ConvergenceError) as info:
            series.adaptive_sum(np.eye(2, dtype=complex), R,
                                [0.5 ** np.arange(64)], 1.0, 0.5, 1e-10,
                                "test")
        assert str(info.value) == (
            "test: decay rate q = 1 is not certified by ||A^64|| within 64 "
            "stored terms")


class TestTailCoversRemainder:
    @pytest.mark.parametrize("kind", ["hardy", "beta2"])
    def test_resolvent(self, kind):
        w, power = _weight(kind)
        tol = 1e-2
        for z in (0.8, 0.6 - 0.5j, -0.7j):
            S, rec = her._resolvent_table(w, 0, her._operator(DIAG), z,
                                          tol)
            exact = np.linalg.matrix_power(
                np.linalg.inv(np.eye(3) - z * DIAG), power)
            remainder = np.linalg.norm(exact - S)
            assert 1e-10 < remainder <= rec.tails[0] <= tol

    @pytest.mark.parametrize("kind", ["hardy", "beta2"])
    def test_resolvent_grid(self, kind):
        # one cut for the whole grid, made at its largest radius 0.8: the
        # bound covers the remainder at every point, not only at that radius
        w, power = _weight(kind)
        tol = 1e-2
        zs = np.array([0.8, 0.6 - 0.5j, -0.7j, 0.5, -0.2 + 0.1j, 0.0])
        S, rec = her._resolvent_table(w, 0, her._operator(DIAG), zs, tol)
        for z, Sz in zip(zs, S):
            exact = np.linalg.matrix_power(
                np.linalg.inv(np.eye(3) - z * DIAG), power)
            assert np.linalg.norm(exact - Sz) <= rec.tails[0] <= tol
        assert np.linalg.norm(exact - Sz) == 0.0  # z = 0 is exact

    @pytest.mark.parametrize("kind", ["beta1.5", "custom_beta2"])
    def test_gramian(self, kind):
        # hardy and integer alpha take the Stein solve, with no tail, and
        # beta_1.5 the spectral route; these two tables as custom weights
        # sum the series (a custom table continues at its last ratio, which
        # moves the exact value by far less than tol)
        w, power = ((series_copy(hb.make_weight_beta_alpha(1.5, 256)), 1.5)
                    if kind == "beta1.5" else
                    (hb.make_weight_custom(_weight("beta2")[0].betas), 2))
        tol = 1e-2
        C = np.array([[1.0, 0.5j, -0.25]])
        tab = hb.gramian_table(w, hb.OutputPair(A=DIAG, C=C), 0, tol=tol)
        a = np.diag(DIAG)
        exact = (C.conj().T @ C) / (1.0 - np.conj(a)[:, None] * a) ** power
        remainder = np.linalg.norm(exact - tab[0])
        assert 1e-10 < remainder <= tab.tail_bounds[0] <= tol


def test_nilpotent_gramian_has_zero_tail(w_beta2):
    # the custom copy of the beta_2 table takes the series; A^4 = 0 makes
    # the certified span m = 4, and the zero term A^3 X A^3 inside it ends
    # the sum exactly
    w = hb.make_weight_custom(w_beta2.betas)
    A = np.diag([1.0, 1.0], 1)  # A^3 = 0
    C = np.array([[1.0, 0.5, 0.25]])
    tab = hb.gramian_table(w, hb.OutputPair(A=A, C=C), 2)
    assert tab.trunc_order == 3
    for k in range(3):
        assert tab.tail_bounds[k] == 0.0
        exact = sum(w.inv_betas[k + j]
                    * (np.linalg.matrix_power(A, j).T @ C.T @ C
                       @ np.linalg.matrix_power(A, j)) for j in range(3))
        np.testing.assert_allclose(tab[k], exact, atol=1e-15)


def test_short_table_nilpotent_gramian_is_exact():
    # a 13-entry table holds no cut even for ||T_0||, but A^3 = 0 makes
    # the sum finite, and it is summed to its zero term
    w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 12).betas)
    A = np.diag([1.0, 1.0], 1)
    C = np.array([[1.0, 0.5, 0.25]])
    tab = hb.gramian_table(w, hb.OutputPair(A=A, C=C), 0)
    assert tab.trunc_order == 3 and tab.tail_bounds == {0: 0.0}
    exact = sum(w.inv_betas[j] * (np.linalg.matrix_power(A, j).T @ C.T @ C
                                  @ np.linalg.matrix_power(A, j))
                for j in range(3))
    np.testing.assert_allclose(tab[0], exact, atol=1e-15)
    # a singular A whose terms never vanish is still refused
    with pytest.raises(hb.ConvergenceError, match="^gramian_table: tail "):
        hb.gramian_table(w, hb.OutputPair(A=np.diag([0.95, 0.0, 0.0]), C=C),
                         0)


class TestFiniteRows:
    """A custom copy of beta_2 continues past its table at its last ratio
    ``s``, so ``1/R = (1 - s z) / P`` and its hereditary maps are finite
    rows over ``P(L)^-1 X`` whatever ``A``: no series and no tail."""

    w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 256).betas)

    @staticmethod
    def _jordan(n, rho):
        return rho * np.eye(n) + np.diag(np.ones(n - 1), 1)

    def test_gamma_map_is_the_finite_sum(self):
        A = self._jordan(3, 0.99)
        M = np.eye(9) - np.kron(A.T, A.T)  # X - A* X A = I
        X = np.linalg.solve(M, np.eye(3).reshape(-1)).reshape(3, 3)
        X = (X + X.T) / 2
        # the 34-digit truth; the c row cut at its table, X - 2 L X +
        # L^2 X, is off by 2.2e-5 of max|X|
        exact = mp_maps(self.w.betas, A, X, [0])[0]
        np.testing.assert_allclose(hb.gamma_map(self.w, A, X), exact,
                                   rtol=0, atol=1e-12 * np.abs(X).max())


def test_rate_one_hereditary_map():
    # rho(U) = 1 gives the conjugation rate 1, which squaring would never
    # certify (||U^m||_F = sqrt(3)); the rational form needs no rate:
    # P = 1, so Gamma[I] = I - 2 U* U = -I
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3)))[0]
    out = hb.gamma_map(hb.make_weight_custom([1.0, 0.5]), U, np.eye(3))
    np.testing.assert_allclose(out, -np.eye(3), atol=1e-14)


def test_rate_one_certifies_an_infinite_row():
    # 1/beta = 1, 1.9, 1.9, ... gives 1/R(x) = (1 - x)/(1 + 0.9 x): the c
    # row never ends and steps by 0.9 past its table.  At rho(A) = 1 no
    # squaring certifies a rate, since ||A^m||_F^2 = 1 + 0.99^(2m) > 1; the
    # rational form, P = 1 + 0.9 z, needs none
    w = hb.make_weight_custom([1.0] + [1 / 1.9] * 180)
    out = hb.gamma_map(w, np.diag([1.0, 0.99]), np.diag([0.0, 1.0]), tol=1e-6)
    x = 0.99 ** 2
    np.testing.assert_allclose(out, np.diag([0.0, (1 - x) / (1 + 0.9 * x)]),
                               rtol=0, atol=1e-6)


def _brute_gramian(A, C, alpha, terms=8000):
    """``sum_j (1/beta_j) A^{*j} C^* C A^j`` over ``terms`` terms, with the
    closed form ``1/beta_j = Gamma(alpha + j) / (Gamma(alpha) j!)``."""
    inv = np.exp(gammaln(alpha + np.arange(terms)) - gammaln(alpha)
                 - gammaln(np.arange(terms) + 1.0))
    T, S = C.conj().T @ C + 0j, np.zeros(A.shape, dtype=complex)
    for c in inv:
        S += c * T
        T = A.conj().T @ T @ A
    return S


@pytest.mark.parametrize("kind", ["beta1.5", "custom_beta2"])
def test_jordan_probe_within_tail(kind):
    # ||A^j|| grows for dozens of steps before it decays, and C is tiny:
    # a constant read off the first few terms stopped at J = 4 with
    # ||G|| near 1e-12, where the sum is 10.8 (beta_1.5) or 83.8 (beta_2)
    alpha = 1.5 if kind == "beta1.5" else 2.0
    w = hb.make_weight_beta_alpha(alpha, 768)
    if kind == "custom_beta2":
        w = hb.make_weight_custom(w.betas)
    C = np.zeros((1, 8))
    C[0, 0] = 1e-7
    tab = hb.gramian_table(w, hb.OutputPair(A=_JORDAN, C=C), 0)
    exact = _brute_gramian(_JORDAN, C, alpha)
    assert np.linalg.norm(exact, 2) > 10.0
    assert np.linalg.norm(tab[0] - exact) <= tab.tail_bounds[0] <= 1e-10


@pytest.mark.parametrize("make", ["normal", "nonnormal", "jordan"])
@pytest.mark.parametrize("form", ["powers", "conjugations"])
def test_terms_obey_certified_constant(make, form):
    """Every term up to ``j = 4m`` obeys ``||T_j||_F <= K q^j`` for the
    returned ``K``, ``m`` the certified span."""
    rng = np.random.default_rng(13)
    w = hb.make_weight_beta_alpha(2.5, 2048)
    for _ in range(4):
        n = 8 if make == "jordan" else int(rng.integers(2, 7))
        A = {"normal": lambda: _normal(rng, n, 0.95),
             "nonnormal": lambda: _nonnormal(rng, n, 0.9),
             "jordan": lambda: _JORDAN}[make]().astype(complex)
        rho = hb.spectral_radius(A)
        if form == "powers":
            first, left, q = np.eye(n, dtype=complex), None, \
                series.decay_rate(rho)
        else:
            C = rng.standard_normal((2, n)) + 0j
            first, left, q = C.conj().T @ C, A.conj().T, \
                series.conjugation_rate(rho)
        rec = series.adaptive_sum(first, A, [w.inv_betas], q,
                                  w.inv_step(w.trunc_len), 1e-4, "test",
                                  left=left)
        T = first
        for j in range(4 * _span(A, q, left) + 1):
            assert np.linalg.norm(T) <= rec.K * q ** j * (1 + 1e-12)
            T = (T if left is None else left @ T) @ A


def _closed_form(alpha, n):
    return (hb.make_weight_hardy(n) if alpha == 1.0
            else hb.make_weight_beta_alpha(alpha, n))


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 2.5])
def test_row_tails_cover_remainder(alpha):
    """Each row's tail bound, at cuts near the table end, covers the true
    remainder taken from a 64 times longer closed-form table."""
    N, K = 256, 6
    w, ref = _closed_form(alpha, N), _closed_form(alpha, 64 * N)
    cap = N - K
    quot, quot_ref = (hb.quotient_rows(v, range(1, K + 1), v.trunc_len - K)
                      for v in (w, ref))
    cases = [(w.c_coeffs, ref.c_coeffs, w.c_step(N)),
             (w.c_coeffs[:cap + 1], ref.c_coeffs, w.c_step(cap))]
    cases += [(d, d_ref, w.c_step(cap)) for d, d_ref in zip(quot, quot_ref)]
    cases += [(w.inv_betas[k:k + cap + 1], ref.inv_betas[k:],
               w.inv_step(k + cap)) for k in (0, 1, K)]
    for q in (0.81, 0.99, 0.999):
        for row, long, step in cases:
            tails = series.RowTails([row], q, step)
            damped = np.abs(long) * q ** np.arange(len(long))
            for J in (tails.cap - 3, tails.cap):
                # the hardy bound is the exact geometric sum: allow rounding
                assert tails.tails[0, J] >= damped[J + 1:].sum() * (1 - 1e-12)
    if alpha == 2.5:
        # the trailing-ratio extrapolation claimed 2.601e-7 here
        true = np.sum(np.abs(ref.c_coeffs[N + 1:])
                      * 0.999 ** np.arange(N + 1, 64 * N + 1))
        assert true == pytest.approx(2.733e-7, rel=1e-3)
        assert series.RowTails([w.c_coeffs], 0.999,
                               w.c_step(N)).tails[0, N] >= true


def _full_table_tails(rows, q, steps, floors=0.0):
    """``RowTails.tails`` formed over the whole stored table, every
    ``q^j`` included: the reference for the tails cut at the underflow
    guard."""
    cap = min(len(r) for r in rows) - 1
    powq = np.power(q, np.arange(cap + 1))
    damped = np.abs(np.array([r[:cap + 1] for r in rows], dtype=float)) * powq
    sq = np.broadcast_to(np.asarray(steps, dtype=float) * q, len(damped))
    last = np.maximum(damped[:, -1], np.multiply(floors, powq[-1]))
    beyond = np.full(len(damped), np.inf)
    beyond[sq < 1.0] = last[sq < 1.0] * sq[sq < 1.0] / (1.0 - sq[sq < 1.0])
    beyond[last == 0.0] = 0.0
    tails = np.zeros_like(damped)
    tails[:, :-1] = np.cumsum(damped[:, :0:-1], axis=1)[:, ::-1]
    return tails + beyond[:, None]


def test_row_tails_equal_full_table_above_underflow():
    # past q^j = 1e-280 the entries are left out; wherever the worst tail
    # is above 1e-250 every row's tail is the full-table one, bit for bit
    rng = np.random.default_rng(11)
    w = hb.make_weight_beta_alpha(2.5, 2048)
    quot = hb.quotient_rows(w, range(1, 20), w.trunc_len - 19)
    cases = 0
    for q in np.concatenate([rng.uniform(0.01, 0.999, 60), [0.3, 0.7, 0.73]]):
        for rows, steps in (([w.inv_betas], w.inv_step(w.trunc_len)),
                            (np.vstack([w.c_coeffs[None, :quot.shape[1]],
                                        quot]), w.c_step(quot.shape[1] - 1))):
            tails = series.RowTails(rows, q, steps)
            ref = _full_table_tails(rows, q, steps)
            worst = ref.max(axis=0)
            assert tails.tails.shape == ref.shape
            assert np.array_equal(tails.worst, tails.tails.max(axis=0))
            keep = worst > 1e-250
            assert np.array_equal(tails.tails[:, keep], ref[:, keep])
            assert np.array_equal(tails.worst[keep], worst[keep])
            assert np.all(tails.worst[~keep] <= 1e-250)
            cases += keep.size > keep.sum()
    assert cases > 20  # most of the sets reach the guard


class TestUnderflow:
    """A term whose entries fall below about 1.5e-162 (where their squares
    underflow) no longer ends a series: only a term with every entry 0
    inside the certified span does."""

    A = np.diag([0.999, 1e-3])

    @pytest.mark.parametrize("small", [0.0, 1e-200])
    def test_vanishing_term_is_refused(self, small):
        # at q = 0.999 no table length holds a cut for the terms of
        # X = diag(small, 1), even with K = ||T_0|| = 1.  The term
        # A^{*27} X A^27 has entries of 1e-162 and below, so its computed
        # norm is 0, and at small = 0 a term is exactly 0 some 50 terms
        # later, far past the certified span m = 1
        # gamma_map and gramian_table answer it on the spectral route;
        # the series they take past its gate refuses it
        w = hb.make_weight_beta_alpha(2.5, 2048)
        X = np.diag([small, 1.0])
        np.testing.assert_allclose(
            hb.gamma_map(w, self.A, X),
            np.diag((1 - np.diag(self.A) ** 2) ** 2.5 * [small, 1.0]),
            rtol=1e-12, atol=0)
        with pytest.raises(hb.ConvergenceError) as info:
            her._hereditary_sums(w, off_route(self.A), X, np.arange(0),
                                 1e-10, "gamma_map", gamma=True)
        assert str(info.value) == (
            "gamma_map: tail bound 3.513e-10 > tol 1.000e-10 after 2049 "
            "stored terms; increase the weight truncation")
        with pytest.raises(hb.ConvergenceError, match="^gramian_table: "):
            hb.gramian_table(series_copy(w),
                             hb.OutputPair(A=self.A, C=np.sqrt(X)), 3)

    def test_refusal_does_not_depend_on_underflow(self):
        # neither table holds a cut even for ||T_0|| = 1, which bounds K
        # from below, so both are refused before a term is made: the terms
        # of the second series fall below the squares' underflow, those of
        # the first do not, and the text is the same
        w = hb.make_weight_beta_alpha(2.5, 2048)
        A = np.diag([0.999, 0.5]).astype(complex)
        rows, q = [w.c_coeffs], series.conjugation_rate(0.999)
        texts = []
        for small in (1e-140, 1e-155):
            X = np.diag([small, 1.0]).astype(complex)
            with pytest.raises(hb.ConvergenceError) as info:
                series.adaptive_sum(X, A, rows, q, w.c_step(2048), 1e-10,
                                    "gamma_map", left=A.conj().T)
            texts.append(str(info.value))
        assert texts[0] == texts[1] == (
            "gamma_map: tail bound 3.513e-10 > tol 1.000e-10 after 2049 "
            "stored terms; increase the weight truncation")
