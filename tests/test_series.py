"""The series engine: where a series is cut, what its tail bound covers, and
how a too-short weight table is reported."""

import numpy as np
import pytest

import hardybeta as hb
from hardybeta import hereditary as her
from hardybeta import series

#: diagonal (normal) operator: ||A^j|| = rho^j, so the observed transient
#: constant is a true bound and the closed forms below are exact
DIAG = np.diag([0.9, -0.5 + 0.3j, 0.2j])


def _weight(kind):
    if kind == "hardy":
        return hb.make_weight_hardy(256), 1
    return hb.make_weight_beta_alpha(2.0, 256), 2  # R(x) = (1 - x)^-2


def _reference(first, right, rows, q, steps, tol, left=None):
    """The stop rule as a plain per-term loop: ``T_{j+1} = left T_j right``,
    ``K`` the running maximum of ``||T_j|| / q^j`` over ``q^j > 1e-280``,
    stop at the first ``j >= 4`` with ``K * worst[j] <= tol``; a zero term
    ends the series.  Returns (terms, K, ended by a zero term), or
    (terms, K, None) when the table runs out."""
    worst = series.RowTails(rows, q, steps).worst
    terms, K, T = [], 0.0, first
    for j in range(len(worst)):
        if j:
            T = (T if left is None else left @ T) @ right
        terms.append(T)
        nrm = np.linalg.norm(T)
        if nrm == 0.0:
            return terms, K, True
        if q ** j > 1e-280:
            K = max(K, nrm / q ** j)
        if j >= 4 and K * worst[j] <= tol:
            return terms, K, False
    return terms, K, None


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
    """The doubling blocks cut where a term-by-term loop cuts."""

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
                scale = max(np.linalg.norm(T) for T in ref)
                np.testing.assert_allclose(rec.terms, np.stack(ref),
                                           rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("index", [3, 5])
    def test_zero_term_inside_block_ends_series(self, w_hardy, index):
        # A^index = 0 exactly; the zero term sits inside the block of
        # terms 2..3 (index 3) or 4..7 (index 5)
        A = np.diag(np.ones(index - 1), 1).astype(complex)
        args = (np.eye(index, dtype=complex), A, [w_hardy.c_coeffs,
                                                  w_hardy.inv_betas],
                series.conjugation_rate(0.0),
                [w_hardy.c_step(256), w_hardy.inv_step(256)])
        ref, K, zero = _reference(*args, 1e-10, left=A.conj().T)
        assert zero is True and len(ref) == index + 1
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
    def test_resolvent_apply_names_caller(self):
        w = hb.make_weight_hardy(16)
        with pytest.raises(hb.ConvergenceError, match="^resolvent_apply: "):
            hb.resolvent_apply(w, 0, 0.95 * np.eye(2), 1.0)

    def test_resolvent_scalar_names_caller(self):
        w = hb.make_weight_hardy(16)
        with pytest.raises(hb.ConvergenceError, match="^resolvent_scalar: "):
            hb.resolvent_scalar(w, 0, 0.95)

    def test_gramian_table_names_caller(self):
        w = hb.make_weight_hardy(16)
        pair = hb.OutputPair(A=0.95 * np.eye(2), C=np.ones((1, 2)))
        with pytest.raises(hb.ConvergenceError, match="^gramian_table: "):
            hb.gramian_table(w, pair, 2)

    def test_message_text(self):
        # the whole message of a 16-term table, as the term-by-term engine
        # wrote it; the gamma_map bound is the closed-form c step's (the
        # trailing-ratio extrapolation it replaced gave inf here)
        w = hb.make_weight_hardy(16)
        A = 0.95 * np.eye(2)
        cases = [
            (lambda: hb.gramian_table(w, hb.OutputPair(A=A, C=np.ones((1, 2))),
                                      2),
             "gramian_table: tail bound 1.895e+01 > tol 1.000e-10 after 15 "
             "stored terms; increase the weight truncation"),
            (lambda: hb.resolvent_apply(w, 0, A, 1.0),
             "resolvent_apply: tail bound 3.678e+01 > tol 1.000e-12 after 17 "
             "stored terms; increase the weight truncation"),
            (lambda: hb.gamma_map(hb.make_weight_beta_alpha(1.5, 16),
                                  np.diag([0.95, 0.5]), np.eye(2)),
             "gamma_map: tail bound 5.656e-03 > tol 1.000e-10 after 17 stored "
             "terms; increase the weight truncation"),
        ]
        for call, text in cases:
            with pytest.raises(hb.ConvergenceError) as info:
                call()
            assert str(info.value) == text


@pytest.mark.parametrize("kind", ["hardy", "beta2"])
class TestTailCoversRemainder:
    def test_resolvent(self, kind):
        w, power = _weight(kind)
        tol = 1e-2
        for z in (0.8, 0.6 - 0.5j, -0.7j):
            S, rec = her._resolvent_table(w, 0, DIAG, z, tol)
            exact = np.linalg.matrix_power(
                np.linalg.inv(np.eye(3) - z * DIAG), power)
            remainder = np.linalg.norm(exact - S)
            assert 1e-10 < remainder <= rec.tails[0] <= tol

    def test_resolvent_grid(self, kind):
        # one cut for the whole grid, made at its largest radius 0.8: the
        # bound covers the remainder at every point, not only at that radius
        w, power = _weight(kind)
        tol = 1e-2
        zs = np.array([0.8, 0.6 - 0.5j, -0.7j, 0.5, -0.2 + 0.1j, 0.0])
        S, rec = her._resolvent_table(w, 0, DIAG, zs, tol)
        for z, Sz in zip(zs, S):
            exact = np.linalg.matrix_power(
                np.linalg.inv(np.eye(3) - z * DIAG), power)
            assert np.linalg.norm(exact - Sz) <= rec.tails[0] <= tol
        assert np.linalg.norm(exact - Sz) == 0.0  # z = 0 is exact

    def test_gramian(self, kind):
        w, power = _weight(kind)
        tol = 1e-2
        C = np.array([[1.0, 0.5j, -0.25]])
        tab = hb.gramian_table(w, hb.OutputPair(A=DIAG, C=C), 0, tol=tol)
        a = np.diag(DIAG)
        exact = (C.conj().T @ C) / (1.0 - np.conj(a)[:, None] * a) ** power
        remainder = np.linalg.norm(exact - tab[0])
        assert 1e-10 < remainder <= tab.tail_bounds[0] <= tol


def test_nilpotent_gramian_has_zero_tail(w_beta2):
    A = np.diag([1.0, 1.0], 1)  # A^3 = 0
    C = np.array([[1.0, 0.5, 0.25]])
    tab = hb.gramian_table(w_beta2, hb.OutputPair(A=A, C=C), 2)
    assert tab.trunc_order == 3
    for k in range(3):
        assert tab.tail_bounds[k] == 0.0
        exact = sum(w_beta2.inv_betas[k + j]
                    * (np.linalg.matrix_power(A, j).T @ C.T @ C
                       @ np.linalg.matrix_power(A, j)) for j in range(3))
        np.testing.assert_allclose(tab[k], exact, atol=1e-15)


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
