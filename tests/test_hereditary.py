import math
import re

import mpmath
import numpy as np
import pytest

import hardybeta as hb
from hardybeta import colligation
from hardybeta import hereditary as her
from hardybeta import series
from conftest import (cmat, continued_R, custom_copy_8, deep_term,
                      hypercontraction_T, long_copy, mp_maps, series_copy,
                      stable_pair)


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

    @pytest.mark.parametrize("weight", ["w_hardy", "w_beta2", "w_beta25"])
    def test_points_outside_the_disk_refused(self, request, weight):
        # |z| rho(A) = 0.6 < 1 summed to R(1.2 * 0.5) = 2.5 for hardy; the
        # kernels refuse such a point, and so do the resolvents
        w = request.getfixturevalue(weight)
        for zs in (1.2, [0.3, -1.0], 1j):
            with pytest.raises(hb.InvalidParameterError,
                               match=re.escape("lie in |z| < 1")):
                hb.resolvents(w, 0, [[0.5]], zs)
        with pytest.raises(hb.DivergenceError):  # named first
            hb.resolvents(w, 0, [[0.9]], 1.2)

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


class TestShiftLists:
    """``resolvents`` with a sequence of shifts: one table for all."""

    def test_matches_per_shift_calls(self, w_beta25):
        rng = np.random.default_rng(60)
        A = stable_pair(rng, 3, 1, rho=0.6).A
        zs = np.asarray(hb.default_grid(), dtype=complex)
        tol = 1e-12
        shifts = (0, 1, 4, 9)
        R = hb.resolvents(w_beta25, shifts, A, zs, tol)
        assert R.shape == (4, 33, 3, 3)
        for Rk, k in zip(R, shifts):
            np.testing.assert_allclose(Rk, hb.resolvents(w_beta25, k, A, zs,
                                                         tol),
                                       rtol=0, atol=tol)
        # a single point keeps its shape after the shift axis
        assert hb.resolvents(w_beta25, [2, 3], A, 0.3j, tol).shape == (2, 3, 3)
        # exact sums (A = 0) too
        R0 = hb.resolvents(w_beta25, [0, 2], np.zeros((2, 2)), zs[:3], tol)
        np.testing.assert_array_equal(
            R0[1], np.broadcast_to(w_beta25.inv_betas[2] * np.eye(2),
                                   (3, 2, 2)))

    @pytest.mark.parametrize("power", [1, 2])
    def test_tail_bound_covers_every_shift_and_point(self, w_hardy, w_beta2,
                                                     power):
        # R_k = (I - zA)^-1 for hardy and (I - zA)^-2 + k (I - zA)^-1 for
        # beta_2, summed as a series by custom copies of their tables; a
        # loose tol leaves a remainder well above roundoff
        w = series_copy(w_hardy if power == 1 else w_beta2)
        rng = np.random.default_rng(61)
        A = stable_pair(rng, 4, 1, rho=0.8).A
        zs = np.asarray(hb.default_grid(), dtype=complex)
        shifts = (0, 2, 5)
        tol = 1e-6
        S, rec = her._resolvent_table(w, shifts, her._operator(A), zs,
                                        tol)
        inv = np.linalg.inv(np.eye(4) - zs[:, None, None] * A)
        worst = 0.0
        for Sk, k, bound in zip(S, shifts, rec.tails):
            exact = inv if power == 1 else inv @ inv + k * inv
            err = np.linalg.norm(Sk - exact, axis=(1, 2))
            assert bound <= tol
            assert np.all(err <= bound + 1e-13)
            worst = max(worst, err.max())
        assert worst > 1e-10  # the remainder is real, not roundoff


class TestHermitianInverse:
    def test_stack_is_the_single_inverses(self):
        rng = np.random.default_rng(62)
        Ms = [M @ M.conj().T + np.eye(3) for M in (cmat(rng, 3, 3)
                                                   for _ in range(4))]
        inv = her.hermitian_inverse(np.stack(Ms))
        for got, M in zip(inv, Ms):
            np.testing.assert_array_equal(got, her.hermitian_inverse(M))

    def test_stack_names_the_singular_member(self):
        Ms = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(hb.ObservabilityError, match="1 of the stack") \
                as exc:
            her.hermitian_inverse(Ms)
        assert exc.value.index == 1
        with pytest.raises(hb.ObservabilityError) as exc:
            her.hermitian_inverse(Ms[1])
        assert exc.value.index is None

    def test_gramian_table_is_one_array(self, w_beta2):
        rng = np.random.default_rng(62)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        tab = hb.gramian_table(w_beta2, pair, 4, tol=1e-12)
        assert tab.entries.shape == (5, 3, 3) and tab.k_max == 4
        assert np.shares_memory(tab.stack(1, 3), tab.entries)
        np.testing.assert_array_equal(tab.stack(1, 3), tab.entries[1:4])
        for k0, k1 in ((3, 5), (-1, 2), (3, 2)):  # a slice would not refuse
            with pytest.raises(hb.InvalidParameterError,
                               match=f"shifts 0..4, not {k0}..{k1}"):
                tab.stack(k0, k1)
        with pytest.raises(hb.InvalidParameterError,  # not G^(4)
                           match=r"shifts 0..4, not -1..-1"):
            tab[-1]
        assert list(tab.tail_bounds) == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(hb.gramian(w_beta2, 2, pair, 1e-12),
                                      tab[2])

    def test_gramian_table_names_the_shift(self, w_beta2):
        rng = np.random.default_rng(63)
        pair = stable_pair(rng, 3, 2, rho=0.6)
        tab = hb.gramian_table(w_beta2, pair, 4, tol=1e-12)
        tab.entries[3] = np.zeros((3, 3), dtype=complex)
        np.testing.assert_array_equal(tab.inverses(0, 2)[1],
                                      her.hermitian_inverse(tab[1]))
        with pytest.raises(hb.ObservabilityError, match=r"G\^\(3\)") as exc:
            tab.inverses(1, 4)
        assert exc.value.index == 3


def _probe_stack():
    """A ``(2, 3, 4, 4)`` stack of complex matrices over 16 decades, with
    +inf, -inf, NaN and both infinities in four of them."""
    rng = np.random.default_rng(64)
    S = cmat(rng, 24, 4).reshape(2, 3, 4, 4) \
        * 10.0 ** rng.uniform(-8, 8, (2, 3, 1, 1))
    S[0, 1, 0, 0] = np.inf
    S[1, 0, 2, 1] = -np.inf
    S[1, 2, 3, 3] = np.nan
    S[0, 2, 0, 1], S[0, 2, 1, 0] = np.inf, -np.inf  # hermitize: inf - inf
    return S


class TestStackedNorms:
    """``opnorm`` and ``min_eig`` of a stack: each matrix's value bit for
    bit as its own call, NaN for a matrix with a non-finite entry."""

    @pytest.mark.parametrize("f", [her.opnorm, her.min_eig])
    def test_stack_matches_single_calls(self, f):
        S = _probe_stack()
        got = f(S)
        assert got.shape == (2, 3)
        for i in np.ndindex(2, 3):
            one = f(S[i])
            assert isinstance(one, float)
            assert np.array_equal(got[i], one, equal_nan=True), i
            assert np.isnan(one) == (not np.isfinite(S[i]).all()), i
        np.testing.assert_array_equal(f(S.reshape(6, 4, 4)), got.ravel())

    def test_finite_values_are_the_lapack_ones(self):
        S = _probe_stack()[[0, 1], [0, 1]]  # the finite ones
        for M, norm, lo in zip(S, her.opnorm(S), her.min_eig(S)):
            assert norm == np.linalg.svd(M, compute_uv=False)[0]
            assert lo == np.linalg.eigvalsh(her.hermitize(M))[0]
        rect = cmat(np.random.default_rng(65), 3, 5)
        assert her.opnorm(rect) == np.linalg.norm(rect, 2)

    @pytest.mark.parametrize("f", [her.opnorm, her.min_eig])
    def test_zero_size(self, f):
        assert f(np.zeros((0, 0))) == 0.0
        np.testing.assert_array_equal(f(np.zeros((3, 0, 0))), np.zeros(3))
        assert f(np.zeros((0, 4, 4))).shape == (0,)

    def test_all_masked(self):
        S = np.full((2, 2, 2), np.nan)
        assert np.isnan(her.opnorm(S)).all() and np.isnan(her.min_eig(S)).all()


class TestEigh:
    """``eigh`` of a matrix or a stack: LAPACK's own values and vectors bit
    for bit on finite input, NaN for a matrix with a non-finite entry."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5, 5), (2, 3, 4, 4),
                                       (0, 0), (3, 0, 0), (0, 4, 4)])
    def test_finite_is_the_lapack_solve(self, shape):
        rng = np.random.default_rng(66)
        M = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.uniform(-8, 8, shape[:-2] + (1, 1))
        for S in (M, M.real):  # complex and real
            lam, V = her.eigh(S)
            ref_lam, ref_V = np.linalg.eigh(her.hermitize(S))
            assert lam.shape == ref_lam.shape and V.dtype == ref_V.dtype
            np.testing.assert_array_equal(lam, ref_lam)
            np.testing.assert_array_equal(V, ref_V)
            np.testing.assert_array_equal(
                her.eigh(S, vectors=False),
                np.linalg.eigvalsh(her.hermitize(S)))

    def test_non_finite_matrices_get_nan(self):
        S = _probe_stack()  # inf - inf in hermitize would warn, an error
        lam, V = her.eigh(S)
        vals = her.eigh(S, vectors=False)
        for i in np.ndindex(2, 3):
            one_lam, one_V = her.eigh(S[i])
            assert np.array_equal(lam[i], one_lam, equal_nan=True), i
            assert np.array_equal(V[i], one_V, equal_nan=True), i
            assert np.array_equal(vals[i], her.eigh(S[i], vectors=False),
                                  equal_nan=True), i
            finite = np.isfinite(S[i]).all()
            assert np.isnan(lam[i]).all() == (not finite), i
            assert np.isnan(V[i]).all() == (not finite), i


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


def _brute_force(A, X, coef, block=64, max_terms=1 << 17, rel=1e-17):
    """``sum_j coef(j)[i] A^{*j} X A^j`` for each row i of ``coef``, the
    reference method of the benchmark oracles: moments are advanced a block
    at a time, and the sum stops once a whole block adds less than ``rel``
    of it while the moment norms fall across the block, that is, after any
    transient growth has passed."""
    A = np.asarray(A, dtype=complex)
    M = [np.asarray(X, dtype=complex)]
    for _ in range(block - 1):
        M.append(A.conj().T @ M[-1] @ A)
    M = np.stack(M)
    P = np.linalg.matrix_power(A, block)
    S = 0.0
    for j0 in range(0, max_terms, block):
        c = np.atleast_2d(coef(np.arange(j0, j0 + block)))
        S = S + np.einsum("rb,bij->rij", c, M)
        norms = np.linalg.norm(M, axis=(1, 2))
        scale = np.max(np.linalg.norm(S, axis=(1, 2)))
        if j0 and norms[-1] <= norms[0] \
                and np.max(np.abs(c) @ norms) <= rel * scale:
            return S
        M = P.conj().T @ M @ P
    raise AssertionError("reference sum did not settle")


def _inv_betas(alpha, ks):
    """``1/beta_{j+k} = C(alpha + j + k - 1, j + k)`` for integer alpha, one
    row per shift ``k``."""
    return lambda j: np.array([[math.comb(alpha + m + k - 1, m + k)
                                for m in j] for k in ks], dtype=float)


class TestClosedForms:
    """Hardy and integer alpha: gramians by one Stein solve, hereditary maps
    by finite sums."""

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_jordan_probe(self, alpha):
        # ||A^j|| grows to about 1e6 before it decays; the series route
        # once stopped at J = 4 here and returned ||G|| = 6.3e-13
        A = 0.9 * np.eye(8) + np.diag(np.ones(7), 1)
        C = np.zeros((1, 8))
        C[0, 0] = 1e-7
        w = (hb.make_weight_hardy() if alpha == 1
             else hb.make_weight_beta_alpha(float(alpha)))
        tab = hb.gramian_table(w, hb.OutputPair(A=A, C=C), 11)
        ref = _brute_force(A, C.T @ C, _inv_betas(alpha, range(12)))
        got = tab.stack(0, 11)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        if alpha == 1:
            assert np.linalg.norm(got[0], 2) == pytest.approx(1.115, abs=1e-3)
        assert tab.trunc_order == -1
        assert set(tab.tail_bounds.values()) == {0.0}

    def test_normal_rho_09_default_table(self, w_beta2):
        # the series refused this with a tail of 1.9e-8 against tol 1e-10
        rng = np.random.default_rng(21)
        U = np.linalg.qr(cmat(rng, 4, 4))[0]
        lam = 0.9 * np.exp(2j * np.pi * rng.uniform(size=4))
        A = (U * lam) @ U.conj().T
        pair = hb.OutputPair(A=A, C=np.eye(4))
        G = hb.gramian(w_beta2, 0, pair)
        Q = U.conj().T @ U  # C*C = I in the eigenbasis
        exact = U @ (Q / (1.0 - np.conj(lam)[:, None] * lam) ** 2) \
            @ U.conj().T
        np.testing.assert_allclose(G, exact, rtol=0,
                                   atol=1e-12 * np.linalg.norm(exact))

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_agrees_with_series_route(self, alpha):
        w = (hb.make_weight_hardy(1024) if alpha == 1
             else hb.make_weight_beta_alpha(float(alpha), 1024))
        copy = series_copy(w)
        assert copy.kind == "custom"
        rng = np.random.default_rng(30 + alpha)
        for trial, rho in enumerate((0.5, 0.8, 0.9, 0.5, 0.8, 0.9)):
            n = int(rng.integers(2, 7))
            if trial < 3:
                pair = stable_pair(rng, n, 2, rho=rho)
            else:
                lam = rng.uniform(0.3, rho, n) \
                    * np.exp(2j * np.pi * rng.uniform(size=n))
                lam[0] = rho
                pair = hb.OutputPair(A=np.diag(lam) + np.triu(cmat(rng, n, n),
                                                              1),
                                     C=cmat(rng, 2, n))
            closed = hb.gramian_table(w, pair, 6)
            summed = hb.gramian_table(copy, pair, 6)
            assert closed.trunc_order == -1 and summed.trunc_order >= 4
            for k in range(7):
                assert np.linalg.norm(closed[k] - summed[k]) \
                    <= summed.tail_bounds[k] + 1e-13
            X = hb.gramian(hb.make_weight_hardy(), 0, pair)  # X >= A* X A
            for run in (lambda v: hb.gamma_map(v, pair.A, X),
                        lambda v: hb.gamma_k_map(v, range(1, 7), pair.A, X)):
                if alpha == 3:
                    # the copy's P is palindromic, with its zeros on the
                    # circle: its c row is not summable, and its maps are
                    # refused by name
                    with pytest.raises(hb.HereditaryDomainError, match=(
                            "^reciprocal coefficients diverge")):
                        run(copy)
                    continue
                got, ref = run(w), run(copy)
                assert np.linalg.norm(got - ref) \
                    <= 1e-13 * max(1.0, np.linalg.norm(ref))


def _jordan_inverse(z, lam, n):
    """``(I - zA)^-1`` for ``A = lam I_n + N`` (N ones on the
    superdiagonal) by the nilpotent expansion
    ``sum_{m<n} z^m N^m (1 - z lam)^-(m+1)``."""
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):
        out += np.diag(np.full(n - m, z ** m / (1 - z * lam) ** (m + 1)), m)
    return out


class TestClosedResolvents:
    """Hardy and integer alpha: resolvents from one batched inverse of
    ``I - zA`` and its powers, with no series record."""

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_jordan_probe(self, alpha):
        # |z| lam up to 0.999, where I - zA is within 1e-3 of singular
        # (|z| < 1: resolvents refuse points outside the disk)
        lam, n = 0.9995, 8
        A = lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
        w = (hb.make_weight_hardy() if alpha == 1
             else hb.make_weight_beta_alpha(float(alpha)))
        zs = np.concatenate([
            (0.999 / lam) * np.exp(2j * np.pi * np.array([0.0, 0.3, 0.55])),
            [0.0, 0.5j, -0.8, 0.7 + 0.6j]])
        shifts = (0, 2, 5)
        R, rec = her._resolvent_table(w, shifts, her._operator(A), zs,
                                        1e-12)
        assert rec is None
        for Rk, k in zip(R, shifts):
            for Rz, z in zip(Rk, zs):
                inv = _jordan_inverse(z, lam, n)
                ref = sum((math.comb(k + r - 1, r) if r else 1)
                          * np.linalg.matrix_power(inv, alpha - r)
                          for r in range(alpha))
                assert np.linalg.norm(Rz - ref) \
                    <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_scalar_closed_form_and_shifted_sums(self, alpha):
        w = (hb.make_weight_hardy() if alpha == 1
             else hb.make_weight_beta_alpha(float(alpha)))
        xs = np.array([0.0, 0.5, -0.3 + 0.4j, 0.9j, 0.999, -0.999,
                       0.7 - 0.7j])
        R = (1.0 - xs) ** -alpha
        np.testing.assert_allclose(hb.resolvent_scalar(w, 0, xs), R,
                                   rtol=1e-14, atol=0)
        # x^k R_k(x) = R(x) - sum_{j<k} x^j / beta_j
        for k in (1, 2, 5):
            head = sum(math.comb(alpha + j - 1, j) * xs ** j
                       for j in range(k))
            got = xs ** k * hb.resolvent_scalar(w, k, xs)
            assert np.all(np.abs(got - (R - head)) <= 1e-13 * np.abs(R))

    def test_custom_copy_takes_the_series(self, w_hardy, w_beta2):
        rng = np.random.default_rng(64)
        A = stable_pair(rng, 4, 1, rho=0.8).A
        zs = np.asarray(hb.default_grid(), dtype=complex)
        xs = 0.9 * zs
        for w in (w_hardy, w_beta2):
            copy = series_copy(w)
            op = her._operator(A)
            closed, none = her._resolvent_table(w, (0, 3), op, zs, 1e-12)
            summed, rec = her._resolvent_table(copy, (0, 3), op, zs, 1e-12)
            assert none is None and rec.J >= 4
            for Ck, Sk, tail in zip(closed, summed, rec.tails):
                assert np.linalg.norm(Ck - Sk, axis=(1, 2)).max() \
                    <= tail + 1e-12 * np.linalg.norm(Ck, axis=(1, 2)).max()
            np.testing.assert_allclose(hb.resolvent_scalar(copy, 3, xs),
                                       hb.resolvent_scalar(w, 3, xs),
                                       rtol=1e-12, atol=1e-12)


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

    def test_one_entry_table_is_the_hardy_map(self):
        # a one-entry table is the Hardy weight (1/R = 1 - z), answered
        # exactly from its rational form: Gamma[X] = X - A* X A
        w = hb.make_weight_custom([1.0])
        A = np.array([[0.3, 0.2], [0.0, -0.4]])
        np.testing.assert_array_equal(hb.gamma_map(w, A, np.eye(2)),
                                      np.eye(2) - A.T @ A)

    def test_custom_table_near_its_radius(self):
        # the c of a custom beta_2.5 table ends below 1e-9 of its largest
        # entry but still decays slowly past it; near the circle (x = 0.9801
        # against the radius 1/s = 0.99708) its maps are exact all the same
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.5, 512).betas)
        assert w.wiener.verdict == "summable"
        ref = hb.make_weight_beta_alpha(2.5, 512)
        A = 0.3 * np.eye(2)
        np.testing.assert_allclose(hb.gamma_map(w, A, np.eye(2)),
                                   hb.gamma_map(ref, A, np.eye(2)), atol=1e-13)
        R = continued_R(w.betas)
        with mpmath.workdps(34):
            x = mpmath.mpf(0.99) ** 2
            exact = [float(1 / R(0, x)), float(R(3, x) / R(0, x))]
        got = [hb.gamma_map(w, 0.99 * np.eye(2), np.eye(2)),
               hb.gamma_k_map(w, 3, 0.99 * np.eye(2), np.eye(2))]
        for g, e in zip(got, exact):
            np.testing.assert_allclose(g, e * np.eye(2), rtol=1e-12, atol=0)

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

    def test_shift_sequence_is_one_stack(self, all_weights):
        rng = np.random.default_rng(11)
        A = cmat(rng, 4, 4)
        A *= 0.8 / np.linalg.norm(A, 2)
        X = np.eye(4)
        ks = [1, 6, 2, 3]
        for w in all_weights:
            stack = hb.gamma_k_map(w, ks, A, X, 1e-12)
            assert stack.shape == (len(ks), 4, 4)
            for k, got in zip(ks, stack):
                np.testing.assert_allclose(
                    got, hb.gamma_k_map(w, k, A, X, 1e-12), rtol=0,
                    atol=1e-12)
            with pytest.raises(hb.InvalidParameterError):
                hb.gamma_k_map(w, [0, 2], A, X)
            # a shift past the table is answered, with the bits of a
            # longer table
            past = [1, w.trunc_len + 1]
            np.testing.assert_array_equal(
                hb.gamma_k_map(w, past, A, X),
                hb.gamma_k_map(long_copy(w), past, A, X))


class TestRationalForm:
    """A custom weight's maps from ``1/R = (1 - s z) / P`` and
    ``R_k / R = P_k / P``: one Kronecker solve ``P(L)^-1 X``, then finite
    rows, with no series and no tail."""

    @staticmethod
    def _inputs(kind):
        """A 3-by-3 Jordan block or upper triangular non-normal ``A`` at
        ``rho(A) = 0.95``, and ``X`` with ``X - A* X A = I``."""
        n = 3
        if kind == "jordan":
            A = 0.95 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        else:
            A = np.triu(cmat(np.random.default_rng(40), n, n))
            A *= 0.95 / np.abs(np.diag(A)).max()
        K = np.kron(A.conj().T, A.T)
        X = np.linalg.solve(np.eye(n * n) - K, np.eye(n).reshape(-1))
        X = X.reshape(n, n)
        return A, (X + X.conj().T) / 2

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("kind", ["jordan", "nonnormal"])
    def test_against_high_precision(self, kind, N):
        w = series_copy(hb.make_weight_beta_alpha(2.0, N))
        A, X = self._inputs(kind)
        ks = [1, N]  # P_1 has degree N - 2, P_N = 1/beta_N is constant
        got = np.concatenate([hb.gamma_map(w, A, X)[None],
                              hb.gamma_k_map(w, ks, A, X)])
        ref = mp_maps(w.betas, A, X, [0] + ks)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(X).max()

    def test_no_series(self, monkeypatch):
        # on a Jordan block, and at rho(A) = 1 where no rate is certified
        def entered(*args, **kwargs):
            raise AssertionError("a custom weight's map entered the series")
        monkeypatch.setattr(series, "adaptive_sum", entered)
        monkeypatch.setattr(series, "cut", entered)
        w = series_copy(hb.make_weight_beta_alpha(2.0, 256))
        A, X = self._inputs("jordan")
        assert hb.gamma_map(w, A, X).shape == (3, 3)
        assert hb.gamma_k_map(w, range(1, 21), A, X).shape == (20, 3, 3)
        A, X = np.diag([1.0, 0.5]), np.diag([0.0, 1.0])
        assert hb.spectral_radius(A) == 1.0
        R = continued_R(w.betas)
        with mpmath.workdps(34):
            exact = [float(f) for f in (1 / R(0, mpmath.mpf(0.25)),
                                        R(2, mpmath.mpf(0.25))
                                        / R(0, mpmath.mpf(0.25)))]
        np.testing.assert_allclose(hb.gamma_map(w, A, X), exact[0] * X,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(hb.gamma_k_map(w, 2, A, X), exact[1] * X,
                                   rtol=1e-14, atol=0)

    def test_delta_limit_solves_for_rho_once(self, monkeypatch):
        # rho(A) once per call, for the rate that decides the limit and for
        # the sum identity; the maps need none.  The rate s rho^2 = 0.25 s
        # decides the limit at k_max = 10, where D_10 is still 8.1e-6
        real, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda M: calls.append(1) or real(M))
        w = series_copy(hb.make_weight_beta_alpha(2.0, 512))
        for k_max, total in ((10, 1), (40, 2)):
            rep = hb.delta_limit(w, np.diag([0.5, 0.3]), np.eye(2),
                                 k_max=k_max)
            assert rep.monotone_min_eig >= 0.0
            assert rep.converged and rep.sum_identity_residual <= 1e-14
            assert len(calls) == total


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

    def test_negative_shift_refused_any_other_answered(self):
        # k = -1 read 1/beta_64, the table's last entry; a shift past the
        # table reads 1/beta_k of a longer one
        w = hb.make_weight_beta_alpha(2.0, 64)
        pair = hb.OutputPair([[0.5]], [[0.866]])
        tab = hb.gramian_table(w, pair, 1, tol=1e-13)
        assert hb.stein_residual(w, 0, pair, tab[0], tab[1]) < 1e-12
        for k in (64, 65, 300):
            assert hb.stein_residual(w, k, pair, tab[0], tab[1]) \
                == hb.stein_residual(long_copy(w), k, pair, tab[0], tab[1])
        with pytest.raises(hb.InvalidParameterError, match=(
                "^stein_residual needs a shift k >= 0, got k=-1$")):
            hb.stein_residual(w, -1, pair, tab[0], tab[1])


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

    @staticmethod
    def contraction(rng, n, r):
        """``Q (diag(d) + N) Q*`` with ``Q`` unitary, ``|d_i| <= r`` and
        ``max |d_i| = r``, and ``N`` strictly upper triangular of norm
        ``(1 - r)/2``: a non-normal contraction of spectral radius ``r``."""
        d = r * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
        d[0] = r * d[0] / abs(d[0])
        N = np.triu(cmat(rng, n, n), 1)
        N *= 0.5 * (1 - r) / np.linalg.norm(N, 2)
        Q = np.linalg.qr(cmat(rng, n, n))[0]
        return Q @ (np.diag(d) + N) @ Q.conj().T

    def test_strong_stability_against_a_deep_term(self, all_weights):
        # every contraction of spectral radius below 1 is strongly stable:
        # each verdict is True at the default depth, its rate is rho^2, and
        # a deep term the test sums itself is within 1e-8
        rng = np.random.default_rng(55)
        for w in all_weights:
            for n, r in zip(range(2, 9), np.linspace(0.3, 0.95, 7)):
                A = self.contraction(rng, n, r)
                assert np.linalg.norm(A, 2) <= 1.0
                rep = hb.classify(w, hb.OutputPair(A=A, C=cmat(rng, 1, n)))
                assert rep.strongly_stable_beta
                assert rep.residuals["strong_stability_rate"] \
                    == pytest.approx(r * r, rel=1e-9)
                assert deep_term(w, A, r) <= 1e-8

    def test_strong_stability_is_not_read_at_the_depth(self, w_hardy):
        # the term at the default depth 20 is 0.81^20 = 1.478e-2, recorded
        # but not tested: the operator is strongly stable at rate 0.81
        rep = hb.classify(w_hardy, hb.OutputPair(A=[[0.9]], C=[[1.0]]))
        assert rep.strongly_stable_beta and rep.k_checked == 20
        assert rep.residuals["beta_strong_stability"] == pytest.approx(
            0.81 ** 20, rel=1e-12)
        assert rep.residuals["strong_stability_rate"] == pytest.approx(0.81)

    @pytest.mark.parametrize("a,stable", [(0.6, True), (0.8, False)])
    def test_custom_rate_decides(self, a, stable):
        # past its table [1, 1/2] the weight continues at s = 2, so
        # 1/beta_k = 2^k and A^{*k} Gamma^(k)[I] A^k = (2 a^2)^k: strongly
        # stable exactly when the rate 2 a^2 is below 1.  With C = 0 the
        # gramian is the zero sum
        rep = hb.classify(hb.make_weight_custom([1.0, 0.5]),
                          hb.OutputPair(A=[[a]], C=[[0.0]]))
        assert rep.strongly_stable_beta is stable
        assert rep.residuals["strong_stability_rate"] == pytest.approx(
            2 * a * a, rel=1e-15)
        assert rep.residuals["beta_strong_stability"] == pytest.approx(
            (2 * a * a) ** 20, rel=1e-12)

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

    @pytest.mark.parametrize("weight", ["w_beta2", "w_beta3"])
    def test_integer_alpha_certificate_is_the_binomial_maps(self, weight,
                                                          request):
        # the certificate reads Gamma[I] from the hereditary stack; it is
        # the binomial defect map of order alpha, and the contraction is
        # the operator norm's own test
        w = request.getfixturevalue(weight)
        m = int(w.alpha)
        rng = np.random.default_rng(19)
        for norm in (0.4, 0.8, 0.95):
            A = cmat(rng, 3, 3)
            A *= norm / np.linalg.norm(A, 2)
            rep = hb.classify(w, hb.OutputPair(A=A, C=np.eye(3)), k_max=10)
            ref = her._psd_defects(hb.gamma_binomial(m, A, np.eye(3)))
            assert rep.residuals["hypercontraction_certificate_min_eig"] \
                == pytest.approx(ref, abs=1e-13)
            assert rep.residuals["operator_norm_excess"] \
                == pytest.approx(norm - 1.0, abs=1e-13)

    def test_minimality_of_gramian(self, w_beta2):
        # any PSD solution of the inequalities dominates the gramian
        rng = np.random.default_rng(17)
        pair = stable_pair(rng, 3, 2, rho=0.75)
        Q = cmat(rng, 2, 3)
        bigger = hb.OutputPair(A=pair.A, C=np.vstack([pair.C, Q]))
        G = hb.gramian(w_beta2, 0, pair, 1e-12)
        H = hb.gramian(w_beta2, 0, bigger, 1e-12)
        assert np.linalg.eigvalsh(H - G)[0] >= -1e-10


class TestHypercontractionRules:
    """Each weight kind's rule for the hypercontraction hypothesis
    (``hereditary._rule_depth``) against an explicit stack
    ``Gamma[I], Gamma^(1..K)[I]``, on boundary draws: a contraction scaled
    until ``Gamma[I]`` is singular (or to norm 1, where that comes first),
    which the rule certifies, and the same draw scaled 1% past it, a
    negative ``Gamma[I]`` or a non-contraction, which it must not."""

    TOL = 1e-8
    PAIR = dict(A=[[0.5, 0.3], [0.0, 0.4]], C=np.ones((1, 2)))

    @staticmethod
    def custom_beta2():
        """A 17-entry custom copy of beta_2's table: ``deg P = 15``."""
        return hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 16).betas)

    @staticmethod
    def boundary(w, rng, n):
        """A draw normalized to norm 1 and scaled by the largest ``c <= 1``
        with ``Gamma[I] >= 0``, to 50 bisection steps."""
        G = cmat(rng, n, n)
        A = G / np.linalg.norm(G, 2)

        def psd(c):
            return her._psd_defects(hb.gamma_map(w, c * A, np.eye(n))) >= 0
        lo, hi = (1.0, 1.0) if psd(1.0) else (0.0, 1.0)
        for _ in range(50 if lo < hi else 0):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if psd(mid) else (lo, mid)
        return lo * A

    @pytest.mark.parametrize("weight, K", [
        (hb.make_weight_hardy(), 4000),
        (hb.make_weight_beta_alpha(2.0), 4000),
        (hb.make_weight_beta_alpha(3.0), 4000),
        (hb.make_weight_beta_alpha(1.5), 200),
        (custom_beta2(), 20),
    ], ids=["hardy", "beta2", "beta3", "beta1.5", "custom-beta2"])
    def test_rule_against_the_stack(self, weight, K):
        assert K >= (her._rule_depth(weight) or 0) + 5
        rng = np.random.default_rng(32)
        for n in range(2, 6):
            A = self.boundary(weight, rng, n)
            for c, certified in ((1.0, True), (1.01, False)):
                pair = hb.OutputPair(A=c * A, C=np.eye(n))
                assert pair.spectral_radius <= her.RHO_MAX
                rep = hb.classify(weight, pair, tol=self.TOL)
                stack = her._hereditary_sums(
                    weight, her._Operator(c * A), np.eye(n),
                    range(1, K + 1), 0.1 * self.TOL, "stack", gamma=True)
                holds = np.linalg.norm(c * A, 2) <= 1.0 + self.TOL \
                    and her._psd_defects(stack).min() >= -self.TOL
                assert rep.certified_all_k == holds == certified
                assert rep.hypercontraction == certified

    @pytest.mark.parametrize("weight, k_max, certified", [
        (hb.make_weight_hardy(), 20, True),
        (hb.make_weight_beta_alpha(1.5), 20, True),
        (hb.make_weight_beta_alpha(2.0), 20, True),
        (custom_beta2(), 20, True),
        (custom_beta2(), 14, False),
        (hb.make_weight_beta_alpha(2.5), 20, False),
    ], ids=["hardy", "beta1.5", "beta2", "custom-beta2", "custom-short",
            "beta2.5"])
    def test_certified_where_a_rule_decides(self, weight, k_max, certified):
        # a hypercontraction on every weight: the rules decide it at every
        # shift, a custom weight's once the stack reaches deg P = 15, and
        # non-integer alpha > 2 has no rule
        rep = hb.classify(weight, hb.OutputPair(**self.PAIR), k_max=k_max)
        assert rep.hypercontraction
        assert rep.certified_all_k is certified
        assert ("hypercontraction_certificate_min_eig"
                in rep.residuals) is certified


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

    def test_limit_is_decided_by_the_rate(self, w_hardy):
        # rho^2 = 0.9801 < 1: the limit is 0, although the recorded term
        # D_20 = 0.99^40 is 0.669, and the identity sums Gamma[H] to H
        rep = hb.delta_limit(hb.make_weight_hardy(), [[0.99]], [[1.0]])
        assert rep.delta[0, 0] == pytest.approx(0.99 ** 40, rel=1e-12)
        assert rep.converged and rep.sum_identity_residual <= 1e-12

    @pytest.mark.parametrize("r", [0.45, 0.6, 0.7])
    def test_custom_identity_past_the_series(self, r):
        # custom [1, 0.5], s = 2: the rate 2 r^2 < 1 decides the limit.  The
        # identity's series, at q halfway between r^2 and 1/s, sums Gamma[1]
        # to 1 up to r = 0.6; at r = 0.7, s q = 0.99 puts the cut past
        # J = 1,024, where 1/beta_J = 2^J overflows, and it finds none.
        # R(L) = P(L) (1 - s L)^-1 sums it exactly at every r
        w = hb.make_weight_custom([1.0, 0.5])
        gamma_H = hb.gamma_map(w, [[r]], [[1.0]])
        args = (w, her._Operator([[r]]), gamma_H, [0], 1e-9, "series")
        if r < 0.7:
            assert abs(her._stein_sums(*args)[0][0, 0, 0] - 1.0) <= 1e-9
        else:
            with pytest.raises(hb.ConvergenceError):
                her._stein_sums(*args)
        rep = hb.delta_limit(w, [[r]], [[1.0]])
        assert rep.converged and rep.sum_identity_residual <= 1e-12

    def test_custom_identity_agrees_with_the_series(self):
        # where the series answers, its sum and the exact R(L) agree
        w = hb.make_weight_custom([1.0, 0.6, 0.45, 0.4])
        rng = np.random.default_rng(5)
        for rho in (0.3, 0.5, 0.7):
            A = cmat(rng, 3, 3)
            A *= rho / her.spectral_radius(A)
            A *= min(1.0, 0.9 / np.linalg.norm(A, 2))
            total = her._stein_sums(w, her._Operator(A),
                                    hb.gamma_map(w, A, np.eye(3)), [0],
                                    1e-12, "series")[0][0]
            assert np.linalg.norm(total - np.eye(3), 2) <= 1e-12
            rep = hb.delta_limit(w, A, np.eye(3))
            assert rep.converged and rep.sum_identity_residual <= 1e-12

    def test_limit_at_rate_one_is_measured(self, w_hardy):
        # rate 1: D_20 - D_19 = 0.99^38 - 0.99^40 = 1.3e-2 is above tol, so
        # the sequence has not converged and no identity is checked
        rep = hb.delta_limit(w_hardy, np.diag([1.0, 0.99]), np.eye(2))
        assert not rep.converged and rep.sum_identity_residual is None

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

    def test_shifted_map_not_psd_refused(self, w_beta3):
        # A = 0.9 N with N nilpotent, H = I: H >= A* H A >= 0, but for
        # beta_3 Gamma^(k)[H] = H + k (I - L) H + C(k + 1, 2) (I - L)^2 H
        # and (I - L)^2 H = diag(1, 1 - 2 * 0.81) is not PSD
        A = 0.9 * np.diag([1.0], 1)
        with pytest.raises(hb.HereditaryDomainError,
                           match="^shifted hereditary map of H not PSD at "
                                 "k=2$"):
            hb.delta_limit(w_beta3, A, np.eye(2))

    def test_monotone_decrease_refused(self, w_beta2):
        # for beta_2 every Gamma^(k)[H] = H + k (H - A* H A) is PSD, but the
        # first decrement D_0 - D_1 = Gamma[H] = diag(1, 1 - 2 * 0.81) is not
        A = 0.9 * np.diag([1.0], 1)
        with pytest.raises(hb.HereditaryDomainError,
                           match="^monotone decrease violated: worst "
                                 "decrement eigenvalue -6.200e-01$"):
            hb.delta_limit(w_beta2, A, np.eye(2))

    def test_nan_decrement_refused(self, monkeypatch, w_beta2):
        # the domain check refuses a NaN H; a NaN in the stack of
        # decrements must still fail the monotone certificate
        real = her.min_eig
        monkeypatch.setattr(her, "min_eig", lambda D: real(
            np.concatenate([D[:1] * np.nan, D[1:]])))
        with pytest.raises(hb.HereditaryDomainError,
                           match="worst decrement eigenvalue nan$"):
            hb.delta_limit(w_beta2, np.diag([0.5, 0.2]), np.eye(2))

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


class TestNonFiniteVerdicts:
    """Every positivity verdict of the hereditary calculus refuses NaN and
    +-inf by name: a comparison with NaN is false, so each test is written
    to fail on it, and a non-finite input is refused before a product
    that would warn on it."""

    A = np.diag([0.5, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which,match", [
        ("A", "^A must be finite$"),
        ("X", "^X must be positive semidefinite: it has a non-finite entry$")])
    @pytest.mark.parametrize("call", [
        lambda w, A, X: hb.gamma_map(w, A, X),
        lambda w, A, X: hb.gamma_k_map(w, 2, A, X),
        lambda w, A, X: hb.gamma_k_map(w, 0, A, X),
        lambda w, A, X: hb.delta_limit(w, A, X)],
        ids=["gamma_map", "gamma_k_map", "gamma_k_map-0", "delta_limit"])
    def test_domain_refuses(self, w_beta2, bad, which, match, call):
        # a NaN X used to return a NaN Gamma[X]
        A, X = self.A.copy(), np.eye(2)
        (A if which == "A" else X)[0, 1] = bad
        with pytest.raises(hb.HereditaryDomainError, match=match):
            call(w_beta2, A, X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hermitian_inverse_names_the_matrix(self, bad):
        Ms = np.stack([np.eye(2), np.eye(2), np.eye(2)])
        Ms[1, 1, 0] = bad
        with pytest.raises(hb.ObservabilityError,
                           match=r"1 of the stack.*\[nan, nan\]") as exc:
            her.hermitian_inverse(Ms)
        assert exc.value.index == 1
        with pytest.raises(hb.ObservabilityError) as exc:
            her.hermitian_inverse(Ms[1])
        assert exc.value.index is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_delta_limit_shifted_map_check(self, monkeypatch, w_beta2, bad):
        # a non-finite Gamma^(2)[H] fails the shifted-positivity check
        # instead of passing it to the monotone certificate
        real = her._hereditary_sums

        def poisoned(*args, **kwargs):
            sums = real(*args, **kwargs).copy()
            sums[2, 0, 0] = bad
            return sums
        monkeypatch.setattr(her, "_hereditary_sums", poisoned)
        with pytest.raises(hb.HereditaryDomainError,
                           match="^shifted hereditary map of H not PSD at "
                                 "k=2$"):
            hb.delta_limit(w_beta2, self.A, np.eye(2))


@pytest.fixture
def no_series(monkeypatch):
    """The series engine replaced by functions that raise."""
    def engine(*args, **kwargs):
        raise AssertionError("the series engine was entered")

    monkeypatch.setattr(series, "adaptive_sum", engine)
    monkeypatch.setattr(series, "cut", engine)


class TestOneRoute:
    """Hardy and integer alpha take their closed forms for every input the
    code answers: no call reaches the series engine, and a table too short
    for the finite hereditary rows is no refusal, since they read their
    entries at every index."""

    @pytest.mark.parametrize("weight", ["w_hardy", "w_beta2", "w_beta3"])
    def test_no_call_enters_the_series(self, request, weight, no_series):
        w = request.getfixturevalue(weight)
        rng = np.random.default_rng(22)
        A = cmat(rng, 3, 3)
        A *= 0.8 / np.linalg.norm(A, 2)
        pair = hb.OutputPair(A=A, C=cmat(rng, 2, 3))
        I, zs = np.eye(3), np.array([0.0, 0.5, -0.3j])
        tab = hb.gramian_table(w, pair, 11)
        hb.gamma_map(w, A, I)
        hb.gamma_k_map(w, [1, 4], A, I)
        hb.classify(w, pair)
        hb.delta_limit(w, A, tab[0])
        hb.delta_limit(w, np.diag([1.0, 0.5]), np.eye(2))
        hb.resolvents(w, [0, 3], A, zs)
        hb.resolvent_scalar(w, 2, zs)
        hb.characteristic_family(w, hypercontraction_T(w, rng, 2), k_max=4)
        hb.kernel_coinvariant(w, pair, zs, zs)
        hb.kernel_invariant(w, pair, zs, zs)
        hb.kernel_shifted(w, 3, pair, tab, zs, zs)
        hb.kernel_gap(w, 3, pair, tab, zs, zs)

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_spectral_route_enters_no_series(self, alpha, no_series):
        # non-integer alpha on an operator that passes the spectral route's
        # gate: gramians, maps, resolvents, scalars, every kernel kind and
        # the transfer family all take the route
        w = hb.make_weight_beta_alpha(alpha, 256)
        rng = np.random.default_rng(23)
        A = cmat(rng, 3, 3)
        A *= 0.8 / np.linalg.norm(A, 2)
        pair = hb.OutputPair(A=A, C=cmat(rng, 2, 3))
        assert pair.diagonalization is not None
        I, zs = np.eye(3), np.array([0.0, 0.5, -0.3j, 0.9 * np.exp(2j)])
        tab = hb.gramian_table(w, pair, 11)
        hb.gamma_map(w, A, I)
        hb.gamma_k_map(w, [1, 4], A, I)
        hb.classify(w, pair)
        hb.delta_limit(w, A, tab[0])
        hb.resolvents(w, [0, 3], A, zs)
        hb.resolvent_apply(w, 2, A, 0.7j)
        hb.resolvent_scalar(w, 2, zs)
        hb.resolvent_scalar(w, 0, 0.5)
        assert hb.resolvent_scalar(w, 2, []).shape == (0,)
        hb.space_kernel(w, zs, zs)
        hb.kernel_coinvariant(w, pair, zs, zs)
        hb.kernel_invariant(w, pair, zs, zs)
        hb.kernel_shifted(w, 3, pair, tab, zs, zs)
        hb.kernel_gap(w, 3, pair, tab, zs, zs)
        hb.transfer_eval(hb.build_family(w, pair, 4), [0, 2, 4], zs)

    @pytest.mark.parametrize("weight,A", [
        ("w_hardy", np.diag([1.0, 0.5])),
        ("w_beta2", np.diag([1.0, 0.5])),
        # Gamma[I] = diag(0, 1) is annihilated by A* . A: the identity's
        # series ends at one term, but no rate certifies it either
        ("w_hardy", np.diag([1.0, 0.0])),
    ], ids=["hardy", "beta2", "hardy-finite"])
    def test_delta_limit_at_rho_one(self, request, weight, A):
        # at rho(A) = 1 no decay rate certifies the sum identity's series,
        # whatever the weight: it is skipped, as for a sequence that has
        # not converged
        w = request.getfixturevalue(weight)
        rep = hb.delta_limit(w, A, np.eye(2))
        assert rep.converged and rep.sum_identity_residual is None

    @pytest.mark.parametrize("n,call", [
        (2, lambda w: hb.gamma_map(w, 0.5 * np.eye(2), np.eye(2))),
        (22, lambda w: hb.classify(
            w, hb.OutputPair(A=0.5 * np.eye(2), C=np.eye(2)),
            k_max=20).residuals),
    ], ids=["beta3-gamma", "beta3-classify"])
    def test_short_table_answered(self, n, call):
        # the finite rows of beta_3 read alpha = 3 entries past the largest
        # shift: past a short table they are those of a longer one
        np.testing.assert_equal(call(hb.make_weight_beta_alpha(3.0, n)),
                                call(hb.make_weight_beta_alpha(3.0, 2048)))

    def test_custom_shift_past_the_table(self):
        # past its table [1, 1/2] the weight continues at s = 2, so
        # 1/beta_k = 2^k and R_k / R = 2^k: every shifted map is 2^k X.
        # Then D_k = A^{*k} Gamma^(k)[I] A^k = diag(2^k, 2^-k) grows, and
        # delta_limit refuses by the decrement D_20 - D_21 = -2^20
        w, A = hb.make_weight_custom([1.0, 0.5]), np.diag([1.0, 0.5])
        for k in (1, 2, 21):
            assert np.array_equal(hb.gamma_k_map(w, k, A, np.eye(2)),
                                  2.0 ** k * np.eye(2))
        with pytest.raises(hb.HereditaryDomainError, match="^" + re.escape(
                "monotone decrease violated: worst decrement eigenvalue "
                "-1.049e+06") + "$"):
            hb.delta_limit(w, A, np.eye(2))


class TestEveryIndex:
    """Hardy and ``beta_alpha`` are fixed by ``R``, not by their table: past
    a 16-entry table every call that reads no series answers, with the bits
    of the same call on a 2,048-entry weight."""

    PAIR = dict(A=np.diag([0.5, 0.3]), C=np.ones((1, 2)))

    @staticmethod
    def _bits(x):
        if isinstance(x, hb.ColligationFamily):
            return [x.gramians.entries.tolist(), x.gramians.tail_bounds,
                    [(st.B.tolist(), st.D.tolist()) for st in x.steps],
                    x.isometry_residuals, x.coisometry_residuals]
        if isinstance(x, hb.GramianTable):
            return [x.entries.tolist(), x.tail_bounds, x.trunc_order]
        return x if isinstance(x, hb.ClassificationReport) \
            else np.asarray(x).tolist()

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 2.5])
    @pytest.mark.parametrize("call", [
        lambda w, p: hb.gramian_table(w, p, 13),
        lambda w, p: hb.classify(w, p, k_max=20),
        lambda w, p: hb.build_family(w, p, 12),
        lambda w, p: hb.resolvents(w, [0, 17], p, [0.0, 0.4j, -0.7]),
        lambda w, p: hb.gamma_k_map(w, 15, p, np.eye(2)),
        lambda w, p: hb.resolvent_scalar(w, 17, [0.2, -0.5j]),
        lambda w, p: hb.observability_coeffs(w, 0, p, 20),
    ], ids=["gramian_table", "classify", "build_family", "resolvents",
            "gamma_k_map", "resolvent_scalar", "observability_coeffs"])
    def test_short_table_answers_as_a_long_one(self, alpha, call):
        def make(n):
            return hb.make_weight_hardy(n) if alpha == 1.0 \
                else hb.make_weight_beta_alpha(alpha, n)
        got, ref = (call(make(n), hb.OutputPair(**self.PAIR))
                    for n in (16, 2048))
        assert self._bits(got) == self._bits(ref)

    def test_characteristic_family_depth_reads_no_table(self):
        # the stability depth was capped at 8 below the table, so 16
        # entries checked depth 8 and refused, with residual 3.564e-08
        got, ref = (hb.characteristic_family(
            hb.make_weight_beta_alpha(2.0, n), [[0.3]], k_max=2)
            for n in (16, 256))
        assert got.classification.k_checked == 20
        assert got.classification.residuals["beta_strong_stability"] \
            == ref.classification.residuals["beta_strong_stability"]


class TestCustomPastTheTable:
    """A custom weight past its table reads its definition: the copy of
    beta_2's table ``beta_0 .. beta_8`` continues at ``s = 9/8``, so
    ``1/beta_{8+j} = s^j / beta_8``, and ``P_k = (1 - s z) R_k`` is the
    constant ``1/beta_k`` from ``k = 7`` on."""

    A = np.array([[0.5, 0.1], [0.0, 0.3]])
    C = np.array([[1.0, 1.0]])

    def test_observability_coeffs(self):
        w = custom_copy_8()
        got = hb.observability_coeffs(w, 0, hb.OutputPair(A=self.A, C=self.C),
                                      20)
        for j in range(21):
            inv = w.inv_betas[j] if j <= 8 \
                else w.last_ratio ** (j - 8) / w.betas[8]
            np.testing.assert_allclose(
                got[j], inv * self.C @ np.linalg.matrix_power(self.A, j),
                rtol=1e-14, atol=0)

    def test_gamma_k_map(self):
        # Gamma^(12)[X] = (1/beta_12) P(L)^-1 X, with P = (1 - s z) R of
        # degree 7 from the table and L: X -> A* X A in row-major vec form
        w = custom_copy_8()
        inv, s = w.inv_betas, w.last_ratio
        P = np.concatenate(([1.0], inv[1:8] - s * inv[:7]))
        L = np.kron(self.A.conj().T, self.A.T)
        PL = sum(p * np.linalg.matrix_power(L, m) for m, p in enumerate(P))
        want = s ** 4 / w.betas[8] \
            * np.linalg.solve(PL, np.eye(2).ravel()).reshape(2, 2)
        got = hb.gamma_k_map(w, 12, self.A, np.eye(2))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestRefusals:
    """Every refusal of a shape, a shift or a length names what it refuses."""

    A2 = np.array([[0.3, 0.1], [0.0, 0.2]])

    @pytest.mark.parametrize("weight,call,match", [
        ("w_hardy", lambda w, A, pair: hb.resolvents(w, -1, A, 0.5),
         "shift k=-1 must be >= 0"),
        ("w_beta25", lambda w, A, pair: hb.resolvents(w, -1, A, 0.5),
         "shift k=-1 must be >= 0"),
        ("w_hardy", lambda w, A, pair: hb.resolvent_scalar(w, -1, 0.5),
         "shift k=-1 must be >= 0"),
        ("w_hardy", lambda w, A, pair: hb.gramian(w, -1, pair),
         "gramian needs shifts >= 0, got k=-1"),
        ("w_beta2", lambda w, A, pair: hb.gramian(w, -1, pair),
         "gramian needs shifts >= 0, got k=-1"),
        ("w_hardy", lambda w, A, pair: hb.gramian_table(w, pair, -1),
         "gramian_table needs shifts >= 0, got k_max < 0"),
        ("w_hardy", lambda w, A, pair: hb.observability_coeffs(w, -1, pair, 3),
         "shift k=-1 and length J=3 must be >= 0"),
        ("w_hardy", lambda w, A, pair: hb.observability_coeffs(w, 0, pair, -1),
         "shift k=0 and length J=-1 must be >= 0"),
    ], ids=["resolvents-hardy", "resolvents-beta2.5", "scalar-hardy",
            "gramian-hardy", "gramian-beta2", "gramian-table",
            "observability-k", "observability-J"])
    def test_negative_shift_or_length(self, request, weight, call, match):
        # before the refusal some of these returned values: a hardy
        # resolvent at k = -1, beta_2.5 reading inv_betas[-1] (the end of
        # the table), R_{-1}(0.5) = 2 and a hardy gramian
        w = request.getfixturevalue(weight)
        pair = hb.OutputPair(A=self.A2, C=np.eye(2))
        with pytest.raises(hb.InvalidParameterError, match=re.escape(match)):
            call(w, self.A2, pair)

    @pytest.mark.parametrize("weight", ["w_beta2", "w_beta25"])
    @pytest.mark.parametrize("call,match", [
        (lambda w, A: hb.resolvents(w, 2.7, A, 0.5),
         "resolvents needs integer shifts, got k=2.7"),
        (lambda w, A: hb.resolvent_apply(w, [1, 2.5], A, 0.5),
         "resolvent_apply needs integer shifts, got k=2.5"),
        (lambda w, A: hb.gamma_k_map(w, 1.5, A, np.eye(2)),
         "gamma_k_map needs integer shifts, got k=1.5"),
        (lambda w, A: hb.resolvent_scalar(w, 1.5, 0.5),
         "resolvent_scalar needs integer shifts, got k=1.5"),
        (lambda w, A: hb.resolvent_scalar(w, np.nan, 0.5),
         "resolvent_scalar needs integer shifts, got k=nan"),
    ], ids=["resolvents", "resolvent_apply", "gamma_k_map", "scalar",
            "scalar-nan"])
    def test_fractional_shift_refused(self, request, weight, call, match):
        # resolvents read 2.7 as shift 2 and beta_2's map 1.5 as shift 1,
        # bit for bit; beta_2.5's map raised IndexError and the scalar
        # TypeError
        with pytest.raises(hb.InvalidParameterError,
                           match="^" + re.escape(match) + "$"):
            call(request.getfixturevalue(weight), self.A2)

    def test_integral_float_shift_is_the_shift(self, w_beta2):
        for call in (lambda k: hb.resolvents(w_beta2, k, self.A2, 0.5),
                     lambda k: hb.gamma_k_map(w_beta2, k, self.A2, np.eye(2)),
                     lambda k: hb.resolvent_scalar(w_beta2, k, 0.5)):
            np.testing.assert_array_equal(call(2.0), call(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused_at_the_door(self, w_beta2, bad):
        # numpy's eigvals raised a raw LinAlgError on these
        A = self.A2.copy()
        A[0, 1] = bad
        msg = "spectral radius needs a finite matrix"
        for call in (lambda: hb.spectral_radius(A),
                     lambda: hb.OutputPair(A=A, C=np.eye(2)),
                     lambda: hb.resolvents(w_beta2, 0, A, 0.5)):
            with pytest.raises(hb.InvalidParameterError, match=msg):
                call()
        C = np.eye(2)
        C[1, 0] = bad  # build_family died on "invalid value in divide"
        with pytest.raises(hb.InvalidParameterError, match="^C must be finite$"):
            hb.OutputPair(A=self.A2, C=C)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, 1.0, 0.6 + 0.8j])
    def test_scalar_resolvent_domain(self, w_beta2, x):
        # one error type for the whole domain, as resolvents refuses it
        with pytest.raises(hb.InvalidParameterError, match=re.escape(
                "scalar resolvent points must be finite and lie in |x| < 1")):
            hb.resolvent_scalar(w_beta2, 0, [0.5, x])

    def test_output_pair_shapes(self):
        with pytest.raises(hb.InvalidParameterError, match="A must be square"):
            hb.OutputPair(A=np.ones((2, 3)), C=np.ones((1, 3)))
        with pytest.raises(hb.InvalidParameterError,
                           match="C has 3 columns, expected 2"):
            hb.OutputPair(A=np.eye(2), C=np.ones((1, 3)))

    @pytest.mark.parametrize("call,match", [
        (lambda w: hb.gramian_table(w, hb.OutputPair(
            A=np.zeros((0, 0)), C=np.zeros((2, 0))), 2),
         "the state space must have n >= 1"),
        (lambda w: hb.build_family(w, hb.OutputPair(
            A=np.zeros((0, 0)), C=np.zeros((2, 0))), 2),
         "the state space must have n >= 1"),
        (lambda w: her.hermitian_inverse(np.zeros((0, 0))),
         "hermitian_inverse needs a non-empty matrix"),
        (lambda w: colligation._psd_factor(np.zeros((0, 0)), 1e-10),
         "_psd_factor needs a non-empty matrix"),
    ], ids=["gramian-table", "build-family", "hermitian-inverse",
            "psd-factor"])
    def test_zero_size_refused_by_name(self, w_beta2, call, match):
        # these raised a reshape ValueError, an IndexError and an empty
        # argmax before the refusals
        with pytest.raises(hb.InvalidParameterError, match=f"^{match}$"):
            call(w_beta2)

    def test_overflow_refused_by_name(self, w_beta2, w_hardy):
        # under the suite's error::RuntimeWarning filter these raised
        # "overflow encountered in add" (hermitize) and "in matmul" (C* C)
        with pytest.raises(hb.HereditaryDomainError,
                           match=re.escape("X - A* X A must be finite")):
            hb.gamma_map(w_beta2, np.array([[0.9, 0.9], [0.0, 0.0]]),
                         1e308 * np.eye(2))
        for C in (1e200 * np.eye(2), (1e200 + 1e200j) * np.ones((2, 2))):
            pair = hb.OutputPair(A=0.5 * np.eye(2), C=C)
            with pytest.raises(hb.InvalidParameterError,
                               match=re.escape("C* C overflows")):
                hb.classify(w_hardy, pair)
        # the gramians, diag(0, 1), are finite, but I - kron(A*, A^T) is
        # not: this raised "overflow encountered in multiply", and
        # LinAlgError "Singular matrix" without the suite's filter
        w = hb.make_weight_hardy(64)

        def pair(a):
            return hb.OutputPair(A=[[0, a], [0, 0]], C=[[0, 1]])
        with pytest.raises(hb.InvalidParameterError, match=re.escape(
                "the Kronecker matrix of p(L), L: X -> A* X A, overflows: "
                "A is too large")):
            hb.gramian_table(w, pair(1e155), 2)
        table = hb.gramian_table(w, pair(1e100), 2)
        np.testing.assert_array_equal(table.entries,
                                      np.broadcast_to(np.diag([0, 1]),
                                                      (3, 2, 2)))

    @staticmethod
    def _continued(w, k, x):
        """``R_k(x)`` of the custom weight ``w``, continued past its table
        at its last ratio, at 30 digits."""
        with mpmath.workdps(30):
            return float(continued_R(w.betas)(k, mpmath.mpf(x)))

    @pytest.mark.parametrize("weight", ["w_hardy", "w_beta2", "w_beta25"])
    def test_resolvent_shift_past_table(self, request, weight):
        # answered on the closed forms and the spectral route, with a longer
        # table's bits; the series reads a custom weight past its table by
        # its definition, the last ratio
        w = request.getfixturevalue(weight)
        np.testing.assert_array_equal(
            hb.resolvents(w, [0, 257], self.A2, 0.5),
            hb.resolvents(long_copy(w), [0, 257], self.A2, 0.5))
        custom = series_copy(w)
        got = hb.resolvents(custom, [0, 257], self.A2, 0.5)
        for R, k in zip(got, [0, 257]):
            # f(0.5 A2) for the triangular A2: f at 0.15 and 0.1, and
            # 0.05 times their divided difference
            f = [self._continued(custom, k, x) for x in (0.15, 0.1)]
            np.testing.assert_allclose(
                R, [[f[0], f[0] - f[1]], [0.0, f[1]]], rtol=1e-13,
                atol=1e-13 * f[0])

    @pytest.mark.parametrize("weight", ["w_beta2", "w_beta25"])
    def test_resolvents_need_a_shift(self, request, weight):
        w = request.getfixturevalue(weight)
        with pytest.raises(hb.InvalidParameterError,
                           match="resolvents need at least one shift k"):
            hb.resolvents(w, [], self.A2, 0.5)

    @pytest.mark.parametrize("weight", ["w_beta2", "w_beta25"])
    def test_gamma_k_map_needs_a_shift(self, request, weight):
        w = request.getfixturevalue(weight)
        with pytest.raises(hb.InvalidParameterError,
                           match="gamma_k_map needs at least one shift k"):
            hb.gamma_k_map(w, [], self.A2, np.eye(2))

    def test_scalar_resolvent_refusals(self, w_beta25):
        with pytest.raises(hb.InvalidParameterError, match=re.escape(
                "scalar resolvent points must be finite and lie in |x| < 1")):
            hb.resolvent_scalar(w_beta25, 0, [0.5, 1.0])
        assert hb.resolvent_scalar(w_beta25, 257, 0.5) \
            == hb.resolvent_scalar(long_copy(w_beta25), 257, 0.5)
        # the series reads the custom row past the table at its last ratio
        custom = series_copy(w_beta25)
        assert hb.resolvent_scalar(custom, 257, 0.5) == pytest.approx(
            self._continued(custom, 257, 0.5), rel=1e-13)

    def test_series_gramian_past_the_table_answered(self, w_beta2):
        # the closed form answers at any shift; the series reads a custom
        # row past its table at the last ratio, however few entries the
        # table leaves past the shift
        pair = hb.OutputPair(A=self.A2, C=np.eye(2))
        np.testing.assert_array_equal(
            hb.gramian(w_beta2, 253, pair),
            hb.gramian(long_copy(w_beta2), 253, pair))
        custom = series_copy(w_beta2)
        # A2 = V diag(d) V^-1, so G^(k) = V^-* (F o (V* V)) V^-1 with
        # F_ij = R_k(d_i d_j)
        d, V = np.linalg.eig(self.A2)
        Vi = np.linalg.inv(V)
        for k in (252, 253, 257):
            F = np.array([[self._continued(custom, k, x * y) for y in d]
                          for x in d])
            exact = Vi.T @ (F * (V.T @ V)) @ Vi
            np.testing.assert_allclose(hb.gramian(custom, k, pair), exact,
                                       rtol=1e-12, atol=0)

    def test_observability_past_table(self, w_beta2):
        pair = hb.OutputPair(A=self.A2, C=np.eye(2))
        np.testing.assert_array_equal(
            hb.observability_coeffs(w_beta2, 200, pair, 57),
            hb.observability_coeffs(long_copy(w_beta2), 200, pair, 57))
        # a custom copy continues at its last ratio s past its table
        custom = series_copy(w_beta2)
        N, s = w_beta2.trunc_len, custom.last_ratio
        got = hb.observability_coeffs(custom, 200, pair, 57)
        for j in (0, 56, 57):
            inv = 1 / w_beta2.betas[200 + j] if 200 + j <= N \
                else s ** (200 + j - N) / w_beta2.betas[N]
            np.testing.assert_allclose(
                got[j], inv * np.linalg.matrix_power(self.A2, j),
                rtol=1e-13, atol=0)

    def test_domain_needs_psd_argument(self, w_beta2):
        with pytest.raises(hb.HereditaryDomainError,
                           match="X must be positive semidefinite"):
            hb.gamma_map(w_beta2, self.A2, -np.eye(2))

    @pytest.mark.parametrize("m,A,X,match", [
        (2, [[np.inf]], np.eye(1), "gamma_binomial needs a finite A and X"),
        (1, 0.5 * np.eye(1), [[np.nan]],
         "gamma_binomial needs a finite A and X"),
        (-1, 0.5 * np.eye(1), np.eye(1), "gamma_binomial needs m >= 0, got "
         "m=-1")], ids=["inf-A", "nan-X", "negative-m"])
    def test_gamma_binomial_refusals(self, m, A, X, match):
        # the first two returned NaN with a RuntimeWarning from the product
        # (an error under the suite's filter), the third raised a raw
        # AttributeError from hermitize of the empty sum
        with pytest.raises(hb.InvalidParameterError, match=f"^{match}$"):
            hb.gamma_binomial(m, A, X)


class TestKnownDefects:
    """Defects against a high-precision truth: a standing one is pinned as
    a strict xfail naming the ROADMAP item that fixes it, and the fixing
    change turns the xfail into a pass, drops the mark and keeps the
    test."""

    def test_custom_weight_map_past_its_table(self):
        # Gamma[1] at a = 0.95 is 1 / R(a^2), with 1/beta_j continued past
        # the table by the last ratio s = beta_{N-1} / beta_N.  Cutting the
        # c row at its table gives 0.00950625; the truth is
        # 0.0095039872496...
        betas = hb.make_weight_beta_alpha(2.0, 64).betas
        with mpmath.workdps(40):
            x = mpmath.mpf(0.95) ** 2
            b = [mpmath.mpf(v) for v in betas]
            N = len(b) - 1
            s = b[N - 1] / b[N]
            R = mpmath.fsum(x ** j / b[j] for j in range(N + 1)) \
                + x ** N / b[N] * s * x / (1 - s * x)
            ref = float(1 / R)
        got = hb.gamma_map(hb.make_weight_custom(betas), [[0.95]], [[1.0]])
        assert abs(got[0, 0] - ref) <= 1e-12 * ref

    @pytest.mark.xfail(strict=True, raises=hb.ConvergenceError, reason=(
        "ROADMAP item 21: the scalar series of a custom weight cuts past "
        "J = 1,024, where 1/beta_J = 2^J overflows, so R(0.49) = 50 is "
        "refused at the term budget"))
    def test_custom_scalar_near_its_radius(self):
        # [1, 1/2] continues at s = 2: R(x) = 1 / (1 - 2x), and s x = 0.98
        w = hb.make_weight_custom([1.0, 0.5])
        assert hb.resolvent_scalar(w, 0, 0.49) == pytest.approx(50.0,
                                                                 rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 13: the Kronecker closed form of a Jordan block near "
        "the circle is wrong by 1.2e-4 while it reports a tail of 0"))
    def test_jordan_gramian_against_its_tail(self):
        # G_pq = sum_j C(j, p) C(j, q) 0.99^(2j - p - q) for C = e_1^T
        n = 6
        A = 0.99 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        C = np.eye(1, n)
        table = hb.gramian_table(hb.make_weight_hardy(256),
                                 hb.OutputPair(A=A, C=C), 0)
        ref = np.empty((n, n))
        with mpmath.workdps(50):
            lam = mpmath.mpf(0.99)
            for p in range(n):
                for q in range(p, n):
                    ref[p, q] = ref[q, p] = mpmath.nsum(
                        lambda j: mpmath.binomial(j, p) * mpmath.binomial(j, q)
                        * lam ** (2 * j - p - q), [0, mpmath.inf])
        err = np.linalg.norm(table[0] - ref)
        assert err <= table.tail_bounds[0] + 1e-12 * np.linalg.norm(ref)


def _count_eigen_solves(monkeypatch) -> dict:
    """``{"eig": calls, "eigvals": calls}`` of the general eigen-solves
    made from here on."""
    calls = {"eig": 0, "eigvals": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneDoor:
    """Every entry that takes ``A`` takes a matrix or an OutputPair, and no
    ``A`` is eigen-solved twice."""

    @staticmethod
    def contraction(rng, n, norm=0.3):
        G = cmat(rng, n, n)
        return G * (norm / her.opnorm(G))

    def test_a_pair_is_eigen_solved_once(self, w_beta25, monkeypatch):
        # the pair's radius at construction and one diagonalization, made
        # by the gramian table and read by every map and grid after it
        rng = np.random.default_rng(71)
        A, C = self.contraction(rng, 3), cmat(rng, 2, 3)
        calls = _count_eigen_solves(monkeypatch)
        pair = hb.OutputPair(A=A, C=C)
        G = hb.gramian_table(w_beta25, pair, 3)[0]
        gamma = hb.gamma_map(w_beta25, pair, G)
        maps = hb.gamma_k_map(w_beta25, [1, 2, 3], pair, G)
        rep = hb.delta_limit(w_beta25, pair, np.eye(3))
        hb.resolvents(w_beta25, [0, 1], pair, hb.default_grid())
        hb.resolvent_apply(w_beta25, 2, pair, 0.5j)
        assert rep.sum_identity_residual is not None  # reads rho(A)
        assert calls == {"eig": 1, "eigvals": 1}
        # the same values as from the bare matrix, bit for bit
        assert np.array_equal(gamma, hb.gamma_map(w_beta25, A, G))
        assert np.array_equal(maps, hb.gamma_k_map(w_beta25, [1, 2, 3], A, G))

    def test_the_model_solves_its_operator_once(self, w_beta25, monkeypatch):
        # characteristic_family needs rho(A) for its stability depth before
        # any diagonalization; defect_form_family diagonalizes A for the
        # defect first, and its pair reads rho(A) from that
        T = hypercontraction_T(w_beta25, np.random.default_rng(72), 3)
        calls = _count_eigen_solves(monkeypatch)
        char = hb.characteristic_family(w_beta25, T, k_max=4)
        assert calls == {"eig": 1, "eigvals": 1}
        assert char.family.pair.diagonalization is not None
        calls.update(eig=0, eigvals=0)
        hb.defect_form_family(w_beta25, T, k_max=4)
        assert calls == {"eig": 1, "eigvals": 0}

    @pytest.mark.parametrize("kind", ["hardy", "beta2", "custom"])
    def test_closed_maps_solve_nothing(self, kind, monkeypatch):
        w = {"hardy": hb.make_weight_hardy(64),
             "beta2": hb.make_weight_beta_alpha(2.0, 64),
             "custom": hb.make_weight_custom([1.0, 0.5, 0.3, 0.2])}[kind]
        calls = _count_eigen_solves(monkeypatch)
        A = np.diag([0.5, 0.2])
        hb.gamma_map(w, A, np.eye(2))
        hb.gamma_k_map(w, [1, 2], A, np.eye(2))
        assert calls == {"eig": 0, "eigvals": 0}

    def test_a_bare_matrix_on_the_route_is_diagonalized_once(
            self, w_beta25, monkeypatch):
        # its radius is read from the diagonalization
        calls = _count_eigen_solves(monkeypatch)
        hb.resolvent_apply(w_beta25, 1, np.diag([0.5, 0.2]), 0.5)
        assert calls == {"eig": 1, "eigvals": 0}

    def test_a_pair_shares_the_operator_it_is_built_on(self, w_beta25):
        op = her._Operator(np.diag([0.5, 0.2]))
        spec = op.diagonalization
        pair = hb.OutputPair(A=op, C=np.ones((1, 2)))
        assert pair.diagonalization is spec
        assert pair.spectral_radius == 0.5
        assert her._operator(pair) is pair

    def test_zero_tol_is_allowed(self):
        # the door refuses negative, NaN and infinite tolerances only
        # (tests/test_api.py walks every entry); a closed form needs none
        A = np.diag([0.5, 0.2])
        w = hb.make_weight_hardy(64)
        np.testing.assert_allclose(hb.gamma_map(w, A, np.eye(2), tol=0.0),
                                   np.eye(2) - A @ A, rtol=0, atol=1e-15)
