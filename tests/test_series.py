"""The series engine: where a series is cut, what its tail bound covers, and
how a sum that its term budget cannot reach is refused."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

import hardybeta as hb
from hardybeta import hereditary as her
from hardybeta import series, spectral
from conftest import continued_R, mp_maps, off_route, series_copy

#: diagonal (normal) operator: ||A^j|| = rho^j, so the observed transient
#: constant is a true bound and the closed forms below are exact
DIAG = np.diag([0.9, -0.5 + 0.3j, 0.2j])

BUDGET = series._BUDGET


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


def _one_term(entry, s, q, j):
    """``|entry| q^j s q / (1 - s q)`` as a plain expression: ``inf`` at
    ``s q >= 1`` and 0 at a zero entry under a finite step."""
    sq = s * q
    if not sq < 1.0:
        return math.inf
    return 0.0 if entry == 0.0 else abs(entry) * q ** j * sq / (1.0 - sq)


def _reference(first, right, rows, steps, q, tol, left=None, length=8192):
    """The certified rule as a plain per-term loop over rows read once at
    ``length``: ``T_{j+1} = left T_j right``, ``K`` the maximum of
    ``||T_s|| / q^s`` over the span ``s < m``, and the cut the first
    ``j >= 4`` with ``K max_i |row_i[j]| q^j s_i q / (1 - s_i q) <= tol``;
    a term with every entry 0 inside the span ends the series.  Returns
    (terms, K, ended by a zero term)."""
    m = _span(right, q, left)
    R = rows(length)
    S = np.broadcast_to(steps(np.arange(length + 1)), R.shape)
    terms = [first]
    while len(terms) < m:
        T = terms[-1]
        terms.append((T if left is None else left @ T) @ right)
    K = max(np.linalg.norm(terms[s]) / q ** s for s in range(m))
    for s in range(m):
        if not terms[s].any():
            return terms[:s + 1], K, True
    j = 4
    while K * max(_one_term(R[i, j], S[i, j], q, j)
                  for i in range(len(R))) > tol:
        j += 1
        assert j < length
    while len(terms) <= j:
        T = terms[-1]
        terms.append((T if left is None else left @ T) @ right)
    return terms[:j + 1], K, False


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


def _hardy_rows(w):
    """The ``c`` and ``1/beta`` rows of hardy with their steps."""
    def rows(n):
        return np.vstack([hb.reciprocal_coeffs(w, n),
                          w._entries(np.arange(n + 1))[1]])
    return rows, lambda J: np.vstack([w.c_step(J), w.inv_step(J)])


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
                first, q, ks, left = (np.eye(n, dtype=complex),
                                      series.decay_rate(rho), [0], None)
            else:
                C = rng.standard_normal((2, n)) + 0j
                first, q, ks, left = (C.conj().T @ C,
                                      series.conjugation_rate(rho),
                                      range(3), A.conj().T)
            rows, steps = her._shifted_rows(w, ks)
            for tol in (1e-4, 1e-10):
                ref, K, zero = _reference(first, A, rows, steps, q, tol,
                                          left=left)
                assert zero is False
                rec = series.adaptive_sum(first, A, rows, q, steps, tol,
                                          "test", left=left)
                assert rec.J == len(ref) - 1
                assert rec.K == pytest.approx(K, rel=1e-13)
                np.testing.assert_array_equal(rec.terms, np.stack(ref))
                np.testing.assert_array_equal(rec.rows, rows(rec.J))

    @pytest.mark.parametrize("index", [3, 5])
    def test_zero_term_inside_block_ends_series(self, w_hardy, index):
        # A^index = 0 exactly, so the certified span is m = 4 (index 3) or
        # 8 (index 5), and the zero term sits inside it: the sum is finite
        A = np.diag(np.ones(index - 1), 1).astype(complex)
        rows, steps = _hardy_rows(w_hardy)
        args = (np.eye(index, dtype=complex), A, rows, steps,
                series.conjugation_rate(0.0))
        ref, K, zero = _reference(*args, 1e-10, left=A.conj().T)
        assert zero is True and len(ref) == index + 1
        assert _span(A, args[4], A.conj().T) == {3: 4, 5: 8}[index]
        rec = series.adaptive_sum(args[0], A, rows, args[4], steps, 1e-10,
                                  "test", left=A.conj().T)
        assert rec.J == index
        assert rec.K == K
        assert rec.tails == [0.0, 0.0]
        assert rec.terms.shape == (index + 1, index, index)
        assert rec.rows.shape == (2, index + 1)
        assert not rec.terms[-1].any()

    def test_record_holds_exactly_the_cut(self, w_hardy):
        A = np.diag([0.7, 0.5j]).astype(complex)
        rows, steps = her._shifted_rows(w_hardy, [0])
        args = (np.eye(2, dtype=complex), A, rows, steps,
                series.decay_rate(0.7))
        rec = series.adaptive_sum(args[0], A, rows, args[4], steps, 1e-6,
                                  "test")
        ref = _reference(*args, 1e-6)[0]
        J = rec.J
        assert J & (J + 1) and J & (J - 1)  # neither J nor J + 1 a power of 2
        assert isinstance(rec.terms, np.ndarray)
        assert rec.terms.shape == (J + 1, 2, 2) == (len(ref), 2, 2)
        assert rec.rows.shape == (1, J + 1)

    @pytest.mark.parametrize("start", [0, 5, 64, 4096, BUDGET])
    def test_cut_does_not_depend_on_the_windows(self, start):
        # the windows the cut is looked for in only decide how far the rows
        # are read: the first J whose bound holds is the same from any start
        w = hb.make_weight_beta_alpha(2.5, 256)
        rows, steps = her._shifted_rows(w, range(4))
        for q, K, tol in ((0.5, 1.0, 1e-12), (0.99, 3.0, 1e-10),
                          (0.995, 1e3, 1e-8)):
            J, coefs, tails = series.cut(rows, steps, q, K, tol, "test",
                                         start=start)
            assert (J, tails) == series.cut(rows, steps, q, K, tol,
                                            "test")[::2]
            np.testing.assert_array_equal(coefs, rows(J))
            # the first such J: the bound one index earlier is above tol
            before = np.array([J - 1])
            assert max(tails) <= tol < K * series._tails(
                coefs[:, -2:-1], steps(before), q, before).max()


class TestBudget:
    """Nothing refuses a sum for a stored table: a refusal names the caller,
    the decay rate ``q`` and the term budget.  Hardy and integer alpha are
    closed form and beta_1.5 takes the spectral route; its table entered
    as a custom weight sums the series past the table at its last ratio,
    and so do its maps past the spectral route's gate."""

    W16 = hb.make_weight_beta_alpha(1.5, 16)

    def test_resolvent_apply_names_caller(self):
        # the row steps by the last ratio s = 16.5/16 past the table, and
        # s |z| rho(A) = 1.0107 >= 1: the series diverges
        w = series_copy(self.W16)
        with pytest.raises(hb.DivergenceError, match="^resolvent_apply: "):
            hb.resolvent_apply(w, 0, 0.99 * np.eye(2), 0.99)

    def test_resolvent_scalar_past_the_table_answered(self):
        # at x = 0.95 the last ratio times x is 0.98 < 1, and the row past
        # the 16-entry table is the definition's
        w = series_copy(self.W16)
        with mpmath.workdps(30):
            exact = float(continued_R(w.betas)(0, mpmath.mpf(0.95)))
        assert hb.resolvent_scalar(w, 0, 0.95) == pytest.approx(
            exact, rel=1e-13)

    def test_gramian_table_past_the_table_answered(self):
        # G^(k) = C^* C R_k(0.95^2) for A = 0.95 I: the series reads the
        # custom row past its 16 entries
        w = series_copy(self.W16)
        C = np.ones((1, 2))
        tab = hb.gramian_table(w, hb.OutputPair(A=0.95 * np.eye(2), C=C), 2)
        R = continued_R(w.betas)
        for k in range(3):
            with mpmath.workdps(30):
                exact = float(R(k, mpmath.mpf(0.95) ** 2)) * (C.T @ C)
            assert np.abs(tab[k] - exact).max() <= tab.tail_bounds[k] <= 1e-10

    def test_message_text(self):
        # the whole message of each refusal: a series that diverges (the
        # resolvent of a custom table past its last ratio), a bound still
        # above tol at the budget (beta_2.5 at a point the quadrature's
        # ladder does not reach) and a rate the budget does not certify (a
        # Jordan block at 0.999)
        w = hb.make_weight_beta_alpha(2.5, 256)
        J6 = 0.999 * np.eye(6) + np.diag(np.ones(5), 1)
        cases = [
            (lambda: hb.resolvent_apply(series_copy(self.W16), 0,
                                        0.99 * np.eye(2), 0.99),
             hb.DivergenceError,
             "resolvent_apply: s |z| rho(A) = 1.01073 >= 1 at the weight's "
             "last ratio s = 1.03125: series diverges"),
            (lambda: hb.resolvent_scalar(w, 1, 0.9999), hb.ConvergenceError,
             "resolvent_scalar: tail bound 3.106e+09 > tol 1.000e-12 at the "
             f"term budget J = {BUDGET}, at the decay rate q = 0.9999"),
            (lambda: hb.gramian_table(w, hb.OutputPair(A=J6, C=np.eye(1, 6)),
                                      0), hb.ConvergenceError,
             "gramian_table: decay rate q = 0.999 is not certified by "
             f"||A^{BUDGET}|| within the term budget J = {BUDGET}"),
        ]
        for call, error, text in cases:
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == text

    def test_divergent_gramian_names_s_and_the_product(self):
        # a custom weight keeps its last ratio (s = 65/64 for a beta_2
        # copy) past its table, by definition (ROADMAP prototype P8), and
        # s rho(A)^2 = 1.0055 >= 1: the series diverges
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 64).betas)
        pair = hb.OutputPair(A=np.diag([0.995, 0.3]), C=np.ones((1, 2)))
        with pytest.raises(hb.DivergenceError) as info:
            hb.gramian_table(w, pair, 0)
        assert str(info.value) == (
            "gramian_table: s rho(A)^2 = 1.00549 >= 1 at the weight's last "
            "ratio s = 1.01562: series diverges")
        assert info.value.exit_code == 3

    def test_unbounded_tail_names_the_rate(self):
        # a resolvent's rate |z| (1 + rho)/2 is below 1 on the disk, so
        # only a conjugation at rho(A) = 1 has q = 1: the c row of
        # beta_1.5 has step bound 1 at every index, and no budget gives a
        # bound (rho(A) = 1 fails the spectral route's gate); the text does
        # not depend on the table
        for n in (16, 256):
            with pytest.raises(hb.ConvergenceError) as info:
                hb.gamma_map(hb.make_weight_beta_alpha(1.5, n),
                             np.diag([1.0, 0.5]), np.diag([0.0, 1.0]), 1e-6)
            assert str(info.value) == (
                "gamma_map: tail bound inf > tol 1.000e-06: a row's step "
                f"bound 1 at the term budget J = {BUDGET} times the decay "
                "rate q = 1 is 1 >= 1")

    def test_uncertified_rate_names_q_and_m(self):
        # a rotation keeps ||R^m||_F = sqrt(2) > 1 = q^m for every m, so
        # the squares run to the budget, and no term past T_0 is made
        R = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
        with pytest.raises(hb.ConvergenceError) as info:
            series.adaptive_sum(np.eye(2, dtype=complex), R,
                                lambda n: 0.5 ** np.arange(n + 1)[None], 1.0,
                                lambda J: 0.5, 1e-10, "test")
        assert str(info.value) == (
            f"test: decay rate q = 1 is not certified by ||A^{BUDGET}|| "
            f"within the term budget J = {BUDGET}")


class TestCustomRate:
    """A custom weight steps by ``s = last_ratio`` past its table, so its
    series take a rate below ``1/s``: every sum with ``s rho(A)^2 < 1`` or
    ``s |z| rho(A) < 1`` is answered, and one at or past 1 is refused by
    name with DivergenceError.  The weight ``[1, 1/2]`` has ``s = 2``, so
    ``1/beta_j = 2^j`` and ``R_k(x) = 2^k / (1 - 2x)``."""

    W = hb.make_weight_custom([1.0, 0.5])
    a = np.array([0.4, 0.2])

    def test_gramian_table_inside_the_radius(self):
        # s rho^2 = 0.32; G^(k)_ij = 2^k / (1 - 2 a_i a_j) for C = ones.
        # At the rate ((1 + rho) / 2)^2 = 0.49, which left the weight's
        # step out of account, s q = 0.98 put the cut past J = 1,024, where
        # 2^J overflows
        pair = hb.OutputPair(A=np.diag(self.a), C=np.ones((1, 2)))
        tab = hb.gramian_table(self.W, pair, 2)
        for k in range(3):
            exact = 2.0 ** k / (1.0 - 2.0 * np.outer(self.a, self.a))
            assert np.abs(tab[k] - exact).max() <= 1e-14 * np.abs(exact).max()
            assert tab.tail_bounds[k] <= 1e-10

    def test_resolvent_inside_the_radius(self):
        # s |z| rho = 0.72; R_0(zA) = diag(1 / (1 - 2 z a_i)).  At the
        # rate |z| (1 + rho) / 2 = 0.63, s q = 1.26 bounded no tail
        got = hb.resolvents(self.W, 0, np.diag(self.a), [0.9])[0]
        exact = np.diag(1.0 / (1.0 - 1.8 * self.a))
        assert np.abs(got - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_refused_at_the_radius(self):
        # s rho^2 = 2 * 0.75^2 = 1.125; s |z| rho = 2 * 0.5 * 1 = 1 exactly
        pair = hb.OutputPair(A=np.diag([0.75, 0.2]), C=np.ones((1, 2)))
        with pytest.raises(hb.DivergenceError) as info:
            hb.gramian_table(self.W, pair, 2)
        assert str(info.value) == (
            "gramian_table: s rho(A)^2 = 1.125 >= 1 at the weight's last "
            "ratio s = 2: series diverges")
        with pytest.raises(hb.DivergenceError) as info:
            hb.resolvents(self.W, 0, np.diag([1.0, 0.2]), [0.5])
        assert str(info.value) == (
            "resolvents: s |z| rho(A) = 1 >= 1 at the weight's last ratio "
            "s = 2: series diverges")

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 0.95])
    def test_rate_between_the_true_rate_and_one_over_s(self, rho):
        # at s = 1 the rates are the expressions of the hardy and
        # beta_alpha series, bit for bit; past it each lies strictly
        # between the true rate and 1/s, and never above them
        for r in (0.2, 0.9):
            assert series.decay_rate(rho, r) == r * 0.5 * (1.0 + rho)
            for s in (1.03125, 2.0):
                q = series.decay_rate(rho, r, s)
                if s * r * rho < 1.0:
                    assert r * rho < q < 1.0 / s
                assert q <= series.decay_rate(rho, r)
        assert series.conjugation_rate(rho) == (0.5 * (1.0 + rho)) ** 2
        for s in (1.03125, 2.0):
            q = series.conjugation_rate(rho, s)
            if s * rho * rho < 1.0:
                assert rho * rho < q < 1.0 / s
            assert q <= series.conjugation_rate(rho)


def _p30(lam):
    """The defective pair ``A = lam I_3 + 0.1 N``, ``C = ones(1, 3)``: it
    fails the spectral route's gate, so beta_2.5 takes the series."""
    A = lam * np.eye(3) + 0.1 * np.diag(np.ones(2), 1)
    return hb.OutputPair(A=A, C=np.ones((1, 3)))


def _ratio_one(n):
    """A custom weight of ``n + 1`` entries: beta_2.5's first 65, then
    constant.  Its last ratio is exactly 1, so every table length of it
    defines the same weight."""
    head = hb.make_weight_beta_alpha(2.5, 64).betas
    return hb.make_weight_custom(np.concatenate(
        [head, np.full(n - 64, head[-1])]))


class TestTableIndependence:
    """A series answer is the weight's, not its table's: every call that
    sums the series gives the same bits on a 256- and a 2,048-entry table
    of one weight."""

    @staticmethod
    def _same(call, make):
        got, ref = (call(make(n)) for n in (256, 2048))
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)
        return got

    @pytest.mark.parametrize("lam", [0.9, 0.95, 0.99])
    def test_gramian_table_and_classify_past_the_gate(self, lam):
        pair = _p30(lam)
        beta = lambda n: hb.make_weight_beta_alpha(2.5, n)  # noqa: E731
        tab, bounds = self._same(lambda w: (
            (t := hb.gramian_table(w, pair, 2)).entries,
            list(t.tail_bounds.values()) + [t.trunc_order]), beta)
        assert tab.shape == (3, 3, 3) and max(bounds[:3]) <= 1e-10
        self._same(lambda w: list(hb.classify(w, pair, k_max=4)
                                  .residuals.values()), beta)

    def test_gamma_k_map_past_the_gate(self):
        A = _p30(0.9).A
        got = self._same(lambda w: [hb.gamma_k_map(w, [1, 2, 3], A,
                                                   np.eye(3))],
                         lambda n: hb.make_weight_beta_alpha(2.5, n))[0]
        exact = mp_maps(hb.make_weight_beta_alpha(2.5, 2048).betas, A,
                        np.eye(3), [1, 2, 3])
        np.testing.assert_allclose(got, exact, rtol=0, atol=1e-9)

    def test_resolvents_past_the_ladder(self):
        # a shift of 3,000 needs more nodes than the quadrature's ladder
        # holds at any point, and lies past both tables
        A = np.diag([0.9, 0.3]) + np.diag([0.2], 1)
        zs = np.array([0.9, 0.5j, -0.7 + 0.1j])
        beta = lambda n: hb.make_weight_beta_alpha(2.5, n)  # noqa: E731
        assert spectral.node_count(2.5, 0.81, 3001) is None
        self._same(lambda w: [hb.resolvents(w, [3000, 3001], A, zs),
                              hb.resolvent_scalar(w, 3000, zs)], beta)

    def test_deep_term_past_the_ladder_is_answered_by_the_series(
            self, monkeypatch):
        # beta_2.5 at a shift of 1,844 on [[0.99]] needs more nodes than the
        # quadrature's ladder holds, so the map falls to the series, which
        # reads the weight past both tables
        entered = []
        real = series.adaptive_sum

        def spy(*args, **kwargs):
            entered.append(kwargs.get("left") is not None)
            return real(*args, **kwargs)
        monkeypatch.setattr(series, "adaptive_sum", spy)
        assert spectral.node_count(2.5, 0.99 ** 2, 1844) is None
        self._same(lambda w: [hb.gamma_k_map(w, 1844, [[0.99]], [[1.0]])],
                   lambda n: hb.make_weight_beta_alpha(2.5, n))
        assert entered == [True, True]

    def test_custom_copy(self):
        # a custom weight past its table continues at its last ratio: here
        # 1, so its 256- and 2,048-entry tables define one weight
        pair = hb.OutputPair(A=np.diag([0.95, 0.5]) + np.diag([0.3], 1),
                             C=np.ones((1, 2)))
        self._same(lambda w: [hb.gramian_table(w, pair, 3).entries,
                              hb.resolvents(w, [0, 300], pair.A, [0.9, 0.5j]),
                              hb.resolvent_scalar(w, 300, [0.9, 0.5j])],
                   _ratio_one)


class TestAnsweredPastTheTable:
    """Inputs whose series runs past the stored table, answered by the
    weight past it."""

    @pytest.mark.parametrize("lam", [0.9, 0.95, 0.99])
    def test_p30_gramians_within_their_bounds(self, lam):
        # the truth from 16,384 closed-form coefficients, past which the
        # remainder is below 1e-40 at lam = 0.99
        pair = _p30(lam)
        tab = hb.gramian_table(hb.make_weight_beta_alpha(2.5), pair, 2)
        inv = hb.make_weight_beta_alpha(2.5, 16386).inv_betas
        A, T = pair.A, pair.CstarC.astype(complex)
        exact = np.zeros((3, 3, 3), dtype=complex)
        for j in range(16384):
            exact += inv[j:j + 3, None, None] * T
            T = A.T @ T @ A
        for k in range(3):
            err = np.linalg.norm(tab[k] - exact[k])
            assert err <= tab.tail_bounds[k] \
                + 1e-14 * np.linalg.norm(exact[k])

    def test_item_21_classify(self):
        # the custom beta_2 copy at 64 entries continues at 65/64: at
        # x = 0.81 that steps below 1, and its rows are its definition
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 64).betas)
        pair = hb.OutputPair(A=np.diag([0.9, 0.3]), C=np.ones((1, 2)))
        rep = hb.classify(w, pair)
        assert rep.residuals["gramian_tail_bound"] <= 1e-8
        R = continued_R(w.betas)
        d = np.diag(pair.A).real
        tab = hb.gramian_table(w, pair, 2)
        for k in range(3):
            with mpmath.workdps(30):
                exact = np.array([[float(R(k, mpmath.mpf(x * y)))
                                   for y in d] for x in d])
            assert np.abs(tab[k] - exact).max() <= tab.tail_bounds[k] \
                + 1e-14 * np.abs(exact).max()

    def test_custom_scalar_gramian(self):
        # the custom beta_2 copy at 256 entries: R(0.81) = 1/(1 - 0.81)^2
        # up to a continuation below 1e-20
        w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 256).betas)
        G = hb.gramian_table(w, hb.OutputPair(A=[[0.9]], C=[[1.0]]), 0)[0]
        assert G[0, 0].real == pytest.approx(1 / (1 - 0.81) ** 2, rel=1e-14)


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


class TestZeroFirstTerm:
    """A series whose first term is 0 is the zero sum, with tail 0: every
    later term is 0 too."""

    def test_adaptive_sum(self, w_hardy):
        rows, steps = her._shifted_rows(w_hardy, [0, 1])
        A = np.array([[0.6]], dtype=complex)
        rec = series.adaptive_sum(np.zeros((1, 1), dtype=complex), A, rows,
                                  series.conjugation_rate(0.6), steps, 1e-10,
                                  "test", left=A.conj().T)
        assert rec.J == 0 and rec.K == 0.0 and rec.tails == [0.0, 0.0]
        assert not rec.terms.any() and rec.rows.shape == (2, 1)

    def test_custom_gramian_of_a_zero_output(self):
        tab = hb.gramian_table(hb.make_weight_custom([1.0, 0.5]),
                               hb.OutputPair(A=[[0.6]], C=[[0.0]]), 2)
        assert not tab.entries.any() and tab.trunc_order == 0
        assert tab.tail_bounds == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_map_of_zero_past_the_gate(self):
        # a Jordan block fails the spectral route's gate, so beta_2.5's map
        # takes the series
        got = hb.gamma_map(hb.make_weight_beta_alpha(2.5),
                           [[0.5, 1.0], [0.0, 0.5]], np.zeros((2, 2)))
        assert got.shape == (2, 2) and not got.any()


def test_short_table_nilpotent_gramian_is_exact():
    # past its 13 entries the custom table steps by its last ratio 13/12;
    # A^3 = 0 makes the sum finite, and it is summed to its zero term
    w = hb.make_weight_custom(hb.make_weight_beta_alpha(2.0, 12).betas)
    A = np.diag([1.0, 1.0], 1)
    C = np.array([[1.0, 0.5, 0.25]])
    tab = hb.gramian_table(w, hb.OutputPair(A=A, C=C), 0)
    assert tab.trunc_order == 3 and tab.tail_bounds == {0: 0.0}
    exact = sum(w.inv_betas[j] * (np.linalg.matrix_power(A, j).T @ C.T @ C
                                  @ np.linalg.matrix_power(A, j))
                for j in range(3))
    np.testing.assert_allclose(tab[0], exact, atol=1e-15)
    # a singular A whose terms never vanish: s rho(A)^2 = (13/12) 0.95^2
    # is 0.978 < 1, and the series sums to C* C R(0.95^2) on e_1, with
    # R continued at s; at rho = 0.97 the product is 1.019 and it diverges
    tab = hb.gramian_table(w, hb.OutputPair(A=np.diag([0.95, 0.0, 0.0]),
                                            C=C), 0)
    exact = C.T @ C
    with mpmath.workdps(30):
        exact[0, 0] = float(continued_R(w.betas)(0, mpmath.mpf(0.95) ** 2))
    assert np.abs(tab[0] - exact).max() <= tab.tail_bounds[0] <= 1e-10
    with pytest.raises(hb.DivergenceError, match=(
            r"^gramian_table: s rho\(A\)\^2 = 1.01931 >= 1 ")):
        hb.gramian_table(w, hb.OutputPair(A=np.diag([0.97, 0.0, 0.0]), C=C),
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
    rows, steps = her._shifted_rows(w, [0])
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
        rec = series.adaptive_sum(first, A, rows, q, steps, 1e-4, "test",
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
    """Each row's one-term bound, at cuts about the stored table's end and
    past it, covers the true remainder taken from a 64 times longer
    closed-form table."""
    N, K = 256, 6
    w, ref = _closed_form(alpha, N), _closed_form(alpha, 64 * N)
    ks = range(1, K + 1)
    cases = [(lambda n, v: hb.reciprocal_coeffs(v, n)[None], w.c_step),
             (lambda n, v: hb.quotient_rows(v, ks, n), w.c_step)]
    cases += [(lambda n, v, k=k: her._shifted_rows(v, [k])[0](n),
               lambda J, k=k: w.inv_step(k + J)) for k in (0, 1, K)]
    for q in (0.81, 0.99, 0.999):
        for row, step in cases:
            long = np.abs(row(64 * N, ref)) * q ** np.arange(64 * N + 1)
            for J in (N - 3, N, 4 * N):
                at = np.array([J])
                tails = series._tails(row(J, w)[:, J:], step(at), q, at)
                # the hardy bound is the exact geometric sum: allow rounding
                assert np.all(tails[:, 0] >= long[:, J + 1:].sum(axis=1)
                              * (1 - 1e-12))
    if alpha == 2.5:
        # the trailing-ratio extrapolation claimed 2.601e-7 here
        true = np.sum(np.abs(ref.c_coeffs[N + 1:])
                      * 0.999 ** np.arange(N + 1, 64 * N + 1))
        assert true == pytest.approx(2.733e-7, rel=1e-3)
        at = np.array([N])
        assert series._tails(w.c_coeffs[None, N:], w.c_step(at), 0.999,
                             at)[0, 0] >= true


def test_one_term_tail_is_infinite_or_zero_by_name():
    # a step times q of 1 or more bounds no tail, a zero entry under a
    # finite step has none, and an entry or a power that does not fit a
    # float (a custom row past its table far out, q^J underflowing) is
    # inf, never NaN, and raises no RuntimeWarning
    J = np.array([10, 20, 30, 40])
    entries = np.array([[1.0, 0.0, np.inf, 2.0]])
    tails = series._tails(entries, np.array([1.0, 1.0, 1.0, 1.1]), 0.95, J)
    assert tails[0, 1] == 0.0 and tails[0, 2] == tails[0, 3] == np.inf
    assert tails[0, 0] == pytest.approx(0.95 ** 10 * 0.95 / 0.05)
    assert series._tails(entries, 1.0, 1.0, J)[0].tolist() == [np.inf] * 4
    assert series._tails(np.array([[np.inf]]), 1.0, 0.5,
                         np.array([5000]))[0, 0] == np.inf


class TestUnderflow:
    """A term whose entries fall below about 1.5e-162 (where their squares
    underflow) does not end a series: only a term with every entry 0
    inside the certified span does."""

    A = np.diag([0.999, 1e-3])

    @pytest.mark.parametrize("small", [0.0, 1e-200])
    def test_vanishing_term_does_not_end_the_series(self, small):
        # the term A^{*27} X A^27 of X = diag(small, 1) has entries of
        # 1e-162 and below, so its computed norm is 0, and at small = 0 a
        # term is exactly 0 some 50 terms later, far past the certified
        # span m = 1; the series the maps take past the spectral route's
        # gate sums on past both to its cut, and gives the route's value
        w = hb.make_weight_beta_alpha(2.5, 2048)
        X = np.diag([small, 1.0])
        exact = np.diag((1 - np.diag(self.A) ** 2) ** 2.5 * [small, 1.0])
        np.testing.assert_allclose(hb.gamma_map(w, self.A, X), exact,
                                   rtol=1e-12, atol=0)
        got = her._hereditary_sums(w, off_route(self.A), X, np.arange(0),
                                   1e-10, "gamma_map", gamma=True)[0]
        assert np.abs(got - exact).max() <= 1e-10
        # the custom copy steps by its last ratio 2049.5/2048 past the
        # table, so its gramian's bound at the budget is still above tol,
        # at the rate halfway between rho(A)^2 and 1/s
        with pytest.raises(hb.ConvergenceError, match=(
                f"^gramian_table: tail bound .* at the term budget J = "
                f"{BUDGET}, at the decay rate q = 0.998635$")):
            hb.gramian_table(series_copy(w),
                             hb.OutputPair(A=self.A, C=np.sqrt(X)), 3)

    def test_cut_does_not_depend_on_underflow(self):
        # the terms of the second series fall below the squares' underflow,
        # those of the first do not: the cut, K and the bounds are the same
        w = hb.make_weight_beta_alpha(2.5, 2048)
        A = np.diag([0.999, 0.5]).astype(complex)
        rows = lambda n: hb.reciprocal_coeffs(w, n)[None]  # noqa: E731
        q = series.conjugation_rate(0.999)
        recs = [series.adaptive_sum(np.diag([small, 1.0]).astype(complex), A,
                                    rows, q, w.c_step, 1e-10, "gamma_map",
                                    left=A.conj().T)
                for small in (1e-140, 1e-155)]
        assert [(r.J, r.K, r.tails) for r in recs[:1]] \
            == [(r.J, r.K, r.tails) for r in recs[1:]]
        # the cut lies past the 2048-entry table
        assert 2048 < recs[0].J < BUDGET
