"""The series engine: where a series is cut, what its tail bound covers, and
how a too-short weight table is reported."""

import numpy as np
import pytest

import hardybeta as hb
from hardybeta import hereditary as her

#: diagonal (normal) operator: ||A^j|| = rho^j, so the observed transient
#: constant is a true bound and the closed forms below are exact
DIAG = np.diag([0.9, -0.5 + 0.3j, 0.2j])


def _weight(kind):
    if kind == "hardy":
        return hb.make_weight_hardy(256), 1
    return hb.make_weight_beta_alpha(2.0, 256), 2  # R(x) = (1 - x)^-2


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


@pytest.mark.parametrize("kind", ["hardy", "beta2"])
class TestTailCoversRemainder:
    def test_resolvent(self, kind):
        w, power = _weight(kind)
        tol = 1e-2
        for z in (0.8, 0.6 - 0.5j, -0.7j):
            S, rec = her._resolvent_series(w, 0, DIAG, z, tol)
            exact = np.linalg.matrix_power(
                np.linalg.inv(np.eye(3) - z * DIAG), power)
            remainder = np.linalg.norm(exact - S)
            assert 1e-10 < remainder <= rec.tails[0] <= tol

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
