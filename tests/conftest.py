import numpy as np
import pytest

import hardybeta as hb
from hardybeta.weights import WeightSequence

TRUNC = 256


@pytest.fixture(scope="session")
def w_hardy():
    return hb.make_weight_hardy(TRUNC)


@pytest.fixture(scope="session")
def w_beta2():
    return hb.make_weight_beta_alpha(2.0, TRUNC)


@pytest.fixture(scope="session")
def w_beta3():
    return hb.make_weight_beta_alpha(3.0, TRUNC)


@pytest.fixture(scope="session")
def w_beta25():
    return hb.make_weight_beta_alpha(2.5, TRUNC)


@pytest.fixture(scope="session")
def all_weights(w_hardy, w_beta2, w_beta3, w_beta25):
    return [w_hardy, w_beta2, w_beta3, w_beta25]


def series_copy(w):
    """The same table as a custom weight, which sums the series (hardy and
    integer alpha are closed form).  ``make_weight_custom`` tags an
    all-ones table hardy, so the hardy copy is built directly."""
    if w.kind == "hardy":
        return WeightSequence(w.betas, w.ratio_bound, "custom", w.c_coeffs)
    return hb.make_weight_custom(w.betas)


def cmat(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def stable_pair(rng, n, p, rho=0.7):
    A = cmat(rng, n, n)
    A *= rho / hb.spectral_radius(A)
    return hb.OutputPair(A=A, C=cmat(rng, p, n))


def hypercontraction_T(w, rng, n, norm=0.4):
    for _ in range(40):
        G = cmat(rng, n, n)
        T = G * (norm / np.linalg.norm(G, 2))
        rep = hb.classify(w, hb.OutputPair(A=T.conj().T, C=np.eye(n)),
                          k_max=24, tol=1e-9)
        if rep.hypercontraction and rep.strongly_stable_beta:
            return T
    raise RuntimeError("no hypercontraction found")
