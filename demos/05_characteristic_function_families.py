"""Characteristic function families determine operators up to unitaries.

A matrix T whose adjoint is a strongly stable hypercontraction for the
weight has a defect operator D = Gamma[I]^(1/2); the pair (D, T*) has
identity gramian and its colligation family is the characteristic family
of T.  Two operators are unitarily equivalent exactly when their families
coincide up to constant unitaries, and the family reconstructs the
coinvariant-subspace kernel of the model space.
"""

import numpy as np

import hardybeta as hb
from hardybeta.model import defect_form_family

rng = np.random.default_rng(2)
w = hb.make_weight_beta_alpha(3.0, 256)

n = 3
G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
T = G * (0.4 / np.linalg.norm(G, 2))

char = hb.characteristic_family(w, T, k_max=12)
print("defect operator spectrum:",
      np.round(np.linalg.eigvalsh(char.defect), 4))
print("gramian identity residual:", char.gramian_identity_residual)

# Conjugating T by a unitary produces a coinciding family; shrinking it
# does not.
Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))
other = hb.characteristic_family(w, Q @ T @ Q.conj().T, k_max=12)
res = hb.check_coincidence(char, other)
print("conjugated family coincides:", res.coincide, " residual", res.residual)
strange = hb.characteristic_family(w, 0.5 * T, k_max=12)
print("shrunk family coincides:    ",
      hb.check_coincidence(char, strange).coincide)

# An independent construction of the same family: work in gramian-weighted
# square-root coordinates and complete the isometric column by its defects.
alt = defect_form_family(w, T, k_max=12)
print("defect-form route coincides:",
      hb.check_coincidence(char.family, alt).coincide)

# Round trip: the kernel sum over the family, plus the kernel of the shift
# image past its last step, reproduces the kernel of the model subspace
# exactly (the wandering-subspace decomposition), so no allowance enters.
# It reads the weight from the characteristic family (char.weight).
trip = hb.model_roundtrip_residual(char)
print("round-trip residual:", trip.residual)

# The functional-model colligation checks: the three block identities of
# the weighted isometry, plus the input operator recovered from Taylor
# data alone.
rep = hb.functional_model_colligation(char.family, k=2, J=110)
print("functional-model blocks:", rep.check_state, rep.check_cross,
      rep.check_input)
print("input operator alignment:", rep.alignment_residual,
      " allowance:", rep.alignment_allowance)
