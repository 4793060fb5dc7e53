"""Observability gramians, Stein identities and the hereditary calculus.

For an output pair (C, A) with spectral radius below 1 the shifted
gramians G^(k) = sum_j A^{*j} C^* C A^j / beta_{j+k} are summed with a tail
bound.  They tie together three ways:

  * the weighted Stein identity   A* G^(k+1) A + C*C / beta_k = G^(k),
  * the hereditary map of G^(0) reproduces C*C,
  * the shifted hereditary maps of G^(0) reproduce every G^(k).
"""

import numpy as np

import hardybeta as hb

rng = np.random.default_rng(0)
w = hb.make_weight_beta_alpha(2.5, 384)

n, p = 5, 2
A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
A *= 0.85 / hb.spectral_radius(A)
C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
pair = hb.OutputPair(A=A, C=C)

table = hb.gramian_table(w, pair, k_max=8, tol=1e-11)
print("tail bounds:          ", max(table.tail_bounds.values()))

stein = max(hb.stein_residual(w, k, pair, table[k], table[k + 1])
            for k in range(8))
print("worst Stein residual: ", stein)

dual0 = np.linalg.norm(hb.gamma_map(w, A, table[0]) - C.conj().T @ C, 2)
dualk = max(np.linalg.norm(hb.gamma_k_map(w, k, A, table[0]) - table[k], 2)
            for k in range(1, 9))
print("duality residuals:    ", dual0, dualk)

# Classification: every flag is tolerance-qualified and reported with the
# residual that justified it.
Ac = A * (0.5 / np.linalg.norm(A, 2))
report = hb.classify(w, hb.OutputPair(A=Ac, C=C), k_max=30)
for name, flag in report.flags.items():
    print(f"  {name:22s} {flag}")
print("  residuals:", {k: float(f"{v:.3e}")
                       for k, v in report.residuals.items()})

# The decreasing sequence A^{*k} Gamma^(k)[H] A^k has a PSD limit; for a
# stable contraction and H = I the limit vanishes and the summation
# identity sum_j A^{*j} Gamma[H] A^j / beta_j = H - limit closes the loop.
delta = hb.delta_limit(w, Ac, np.eye(n), k_max=40)
print("limit norm:", np.linalg.norm(delta.delta, 2),
      " summation identity residual:", delta.sum_identity_residual)
