"""Reproducing kernels of invariant subspaces and inner function families.

An exactly observable pair (C, A) carries a coinvariant subspace (the range
of its observability map) inside the weighted Hardy space.  The
complementary shift-invariant subspace decomposes into wandering gaps
between consecutive shift images, each gap kernel factoring through one
transfer function of the colligation family.
"""

import numpy as np

import hardybeta as hb

rng = np.random.default_rng(1)
w = hb.make_weight_beta_alpha(2.0, 256)

n, p = 3, 2
A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
A *= 0.65 / hb.spectral_radius(A)
C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
pair = hb.OutputPair(A=A, C=C)
family = hb.build_family(w, pair, k_max=6)

z, zeta = 0.35 + 0.2j, -0.3 + 0.4j

# The space kernel splits into the invariant and coinvariant parts.
K_full = hb.space_kernel(w, z, zeta) * np.eye(p)
K_co = hb.kernel_coinvariant(w, pair, z, zeta)
K_in = hb.kernel_invariant(w, pair, z, zeta)
print("splitting residual:", np.linalg.norm(K_full - K_co - K_in, 2))

# Telescoping: the gap kernels sum back to the invariant kernel.
total = sum(hb.kernel_gap(w, k, pair, family.gramians, z, zeta)
            for k in range(6))
total += hb.kernel_shifted(w, 6, pair, family.gramians, z, zeta)
print("telescoping residual:", np.linalg.norm(total - K_in, 2))

# Each gap kernel factors through the step's transfer function.
for k in (0, 2):
    gap = hb.kernel_gap(w, k, pair, family.gramians, z, zeta)
    th_z = hb.transfer_eval(family, k, z)
    th_zt = hb.transfer_eval(family, k, zeta)
    fac = (z * np.conj(zeta)) ** k * (th_z @ th_zt.conj().T)
    print(f"gap factorization residual (k={k}):",
          np.linalg.norm(gap - fac, 2))

# The family is inner: shifted multiplication maps are isometric and
# mutually orthogonal, and the once-more-shifted image of step k lies in
# the shift image M_(k+1): P_k = sum_i A*^i C* Theta_(k,i) vanishes, with
# the gramian remainder past degree J as the allowance.  The family
# carries its weight, so the check takes no weight of its own.
report = hb.check_inner_family(family, k_max=6, J=110)
print("inner family verdict:", report.verdict)
print("  isometry      ", report.isometry_residual)
print("  orthogonality ", report.orthogonality_residual)
print("  containment   ", report.containment_residual,
      "allowance", report.containment_allowance)

# Pointwise-contractive functions are exactly the contractive multipliers
# of the weighted space; an expansion fails the block-kernel test.
blaschke = lambda z_: np.array([[(z_ - 0.5) / (1 - 0.5 * z_)]])
print("inner factor contractive:",
      hb.check_contractive_multiplier(w, blaschke, hb.default_grid()).contractive)
print("1.1 I contractive:",
      hb.check_contractive_multiplier(w, lambda z_: 1.1 * np.eye(2),
                                      hb.default_grid()).contractive)
