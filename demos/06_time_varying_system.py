"""The weighted time-varying linear system behind the transfer family.

A colligation family drives a discrete-time recursion whose input-output
map is block lower triangular; its Z-transform data are exactly the
transfer functions, and for weighted-isometric families the map preserves
energy between the input space and the weighted output sequence space.
"""

import numpy as np

import hardybeta as hb

rng = np.random.default_rng(3)
w = hb.make_weight_beta_alpha(2.0, 256)

n, p = 3, 2
A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
A *= 0.6 / hb.spectral_radius(A)
C = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
pair = hb.OutputPair(A=A, C=C)
family = hb.build_family(w, pair, k_max=24)

steps = 16
x0 = rng.standard_normal(n)
inputs = [rng.standard_normal(family.step(k).u) for k in range(steps)]

# Every system function reads the weight from the family (family.weight).
traj = hb.simulate(family, x0, inputs)
oracle = hb.closed_form_trajectory(family, x0, inputs)
print("recursion vs closed forms:",
      max(np.linalg.norm(a - b) for a, b in zip(traj.outputs, oracle.outputs)))

# The stacked input-output matrix reproduces the zero-state response.
io = hb.io_matrix(family, steps)
zero_state = hb.simulate(family, np.zeros(n), inputs)
print("io-matrix consistency:    ",
      np.linalg.norm(io.matrix @ hb.stack_inputs(inputs)
                     - np.concatenate(zero_state.outputs)))

# Output coefficients match the frequency-domain data coefficient by
# coefficient: observability series plus the shifted transfer functions.
print("z-transform residual:     ",
      hb.check_ztransform(family, x0, inputs, J=steps - 1))

# Energy identity of the input-output map (weighted output norm against
# plain input norm).  Past the horizon the input is zero, and the output
# energy there is beta_h^2 x(h)* G^(h) x(h) in closed form; the allowance is
# only that gramian's tail bound.
rep = hb.check_io_isometry(family, trials=5, horizon=24, seed=9)
print("energy identity:", rep.isometric, " defect", rep.worst_defect,
      " allowance", rep.allowance)
