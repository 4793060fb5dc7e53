"""Weight sequences and their reciprocal coefficient tables.

A weighted Hardy space is determined by a positive non-increasing weight
sequence starting at 1.  Everything downstream is driven by two scalar
tables: the reciprocals 1/beta_j (Taylor coefficients of the generating
function R) and the coefficients c_j of 1/R.
"""

import numpy as np

import hardybeta as hb

# Three stock families: the constant weight (classical Hardy space) and the
# factorial-ratio families with parameter alpha.
hardy = hb.make_weight_hardy(64)
beta2 = hb.make_weight_beta_alpha(2.0, 64)
beta25 = hb.make_weight_beta_alpha(2.5, 64)

print("alpha = 2 weights:      ", np.round(beta2.betas[:6], 4))
print("ratio bound M:          ", beta2.ratio_bound)

# For integer alpha = n the reciprocal series is the polynomial (1 - z)^n.
print("c for constant weight:  ", hardy.c_coeffs[:5])
print("c for alpha = 2:        ", beta2.c_coeffs[:5])
print("c for alpha = 2.5:      ", np.round(beta25.c_coeffs[:5], 4))

# c is the reciprocal series of R, so the convolution of the two tables is
# a delta.
conv = [np.dot(beta25.c_coeffs[:m + 1], beta25.inv_betas[:m + 1][::-1])
        for m in range(8)]
print("conv(c, 1/beta):        ", np.round(conv, 14))

# Summability of c is what makes the hereditary calculus converge.  For the
# closed-form families the report is exact: past alpha the c_j share one
# sign and sum to (1 - 1)^alpha = 0, so the tail is known in closed form.
print("alpha = 2.5 summability:", beta25.wiener)

# A weight whose generating function vanishes inside the disk has
# geometrically growing reciprocal coefficients; the verdict flags it and
# the hereditary maps refuse to run.
adversarial = hb.make_weight_custom([1.0, 1.0] + [0.25] * 60)
print("adversarial verdict:    ", adversarial.wiener.verdict)

# Shifted tables: coefficients of the k-shifted generating function, and
# the quotient-series coefficients that define the shifted hereditary maps.
print("shifted table (k=1):    ", hb.shifted_resolvent_coeffs(beta2, 1, 4))
print("quotient table (k=1):   ", hb.quotient_rows(beta2, [1], 4)[0])
