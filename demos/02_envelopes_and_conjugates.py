"""Moreau envelopes, their gradients, and Fenchel conjugation.

Run: python3 demos/02_envelopes_and_conjugates.py
"""

import numpy as np

import proxcalc as pc

ball = pc.IndicatorBall([0.0, 0.0], 1.0)

# The envelope of an indicator is the squared distance over 2 lam: at (3,4)
# the distance to the unit ball is 4, so the envelope value is 8.
print("envelope of the ball indicator at (3,4):", pc.moreau_envelope(ball, 1.0, [3, 4]))

# The envelope is differentiable even when the function is not, and its
# gradient comes straight from the prox map.
g = pc.envelope_gradient(ball, 1.0, [3, 4])
print("its gradient there:                     ", g)

# Compare with central finite differences of the envelope values.
h = 1e-5
fd = np.array([
    (pc.moreau_envelope(ball, 1.0, [3 + h, 4]) - pc.moreau_envelope(ball, 1.0, [3 - h, 4])) / (2 * h),
    (pc.moreau_envelope(ball, 1.0, [3, 4 + h]) - pc.moreau_envelope(ball, 1.0, [3, 4 - h])) / (2 * h),
])
print("finite differences say:                 ", fd)

# Conjugation has closed forms across the catalog: the conjugate of a norm
# is a ball indicator, indicators and supports swap, a quadratic inverts.
norm = pc.ScaledNorm(1.0, [0.0, 0.0])
print("\nconjugate of ||.||:", pc.conjugate_closed_form(norm))
print("conjugate of the ball indicator:", pc.conjugate_closed_form(ball))

# Moreau decomposition: prox_f + prox_{f*} is the identity.
x = np.array([3.0, 4.0])
p = pc.prox_closed_form(ball, 1.0, x)
q = pc.prox_closed_form(pc.conjugate_closed_form(ball), 1.0, x)
print("\nprox_f(x) + prox_f*(x):", p + q, " (x itself:", x, ")")
print("residual:", pc.moreau_decomposition_residual(ball, x))

# When no closed form exists, conjugation runs numerically on a grid: the
# discrete sup of <q, v> - f(v) over the lattice.
table = pc.tabulate(pc.Quadratic(np.eye(1)), pc.SampleGrid([-3.0], [3.0], [601]))
print("\ngrid conjugate of x^2/2 at q=1 (exact 0.5):", pc.numerical_conjugate(table, [1.0]))

# The conjugate of an envelope splits into the conjugate plus a quadratic:
# (f_lam)* = f* + (lam/2) ||.||^2. The checker tabulates nothing: it
# maximizes <q, v> - f_lam(v) over the grid's box by ascent steps built from
# the prox map itself, v <- prox_{t f}(v - lam q + t q) + lam q, and compares
# the result against that closed form. detail.certificate bounds what the
# ascent may still miss, provided the maximizer lies inside the box.
rep = pc.verify_envelope_conjugate(
    norm, 1.0,
    pc.SampleGrid([-5.0, -5.0], [5.0, 5.0], [2, 2]),
    np.array([[0.3, 0.1], [-0.5, 0.2], [0.7, -0.6]]),
)
print("\nenvelope-conjugate identity:", rep.status,
      " largest interior gap:", f"{rep.conclusion_residual:.2e}")
