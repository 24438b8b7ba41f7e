"""Rebuilding a convex function from nothing but its prox map.

The prox map of a proper convex l.s.c. function pins the function down up
to an additive constant. This demo recovers f(x) = |x| and a shifted
parabola from black-box prox oracles.

Run: python3 demos/03_rebuild_from_prox.py
"""

import numpy as np

import proxcalc as pc

# --- the oracle -------------------------------------------------------------
# Pretend we only know this function through its prox map.
secret = pc.ScaledNorm(1.0, [0.0])
oracle = pc.ProxOracle.from_function(secret)

# The pipeline integrates the field G(x) = prox(x + x0) - x0 (the gradient
# of a smoothed dual potential), pins the constant through inf u = -f(x0),
# and conjugates back on a grid.
task = pc.ReconstructionTask(
    oracle=oracle,
    x0=[0.0],
    tilde_grid=pc.SampleGrid([-10.0], [10.0], [2001]),
    query_points=[[-2.0], [-0.5], [0.0], [1.0], [2.5]],
    f_at_x0=0.0,   # knowing f at the anchor makes the output absolute
)
report = pc.reconstruct(task)

print("field checks: monotone residual", f"{report.monotonicity_residual:.1e}",
      " symmetry", f"{report.gradient_symmetry_residual:.1e}",
      " lattice path gap", f"{report.details['lattice_path_gap']:.1e}")
print("convention:", report.convention)
print("\n   q      recovered   truth")
for (q, v) in report.recovered:
    print(f"{q[0]:+6.2f}   {v:9.5f}   {abs(q[0]):7.5f}")
print("oracle calls:", report.details["oracle_calls"])

# --- without the anchor value ----------------------------------------------
# Dropping f_at_x0 yields the function up to an unknown constant; the
# differences between recovered values are still exact.
secret2 = pc.Translate(pc.Quadratic(np.eye(1)), [-1.0])  # (x-1)^2 / 2
task2 = pc.ReconstructionTask(
    oracle=pc.ProxOracle.from_function(secret2),
    x0=[0.0],
    tilde_grid=pc.SampleGrid([-10.0], [10.0], [2001]),
    query_points=[[0.0], [1.0], [2.0], [3.0]],
)
rep2 = pc.reconstruct(task2)
print("\nshifted parabola,", rep2.convention)
base = rep2.recovered[0][1]
for (q, v) in rep2.recovered:
    truth = pc.evaluate(secret2, q) - pc.evaluate(secret2, [0.0])
    print(f"q={q[0]:.0f}: recovered difference {v - base:8.5f}   truth {truth:8.5f}")

# --- an oracle that is only a table ------------------------------------------
# Reconstruction also works from sampled (input, output) prox pairs, the
# format the command line accepts as CSV.
xs = np.linspace(-12, 12, 2001).reshape(-1, 1)
ys = secret.prox_many(1.0, xs)
table_oracle = pc.ProxOracle.from_table(xs, ys)
rep3 = pc.reconstruct(pc.ReconstructionTask(
    oracle=table_oracle, x0=[0.0],
    tilde_grid=pc.SampleGrid([-10.0], [10.0], [1001]),
    query_points=[[1.5]], f_at_x0=0.0,
))
print("\nfrom a sampled prox table: f(1.5) ~", round(rep3.recovered[0][1], 5))
