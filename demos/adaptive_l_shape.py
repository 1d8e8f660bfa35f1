"""
Adaptive refinement around the L-shape corner singularity
=========================================================

The lowest eigenfunction of the L-shaped domain has a gradient
singularity at the re-entrant corner. Residual indicators plus Dorfler
marking concentrate elements there, and the eigenvalue error falls at
close to the optimal -1 rate in dofs instead of the polluted uniform
rate. The run also shows the estimator-matched inner stop, which cuts
orbital sweeps on the early meshes where solving tightly is wasted.
"""

from dataclasses import replace

import numpy as np

from paroeig.adapt import AdaptConfig, adaptive_solve
from paroeig.assembly import Coefficients
from paroeig.verify import fit_rate

laplace = Coefficients.identity()

config = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=16,
                     initial_passes=2, tol2=1e-10, max_inner=40)
records, block, final_mesh = adaptive_solve("l_shape", laplace, 1, config)

print(f"{'level':>5} {'dofs':>6} {'eigenvalue':>13} {'estimator^2':>12} "
      f"{'sweeps':>6}")
for r in records:
    print(f"{r.n:5d} {r.n_dofs:6d} {r.ritz_values[0]:13.7f} "
          f"{r.global_estimator_sq:12.3e} {r.m_used:6d}")

# where did the elements go? count triangles near the corner at (0, 0)
centers = final_mesh.vertices[final_mesh.triangles].mean(axis=1)
near = float((np.linalg.norm(centers, axis=1) <= 0.25).mean())
print(f"\nfinal mesh: {final_mesh.n_triangles} triangles, "
      f"{100 * near:.1f}% within distance 0.25 of the corner")

# the eigenvalue error tracks the squared estimator, so a slope near
# -1.0 in dofs is the optimal P1 rate
tail = [r for r in records if r.n_dofs >= 30]
slope, r_sq = fit_rate([r.n_dofs for r in tail],
                       [r.global_estimator_sq for r in tail])
print(f"estimator^2 slope vs dofs: {slope:.3f} (R^2 {r_sq:.3f}); "
      f"optimal is -1.0")

# same run with the inner stop tied to the current estimator level:
# early meshes get solved just accurately enough
saving = replace(config, budget_factor=0.1)
records_b, block_b, _ = adaptive_solve("l_shape", laplace, 1, saving)
before = sum(r.m_used for r in records)
after = sum(r.m_used for r in records_b)
drift = abs(block_b.ritz_values[0] - block.ritz_values[0])
print(f"\nestimator-matched stop: {after} total sweeps vs {before}, "
      f"final eigenvalue drift {drift:.2e}")
