"""
Second-order eigenvalue convergence on uniformly refined squares
================================================================

Solve for the lowest Dirichlet-Laplacian eigenvalue of the unit square
on a sequence of uniform meshes and watch the error shrink by 4 per
mesh halving. The closed-form value is 2*pi^2.
"""

import numpy as np

from paroeig.assembly import Coefficients, assemble
from paroeig.mesh import build_initial_mesh, uniform_refine
from paroeig.paro import initial_block, paro_inner_loop
from paroeig.verify import fit_rate, reference_eig

exact = 2.0 * np.pi ** 2
print(f"closed-form lowest eigenvalue: {exact:.10f}")
print(f"{'h':>8} {'dofs':>6} {'eigenvalue':>14} {'error':>12} {'ratio':>7}")

errors = []
sizes = []
previous = None
for passes in (4, 6, 8, 10):
    grid, _ = uniform_refine(build_initial_mesh("unit_square"), passes)
    system = assemble(grid, Coefficients.identity())

    # start from the discrete ground state of a cheap reference solve,
    # then run the orbital-update loop to tol2 = 1e-10
    start = reference_eig(system, 1).vectors
    block = initial_block(system, start)
    block, sweeps, _ = paro_inner_loop(system, block, tol2=1e-10,
                                       max_inner=40)

    value = float(block.ritz_values[0])
    err = value - exact
    ratio = "" if previous is None else f"{previous / err:7.3f}"
    print(f"{grid.h_max:8.4f} {system.n_dofs:6d} {value:14.8f} "
          f"{err:12.3e} {ratio}")
    errors.append(err)
    sizes.append(system.n_dofs)
    previous = err

# error ~ C * dofs^slope; second order in h means slope -1 in dofs
slope, r_sq = fit_rate(sizes, errors)
print(f"\nlog-log slope vs dofs: {slope:.3f} (R^2 {r_sq:.4f}); "
      f"-1.0 is the second-order rate")
