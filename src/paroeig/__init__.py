"""Adaptive P1 finite-element eigensolver using parallel orbital updating.

Subpackage map:
    mesh       conforming triangulations, newest-vertex bisection, transfer
    assembly   P1 stiffness/mass assembly with Dirichlet elimination
    linalg     MINRES on CSR operators, Gram matrices, LAPACK Ritz pencil
    multilevel local multigrid V-cycle preconditioner on the bisection grids
    paro       clustering, shifted orbital updates, Rayleigh-Ritz inner loop
    estimator  residual a posteriori indicators for an orbital block
    adapt      Dorfler marking and the outer adaptive loop
    verify     reference eigensolver, subspace distances, rate fitting
    cli        command-line front end (run / verify / spectrum)
"""

from . import (adapt, assembly, estimator, linalg, mesh, multilevel, paro,
               verify)

__all__ = ["adapt", "assembly", "estimator", "linalg", "mesh", "multilevel",
           "paro", "verify"]
__version__ = "0.1.0"
