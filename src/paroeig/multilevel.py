"""Additive multilevel (BPX) preconditioner on the bisection hierarchy.

B approximates K^-1 on the finest mesh of an adaptive run:

    B = P_0 K_0^-1 P_0^T + sum_l P_l D_l^-1 P_l^T,

where P_l prolongs free dofs of level l to the finest mesh, K_0 is the
coarsest stiffness matrix (dense Cholesky factor), and D_l is diag(K_l)
restricted to the vertices that level l added and their edge neighbours
(Bramble-Pasciak-Xu 1990; local smoothing keeps it optimal on graded
bisection grids, Chen-Nochetto-Xu 2012). B is symmetric positive
definite, so it can precondition MINRES on the indefinite K - sigma*M.

The hierarchy follows the refinement: each refine() call appends the
midpoints of the edges it bisects, and P_l is built from the nodal
prolongation its RefineMap carries, the map mesh.interpolate applies.
Consecutive refinements are merged into one level until its vertex
count has doubled, which keeps the number of levels (Python calls per
application) logarithmic in the mesh size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv

# restart the hierarchy (exact coarse solve) while the mesh is this small
COARSE_DOFS = 400
# a level absorbs refinements until it has this many times the vertices
# of the level below it
MERGE_FACTOR = 2


@dataclass(frozen=True)
class _Level:
    n_vertices: int
    prolong: sp.csr_matrix     # free dofs of the level below -> this level
    restrict: sp.csc_matrix    # prolong.T, sharing its arrays
    scale: np.ndarray          # 1 / diag(K) on the smoothing set, else 0


def _local_scale(mesh, system, n_old):
    """1 / diag(K) on free dofs at vertices >= n_old or sharing an edge
    with one, 0 on every other free dof."""
    touched = np.zeros(mesh.n_vertices, dtype=bool)
    touched[n_old:] = True
    near = touched[mesh.edges].any(axis=1)
    touched[mesh.edges[near].ravel()] = True
    return np.where(touched[system.free_dofs], 1.0 / system.K.diagonal(),
                    0.0)


class MultilevelPreconditioner:
    """r -> B r for the finest mesh of a nested refinement sequence.

    Build it on the first mesh with its assembled FemSystem, then call
    extend() after every refine + assemble; extend returns a new
    preconditioner and leaves this one untouched.
    """

    def __init__(self, mesh, system):
        self._levels = ()
        self._free = system.free_dofs
        self._coarse_vertices = mesh.n_vertices
        if system.n_dofs <= COARSE_DOFS:
            # K = L L^T; store U = L^T, a Fortran-ordered view, for dtrsv
            self._coarse = np.linalg.cholesky(system.K.toarray()).T
        else:
            # a large first mesh gets Jacobi, never a dense factor
            self._coarse = 1.0 / system.K.diagonal()

    def extend(self, refine_map, mesh, system):
        """Preconditioner for the refined mesh (with its FemSystem)."""
        if system.n_dofs <= COARSE_DOFS:
            return MultilevelPreconditioner(mesh, system)
        step = refine_map.prolongation[system.free_dofs][:, self._free]
        sizes = [self._coarse_vertices] + [lv.n_vertices
                                           for lv in self._levels]
        levels = list(self._levels)
        if levels and sizes[-1] < MERGE_FACTOR * sizes[-2]:
            step = step @ levels.pop().prolong
            n_old = sizes[-2]
        else:
            n_old = sizes[-1]
        levels.append(_Level(mesh.n_vertices, step, step.T,
                             _local_scale(mesh, system, n_old)))
        out = copy.copy(self)
        out._levels = tuple(levels)
        out._free = system.free_dofs
        return out

    @property
    def n_levels(self):
        """Levels including the coarse one."""
        return 1 + len(self._levels)

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        local = []
        for lv in reversed(self._levels):
            local.append(lv.scale * r)
            r = lv.restrict @ r
        if self._coarse.ndim == 2:
            # K^-1 r = U^-1 U^-T r; BLAS dtrsv skips solve_triangular's
            # per-call checks, which cost more than the solve here
            x = dtrsv(self._coarse, dtrsv(self._coarse, r, trans=1))
        else:
            x = self._coarse * r
        for lv, z in zip(self._levels, reversed(local)):
            x = lv.prolong @ x
            x += z
        return x
