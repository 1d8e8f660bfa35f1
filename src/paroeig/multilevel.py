"""Local multigrid V-cycle preconditioner on the bisection hierarchy.

B(sigma) approximates |K - sigma*M|^-1 on the finest mesh of an
adaptive run by one symmetric V-cycle, written as the recursion

    B_l = Rbar_l + Pt_l B_(l-1) Pt_l^T,  Pt_l = (I - R_l K_l) P_l,
    Rbar_l = 2 R_l - R_l K_l R_l,

where P_l prolongs the free dofs of level l-1 to those of level l, K_l
is the stiffness matrix assembled on level l's mesh, and the coarse
solve B_0(sigma) = |K_0 - sigma*M_0|^-1 is exact on the shifted pencil
(Vecharynski-Knyazev 2013, absolute value preconditioning). The coarse
level stores the eigendecomposition K_0 V = M_0 V Lambda, V^T M_0 V = I,
and applies

    B_0(sigma) = V diag(1 / max(|Lambda - sigma|, GAP_FLOOR |sigma|)) V^T,

so B_0(0) = K_0^-1 and the floor keeps B_0 finite when sigma hits a
coarse eigenvalue. The dense eigendecomposition costs O(n_0^3): the
first mesh may have at most COARSE_DOFS free dofs, and extend() starts
a fresh coarse level only on a refined mesh of at most RESTART_DOFS.
R_l is the l1-Jacobi smoother OMEGA D^-1
(Baker-Falgout-Kolev-Yang 2011) on the vertices level l added and their
edge neighbours, the set S, with D_ii = sum_(j in S) |K_ij|, and zero
off S: one smoothing step before and one after each coarse correction,
local as Chen-Nochetto-Xu (2012) need for uniform optimality on graded
bisection grids. Since lambda_max(D^-1 K_SS) <= 1 < 2 / OMEGA for any
SPD K, and B_0(sigma) is SPD, B(sigma) is symmetric positive definite,
so it can precondition MINRES on the indefinite K - sigma*M. Only the
coarse solve sees sigma: below sigma, the coarse modes that an unshifted
B leaves as negative outliers of B(K - sigma*M) come out near -1. So
the rows of a block MINRES call, each with its own shift, share one
V-cycle: every level applies to the (n, a) block of residuals at once,
and the coarse solve scales column i by its own row's diagonal. That
block callable, shifted(shifts), is the only way to apply B.

The hierarchy follows the refinement: each refine() call appends the
midpoints of the edges it bisects, and P_l is built from the nodal
prolongation its RefineMap carries, restricted to the free dofs of both
meshes; adapt.Level.refine forms it once, for extend() and the orbitals.
Consecutive refinements are merged into one level until its vertex
count has doubled, which keeps the number of levels (Python calls per
application) logarithmic in the mesh size.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from ._checks import instance, matrix
from .assembly import FemSystem
from .linalg import LinAlgError
from .mesh import Mesh

# the most free dofs the first mesh, the coarse level of its whole
# hierarchy, may have
COARSE_DOFS = 400
# extend() restarts the hierarchy on a new exact coarse level while the
# refined mesh has at most this many free dofs. Any fixed size keeps
# Chen-Nochetto-Xu's uniform bound, so it is set by timing graded runs:
# a larger one pays a dense eigh on more levels and a larger coarse
# apply in every V-cycle, a smaller one more MINRES iterations
RESTART_DOFS = 100
# damping of the l1-Jacobi smoother; B stays SPD for any value below 2
OMEGA = 1.6
# the coarse solve floors each |lambda - sigma| at this fraction of
# |sigma|, so B stays finite when sigma is a coarse eigenvalue
GAP_FLOOR = 1e-2
# a level absorbs refinements until it has this many times the vertices
# of the level below it
MERGE_FACTOR = 2


@dataclass(frozen=True, eq=False)
class _Level:
    n_vertices: int
    step: sp.csr_matrix        # nodal P: free dofs of the level below
    prolong: sp.csr_matrix     # (I - R K) P
    restrict: sp.csc_matrix    # prolong.T, sharing its arrays
    smoother: sp.csr_matrix    # 2R - R K R, zero outside the smoothing set


def _smoothing_set(mesh, system, n_old):
    """Ascending indices of the free dofs at vertices >= n_old or sharing
    an edge with one."""
    touched = np.zeros(mesh.n_vertices, dtype=bool)
    touched[n_old:] = True
    near = touched[mesh.edges].any(axis=1)
    touched[mesh.edges[near].ravel()] = True
    return np.flatnonzero(touched[system.free_dofs])


def _level(n_vertices, step, K, S):
    """The level for nodal step P and stiffness K, smoothing on the free
    dofs S."""
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    r = np.zeros(K.shape[0])
    r[S] = 1.0
    in_kss = r[rows] * r[K.indices]         # 1 on the entries of K_SS
    r[S] = OMEGA / np.bincount(rows, in_kss * np.abs(K.data))[S]
    # R K and 2R - R K R on K's pattern; eliminate_zeros drops the rows
    # outside S, and for the smoother the columns outside S too
    rk = K.copy()
    rk.data *= r[rows]
    rk.eliminate_zeros()
    smoother = K.copy()
    smoother.data = r[rows] * (2.0 * (rows == K.indices)
                               - K.data * r[K.indices])
    smoother.eliminate_zeros()
    prolong = step - rk @ step
    return _Level(n_vertices, step, prolong, prolong.T, smoother)


def _coarse_modes(system):
    """(Lambda, V) with K V = M V diag(Lambda), V^T M V = I and Lambda > 0."""
    try:
        lam, vecs = scipy.linalg.eigh(system.K.toarray(),
                                      system.M.toarray())
    except np.linalg.LinAlgError as exc:
        raise LinAlgError(f"coarse mass matrix ({system.n_dofs} dofs) is "
                          f"not positive definite") from exc
    if lam.size and not lam[0] > 0.0:
        raise LinAlgError(f"coarse stiffness matrix ({system.n_dofs} dofs) "
                          f"is not positive definite (eigenvalue "
                          f"{lam[0]:.3e})")
    return lam, vecs


def _v_cycle(levels, vecs, scale, r, rows):
    """B r for an (n, a) block r: the levels (coarsest first) above the
    coarse solve V diag(scale[:, rows[i]]) V^T of column i."""
    local = []
    for lv in reversed(levels):
        local.append(lv.smoother @ r)
        r = lv.restrict @ r
    x = vecs @ (scale[:, rows] * (vecs.T @ r))
    for lv, z in zip(levels, reversed(local)):
        x = lv.prolong @ x
        x += z
    return x


class MultilevelPreconditioner:
    """B(sigma) for the finest mesh of a nested refinement sequence.

    Build it on the first mesh with its assembled FemSystem, then call
    extend() after every refine + assemble; extend returns a new
    preconditioner and leaves this one untouched. shifted(shifts) gives
    the block callable of a MINRES call, one shift per row; B(0), which
    approximates K^-1, is shifted(np.zeros(k)).
    """

    def __init__(self, mesh, system):
        instance(mesh, Mesh, "mesh", LinAlgError)
        instance(system, FemSystem, "system", LinAlgError)
        if system.n_dofs > COARSE_DOFS:
            raise LinAlgError(f"first mesh has {system.n_dofs} free dofs, "
                              f"over COARSE_DOFS = {COARSE_DOFS}; start from "
                              f"a coarser mesh and raise initial_passes")
        self._levels = ()
        self._coarse_vertices = mesh.n_vertices
        self._coarse = _coarse_modes(system)

    def extend(self, prolong, mesh, system):
        """Preconditioner for the refined mesh (with its FemSystem);
        prolong maps the free dofs of the previous mesh to those of
        mesh: the refinement's nodal prolongation restricted to both."""
        instance(mesh, Mesh, "mesh", LinAlgError)
        instance(system, FemSystem, "system", LinAlgError)
        finest = (self._levels[-1].step if self._levels
                  else self._coarse[1]).shape[0]
        matrix(prolong, (system.n_dofs, finest), "prolong", LinAlgError)
        if system.n_dofs <= RESTART_DOFS:
            return MultilevelPreconditioner(mesh, system)
        sizes = [self._coarse_vertices] + [lv.n_vertices
                                           for lv in self._levels]
        levels = list(self._levels)
        if levels and sizes[-1] < MERGE_FACTOR * sizes[-2]:
            # sorted as a refinement's own prolongation is, so the level
            # applies in one summation order whatever it merged
            step = (prolong @ levels.pop().step).sorted_indices()
            n_old = sizes[-2]
        else:
            step, n_old = prolong, sizes[-1]
        levels.append(_level(mesh.n_vertices, step, system.K,
                             _smoothing_set(mesh, system, n_old)))
        out = copy.copy(self)
        out._levels = tuple(levels)
        return out

    @property
    def n_levels(self):
        """Levels including the coarse one."""
        return 1 + len(self._levels)

    def shifted(self, shifts):
        """B(sigma), one shift per row of a block MINRES call.

        shifts is the 1-D array of the k rows' shifts; build it once per
        MINRES call. Returns the callable (R, rows) -> Y for an (n, a)
        block R: column i of Y is B(shifts[rows[i]]) R[:, i], all a
        columns through one V-cycle. Raises LinAlgError for shifts that
        are not a 1-D array.
        """
        sigma = np.asarray(shifts, dtype=np.float64)
        if sigma.ndim != 1:
            raise LinAlgError(f"shifts must be a 1-D array, one per row, "
                              f"got shape {sigma.shape}")
        lam, vecs = self._coarse
        scale = 1.0 / np.maximum(np.abs(lam[:, None] - sigma),
                                 GAP_FLOOR * np.abs(sigma))  # (n0, k)
        return functools.partial(_v_cycle, self._levels, vecs, scale)
