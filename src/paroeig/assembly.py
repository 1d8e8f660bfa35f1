"""P1 finite-element assembly for -div(A grad u) + c u on triangle meshes.

The stiffness form carries both the diffusion and reaction terms; the mass
form is the plain L2 inner product and uses the exact analytic P1 element
mass matrix. Homogeneous Dirichlet conditions are imposed by eliminating
boundary vertices, which keeps both matrices symmetric positive definite
and leaves the generalized spectrum untouched.

Coefficient fields come in three representations:
  * a constant (2x2 array for diffusion, scalar for reaction),
  * a per-element table indexed by each triangle's ancestor in the
    initial mesh (piecewise-constant data survives refinement unchanged),
  * a callable (x, y) -> value, sampled at quadrature points.
Quadrature only ever touches the coefficients: P1 gradients are constant
per element, so the one rule (the three edge midpoints, exact for
quadratics) integrates the diffusion term exactly for data up to degree
two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import SparseSymMatrix
from .mesh import Mesh


class AssemblyError(ValueError):
    """Invalid coefficient data or mismatched dimensions."""


# edge-midpoint rule, exact for quadratics: barycentric points and
# weights; weights sum to 1 (scale by |T|)
_QUAD_RULE = (np.array([[0.5, 0.5, 0.0],
                        [0.0, 0.5, 0.5],
                        [0.5, 0.0, 0.5]]), np.full(3, 1 / 3))

_EXACT_MASS = np.array([[2.0, 1.0, 1.0],
                        [1.0, 2.0, 1.0],
                        [1.0, 1.0, 2.0]]) / 12.0

_MIN_EIG_BOUND = 1e-10


@dataclass(frozen=True)
class Coefficients:
    """Operator data: diffusion matrix field and reaction scalar field."""
    diffusion: object = None      # 2x2 array | (n0, 2, 2) table | callable
    reaction: object = None       # scalar | (n0,) table | callable

    @staticmethod
    def identity():
        """Pure Laplacian: diffusion = I, reaction = 0."""
        return Coefficients(np.eye(2), 0.0)

    @staticmethod
    def constant(diffusion, reaction=0.0):
        return Coefficients(np.asarray(diffusion, dtype=np.float64),
                            float(reaction))


def _classify_diffusion(coeffs):
    d = coeffs.diffusion
    if d is None:
        return "const", np.eye(2)
    if callable(d):
        return "callable", d
    arr = np.asarray(d, dtype=np.float64)
    if arr.shape == (2, 2):
        return "const", arr
    if arr.ndim == 3 and arr.shape[1:] == (2, 2):
        return "table", arr
    raise AssemblyError("diffusion must be a 2x2 array, an (n, 2, 2) "
                        "table, or a callable")


def _classify_reaction(coeffs):
    c = coeffs.reaction
    if c is None:
        return "const", 0.0
    if callable(c):
        return "callable", c
    arr = np.asarray(c, dtype=np.float64)
    if arr.ndim == 0:
        return "const", float(arr)
    if arr.ndim == 1:
        return "table", arr
    raise AssemblyError("reaction must be a scalar, an (n,) table, or a "
                        "callable")


def _check_spd_matrices(mats, elements):
    """mats: (..., 2, 2) stacked with matching element ids for messages."""
    a = mats[..., 0, 0]
    b = mats[..., 0, 1]
    bt = mats[..., 1, 0]
    d = mats[..., 1, 1]
    scale = np.maximum(1.0, np.abs(mats).max(axis=(-2, -1)))
    finite = np.isfinite(scale)                # max propagates NaN
    # non-finite entries are reported below, not warned about here
    with np.errstate(invalid="ignore"):
        asym = np.abs(b - bt) > 1e-12 * scale
        half = 0.5 * (a + d)
        eig_min = half - np.hypot(0.5 * (a - d), 0.5 * (b + bt))
    bad = ~finite | asym | (eig_min < _MIN_EIG_BOUND)
    if bad.any():
        t = int(np.asarray(elements)[np.nonzero(bad)[0][0]])
        raise AssemblyError(f"diffusion matrix is not finite, symmetric "
                            f"and positive definite on element {t}")


def _check_reaction_values(vals, elements):
    vals = np.asarray(vals)
    bad = ~np.isfinite(vals) | (vals < 0.0)
    if bad.any():
        t = int(np.asarray(elements)[np.nonzero(bad)[0][0]])
        raise AssemblyError(f"reaction coefficient is negative or not "
                            f"finite on element {t}")


def p1_gradients(mesh):
    """Constant P1 basis gradients, shape (nt, 3, 2), and areas (nt,)."""
    v = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    j11 = v[:, 1, 0] - v[:, 0, 0]
    j12 = v[:, 2, 0] - v[:, 0, 0]
    j21 = v[:, 1, 1] - v[:, 0, 1]
    j22 = v[:, 2, 1] - v[:, 0, 1]
    det = j11 * j22 - j12 * j21                # = 2 * area, positive
    inv_jt = np.empty((len(det), 2, 2))
    inv_jt[:, 0, 0] = j22 / det
    inv_jt[:, 0, 1] = -j21 / det
    inv_jt[:, 1, 0] = -j12 / det
    inv_jt[:, 1, 1] = j11 / det
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.einsum("tab,ib->tia", inv_jt, ref)
    return grads, 0.5 * det


def diffusion_per_element(mesh, coeffs):
    """Diffusion matrices sampled once per element (centroid for
    callables), shape (nt, 2, 2). Validated SPD."""
    mode, data = _classify_diffusion(coeffs)
    nt = mesh.n_triangles
    if mode == "const":
        mats = np.broadcast_to(data, (nt, 2, 2)).copy()
    elif mode == "table":
        if data.shape[0] <= mesh.ancestor.max(initial=-1):
            raise AssemblyError("diffusion table is shorter than the "
                                "ancestor index range")
        mats = data[mesh.ancestor]
    else:
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        mats = np.stack([np.asarray(data(x, y), dtype=np.float64)
                         for x, y in cent])
    _check_spd_matrices(mats, np.arange(nt))
    return mats


def reaction_per_element(mesh, coeffs):
    """Reaction values sampled once per element (centroid for callables)."""
    mode, data = _classify_reaction(coeffs)
    nt = mesh.n_triangles
    if mode == "const":
        vals = np.full(nt, data)
    elif mode == "table":
        if data.shape[0] <= mesh.ancestor.max(initial=-1):
            raise AssemblyError("reaction table is shorter than the "
                                "ancestor index range")
        vals = data[mesh.ancestor]
    else:
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        vals = np.array([float(data(x, y)) for x, y in cent])
    _check_reaction_values(vals, np.arange(nt))
    return vals


def _quad_points(mesh):
    """Physical quadrature points of every element, (nt, nq, 2)."""
    return np.einsum("qi,tid->tqd", _QUAD_RULE[0],
                     mesh.vertices[mesh.triangles])


def _reaction_at(fn, pts):
    """Callable reaction sampled at (nt, nq, 2) points, validated."""
    cvals = np.array([[float(fn(x, y)) for x, y in row]
                      for row in pts])                        # (nt, nq)
    _check_reaction_values(cvals.ravel(),
                           np.repeat(np.arange(len(pts)), pts.shape[1]))
    return cvals


def element_matrices(mesh, coeffs):
    """Per-element 3x3 stiffness (diffusion + reaction) and exact mass.

    Returns (ke, me), each shaped (nt, 3, 3). ke uses the quadrature rule
    for coefficient sampling only; me is the analytic P1 mass matrix.
    """
    bary, weights = _QUAD_RULE
    grads, areas = p1_gradients(mesh)
    nt = mesh.n_triangles
    d_mode, d_data = _classify_diffusion(coeffs)
    r_mode, r_data = _classify_reaction(coeffs)

    if d_mode == "callable":
        pts = _quad_points(mesh)
        mats = np.stack([
            np.stack([np.asarray(d_data(x, y), dtype=np.float64)
                      for x, y in row]) for row in pts])     # (nt, nq, 2, 2)
        _check_spd_matrices(
            mats.reshape(-1, 2, 2),
            np.repeat(np.arange(nt), len(weights)))
        a_eff = np.einsum("q,tqab->tab", weights, mats)
    else:
        a_eff = diffusion_per_element(mesh, coeffs)
    ke = np.einsum("tia,tab,tjb->tij", grads, a_eff, grads)
    ke *= areas[:, None, None]

    me = _EXACT_MASS[None, :, :] * areas[:, None, None]

    if r_mode == "callable":
        cvals = _reaction_at(r_data, _quad_points(mesh))
        re = np.einsum("q,tq,qi,qj->tij", weights, cvals, bary, bary)
        ke += re * areas[:, None, None]
    else:
        cvals = reaction_per_element(mesh, coeffs)
        ke += cvals[:, None, None] * me
    return ke, me


def _scatter(mesh, local):
    """Accumulate (nt, 3, 3) element matrices into a SparseSymMatrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    full = sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    full.sum_duplicates()
    return SparseSymMatrix(sp.tril(full, format="csr"))


def assemble_full(mesh, coeffs):
    """Assemble over ALL vertices, no boundary elimination.

    Returns (K_full, M_full) as SparseSymMatrix. Useful for kernel tests
    (constants must be in the null space of the pure diffusion part) and
    for norm computations that involve boundary vertices.
    """
    ke, me = element_matrices(mesh, coeffs)
    return _scatter(mesh, ke), _scatter(mesh, me)


@dataclass(frozen=True)
class FemSystem:
    """Assembled pencil restricted to interior (free) vertices."""
    K: SparseSymMatrix
    M: SparseSymMatrix
    free_dofs: np.ndarray
    n_dofs: int
    n_vertices: int

    def expand(self, u):
        """Pad a free-dof vector with zeros on Dirichlet vertices."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1] != self.n_dofs:
            raise AssemblyError(f"coefficient vector has length "
                                f"{u.shape[-1]}, expected {self.n_dofs}")
        full = np.zeros(u.shape[:-1] + (self.n_vertices,))
        full[..., self.free_dofs] = u
        return full

    def restrict(self, full):
        full = np.asarray(full, dtype=np.float64)
        if full.shape[-1] != self.n_vertices:
            raise AssemblyError(f"vertex vector has length "
                                f"{full.shape[-1]}, expected "
                                f"{self.n_vertices}")
        return full[..., self.free_dofs]


def assemble(mesh, coeffs):
    """Assemble the eliminated stiffness/mass pencil on a mesh."""
    k_full, m_full = assemble_full(mesh, coeffs)
    free = mesh.interior_vertices()
    k_csr = k_full.to_csr()[free][:, free]
    m_csr = m_full.to_csr()[free][:, free]
    return FemSystem(
        K=SparseSymMatrix(sp.tril(k_csr, format="csr")),
        M=SparseSymMatrix(sp.tril(m_csr, format="csr")),
        free_dofs=free,
        n_dofs=len(free),
        n_vertices=mesh.n_vertices,
    )


def energy_norm(sys, u):
    """sqrt(u . K u) over free dofs."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (sys.n_dofs,):
        raise AssemblyError(f"coefficient vector has length {u.shape}, "
                            f"expected ({sys.n_dofs},)")
    return float(np.sqrt(max(sys.K.quad_form(u), 0.0)))


def b_norm(sys, u):
    """sqrt(u . M u) over free dofs."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (sys.n_dofs,):
        raise AssemblyError(f"coefficient vector has length {u.shape}, "
                            f"expected ({sys.n_dofs},)")
    return float(np.sqrt(max(sys.M.quad_form(u), 0.0)))

