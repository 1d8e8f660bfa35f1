"""Checks, pencils, meshes and mesh measures that only the tests read.

check_block validates an orbital block's post-Ritz invariants; pencil
builds a FemSystem from hand-written matrices; marks and rounds are the
hypothesis strategies that refined() turns into small bisected meshes;
the mesh functions evaluate P1 functions, measure shape regularity and
walk a refinement's children; square_eigenfunction, load_vector and
galerkin_projection_gap measure the unit square's analytic
eigenfunctions against the FE space.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from paroeig import mesh as pm
from paroeig.adapt import Level
from paroeig.assembly import FemSystem
from paroeig.linalg import gram
from paroeig.paro import ParoError
from paroeig.verify import VerifyError, _factor_k


def pencil(k, m):
    """FemSystem of the dense or sparse (n, n) matrices k and m, both
    stored on the union of their nonzero patterns, as FemSystem needs;
    free_dofs is arange(n), and dof i sits at the point (i, 0)."""
    k, m = (np.asarray(sp.csr_matrix(a).toarray(), dtype=np.float64)
            for a in (k, m))
    stored = (k != 0.0) | (m != 0.0)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    indices = np.nonzero(stored)[1]
    k_csr, m_csr = (sp.csr_matrix((a[stored], indices, indptr),
                                  shape=a.shape) for a in (k, m))
    n = len(k)
    return FemSystem(K=k_csr, M=m_csr, free_dofs=np.arange(n),
                     vertices=np.column_stack([np.arange(n), np.zeros(n)]))


def check_block(sys, block, tol=1e-8):
    """Validate the post-Ritz invariants; raises ParoError on violation.

    Returns the worst Gram deviation from identity (useful in tests).
    """
    g = gram(block.vectors, sys.M)
    dev = float(np.abs(g - np.eye(block.n)).max()) if block.n else 0.0
    if dev > tol:
        raise ParoError(f"block is not b-orthonormal (deviation {dev:.3e})")
    if np.any(np.diff(block.ritz_values) < 0):
        raise ParoError("ritz values are not ascending")
    for i, sl in enumerate(block.layout.cluster_slices()):
        lo = block.ritz_values[sl].min()
        hi = block.ritz_values[sl].max()
        pad = 1e-12 * max(1.0, abs(hi))
        if not (lo - pad <= block.shifts[i] <= hi + pad):
            raise ParoError(f"shift {i} outside its cluster interval")
    return dev


MESH8 = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 2)[0]

# marks that refine MESH8 up to three times: small meshes, many shapes
marks = st.lists(st.sampled_from(range(8)), max_size=12)
rounds = st.integers(0, 3)


def refined(marks, rounds):
    m = MESH8
    for _ in range(rounds):
        m, _ = pm.refine(m, [t % m.n_triangles for t in marks])
    return m


def grown(domain, passes, coeffs):
    """The Levels of the initial mesh and of each of passes uniform
    refinements, each grown from the one before as adaptive_solve grows
    its first Level, and the sparse nodal steps between them."""
    levels = [Level.first(pm.build_initial_mesh(domain), coeffs)]
    steps = []
    for _ in range(passes):
        level, step = levels[-1].refine(np.arange(levels[-1].mesh.n_triangles))
        levels.append(level)
        steps.append(step)
    return levels, steps


def p1_evaluate(mesh, u, points):
    """Evaluate the P1 function with vertex values u at each point, in
    the triangle where the point's smallest barycentric coordinate is
    largest (a containing one)."""
    p = mesh.vertices[mesh.triangles]                     # (nt, 3, 2)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    rel = points[:, None, :] - p[None, :, 0]              # (n, nt, 2)
    l12 = np.einsum("tij,ntj->nti", np.linalg.inv(jac), rel)
    lam = np.concatenate([1.0 - l12.sum(axis=2, keepdims=True), l12], 2)
    best = lam.min(axis=2).argmax(axis=1)
    rows = np.arange(len(points))
    assert np.all(lam[rows, best].min(axis=1) > -1e-12)
    return (lam[rows, best] * u[mesh.triangles[best]]).sum(axis=1)


def descendants(refine_map, tri_ids):
    """Fine triangle ids, ascending, that refine_map made from the given
    coarse ids."""
    offsets = refine_map.child_offsets
    parent = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return np.flatnonzero(np.isin(parent, tri_ids))


def inradii(mesh):
    areas = mesh.signed_areas()
    perim = mesh.edge_lengths[mesh.tri_edges].sum(axis=1)
    return 2.0 * areas / perim


def angles(mesh):
    """(nt, 3) interior angles at the three local vertices."""
    p = mesh.vertices[mesh.triangles]
    out = np.empty((mesh.n_triangles, 3))
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        cosv = np.einsum("ij,ij->i", u, v) / (
            np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
        out[:, i] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return out


def similarity_class_counts(mesh):
    """Distinct triangle shapes per initial ancestor.

    Shapes are compared by the sorted angle triple rounded to 1e-9
    radians. Returns a dict ancestor-id -> class count.
    """
    key = np.round(np.sort(angles(mesh), axis=1) / 1e-9).astype(np.int64)
    rows = np.column_stack([mesh.ancestor, key])
    rows = np.unique(rows, axis=0)
    anc, counts = np.unique(rows[:, 0], return_counts=True)
    return {int(a): int(c) for a, c in zip(anc, counts)}


# -- analytic-eigenfunction machinery (unit square) ------------------------

# degree-5 rule: centroid + two orbits of three points
_SQRT15 = np.sqrt(15.0)
_A1 = (6.0 - _SQRT15) / 21.0
_A2 = (6.0 + _SQRT15) / 21.0
_DEG5_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
     [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2]])
_DEG5_W = np.array([9 / 40,
                    (155.0 - _SQRT15) / 1200.0, (155.0 - _SQRT15) / 1200.0,
                    (155.0 - _SQRT15) / 1200.0,
                    (155.0 + _SQRT15) / 1200.0, (155.0 + _SQRT15) / 1200.0,
                    (155.0 + _SQRT15) / 1200.0])


def square_eigenfunction(m, n):
    """b-normalized Dirichlet eigenfunction 2 sin(m pi x) sin(n pi y)."""
    def u(x, y):
        return 2.0 * np.sin(m * np.pi * x) * np.sin(n * np.pi * y)
    return u


def load_vector(mesh, func):
    """(func, phi_i) for all vertex hats, degree-5 quadrature."""
    pts = np.einsum("qi,tid->tqd", _DEG5_BARY,
                    mesh.vertices[mesh.triangles])
    vals = func(pts[..., 0], pts[..., 1])               # (nt, nq)
    areas = mesh.signed_areas()
    contrib = np.einsum("q,tq,qi->ti", _DEG5_W, vals, _DEG5_BARY)
    contrib *= areas[:, None]
    rhs = np.zeros(mesh.n_vertices)
    np.add.at(rhs, mesh.triangles, contrib)
    return rhs


def galerkin_projection_gap(mesh, sys, modes):
    """dist_a^2 between an analytic eigenspace and the FE space.

    modes: list of (m, n, lam) with a common eigenvalue lam. Computes the
    a-orthogonal (Galerkin) projection P u of each b-normalized analytic
    eigenfunction via one sparse solve, then the worst-direction value
    max eig( I - G/lam ) with G[i][j] = a(P u_i, P u_j); for the
    Laplacian a(u, phi) = lam (u, phi), so the load vector only needs
    the degree-5 mass quadrature.
    """
    lu = _factor_k(sys)
    lam = modes[0][2]
    proj = []
    for m, n, lam_i in modes:
        if abs(lam_i - lam) > 1e-9 * lam:
            raise VerifyError("modes must share one eigenvalue")
        rhs_full = lam * load_vector(mesh, square_eigenfunction(m, n))
        p = lu.solve(rhs_full[sys.free_dofs])
        proj.append(p)
    proj = np.vstack(proj)
    g = gram(proj, sys.K)
    resid = np.eye(len(modes)) - g / lam
    return float(max(np.linalg.eigvalsh(resid).max(), 0.0))
