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
  * a callable f(x, y) of two equal-length float64 point arrays that
    returns one value per point, (n,) for the reaction and (n, 2, 2)
    for the diffusion, sampled at quadrature points. It must be a pure
    function of (x, y): refinement samples only the new triangles.
Every value must be real numbers. A callable whose values have another
shape, or that raises TypeError or ValueError on arrays (a scalar-style
`if x > 0.5`), raises AssemblyError.
Quadrature only ever touches the coefficients: P1 gradients are constant
per element, so the one rule (the three edge midpoints, exact for
quadratics) integrates the diffusion term exactly for data up to degree
two. The per-triangle kernels are written out entry by entry: the
gradients straight from the inverse Jacobian, and the stiffness sum
over the diffusion's entries in einsum's order, so they round as the
einsum formulation does.

The global matrices are summed straight onto one CSR pattern built from
the mesh's edge table: the diagonal and both entries of every edge
between free vertices, which scipy converts from coordinate form once
per mesh. Each edge's value is the sum of its two
triangles' entries below the diagonal, mirrored above it, so the
matrices are symmetric by construction. M keeps the whole pattern, and
so does every shifted K - sigma*M (FemSystem.shifted); K drops its
exact zeros.

Everything per triangle that assembly and the estimator read (gradients,
areas, diameters, coefficient samples, the finite-difference divergence
of callable diffusion) lives in one
ElementData per mesh. Each sample is taken and validated once: the
adaptive loop builds it on the first mesh and extends it after every
refinement, copying the rows of triangles the refinement kept and
sampling only the new children. Called without one, `assemble` and
`estimator.estimate` build it themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import real_array
from .mesh import MeshError


class AssemblyError(ValueError):
    """Invalid coefficient data or mismatched dimensions."""


# edge-midpoint rule, exact for quadratics: barycentric points and
# weights; weights sum to 1 (scale by |T|)
_QUAD_RULE = (np.array([[0.5, 0.5, 0.0],
                        [0.0, 0.5, 0.5],
                        [0.5, 0.0, 0.5]]), np.full(3, 1 / 3))
# quadrature point q is the midpoint of local edge _QUAD_EDGE[q] (local
# edge i is opposite local vertex i)
_QUAD_EDGE = (2, 0, 1)

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
        reaction = real_array(reaction, "reaction", AssemblyError)
        if reaction.ndim:
            raise AssemblyError("a constant reaction is a scalar")
        return Coefficients(real_array(diffusion, "diffusion", AssemblyError,
                                       copy=True), float(reaction))


def _classify_diffusion(coeffs):
    d = coeffs.diffusion
    if d is None:
        return "const", np.eye(2)
    if callable(d):
        return "callable", d
    arr = real_array(d, "diffusion", AssemblyError)
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
    arr = real_array(c, "reaction", AssemblyError)
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


def p1_gradients(mesh, tri_ids=None):
    """Constant P1 basis gradients, shape (nt, 3, 2), and areas (nt,),
    of every triangle or of the given ones."""
    tri = mesh.triangles if tri_ids is None else mesh.triangles[tri_ids]
    v = mesh.vertices[tri]                     # (nt, 3, 2)
    j11 = v[:, 1, 0] - v[:, 0, 0]
    j12 = v[:, 2, 0] - v[:, 0, 0]
    j21 = v[:, 1, 1] - v[:, 0, 1]
    j22 = v[:, 2, 1] - v[:, 0, 1]
    det = j11 * j22 - j12 * j21                # = 2 * area, positive
    # rows 1 and 2 are the columns of J^-T (the reference gradients of
    # vertices 1 and 2 are the unit vectors); row 0 is minus their sum
    grads = np.empty((len(det), 3, 2))
    grads[:, 1, 0] = j22 / det
    grads[:, 1, 1] = -j12 / det
    grads[:, 2, 0] = -j21 / det
    grads[:, 2, 1] = j11 / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads, 0.5 * det


def _quad_points(mesh, ids):
    """Quadrature points of the triangles ids, (nt, nq, 2)."""
    return np.einsum("qi,tid->tqd", _QUAD_RULE[0],
                     mesh.vertices[mesh.triangles[ids]])


def _evaluate(f, x, y, shape):
    """f called once on the point arrays x, y: its values as a float64
    copy of shape (len(x),) + shape. No points make no call."""
    want = (len(x),) + shape
    if not len(x):
        return np.empty(want)
    try:
        out = np.asarray(f(x, y))
    except (TypeError, ValueError) as exc:
        raise AssemblyError(
            f"coefficient callable failed on point arrays of shape "
            f"{x.shape}: {exc}; it must take arrays x, y and return one "
            f"value per point") from exc
    if out.shape != want:
        raise AssemblyError(f"coefficient callable returned shape "
                            f"{out.shape} for point arrays of shape "
                            f"{x.shape}, expected {want}")
    return real_array(out, "coefficient callable values", AssemblyError,
                      copy=True)


def _divergence_rows(diffusion, x, y, h_t, ids):
    """Row vector (div A) at the quadrature points (x, y) of the
    triangles ids by central differences with stencil 1e-6 * h_T:
    (nt, nq, 2), validated; errors name the triangle's index in mesh."""
    nq = len(_QUAD_RULE[1])
    d = np.repeat(1e-6 * h_t, nq)
    two_d = (2.0 * d)[:, None]
    dax = (_evaluate(diffusion, x + d, y, (2, 2))
           - _evaluate(diffusion, x - d, y, (2, 2)))[:, 0, :] / two_d
    day = (_evaluate(diffusion, x, y + d, (2, 2))
           - _evaluate(diffusion, x, y - d, (2, 2)))[:, 1, :] / two_d
    # (div A)_j = d_x A[0, j] + d_y A[1, j]
    rows = (dax + day).reshape(len(ids), nq, 2)
    bad = ~np.isfinite(rows).all(axis=(1, 2))
    if bad.any():
        raise AssemblyError(f"diffusion divergence is not finite on "
                            f"element {int(ids[np.argmax(bad)])}")
    return rows


def _sample(mesh, coeffs, ids):
    """The ElementData fields for the triangles ids of mesh, validated;
    errors name the triangle's index in mesh."""
    nt, nq = len(ids), len(_QUAD_RULE[1])
    grads, areas = p1_gradients(mesh, ids)
    h_t = mesh.edge_lengths[mesh.tri_edges[ids]].max(axis=1)
    d_mode, d_data = _classify_diffusion(coeffs)
    r_mode, r_data = _classify_reaction(coeffs)
    for mode, data, name in ((d_mode, d_data, "diffusion"),
                             (r_mode, r_data, "reaction")):
        if mode == "table" and data.shape[0] <= mesh.ancestor[ids].max(
                initial=-1):
            raise AssemblyError(f"{name} table is shorter than the "
                                f"ancestor index range")
    if "callable" in (d_mode, r_mode):
        pts = _quad_points(mesh, ids)                         # (nt, nq, 2)
        x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
        at_points = np.repeat(ids, nq)

    if d_mode == "callable":
        diffusion = _evaluate(d_data, x, y, (2, 2))
        _check_spd_matrices(diffusion, at_points)
        diffusion = diffusion.reshape(nt, nq, 2, 2)
        div_rows = _divergence_rows(d_data, x, y, h_t, ids)
    else:
        diffusion = (np.broadcast_to(d_data, (nt, 2, 2)).copy()
                     if d_mode == "const" else d_data[mesh.ancestor[ids]])
        _check_spd_matrices(diffusion, ids)
        div_rows = None

    if r_mode == "callable":
        reaction = _evaluate(r_data, x, y, ())
        _check_reaction_values(reaction, at_points)
        reaction = reaction.reshape(nt, nq)
    else:
        reaction = (np.full(nt, r_data) if r_mode == "const"
                    else r_data[mesh.ancestor[ids]])
        _check_reaction_values(reaction, ids)
    return dict(grads=grads, areas=areas, h_t=h_t, diffusion=diffusion,
                reaction=reaction, div_rows=div_rows)


class ElementData:
    """Per-triangle data of one mesh, shared by assembly and the
    estimator, each coefficient sampled and validated once.

    Fields, one row per triangle:
        grads (nt, 3, 2), areas (nt,), h_t (nt,): P1 basis gradients,
            areas and diameters.
        diffusion: (nt, 2, 2) for constant and table data, the samples
            at the quadrature points (nt, nq, 2, 2) for a callable.
        reaction: (nt,) for constant and table data, (nt, nq) samples
            for a callable.
        div_rows: (nt, nq, 2) finite-difference div A at the quadrature
            points for callable diffusion, else None.

    Build it on the first mesh and call extend() after every refine();
    extend returns the data of the refined mesh and leaves this one
    untouched. The arrays are read-only.
    """

    _FIELDS = ("grads", "areas", "h_t", "diffusion", "reaction", "div_rows")

    def __init__(self, mesh, coeffs):
        self._set(mesh, coeffs,
                  _sample(mesh, coeffs, np.arange(mesh.n_triangles)))

    def _set(self, mesh, coeffs, fields):
        self.mesh, self.coeffs = mesh, coeffs
        for name, arr in fields.items():
            if arr is not None:
                arr.setflags(write=False)
            setattr(self, name, arr)

    def extend(self, refine_map, fine_mesh):
        """ElementData of fine_mesh = refine(self.mesh, ...)[0].

        Rows of the triangles refine_map kept whole are copied; only the
        new children are sampled.
        """
        try:
            refine_map.check(self.mesh, fine_mesh)
        except MeshError as exc:
            raise AssemblyError(str(exc)) from exc
        # refine() keeps a whole triangle's vertex ids and makes it its
        # own single child
        offsets = refine_map.child_offsets
        src = np.nonzero(np.diff(offsets) == 1)[0]
        dst = offsets[src]
        fresh = np.ones(fine_mesh.n_triangles, dtype=bool)
        fresh[dst] = False
        children = np.nonzero(fresh)[0]
        sampled = _sample(fine_mesh, self.coeffs, children)
        fields = dict.fromkeys(self._FIELDS)
        for name in self._FIELDS:
            old = getattr(self, name)
            if old is not None:
                fields[name] = new = np.empty(
                    (fine_mesh.n_triangles,) + old.shape[1:])
                new[dst] = old[src]
                new[children] = sampled[name]
        out = object.__new__(ElementData)
        out._set(fine_mesh, self.coeffs, fields)
        return out


def _element_data(mesh, coeffs, data=None):
    """data checked against mesh and coeffs, or ElementData(mesh, coeffs)
    when data is None."""
    if data is None:
        return ElementData(mesh, coeffs)
    if data.mesh is not mesh or data.coeffs is not coeffs:
        raise AssemblyError("element data was built for another mesh or "
                            "other coefficients")
    return data


def element_matrices(mesh, coeffs, data=None):
    """Per-element 3x3 stiffness (diffusion + reaction) and exact mass.

    Returns (ke, me), each shaped (nt, 3, 3). ke uses the quadrature rule
    for coefficient sampling only; me is the analytic P1 mass matrix.
    data: the mesh's ElementData, built here when None.
    """
    bary, weights = _QUAD_RULE
    data = _element_data(mesh, coeffs, data)
    areas = data.areas
    a_eff = data.diffusion
    if a_eff.ndim == 4:                        # callable: (nt, nq, 2, 2)
        a_eff = np.einsum("q,tqab->tab", weights, a_eff)
    # ke[t, i, j] = sum_ab g[t, i, a] A[t, a, b] g[t, j, b], summed from
    # +0.0 over a then b with each product taken left to right: the
    # order of einsum("tia,tab,tjb->tij"), so the sums are the same
    g = data.grads
    ke = np.zeros((len(g), 3, 3))
    for a in range(2):
        for b in range(2):
            ke += (g[:, :, None, a] * a_eff[:, None, None, a, b]
                   * g[:, None, :, b])
    ke *= areas[:, None, None]

    me = _EXACT_MASS[None, :, :] * areas[:, None, None]

    if data.reaction.ndim == 2:                # callable: (nt, nq)
        re = np.einsum("q,tq,qi,qj->tij", weights, data.reaction, bary,
                       bary)
        ke += re * areas[:, None, None]
    else:
        ke += data.reaction[:, None, None] * me
    return ke, me


@dataclass(frozen=True)
class FemSystem:
    """Assembled pencil restricted to interior (free) vertices.

    K and M are exactly symmetric CSR matrices with sorted indices; row
    and column i belong to mesh vertex free_dofs[i] (ascending). M stores
    the diagonal and both entries of every edge between free vertices;
    K stores the same entries less its exact zeros (the stiffness of an
    edge opposite two right angles).
    """
    K: sp.csr_matrix
    M: sp.csr_matrix
    free_dofs: np.ndarray

    @property
    def n_dofs(self):
        return len(self.free_dofs)

    def shifted(self, sigma):
        """K - sigma*M as a CSR matrix on M's pattern, one array
        expression on the values. It shares M's index arrays: do not
        modify it in place."""
        return sp.csr_matrix(
            (self._k_on_m_pattern - sigma * self.M.data, self.M.indices,
             self.M.indptr), shape=self.M.shape)

    @functools.cached_property
    def _k_on_m_pattern(self):
        """K's values at M's stored entries, 0 where K stores none.
        assemble() sets it as it builds K; other systems search M's
        pattern for K's entries once."""
        n = self.M.shape[0]
        m_codes, k_codes = (
            np.repeat(np.arange(n), np.diff(a.indptr)) * n + a.indices
            for a in (self.M, self.K))
        at = np.searchsorted(m_codes, k_codes)
        # -1 matches no code: an entry past M's last one is caught too
        if not np.array_equal(np.append(m_codes, -1)[at], k_codes):
            raise AssemblyError("K stores an entry outside M's pattern")
        out = np.zeros(self.M.nnz)
        out[at] = self.K.data
        return out


# local edge i of a triangle (opposite local vertex i) joins these two
# local vertices
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


def _free_edge_pattern(mesh, free):
    """One CSR pattern for the free block: the diagonal and both entries
    of every edge between free vertices, sorted within each row.

    Returns (indptr, indices, free_edges, source): free_edges are the ids
    in mesh.edges of the free-free edges, and entry i of the pattern
    takes the value source[i] of the free vertices' values followed by
    the free edges' values.
    """
    nf = len(free)
    dof = np.full(mesh.n_vertices, -1)
    dof[free] = np.arange(nf)
    ends = dof[mesh.edges]
    free_edges = np.flatnonzero((ends >= 0).all(axis=1))
    a, c = ends[free_edges].T
    ids = np.arange(nf + len(free_edges))
    rows = np.concatenate([ids[:nf], a, c])
    cols = np.concatenate([ids[:nf], c, a])
    # each (row, column) pair occurs once, so the conversion sums nothing
    pattern = sp.coo_matrix((np.concatenate([ids, ids[nf:]]), (rows, cols)),
                            shape=(nf, nf)).tocsr()
    pattern.sort_indices()
    return pattern.indptr, pattern.indices, free_edges, pattern.data


def _pattern_values(mesh, free, local, pattern):
    """The (nt, 3, 3) element matrices summed onto the pattern.

    Each edge gets the sum of its two triangles' entries below the
    diagonal (row vertex above column vertex), each vertex the sum of
    its diagonal entries; both entries of an edge take its one value,
    so the result is symmetric by construction.
    """
    _, _, free_edges, source = pattern
    tri = mesh.triangles
    lower = np.empty((len(tri), 3))
    for i, (p, q) in enumerate(_LOCAL_EDGES):
        lower[:, i] = np.where(tri[:, p] > tri[:, q], local[:, p, q],
                               local[:, q, p])
    on_edges = np.bincount(mesh.tri_edges.ravel(), lower.ravel(),
                           minlength=len(mesh.edges))[free_edges]
    on_vertices = np.bincount(tri.ravel(),
                              np.einsum("tii->ti", local).ravel(),
                              minlength=mesh.n_vertices)[free]
    return np.concatenate([on_vertices, on_edges])[source]


def assemble(mesh, coeffs, data=None):
    """Assemble the eliminated stiffness/mass pencil on a mesh.

    Both matrices are summed onto one pattern built from the mesh's edge
    table; K then drops its exact zeros.
    data: the mesh's ElementData; without it one is built and dropped
    before the global matrices are formed.
    """
    ke, me = element_matrices(mesh, coeffs, data)
    free = mesh.interior_vertices()
    pattern = _free_edge_pattern(mesh, free)
    indptr, indices = pattern[:2]
    shape = (len(free), len(free))
    k_values = _pattern_values(mesh, free, ke, pattern)
    M = sp.csr_matrix((_pattern_values(mesh, free, me, pattern), indices,
                       indptr), shape=shape)
    K = sp.csr_matrix((k_values, indices, indptr), shape=shape, copy=True)
    K.eliminate_zeros()
    system = FemSystem(K=K, M=M, free_dofs=free)
    # the values K - sigma*M reads, without searching M's pattern for K's
    object.__setattr__(system, "_k_on_m_pattern", k_values)
    return system
