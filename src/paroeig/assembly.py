"""P1 finite-element assembly for -div(A grad u) + c u on triangle meshes.

The stiffness form carries both the diffusion and reaction terms; the mass
form is the plain L2 inner product and uses the exact analytic P1 element
mass matrix. Homogeneous Dirichlet conditions are imposed by eliminating
boundary vertices, which keeps both matrices symmetric positive definite
and leaves the generalized spectrum untouched.

Coefficient fields take three forms, which Coefficients tells apart:
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
matrices are symmetric by construction. K keeps its exact zeros (the
stiffness of an edge opposite two right angles), so K, M and every
shifted K - sigma*M (FemSystem.shifted) share the one pattern.

Everything per triangle that assembly and the estimator read (gradients,
areas, diameters, the samples of callable coefficients with the
finite-difference divergence of callable diffusion, and the element
stiffness matrices ke) lives in one ElementData per mesh. Each sample is
taken and validated once, and each ke computed once: the adaptive loop
builds it on the first mesh, where constant and table values are checked
once, and extends it after every refinement, copying the rows of
triangles the refinement kept and sampling only the new children. Array
coefficients are not stored per triangle, and no element mass matrix
is formed: M is summed from the areas, since the exact P1 element mass
matrix has |T|/6 on its diagonal and |T|/12 off it. Called without one,
`assemble` and `estimator.estimate` build it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import integer_array, real_array
from .mesh import Mesh, MeshError


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


# field -> (shape of one value, the value None stands for, array forms)
_FIELD_FORMS = {
    "diffusion": ((2, 2), np.eye(2), "a 2x2 array, an (n, 2, 2) table"),
    "reaction": ((), 0.0, "a scalar, an (n,) table")}


@dataclass(frozen=True, eq=False)
class Coefficients:
    """Operator data: diffusion matrix field and reaction scalar field; a
    callable is kept, array data stored as a read-only float64 copy."""
    diffusion: object = None      # 2x2 array | (n0, 2, 2) table | callable
    reaction: object = None       # scalar | (n0,) table | callable

    def __post_init__(self):
        for name, (shape, default, forms) in _FIELD_FORMS.items():
            value = getattr(self, name)
            if callable(value):
                continue
            arr = real_array(default if value is None else value, name,
                             AssemblyError, copy=True)
            if shape not in (arr.shape, arr.shape[1:]):
                raise AssemblyError(f"{name} must be {forms}, or a callable")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @staticmethod
    def identity():
        """Pure Laplacian: diffusion = I, reaction = 0."""
        return Coefficients()

    @staticmethod
    def constant(diffusion, reaction=0.0):
        """A constant 2x2 diffusion matrix and scalar reaction."""
        diffusion = real_array(diffusion, "diffusion", AssemblyError)
        reaction = real_array(reaction, "reaction", AssemblyError)
        if diffusion.shape != (2, 2) or reaction.ndim:
            raise AssemblyError("a constant diffusion is 2x2, reaction scalar")
        return Coefficients(diffusion, reaction)

    def _values(self, name, mesh, ids):
        """Array field name on the triangles ids of mesh: a read-only
        broadcast of a constant, or the table rows of their ancestors."""
        value = getattr(self, name)
        if value.shape == _FIELD_FORMS[name][0]:
            return np.broadcast_to(value, (len(ids),) + value.shape)
        return value.take(mesh.ancestor.take(ids), 0)


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
    """The ElementData fields of the triangles ids of mesh, callables
    sampled and validated; errors name the triangle's index in mesh."""
    nt, nq = len(ids), len(_QUAD_RULE[1])
    grads, areas = p1_gradients(mesh, ids)
    h_t = mesh.edge_lengths[mesh.tri_edges[ids]].max(axis=1)
    fields = dict(grads=grads, areas=areas, h_t=h_t, diffusion=None,
                  reaction=None, div_rows=None)
    d, c = coeffs.diffusion, coeffs.reaction
    if callable(d) or callable(c):
        pts = _quad_points(mesh, ids)                         # (nt, nq, 2)
        x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
        at_points = np.repeat(ids, nq)
    if callable(d):
        diffusion = _evaluate(d, x, y, (2, 2))
        _check_spd_matrices(diffusion, at_points)
        fields["diffusion"] = diffusion.reshape(nt, nq, 2, 2)
        fields["div_rows"] = _divergence_rows(d, x, y, h_t, ids)
    if callable(c):
        reaction = _evaluate(c, x, y, ())
        _check_reaction_values(reaction, at_points)
        fields["reaction"] = reaction.reshape(nt, nq)
    fields["ke"] = _element_stiffness(mesh, coeffs, ids, fields)
    return fields


class ElementData:
    """Per-triangle data of one mesh, shared by assembly and the
    estimator, each coefficient sampled and validated once.

    Fields, one row per triangle:
        grads (nt, 3, 2), areas (nt,), h_t (nt,): P1 basis gradients,
            areas and diameters.
        diffusion: (nt, nq, 2, 2) samples at the quadrature points for
            a callable; None for constant and table data, read from coeffs.
        reaction: (nt, nq) samples for a callable, else None.
        div_rows: (nt, nq, 2) finite-difference div A at the quadrature
            points for callable diffusion, else None.
        ke: (nt, 3, 3) element stiffness matrices (diffusion + reaction),
            the quadrature rule sampling only the coefficients.

    It takes a Mesh and Coefficients (AssemblyError otherwise). Build it
    on the first mesh, which checks the values of constant and table
    data once for the run, and call extend() after every refine();
    extend returns the data of the refined mesh and leaves this one
    untouched. The arrays are read-only.
    """

    _FIELDS = ("grads", "areas", "h_t", "diffusion", "reaction", "div_rows",
               "ke")

    def __init__(self, mesh, coeffs):
        if not (isinstance(mesh, Mesh) and isinstance(coeffs, Coefficients)):
            raise AssemblyError(f"need a Mesh and Coefficients, got "
                                f"{type(mesh).__name__}, "
                                f"{type(coeffs).__name__}")
        # array data, checked once per run: refinement adds no ancestor id
        ids = np.arange(mesh.n_triangles)
        for name, check in (("diffusion", _check_spd_matrices),
                            ("reaction", _check_reaction_values)):
            value = getattr(coeffs, name)
            if callable(value):
                continue
            if (value.shape != _FIELD_FORMS[name][0]
                    and len(value) <= mesh.ancestor.max(initial=-1)):
                raise AssemblyError(f"{name} table is shorter than the "
                                    f"ancestor index range")
            check(coeffs._values(name, mesh, ids), ids)
        self._set(mesh, coeffs, _sample(mesh, coeffs, ids))

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
        kept = np.flatnonzero(np.diff(offsets) == 1)
        # fine row f is old row source[f], or sampled row source[f] - nt
        source = np.full(fine_mesh.n_triangles, -1)
        source[offsets[kept]] = kept
        children = np.flatnonzero(source < 0)
        source[children] = self.mesh.n_triangles + np.arange(len(children))
        sampled = _sample(fine_mesh, self.coeffs, children)
        fields = dict.fromkeys(self._FIELDS)
        for name in self._FIELDS:
            old = getattr(self, name)
            if old is not None:
                fields[name] = np.take(np.concatenate([old, sampled[name]]),
                                       source, axis=0)
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


def _element_stiffness(mesh, coeffs, ids, fields):
    """Per-element 3x3 stiffness (diffusion + reaction), (nt, 3, 3), of
    the triangles ids of mesh from their ElementData fields."""
    bary, weights = _QUAD_RULE
    grads, areas = fields["grads"], fields["areas"]
    if fields["diffusion"] is None:
        diffusion = coeffs._values("diffusion", mesh, ids)
    else:
        diffusion = np.einsum("q,tqab->tab", weights, fields["diffusion"])
    # ke[t, i, j] = sum_ab g[t, i, a] A[t, a, b] g[t, j, b], summed from
    # +0.0 over a then b with each product taken left to right: the
    # order of einsum("tia,tab,tjb->tij"), so the sums are the same
    ke = np.zeros((len(grads), 3, 3))
    for a in range(2):
        for b in range(2):
            ke += (grads[:, :, None, a] * diffusion[:, None, None, a, b]
                   * grads[:, None, :, b])
    ke *= areas[:, None, None]
    if fields["reaction"] is None:
        reaction = coeffs._values("reaction", mesh, ids)
        ke += reaction[:, None, None] * (_EXACT_MASS * areas[:, None, None])
    else:
        re = np.einsum("q,tq,qi,qj->tij", weights, fields["reaction"], bary,
                       bary)
        ke += re * areas[:, None, None]
    return ke


@dataclass(frozen=True, eq=False)
class FemSystem:
    """Assembled pencil restricted to interior (free) vertices.

    K and M are exactly symmetric CSR matrices with sorted indices on
    one pattern, K's exact zeros included: the diagonal and both entries
    of every edge between free vertices (AssemblyError otherwise). Row
    and column i belong to mesh vertex free_dofs[i] (ascending), which
    lies at vertices[free_dofs[i]]: vertices is the mesh's (nv, 2)
    coordinate array, held by reference and not copied. The solver
    never reads it; verify orders its LU by it.
    """
    K: sp.csr_matrix
    M: sp.csr_matrix
    free_dofs: np.ndarray
    vertices: np.ndarray

    def __post_init__(self):
        k, m = self.K, self.M
        if not (getattr(k, "format", None) == getattr(m, "format", None)
                == "csr" and k.shape == m.shape
                and np.array_equal(k.indptr, m.indptr)
                and np.array_equal(k.indices, m.indices)):
            raise AssemblyError("K and M must be CSR on one pattern")
        vertices = real_array(self.vertices, "vertices", AssemblyError)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise AssemblyError("vertices must be an (nv, 2) array")
        free = integer_array(self.free_dofs, "free_dofs", AssemblyError)
        if free.shape != k.shape[:1] or free.size and (
                free.min() < 0 or free.max() >= len(vertices)):
            raise AssemblyError("free_dofs must hold one vertex index in "
                                "[0, nv) per row of K")

    @property
    def n_dofs(self):
        return len(self.free_dofs)

    def shifted(self, sigma):
        """K - sigma*M as a CSR matrix on the pencil's pattern, one array
        expression on the values. It shares M's index arrays: do not
        modify it in place."""
        return sp.csr_matrix(
            (self.K.data - sigma * self.M.data, self.M.indices,
             self.M.indptr), shape=self.M.shape)


# local edge i of a triangle (opposite local vertex i) joins the local
# vertices _LOCAL_EDGES[0][i] and _LOCAL_EDGES[1][i]
_LOCAL_EDGES = ([1, 2, 0], [2, 0, 1])


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
    # each (row, column) pair occurs once, so the conversion sums
    # nothing; summing leaves the indices sorted all the same
    pattern = sp.coo_matrix((np.concatenate([ids, ids[nf:]]), (rows, cols)),
                            shape=(nf, nf)).tocsr()
    return pattern.indptr, pattern.indices, free_edges, pattern.data


def _pattern_values(mesh, free, lower, diagonal, pattern):
    """Element entries summed onto the pattern: lower[t, i] is triangle
    t's entry below the diagonal (row vertex above column vertex) on its
    local edge i, diagonal[t, i] its entry of local vertex i, both (nt, 3).

    Each edge gets the sum of its two triangles' entries, each vertex the
    sum of its diagonal entries; both entries of an edge take its one
    value, so the result is symmetric by construction.
    """
    _, _, free_edges, source = pattern
    on_edges = np.bincount(mesh.tri_edges.ravel(), lower.ravel(),
                           minlength=len(mesh.edges))[free_edges]
    on_vertices = np.bincount(mesh.triangles.ravel(), diagonal.ravel(),
                              minlength=mesh.n_vertices)[free]
    return np.concatenate([on_vertices, on_edges])[source]


def assemble(mesh, coeffs, data=None):
    """Assemble the eliminated stiffness/mass pencil on a mesh.

    Both matrices are summed onto one pattern built from the mesh's edge
    table and share its index arrays: K from the element stiffness
    matrices data.ke, M from the areas alone.
    data: the mesh's ElementData; without it one is built and dropped
    before the global matrices are formed.
    """
    data = _element_data(mesh, coeffs, data)
    tri, ke, (p, q) = mesh.triangles, data.ke, _LOCAL_EDGES
    k_entries = (np.where(tri[:, p] > tri[:, q], ke[:, p, q], ke[:, q, p]),
                 np.einsum("tii->ti", ke))
    # the exact element mass matrix is symmetric, its entries |T| times
    # one fixed matrix's
    m_entries = (np.outer(data.areas, _EXACT_MASS[p, q]),
                 np.outer(data.areas, _EXACT_MASS.diagonal()))
    free = mesh.interior_vertices()
    pattern = _free_edge_pattern(mesh, free)
    indptr, indices = pattern[:2]
    K, M = (sp.csr_matrix((_pattern_values(mesh, free, *entries, pattern),
                           indices, indptr), shape=(len(free), len(free)))
            for entries in (k_entries, m_entries))
    return FemSystem(K=K, M=M, free_dofs=free, vertices=mesh.vertices)
