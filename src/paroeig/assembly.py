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
  * a callable (x, y) -> value, sampled at quadrature points. It must
    be a pure function of (x, y): each sampling pass calls it once per
    distinct point (coordinates compared bitwise, so 0.0 and -0.0 are
    two points) and hands the value to every triangle that needs it.
    Congruent sibling triangles share a finite-difference stencil and
    neighbours share edge midpoints, which saves about 40% of the calls
    on an adaptively refined mesh. The returned values are converted to
    float64 a chunk of points at a time; a value that is not real
    numbers, or whose shape differs from the first, raises
    AssemblyError.
Quadrature only ever touches the coefficients: P1 gradients are constant
per element, so the one rule (the three edge midpoints, exact for
quadratics) integrates the diffusion term exactly for data up to degree
two. The per-triangle kernels are written out entry by entry: the
gradients straight from the inverse Jacobian, and the stiffness sum
over the diffusion's entries in einsum's order, so they round as the
einsum formulation does.

Everything per triangle that assembly and the estimator read (gradients,
areas, diameters, coefficient samples, the finite-difference divergence
of callable diffusion, the estimator's linear maps) lives in one
ElementData per mesh. Each sample is taken and validated once: the
adaptive loop builds it on the first mesh and extends it after every
refinement, copying the rows of triangles the refinement kept and
sampling only the new children. The divergence, which only the
estimator reads, is sampled on its first read. Called without one,
`assemble` and `estimator.estimate` build it themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


# distinct points per conversion of f's returned values: bounds the list
# of per-point values alive at once
_CHUNK = 1024
# dtype kinds of real numbers: bool, signed and unsigned int, float
_REAL_KINDS = "biuf"


def _stack(returned, shape):
    """The values f returned, as one float64 array (len, *shape)."""
    try:
        out = np.array(returned)
    except (TypeError, ValueError):
        out = None
    if (out is not None and out.dtype.kind in _REAL_KINDS
            and out.shape[1:] == shape):
        return out.astype(np.float64, copy=False)
    # name the first bad value, as a per-point conversion would
    for v in returned:
        arr = np.asarray(v)
        if arr.dtype.kind not in _REAL_KINDS:
            raise AssemblyError(f"coefficient callable returned {v!r}, "
                                f"not real numbers")
        if arr.shape != shape:
            raise AssemblyError(f"coefficient callable returned shapes "
                                f"{shape} and {arr.shape}")
    raise AssemblyError("coefficient callable returned values that do "
                        "not form one array")


def _evaluate(f, x, y, shape):
    """f at every point (x[k], y[k]) as one float64 array, (n,) + shape,
    with f called once per distinct point. Points are compared bitwise,
    so 0.0 and -0.0 are two points."""
    keys = np.column_stack([x, y]).view(np.int64)            # (n, 2)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    distinct = order[first]
    xs, ys = x[distinct], y[distinct]
    values = np.empty((len(distinct),) + shape)
    for start in range(0, len(distinct), _CHUNK):
        stop = start + _CHUNK
        values[start:stop] = _stack(
            list(map(f, xs[start:stop], ys[start:stop])), shape)
    return values[inverse]


def _divergence_rows(mesh, diffusion, ids, h_t):
    """Row vector (div A) at the quadrature points of the triangles ids
    by central differences with stencil 1e-6 * h_T: (nt, nq, 2),
    validated; errors name the triangle's index in mesh."""
    pts = _quad_points(mesh, ids)
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    d = np.repeat(1e-6 * h_t, pts.shape[1])
    two_d = (2.0 * d)[:, None]
    dax = (_evaluate(diffusion, x + d, y, (2, 2))
           - _evaluate(diffusion, x - d, y, (2, 2)))[:, 0, :] / two_d
    day = (_evaluate(diffusion, x, y + d, (2, 2))
           - _evaluate(diffusion, x, y - d, (2, 2)))[:, 1, :] / two_d
    # (div A)_j = d_x A[0, j] + d_y A[1, j]
    rows = (dax + day).reshape(pts.shape)
    bad = ~np.isfinite(rows).all(axis=(1, 2))
    if bad.any():
        raise AssemblyError(f"diffusion divergence is not finite on "
                            f"element {int(ids[np.argmax(bad)])}")
    return rows


def _sample(mesh, coeffs, ids):
    """The eager ElementData fields for the triangles ids of mesh,
    validated; errors name the triangle's index in mesh."""
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
    else:
        diffusion = (np.broadcast_to(d_data, (nt, 2, 2)).copy()
                     if d_mode == "const" else d_data[mesh.ancestor[ids]])
        _check_spd_matrices(diffusion, ids)

    if r_mode == "callable":
        reaction = _evaluate(r_data, x, y, ())
        _check_reaction_values(reaction, at_points)
        reaction = reaction.reshape(nt, nq)
    else:
        reaction = (np.full(nt, r_data) if r_mode == "const"
                    else r_data[mesh.ancestor[ids]])
        _check_reaction_values(reaction, ids)
    return dict(grads=grads, areas=areas, h_t=h_t, diffusion=diffusion,
                reaction=reaction)


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
            points for callable diffusion, else None. Only the estimator
            reads it, so it is sampled on first read.
        estimator_ops: the estimator's linear maps of this mesh, None
            until the first estimate builds them (estimator._operators);
            adaptive_solve drops them once a level's estimates are done.

    Build it on the first mesh and call extend() after every refine();
    extend returns the data of the refined mesh and leaves this one
    untouched. It carries div_rows over when they have been sampled
    here, and never estimator_ops. The arrays are read-only.
    """

    _FIELDS = ("grads", "areas", "h_t", "diffusion", "reaction")

    def __init__(self, mesh, coeffs):
        self._set(mesh, coeffs,
                  _sample(mesh, coeffs, np.arange(mesh.n_triangles)))

    def _set(self, mesh, coeffs, fields):
        self.mesh, self.coeffs = mesh, coeffs
        self.estimator_ops = None
        for name, arr in fields.items():
            arr.setflags(write=False)
            setattr(self, name, arr)

    @functools.cached_property
    def div_rows(self):
        if self.diffusion.ndim != 4:
            return None
        rows = _divergence_rows(self.mesh, self.coeffs.diffusion,
                                np.arange(self.mesh.n_triangles), self.h_t)
        rows.setflags(write=False)
        return rows

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
        names = list(self._FIELDS)
        if vars(self).get("div_rows") is not None:
            sampled["div_rows"] = _divergence_rows(
                fine_mesh, self.coeffs.diffusion, children,
                sampled["h_t"])
            names.append("div_rows")
        fields = {}
        for name in names:
            old = getattr(self, name)
            new = np.empty((fine_mesh.n_triangles,) + old.shape[1:])
            new[dst] = old[src]
            new[children] = sampled[name]
            fields[name] = new
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


def _scatter(mesh, local):
    """Accumulate (nt, 3, 3) element matrices into the lower triangle of
    the global matrix over all vertices, as CSR."""
    # coo_matrix stores int32 indices while they fit and would copy
    # int64 ones; passing int32 keeps one copy of the index arrays
    fits = mesh.n_vertices <= np.iinfo(np.int32).max
    tri = mesh.triangles.astype(np.int32 if fits else np.int64)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    full = sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    full.sum_duplicates()
    return sp.tril(full, format="csr")


@dataclass(frozen=True)
class FemSystem:
    """Assembled pencil restricted to interior (free) vertices.

    K and M are exactly symmetric CSR matrices with sorted indices; row
    and column i belong to mesh vertex free_dofs[i] (ascending).
    """
    K: sp.csr_matrix
    M: sp.csr_matrix
    free_dofs: np.ndarray

    @property
    def n_dofs(self):
        return len(self.free_dofs)


def assemble(mesh, coeffs, data=None):
    """Assemble the eliminated stiffness/mass pencil on a mesh.

    data: the mesh's ElementData; without it one is built and dropped
    before the global matrices are formed.
    """
    ke, me = element_matrices(mesh, coeffs, data)
    # free is ascending, so the free block of the lower triangle is the
    # lower triangle of the free block
    free = mesh.interior_vertices()
    pencil = []
    for local in (ke, me):
        lower = _scatter(mesh, local)[free][:, free]
        lower.sum_duplicates()
        lower.eliminate_zeros()
        # mirroring the strict lower triangle makes S == S.T exactly
        full = (lower + sp.tril(lower, k=-1).T).tocsr()
        full.sort_indices()
        pencil.append(full)
    return FemSystem(K=pencil[0], M=pencil[1], free_dofs=free)
