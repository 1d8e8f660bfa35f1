"""Conforming triangular meshes with newest-vertex bisection refinement.

The triangle vertex ordering carries the refinement rule: a row (p, a, b)
means the peak (newest vertex) is p and the refinement edge is the opposite
edge (a, b). Bisecting inserts the midpoint m of (a, b) and produces the
children (m, p, a) and (m, b, p), both with peak m, so the children's
refinement edges are the former edges (p, a) and (b, p) of the parent.
This is the classical scheme that keeps the number of similarity classes
per initial triangle bounded (by 4) and, with midpoints shared through a
global edge table, yields conforming meshes after closure.

Each refine() call is one bisection round, closed by the edge-marking
fixpoint: a triangle with any marked edge must have its refinement edge
marked too. Afterwards each triangle is split according to which of its
edges carry a midpoint (1, 2 or 3 marked edges give 2, 3 or 4 children),
which bisects every marked edge identically from both sides.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Invalid mesh input or refinement request."""


def _whole_numbers(values, what):
    """values as a new int64 array; MeshError if one is not a whole
    number (whole-valued floats, as np.loadtxt reads ids, pass)."""
    a = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):  # NaN and inf fail the compare
            ids = a.astype(np.int64)
    except OverflowError:                  # Python ints beyond int64
        raise MeshError(f"{what} must fit in int64") from None
    if not np.array_equal(ids, a):
        raise MeshError(f"{what} must be whole numbers")
    return ids


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Mesh:
    """Immutable conforming triangle mesh with an NVB vertex ordering.

    Attributes:
        vertices: (nv, 2) float64 coordinates.
        triangles: (nt, 3) int64 vertex indices, peak first.
        generation: (nt,) int64 bisection depth per triangle.
        ancestor: (nt,) int64 index of each triangle's ancestor in the
            initial mesh (used to address piecewise-constant coefficient
            tables defined on the initial mesh).
        edges: (ne, 2) int64 sorted vertex pairs, lexicographic order.
        tri_edges: (nt, 3) edge id opposite each local vertex; column 0 is
            the refinement edge.
        edge_tris: (ne, 2) incident triangle ids, second entry -1 on the
            boundary.
        edge_normals: (ne, 2) unit normals; for interior edges oriented
            from edge_tris[e, 0] into edge_tris[e, 1], outward on the
            boundary.
        is_boundary_vertex: (nv,) bool.

    Input that is not a conforming mesh over all its vertices (hanging
    nodes and unused vertices included) raises MeshError.
    """

    def __init__(self, vertices, triangles, generation=None, ancestor=None):
        self.vertices = np.array(vertices, dtype=np.float64)
        self.triangles = _whole_numbers(triangles, "triangle vertex ids")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("non-finite vertex coordinate")
        nv, nt = len(self.vertices), len(self.triangles)
        if nt == 0:
            raise MeshError("mesh needs at least one triangle")
        if self.triangles.min() < 0 or self.triangles.max() >= nv:
            raise MeshError("triangle vertex index out of range")
        unused = np.bincount(self.triangles.ravel(), minlength=nv) == 0
        if unused.any():
            raise MeshError(f"vertex {np.argmax(unused)} is in no triangle")
        areas = self.signed_areas()
        if (areas <= 0.0).any():
            bad = int(np.argmax(areas <= 0.0))
            raise MeshError(f"triangle {bad} is flipped or degenerate "
                            f"(signed area {areas[bad]:.3e})")
        self._build_edge_table()
        self.generation = (np.zeros(nt, dtype=np.int64) if generation is None
                           else _whole_numbers(generation, "generations"))
        self.ancestor = (np.arange(nt, dtype=np.int64) if ancestor is None
                         else _whole_numbers(ancestor, "ancestor ids"))
        if self.generation.shape != (nt,) or self.ancestor.shape != (nt,):
            raise MeshError("generation and ancestor need one entry per "
                            "triangle")
        if self.ancestor.min() < 0:
            raise MeshError("negative ancestor index")
        if self.generation.min() < 0:
            raise MeshError("negative generation")
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.generation.setflags(write=False)
        self.ancestor.setflags(write=False)

    # -- construction helpers -------------------------------------------

    def _build_edge_table(self):
        nv, nt = self.n_vertices, self.n_triangles
        t = self.triangles
        # local edge i is opposite local vertex i; pair 3 * k + i is local
        # edge i of triangle k
        a = t[:, [1, 2, 0]].ravel()
        b = t[:, [2, 0, 1]].ravel()
        codes = np.minimum(a, b) * np.int64(nv) + np.maximum(a, b)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        first = np.ones(3 * nt, dtype=bool)
        first[1:] = sorted_codes[1:] != sorted_codes[:-1]
        starts = np.nonzero(first)[0]
        counts = np.diff(starts, append=3 * nt)
        ne = len(starts)
        ucodes = sorted_codes[starts]
        self.edges = np.column_stack([ucodes // nv, ucodes % nv])
        inv = np.empty(3 * nt, dtype=np.int64)
        inv[order] = np.cumsum(first) - 1
        self.tri_edges = inv.reshape(nt, 3)
        # a triangle and its duplicate share an edge and the vertex
        # opposite it; when no edge has more than two triangles, the two
        # are neighbours in the sorted order
        opposite = t.ravel()[order]
        duplicate = (~first[1:] & (opposite[1:] == opposite[:-1])).any()
        if counts.max() > 2 and not duplicate:
            # a third triangle on the edge can sort between the two
            duplicate = len(np.unique(np.sort(t, axis=1), axis=0)) != nt
        if duplicate:
            raise MeshError("duplicate triangle (same vertex set twice)")
        if counts.max() > 2:
            raise MeshError("non-conforming input: an edge is shared by "
                            "more than two triangles")
        tri_of = order // 3
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = tri_of[starts]
        two = counts == 2
        self.edge_tris[two, 1] = tri_of[starts[two] + 1]

        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        bnd_edges = self.edges[~two]
        self.is_boundary_vertex[bnd_edges.ravel()] = True
        self._check_hanging_nodes(bnd_edges)

        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / self.edge_lengths[:, None]
        # orient: interior edges point from first into second triangle,
        # boundary edges outward, i.e. away from the first triangle's
        # vertex opposite the edge
        inward = (self.vertices[opposite[starts]]
                  - self.vertices[self.edges[:, 0]])
        flip = np.einsum("ij,ij->i", normals, inward) > 0.0
        normals[flip] *= -1.0
        self.edge_normals = normals
        for arr in (self.edges, self.tri_edges, self.edge_tris,
                    self.edge_lengths, self.edge_normals,
                    self.is_boundary_vertex):
            arr.setflags(write=False)

    def _check_hanging_nodes(self, one_sided):
        """Raise MeshError if a vertex lies inside an edge: the edge and
        its two pieces then have one triangle each, and at either end of
        the edge two of them point the same way with different lengths."""
        ends = np.concatenate([one_sided, one_sided[:, ::-1]])
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        d = self.vertices[ends[:, 1]] - self.vertices[ends[:, 0]]
        length = np.hypot(d[:, 0], d[:, 1])
        unit = d / length[:, None]
        # compare every pair of one-sided edges that share a start
        for k in range(1, np.bincount(ends[:, 0]).max()):
            u, v, la, lb = unit[k:], unit[:-k], length[k:], length[:-k]
            hanging = ((ends[k:, 0] == ends[:-k, 0])
                       & (np.abs(_cross2(u, v)) <= 1e-12)
                       & (np.einsum("ij,ij->i", u, v) > 0.0)
                       & (np.abs(la - lb) > 1e-12 * np.maximum(la, lb)))
            if hanging.any():
                i = int(np.argmax(hanging))
                (a, inner), (_, b) = ends[[i, i + k]][
                    np.argsort(length[[i, i + k]])]
                raise MeshError(f"hanging node: vertex {inner} lies on "
                                f"edge ({min(a, b)}, {max(a, b)})")

    # -- geometry --------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def signed_areas(self):
        p = self.vertices[self.triangles]
        return 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    def diameters(self):
        """Longest edge per triangle (the element size h_T)."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    @property
    def h_max(self):
        return float(self.diameters().max())

    def interior_vertices(self):
        return np.nonzero(~self.is_boundary_vertex)[0]


# -- refinement ----------------------------------------------------------


@dataclass(frozen=True)
class RefineMap:
    """What one refine() call did: which triangles split and which
    vertices appeared.

    Attributes:
        child_offsets: (nt_coarse + 1,) the children of coarse triangle t
            are arange(child_offsets[t], child_offsets[t + 1]).
        prolongation: (nv_fine, nv_coarse) CSR matrix of the nodal
            transfer: kept vertices copy their value and each midpoint
            averages its edge endpoints. The midpoints follow the coarse
            vertices in the order refine() appended them.
    """
    child_offsets: np.ndarray
    prolongation: sp.csr_matrix

    def check(self, coarse, fine):
        """Raise MeshError unless this map leads from coarse to fine."""
        nf, nc = self.prolongation.shape
        if (nc, len(self.child_offsets)) != (coarse.n_vertices,
                                             coarse.n_triangles + 1):
            raise MeshError("refine_map does not chain from this mesh")
        if (nf, self.child_offsets[-1]) != (fine.n_vertices,
                                           fine.n_triangles):
            raise MeshError("refine_map does not lead to the given fine "
                            "mesh")


def _nodal_prolongation(n_coarse, vertex_parents):
    """Rows n_coarse + i average the endpoints of midpoint i; the rows
    above copy the coarse values."""
    k = len(vertex_parents)
    indptr = np.concatenate([np.arange(n_coarse + 1),
                             n_coarse + 2 * np.arange(1, k + 1)])
    indices = np.concatenate([np.arange(n_coarse), vertex_parents.ravel()])
    data = np.concatenate([np.ones(n_coarse), np.full(2 * k, 0.5)])
    return sp.csr_matrix((data, indices, indptr), shape=(n_coarse + k,
                                                         n_coarse))


def refine(mesh, marked):
    """Bisect every marked triangle once and close the mesh.

    One round of newest-vertex bisection: the refinement edge of every
    marked triangle is split, the closure marks the refinement edges
    that conformity then needs, and every triangle is cut along its
    marked edges (2, 3 or 4 children). Marked generations increase by at
    least 1.

    Args:
        mesh: conforming Mesh.
        marked: iterable of integer triangle indices to refine; a
            boolean mask or a fractional index raises MeshError.

    Returns:
        (fine_mesh, refine_map). An empty marked set gives a copy of the
        mesh and a map that adds no vertex.
    """
    if not isinstance(marked, np.ndarray):
        marked = list(marked)          # read an iterator exactly once
    marked = np.asarray(marked)
    if marked.size and marked.dtype.kind not in "iu":   # [] is float64
        raise MeshError(f"marked triangle indices must be integers, got "
                        f"dtype {marked.dtype}")
    marked = marked.astype(np.int64, copy=False)
    if marked.size and (marked.min() < 0
                        or marked.max() >= mesh.n_triangles):
        raise MeshError("marked triangle index out of range")
    ref_edge = mesh.tri_edges[:, 0]
    ne = len(mesh.edges)
    edge_marked = np.zeros(ne, dtype=bool)
    edge_marked[ref_edge[marked]] = True
    # closure: a triangle with any marked edge gets its refinement edge marked
    while True:
        need = edge_marked[mesh.tri_edges].any(axis=1) & ~edge_marked[ref_edge]
        if not need.any():
            break
        edge_marked[ref_edge[need]] = True

    split = np.nonzero(edge_marked)[0]
    nv = mesh.n_vertices
    new_id = np.full(ne, -1, dtype=np.int64)
    new_id[split] = nv + np.arange(len(split))
    vertex_parents = mesh.edges[split]
    mids = 0.5 * (mesh.vertices[vertex_parents[:, 0]]
                  + mesh.vertices[vertex_parents[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    m = edge_marked[mesh.tri_edges]          # (nt, 3): ref, opp-1, opp-2
    if ((m[:, 1] | m[:, 2]) & ~m[:, 0]).any():
        raise MeshError("closure failed to mark a refinement edge")
    nchild = 1 + m.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(nchild)])
    total = int(offsets[-1])
    tri = np.empty((total, 3), dtype=np.int64)
    gen = np.empty(total, dtype=np.int64)
    anc = np.empty(total, dtype=np.int64)

    t = mesh.triangles
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    M0 = new_id[mesh.tri_edges[:, 0]]
    M1 = new_id[mesh.tri_edges[:, 1]]
    M2 = new_id[mesh.tri_edges[:, 2]]
    g = mesh.generation

    def put(mask, slot, rows, gshift):
        idx = offsets[:-1][mask] + slot
        tri[idx] = np.column_stack([r[mask] for r in rows])
        gen[idx] = g[mask] + gshift
        anc[idx] = mesh.ancestor[mask]

    keep = ~m[:, 0]
    put(keep, 0, (v0, v1, v2), 0)

    only = m[:, 0] & ~m[:, 1] & ~m[:, 2]
    put(only, 0, (M0, v0, v1), 1)
    put(only, 1, (M0, v2, v0), 1)

    # refinement edge plus the edge opposite v2, i.e. (v0, v1)
    with2 = m[:, 0] & ~m[:, 1] & m[:, 2]
    put(with2, 0, (M2, M0, v0), 2)
    put(with2, 1, (M2, v1, M0), 2)
    put(with2, 2, (M0, v2, v0), 1)

    # refinement edge plus the edge opposite v1, i.e. (v2, v0)
    with1 = m[:, 0] & m[:, 1] & ~m[:, 2]
    put(with1, 0, (M0, v0, v1), 1)
    put(with1, 1, (M1, M0, v2), 2)
    put(with1, 2, (M1, v0, M0), 2)

    allm = m.all(axis=1)
    put(allm, 0, (M2, M0, v0), 2)
    put(allm, 1, (M2, v1, M0), 2)
    put(allm, 2, (M1, M0, v2), 2)
    put(allm, 3, (M1, v0, M0), 2)

    return Mesh(vertices, tri, gen, anc), RefineMap(
        offsets, _nodal_prolongation(nv, vertex_parents))


def uniform_refine(mesh, passes=1):
    """Refine every triangle once per pass, passes a non-negative
    integer. Returns (mesh, [RefineMap...])."""
    if not hasattr(passes, "__index__") or operator.index(passes) < 0:
        raise MeshError(f"passes must be a non-negative integer, got "
                        f"{passes!r}")
    maps = []
    for _ in range(passes):
        mesh, rmap = refine(mesh, np.arange(mesh.n_triangles))
        maps.append(rmap)
    return mesh, maps


def interpolate(coarse, fine, refine_map, u):
    """Transfer nodal values of a P1 function from coarse to fine mesh.

    u is a vector of coarse vertex values or an (nv, k) block of k such
    columns. Exact for nested refinement: kept vertices keep their value
    and every midpoint receives the average of its edge endpoints.
    """
    refine_map.check(coarse, fine)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim not in (1, 2) or u.shape[0] != coarse.n_vertices:
        raise MeshError(f"coefficients of shape {u.shape}; expected length "
                        f"{coarse.n_vertices} along the first axis")
    return refine_map.prolongation @ u


# -- initial meshes ------------------------------------------------------


def _reorder_peaks(vertices, triangles):
    """Rotate each triangle so the longest edge is the refinement edge.

    Ties are broken by the smallest opposite-vertex (global) index. Only
    rotations are used, preserving orientation.
    """
    tri = np.array(triangles, dtype=np.int64)
    p = np.asarray(vertices, dtype=np.float64)[tri]
    lsq = np.empty((len(tri), 3))
    for i in range(3):
        d = p[:, (i + 1) % 3] - p[:, (i + 2) % 3]
        lsq[:, i] = d[:, 0] ** 2 + d[:, 1] ** 2
    best = lsq.max(axis=1)
    candidate = lsq >= best[:, None] * (1.0 - 1e-12)
    opp = np.where(candidate, tri, np.iinfo(np.int64).max)
    peak_local = np.argmin(opp, axis=1)
    rows = np.arange(len(tri))
    return np.column_stack([tri[rows, peak_local],
                            tri[rows, (peak_local + 1) % 3],
                            tri[rows, (peak_local + 2) % 3]])


_UNIT_SQUARE = (
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0, 1, 3], [2, 3, 1]]),
)

# (-1,1)^2 with the closed quadrant [0,1) x (-1,0] removed; all three
# square diagonals meet at the reentrant corner (0,0)
_L_SHAPE = (
    np.array([[-1.0, -1.0], [0.0, -1.0], [0.0, 0.0], [-1.0, 0.0],
              [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]]),
    np.array([[1, 2, 0], [3, 0, 2], [4, 5, 2], [6, 2, 5], [3, 2, 7],
              [6, 7, 2]]),
)


def build_initial_mesh(domain):
    """Construct the coarsest conforming mesh for a domain.

    Args:
        domain: "unit_square", "l_shape", or a (vertices, triangles) pair
            of array-likes for an explicit mesh.

    Returns:
        Mesh with refinement edges assigned by the longest-edge rule
        (ties broken by smallest opposite-vertex index), generation 0 and
        ancestor ids equal to the triangle indices.
    """
    if isinstance(domain, str):
        if domain == "unit_square":
            vertices, triangles = _UNIT_SQUARE
        elif domain == "l_shape":
            vertices, triangles = _L_SHAPE
        else:
            raise MeshError(f"unknown domain {domain!r}")
    else:
        try:
            vertices, triangles = domain
        except (TypeError, ValueError):
            raise MeshError("domain must be a name or a (vertices, "
                            "triangles) pair") from None
    return Mesh(vertices, _reorder_peaks(vertices, triangles))


# -- text dump -----------------------------------------------------------


def dumps(mesh):
    """The mesh as text: "nv nt", then nv lines "x y boundary_flag",
    then nt lines "i j k generation ancestor". Insertion order,
    reproducible."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles}"]
    for (x, y), b in zip(mesh.vertices, mesh.is_boundary_vertex):
        lines.append(f"{float(x)!r} {float(y)!r} {int(b)}")
    for (i, j, k), g, a in zip(mesh.triangles, mesh.generation,
                               mesh.ancestor):
        lines.append(f"{i} {j} {k} {g} {a}")
    return "\n".join(lines) + "\n"


def loads(text):
    """Parse the dump format back into a Mesh.

    Triangle lines carry "i j k generation ancestor". Older dumps without
    the ancestor column still load; their ancestors are reset to the
    triangle indices, as if the mesh were an initial mesh.
    """
    rows = [r.split() for r in text.strip().splitlines()]
    if not rows:
        raise MeshError("empty mesh dump")
    try:
        nv, nt = (int(c) for c in rows[0])
        if len(rows) != 1 + nv + nt:
            raise MeshError("mesh dump has wrong line count")
        if any(len(r) != 3 for r in rows[1:1 + nv]):
            raise MeshError("vertex lines need 3 columns")
        vertices = np.array([[float(r[0]), float(r[1])]
                             for r in rows[1:1 + nv]])
        flags = [int(r[2]) for r in rows[1:1 + nv]]
        if not set(flags) <= {0, 1}:
            raise MeshError("vertex boundary flags must be 0 or 1")
        flags = np.array(flags, dtype=bool)
        width = {len(r) for r in rows[1 + nv:]}
        if len(width) != 1 or width.pop() not in (4, 5):
            raise MeshError("triangle lines need 4 or 5 integer columns")
        body = np.array([[int(c) for c in r] for r in rows[1 + nv:]],
                        dtype=np.int64)
    except (ValueError, OverflowError) as exc:   # ids beyond int64 too
        raise MeshError(f"malformed mesh dump: {exc}") from exc
    ancestor = body[:, 4] if body.shape[1] == 5 else None
    mesh = Mesh(vertices, body[:, :3], generation=body[:, 3],
                ancestor=ancestor)
    if not np.array_equal(mesh.is_boundary_vertex, flags):
        raise MeshError("boundary flags in dump disagree with connectivity")
    return mesh


def load(path):
    with open(path, encoding="ascii") as fh:
        return loads(fh.read())
