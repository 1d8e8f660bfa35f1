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

Mesh(...) builds the edge table from the triangles and checks every
input (flipped or duplicate triangles, hanging nodes, unused vertices);
loads() goes through it too. refine() instead carries the coarse mesh's
tables over: kept triangles keep their rows, kept edges their lengths
and normals, and only the halves of split edges and the cut triangles'
interior edges are built and measured, then merged into the kept edges
in lexicographic order; each edge's triangles are read off the fine
tri_edges by Mesh()'s rule. The output is conforming by construction, so
refine() checks only what it makes: the closure and each child's
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._checks import count, instance, integer_array, real_array, whole_numbers


class MeshError(ValueError):
    """Invalid mesh input or refinement request."""


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _edge_geometry(vertices, edges):
    """(lengths, unit normals) of the (n, 2) sorted vertex pairs edges:
    normal e is edge e's direction, from its lower vertex id to its
    higher, turned clockwise."""
    d = (np.take(vertices, edges[:, 1], axis=0)
         - np.take(vertices, edges[:, 0], axis=0))
    lengths = np.hypot(d[:, 0], d[:, 1])
    return lengths, np.column_stack([d[:, 1], -d[:, 0]]) / lengths[:, None]


def _edge_tris(tri_edges, n_edges):
    """(n_edges, 2) lowest and highest id of each edge's triangles, -1
    second on an edge with one triangle (a boundary edge)."""
    tri = np.repeat(np.arange(len(tri_edges)), 3)
    low, high = np.full(n_edges, len(tri_edges)), np.full(n_edges, -1)
    np.minimum.at(low, tri_edges.ravel(), tri)
    np.maximum.at(high, tri_edges.ravel(), tri)
    return np.column_stack([low, np.where(high > low, high, -1)])


# every array a Mesh holds; all are read-only
_TABLES = ("vertices", "triangles", "generation", "ancestor", "edges",
           "tri_edges", "edge_tris", "edge_lengths", "edge_normals",
           "is_boundary_vertex")


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
        edge_tris: (ne, 2) incident triangle ids, lower triangle id
            first, -1 second on the boundary.
        edge_normals: (ne, 2) unit normals, perpendicular to each edge
            (its direction from edges[e, 0] to edges[e, 1] turned
            clockwise); no side is preferred, since the estimator only
            squares the flux jumps they measure.
        is_boundary_vertex: (nv,) bool.

    Input that is not a conforming mesh over all its vertices (hanging
    nodes and unused vertices included) raises MeshError.
    """

    def __init__(self, vertices, triangles, generation=None, ancestor=None):
        self.vertices = real_array(vertices, "vertices", MeshError, copy=True)
        self.triangles = whole_numbers(triangles, "triangles", MeshError)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        # NaN fails too; beyond 1e150 the element geometry overflows
        if not np.abs(self.vertices).max(initial=0.0) < 1e150:
            raise MeshError("vertices must be finite and below 1e150")
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
        gen = np.zeros(nt) if generation is None else generation
        anc = np.arange(nt) if ancestor is None else ancestor
        self.generation = whole_numbers(gen, "generations", MeshError)
        self.ancestor = whole_numbers(anc, "ancestor ids", MeshError)
        if self.generation.shape != (nt,) or self.ancestor.shape != (nt,):
            raise MeshError("generation and ancestor need one entry per "
                            "triangle")
        if self.ancestor.min() < 0:
            raise MeshError("negative ancestor index")
        if self.generation.min() < 0:
            raise MeshError("negative generation")
        self._freeze()

    @classmethod
    def _from_tables(cls, **tables):
        """A Mesh of the given tables (every name in _TABLES), which the
        caller built conforming: no check runs."""
        mesh = object.__new__(cls)
        for name in _TABLES:
            setattr(mesh, name, tables[name])
        mesh._freeze()
        return mesh

    def _freeze(self):
        for name in _TABLES:
            getattr(self, name).setflags(write=False)

    # -- construction helpers -------------------------------------------

    def _build_edge_table(self):
        nv, nt = self.n_vertices, self.n_triangles
        t = self.triangles
        # local edge i is opposite local vertex i; pair 3 * k + i is local
        # edge i of triangle k
        a = t[:, [1, 2, 0]].ravel()
        b = t[:, [2, 0, 1]].ravel()
        codes, inv, counts = np.unique(
            np.minimum(a, b) * np.int64(nv) + np.maximum(a, b),
            return_inverse=True, return_counts=True)
        self.edges = np.column_stack([codes // nv, codes % nv])
        self.tri_edges = inv.reshape(nt, 3)
        # two triangles that share two edges share all three vertices
        low = np.sort(self.tri_edges, axis=1)
        if len(np.unique(low[:, 0] * len(codes) + low[:, 1])) < nt:
            raise MeshError("duplicate triangle (same vertex set twice)")
        if counts.max() > 2:
            raise MeshError("non-conforming input: an edge is shared by "
                            "more than two triangles")
        self.edge_tris = _edge_tris(self.tri_edges, len(codes))

        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        bnd_edges = self.edges[self.edge_tris[:, 1] < 0]
        self.is_boundary_vertex[bnd_edges.ravel()] = True
        self._check_hanging_nodes(bnd_edges)
        self.edge_lengths, self.edge_normals = _edge_geometry(
            self.vertices, self.edges)

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


@dataclass(frozen=True, eq=False)
class RefineMap:
    """What one refine() call did: which triangles split and which
    vertices appeared.

    Attributes:
        child_offsets: (nt_coarse + 1,) the children of coarse triangle t
            are arange(child_offsets[t], child_offsets[t + 1]). A coarse
            triangle with exactly one child was not cut: that child is
            the triangle kept whole, with the same vertex ids in the same
            order (ElementData.extend copies its rows on this).
        prolongation: (nv_fine, nv_coarse) CSR matrix of the nodal
            transfer: kept vertices copy their value and each midpoint
            averages its edge endpoints. The midpoints follow the coarse
            vertices in the order refine() appended them.
    """
    child_offsets: np.ndarray
    prolongation: sp.csr_matrix

    def check(self, coarse, fine):
        """Raise MeshError unless this map leads from coarse to fine."""
        instance(coarse, Mesh, "coarse", MeshError)
        instance(fine, Mesh, "fine", MeshError)
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


# The children of a cut triangle (v0, v1, v2), as rows of the vertex
# symbols 0..5 = (v0, v1, v2, M0, M1, M2) where Mi is the midpoint of the
# edge opposite vi, for each kind of cut: the refinement edge alone, with
# the edge (v0, v1), with the edge (v2, v0), and all three edges. The
# kind is m2 + 2 * m1, whether the edges opposite v2 and v1 are cut too.
_CHILDREN = (((3, 0, 1), (3, 2, 0)),
             ((5, 3, 0), (5, 1, 3), (3, 2, 0)),
             ((3, 0, 1), (4, 3, 2), (4, 0, 3)),
             ((5, 3, 0), (5, 1, 3), (4, 3, 2), (4, 0, 3)))
# the children's edges as pairs of vertex symbols: the parent's edges
# opposite v0, v1 and v2 kept whole; the halves of those three edges,
# each at its first end, then at its second; the interior edges from M0
# to v0, M1 and M2
_EDGE_SYMBOLS = ((1, 2), (2, 0), (0, 1),
                 (1, 3), (2, 3), (2, 4), (0, 4), (0, 5), (1, 5),
                 (0, 3), (3, 4), (3, 5))


def _child_tables():
    """The children of all kinds of cut stacked as rows: vertex symbols
    (c, 3), edge symbols (c, 3) with local edge j opposite local vertex
    j, and generation steps (c,); and the first row of each kind."""
    symbol = {frozenset(pair): s for s, pair in enumerate(_EDGE_SYMBOLS)}
    vertices = np.array([child for kind in _CHILDREN for child in kind])
    edges = [[symbol[frozenset((v[(j + 1) % 3], v[(j + 2) % 3]))]
              for j in range(3)] for v in vertices.tolist()]
    # a child whose peak is M1 or M2 is its parent bisected twice
    step = np.where(vertices[:, 0] == 3, 1, 2)
    first = np.cumsum([0] + [len(c) for c in _CHILDREN[:-1]])
    return vertices, np.array(edges), step, first


_CHILD_VERTICES, _CHILD_EDGES, _CHILD_STEP, _KIND_FIRST = _child_tables()


def refine(mesh, marked):
    """Bisect every marked triangle once and close the mesh.

    One round of newest-vertex bisection: the refinement edge of every
    marked triangle is split, the closure marks the refinement edges
    that conformity then needs, and every triangle is cut along its
    marked edges (2, 3 or 4 children). Marked generations increase by at
    least 1.

    The fine mesh's tables are built from the coarse mesh's, so the work
    beyond copying scales with the cut triangles. A kept triangle keeps
    its row; a kept edge keeps its length and normal under a new id; a
    split edge becomes its two halves, and each cut triangle adds its
    interior edges; only those new edges are measured, then merged into
    the kept ones in lexicographic order. Each edge's triangles are read
    off the fine tri_edges as Mesh() reads them. The output is
    conforming by construction, so Mesh's whole-mesh input checks do not
    run: refine checks that the closure marked every refinement edge it
    needs and that every child has positive signed area, and raises
    MeshError otherwise.

    Args:
        mesh: conforming Mesh.
        marked: iterable of integer triangle indices to refine; a
            boolean mask or a fractional index raises MeshError.

    Returns:
        (fine_mesh, refine_map). An empty marked set gives a copy of the
        mesh and a map that adds no vertex.
    """
    instance(mesh, Mesh, "mesh", MeshError)
    marked = integer_array(marked, "marked triangle indices", MeshError)
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

    split = np.flatnonzero(edge_marked)
    nv, k = mesh.n_vertices, len(split)
    new_id = np.full(ne, -1, dtype=np.int64)
    new_id[split] = mids = nv + np.arange(k)
    vertex_parents = np.take(mesh.edges, split, axis=0)
    ends = np.take(mesh.vertices, vertex_parents, axis=0)
    vertices = np.concatenate([mesh.vertices,
                               0.5 * (ends[:, 0] + ends[:, 1])])

    m = edge_marked[mesh.tri_edges]          # (nt, 3): ref, opp-1, opp-2
    if ((m[:, 1] | m[:, 2]) & ~m[:, 0]).any():
        raise MeshError("closure failed to mark a refinement edge")
    nchild = 1 + m.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(nchild)])

    # the cut triangles' vertex ids by symbol; per child, its parent (an
    # index into cut) and its row in the _CHILD_* tables
    cut = np.flatnonzero(m[:, 0])
    te_cut = np.take(mesh.tri_edges, cut, axis=0)
    corners = np.take(mesh.triangles, cut, axis=0)
    by_symbol = np.concatenate([corners, new_id[te_cut]], axis=1)
    children = np.flatnonzero(np.repeat(m[:, 0], nchild))
    parent = np.repeat(np.arange(len(cut)), nchild[cut])
    row = (_KIND_FIRST[m[cut, 2] + 2 * m[cut, 1]][parent] + children
           - offsets[cut][parent])
    child_tri = np.take(by_symbol, 6 * parent[:, None]
                        + np.take(_CHILD_VERTICES, row, axis=0))
    x, y = vertices[:, 0][child_tri], vertices[:, 1][child_tri]
    if ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]) <= 0.0).any():
        raise MeshError("refinement made a flipped or degenerate triangle")

    # new edges, as sorted pairs: each split edge's halves at its lower
    # and at its higher end, then each cut triangle's interior edges
    # from M0 (to v0 always, to M1 and M2 where they exist)
    m0 = by_symbol[:, 3:4]
    inner = by_symbol[:, 3:] >= 0
    lo = np.concatenate([vertex_parents[:, 0], vertex_parents[:, 1],
                         np.minimum(m0, by_symbol[:, [0, 4, 5]])[inner]])
    hi = np.concatenate([mids, mids,
                         np.maximum(m0, by_symbol[:, [0, 4, 5]])[inner]])
    # merged into the kept edges, whose codes are sorted already
    nv_fine = nv + k
    kept = np.flatnonzero(~edge_marked)
    kept_codes = (mesh.edges[:, 0] * nv_fine + mesh.edges[:, 1])[kept]
    codes = lo * nv_fine + hi
    order = np.argsort(codes)
    fid = np.empty(len(codes), dtype=np.int64)
    fid[order] = np.arange(len(codes)) + np.searchsorted(kept_codes,
                                                         codes[order])
    kept_fid = np.full(ne, -1, dtype=np.int64)
    kept_fid[kept] = np.arange(len(kept)) + np.searchsorted(codes[order],
                                                            kept_codes)

    # the fine ids of the cut triangles' edge symbols
    halves = np.full(2 * ne, -1, dtype=np.int64)
    halves[2 * split] = fid[:k]
    halves[2 * split + 1] = fid[k:2 * k]
    end = 2 * te_cut + (mesh.edges[te_cut, 1] == corners[:, [1, 2, 0]])
    interior = np.full(inner.shape, -1, dtype=np.int64)
    interior[inner] = fid[2 * k:]
    edge_ids = np.concatenate([
        kept_fid[te_cut],
        np.stack([halves[end], halves[end ^ 1]], axis=2).reshape(-1, 6),
        interior], axis=1)
    child_te = np.take(edge_ids, 12 * parent[:, None]
                       + np.take(_CHILD_EDGES, row, axis=0))

    pairs = np.column_stack([lo, hi])
    lengths, normals = _edge_geometry(vertices, pairs)

    # fine triangle f is coarse row tri_src[f] kept whole, or child
    # tri_src[f] - nt; fine edge e likewise coarse edge edge_src[e] or new
    # edge edge_src[e] - ne
    whole = np.flatnonzero(~m[:, 0])
    nt = mesh.n_triangles
    tri_src = np.empty(int(offsets[-1]), dtype=np.int64)
    tri_src[offsets[whole]] = whole
    tri_src[children] = nt + np.arange(len(children))
    edge_src = np.empty(ne - k + len(codes), dtype=np.int64)
    edge_src[kept_fid[kept]] = kept
    edge_src[fid] = ne + np.arange(len(codes))
    tri_edges = np.take(np.concatenate([kept_fid[mesh.tri_edges], child_te]),
                        tri_src, axis=0)

    fine = Mesh._from_tables(
        vertices=vertices,
        triangles=np.take(np.concatenate([mesh.triangles, child_tri]),
                          tri_src, axis=0),
        generation=np.concatenate([
            mesh.generation,
            mesh.generation[cut][parent] + _CHILD_STEP[row]])[tri_src],
        ancestor=np.concatenate([mesh.ancestor,
                                 mesh.ancestor[cut][parent]])[tri_src],
        edges=np.take(np.concatenate([mesh.edges, pairs]), edge_src,
                      axis=0),
        tri_edges=tri_edges, edge_tris=_edge_tris(tri_edges, len(edge_src)),
        edge_lengths=np.concatenate([mesh.edge_lengths, lengths])[edge_src],
        edge_normals=np.take(np.concatenate([mesh.edge_normals, normals]),
                             edge_src, axis=0),
        is_boundary_vertex=np.concatenate([mesh.is_boundary_vertex,
                                           mesh.edge_tris[split, 1] < 0]))
    return fine, RefineMap(offsets, _nodal_prolongation(nv, vertex_parents))


def uniform_refine(mesh, passes=1):
    """Refine every triangle once per pass, passes a non-negative
    integer. Returns (mesh, [RefineMap...])."""
    instance(mesh, Mesh, "mesh", MeshError)
    maps = []
    for _ in range(count(passes, "passes", MeshError)):
        mesh, rmap = refine(mesh, np.arange(mesh.n_triangles))
        maps.append(rmap)
    return mesh, maps


def interpolate(coarse, fine, refine_map, u):
    """Transfer nodal values of a P1 function from coarse to fine mesh.

    u is a vector of coarse vertex values or an (nv, k) block of k such
    columns. Exact for nested refinement: kept vertices keep their value
    and every midpoint receives the average of its edge endpoints.
    """
    instance(refine_map, RefineMap, "refine_map", MeshError)
    refine_map.check(coarse, fine)
    u = real_array(u, "coefficients", MeshError)
    if u.ndim not in (1, 2) or u.shape[0] != coarse.n_vertices:
        raise MeshError(f"coefficients of shape {u.shape}; expected length "
                        f"{coarse.n_vertices} along the first axis")
    return refine_map.prolongation @ u


# -- initial meshes ------------------------------------------------------


def _reorder_peaks(mesh):
    """mesh's triangles, each rotated so the longest edge is the
    refinement edge.

    Ties are broken by the smallest opposite-vertex (global) index. Only
    rotations are used, preserving orientation.
    """
    tri = mesh.triangles
    p = mesh.vertices[tri]
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
    mesh = Mesh(vertices, triangles)        # checked before the rotation
    return Mesh(mesh.vertices, _reorder_peaks(mesh))


# -- text dump -----------------------------------------------------------


def dumps(mesh):
    """The mesh as text: "nv nt", then nv lines "x y boundary_flag",
    then nt lines "i j k generation ancestor". Insertion order,
    reproducible."""
    instance(mesh, Mesh, "mesh", MeshError)
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
    instance(text, str, "text", MeshError)
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
