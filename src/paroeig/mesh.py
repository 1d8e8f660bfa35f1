"""Conforming triangular meshes with newest-vertex bisection refinement.

The triangle vertex ordering carries the refinement rule: a row (p, a, b)
means the peak (newest vertex) is p and the refinement edge is the opposite
edge (a, b). Bisecting inserts the midpoint m of (a, b) and produces the
children (m, p, a) and (m, b, p), both with peak m, so the children's
refinement edges are the former edges (p, a) and (b, p) of the parent.
This is the classical scheme that keeps the number of similarity classes
per initial triangle bounded (by 4) and, with midpoints shared through a
global edge table, yields conforming meshes after closure.

Closure is performed per refinement round by the edge-marking fixpoint: a
triangle with any marked edge must have its refinement edge marked too.
Afterwards each triangle is split according to which of its edges carry a
midpoint (1, 2 or 3 marked edges give 2, 3 or 4 children), which bisects
every marked edge identically from both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid mesh input or refinement request."""


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _concat_ranges(starts, counts):
    """Concatenate integer ranges arange(starts[i], starts[i]+counts[i])."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or counts.sum() == 0:
        return np.empty(0, dtype=np.int64)
    total = counts.sum()
    out = np.ones(total, dtype=np.int64)
    first = np.cumsum(counts)[:-1]
    out[0] = starts[0]
    if first.size:
        out[first] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


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
    """

    def __init__(self, vertices, triangles, generation=None, ancestor=None):
        self.vertices = np.array(vertices, dtype=np.float64)
        self.triangles = np.array(triangles, dtype=np.int64)
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
        areas = self.signed_areas()
        if (areas <= 0.0).any():
            bad = int(np.argmax(areas <= 0.0))
            raise MeshError(f"triangle {bad} is flipped or degenerate "
                            f"(signed area {areas[bad]:.3e})")
        sets = np.sort(self.triangles, axis=1)
        if len(np.unique(sets, axis=0)) != nt:
            raise MeshError("duplicate triangle (same vertex set twice)")
        self.generation = (np.zeros(nt, dtype=np.int64) if generation is None
                           else np.array(generation, dtype=np.int64))
        self.ancestor = (np.arange(nt, dtype=np.int64) if ancestor is None
                         else np.array(ancestor, dtype=np.int64))
        self._build_edge_table()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self.generation.setflags(write=False)
        self.ancestor.setflags(write=False)

    # -- construction helpers -------------------------------------------

    def _build_edge_table(self):
        nv, nt = self.n_vertices, self.n_triangles
        t = self.triangles
        # local edge i is opposite local vertex i
        pairs = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]],
                         axis=1).reshape(-1, 2)
        pairs = np.sort(pairs, axis=1)
        codes = pairs[:, 0] * np.int64(nv) + pairs[:, 1]
        ucodes, inv, counts = np.unique(codes, return_inverse=True,
                                        return_counts=True)
        ne = len(ucodes)
        self.edges = np.column_stack([ucodes // nv, ucodes % nv])
        self.tri_edges = inv.reshape(nt, 3)
        if counts.max() > 2:
            raise MeshError("non-conforming input: an edge is shared by "
                            "more than two triangles")
        order = np.argsort(inv, kind="stable")
        tri_of = order // 3
        starts = np.searchsorted(inv[order], np.arange(ne))
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = tri_of[starts]
        two = counts == 2
        self.edge_tris[two, 1] = tri_of[starts[two] + 1]

        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        bnd_edges = self.edges[~two]
        self.is_boundary_vertex[bnd_edges.ravel()] = True

        # hanging-node check: every vertex lying on an edge interior would
        # have produced a >2-count or mismatched split, which np.unique on
        # exact midpoint pairs already rules out for meshes built here; an
        # explicit geometric test is intentionally not attempted.
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.column_stack([d[:, 1], -d[:, 0]]) / self.edge_lengths[:, None]
        cents = self.vertices[t].mean(axis=1)
        mids = 0.5 * (self.vertices[self.edges[:, 0]]
                      + self.vertices[self.edges[:, 1]])
        # orient: interior edges point from first into second triangle,
        # boundary edges outward
        to = np.where(two[:, None], cents[self.edge_tris[:, 1]] - mids,
                      mids - cents[self.edge_tris[:, 0]])
        flip = np.einsum("ij,ij->i", normals, to) < 0.0
        normals[flip] *= -1.0
        self.edge_normals = normals
        for arr in (self.edges, self.tri_edges, self.edge_tris,
                    self.edge_lengths, self.edge_normals,
                    self.is_boundary_vertex):
            arr.setflags(write=False)

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

    def inradii(self):
        areas = self.signed_areas()
        perim = self.edge_lengths[self.tri_edges].sum(axis=1)
        return 2.0 * areas / perim

    @property
    def h_max(self):
        return float(self.diameters().max())

    def interior_vertices(self):
        return np.nonzero(~self.is_boundary_vertex)[0]

    def interior_edges(self):
        return np.nonzero(self.edge_tris[:, 1] >= 0)[0]

    def refinement_edge(self, t):
        """Vertex pair of triangle t's refinement edge (opposite its peak)."""
        return tuple(int(v) for v in self.triangles[t, 1:])

    def assert_conforming(self):
        """Rebuild the edge table and check it agrees with the stored one."""
        twin = Mesh(self.vertices, self.triangles, self.generation,
                    self.ancestor)
        if not (np.array_equal(twin.edges, self.edges)
                and np.array_equal(twin.edge_tris, self.edge_tris)):
            raise MeshError("stored edge table inconsistent with triangles")
        counts = np.bincount(self.tri_edges.ravel(), minlength=len(self.edges))
        if counts.min() < 1 or counts.max() > 2:
            raise MeshError("edge incidence outside {1, 2}")

    def angles(self):
        """(nt, 3) interior angles at the three local vertices."""
        p = self.vertices[self.triangles]
        out = np.empty((self.n_triangles, 3))
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosv = np.einsum("ij,ij->i", u, v) / (
                np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
            out[:, i] = np.arccos(np.clip(cosv, -1.0, 1.0))
        return out

    def similarity_class_counts(self):
        """Distinct triangle shapes per initial ancestor.

        Shapes are compared by the sorted angle triple rounded to 1e-9
        radians. Returns a dict ancestor-id -> class count.
        """
        key = np.round(np.sort(self.angles(), axis=1) / 1e-9).astype(np.int64)
        rows = np.column_stack([self.ancestor, key])
        rows = np.unique(rows, axis=0)
        anc, counts = np.unique(rows[:, 0], return_counts=True)
        return {int(a): int(c) for a, c in zip(anc, counts)}


# -- refinement ----------------------------------------------------------


@dataclass(frozen=True)
class _Round:
    """One bisection round: who split and which vertices appeared."""
    n_coarse_vertices: int
    vertex_parents: np.ndarray   # (k, 2) endpoint ids of each new midpoint
    child_offsets: np.ndarray    # (nt_coarse + 1,) children of t are
    #                              arange(child_offsets[t], child_offsets[t+1])


@dataclass(frozen=True)
class RefineMap:
    """Parent-to-children bookkeeping for one refine() call."""
    rounds: tuple

    def descendants(self, tri_ids):
        """Final triangle ids descending from the given coarse ids."""
        ids = np.asarray(tri_ids, dtype=np.int64)
        for rnd in self.rounds:
            starts = rnd.child_offsets[ids]
            counts = rnd.child_offsets[ids + 1] - starts
            ids = _concat_ranges(starts, counts)
        return ids


def _refine_once(mesh, marked):
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

    fine = Mesh(vertices, tri, gen, anc)
    rnd = _Round(nv, vertex_parents, offsets)
    return fine, rnd


def refine(mesh, marked, ell=1):
    """Bisect every marked triangle at least ell times and close the mesh.

    Args:
        mesh: conforming Mesh.
        marked: iterable of triangle indices to refine.
        ell: bisection rounds applied to the marked elements (>= 1); each
            round bisects every current descendant of the marked set once,
            so marked generations increase by at least ell.

    Returns:
        (fine_mesh, refine_map). The map carries parent->children offsets
        and midpoint parentage for nodal solution transfer. An empty marked
        set returns the input mesh unchanged.
    """
    if ell < 1:
        raise MeshError("ell must be >= 1")
    if not isinstance(marked, np.ndarray):
        marked = list(marked)          # read an iterator exactly once
    ids = np.unique(np.asarray(marked, dtype=np.int64))
    if ids.size and (ids.min() < 0 or ids.max() >= mesh.n_triangles):
        raise MeshError("marked triangle index out of range")
    if ids.size == 0:
        return mesh, RefineMap(())
    rounds = []
    current = mesh
    target = ids
    for _ in range(ell):
        current, rnd = _refine_once(current, target)
        rounds.append(rnd)
        starts = rnd.child_offsets[target]
        counts = rnd.child_offsets[target + 1] - starts
        target = _concat_ranges(starts, counts)
    return current, RefineMap(tuple(rounds))


def uniform_refine(mesh, passes=1):
    """Refine every triangle once per pass. Returns (mesh, [RefineMap...])."""
    maps = []
    for _ in range(passes):
        mesh, rmap = refine(mesh, np.arange(mesh.n_triangles), ell=1)
        maps.append(rmap)
    return mesh, maps


def interpolate(coarse, fine, refine_map, u):
    """Transfer nodal values of a P1 function from coarse to fine mesh.

    Exact for nested refinement: kept vertices keep their value and every
    midpoint receives the average of its edge endpoints, in creation order.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (coarse.n_vertices,):
        raise MeshError(f"coefficient vector has length {u.shape}, "
                        f"expected ({coarse.n_vertices},)")
    out = u
    for rnd in refine_map.rounds:
        if len(out) != rnd.n_coarse_vertices:
            raise MeshError("refine_map does not chain from this mesh")
        nxt = np.empty(rnd.n_coarse_vertices + len(rnd.vertex_parents))
        nxt[:rnd.n_coarse_vertices] = out
        nxt[rnd.n_coarse_vertices:] = 0.5 * (nxt[rnd.vertex_parents[:, 0]]
                                             + nxt[rnd.vertex_parents[:, 1]])
        out = nxt
    if len(out) != fine.n_vertices:
        raise MeshError("refine_map does not lead to the given fine mesh")
    return out


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
    """Serialize to the plain text format (see dump)."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles}"]
    for (x, y), b in zip(mesh.vertices, mesh.is_boundary_vertex):
        lines.append(f"{float(x)!r} {float(y)!r} {int(b)}")
    for (i, j, k), g in zip(mesh.triangles, mesh.generation):
        lines.append(f"{i} {j} {k} {g}")
    return "\n".join(lines) + "\n"


def dump(mesh, path):
    """Write the mesh as text: "nv nt", then nv lines "x y boundary_flag",
    then nt lines "i j k generation". Insertion order, reproducible."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(mesh))


def loads(text):
    """Parse the dump format back into a Mesh (ancestors reset)."""
    rows = text.strip().splitlines()
    nv, nt = (int(s) for s in rows[0].split())
    if len(rows) != 1 + nv + nt:
        raise MeshError("mesh dump has wrong line count")
    vertices = np.array([[float(c) for c in r.split()[:2]]
                         for r in rows[1:1 + nv]])
    flags = np.array([int(r.split()[2]) for r in rows[1:1 + nv]], dtype=bool)
    body = np.array([[int(c) for c in r.split()]
                     for r in rows[1 + nv:]], dtype=np.int64)
    mesh = Mesh(vertices, body[:, :3], generation=body[:, 3])
    if not np.array_equal(mesh.is_boundary_vertex, flags):
        raise MeshError("boundary flags in dump disagree with connectivity")
    return mesh


def load(path):
    with open(path, encoding="ascii") as fh:
        return loads(fh.read())
