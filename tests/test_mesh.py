"""Tests for conforming meshes and newest-vertex bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import descendants, inradii, similarity_class_counts
from paroeig import mesh as pm
from paroeig.assembly import Coefficients, assemble

# small scalene fixtures exercise the non-isoceles similarity classes
SCALENE = (np.array([[0.0, 0.0], [1.3, 0.1], [0.2, 0.9]]),
           np.array([[0, 1, 2]]))
SCALENE_PAIR = (np.array([[0.0, 0.0], [1.3, 0.1], [0.2, 0.9], [1.5, 1.2]]),
                np.array([[0, 1, 2], [1, 3, 2]]))


def test_unit_square_initial():
    m = pm.build_initial_mesh("unit_square")
    assert m.n_triangles == 2
    assert m.n_vertices == 4
    # both refinement edges are the shared diagonal
    assert set(m.triangles[0, 1:]) == set(m.triangles[1, 1:])
    assert m.is_boundary_vertex.all()
    assert_allclose(m.signed_areas(), [0.5, 0.5])


def test_l_shape_initial():
    m = pm.build_initial_mesh("l_shape")
    assert m.n_triangles == 6
    assert m.n_vertices == 8
    assert_allclose(m.signed_areas().sum(), 3.0)
    corner = np.nonzero((m.vertices == 0.0).all(axis=1))[0][0]
    # every square diagonal (refinement edge) meets the reentrant corner
    assert (m.triangles[:, 1:] == corner).any(axis=1).all()


def test_explicit_flipped_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(pm.MeshError, match="flipped"):
        pm.build_initial_mesh((v, np.array([[0, 2, 1]])))


def test_explicit_duplicate_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(pm.MeshError, match="duplicate"):
        pm.Mesh(v, np.array([[0, 1, 2], [1, 2, 0]]))


def test_duplicate_rejected_when_its_edges_have_three_triangles():
    # every edge of triangle 0 has a neighbour between it and its copy,
    # 4, in the sorted edge order
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                  [-1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(pm.MeshError, match="duplicate"):
        pm.Mesh(v, np.array([[0, 1, 2], [1, 3, 2], [0, 2, 4], [0, 5, 1],
                             [1, 2, 0]]))


def test_hanging_node_between_boundary_vertices_rejected():
    # vertex 4 splits the diagonal (0, 2) for the two triangles above it
    # but not for the one below; it used to become a Dirichlet vertex
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                  [0.5, 0.5]])
    with pytest.raises(pm.MeshError,
                       match=r"hanging node: vertex 4 lies on edge \(0, 2\)"):
        pm.Mesh(v, [[0, 1, 2], [0, 4, 3], [4, 2, 3]])


def grid(nx, ny):
    """The rectangle [0, nx] x [0, ny], each unit square cut along its
    diagonal from (i, j) to (i + 1, j + 1); vertex (i, j) is j*(nx+1)+i."""
    vertices = np.array([[i, j] for j in range(ny + 1)
                         for i in range(nx + 1)], dtype=np.float64)
    triangles = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c, d = a + 1, a + nx + 2, a + nx + 1
            triangles += [[a, b, c], [a, c, d]]
    return vertices, np.array(triangles)


def test_interior_hanging_node_rejected():
    vertices, triangles = grid(3, 2)
    m = pm.Mesh(vertices, triangles)
    assert not m.is_boundary_vertex[[5, 6]].any()
    # split triangle (5, 6, 10) above the interior edge (5, 6) at the
    # edge's midpoint, leaving the triangle below it whole
    above = int(np.nonzero((np.sort(triangles, axis=1)
                            == [5, 6, 10]).all(axis=1))[0][0])
    vertices = np.vstack([vertices, [[1.5, 1.0]]])
    triangles = np.vstack([np.delete(triangles, above, axis=0),
                           [[5, 12, 10], [12, 6, 10]]])
    with pytest.raises(pm.MeshError,
                       match=r"hanging node: vertex 12 lies on edge \(5, 6\)"):
        pm.Mesh(vertices, triangles)


def test_unused_vertex_rejected():
    # vertex 4 would be a free dof with a zero stiffness diagonal
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                  [0.5, 0.5]])
    with pytest.raises(pm.MeshError, match="vertex 4 is in no triangle"):
        pm.Mesh(v, [[0, 1, 2], [0, 2, 3]])


def test_longest_edge_tie_break():
    # equilateral: all edges tie, peak becomes the smallest opposite index
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    m = pm.build_initial_mesh((v, np.array([[1, 2, 0]])))
    assert_array_equal(m.triangles, [[0, 1, 2]])


def test_refine_single_marked_with_closure():
    m = pm.build_initial_mesh("unit_square")
    f, _ = pm.refine(m, [0])
    # closure forces the diagonal neighbour to split as well
    assert f.n_triangles == 4
    assert f.n_vertices == 5
    assert_array_equal(f.generation, [1, 1, 1, 1])


def test_refine_reads_an_iterator_once():
    m = pm.build_initial_mesh("unit_square")
    f, _ = pm.refine(m, (t for t in range(2)))
    assert f.n_triangles == 4


@pytest.mark.parametrize("marked", [
    np.arange(8) == 5,     # a mask, once cast to the ids 0 and 1
    [1.7],                 # once truncated to triangle 1
    np.array([5.0]),
])
def test_refine_rejects_masks_and_fractional_indices(marked):
    m, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 2)
    assert m.n_triangles == 8
    with pytest.raises(pm.MeshError, match="must be integers"):
        pm.refine(m, marked)


def test_refine_takes_integer_ids_of_any_width_and_empty_markings():
    m, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 2)
    f, _ = pm.refine(m, [5])
    for ids in (np.array([5], dtype=np.int32), [np.uint8(5)]):
        assert_array_equal(pm.refine(m, ids)[0].triangles, f.triangles)
    for empty in ([], (), np.array([])):       # [] reads as float64
        assert pm.refine(m, empty)[0].n_triangles == 8


@pytest.mark.parametrize("passes", [-1, 1.5, "2", None])
def test_uniform_refine_rejects_bad_passes(passes):
    m = pm.build_initial_mesh("unit_square")
    with pytest.raises(pm.MeshError, match="passes must be an integer "
                                           ">= 0"):
        pm.uniform_refine(m, passes)


def test_uniform_refine_takes_numpy_and_zero_passes():
    m = pm.build_initial_mesh("unit_square")
    same, maps = pm.uniform_refine(m, 0)
    assert same is m and maps == []
    assert pm.uniform_refine(m, np.int64(2))[0].n_triangles == 8


@pytest.mark.parametrize("field", ["triangles", "generation", "ancestor"])
@pytest.mark.parametrize("bad", [0.9, np.nan, np.inf])
def test_mesh_rejects_ids_that_are_not_whole_numbers(field, bad):
    m, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 1)
    args = dict(triangles=m.triangles.astype(float),
                generation=m.generation.astype(float),
                ancestor=m.ancestor.astype(float))
    # whole-valued floats, as np.loadtxt reads them, still load
    same = pm.Mesh(m.vertices, **args)
    for key, ids in args.items():
        assert_array_equal(getattr(same, key), ids)
        assert getattr(same, key).dtype == np.int64
    # [0, 1, 2.9] used to become vertex 2 without an error
    args[field] = args[field].copy()
    args[field].flat[-1] += bad
    with pytest.raises(pm.MeshError, match="must be whole numbers"):
        pm.Mesh(m.vertices, **args)


def test_refine_empty_marking_identity():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [])
    assert_array_equal(f.vertices, m.vertices)
    assert_array_equal(f.triangles, m.triangles)
    assert_array_equal(f.generation, m.generation)
    assert rmap.prolongation.shape == (4, 4)
    assert_array_equal(descendants(rmap, np.arange(2)), [0, 1])
    u = np.arange(4.0)
    assert_array_equal(pm.interpolate(m, f, rmap, u), u)


def test_refine_double_bisection_trace():
    # Hand trace of two refine() calls on the two-triangle square, the
    # second marking every child of the first. Call 1 splits the diagonal
    # at (.5,.5); the four children have the outer sides as refinement
    # edges, so call 2 splits those at the side midpoints. No closure is
    # triggered, giving 8 generation-2 triangles on 9 vertices.
    expected = {
        frozenset({(0.0, 0.0), (0.0, 0.5), (0.5, 0.5)}),
        frozenset({(0.0, 0.0), (0.5, 0.0), (0.5, 0.5)}),
        frozenset({(0.0, 0.5), (0.0, 1.0), (0.5, 0.5)}),
        frozenset({(0.0, 1.0), (0.5, 0.5), (0.5, 1.0)}),
        frozenset({(0.5, 0.0), (0.5, 0.5), (1.0, 0.0)}),
        frozenset({(0.5, 0.5), (0.5, 1.0), (1.0, 1.0)}),
        frozenset({(0.5, 0.5), (1.0, 0.0), (1.0, 0.5)}),
        frozenset({(0.5, 0.5), (1.0, 0.5), (1.0, 1.0)}),
    }
    m = pm.build_initial_mesh("unit_square")
    mid, first = pm.refine(m, [0, 1])
    f, second = pm.refine(mid, descendants(first, [0, 1]))
    assert f.n_triangles == 8
    assert f.n_vertices == 9
    assert_array_equal(f.generation, 2)
    got = {frozenset(map(tuple, f.vertices[t])) for t in f.triangles}
    assert got == expected
    # each original triangle owns exactly 4 descendants
    assert len(descendants(second, descendants(first, [0]))) == 4
    assert len(descendants(second, descendants(first, [1]))) == 4


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_marked_generation_increases_by_ell(ell):
    # ell successive refine() calls, each marking the descendants of the
    # first call's marked set, bisect every one of them ell times or more
    rng = np.random.default_rng(3)
    m = pm.build_initial_mesh("l_shape")
    for _ in range(3):
        marked = rng.choice(m.n_triangles, size=2, replace=False)
        before = m.generation[marked]
        kids = [[t] for t in marked]
        f = m
        for _ in range(ell):
            f, rmap = pm.refine(f, np.concatenate(kids))
            kids = [descendants(rmap, k) for k in kids]
        for k, g0 in zip(kids, before):
            assert (f.generation[k] >= g0 + ell).all()
        m = f


def test_conformity_after_random_refinements():
    rng = np.random.default_rng(11)
    m = pm.build_initial_mesh((SCALENE_PAIR))
    for _ in range(15):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 6), replace=False)
        m, _ = pm.refine(m, marked)
    counts = np.bincount(m.tri_edges.ravel(), minlength=len(m.edges))
    assert set(np.unique(counts)) <= {1, 2}


@settings(max_examples=25, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", SCALENE_PAIR]),
       picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                               max_size=6), max_size=8))
def test_edge_table_matches_a_dict_reference(domain, picks):
    m = pm.build_initial_mesh(domain)
    for pick in picks:
        m, _ = pm.refine(m, np.array(pick) % m.n_triangles)
    incident = {}
    for t, tri in enumerate(m.triangles.tolist()):
        for i in range(3):
            edge = tuple(sorted((tri[(i + 1) % 3], tri[(i + 2) % 3])))
            incident.setdefault(edge, []).append((t, tri[i]))
    edges = sorted(incident)
    assert m.edges.tolist() == [list(e) for e in edges]
    index = {e: k for k, e in enumerate(edges)}
    assert m.tri_edges.tolist() == [
        [index[tuple(sorted((tri[(i + 1) % 3], tri[(i + 2) % 3])))]
         for i in range(3)] for tri in m.triangles.tolist()]
    assert m.edge_tris.tolist() == [
        [t for t, _ in incident[e]] + [-1] * (2 - len(incident[e]))
        for e in edges]
    boundary = {v for e in edges if len(incident[e]) == 1 for v in e}
    assert np.nonzero(m.is_boundary_vertex)[0].tolist() == sorted(boundary)
    for k, e in enumerate(edges):
        a, b = m.vertices[list(e)]
        assert m.edge_lengths[k] == np.hypot(*(b - a))
        assert abs(m.edge_normals[k] @ (b - a)) <= 1e-12 * m.edge_lengths[k]
        assert abs(np.hypot(*m.edge_normals[k]) - 1.0) <= 1e-14
        # away from the first triangle, into the second
        for (t, opposite), sign in zip(incident[e], (-1.0, 1.0)):
            side = m.edge_normals[k] @ (m.vertices[opposite] - a)
            assert sign * side > 0.0


def test_similarity_classes_at_most_four_per_initial_triangle():
    rng = np.random.default_rng(7)
    m = pm.build_initial_mesh(SCALENE_PAIR)
    for _ in range(14):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 5), replace=False)
        m, _ = pm.refine(m, marked)
        assert max(similarity_class_counts(m).values()) <= 4


@settings(max_examples=30, deadline=None)
@given(domain=st.sampled_from(["unit_square", "l_shape", SCALENE_PAIR]),
       rounds=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                                 st.floats(0.0, 0.6)),
                       min_size=1, max_size=8))
def test_random_markings_keep_conformity_and_shape_classes(domain, rounds):
    # each round marks a random share of the current triangles; the
    # scalene pair is the start whose descendants take all four shapes
    m = pm.build_initial_mesh(domain)
    for seed, share in rounds:
        rng = np.random.default_rng(seed)
        m, _ = pm.refine(m, np.nonzero(rng.random(m.n_triangles) < share)[0])
        assert max(similarity_class_counts(m).values()) <= 4


def test_shape_regularity_bounded_by_initial_classes():
    # gamma* is determined by the (at most 4 per initial triangle) shape
    # classes; deep uniform refinement visits them all
    ref, _ = pm.uniform_refine(pm.build_initial_mesh(SCALENE_PAIR), 4)
    gamma_star = (ref.diameters() / inradii(ref)).max()
    rng = np.random.default_rng(5)
    m = pm.build_initial_mesh(SCALENE_PAIR)
    for _ in range(12):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 4), replace=False)
        m, _ = pm.refine(m, marked)
        ratio = (m.diameters() / inradii(m)).max()
        assert ratio <= gamma_star * (1.0 + 1e-9)


def test_child_areas_sum_to_parent():
    m = pm.build_initial_mesh(SCALENE_PAIR)
    f, rmap = pm.refine(m, [0])
    a0 = m.signed_areas()
    af = f.signed_areas()
    for parent in range(m.n_triangles):
        kids = descendants(rmap, [parent])
        assert abs(af[kids].sum() - a0[parent]) <= 1e-12 * a0[parent]


def test_interpolate_zero_and_hat():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [0])
    z = pm.interpolate(m, f, rmap, np.zeros(4))
    assert_array_equal(z, np.zeros(5))
    # hat at vertex 1 = (1,0): the split diagonal (1,3) is incident, so the
    # new midpoint receives 1/2
    hat = np.array([0.0, 1.0, 0.0, 0.0])
    u = pm.interpolate(m, f, rmap, hat)
    assert_allclose(u[:4], hat)
    assert_allclose(u[4], 0.5)
    # hat at vertex 0: not an endpoint of the split edge, midpoint stays 0
    u0 = pm.interpolate(m, f, rmap, np.array([1.0, 0.0, 0.0, 0.0]))
    assert_allclose(u0, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_interpolate_dimension_mismatch():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [0])
    with pytest.raises(pm.MeshError, match="length"):
        pm.interpolate(m, f, rmap, np.zeros(3))
    with pytest.raises(pm.MeshError, match="length"):
        pm.interpolate(m, f, rmap, np.zeros((3, 2)))
    with pytest.raises(pm.MeshError, match="length"):
        pm.interpolate(m, f, rmap, np.zeros((4, 2, 1)))
    with pytest.raises(pm.MeshError, match="does not chain"):
        pm.interpolate(f, f, rmap, np.zeros(5))
    with pytest.raises(pm.MeshError, match="fine mesh"):
        pm.interpolate(m, m, rmap, np.zeros(4))


def test_interpolate_composes_over_multiple_rounds():
    # three refine() calls, each bisecting the previous call's children
    m = pm.build_initial_mesh("unit_square")
    # x + 2y is linear: nodal transfer must reproduce it exactly, for a
    # vector and for each column of a block
    lin = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]
    u, block = lin, np.column_stack([lin, -lin])
    marked = np.arange(2)
    f = m
    for _ in range(3):
        coarse = f
        f, rmap = pm.refine(coarse, marked)
        u = pm.interpolate(coarse, f, rmap, u)
        block = pm.interpolate(coarse, f, rmap, block)
        marked = descendants(rmap, marked)
    assert_array_equal(f.generation, 3)
    want = f.vertices[:, 0] + 2.0 * f.vertices[:, 1]
    assert_allclose(u, want, rtol=0, atol=1e-15)
    assert_array_equal(block, np.column_stack([u, -u]))


def test_dump_roundtrip_and_determinism():
    m, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    text = pm.dumps(m)
    first = text.splitlines()[0]
    assert first == f"{m.n_vertices} {m.n_triangles}"
    assert pm.dumps(m) == text
    back = pm.loads(text)
    assert_array_equal(back.triangles, m.triangles)
    assert_allclose(back.vertices, m.vertices)
    assert_array_equal(back.generation, m.generation)


def test_dump_roundtrip_keeps_ancestors():
    m, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    assert m.n_triangles == 24 and m.ancestor.max() == 5
    back = pm.loads(pm.dumps(m))
    assert_array_equal(back.ancestor, m.ancestor)
    # per-element tables address the initial mesh through the ancestors
    coeffs = Coefficients(np.eye(2), np.arange(1.0, 7.0))
    ours, theirs = assemble(m, coeffs), assemble(back, coeffs)
    assert_array_equal(ours.K.toarray(), theirs.K.toarray())
    assert_array_equal(ours.M.toarray(), theirs.M.toarray())


def test_loads_four_column_dump_resets_ancestors():
    m, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    nv = m.n_vertices
    lines = pm.dumps(m).splitlines()
    lines[1 + nv:] = [r.rsplit(" ", 1)[0] for r in lines[1 + nv:]]
    back = pm.loads("\n".join(lines))
    assert_array_equal(back.triangles, m.triangles)
    assert_array_equal(back.generation, m.generation)
    assert_array_equal(back.ancestor, np.arange(m.n_triangles))


def test_loads_rejects_negative_ancestor():
    m, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 1)
    lines = pm.dumps(m).splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " -1"
    with pytest.raises(pm.MeshError, match="negative ancestor"):
        pm.loads("\n".join(lines))


def test_negative_generation_is_rejected_through_mesh_and_loads():
    m = pm.build_initial_mesh("unit_square")
    with pytest.raises(pm.MeshError, match="negative generation"):
        pm.Mesh(m.vertices, m.triangles, generation=[-3, 0])
    lines = pm.dumps(m).splitlines()
    i, j, k, _, a = lines[-1].split()
    lines[-1] = f"{i} {j} {k} -3 {a}"
    with pytest.raises(pm.MeshError, match="negative generation"):
        pm.loads("\n".join(lines))


@pytest.mark.parametrize("column", [0, 3, 4])
def test_loads_ids_beyond_int64_raise_mesh_error(column):
    # np.array(..., dtype=np.int64) raises OverflowError, not ValueError
    m = pm.build_initial_mesh("unit_square")
    lines = pm.dumps(m).splitlines()
    cells = lines[-1].split()
    cells[column] = str(10 ** 20)
    lines[-1] = " ".join(cells)
    with pytest.raises(pm.MeshError, match="malformed mesh dump"):
        pm.loads("\n".join(lines))


def test_mesh_ids_beyond_int64_raise_mesh_error():
    m = pm.build_initial_mesh("unit_square")
    triangles = m.triangles.tolist()
    triangles[-1][0] = 10 ** 20
    with pytest.raises(pm.MeshError, match="must fit in int64"):
        pm.Mesh(m.vertices, triangles)


@pytest.mark.parametrize("flag", ["2", "-1"])
def test_loads_rejects_boundary_flags_other_than_zero_or_one(flag):
    m = pm.build_initial_mesh("unit_square")
    lines = pm.dumps(m).splitlines()
    # every vertex of the square is a corner, so 1 is the right flag and
    # a non-zero 2 used to read as True and load
    lines[1] = lines[1][:-1] + flag
    with pytest.raises(pm.MeshError, match="must be 0 or 1"):
        pm.loads("\n".join(lines))


def test_mesh_rejects_misshaped_ancestor():
    m = pm.build_initial_mesh("unit_square")
    with pytest.raises(pm.MeshError, match="one entry per triangle"):
        pm.Mesh(m.vertices, m.triangles, ancestor=[0])


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1] + [lines[-1] + " 0"],       # ragged triangles
    lambda lines: lines[:1] + ["0.0 x 1"] + lines[2:],   # non-numeric
    lambda lines: lines[:1] + [lines[1] + " 7"] + lines[2:],  # 4-col vertex
    lambda lines: ["4"] + lines[1:],                     # bad header
    lambda lines: [],                                    # empty
])
def test_loads_malformed_dump_raises_mesh_error(edit):
    m = pm.build_initial_mesh("unit_square")
    lines = edit(pm.dumps(m).splitlines())
    with pytest.raises(pm.MeshError):
        pm.loads("\n".join(lines))


def test_loads_rejects_inconsistent_flags(tmp_path):
    m = pm.build_initial_mesh("unit_square")
    lines = pm.dumps(m).splitlines()
    lines[1] = lines[1][:-1] + "0"  # corner flagged interior
    with pytest.raises(pm.MeshError, match="flags"):
        pm.loads("\n".join(lines))


def test_h_max_and_diameters():
    m = pm.build_initial_mesh("unit_square")
    assert_allclose(m.h_max, np.sqrt(2.0))
    f, _ = pm.uniform_refine(m, 2)
    assert_allclose(f.h_max, np.sqrt(2.0) / 2.0)
