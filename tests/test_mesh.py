"""Tests for conforming meshes and newest-vertex bisection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from paroeig import mesh as pm

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
    assert set(m.refinement_edge(0)) == set(m.refinement_edge(1))
    assert m.is_boundary_vertex.all()
    assert_allclose(m.signed_areas(), [0.5, 0.5])
    m.assert_conforming()


def test_l_shape_initial():
    m = pm.build_initial_mesh("l_shape")
    assert m.n_triangles == 6
    assert m.n_vertices == 8
    assert_allclose(m.signed_areas().sum(), 3.0)
    corner = np.nonzero((m.vertices == 0.0).all(axis=1))[0][0]
    # every square diagonal (refinement edge) meets the reentrant corner
    for t in range(6):
        assert corner in m.refinement_edge(t)
    m.assert_conforming()


def test_explicit_flipped_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(pm.MeshError, match="flipped"):
        pm.build_initial_mesh((v, np.array([[0, 2, 1]])))


def test_explicit_duplicate_rejected():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(pm.MeshError, match="duplicate"):
        pm.Mesh(v, np.array([[0, 1, 2], [1, 2, 0]]))


def test_longest_edge_tie_break():
    # equilateral: all edges tie, peak becomes the smallest opposite index
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    m = pm.build_initial_mesh((v, np.array([[1, 2, 0]])))
    assert_array_equal(m.triangles, [[0, 1, 2]])


def test_refine_single_marked_with_closure():
    m = pm.build_initial_mesh("unit_square")
    f, _ = pm.refine(m, [0], ell=1)
    # closure forces the diagonal neighbour to split as well
    assert f.n_triangles == 4
    assert f.n_vertices == 5
    assert_array_equal(f.generation, [1, 1, 1, 1])
    f.assert_conforming()


def test_refine_reads_an_iterator_once():
    m = pm.build_initial_mesh("unit_square")
    f, _ = pm.refine(m, (t for t in range(2)), ell=1)
    assert f.n_triangles == 4
    f.assert_conforming()


def test_refine_empty_marking_identity():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [], ell=1)
    assert f is m
    assert rmap.rounds == ()


def test_refine_double_bisection_trace():
    # Hand trace of two bisection rounds on the two-triangle square with
    # both elements marked. Round 1 splits the diagonal at (.5,.5); the
    # four children have the outer sides as refinement edges, so round 2
    # splits those at the side midpoints. No closure is triggered, giving
    # 8 generation-2 triangles on 9 vertices.
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
    f, rmap = pm.refine(m, [0, 1], ell=2)
    assert f.n_triangles == 8
    assert f.n_vertices == 9
    assert_array_equal(f.generation, 2)
    got = {frozenset(map(tuple, f.vertices[t])) for t in f.triangles}
    assert got == expected
    # each original triangle owns exactly 4 descendants
    assert len(rmap.descendants([0])) == 4
    assert len(rmap.descendants([1])) == 4
    f.assert_conforming()


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_marked_generation_increases_by_ell(ell):
    rng = np.random.default_rng(3)
    m = pm.build_initial_mesh("l_shape")
    for _ in range(3):
        marked = rng.choice(m.n_triangles, size=2, replace=False)
        before = m.generation[marked]
        f, rmap = pm.refine(m, marked, ell=ell)
        for t, g0 in zip(marked, before):
            kids = rmap.descendants([t])
            assert (f.generation[kids] >= g0 + ell).all()
        m = f


def test_conformity_after_random_refinements():
    rng = np.random.default_rng(11)
    m = pm.build_initial_mesh((SCALENE_PAIR))
    for _ in range(15):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 6), replace=False)
        m, _ = pm.refine(m, marked, ell=1)
        m.assert_conforming()
    counts = np.bincount(m.tri_edges.ravel(), minlength=len(m.edges))
    assert set(np.unique(counts)) <= {1, 2}


def test_similarity_classes_at_most_four_per_initial_triangle():
    rng = np.random.default_rng(7)
    m = pm.build_initial_mesh(SCALENE_PAIR)
    for _ in range(14):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 5), replace=False)
        m, _ = pm.refine(m, marked, ell=1)
        assert max(m.similarity_class_counts().values()) <= 4


def test_shape_regularity_bounded_by_initial_classes():
    # gamma* is determined by the (at most 4 per initial triangle) shape
    # classes; deep uniform refinement visits them all
    ref, _ = pm.uniform_refine(pm.build_initial_mesh(SCALENE_PAIR), 4)
    gamma_star = (ref.diameters() / ref.inradii()).max()
    rng = np.random.default_rng(5)
    m = pm.build_initial_mesh(SCALENE_PAIR)
    for _ in range(12):
        marked = rng.choice(m.n_triangles,
                            size=max(1, m.n_triangles // 4), replace=False)
        m, _ = pm.refine(m, marked, ell=1)
        ratio = (m.diameters() / m.inradii()).max()
        assert ratio <= gamma_star * (1.0 + 1e-9)


def test_child_areas_sum_to_parent():
    m = pm.build_initial_mesh(SCALENE_PAIR)
    f, rmap = pm.refine(m, [0], ell=1)
    a0 = m.signed_areas()
    af = f.signed_areas()
    for parent in range(m.n_triangles):
        kids = rmap.descendants([parent])
        assert abs(af[kids].sum() - a0[parent]) <= 1e-12 * a0[parent]


def test_interpolate_zero_and_hat():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [0], ell=1)
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
    f, rmap = pm.refine(m, [0], ell=1)
    with pytest.raises(pm.MeshError, match="length"):
        pm.interpolate(m, f, rmap, np.zeros(3))


def test_interpolate_composes_over_multiple_rounds():
    m = pm.build_initial_mesh("unit_square")
    f, rmap = pm.refine(m, [0, 1], ell=3)
    # x + 2y is linear: nodal transfer must reproduce it exactly
    lin = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]
    u = pm.interpolate(m, f, rmap, lin)
    assert_allclose(u, f.vertices[:, 0] + 2.0 * f.vertices[:, 1],
                    rtol=0, atol=1e-15)


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
