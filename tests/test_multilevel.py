"""The multilevel preconditioner against dense oracles and MINRES counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from paroeig import mesh as pm
from paroeig.adapt import dorfler_mark
from paroeig.assembly import Coefficients, assemble
from paroeig.estimator import Indicators
from paroeig.linalg import minres_solve
from paroeig.multilevel import COARSE_DOFS, MultilevelPreconditioner

IDENTITY = Coefficients.identity()
VARIABLE = Coefficients(lambda x, y: (2.0 + np.sin(3.0 * x)) * np.eye(2),
                        lambda x, y: x * x + y * y)


def dense(precond, n):
    return np.column_stack([precond(e) for e in np.eye(n)])


def free_prolongation(rmap, coarse_sys, fine_sys):
    """The nodal prolongation between the free dofs of two systems."""
    return rmap.prolongation[fine_sys.free_dofs][:, coarse_sys.free_dofs]


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), refinements=st.integers(1, 3),
       fraction=st.floats(0.2, 1.0))
def test_symmetric_positive_definite_on_random_hierarchies(
        seed, refinements, fraction):
    rng = np.random.default_rng(seed)
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 8)
    system = assemble(mesh, VARIABLE)
    assert system.n_dofs <= COARSE_DOFS
    precond = MultilevelPreconditioner(mesh, system)
    for _ in range(refinements):
        count = max(1, int(fraction * mesh.n_triangles))
        marked = rng.choice(mesh.n_triangles, count, replace=False)
        mesh, rmap = pm.refine(mesh, marked)
        coarse_sys, system = system, assemble(mesh, VARIABLE)
        precond = precond.extend(
            free_prolongation(rmap, coarse_sys, system), mesh, system)
    x, y = rng.standard_normal((2, system.n_dofs))
    bx, by = precond(x), precond(y)
    scale = np.linalg.norm(x) * np.linalg.norm(by) \
        + np.linalg.norm(y) * np.linalg.norm(bx)
    assert abs(x @ by - y @ bx) <= 1e-12 * scale
    assert x @ bx > 0.0
    assert y @ by > 0.0


def test_coarse_only_hierarchy_is_the_exact_inverse():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 4)
    system = assemble(mesh, VARIABLE)
    precond = MultilevelPreconditioner(mesh, system)
    assert precond.n_levels == 1
    k_inv = np.linalg.inv(system.K.toarray())
    assert_allclose(dense(precond, system.n_dofs), k_inv, rtol=0,
                    atol=1e-12 * np.abs(k_inv).max())


def test_large_first_mesh_gets_a_diagonal_coarse_solve():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 10)
    system = assemble(mesh, IDENTITY)
    assert system.n_dofs > COARSE_DOFS
    precond = MultilevelPreconditioner(mesh, system)
    r = np.random.default_rng(0).standard_normal(system.n_dofs)
    assert_allclose(precond(r), r / system.K.diagonal(), rtol=1e-15)


def test_small_meshes_restart_the_hierarchy():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    coarse_sys = assemble(mesh, IDENTITY)
    precond = MultilevelPreconditioner(mesh, coarse_sys)
    mesh, rmap = pm.refine(mesh, [0, 1, 2])
    system = assemble(mesh, IDENTITY)
    precond = precond.extend(free_prolongation(rmap, coarse_sys, system),
                             mesh, system)
    assert precond.n_levels == 1
    assert_allclose(dense(precond, system.n_dofs),
                    np.linalg.inv(system.K.toarray()), atol=1e-12)


def test_empty_refinement_keeps_the_preconditioner():
    # a restarted hierarchy (small mesh), and one with a level above a
    # Jacobi coarse solve
    small, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    coarse, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 10)
    large, rmap = pm.refine(coarse, [0, 1])
    coarse_sys, large_sys = (assemble(m, IDENTITY) for m in (coarse, large))
    small_sys = assemble(small, IDENTITY)
    hierarchies = [
        (small, small_sys, MultilevelPreconditioner(small, small_sys)),
        (large, large_sys, MultilevelPreconditioner(coarse, coarse_sys)
         .extend(free_prolongation(rmap, coarse_sys, large_sys), large,
                 large_sys))]
    assert hierarchies[1][2].n_levels == 2
    for mesh, before, precond in hierarchies:
        same, empty = pm.refine(mesh, [])
        system = assemble(same, IDENTITY)
        kept = precond.extend(free_prolongation(empty, before, system),
                              same, system)
        assert np.array_equal(dense(kept, system.n_dofs),
                              dense(precond, system.n_dofs))


@settings(max_examples=10, deadline=None)
@given(domain=st.sampled_from([("unit_square", 10), ("l_shape", 8)]),
       picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                               max_size=60), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_transfers_are_nodal_interpolation(domain, picks, seed):
    """After any sequence of refine() calls, interpolate reproduces
    linear functions, and every preconditioner level prolongs free dofs
    as interpolate does through the refinements merged into it."""
    rng = np.random.default_rng(seed)
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh(domain[0]),
                                domain[1])
    meshes, systems, maps = [mesh], [assemble(mesh, IDENTITY)], []
    assert systems[0].n_dofs > COARSE_DOFS       # no restart below
    precond = MultilevelPreconditioner(mesh, systems[0])
    for pick in picks:
        coarse = meshes[-1]
        fine, rmap = pm.refine(coarse, np.array(pick) % coarse.n_triangles)
        a, b, c = rng.standard_normal(3)

        def linear(m):
            return a + b * m.vertices[:, 0] + c * m.vertices[:, 1]

        assert_allclose(pm.interpolate(coarse, fine, rmap, linear(coarse)),
                        linear(fine), rtol=0,
                        atol=1e-12 * (abs(a) + abs(b) + abs(c)))
        systems.append(assemble(fine, IDENTITY))
        precond = precond.extend(
            free_prolongation(rmap, systems[-2], systems[-1]), fine,
            systems[-1])
        meshes.append(fine)
        maps.append(rmap)
    index = {m.n_vertices: k for k, m in enumerate(meshes)}
    start = index[precond._coarse_vertices]
    for level in precond._levels:
        stop = index[level.n_vertices]
        u = rng.standard_normal(systems[start].n_dofs)
        full = np.zeros(meshes[start].n_vertices)
        full[systems[start].free_dofs] = u
        for k in range(start, stop):
            full = pm.interpolate(meshes[k], meshes[k + 1], maps[k], full)
        assert_allclose(level.prolong @ u, full[systems[stop].free_dofs],
                        rtol=0, atol=1e-14 * np.abs(u).max())
        start = stop
    assert start == len(meshes) - 1


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


@pytest.mark.parametrize("ell", [1, 2])
def test_prolongation_matches_interpolate(ell):
    """ell successive refine() calls: the product of the maps'
    prolongation matrices and the chained interpolate() both evaluate
    the coarse P1 function at every fine vertex."""
    rng = np.random.default_rng(ell)
    coarse, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 3)
    u = rng.standard_normal(coarse.n_vertices)
    fine, chained = coarse, u
    product = np.eye(coarse.n_vertices)
    for _ in range(ell):
        marked = rng.choice(fine.n_triangles, 10, replace=False)
        mesh, rmap = pm.refine(fine, marked)
        chained = pm.interpolate(fine, mesh, rmap, chained)
        product = rmap.prolongation @ product
        fine = mesh
    assert fine.n_vertices > coarse.n_vertices
    assert_allclose(product @ u, chained, rtol=0, atol=1e-15)
    assert_allclose(chained, p1_evaluate(coarse, u, fine.vertices),
                    rtol=0, atol=1e-13 * np.abs(u).max())


@pytest.fixture(scope="module")
def graded_l_shape():
    """Meshes graded toward the reentrant corner, as an adaptive run
    would make them: Dorfler marking of h_T^2 r_T^(-2/3)."""
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    system = assemble(mesh, IDENTITY)
    precond = MultilevelPreconditioner(mesh, system)
    out = []
    while system.n_dofs < 14000:
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        eta = mesh.diameters() ** 2 * np.hypot(*cent.T) ** (-2.0 / 3.0)
        marked = dorfler_mark(Indicators(eta, float(eta.sum())), 0.5)
        mesh, rmap = pm.refine(mesh, marked)
        coarse_sys, system = system, assemble(mesh, IDENTITY)
        precond = precond.extend(
            free_prolongation(rmap, coarse_sys, system), mesh, system)
        out.append((system, precond))
    return out


def minres_iterations(system, precond):
    op = system.K - 5.0 * system.M
    rhs = system.M @ np.ones(system.n_dofs)
    res = minres_solve(op, rhs, tol=1e-8, precond=precond)
    assert res.flag == "converged"
    return res.iterations


def test_iterations_stay_flat_on_graded_meshes(graded_l_shape):
    small = next(s for s in graded_l_shape if s[0].n_dofs >= 3000)
    large = next(s for s in graded_l_shape
                 if s[0].n_dofs >= 4 * small[0].n_dofs)
    assert large[1].n_levels >= 3
    plain = [minres_iterations(s, None) for s, _ in (small, large)]
    ours = [minres_iterations(s, p) for s, p in (small, large)]
    assert plain[1] >= 1.5 * plain[0]       # the sequence is a real test
    assert ours[1] < 1.5 * ours[0]
    assert ours[1] < plain[1] / 4


def test_levels_merge_until_vertices_double(graded_l_shape):
    # about 20 refinements, each adding a few percent of vertices
    system, precond = graded_l_shape[-1]
    assert len(graded_l_shape) > 12
    assert precond.n_levels <= 2 + np.log2(system.n_dofs / COARSE_DOFS)
