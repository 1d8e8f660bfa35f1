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
from paroeig.linalg import ShiftedOperator, minres_solve
from paroeig.multilevel import (
    COARSE_DOFS,
    MultilevelPreconditioner,
    prolongation,
)

IDENTITY = Coefficients.identity()
VARIABLE = Coefficients(lambda x, y: (2.0 + np.sin(3.0 * x)) * np.eye(2),
                        lambda x, y: x * x + y * y)


def dense(precond, n):
    return np.column_stack([precond(e) for e in np.eye(n)])


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
        system = assemble(mesh, VARIABLE)
        precond = precond.extend(rmap, mesh, system)
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
    k_inv = np.linalg.inv(system.K.to_dense())
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
    precond = MultilevelPreconditioner(mesh, assemble(mesh, IDENTITY))
    mesh, rmap = pm.refine(mesh, [0, 1, 2])
    system = assemble(mesh, IDENTITY)
    precond = precond.extend(rmap, mesh, system)
    assert precond.n_levels == 1
    assert_allclose(dense(precond, system.n_dofs),
                    np.linalg.inv(system.K.to_dense()), atol=1e-12)


def test_empty_refinement_keeps_the_preconditioner():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    precond = MultilevelPreconditioner(mesh, assemble(mesh, IDENTITY))
    same, rmap = pm.refine(mesh, [])
    assert precond.extend(rmap, same, assemble(same, IDENTITY)) is precond


@pytest.mark.parametrize("ell", [1, 2])
def test_prolongation_matches_interpolate(ell):
    rng = np.random.default_rng(ell)
    coarse, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 3)
    marked = rng.choice(coarse.n_triangles, 10, replace=False)
    fine, rmap = pm.refine(coarse, marked, ell=ell)
    u = rng.standard_normal(coarse.n_vertices)
    assert_allclose(prolongation(rmap) @ u,
                    pm.interpolate(coarse, fine, rmap, u), rtol=0,
                    atol=1e-15)


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
        system = assemble(mesh, IDENTITY)
        precond = precond.extend(rmap, mesh, system)
        out.append((system, precond))
    return out


def minres_iterations(system, precond):
    op = ShiftedOperator(system.K, system.M, 5.0)
    rhs = system.M.matvec(np.ones(system.n_dofs))
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
