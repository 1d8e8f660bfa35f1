"""The multilevel preconditioner against dense oracles and MINRES counts."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import grown, p1_evaluate
from paroeig import mesh as pm
from paroeig.adapt import Level, dorfler_mark
from paroeig.assembly import Coefficients, assemble
from paroeig.estimator import Indicators
from paroeig.linalg import LinAlgError, minres_solve
from paroeig.multilevel import (
    COARSE_DOFS,
    GAP_FLOOR,
    MERGE_FACTOR,
    OMEGA,
    RESTART_DOFS,
    MultilevelPreconditioner,
)

IDENTITY = Coefficients.identity()
VARIABLE = Coefficients(
    lambda x, y: (2.0 + np.sin(3.0 * x))[:, None, None] * np.eye(2),
    lambda x, y: x * x + y * y)


def dense(precond, n, shift=0.0):
    """The matrix of B(shift): the identity as one block, every column
    on the one shift."""
    return precond.shifted([shift])(np.eye(n), np.zeros(n, dtype=int))


def apply(precond, r, shift=0.0):
    """B(shift) r for one vector r, as a one-column block."""
    return precond.shifted([shift])(r[:, None], np.zeros(1, dtype=int))[:, 0]


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
    level = Level.first(mesh, VARIABLE)
    assert level.system.n_dofs <= COARSE_DOFS
    for _ in range(refinements):
        nt = level.mesh.n_triangles
        level, _ = level.refine(
            rng.choice(nt, max(1, int(fraction * nt)), replace=False))
    x, y = rng.standard_normal((2, level.system.n_dofs))
    bx, by = apply(level.precond, x), apply(level.precond, y)
    scale = np.linalg.norm(x) * np.linalg.norm(by) \
        + np.linalg.norm(y) * np.linalg.norm(bx)
    assert abs(x @ by - y @ bx) <= 1e-12 * scale
    assert x @ bx > 0.0
    assert y @ by > 0.0


def smoothing_set(mesh, system, n_old):
    """Free dofs at vertices >= n_old or sharing a triangle edge with one."""
    new = np.arange(mesh.n_vertices) >= n_old
    near = new.copy()
    for a, b in ((0, 1), (1, 2), (2, 0)):
        tri = mesh.triangles[:, [a, b]]
        near[tri[new[tri[:, 1]], 0]] = True
        near[tri[new[tri[:, 0]], 1]] = True
    return np.flatnonzero(near[system.free_dofs])


def textbook_v_cycle(b_coarse, levels):
    """B_l = Rbar + (I - R K) P B_(l-1) P^T (I - K R) with Rbar = 2R - RKR
    and the l1-Jacobi R = OMEGA / sum_(j in S) |K_ij| on S, 0 elsewhere;
    levels lists the dense (K, P, S) of each level, coarsest first."""
    b = b_coarse
    for k, p, s in levels:
        r = np.zeros(len(k))
        r[s] = OMEGA / np.abs(k[np.ix_(s, s)]).sum(axis=1)
        rk = r[:, None] * k
        e = np.eye(len(k)) - rk
        b = 2.0 * np.diag(r) - rk * r + e @ p @ b @ p.T @ e.T
    return b


@pytest.mark.parametrize("case", ["two_levels", "merged", "grown"])
def test_v_cycle_matches_the_textbook_recursion(case):
    """dense(precond) is the symmetric V-cycle built from dense K, P and
    S: a Cholesky coarse solve under one level, under a level merged from
    two refinements and one more, and under a hierarchy grown by ten
    uniform passes from the initial mesh and one local refinement."""
    rng = np.random.default_rng(3)
    if case == "grown":
        hierarchy, steps = grown("unit_square", 10, VARIABLE)
        steps = [step.toarray() for step in steps]
    else:
        mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 8)
        hierarchy, steps = [Level.first(mesh, VARIABLE)], []
    fractions = {"two_levels": [0.5], "merged": [0.5, 0.1, 0.6],
                 "grown": [0.05]}[case]
    for fraction in fractions:
        nt = hierarchy[-1].mesh.n_triangles
        level, step = hierarchy[-1].refine(
            rng.choice(nt, int(fraction * nt), replace=False))
        hierarchy.append(level)
        steps.append(step.toarray())
    nv = [lv.mesh.n_vertices for lv in hierarchy]
    if case == "merged":
        # the second refinement joins the first level, the third starts
        # a new one
        assert nv[1] < 2 * nv[0] <= nv[2]
        ends = [0, 2, 3]
    elif case == "grown":
        # pass 6 is the last mesh of at most RESTART_DOFS dofs and the
        # coarse level; pass 8 joins the level of pass 7, pass 10 the
        # level of pass 9, and the local refinement starts a new one
        dofs = [lv.system.n_dofs for lv in hierarchy]
        assert dofs[6] <= RESTART_DOFS < dofs[7]
        assert nv[7] < 2 * nv[6] <= nv[8]
        assert nv[9] < 2 * nv[8] <= nv[10]
        ends = [6, 8, 10, 11]
    else:
        ends = [0, 1]
    finest = hierarchy[-1]
    assert finest.precond.n_levels == len(ends)
    levels = []
    for start, stop in zip(ends, ends[1:]):
        step = steps[start]
        for later in steps[start + 1:stop]:
            step = later @ step
        levels.append((hierarchy[stop].system.K.toarray(), step,
                       smoothing_set(hierarchy[stop].mesh,
                                     hierarchy[stop].system, nv[start])))
    oracle = textbook_v_cycle(
        np.linalg.inv(hierarchy[ends[0]].system.K.toarray()), levels)
    assert_allclose(dense(finest.precond, finest.system.n_dofs), oracle,
                    rtol=0, atol=1e-12 * np.abs(oracle).max())


def abs_pencil_inverse(k, m, shift):
    """|K - shift*M|^-1 with each |lambda - shift| floored at
    GAP_FLOOR * |shift|, from numpy's eigh of L^-1 K L^-T (M = L L^T), not
    from the scipy pencil solver the preconditioner uses; also returns
    the pencil's eigenvalues."""
    linv = np.linalg.inv(np.linalg.cholesky(m))
    lam, w = np.linalg.eigh(linv @ k @ linv.T)
    vecs = linv.T @ w                       # V^T M V = I
    scale = 1.0 / np.maximum(np.abs(lam - shift), GAP_FLOOR * abs(shift))
    return (vecs * scale) @ vecs.T, lam


@pytest.fixture(scope="module")
def two_level_hierarchy():
    """A coarse mesh with an exact coarse solve and one level above it:
    ((K_0, M_0), (K, P, S), preconditioner), the matrices dense."""
    rng = np.random.default_rng(5)
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 8)
    coarse = Level.first(mesh, VARIABLE)
    pencil = coarse.system.K.toarray(), coarse.system.M.toarray()
    fine, step = coarse.refine(
        rng.choice(mesh.n_triangles, mesh.n_triangles // 2, replace=False))
    assert fine.precond.n_levels == 2
    level = (fine.system.K.toarray(), step.toarray(),
             smoothing_set(fine.mesh, fine.system, mesh.n_vertices))
    return pencil, level, fine.precond


@pytest.mark.parametrize("where", ["zero", "between", "on_eigenvalue"])
def test_shifted_v_cycle_matches_the_textbook_recursion(where,
                                                       two_level_hierarchy):
    """dense(precond, n, sigma) is the V-cycle over the coarse solve
    |K_0 - sigma*M_0|^-1: sigma = 0 (where it is K_0^-1), sigma between
    the 5th and 6th coarse eigenvalues, and sigma on the 5th, where
    only the floor keeps B finite."""
    (k0, m0), level, precond = two_level_hierarchy
    _, lam = abs_pencil_inverse(k0, m0, 0.0)
    shift = {"zero": 0.0, "between": 0.5 * (lam[4] + lam[5]),
             "on_eigenvalue": lam[4]}[where]
    b0, _ = abs_pencil_inverse(k0, m0, shift)
    if where == "zero":
        assert_allclose(b0, np.linalg.inv(k0), rtol=0,
                        atol=1e-12 * np.abs(b0).max())
    oracle = textbook_v_cycle(b0, [level])
    b = dense(precond, len(oracle), shift)
    assert np.isfinite(b).all()
    assert_allclose(b, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())


@settings(max_examples=15, deadline=None)
@given(fraction=st.floats(0.0, 2.0))
def test_shifted_v_cycle_is_symmetric_positive_definite(
        two_level_hierarchy, fraction):
    """B(sigma) is SPD for every sigma in [0, 2 Lambda_max], Lambda_max
    the largest coarse eigenvalue."""
    (k0, m0), (k, _, _), precond = two_level_hierarchy
    shift = fraction * abs_pencil_inverse(k0, m0, 0.0)[1][-1]
    b = dense(precond, len(k), shift)
    assert_allclose(b, b.T, rtol=0, atol=1e-13 * np.abs(b).max())
    assert np.linalg.eigvalsh(0.5 * (b + b.T)).min() > 0.0


def test_block_columns_equal_single_shift_applies(two_level_hierarchy):
    """Column i of shifted(shifts)(R, rows) is shifted(shifts[rows[i]])
    applied to R[:, i] alone, on one level above the coarse solve and on
    a hierarchy grown by ten uniform passes from the initial mesh."""
    (k0, m0), (k, _, _), precond = two_level_hierarchy
    lam = abs_pencil_inverse(k0, m0, 0.0)[1]
    passes = grown("unit_square", 10, IDENTITY)[0][-1]
    assert passes.precond.n_levels >= 2
    shifts = np.array([0.0, 0.5 * (lam[4] + lam[5]), lam[4], 37.0])
    rng = np.random.default_rng(6)
    for pre, n in ((precond, len(k)),
                   (passes.precond, passes.system.n_dofs)):
        block = pre.shifted(shifts)
        for rows in ([0, 1, 2, 3], [1, 3], [2]):
            r = rng.standard_normal((n, len(rows)))
            y = block(r, np.array(rows))
            assert y.shape == r.shape
            for i, j in enumerate(rows):
                alone = apply(pre, r[:, i], shifts[j])
                assert_allclose(y[:, i], alone, rtol=0,
                                atol=1e-14 * np.abs(alone).max())


@pytest.mark.parametrize("shifts", [0.0, 37.0, [[0.0, 1.0]]])
def test_shifts_must_be_one_per_row(shifts):
    """shifted takes a 1-D array of shifts; B(0) is shifted([0.0]) and
    the preconditioner is not itself callable."""
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    precond = MultilevelPreconditioner(mesh, assemble(mesh, IDENTITY))
    assert not callable(precond)
    with pytest.raises(LinAlgError, match="1-D"):
        precond.shifted(shifts)


@pytest.mark.parametrize("which", ["K", "M"])
def test_coarse_pencil_that_is_not_definite_raises(which):
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    system = assemble(mesh, IDENTITY)
    bad = dataclasses.replace(system, **{which: -getattr(system, which)})
    with pytest.raises(LinAlgError,
                       match=f"coarse .* \\({system.n_dofs} dofs\\)"):
        MultilevelPreconditioner(mesh, bad)


def test_positive_definite_when_stiffness_is_not_an_m_matrix():
    """Obtuse triangles give K positive off-diagonal entries, and damped
    Jacobi with OMEGA / K_ii would make B indefinite here; the l1 smoother
    keeps B symmetric positive definite."""
    rng = np.random.default_rng(0)
    sheared = (np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0], [2.0, 1.0]]),
               np.array([[0, 1, 2], [0, 2, 3]]))
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh(sheared), 8)
    level = Level.first(mesh, VARIABLE)
    for fraction in (0.6, 0.3, 0.5):
        nt = level.mesh.n_triangles
        level, _ = level.refine(
            rng.choice(nt, int(fraction * nt), replace=False))
    system, precond = level.system, level.precond
    assert precond.n_levels >= 3
    k = system.K.toarray()
    assert (k - np.diag(np.diag(k))).max() > 0.0
    b = dense(precond, system.n_dofs)
    assert_allclose(b, b.T, rtol=0, atol=1e-13 * np.abs(b).max())
    assert np.linalg.eigvalsh(0.5 * (b + b.T)).min() > 0.0


def test_coarse_only_hierarchy_is_the_exact_inverse():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 4)
    system = assemble(mesh, VARIABLE)
    precond = MultilevelPreconditioner(mesh, system)
    assert precond.n_levels == 1
    k_inv = np.linalg.inv(system.K.toarray())
    assert_allclose(dense(precond, system.n_dofs), k_inv, rtol=0,
                    atol=1e-12 * np.abs(k_inv).max())


def test_initial_mesh_above_coarse_dofs_raises():
    """The coarse solve is exact, so a first mesh above COARSE_DOFS free
    dofs is refused; grown from its initial mesh, the same mesh gets
    levels above an exact coarse solve."""
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 10)
    system = assemble(mesh, IDENTITY)
    assert system.n_dofs > COARSE_DOFS
    hint = "start from a coarser mesh and raise initial_passes"
    with pytest.raises(LinAlgError, match=hint):
        MultilevelPreconditioner(mesh, system)
    with pytest.raises(LinAlgError, match=hint):
        Level.first(mesh, IDENTITY)
    level = grown("unit_square", 10, IDENTITY)[0][-1]
    assert np.array_equal(level.mesh.triangles, mesh.triangles)
    assert level.precond.n_levels >= 2


def test_small_meshes_restart_the_hierarchy():
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    level, _ = Level.first(mesh, IDENTITY).refine([0, 1, 2])
    assert level.precond.n_levels == 1
    assert_allclose(dense(level.precond, level.system.n_dofs),
                    np.linalg.inv(level.system.K.toarray()), atol=1e-12)


def test_first_mesh_between_the_restart_size_and_the_cap():
    """A 225-dof first mesh, above RESTART_DOFS and within COARSE_DOFS,
    loads through Level.first with an exact coarse solve; its
    refinements add levels above that coarse level and never restart
    the hierarchy."""
    mesh, _ = pm.uniform_refine(pm.build_initial_mesh("unit_square"), 8)
    level = Level.first(mesh, IDENTITY)
    assert RESTART_DOFS < level.system.n_dofs == 225 <= COARSE_DOFS
    assert level.precond.n_levels == 1
    k_inv = np.linalg.inv(level.system.K.toarray())
    assert_allclose(dense(level.precond, 225), k_inv, rtol=0,
                    atol=1e-12 * np.abs(k_inv).max())
    coarse = level.precond._coarse
    for marked in ([0, 1], np.arange(40), [7]):
        level, _ = level.refine(marked)
        assert level.precond.n_levels >= 2
        assert level.precond._coarse is coarse
        assert level.precond._coarse_vertices == mesh.n_vertices


def test_empty_refinement_keeps_the_preconditioner():
    """A refinement that bisects nothing keeps B to the last bit: on a
    restarted hierarchy (small mesh), and on one grown from the initial
    mesh past RESTART_DOFS, whose last level the empty refinement joins.
    The merged step's product is stored with sorted column indices, as
    the refinement's own step is, so every level applies its matrices
    in the same order."""
    small, _ = pm.uniform_refine(pm.build_initial_mesh("l_shape"), 2)
    large, _ = grown("unit_square", 10, IDENTITY)[0][-1].refine([0, 1])
    assert large.precond.n_levels == 4
    for level in (Level.first(small, IDENTITY), large):
        kept, _ = level.refine([])
        n = level.system.n_dofs
        assert kept.system.n_dofs == n
        assert kept.precond.n_levels == level.precond.n_levels
        for new, old in zip(kept.precond._levels, level.precond._levels,
                            strict=True):
            for field in ("step", "prolong", "restrict", "smoother"):
                assert (getattr(new, field) != getattr(old, field)).nnz == 0
        assert_array_equal(dense(kept.precond, n), dense(level.precond, n))


@settings(max_examples=10, deadline=None)
@given(domain=st.sampled_from([("unit_square", 10), ("l_shape", 8)]),
       picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                               max_size=60), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_transfers_are_nodal_interpolation(domain, picks, seed):
    """After uniform passes from the initial mesh past COARSE_DOFS and
    any sequence of refine() calls, interpolate reproduces linear
    functions, and every preconditioner level's nodal step prolongs free
    dofs as interpolate does through the refinements merged into it.
    The meshes grow as Level.refine grows them, from refine() calls
    whose RefineMaps interpolate needs."""
    rng = np.random.default_rng(seed)
    name, passes = domain
    mesh = pm.build_initial_mesh(name)
    meshes, systems, maps = [mesh], [assemble(mesh, IDENTITY)], []
    precond = MultilevelPreconditioner(mesh, systems[0])
    for pick in [None] * passes + picks:
        coarse = meshes[-1]
        marked = (np.arange(coarse.n_triangles) if pick is None
                  else np.array(pick) % coarse.n_triangles)
        fine, rmap = pm.refine(coarse, marked)
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
    # the coarse level is a pass mesh, and the last pass has levels
    assert systems[passes].n_dofs > COARSE_DOFS
    index = {m.n_vertices: k for k, m in enumerate(meshes)}
    start = index[precond._coarse_vertices]
    assert start < passes
    for level in precond._levels:
        stop = index[level.n_vertices]
        u = rng.standard_normal(systems[start].n_dofs)
        full = np.zeros(meshes[start].n_vertices)
        full[systems[start].free_dofs] = u
        for k in range(start, stop):
            full = pm.interpolate(meshes[k], meshes[k + 1], maps[k], full)
        assert_allclose(level.step @ u, full[systems[stop].free_dofs],
                        rtol=0, atol=1e-14 * np.abs(u).max())
        start = stop
    assert start == len(meshes) - 1


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
    level = Level.first(mesh, IDENTITY)
    out = []
    while level.system.n_dofs < 14000:
        mesh = level.mesh
        cent = mesh.vertices[mesh.triangles].mean(axis=1)
        eta = mesh.diameters() ** 2 * np.hypot(*cent.T) ** (-2.0 / 3.0)
        level, _ = level.refine(dorfler_mark(Indicators(eta), 0.5))
        out.append((level.system, level.precond))
    return out


def minres_iterations(system, precond, shift=5.0):
    """MINRES iterations on K - shift*M, preconditioned by the block
    callable precond (None: unpreconditioned)."""
    op = system.K - shift * system.M
    rhs = system.M @ np.ones(system.n_dofs)
    res = minres_solve([op], rhs[None], tol=1e-8, precond=precond)
    assert res.flag == "converged"
    return res.iterations


def test_iterations_stay_flat_on_graded_meshes(graded_l_shape):
    small = next(s for s in graded_l_shape if s[0].n_dofs >= 3000)
    large = next(s for s in graded_l_shape
                 if s[0].n_dofs >= 4 * small[0].n_dofs)
    assert large[1].n_levels >= 3
    plain = [minres_iterations(s, None) for s, _ in (small, large)]
    ours = [minres_iterations(s, p.shifted([0.0])) for s, p in (small, large)]
    assert plain[1] >= 1.5 * plain[0]       # the sequence is a real test
    assert ours[1] < 1.5 * ours[0]
    assert ours[1] <= plain[1] / 20


def test_levels_merge_until_vertices_double(graded_l_shape):
    # about 20 refinements, each adding a few percent of vertices; the
    # coarse level is the last mesh of at most RESTART_DOFS dofs, and
    # every level below the finest has at least doubled the vertices
    system, precond = graded_l_shape[-1]
    assert len(graded_l_shape) > 12
    sizes = [precond._coarse_vertices] + [lv.n_vertices
                                          for lv in precond._levels]
    assert all(fine >= MERGE_FACTOR * coarse
               for coarse, fine in zip(sizes, sizes[1:-1]))
    assert precond.n_levels <= 2 + np.log2(system.n_dofs / RESTART_DOFS)


def test_shift_aware_coarse_solve_removes_the_outliers(graded_l_shape):
    """With sigma between the 5th and 6th eigenvalues, B(0) leaves five
    negative outliers in B (K - sigma*M); B(sigma) flips them on the
    coarse level and needs clearly fewer MINRES iterations."""
    system, precond = next(s for s in graded_l_shape if s[0].n_dofs >= 3000)
    assert precond.n_levels >= 2
    lam = scipy.sparse.linalg.eigsh(system.K.tocsc(), k=6,
                                    M=system.M.tocsc(), sigma=0.0,
                                    return_eigenvectors=False)
    lam.sort()
    shift = 0.5 * (lam[4] + lam[5])
    plain = minres_iterations(system, precond.shifted([0.0]), shift)
    shifted = minres_iterations(system, precond.shifted([shift]), shift)
    # measured: 26 and 16 iterations at 3 216 dofs (24-26 and 15-17
    # on every mesh of the fixture from 1 075 to 19 032 dofs)
    assert shifted <= 0.7 * plain
