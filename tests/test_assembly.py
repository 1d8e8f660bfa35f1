"""Tests for P1 assembly: analytic element matrices, kernel and mass
invariants, Dirichlet elimination, coefficient representations, and the
per-mesh ElementData carried across refinement."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from paroeig import adapt, paro
from paroeig.assembly import (
    AssemblyError,
    Coefficients,
    ElementData,
    assemble,
    element_matrices,
    _QUAD_RULE,
    _evaluate,
    _quad_points,
    p1_gradients,
)
from paroeig.estimator import estimate
from paroeig.mesh import Mesh, build_initial_mesh, interpolate, refine, uniform_refine


def element_quad_form(m, local, u):
    """u^T A u for the matrix A over all vertices that the element
    matrices local (nt, 3, 3) sum to."""
    ut = u[m.triangles]
    return float(np.einsum("ti,tij,tj->", ut, local, ut))


def unit_right_triangle():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self):
        ke, _ = element_matrices(unit_right_triangle(),
                                 Coefficients.identity())
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert_allclose(ke[0], expected, atol=1e-14)

    def test_exact_mass_formula_any_triangle(self):
        m = Mesh(np.array([[0.2, -0.1], [1.7, 0.4], [0.6, 2.0]]),
                 np.array([[0, 1, 2]]))
        _, me = element_matrices(m, Coefficients.identity())
        area = m.signed_areas()[0]
        expected = (area / 12.0) * np.array([[2.0, 1.0, 1.0],
                                             [1.0, 2.0, 1.0],
                                             [1.0, 1.0, 2.0]])
        assert_allclose(me[0], expected, rtol=1e-14)

    def test_gradients_sum_to_zero(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        grads, areas = p1_gradients(m)
        assert_allclose(grads.sum(axis=1), 0.0, atol=1e-13)
        assert_allclose(areas.sum(), 3.0, rtol=1e-14)

    def test_reaction_term_adds_scaled_mass(self):
        m = unit_right_triangle()
        k0, me = element_matrices(m, Coefficients.identity())
        k1, _ = element_matrices(m, Coefficients(np.eye(2), 3.0))
        assert_allclose(k1[0] - k0[0], 3.0 * me[0], rtol=1e-14)


class TestGlobalInvariants:
    def test_patch_test_constants_in_kernel(self):
        # every element row sums to zero, so the stiffness matrix over
        # all vertices annihilates constants
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 3)
        ke, _ = element_matrices(m, Coefficients.identity())
        assert np.abs(element_quad_form(m, ke, np.ones(m.n_vertices))) \
            <= 1e-10
        assert np.abs(ke.sum(axis=2)).max() <= 1e-10

    def test_mass_sum_equals_domain_area(self):
        for domain, area in [("unit_square", 1.0), ("l_shape", 3.0)]:
            m, _ = uniform_refine(build_initial_mesh(domain), 3)
            _, me = element_matrices(m, Coefficients.identity())
            total = element_quad_form(m, me, np.ones(m.n_vertices))
            assert abs(total - area) <= 1e-12 * area

    def test_symmetry_is_structural(self):
        # constant, table and callable coefficients, on meshes whose
        # element matrices round differently above and below the diagonal
        for m, coeffs in KERNEL_CASES:
            sys = assemble(m, coeffs)
            for s in (sys.K, sys.M):
                assert isinstance(s, sp.csr_matrix)
                assert (s != s.T).nnz == 0
                assert s.has_sorted_indices and s.has_canonical_format
                assert np.all(s.data != 0.0)

    def test_refinement_nestedness_piecewise_constant_data(self):
        m0 = build_initial_mesh("l_shape")
        rng = np.random.default_rng(3)
        tab_a = np.stack([np.diag(rng.uniform(0.5, 2.0, 2))
                          for _ in range(m0.n_triangles)])
        tab_c = rng.uniform(0.0, 2.0, m0.n_triangles)
        co = Coefficients(tab_a, tab_c)
        coarse, _ = uniform_refine(m0, 1)
        mid, first = refine(coarse, np.array([0, 3, 5]))
        fine, second = refine(mid, first.descendants([0, 3, 5]))
        u = rng.standard_normal(coarse.n_vertices)
        u_f = interpolate(mid, fine, second,
                          interpolate(coarse, mid, first, u))
        qc = element_quad_form(coarse, element_matrices(coarse, co)[0], u)
        qf = element_quad_form(fine, element_matrices(fine, co)[0], u_f)
        assert abs(qf - qc) <= 1e-10 * qc

    def test_eliminated_system_is_spd(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 3)
        sys = assemble(m, Coefficients.identity())
        wk = np.linalg.eigvalsh(sys.K.toarray())
        wm = np.linalg.eigvalsh(sys.M.toarray())
        assert wk.min() > 0.0 and wm.min() > 0.0
        assert sys.K.shape == (sys.n_dofs, sys.n_dofs)
        assert sys.n_dofs == len(sys.free_dofs)


class TestElimination:
    def test_initial_unit_square_has_no_free_dofs(self):
        sys = assemble(build_initial_mesh("unit_square"),
                       Coefficients.identity())
        assert sys.n_dofs == 0
        assert sys.K.shape == sys.M.shape == (0, 0)

    def test_free_dofs_are_interior(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        assert not m.is_boundary_vertex[sys.free_dofs].any()
        assert sys.n_dofs == (~m.is_boundary_vertex).sum()

    def test_expand_restrict_roundtrip(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        sys = assemble(m, Coefficients.identity())
        u = np.random.default_rng(5).standard_normal(sys.n_dofs)
        full = sys.expand(u)
        boundary = np.setdiff1d(np.arange(m.n_vertices), sys.free_dofs)
        assert np.all(full[boundary] == 0.0)
        assert_allclose(sys.restrict(full), u)

    def test_expand_dimension_mismatch(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        with pytest.raises(AssemblyError, match="expected"):
            sys.expand(np.zeros(sys.n_dofs + 1))


class TestCoefficients:
    def test_callable_matches_constant(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 1)
        k1, m1 = element_matrices(
            m, Coefficients(lambda x, y: np.eye(2), lambda x, y: 1.0))
        k2, m2 = element_matrices(m, Coefficients(np.eye(2), 1.0))
        assert_allclose(k1, k2, atol=1e-13)
        assert_allclose(m1, m2, atol=1e-15)

    def test_table_follows_ancestors_through_refinement(self):
        # per-element stiffness on the fine mesh must scale by the table
        # entry of each triangle's initial-mesh ancestor
        m0 = build_initial_mesh("l_shape")
        tab = np.stack([np.eye(2) * (1.0 + t) for t in range(m0.n_triangles)])
        fine, _ = uniform_refine(m0, 2)
        ke_f, _ = element_matrices(fine, Coefficients(tab, 0.0))
        ke_i, _ = element_matrices(fine, Coefficients.identity())
        scale = 1.0 + fine.ancestor
        assert_allclose(ke_f, ke_i * scale[:, None, None], rtol=1e-13)

    def test_spd_violation_names_element(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        skew = Coefficients(lambda x, y: np.array([[1.0, 2.0], [2.0, 1.0]]),
                            0.0)
        with pytest.raises(AssemblyError, match="element 0"):
            assemble(m, skew)

    def test_negative_reaction_names_element(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        tab = np.zeros(2)
        tab[1] = -0.5
        bad = Coefficients(np.eye(2), np.repeat(tab, 1))
        with pytest.raises(AssemblyError, match="element"):
            assemble(m, bad)

    # non-finite data must fail like negative data, not assemble into a
    # pencil with NaN entries; one test per coefficient representation
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_constant_rejected(self, field, bad):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        a = np.eye(2)
        if field == "diffusion":
            a = np.array([[1.0, 0.0], [0.0, bad]])
        co = Coefficients(a, bad if field == "reaction" else 0.0)
        with pytest.raises(AssemblyError, match="element 0"):
            assemble(m, co)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_table_rejected(self, field, bad):
        m0 = build_initial_mesh("unit_square")
        m, _ = uniform_refine(m0, 1)
        a = np.stack([np.eye(2)] * m0.n_triangles)
        c = np.zeros(m0.n_triangles)
        if field == "diffusion":
            a[1, 0, 0] = bad
        else:
            c[1] = bad
        first = int(np.nonzero(m.ancestor == 1)[0][0])
        with pytest.raises(AssemblyError, match=f"element {first}"):
            assemble(m, Coefficients(a, c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["diffusion", "reaction"])
    def test_non_finite_callable_rejected(self, field, bad):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)

        def diffusion(x, y):
            return np.diag([1.0, bad if x > 0.6 else 1.0])

        def reaction(x, y):
            return bad if x > 0.6 else 0.0

        co = (Coefficients(diffusion, 0.0) if field == "diffusion"
              else Coefficients(np.eye(2), reaction))
        with pytest.raises(AssemblyError, match="element"):
            assemble(m, co)

    def test_table_length_mismatch(self):
        m = build_initial_mesh("l_shape")
        with pytest.raises(AssemblyError, match="table"):
            assemble(m, Coefficients(np.stack([np.eye(2)] * 2), 0.0))

    @pytest.mark.parametrize("field, value", [
        ("diffusion", np.ones(2)),
        ("diffusion", 1.0),
        ("reaction", np.ones(1)),
        ("reaction", np.eye(2)),
        ("reaction", 1.0 + 0.0j),
        ("reaction", "soft"),
        # numpy complex values fail as a Python complex does, even with
        # a zero imaginary part, and do not lose their imaginary part
        ("diffusion", np.exp(0.5j) * np.eye(2)),
        ("diffusion", np.eye(2, dtype=np.complex64)),
        ("reaction", np.exp(0.5j)),
        ("reaction", np.complex128(2.0)),
    ])
    def test_malformed_callable_value_rejected(self, field, value):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        co = (Coefficients(lambda x, y: value, 0.0) if field == "diffusion"
              else Coefficients(np.eye(2), lambda x, y: value))
        with pytest.raises(AssemblyError):
            assemble(m, co)

    def test_shape_change_between_points_rejected(self):
        # the shape changes at the second distinct point, and at points
        # far enough in that earlier values may be converted already
        x = np.arange(5000.0)
        for switch in (1, 1024, 4000):
            def field(px, py, switch=switch):
                return np.zeros(2 if px < switch else 3)

            with pytest.raises(AssemblyError,
                               match=r"shapes \(2,\) and \(3,\)"):
                _evaluate(field, x, np.zeros_like(x), (2,))
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        changing = Coefficients(
            lambda px, py: np.eye(2) if px < 0.5 else np.eye(3), 0.0)
        with pytest.raises(AssemblyError, match="shapes"):
            assemble(m, changing)


class TestNorms:
    def test_quadratic_form_matches_element_sum(self):
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 2)
        co = Coefficients(np.diag([2.0, 0.5]), 1.5)
        sys = assemble(m, co)
        u = np.random.default_rng(11).standard_normal(sys.n_dofs)
        full = sys.expand(u)
        ke, _ = element_matrices(m, co)
        via_elements = sum(
            full[tri] @ ke[i] @ full[tri]
            for i, tri in enumerate(m.triangles))
        direct = u @ (sys.K @ u)
        assert abs(via_elements - direct) <= 1e-12 * abs(direct)


def variable_coefficients(calls=None):
    """Callable coefficients as in `paroeig run`; calls, when given,
    counts the evaluations of each field."""
    def diffusion(x, y):
        if calls is not None:
            calls["diffusion"] += 1
        return (2.0 + np.sin(np.pi * x) * np.sin(np.pi * y)) * np.eye(2)

    def reaction(x, y):
        if calls is not None:
            calls["reaction"] += 1
        return x * x + y * y

    return Coefficients(diffusion, reaction)


def coefficient_cases():
    m0 = build_initial_mesh("l_shape")
    rng = np.random.default_rng(8)
    table = Coefficients(
        np.stack([np.diag(rng.uniform(0.5, 2.0, 2))
                  for _ in range(m0.n_triangles)]),
        rng.uniform(0.0, 2.0, m0.n_triangles))
    return {"constant": Coefficients(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                     1.5),
            "table": table,
            "variable": variable_coefficients()}


COEFFICIENT_CASES = coefficient_cases()
BASE_MESH, _ = uniform_refine(build_initial_mesh("l_shape"), 2)


# two 1-by-2 rectangles on either side of the line x = -0.0, and fields
# that tell -0.0 from 0.0
SIGNED_ZERO_MESH = build_initial_mesh((
    np.array([[-1.0, -1.0], [-0.0, -1.0], [1.0, -1.0], [1.0, 1.0],
              [-0.0, 1.0], [-1.0, 1.0]]),
    np.array([[0, 1, 4], [0, 4, 5], [1, 2, 3], [1, 3, 4]])))


def signed_zero_diffusion(x, y):
    a = 2.0 + np.copysign(0.5, x)
    b = 0.3 * np.sin(x + 2.0 * y)
    return np.array([[a, b], [b, 2.0 + y * y]])


SIGNED_ZERO_COEFFS = Coefficients(
    signed_zero_diffusion,
    lambda x, y: 1.0 + np.copysign(0.5, x) + 0.25 * x * y)


def random_block(m, n, seed):
    vectors = np.random.default_rng(seed).standard_normal((n, m.n_vertices))
    lam = np.arange(1.0, n + 1.0)
    return paro.OrbitalBlock(layout=paro.ClusterLayout(n, (1,) * n),
                             vectors=vectors, ritz_values=lam, shifts=lam)


def quadrature_points(m, ids):
    """The distinct quadrature points (edge midpoints) of the triangles
    ids, as a set of float pairs."""
    mids = m.vertices[m.edges].mean(axis=1)
    return set(map(tuple, mids[m.tri_edges[ids].ravel()].tolist()))


def stencil_points(m, ids):
    """Distinct points of the four finite-difference point sets around
    the quadrature points of the triangles ids, each set counted on its
    own."""
    mids = m.vertices[m.edges].mean(axis=1)
    h_t = m.edge_lengths[m.tri_edges].max(axis=1)
    stencils = [set(), set(), set(), set()]
    for t in ids:
        d = 1e-6 * h_t[t]
        for x, y in mids[m.tri_edges[t]].tolist():
            for points, p in zip(stencils, ((x + d, y), (x - d, y),
                                            (x, y + d), (x, y - d))):
                points.add(p)
    return sum(map(len, stencils))


def csr_bytes(csr):
    return csr.indptr.tobytes(), csr.indices.tobytes(), csr.data.tobytes()


class TestElementData:
    @settings(max_examples=20, deadline=None)
    @given(case=st.sampled_from(sorted(COEFFICIENT_CASES)),
           picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=8), min_size=1, max_size=4),
           read_div=st.booleans())
    def test_extend_matches_fresh_build(self, case, picks, read_div):
        # read_div: the divergence rows are sampled before extending, so
        # extend copies and extends them instead of leaving them unread
        coeffs = COEFFICIENT_CASES[case]
        m = BASE_MESH
        data = ElementData(m, coeffs)
        for pick in picks:
            if read_div:
                data.div_rows
            marked = np.array(pick) % m.n_triangles
            m, rmap = refine(m, marked)
            data = data.extend(rmap, m)
        fresh = ElementData(m, coeffs)
        for name in ElementData._FIELDS + ("div_rows",):
            got, want = getattr(data, name), getattr(fresh, name)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
        with_data = assemble(m, coeffs, data=data)
        without = assemble(m, coeffs)
        assert csr_bytes(with_data.K) == csr_bytes(without.K)
        assert csr_bytes(with_data.M) == csr_bytes(without.M)
        block = random_block(m, 2, seed=len(picks))
        assert (estimate(m, coeffs, block, data=data).per_element.tobytes()
                == estimate(m, coeffs, block).per_element.tobytes())

    def test_constant_data_is_stored_per_element(self):
        for name in ("constant", "table"):
            data = ElementData(BASE_MESH, COEFFICIENT_CASES[name])
            nt = BASE_MESH.n_triangles
            assert data.diffusion.shape == (nt, 2, 2)
            assert data.reaction.shape == (nt,)
            assert data.div_rows is None

    def test_adaptive_solve_samples_each_triangle_once(self):
        # the first mesh, then only the children of every refinement; the
        # estimate of every level reads the divergence rows, so each
        # sampled triangle adds its quadrature points and its stencil,
        # and a pass calls each callable once per distinct point
        calls = {"diffusion": 0, "reaction": 0}
        coeffs = variable_coefficients(calls)
        meshes = []
        config = adapt.AdaptConfig(max_refinements=3, initial_passes=2,
                                   budget_factor=1.0, tol1=1e-14)
        adapt.adaptive_solve("l_shape", coeffs, 2, config,
                             observer=lambda lvl, m, *_: meshes.append(m))
        assert len(meshes) == 4
        passes = [(meshes[0], np.arange(meshes[0].n_triangles))]
        for coarse, fine in zip(meshes, meshes[1:]):
            old = set(map(tuple, coarse.triangles.tolist()))
            passes.append((fine, np.array(
                [t for t, tri in enumerate(fine.triangles.tolist())
                 if tuple(tri) not in old])))
        points = sum(len(quadrature_points(m, ids)) for m, ids in passes)
        stencils = sum(stencil_points(m, ids) for m, ids in passes)
        assert calls == {"diffusion": points + stencils, "reaction": points}
        sampled = sum(len(ids) for _, ids in passes)
        assert calls["diffusion"] <= 15 * sampled
        assert calls["reaction"] <= 3 * sampled

    def test_divergence_rows_are_sampled_on_first_read(self):
        calls = {"diffusion": 0, "reaction": 0}
        coeffs = variable_coefficients(calls)
        every = np.arange(BASE_MESH.n_triangles)
        points = len(quadrature_points(BASE_MESH, every))
        # a standalone assemble never reads them
        assemble(BASE_MESH, coeffs)
        assert calls == {"diffusion": points, "reaction": points}
        assert points <= 3 * len(every)
        data = ElementData(BASE_MESH, coeffs)
        calls.update(diffusion=0, reaction=0)
        block = random_block(BASE_MESH, 2, seed=3)
        estimate(BASE_MESH, coeffs, block, data=data)
        estimate(BASE_MESH, coeffs, block, data=data)
        stencils = stencil_points(BASE_MESH, every)
        assert calls == {"diffusion": stencils, "reaction": 0}
        assert stencils <= 12 * len(every)
        # extend samples the children's rows only when the parent has
        # its own
        fine, rmap = refine(BASE_MESH, [0, 5, 9])
        old = set(map(tuple, BASE_MESH.triangles.tolist()))
        children = np.array([t for t, tri in
                             enumerate(fine.triangles.tolist())
                             if tuple(tri) not in old])
        points = len(quadrature_points(fine, children))
        stencils = stencil_points(fine, children)
        for parent, diffusion in ((ElementData(BASE_MESH, coeffs), points),
                                  (data, points + stencils)):
            calls.update(diffusion=0, reaction=0)
            parent.extend(rmap, fine)
            assert calls == {"diffusion": diffusion, "reaction": points}

    def test_evaluate_calls_once_per_bitwise_distinct_point(self):
        seen = []

        def field(x, y):
            seen.append((x, y))
            return np.copysign(1.0, x) * np.array([1.0, y])

        x = np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5])
        y = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 3.0])
        got = _evaluate(field, x, y, (2,))
        assert len(seen) == 4
        assert set(map(tuple, np.signbit(seen).tolist())) == {
            (False, False), (True, False)}
        assert np.array_equal(got, [field(*p) for p in zip(x, y)])
        assert got.dtype == np.float64

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=6), max_size=5),
           read_div=st.booleans())
    def test_samples_match_a_per_point_loop(self, picks, read_div):
        m, coeffs = SIGNED_ZERO_MESH, SIGNED_ZERO_COEFFS
        data = ElementData(m, coeffs)
        for pick in picks:
            if read_div:
                data.div_rows
            m, rmap = refine(m, np.array(pick) % m.n_triangles)
            data = data.extend(rmap, m)
        pts = _quad_points(m, np.arange(m.n_triangles))
        diffusion = np.empty(pts.shape[:2] + (2, 2))
        reaction = np.empty(pts.shape[:2])
        div_rows = np.empty(pts.shape)
        for t, q in np.ndindex(pts.shape[:2]):
            (x, y), d = pts[t, q], 1e-6 * data.h_t[t]
            diffusion[t, q] = coeffs.diffusion(x, y)
            reaction[t, q] = coeffs.reaction(x, y)
            dax = (coeffs.diffusion(x + d, y)
                   - coeffs.diffusion(x - d, y)) / (2.0 * d)
            day = (coeffs.diffusion(x, y + d)
                   - coeffs.diffusion(x, y - d)) / (2.0 * d)
            div_rows[t, q] = dax[0, :] + day[1, :]
        assert np.array_equal(data.diffusion, diffusion)
        assert np.array_equal(data.reaction, reaction)
        assert np.array_equal(data.div_rows, div_rows)

    def test_non_finite_divergence_fails_on_first_read(self):
        # finite at the quadrature points, NaN at the stencil points
        # around them: assembly passes, the estimator's read fails
        m = BASE_MESH
        mids = m.vertices[m.edges].mean(axis=1)
        points = set(map(tuple, mids.tolist()))

        def diffusion(x, y):
            return np.eye(2) if (x, y) in points else np.full((2, 2),
                                                              np.nan)

        coeffs = Coefficients(diffusion, 0.0)
        data = ElementData(m, coeffs)
        assemble(m, coeffs, data=data)
        with pytest.raises(AssemblyError, match="divergence is not finite "
                                                "on element 0$"):
            estimate(m, coeffs, random_block(m, 1, seed=0), data=data)

    def test_extend_rejects_a_map_from_another_mesh(self):
        coeffs = COEFFICIENT_CASES["variable"]
        data = ElementData(BASE_MESH, coeffs)
        other, _ = uniform_refine(BASE_MESH, 1)
        fine, rmap = refine(other, [0, 5])
        with pytest.raises(AssemblyError, match="does not chain"):
            data.extend(rmap, fine)
        fine, rmap = refine(BASE_MESH, [0, 5])
        with pytest.raises(AssemblyError, match="fine mesh"):
            data.extend(rmap, other)
        with pytest.raises(AssemblyError, match="another mesh"):
            assemble(fine, coeffs, data=data)
        # refine() with nothing marked adds no vertex: extend copies
        # every row and calls no coefficient
        calls = {"diffusion": 0, "reaction": 0}
        data = ElementData(BASE_MESH, variable_coefficients(calls))
        data.div_rows
        same, empty = refine(BASE_MESH, [])
        calls.update(diffusion=0, reaction=0)
        kept = data.extend(empty, same)
        assert calls == {"diffusion": 0, "reaction": 0}
        for name in ElementData._FIELDS + ("div_rows",):
            assert getattr(kept, name).tobytes() == \
                getattr(data, name).tobytes()
        with pytest.raises(AssemblyError, match="fine mesh"):
            data.extend(empty, other)

    def test_nan_on_a_child_names_its_fine_index(self):
        # the field turns bad after the coarse mesh was sampled: kept
        # rows are copied, so only a child can report it
        state = {"bad": False}

        def reaction(x, y):
            return np.nan if state["bad"] and x > 0.5 else 0.0

        coeffs = Coefficients(np.eye(2), reaction)
        data = ElementData(BASE_MESH, coeffs)
        fine, rmap = refine(BASE_MESH, np.arange(0, BASE_MESH.n_triangles,
                                                 3))
        old = set(map(tuple, BASE_MESH.triangles.tolist()))
        mids = fine.vertices[fine.edges].mean(axis=1)
        first = next(t for t, tri in enumerate(fine.triangles.tolist())
                     if tuple(tri) not in old
                     and (mids[fine.tri_edges[t], 0] > 0.5).any())
        state["bad"] = True
        with pytest.raises(AssemblyError, match=f"element {first}$"):
            data.extend(rmap, fine)


def einsum_gradients(m):
    """P1 gradients as the contraction of J^-T with the reference
    gradients, the reference for p1_gradients."""
    v = m.vertices[m.triangles]
    j11 = v[:, 1, 0] - v[:, 0, 0]
    j12 = v[:, 2, 0] - v[:, 0, 0]
    j21 = v[:, 1, 1] - v[:, 0, 1]
    j22 = v[:, 2, 1] - v[:, 0, 1]
    det = j11 * j22 - j12 * j21
    inv_jt = np.empty((len(det), 2, 2))
    inv_jt[:, 0, 0] = j22 / det
    inv_jt[:, 0, 1] = -j21 / det
    inv_jt[:, 1, 0] = -j12 / det
    inv_jt[:, 1, 1] = j11 / det
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.einsum("tab,ib->tia", inv_jt, ref)


def einsum_system(m, data, grads):
    """(ke, K, M) from einsum element matrices, the reference for
    assemble: the free block of the dense matrix over all vertices whose
    upper triangle mirrors its lower one."""
    bary, weights = _QUAD_RULE
    a_eff = data.diffusion
    if a_eff.ndim == 4:
        a_eff = np.einsum("q,tqab->tab", weights, a_eff)
    ke = np.einsum("tia,tab,tjb->tij", grads, a_eff, grads)
    ke *= data.areas[:, None, None]
    me = (np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
          / 12.0)[None, :, :] * data.areas[:, None, None]
    if data.reaction.ndim == 2:
        re = np.einsum("q,tq,qi,qj->tij", weights, data.reaction, bary,
                       bary)
        ke += re * data.areas[:, None, None]
    else:
        ke += data.reaction[:, None, None] * me
    tri = m.triangles.astype(np.int32)
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    free = m.interior_vertices()

    def free_block(local):
        whole = sp.coo_matrix((local.ravel(), (rows, cols)),
                              shape=(m.n_vertices, m.n_vertices))
        whole = whole.tocsr().toarray()
        whole = np.tril(whole) + np.tril(whole, k=-1).T
        return sp.csr_matrix(whole[np.ix_(free, free)])

    return ke, free_block(ke), free_block(me)


def _jittered_mesh():
    """The once-refined L-shape with its interior vertices moved off the
    dyadic grid, so gradients are not powers of two and every product
    in the element sums rounds."""
    m, _ = uniform_refine(build_initial_mesh("l_shape"), 1)
    vertices = m.vertices.copy()
    inner = ~m.is_boundary_vertex
    vertices[inner] += np.random.default_rng(4).uniform(
        -0.1, 0.1, (inner.sum(), 2))
    return build_initial_mesh((vertices, m.triangles))


JITTERED_MESH = _jittered_mesh()

# -0.0 off the diagonal and as the reaction: on the unit right triangle
# every product in ke[1, 2] is -0.0, so only a sum started from +0.0,
# as einsum's is, gives ke[1, 2] = +0.0
NEGATIVE_ZERO_COEFFS = Coefficients(np.array([[2.0, -0.0], [-0.0, 1.0]]),
                                    -0.0)

# (mesh, coefficients): the table is indexed by the L-shape's initial
# triangles
KERNEL_CASES = [
    (build_initial_mesh((unit_right_triangle().vertices, [[0, 1, 2]])),
     NEGATIVE_ZERO_COEFFS),
    *((BASE_MESH, COEFFICIENT_CASES[name])
      for name in sorted(COEFFICIENT_CASES)),
    (SIGNED_ZERO_MESH, SIGNED_ZERO_COEFFS),
    (SIGNED_ZERO_MESH, NEGATIVE_ZERO_COEFFS),
    (JITTERED_MESH, SIGNED_ZERO_COEFFS),
    (JITTERED_MESH, Coefficients(np.array([[2.0, 0.7], [0.7, 1.3]]), 0.3)),
]


class TestKernels:
    @settings(max_examples=30, deadline=None)
    @example(case=0, picks=[])
    @given(case=st.sampled_from(range(len(KERNEL_CASES))),
           picks=st.lists(st.lists(st.integers(0, 10 ** 6), min_size=1,
                                   max_size=6), max_size=5))
    def test_kernels_match_the_einsum_formulas(self, case, picks):
        m, coeffs = KERNEL_CASES[case]
        for pick in picks:
            m, _ = refine(m, np.array(pick) % m.n_triangles)
        grads = einsum_gradients(m)
        # equal values; the einsum sum starts from +0.0, so a -0.0
        # entry may come back as +0.0 there
        assert np.array_equal(p1_gradients(m)[0], grads)
        data = ElementData(m, coeffs)
        ke, k_ref, m_ref = einsum_system(m, data, grads)
        assert element_matrices(m, coeffs, data)[0].tobytes() == ke.tobytes()
        system = assemble(m, coeffs, data=data)
        assert csr_bytes(system.K) == csr_bytes(k_ref)
        assert csr_bytes(system.M) == csr_bytes(m_ref)
        reference = ElementData(m, coeffs)
        reference.grads = grads
        block = random_block(m, 2, seed=len(picks))
        assert (estimate(m, coeffs, block, data=data).per_element.tobytes()
                == estimate(m, coeffs, block,
                            data=reference).per_element.tobytes())
