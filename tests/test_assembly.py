"""Tests for P1 assembly: analytic element matrices, kernel and mass
invariants, Dirichlet elimination, coefficient representations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paroeig.assembly import (
    AssemblyError,
    Coefficients,
    assemble,
    assemble_full,
    b_norm,
    element_matrices,
    energy_norm,
    p1_gradients,
)
from paroeig.mesh import Mesh, build_initial_mesh, interpolate, refine, uniform_refine


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
        m, _ = uniform_refine(build_initial_mesh("l_shape"), 3)
        k_full, _ = assemble_full(m, Coefficients.identity())
        ones = np.ones(m.n_vertices)
        assert np.abs(k_full.matvec(ones)).max() <= 1e-10

    def test_mass_sum_equals_domain_area(self):
        for domain, area in [("unit_square", 1.0), ("l_shape", 3.0)]:
            m, _ = uniform_refine(build_initial_mesh(domain), 3)
            _, m_full = assemble_full(m, Coefficients.identity())
            ones = np.ones(m.n_vertices)
            total = ones @ m_full.matvec(ones)
            assert abs(total - area) <= 1e-12 * area

    def test_symmetry_is_structural(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        k = sys.K.to_dense()
        assert np.abs(k - k.T).max() == 0.0

    def test_refinement_nestedness_piecewise_constant_data(self):
        m0 = build_initial_mesh("l_shape")
        rng = np.random.default_rng(3)
        tab_a = np.stack([np.diag(rng.uniform(0.5, 2.0, 2))
                          for _ in range(m0.n_triangles)])
        tab_c = rng.uniform(0.0, 2.0, m0.n_triangles)
        co = Coefficients(tab_a, tab_c)
        coarse, _ = uniform_refine(m0, 1)
        fine, rmap = refine(coarse, np.array([0, 3, 5]), ell=2)
        k_c, _ = assemble_full(coarse, co)
        k_f, _ = assemble_full(fine, co)
        u = rng.standard_normal(coarse.n_vertices)
        u_f = interpolate(coarse, fine, rmap, u)
        qc = k_c.quad_form(u)
        qf = k_f.quad_form(u_f)
        assert abs(qf - qc) <= 1e-10 * qc

    def test_eliminated_system_is_spd(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 3)
        sys = assemble(m, Coefficients.identity())
        wk = np.linalg.eigvalsh(sys.K.to_dense())
        wm = np.linalg.eigvalsh(sys.M.to_dense())
        assert wk.min() > 0.0 and wm.min() > 0.0
        assert sys.K.n == sys.n_dofs == len(sys.free_dofs)


class TestElimination:
    def test_initial_unit_square_has_no_free_dofs(self):
        sys = assemble(build_initial_mesh("unit_square"),
                       Coefficients.identity())
        assert sys.n_dofs == 0
        assert sys.K.n == 0 and sys.M.n == 0

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
        k1, m1 = assemble_full(
            m, Coefficients(lambda x, y: np.eye(2), lambda x, y: 1.0))
        k2, m2 = assemble_full(m, Coefficients(np.eye(2), 1.0))
        assert_allclose(k1.to_dense(), k2.to_dense(), atol=1e-13)
        assert_allclose(m1.to_dense(), m2.to_dense(), atol=1e-15)

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
            assemble_full(m, skew)

    def test_negative_reaction_names_element(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 1)
        tab = np.zeros(2)
        tab[1] = -0.5
        bad = Coefficients(np.eye(2), np.repeat(tab, 1))
        with pytest.raises(AssemblyError, match="element"):
            assemble_full(m, bad)

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
            assemble_full(m, Coefficients(np.stack([np.eye(2)] * 2), 0.0))


class TestNorms:
    def test_zero_vector(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        assert energy_norm(sys, np.zeros(sys.n_dofs)) == 0.0
        assert b_norm(sys, np.zeros(sys.n_dofs)) == 0.0

    def test_one_by_one_arithmetic(self):
        # K = diag(4) on a single free dof -> energy norm of [1] is 2
        from paroeig.assembly import FemSystem
        from paroeig.linalg import SparseSymMatrix
        sys = FemSystem(K=SparseSymMatrix.from_dense([[4.0]]),
                        M=SparseSymMatrix.from_dense([[1.0]]),
                        free_dofs=np.array([0]), n_dofs=1, n_vertices=1)
        assert energy_norm(sys, np.array([1.0])) == 2.0

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
        direct = energy_norm(sys, u) ** 2
        assert abs(via_elements - direct) <= 1e-12 * abs(direct)

    def test_dimension_mismatch(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 2)
        sys = assemble(m, Coefficients.identity())
        with pytest.raises(AssemblyError, match="expected"):
            energy_norm(sys, np.zeros(sys.n_dofs + 2))

