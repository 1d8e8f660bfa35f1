"""Oracle-side diagnostics: reference solver, subspace metrics, rates."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from paroeig import paro
from paroeig.assembly import (Coefficients, FemSystem, assemble,
                               element_matrices)
from paroeig.linalg import dense_sym_gen_eig
from paroeig.mesh import build_initial_mesh, uniform_refine
from paroeig.verify import (
    VerifyError,
    analytic_spectrum,
    dist_a,
    fit_rate,
    galerkin_projection_gap,
    load_vector,
    quasi_orthogonality_report,
    reference_eig,
    square_eigenfunction,
)

IDENTITY = Coefficients.identity()


def diag_system(k_diag, m_diag=None):
    n = len(k_diag)
    m_diag = np.ones(n) if m_diag is None else np.asarray(m_diag)
    return FemSystem(K=sp.csr_matrix(np.diag(k_diag)),
                     M=sp.csr_matrix(np.diag(m_diag)),
                     free_dofs=np.arange(n))


def dense_system(rng, n):
    a = rng.standard_normal((n, n))
    k = a @ a.T + n * np.eye(n)
    return FemSystem(K=sp.csr_matrix(k), M=sp.identity(n, format="csr"),
                     free_dofs=np.arange(n))


@pytest.fixture(scope="module")
def sq6():
    m, _ = uniform_refine(build_initial_mesh("unit_square"), 6)
    system = assemble(m, IDENTITY)
    return m, system, reference_eig(system, 6)


@pytest.fixture(scope="module")
def sq8():
    m, _ = uniform_refine(build_initial_mesh("unit_square"), 8)
    system = assemble(m, IDENTITY)
    return m, system, reference_eig(system, 6)


class TestReferenceEig:
    def test_two_dof_diagonal_pencil(self):
        ref = reference_eig(diag_system(np.array([1.0, 3.0])), 1)
        assert ref.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.abs(ref.vectors[0]), [1.0, 0.0], atol=1e-10)

    def test_too_many_pairs_rejected(self):
        with pytest.raises(VerifyError, match="only"):
            reference_eig(diag_system(np.ones(3)), 4)

    def test_as_many_pairs_as_dofs(self):
        # no room for guard vectors: the block spans the whole space
        ref = reference_eig(diag_system(np.array([3.0, 1.0, 2.0])), 3)
        assert_allclose(ref.eigenvalues, [1.0, 2.0, 3.0], rtol=1e-12)
        assert_allclose(np.abs(ref.vectors), np.eye(3)[[1, 2, 0]],
                        atol=1e-12)

    @pytest.mark.parametrize("k_diag, m_diag, match", [
        ([1.0, 0.0, 2.0, 3.0], None, "factored"),
        ([1.0, np.nan, 2.0, 3.0], None, "finite"),
        ([1.0, 2.0, 3.0, 4.0], [1.0, np.inf, 1.0, 1.0], "finite"),
    ])
    def test_singular_or_non_finite_pencil_rejected(self, k_diag, m_diag,
                                                    match):
        with pytest.raises(VerifyError, match=match):
            reference_eig(diag_system(np.array(k_diag), m_diag), 1)

    def test_sweep_cap_reported(self, sq6):
        _, system, _ = sq6
        with pytest.raises(VerifyError, match="did not reach"):
            reference_eig(system, 6, max_iter=1)

    def test_lowest_eigenvalue_bracket_h32(self):
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 10)
        system = assemble(m, IDENTITY)
        lam = reference_eig(system, 1).eigenvalues[0]
        lam_exact = 2.0 * np.pi ** 2
        assert lam_exact < lam < lam_exact * 1.01

    def test_agrees_with_dense_route_small_system(self, sq6):
        _, system, ref = sq6
        assert system.n_dofs <= 200
        w, _ = dense_sym_gen_eig(system.K.toarray(), system.M.toarray())
        assert np.allclose(ref.eigenvalues, w[:6], rtol=1e-9)

    def test_residual_and_orthonormality_invariants(self, sq6):
        _, system, ref = sq6
        k, m = system.K, system.M
        k_norm = float(np.abs(k).sum(axis=1).max())
        for lam, v in zip(ref.eigenvalues, ref.vectors):
            res = np.linalg.norm(k @ v - lam * (m @ v))
            assert res <= 1e-9 * k_norm * np.linalg.norm(v)
        g = ref.vectors @ (m @ ref.vectors.T)
        assert np.allclose(g, np.eye(6), atol=1e-9)

    def test_start_block_independence(self, sq6):
        _, system, ref = sq6
        again = reference_eig(system, 6, seed=3)
        assert np.allclose(again.eigenvalues, ref.eigenvalues, rtol=1e-10)


class TestDistA:
    def test_same_span_different_bases(self):
        rng = np.random.default_rng(0)
        system = dense_system(rng, 8)
        x = rng.standard_normal((3, 8))
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert dist_a(system, x, mix @ x) <= 1e-10

    def test_orthogonal_lines_have_distance_one(self):
        system = diag_system(np.array([1.0, 2.0, 3.0]))
        e1 = np.array([[1.0, 0.0, 0.0]])
        e2 = np.array([[0.0, 1.0, 0.0]])
        assert dist_a(system, e1, e2) == pytest.approx(1.0, abs=1e-14)

    def test_symmetry_for_equal_dimensions(self):
        rng = np.random.default_rng(3)
        system = dense_system(rng, 10)
        x = rng.standard_normal((3, 10))
        y = rng.standard_normal((3, 10))
        assert dist_a(system, x, y) == pytest.approx(
            dist_a(system, y, x), abs=1e-10)

    def test_wider_than_target_is_maximal(self):
        rng = np.random.default_rng(4)
        system = dense_system(rng, 6)
        assert dist_a(system, rng.standard_normal((3, 6)),
                      rng.standard_normal((2, 6))) == 1.0

    def test_rank_deficient_input_rejected(self):
        system = diag_system(np.ones(4))
        x = np.ones((2, 4))
        with pytest.raises(VerifyError, match="rank deficient"):
            dist_a(system, x, np.eye(4)[:2])

    def test_triangle_type_bound_randomized(self):
        # for a-orthogonal x1, x2 the squared distance of the sum is
        # subadditive against any target subspace
        rng = np.random.default_rng(7)
        for _ in range(20):
            system = dense_system(rng, 9)
            x1 = rng.standard_normal(9)
            x2 = rng.standard_normal(9)
            kx1 = system.K @ x1
            x2 = x2 - (kx1 @ x2) / (kx1 @ x1) * x1
            y = rng.standard_normal((2, 9))
            lhs = dist_a(system, x1 + x2, y) ** 2
            rhs = dist_a(system, x1, y) ** 2 + dist_a(system, x2, y) ** 2
            assert lhs <= rhs + 1e-10


class TestAnalyticSpectrum:
    def test_first_value(self):
        vals = analytic_spectrum("unit_square", 1)
        assert vals[0] == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)
        assert vals[0] == pytest.approx(19.7392088, abs=1e-6)

    def test_first_three(self):
        vals = analytic_spectrum("unit_square", 3)
        assert np.allclose(vals, np.pi ** 2 * np.array([2.0, 5.0, 5.0]),
                           rtol=1e-14)

    def test_first_six_multiplicity_pattern(self):
        vals = analytic_spectrum("unit_square", 6)
        assert np.allclose(vals, np.pi ** 2 * np.array(
            [2.0, 5.0, 5.0, 8.0, 10.0, 10.0]), rtol=1e-14)
        layout = paro.cluster_guesses(vals)
        assert layout.d == (1, 2, 1, 2)

    def test_unsupported_domain(self):
        with pytest.raises(VerifyError, match="no analytic spectrum"):
            analytic_spectrum("l_shape", 4)

    @pytest.mark.parametrize("count", [2.5, 2.0, "3", None])
    def test_count_must_be_an_integer(self, count):
        # 2.5 used to reach the slice as a bare TypeError
        with pytest.raises(VerifyError, match="count must be an integer"):
            analytic_spectrum("unit_square", count)

    def test_numpy_integer_count(self):
        assert np.array_equal(analytic_spectrum("unit_square", np.int64(3)),
                              analytic_spectrum("unit_square", 3))


class TestFitRate:
    def test_exact_inverse_law(self):
        x = np.array([10.0, 20.0, 40.0, 80.0])
        slope, r2 = fit_rate(x, 1.0 / x)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        x = np.array([1.0, 2.0, 4.0])
        slope, r2 = fit_rate(x, np.full(3, 0.7))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_quadratic_decay(self):
        rng = np.random.default_rng(21)
        x = np.logspace(1, 3, 12)
        y = x ** -2.0 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, size=12))
        slope, r2 = fit_rate(x, y)
        assert -2.1 <= slope <= -1.9

    def test_too_few_samples(self):
        with pytest.raises(VerifyError, match="3"):
            fit_rate(np.array([1.0, 2.0]), np.array([1.0, 0.5]))

    def test_nonpositive_samples(self):
        with pytest.raises(VerifyError, match="positive"):
            fit_rate(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.5]))


class TestQuasiOrthogonality:
    def layout6(self):
        return paro.ClusterLayout((1, 2, 1, 2))

    def block_from(self, vectors, values, layout):
        shifts = np.array([values[sl].mean()
                           for sl in layout.cluster_slices()])
        return paro.OrbitalBlock(layout=layout, vectors=vectors,
                                 ritz_values=values, shifts=shifts)

    def test_identical_block_reports_zeros(self, sq6):
        _, system, ref = sq6
        layout = self.layout6()
        block = self.block_from(ref.vectors, ref.eigenvalues, layout)
        for rep in quasi_orthogonality_report(system, block, ref, layout):
            assert rep.dist <= 1e-9
            assert rep.max_gap <= 1e-9
            assert rep.bound_ok

    def test_internal_rotation_leaves_distance_zero(self, sq6):
        _, system, ref = sq6
        layout = self.layout6()
        th = np.pi / 6
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        vecs = ref.vectors.copy()
        vecs[1:3] = q @ vecs[1:3]
        block = self.block_from(vecs, ref.eigenvalues.copy(), layout)
        reps = quasi_orthogonality_report(system, block, ref, layout)
        assert reps[1].dist <= 1e-9
        assert reps[1].max_gap == 0.0
        assert reps[1].bound_ok

    def test_converged_orbitals_meet_matched_basis_bound(self, sq8):
        m, system, ref = sq8
        pairs = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
        pts = m.vertices[system.free_dofs]
        starts = np.stack([np.sin(np.pi * a * pts[:, 0])
                           * np.sin(np.pi * b * pts[:, 1])
                           for a, b in pairs])
        starts += 0.05 * np.random.default_rng(0).standard_normal(
            starts.shape)
        out, _, _ = paro.paro_inner_loop(
            system, paro.initial_block(system, starts),
            1e-10, 60)
        reps = quasi_orthogonality_report(system, out, ref, out.layout)
        assert [rep.dim for rep in reps] == [1, 2, 1, 2]
        for rep in reps:
            assert rep.bound_ok

    def test_dimension_mismatch_rejected(self, sq6):
        _, system, ref = sq6
        layout = paro.ClusterLayout((2,))
        block = self.block_from(ref.vectors[:2], ref.eigenvalues[:2],
                                layout)
        with pytest.raises(VerifyError, match="layout"):
            quasi_orthogonality_report(system, block, ref,
                                       paro.ClusterLayout((7,)))


class TestGalerkinGap:
    def test_eigenvalue_error_sandwiched_by_projection_gap(self, sq6, sq8):
        lam2, lam5, lam8 = (np.pi ** 2 * c for c in (2.0, 5.0, 8.0))
        groups = [([(1, 1, lam2)], [0]),
                  ([(2, 1, lam5), (1, 2, lam5)], [1, 2]),
                  ([(2, 2, lam8)], [3])]
        for m, system, ref in (sq6, sq8):
            for modes, idx in groups:
                gap_sq = galerkin_projection_gap(m, system, modes)
                lam = modes[0][2]
                for i in idx:
                    lam_h = ref.eigenvalues[i]
                    assert lam_h - lam >= -1e-9 * lam
                    assert lam_h - lam <= lam_h * gap_sq + 1e-9 * lam

    def test_mixed_eigenvalues_rejected(self, sq6):
        m, system, _ = sq6
        with pytest.raises(VerifyError, match="one eigenvalue"):
            galerkin_projection_gap(m, system,
                                    [(1, 1, 2 * np.pi ** 2),
                                     (2, 1, 5 * np.pi ** 2)])

    def test_load_vector_matches_mass_quadrature(self):
        # loading a globally linear function must reproduce M w exactly
        m, _ = uniform_refine(build_initial_mesh("unit_square"), 4)
        w = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1] + 1.0

        def as_func(x, y):
            return 2.0 * x + 3.0 * y + 1.0

        _, me = element_matrices(m, IDENTITY)
        mw = np.zeros(m.n_vertices)
        np.add.at(mw, m.triangles,
                  np.einsum("tij,tj->ti", me, w[m.triangles]))
        got = load_vector(m, as_func)
        assert np.allclose(got, mw, atol=1e-12)

    def test_square_eigenfunction_normalized(self):
        u = square_eigenfunction(2, 3)
        mid = (np.arange(400) + 0.5) / 400.0
        xs, ys = np.meshgrid(mid, mid)
        approx = np.mean(u(xs, ys) ** 2)
        assert approx == pytest.approx(1.0, rel=1e-6)
