"""Tests for the sparse-symmetric kernels against dense oracles.

Oracle routes are deliberately independent of the implementation:
np.linalg.solve (LU) for linear systems, scipy.linalg.eigh for pencils.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from paroeig.assembly import Coefficients, assemble
from paroeig.linalg import (
    LinAlgError,
    MinresResult,
    ShiftedOperator,
    SparseSymMatrix,
    b_orthonormalize,
    dense_sym_gen_eig,
    gram,
    minres_solve,
)
from paroeig.mesh import build_initial_mesh, uniform_refine


def random_spd(n, seed, cond_spread=(0.5, 10.0)):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = rng.uniform(*cond_spread, n)
    return (q * d) @ q.T


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestSparseSymMatrix:
    def test_roundtrip_matches_dense(self):
        a = random_sym(12, 3)
        s = SparseSymMatrix.from_dense(a)
        assert_allclose(s.to_dense(), a, atol=1e-15)
        x = np.arange(12, dtype=float)
        assert_allclose(s.matvec(x), a @ x, atol=1e-12)
        xs = np.arange(36, dtype=float).reshape(12, 3)
        assert_allclose(s.matmat(xs), a @ xs, atol=1e-12)
        assert_allclose(s.diagonal(), a.diagonal())
        assert_allclose(s.quad_form(x), x @ a @ x, rtol=1e-13)

    def test_rejects_upper_triangle_entries(self):
        full = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(LinAlgError, match="lower triangle"):
            SparseSymMatrix(full)

    def test_rejects_nonsquare(self):
        with pytest.raises(LinAlgError, match="square"):
            SparseSymMatrix(sp.csr_matrix(np.tril(np.ones((2, 3)))))

    def test_from_triplets_sums_duplicates(self):
        # 2x2 with entry (1,0) given twice: [[2, .5+.25], [.75, 3]] sym
        rows = np.array([0, 1, 1, 1])
        cols = np.array([0, 0, 0, 1])
        vals = np.array([2.0, 0.5, 0.25, 3.0])
        s = SparseSymMatrix.from_triplets(2, rows, cols, vals)
        assert_allclose(s.to_dense(), [[2.0, 0.75], [0.75, 3.0]])

    def test_shifted_operator(self):
        k = SparseSymMatrix.from_dense(np.diag([2.0, 5.0]))
        m = SparseSymMatrix.from_dense(np.eye(2))
        op = ShiftedOperator(k, m, 2.1)
        assert_allclose(op(np.ones(2)), [-0.1, 2.9], atol=1e-15)


def assembled(domain, passes):
    m, _ = uniform_refine(build_initial_mesh(domain), passes)
    return assemble(m, Coefficients.identity())


@st.composite
def sparse_lower(draw):
    """A random sparse lower triangle (diagonal included) as a CSR."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return sp.csr_matrix(np.tril(a))


class TestFullStorage:
    """The stored full matrix and the assembled shifted operator."""

    @pytest.mark.parametrize("domain,passes,nnz_k,nnz_m", [
        ("unit_square", 6, 133, 169), ("l_shape", 5, 213, 265)])
    def test_assembled_storage_symmetric_with_unchanged_nnz_lower(
            self, domain, passes, nnz_k, nnz_m):
        system = assembled(domain, passes)
        for s, nnz in ((system.K, nnz_k), (system.M, nnz_m)):
            full = s.to_csr()
            assert (full - full.T).nnz == 0
            assert s.nnz_lower == nnz == sp.tril(full).nnz

    @pytest.mark.parametrize("domain,passes", [("unit_square", 6),
                                               ("l_shape", 5)])
    def test_shifted_operator_matches_two_products(self, domain, passes):
        system = assembled(domain, passes)
        v = np.random.default_rng(3).standard_normal(system.n_dofs)
        for sigma in (0.0, 19.7, 1.0e3):
            op = ShiftedOperator(system.K, system.M, sigma)
            expect = system.K.matvec(v) - sigma * system.M.matvec(v)
            err = np.linalg.norm(op(v) - expect)
            assert err <= 1e-13 * np.linalg.norm(expect)

    def test_shifted_operator_holds_one_csr(self):
        k = SparseSymMatrix.from_dense(random_sym(6, 1))
        m = SparseSymMatrix.from_dense(random_spd(6, 2))
        op = ShiftedOperator(k, m, 0.3)
        assert isinstance(op.matrix, sp.csr_matrix)
        assert_allclose(op.matrix.toarray(),
                        k.to_dense() - 0.3 * m.to_dense(), atol=1e-15)

    def test_to_csr_is_a_copy(self):
        s = SparseSymMatrix.from_dense(random_sym(4, 5))
        before = s.to_dense()
        s.to_csr().data[:] = 0.0
        assert_allclose(s.to_dense(), before, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sparse_lower())
    def test_random_lower_gives_symmetric_products(self, lower):
        s = SparseSymMatrix(lower)
        full = s.to_csr()
        assert (full - full.T).nnz == 0
        dense = lower.toarray()
        dense = dense + np.tril(dense, k=-1).T
        assert_allclose(s.to_dense(), dense, atol=0.0)
        assert s.nnz_lower == np.count_nonzero(np.tril(dense))
        n = dense.shape[0]
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        xs = rng.standard_normal((n, 3))
        assert_allclose(s.matvec(x), dense @ x, rtol=1e-13, atol=1e-13)
        assert_allclose(s.matmat(xs), dense @ xs, rtol=1e-13, atol=1e-13)


class TestMinres:
    def test_diagonal_spd(self):
        s = SparseSymMatrix.from_dense(np.diag([2.0, 1.0]))
        res = minres_solve(s, np.array([2.0, 1.0]), tol=1e-12)
        assert_allclose(res.solution, [1.0, 1.0], atol=1e-10)
        assert res.flag == "converged"

    def test_diagonal_indefinite(self):
        s = SparseSymMatrix.from_dense(np.diag([-1.0, 3.0]))
        res = minres_solve(s, np.array([1.0, 3.0]), tol=1e-12)
        assert_allclose(res.solution, [-1.0, 1.0], atol=1e-10)

    def test_zero_rhs_returns_zero(self):
        s = SparseSymMatrix.from_dense(np.diag([-1.0, 3.0]))
        res = minres_solve(s, np.zeros(2))
        assert res.iterations == 0
        assert res.achieved_residual == 0.0
        assert_allclose(res.solution, 0.0)

    def test_random_spd_against_dense_lu(self):
        a = random_spd(50, 7)
        b = np.random.default_rng(8).standard_normal(50)
        oracle = np.linalg.solve(a, b)
        res = minres_solve(SparseSymMatrix.from_dense(a), b, tol=1e-13)
        assert res.flag == "converged"
        assert_allclose(res.solution, oracle, atol=1e-8)
        assert res.achieved_residual <= 1e-12

    def test_residual_history_monotone(self):
        a = random_sym(40, 11) + 0.1 * np.eye(40)   # indefinite
        b = np.random.default_rng(12).standard_normal(40)
        res = minres_solve(SparseSymMatrix.from_dense(a), b, tol=1e-11)
        assert isinstance(res, MinresResult)
        assert np.all(np.diff(res.residual_history) <= 0.0)

    def test_jacobi_preconditioner_agrees(self):
        a = random_spd(50, 7)
        a[np.diag_indices(50)] += np.linspace(0.0, 50.0, 50)  # skew scaling
        b = np.random.default_rng(9).standard_normal(50)
        oracle = np.linalg.solve(a, b)
        s = SparseSymMatrix.from_dense(a)
        res = minres_solve(s, b, tol=1e-13, precond_diag=a.diagonal())
        assert_allclose(res.solution, oracle, atol=1e-8)

    def test_precond_must_be_positive(self):
        s = SparseSymMatrix.from_dense(np.diag([1.0, 2.0]))
        with pytest.raises(LinAlgError, match="positive"):
            minres_solve(s, np.ones(2), precond_diag=np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, bad):
        s = SparseSymMatrix.from_dense(np.diag([2.0, 1.0, 3.0]))
        rhs = np.array([1.0, bad, 1.0])
        with pytest.raises(LinAlgError, match="right-hand side"):
            minres_solve(s, rhs)

    def test_non_finite_operator_raises(self):
        s = SparseSymMatrix.from_dense(np.diag([2.0, np.nan, 3.0]))
        with pytest.raises(LinAlgError, match="not finite"):
            minres_solve(s, np.ones(3))

    def test_max_iter_is_reported_not_raised(self):
        a = random_spd(60, 21, cond_spread=(1e-6, 1.0))
        b = np.random.default_rng(22).standard_normal(60)
        res = minres_solve(SparseSymMatrix.from_dense(a), b,
                           tol=1e-16, max_iter=3)
        assert res.flag == "max_iter"
        assert res.iterations == 3

    def test_near_singular_shift_amplifies_eigendirection(self):
        # (K - shift*M) x = shift * M u with K=diag(2,5), M=I, shift=2.1:
        # x = 2.1 * [1/(2-2.1), 1/(5-2.1)] / sqrt(2), dominated by the
        # component whose eigenvalue is closest to the shift.
        k = SparseSymMatrix.from_dense(np.diag([2.0, 5.0]))
        m = SparseSymMatrix.from_dense(np.eye(2))
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        res = minres_solve(ShiftedOperator(k, m, 2.1), 2.1 * m.matvec(u),
                           tol=1e-12)
        expect = 2.1 * np.array([1.0 / -0.1, 1.0 / 2.9]) / np.sqrt(2.0)
        assert_allclose(res.solution, expect, rtol=1e-9)


class TestDensePencil:
    def test_identity_mass_diagonal(self):
        w, v = dense_sym_gen_eig(np.diag([1.0, 2.0]), np.eye(2))
        assert_allclose(w, [1.0, 2.0])
        assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_scaled_mass(self):
        w, v = dense_sym_gen_eig(np.eye(2), np.diag([4.0, 1.0]))
        assert_allclose(w, [0.25, 1.0])
        assert_allclose(v, np.diag([0.5, 1.0]), atol=1e-14)

    def test_random_pencil_against_scipy_eigh(self):
        rng = np.random.default_rng(5)
        a = random_sym(8, 5)
        m = rng.standard_normal((8, 8))
        m = m @ m.T + 8.0 * np.eye(8)
        w, v = dense_sym_gen_eig(a, m)
        assert np.all(np.diff(w) >= 0.0)
        w_ref = scipy.linalg.eigh(a, m, eigvals_only=True)
        assert_allclose(w, w_ref, atol=1e-12)
        scale = np.abs(a).max()
        resid = np.abs(a @ v - m @ v @ np.diag(w)).max()
        assert resid <= 1e-10 * scale
        assert_allclose(v.T @ m @ v, np.eye(8), atol=1e-12)

    def test_eigenvalues_invariant_under_basis_change(self):
        rng = np.random.default_rng(6)
        a = random_sym(8, 15)
        m = random_spd(8, 16, cond_spread=(1.0, 4.0))
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        w0, _ = dense_sym_gen_eig(a, m)
        w1, _ = dense_sym_gen_eig(q.T @ a @ q, q.T @ m @ q)
        assert_allclose(w1, w0, atol=1e-11)

    def test_degenerate_mass_raises(self):
        with pytest.raises(LinAlgError, match="positive definite"):
            dense_sym_gen_eig(np.eye(2), np.ones((2, 2)))

    def test_asymmetric_input_raises(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(LinAlgError, match="symmetric"):
            dense_sym_gen_eig(bad, np.eye(2))

    def test_one_by_one(self):
        w, v = dense_sym_gen_eig([[3.0]], [[2.0]])
        assert_allclose(w, [1.5])
        assert_allclose(v[0, 0] ** 2 * 2.0, 1.0, rtol=1e-14)


class TestBlockUtilities:
    def test_gram_is_symmetric_and_exact(self):
        a = random_spd(10, 31)
        s = SparseSymMatrix.from_dense(a)
        v = np.random.default_rng(32).standard_normal((3, 10))
        g = gram(v, s)
        assert_allclose(g, g.T, atol=0.0)      # symmetrized exactly
        assert_allclose(g, v @ a @ v.T, atol=1e-12)

    def test_b_orthonormalize_gram_identity(self):
        a = random_spd(30, 41)
        s = SparseSymMatrix.from_dense(a)
        v = np.random.default_rng(42).standard_normal((5, 30))
        vo = b_orthonormalize(v, s)
        assert_allclose(gram(vo, s), np.eye(5), atol=1e-12)

    def test_b_orthonormalize_preserves_span(self):
        a = random_spd(20, 43)
        s = SparseSymMatrix.from_dense(a)
        v = np.random.default_rng(44).standard_normal((4, 20))
        vo = b_orthonormalize(v, s)
        # rows of v must be reproduced by their projection onto span(vo)
        proj = vo.T @ (vo @ s.matmat(v.T))
        assert_allclose(proj, v.T, atol=1e-10)

    def test_duplicate_vector_raises_with_index(self):
        s = SparseSymMatrix.from_dense(np.eye(6))
        v = np.random.default_rng(45).standard_normal(6)
        with pytest.raises(LinAlgError, match="vector 1"):
            b_orthonormalize(np.vstack([v, v]), s)

    def test_already_orthonormal_unchanged(self):
        s = SparseSymMatrix.from_dense(np.eye(4))
        v = np.eye(4)[:2]
        assert_allclose(b_orthonormalize(v, s), v, atol=1e-14)
