"""Tests for the linear-algebra kernels against dense oracles.

Oracle routes are deliberately independent of the implementation:
np.linalg.solve (LU) for linear systems, scipy.linalg.eigh for pencils.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from paroeig import paro
from paroeig.assembly import Coefficients, FemSystem, assemble
from paroeig.linalg import (
    LinAlgError,
    MinresResult,
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


def assembled(domain, passes):
    m, _ = uniform_refine(build_initial_mesh(domain), passes)
    return assemble(m, Coefficients.identity())


def shifted_operators(system, shifts, monkeypatch):
    """The operators orbital_update hands to its block MINRES call, one
    single-orbital cluster per shift."""
    ops = []
    solve = paro.minres_solve

    def recording(op, rhs, **kwargs):
        ops.extend(op)
        return solve(op, rhs, **dict(kwargs, max_iter=1))

    monkeypatch.setattr(paro, "minres_solve", recording)
    n = len(shifts)
    vectors = np.random.default_rng(4).standard_normal((n, system.n_dofs))
    block = paro.OrbitalBlock(
        layout=paro.ClusterLayout((1,) * n), vectors=vectors,
        ritz_values=2.0 * np.asarray(shifts), shifts=shifts)
    paro.orbital_update(system, block)
    return ops


class TestFullStorage:
    """The assembled full matrices and the shifted operator."""

    @pytest.mark.parametrize("domain,passes,nnz_k,nnz_m", [
        ("unit_square", 6, 133, 169), ("l_shape", 5, 213, 265)])
    def test_assembled_storage_symmetric_with_unchanged_nnz_lower(
            self, domain, passes, nnz_k, nnz_m):
        system = assembled(domain, passes)
        for full, nnz in ((system.K, nnz_k), (system.M, nnz_m)):
            assert (full - full.T).nnz == 0
            assert sp.tril(full).nnz == nnz

    @pytest.mark.parametrize("domain,passes", [("unit_square", 6),
                                               ("l_shape", 5)])
    def test_shifted_operator_matches_two_products(self, domain, passes,
                                                   monkeypatch):
        system = assembled(domain, passes)
        v = np.random.default_rng(3).standard_normal(system.n_dofs)
        sigmas = [1.0e-3, 19.7, 1.0e3]
        for op, sigma in zip(shifted_operators(system, sigmas, monkeypatch),
                             sigmas, strict=True):
            expect = system.K @ v - sigma * (system.M @ v)
            err = np.linalg.norm(op @ v - expect)
            assert err <= 1e-13 * np.linalg.norm(expect)

    def test_shifted_operator_holds_one_csr(self, monkeypatch):
        k, m = random_sym(6, 1), random_spd(6, 2)
        system = FemSystem(K=sp.csr_matrix(k), M=sp.csr_matrix(m),
                           free_dofs=np.arange(6))
        (op,) = shifted_operators(system, [0.3], monkeypatch)
        assert isinstance(op, sp.csr_matrix)
        assert_allclose(op.toarray(), k - 0.3 * m, atol=1e-15)


class TestMinres:
    def test_diagonal_spd(self):
        s = sp.csr_matrix(np.diag([2.0, 1.0]))
        res = minres_solve([s], np.array([[2.0, 1.0]]), tol=1e-12)
        assert_allclose(res.solution, [[1.0, 1.0]], atol=1e-10)
        assert res.flag == "converged"

    def test_diagonal_indefinite(self):
        s = np.diag([-1.0, 3.0])
        res = minres_solve([s], np.array([[1.0, 3.0]]), tol=1e-12)
        assert_allclose(res.solution, [[-1.0, 1.0]], atol=1e-10)

    def test_zero_rhs_returns_zero(self):
        s = sp.csr_matrix(np.diag([-1.0, 3.0]))
        res = minres_solve([s], np.zeros((1, 2)))
        assert res.iterations == 0
        assert res.achieved_residual == 0.0
        assert_allclose(res.solution, 0.0)

    def test_random_spd_against_dense_lu(self):
        a = random_spd(50, 7)
        b = np.random.default_rng(8).standard_normal(50)
        oracle = np.linalg.solve(a, b)
        res = minres_solve([sp.csr_matrix(a)], b[None], tol=1e-13)
        assert res.flag == "converged"
        assert_allclose(res.solution[0], oracle, atol=1e-8)
        assert res.achieved_residual <= 1e-12

    def test_residual_history_monotone(self):
        a = random_sym(40, 11) + 0.1 * np.eye(40)   # indefinite
        b = np.random.default_rng(12).standard_normal(40)
        res = minres_solve([sp.csr_matrix(a)], b[None], tol=1e-11)
        assert isinstance(res, MinresResult)
        assert np.all(np.diff(res.residual_history[0]) <= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           shift=st.floats(0.0, 1.5), jacobi=st.booleans(),
           tol=st.sampled_from([1e-2, 1e-6, 1e-10, 1e-14]),
           cap=st.floats(0.05, 2.0))
    def test_shifted_pencil_history_and_flag(self, n, seed, shift, jacobi,
                                             tol, cap):
        # K - sigma*M with sigma anywhere from 0 into the middle of the
        # spectrum, with and without an SPD preconditioner
        rng = np.random.default_rng(seed)
        k = random_spd(n, seed, cond_spread=(1e-3, 10.0))
        m = random_spd(n, seed + 1)
        lam = scipy.linalg.eigh(k, m, eigvals_only=True)
        op = sp.csr_matrix(k) - shift * lam[n // 2] * sp.csr_matrix(m)
        b = rng.standard_normal(n)
        d = k.diagonal() if jacobi else np.ones(n)
        precond = (lambda r, rows: r / d[:, None]) if jacobi else None
        max_iter = max(1, int(cap * n))
        res = minres_solve([op], b[None], tol=tol, max_iter=max_iter,
                           precond=precond)
        (hist,) = res.residual_history
        beta1 = np.sqrt(b @ (b / d))
        assert_allclose(hist[0], beta1, rtol=1e-14)
        assert len(hist) == res.iterations + 1
        assert np.all(np.diff(hist) <= 0.0)
        if res.flag == "converged":
            # the usual exit, or 10x that on an exhausted Krylov space
            assert hist[-1] <= 10.0 * tol * beta1
        elif res.flag == "breakdown":
            assert hist[-1] > 10.0 * tol * beta1
        else:
            assert res.flag == "max_iter"
            assert res.iterations == max_iter
            assert hist[-1] > tol * beta1

    def test_jacobi_preconditioner_agrees(self):
        a = random_spd(50, 7)
        a[np.diag_indices(50)] += np.linspace(0.0, 50.0, 50)  # skew scaling
        b = np.random.default_rng(9).standard_normal(50)
        oracle = np.linalg.solve(a, b)
        s = sp.csr_matrix(a)
        d = a.diagonal()
        res = minres_solve([s], b[None], tol=1e-13,
                           precond=lambda r, rows: r / d[:, None])
        assert_allclose(res.solution[0], oracle, atol=1e-8)

    def test_precond_must_be_positive(self):
        s = sp.csr_matrix(np.diag([1.0, 2.0]))
        d = np.array([[1.0], [-1.0]])
        with pytest.raises(LinAlgError, match="positive"):
            minres_solve([s], np.ones((1, 2)),
                         precond=lambda r, rows: r / d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, bad):
        s = sp.csr_matrix(np.diag([2.0, 1.0, 3.0]))
        rhs = np.array([[1.0, bad, 1.0]])
        with pytest.raises(LinAlgError, match="right-hand side"):
            minres_solve([s], rhs)

    def test_non_finite_operator_raises(self):
        s = sp.csr_matrix(np.diag([2.0, np.nan, 3.0]))
        with pytest.raises(LinAlgError, match="not finite"):
            minres_solve([s], np.ones((1, 3)))

    def test_max_iter_is_reported_not_raised(self):
        a = random_spd(60, 21, cond_spread=(1e-6, 1.0))
        b = np.random.default_rng(22).standard_normal(60)
        res = minres_solve([sp.csr_matrix(a)], b[None], tol=1e-16,
                           max_iter=3)
        assert res.flag == "max_iter"
        assert res.iterations == 3

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf])
    def test_bad_tol_raises(self, tol):
        # a 50-dof diagonal system that needs 42 iterations; a bad
        # tol used to run it to the 4n cap
        s = sp.csr_matrix(np.diag(np.arange(1.0, 51.0)))
        with pytest.raises(LinAlgError, match="tol"):
            minres_solve([s], np.ones((1, 50)), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_bad_max_iter_raises(self, max_iter):
        # used to return x = 0 with flag "max_iter"
        s = sp.csr_matrix(np.diag(np.arange(1.0, 51.0)))
        with pytest.raises(LinAlgError, match="max_iter"):
            minres_solve([s], np.ones((1, 50)), max_iter=max_iter)

    def test_near_singular_shift_amplifies_eigendirection(self):
        # (K - shift*M) x = shift * M u with K=diag(2,5), M=I, shift=2.1:
        # x = 2.1 * [1/(2-2.1), 1/(5-2.1)] / sqrt(2), dominated by the
        # component whose eigenvalue is closest to the shift.
        k = sp.csr_matrix(np.diag([2.0, 5.0]))
        m = sp.identity(2, format="csr")
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        res = minres_solve([k - 2.1 * m], 2.1 * (m @ u)[None], tol=1e-12)
        expect = 2.1 * np.array([1.0 / -0.1, 1.0 / 2.9]) / np.sqrt(2.0)
        assert_allclose(res.solution[0], expect, rtol=1e-9)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        a = np.array([[1.0, 0.5], [0.5, bad]])
        with pytest.raises(LinAlgError, match="finite"):
            dense_sym_gen_eig(a, np.eye(2))
        with pytest.raises(LinAlgError, match="finite"):
            dense_sym_gen_eig(np.eye(2), a)

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
        v = np.random.default_rng(32).standard_normal((3, 10))
        for s in (sp.csr_matrix(a), a):
            g = gram(v, s)
            assert_allclose(g, g.T, atol=0.0)      # symmetrized exactly
            assert_allclose(g, v @ a @ v.T, atol=1e-12)

    def test_b_orthonormalize_gram_identity(self):
        a = random_spd(30, 41)
        s = sp.csr_matrix(a)
        v = np.random.default_rng(42).standard_normal((5, 30))
        vo = b_orthonormalize(v, s)
        assert_allclose(gram(vo, s), np.eye(5), atol=1e-12)

    def test_b_orthonormalize_preserves_span(self):
        a = random_spd(20, 43)
        v = np.random.default_rng(44).standard_normal((4, 20))
        vo = b_orthonormalize(v, a)
        # rows of v must be reproduced by their projection onto span(vo)
        proj = vo.T @ (vo @ (a @ v.T))
        assert_allclose(proj, v.T, atol=1e-10)

    def test_duplicate_vector_raises_with_index(self):
        s = sp.identity(6, format="csr")
        v = np.random.default_rng(45).standard_normal(6)
        with pytest.raises(LinAlgError, match="vector 1"):
            b_orthonormalize(np.vstack([v, v]), s)

    def test_already_orthonormal_unchanged(self):
        s = sp.identity(4, format="csr")
        v = np.eye(4)[:2]
        assert_allclose(b_orthonormalize(v, s), v, atol=1e-14)


class TestBlockMinres:
    """A (k, n) right-hand side runs k recurrences in lockstep; each row
    must come out as the same row solved alone."""

    @staticmethod
    def row_case(kind, n, seed):
        """(operator, rhs, Jacobi diagonal) for one row."""
        rng = np.random.default_rng(seed)
        if kind == "one_step":
            # b is an eigenvector: exact after one step
            d = rng.uniform(1.0, 3.0, n)
            return sp.csr_matrix(np.diag(d)), 2.0 * np.eye(n)[0], d
        if kind == "breakdown":
            # singular and inconsistent: the Krylov space runs out first
            d = np.arange(n, dtype=float)
            return np.diag(d), np.ones(n), d + 1.0
        if kind == "zero":
            return random_sym(n, seed), np.zeros(n), np.ones(n)
        k = random_spd(n, seed, cond_spread=(1e-3, 10.0))
        m = random_spd(n, seed + 1)
        lam = scipy.linalg.eigh(k, m, eigvals_only=True)
        shift = rng.uniform(0.0, 1.5) * lam[n // 2]
        op = sp.csr_matrix(k) - shift * sp.csr_matrix(m)
        return op, rng.standard_normal(n), k.diagonal()

    @settings(max_examples=40, deadline=None)
    @example(n=6, seed=1, kinds=["pencil", "one_step", "breakdown", "zero"],
             jacobi=True, tol=1e-10, cap=2.0)
    @example(n=6, seed=2, kinds=["breakdown", "pencil", "one_step"],
             jacobi=False, tol=1e-14, cap=0.5)
    @given(n=st.integers(3, 20), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(
               ["pencil", "pencil", "one_step", "breakdown", "zero"]),
               min_size=1, max_size=5),
           jacobi=st.booleans(),
           tol=st.sampled_from([1e-4, 1e-10, 1e-14]),
           cap=st.floats(0.1, 2.0))
    def test_rows_equal_single_solves(self, n, seed, kinds, jacobi, tol,
                                      cap):
        cases = [self.row_case(kind, n, seed + 7 * j)
                 for j, kind in enumerate(kinds)]
        ops = [c[0] for c in cases]
        rhs = np.array([c[1] for c in cases])
        diag = np.array([c[2] for c in cases])
        max_iter = max(1, int(cap * n))
        block = minres_solve(
            ops, rhs, tol=tol, max_iter=max_iter,
            precond=(lambda r, rows: r / diag[rows].T) if jacobi else None)
        singles = [minres_solve(
            [op], b[None], tol=tol, max_iter=max_iter,
            precond=(lambda r, rows, d=d: r / d[:, None]) if jacobi
            else None)
            for op, b, d in zip(ops, rhs, diag)]
        assert block.solution.shape == rhs.shape
        assert block.row_iterations == tuple(s.iterations for s in singles)
        assert block.row_flags == tuple(s.flag for s in singles)
        assert block.iterations == max(s.iterations for s in singles)
        assert block.flag == max((s.flag for s in singles),
                                 key=["converged", "max_iter",
                                      "breakdown"].index)
        for x, s in zip(block.solution, singles):
            scale = np.linalg.norm(s.solution)
            assert np.linalg.norm(x - s.solution[0]) <= 1e-12 * scale
        for hist, s in zip(block.residual_history, singles):
            assert_allclose(hist, s.residual_history[0], rtol=1e-12)

    def test_each_step_preconditions_the_running_rows_once(self):
        d = np.arange(1.0, 31.0)
        ops = [sp.csr_matrix(np.diag(d))] * 3
        # one, a few and many iterations
        rhs = np.array([np.eye(30)[0], np.eye(30)[:4].sum(axis=0),
                        np.ones(30)])
        calls = []

        def precond(r, rows):
            assert r.flags.c_contiguous and r.shape == (30, len(rows))
            calls.append(rows.tolist())
            return r.copy()

        res = minres_solve(ops, rhs, tol=1e-12, precond=precond)
        # one application for the start, then one per lockstep step
        assert len(calls) == res.iterations + 1
        assert res.row_iterations == (1, 4, 30)
        assert calls[0] == calls[1] == [0, 1, 2]
        assert calls[2] == [1, 2] and calls[-1] == [2]

    @pytest.mark.parametrize("bad", ["operator", "rhs", "precond"])
    def test_errors_name_the_row(self, bad):
        s = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        ops, rhs = [s, s], np.ones((2, 3))
        precond = None
        if bad == "operator":
            ops = [s, sp.csr_matrix(np.diag([1.0, np.nan, 3.0]))]
            match = r"residual estimate \(row 1\) is not finite"
        elif bad == "rhs":
            rhs[1, 2] = np.inf
            match = r"right-hand side \(row 1\) is not finite"
        else:
            sign = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])
            precond = lambda r, rows: r * sign[:, rows]    # noqa: E731
            match = r"not positive definite \(row 1\)"
        with pytest.raises(LinAlgError, match=match):
            minres_solve(ops, rhs, precond=precond)

    def test_rows_need_one_operator_each(self):
        s = sp.csr_matrix(np.diag([1.0, 2.0]))
        with pytest.raises(LinAlgError, match="list of 2 operators"):
            minres_solve(s, np.ones((2, 2)))
        with pytest.raises(LinAlgError, match="list of 2 operators"):
            minres_solve([s], np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(3,), (1, 1, 3)])
    def test_rhs_must_be_k_by_n(self, shape):
        # (3,) with a bare operator was the single-vector call
        s = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        for ops in (s, [s]):
            with pytest.raises(LinAlgError, match=r"must be \(k, n\)"):
                minres_solve(ops, np.ones(shape))
