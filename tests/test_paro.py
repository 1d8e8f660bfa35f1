"""Tests for the orbital-updating inner iteration.

The reference route is scipy.linalg.eigh on densified pencils, which
shares no code with the iteration under test.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import check_block
from paroeig.assembly import Coefficients, FemSystem, assemble
from paroeig.linalg import gram, minres_solve
from paroeig.mesh import build_initial_mesh, uniform_refine
from paroeig.paro import (
    ClusterLayout,
    OrbitalBlock,
    ParoError,
    cluster_guesses,
    initial_block,
    orbital_update,
    paro_inner_loop,
    relative_change,
    ritz_step,
)


def diag_system(k_diag, m_diag=None):
    n = len(k_diag)
    m_diag = np.ones(n) if m_diag is None else np.asarray(m_diag)
    return FemSystem(K=sp.csr_matrix(np.diag(k_diag)),
                     M=sp.csr_matrix(np.diag(m_diag)),
                     free_dofs=np.arange(n))


def subspace_dist_a(x, y, k):
    """sin of the largest principal angle in the K inner product,
    computed from the projection residual (no cancellation floor)."""
    def aortho(v):
        g = gram(np.asarray(v, dtype=np.float64), k)
        ell = np.linalg.cholesky(g)
        return np.linalg.solve(ell, v)
    xo, yo = aortho(x), aortho(y)
    if xo.shape[0] > yo.shape[0]:
        return 1.0
    w = yo @ (k @ xo.T)
    r = xo - w.T @ yo
    return float(np.sqrt(max(np.linalg.eigvalsh(gram(r, k)).max(), 0.0)))


@pytest.fixture(scope="module")
def square16():
    """h=1/16 uniform unit square: assembled system plus dense oracle."""
    m, _ = uniform_refine(build_initial_mesh("unit_square"), 8)
    sys = assemble(m, Coefficients.identity())
    w_ref, v_ref = scipy.linalg.eigh(sys.K.toarray(), sys.M.toarray())
    return m, sys, w_ref, v_ref


def sine_seeds(m, sys, noise, seed):
    pairs = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]
    pts = m.vertices[sys.free_dofs]
    vecs = np.stack([np.sin(np.pi * a * pts[:, 0])
                     * np.sin(np.pi * b * pts[:, 1]) for a, b in pairs])
    rng = np.random.default_rng(seed)
    return vecs + noise * rng.standard_normal(vecs.shape)


class TestClusterLayout:
    def test_index_maps_roundtrip(self):
        # flat index f is member j of cluster i iff f = slices[i].start + j
        lay = ClusterLayout((1, 2, 1))
        assert (lay.q, lay.n) == (3, 4)
        pairs = [(i, f - sl.start)
                 for i, sl in enumerate(lay.cluster_slices())
                 for f in range(sl.start, sl.stop)]
        assert pairs == [(0, 0), (1, 0), (1, 1), (2, 0)]

    def test_ordering_is_lexicographic(self):
        lay = ClusterLayout((2, 2))
        flat = [f for sl in lay.cluster_slices()
                for f in range(sl.start, sl.stop)]
        assert flat == list(range(lay.n))

    def test_invalid_multiplicity(self):
        with pytest.raises(ParoError):
            ClusterLayout((1, 0))
        with pytest.raises(ParoError, match="at least one cluster"):
            ClusterLayout(())

    @pytest.mark.parametrize("d", [(1.7, 2), (2.0,), ("2",), (np.nan,),
                                   (np.float64(1.0), 1)])
    def test_non_integer_multiplicity(self, d):
        with pytest.raises(ParoError, match="must be an integer"):
            ClusterLayout(d)

    def test_numpy_integers_are_multiplicities(self):
        lay = ClusterLayout((np.int64(1), np.int32(2)))
        assert lay.d == (1, 2) and type(lay.d[0]) is int


class TestClusterGuesses:
    def test_analytic_square_spectrum(self):
        lay = cluster_guesses([19.74, 49.35, 49.35, 78.96])
        assert (lay.q, lay.d) == (3, (1, 2, 1))

    def test_single_value(self):
        lay = cluster_guesses([7.0])
        assert (lay.q, lay.d) == (1, (1,))

    def test_sub_threshold_gap_merges(self):
        lay = cluster_guesses([1.0, 1.0 + 1e-9, 5.0])
        assert (lay.q, lay.d) == (2, (2, 1))

    def test_unsorted_rejected(self):
        with pytest.raises(ParoError, match="ascending"):
            cluster_guesses([2.0, 1.0])

    @pytest.mark.parametrize("values", [[1.0, np.nan, 2.0], [np.nan],
                                        [1.0, np.inf]])
    def test_non_finite_rejected(self, values):
        # NaN compares False with everything: [1, nan, 2] passed the
        # ascending check and came back as one cluster of three
        with pytest.raises(ParoError, match="finite"):
            cluster_guesses(values)

    def test_gap_uses_max_of_one_and_value(self):
        # near zero the absolute scale 1 governs: 0.03 > 0.02*max(1,.1)
        lay = cluster_guesses([0.1, 0.13])
        assert lay.q == 2
        lay = cluster_guesses([0.1, 0.115])
        assert lay.q == 1


class TestComputeShifts:
    """The shifts ritz_step derives: one per cluster, the mean of its
    Ritz values. A diagonal pencil with the unit vectors as half-steps
    has exactly the diagonal as its Ritz values."""

    @staticmethod
    def _block(values):
        values = np.asarray(values, dtype=np.float64)
        return ritz_step(diag_system(values), np.eye(len(values)))

    def test_pair_mean(self):
        blk = self._block([49.3, 49.5])
        assert blk.layout.d == (2,)
        assert_allclose(blk.shifts, [49.4])

    def test_singleton(self):
        blk = self._block([19.74])
        assert_allclose(blk.shifts, [19.74])

    def test_mean_is_convex_combination(self):
        # log-spreads of 0.01..0.5 against the 0.02 relative gap give
        # singletons and clusters of several members
        rng = np.random.default_rng(17)
        sizes = []
        for _ in range(20):
            values = np.sort(np.exp(rng.uniform(
                0.0, rng.uniform(0.01, 0.5), rng.integers(1, 10))))
            blk = self._block(values)
            sizes.extend(blk.layout.d)
            assert np.array_equal(blk.ritz_values, values)
            for i, sl in enumerate(blk.layout.cluster_slices()):
                assert values[sl].min() <= blk.shifts[i] <= values[sl].max()
                assert blk.shifts[i] == values[sl].mean()
        assert min(sizes) == 1 and max(sizes) >= 3


class TestOrbitalUpdate:
    def test_exact_eigenvector_half_shift(self):
        # shift = lambda/2: half-step = (shift/(lambda-shift)) u = u
        sys = diag_system([2.0, 5.0])
        lay = ClusterLayout((1,))
        blk = OrbitalBlock(layout=lay, vectors=np.array([[1.0, 0.0]]),
                           ritz_values=np.array([2.0]),
                           shifts=np.array([1.0]))
        hs = orbital_update(sys, blk)
        assert_allclose(hs[0], [1.0, 0.0], atol=1e-10)

    def test_exact_eigenvector_close_shift_amplifies(self):
        # shift = 0.95*lambda: half-step = 19 u, direction unchanged
        sys = diag_system([2.0, 5.0])
        lay = ClusterLayout((1,))
        blk = OrbitalBlock(layout=lay, vectors=np.array([[1.0, 0.0]]),
                           ritz_values=np.array([2.0]),
                           shifts=np.array([1.9]))
        hs = orbital_update(sys, blk)
        assert_allclose(hs[0], [19.0, 0.0], rtol=1e-8, atol=1e-8)

    def test_two_dof_hand_oracle(self):
        # (K - 2.1 I) x = 2.1 u, u = [1,1]/sqrt2, K = diag(2,5):
        # x = 2.1 * [1/(2-2.1), 1/(5-2.1)] / sqrt2
        sys = diag_system([2.0, 5.0])
        lay = ClusterLayout((1,))
        blk = OrbitalBlock(layout=lay,
                           vectors=np.array([[1.0, 1.0]]) / np.sqrt(2.0),
                           ritz_values=np.array([3.5]),
                           shifts=np.array([2.1]))
        hs = orbital_update(sys, blk)
        expect = 2.1 * np.array([1.0 / -0.1, 1.0 / 2.9]) / np.sqrt(2.0)
        assert_allclose(hs[0], expect, rtol=1e-9)

    def test_zero_rhs_is_degenerate(self):
        sys = diag_system([2.0, 5.0])
        lay = ClusterLayout((1,))
        blk = OrbitalBlock(layout=lay, vectors=np.zeros((1, 2)),
                           ritz_values=np.array([2.0]),
                           shifts=np.array([1.0]))
        with pytest.raises(ParoError, match="zero right-hand side"):
            orbital_update(sys, blk)

    def test_one_operator_per_cluster(self, monkeypatch):
        import paroeig.paro as paro_mod
        ops = []
        solve = paro_mod.minres_solve

        def recording(op, rhs, **kwargs):
            ops.append(op)
            return solve(op, rhs, **kwargs)

        monkeypatch.setattr(paro_mod, "minres_solve", recording)
        sys = diag_system([2.0, 5.0, 5.05, 9.0])
        lay = ClusterLayout((1, 2))
        blk = OrbitalBlock(layout=lay, vectors=np.eye(4)[:3] + 0.1,
                           ritz_values=np.array([2.1, 5.1, 5.2]),
                           shifts=np.array([2.05, 5.15]))
        hs = orbital_update(sys, blk)
        # one block call of three rows, the two of the second cluster on
        # one operator
        assert len(ops) == 1
        (ops,) = ops
        assert len(ops) == 3 and len({id(op) for op in ops}) == 2
        assert ops[1] is ops[2]
        k = np.diag([2.0, 5.0, 5.05, 9.0])
        for op, shift in zip(ops[:2], [2.05, 5.15]):
            assert isinstance(op, sp.csr_matrix)
            assert_allclose(op.toarray(), k - shift * np.eye(4), atol=0.0)
        for flat, shift in enumerate([2.05, 5.15, 5.15]):
            expect = np.linalg.solve(k - shift * np.eye(4),
                                     shift * blk.vectors[flat])
            assert_allclose(hs[flat], expect, rtol=1e-9)

    def test_each_cluster_gets_its_own_shifted_preconditioner(self):
        built, used = [], []

        class Recording:
            """Jacobi on K; records the shifts it is built for and the
            rows of each application."""
            def shifted(self, shifts):
                built.append(list(shifts))

                def apply(r, rows):
                    used.append(rows.tolist())
                    return r / np.array([2.0, 5.0, 5.05, 9.0])[:, None]
                return apply

        sys = diag_system([2.0, 5.0, 5.05, 9.0])
        blk = OrbitalBlock(layout=ClusterLayout((1, 2, 1)),
                           vectors=np.eye(4) + 0.1,
                           ritz_values=np.array([2.1, 5.1, 5.2, 8.9]),
                           shifts=np.array([2.05, 5.15, 8.95]))
        hs = orbital_update(sys, blk, Recording())
        # one block preconditioner per sweep, with each orbital's cluster
        # shift; the first application covers every row, later ones the
        # rows still running
        shifts = [2.05, 5.15, 5.15, 8.95]
        assert built == [shifts]
        assert used[0] == [0, 1, 2, 3]
        assert all(rows == sorted(set(rows) & set(prev))
                   for prev, rows in zip(used, used[1:]))
        k = np.diag([2.0, 5.0, 5.05, 9.0])
        for flat, shift in enumerate(shifts):
            expect = np.linalg.solve(k - shift * np.eye(4),
                                     shift * blk.vectors[flat])
            assert_allclose(hs[flat], expect, rtol=1e-9)


class TestRitzStep:
    @settings(max_examples=30, deadline=None)
    @given(d=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
               lambda d: max(d) >= 2),
           seed=st.integers(0, 2 ** 32 - 1),
           max_iter=st.integers(1, 30), data=st.data())
    def test_ritz_values_ignore_row_order_sign_and_cluster_rotation(
            self, square16, d, seed, max_iter, data):
        # half-steps of random orbitals after a few MINRES iterations,
        # far from eigenvectors, so the Ritz step has real work to do;
        # the orbitals of a cluster share a shift near an eigenvalue
        _, sys, w_ref, _ = square16
        rng = np.random.default_rng(seed)
        layout = ClusterLayout(d)
        shifts = np.sort(w_ref[rng.choice(8, len(d), replace=False)]
                         * rng.uniform(0.9, 1.1, len(d)))
        vectors = rng.standard_normal((layout.n, sys.n_dofs))
        half = np.vstack([
            minres_solve([sys.K - shift * sys.M], shift * (sys.M @ v)[None],
                         max_iter=max_iter).solution
            for shift, v in zip(np.repeat(shifts, d), vectors)])
        base = ritz_step(sys, half)
        check_block(sys, base)

        perm = data.draw(st.permutations(range(layout.n)))
        flips = data.draw(st.lists(st.booleans(), min_size=layout.n,
                                   max_size=layout.n))
        sl = data.draw(st.sampled_from(
            [sl for sl in layout.cluster_slices() if sl.stop - sl.start > 1]))
        i, j = data.draw(st.lists(st.integers(sl.start, sl.stop - 1),
                                  min_size=2, max_size=2, unique=True))
        theta = data.draw(st.floats(0.0, 2.0 * np.pi))
        rotated = half.copy()
        rotated[i] = np.cos(theta) * half[i] - np.sin(theta) * half[j]
        rotated[j] = np.sin(theta) * half[i] + np.cos(theta) * half[j]
        for changed in (half[perm], np.where(flips, -1.0, 1.0)[:, None]
                        * half, rotated):
            out = ritz_step(sys, changed)
            assert_allclose(out.ritz_values, base.ritz_values, rtol=1e-10,
                            atol=0.0)
            check_block(sys, out)

    def test_exact_eigenvectors_reproduce_spectrum(self, square16):
        _, sys, w_ref, v_ref = square16
        n = 5
        out = ritz_step(sys, v_ref[:, :n].T)
        assert_allclose(out.ritz_values, w_ref[:n], rtol=1e-10)
        check_block(sys, out)

    def test_single_vector_rayleigh_quotient(self, square16):
        _, sys, _, _ = square16
        v = np.random.default_rng(3).standard_normal(sys.n_dofs)
        out = ritz_step(sys, v[None, :])
        rq = (v @ (sys.K @ v)) / (v @ (sys.M @ v))
        assert_allclose(out.ritz_values, [rq], rtol=1e-12)

    def test_rank_deficiency_advises(self, square16):
        _, sys, _, v_ref = square16
        dup = np.vstack([v_ref[:, 0], v_ref[:, 0]])
        with pytest.raises(ParoError, match="rank deficient"):
            ritz_step(sys, dup)

    def test_min_max_lower_bound(self, square16):
        _, sys, w_ref, _ = square16
        rng = np.random.default_rng(9)
        for _ in range(5):
            trial = rng.standard_normal((4, sys.n_dofs))
            out = ritz_step(sys, trial)
            assert np.all(out.ritz_values >= w_ref[:4] - 1e-9)


class TestInnerLoop:
    def test_delta2_step_arithmetic(self):
        # sum|new-old| / sum|OLD| = (0.2+0.1)/(2.2+5.1)
        assert_allclose(relative_change([2.0, 5.0], [2.2, 5.1],
                                        [2.2, 5.1]), 0.3 / 7.3)

    def test_fixed_point_converges_in_one_sweep(self, square16):
        _, sys, _, v_ref = square16
        blk = initial_block(sys, v_ref[:, :4].T)
        out, m_used, hist = paro_inner_loop(sys, blk, 1e-8, 50)
        assert m_used == 1
        assert hist[-1] <= 1e-12
        check_block(sys, out)

    def test_converges_to_reference_on_sixteenth_mesh(self, square16):
        m, sys, w_ref, _ = square16
        blk = initial_block(sys, sine_seeds(m, sys, 0.05, seed=0))
        out, m_used, hist = paro_inner_loop(sys, blk, 1e-10, 60)
        assert m_used < 60
        rel = np.abs(out.ritz_values - w_ref[:6]) / np.abs(w_ref[:6])
        assert rel.max() <= 1e-8
        check_block(sys, out)

    def test_delta2_history_eventually_decreasing(self, square16):
        m, sys, _, _ = square16
        blk = initial_block(sys, sine_seeds(m, sys, 0.05, seed=1))
        _, m_used, hist = paro_inner_loop(sys, blk, 1e-10, 60)
        assert m_used >= 2 and hist[-1] <= 1e-10
        assert hist[-1] <= hist[0]

    def test_invariant_subspace_is_reproduced(self, square16):
        _, sys, _, v_ref = square16
        blk = initial_block(sys, v_ref[:, :3].T)
        half = orbital_update(sys, blk)
        out = ritz_step(sys, half)
        assert subspace_dist_a(out.vectors, v_ref[:, :3].T, sys.K) <= 1e-9

    def test_eigenvalue_error_quadratic_in_subspace_error(self, square16):
        # |ritz - lambda_h| <= C * dist_a^2 with one stable constant:
        # collect (error, dist^2) per sweep above the accuracy floor and
        # require the fitted ratios to agree within a factor of 10
        m, sys, w_ref, v_ref = square16
        ratios = []
        for seed in (0, 1, 2):
            block = initial_block(sys, sine_seeds(m, sys, 0.1, seed=seed))
            for _ in range(5):
                half = orbital_update(sys, block)
                block = ritz_step(sys, half)
                err = np.abs(block.ritz_values - w_ref[:6]).max()
                dist = subspace_dist_a(block.vectors, v_ref[:, :6].T, sys.K)
                if err >= 5e-12 and dist ** 2 >= 1e-14:
                    ratios.append(err / dist ** 2)
        assert len(ratios) >= 4
        assert max(ratios) / min(ratios) <= 10.0

    def test_max_inner_returns_partial_block(self, square16):
        m, sys, _, _ = square16
        blk = initial_block(sys, sine_seeds(m, sys, 0.3, seed=2))
        out, m_used, hist = paro_inner_loop(sys, blk, 1e-16, 2)
        assert m_used == 2 and len(hist) == 2
        check_block(sys, out)

    def test_tolerances_must_be_positive(self, square16):
        _, sys, _, v_ref = square16
        blk = initial_block(sys, v_ref[:, :2].T)
        # NaN compares False with everything, so "x <= 0" would pass it
        for tol2, max_inner in ((0.0, 5), (np.nan, 5), (1e-8, 0)):
            with pytest.raises(ParoError, match="positive"):
                paro_inner_loop(sys, blk, tol2, max_inner)
