"""Residual error indicators: frozen examples and scaling laws."""

import numpy as np
import pytest

from paroeig import assembly, estimator, mesh, paro, verify
from paroeig.assembly import Coefficients
from paroeig.estimator import (
    EstimatorError,
    Indicators,
    estimate,
    element_residual,
    flux_jump,
    jump_residual,
    local_indicator,
)

IDENTITY = Coefficients.identity()

SINE_PAIRS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]


def single_orbital(vec, lam):
    """One-orbital block with a pinned eigenvalue estimate."""
    layout = paro.ClusterLayout(1, (1,))
    return paro.OrbitalBlock(layout=layout,
                             vectors=np.asarray(vec, dtype=np.float64)[None, :],
                             ritz_values=np.array([lam]),
                             shifts=np.array([lam]))


def sine_starts(system, points, noise, seed):
    base = np.stack([np.sin(np.pi * a * points[:, 0])
                     * np.sin(np.pi * b * points[:, 1])
                     for a, b in SINE_PAIRS])
    rng = np.random.default_rng(seed)
    return base + noise * rng.standard_normal(base.shape)


@pytest.fixture(scope="module")
def squares():
    """Uniform unit squares with reference blocks, keyed by pass count."""
    out = {}
    for passes in (4, 6, 8):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"),
                                   passes)
        system = assembly.assemble(m, IDENTITY)
        ref = verify.reference_eig(system, 6)
        block = paro.initial_block(system, ref.vectors)
        out[passes] = (m, system, ref, block)
    return out


class TestFluxJump:
    def test_unit_gradient_against_diagonal_normal(self):
        eye = np.eye(2)
        nrm = np.array([1.0, -1.0]) / np.sqrt(2.0)
        jump = flux_jump(eye, (1.0, 0.0), eye, (0.0, 0.0), nrm)
        assert jump == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
        # edge energy h_e * ||J||^2 on the unit-square diagonal (length
        # sqrt(2), constant jump) collapses to h_e^2 * J^2 = 1
        h_e = np.sqrt(2.0)
        assert h_e ** 2 * jump ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_continuous_flux_has_zero_jump(self):
        eye = np.eye(2)
        g = np.array([0.3, -1.7])
        nrm = np.array([0.6, 0.8])
        assert flux_jump(eye, g, eye, g, nrm) == pytest.approx(0.0, abs=1e-15)

    def test_globally_linear_function_no_jump(self):
        m = mesh.build_initial_mesh("unit_square")
        w = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]
        for e in m.interior_edges():
            assert jump_residual(m, IDENTITY, w, int(e)) == pytest.approx(
                0.0, abs=1e-13)

    def test_hat_function_symmetric_jumps(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        center = int(np.argmin(np.abs(m.vertices - 0.5).sum(axis=1)))
        assert np.allclose(m.vertices[center], [0.5, 0.5])
        hat = np.zeros(m.n_vertices)
        hat[center] = 1.0
        # interior edges touching the center, grouped by direction
        axis, diag = [], []
        for e in m.interior_edges():
            a, b = m.edges[int(e)]
            if center not in (a, b):
                continue
            other = m.vertices[b if a == center else a]
            d = np.abs(other - m.vertices[center])
            mag = abs(jump_residual(m, IDENTITY, hat, int(e)))
            (diag if d[0] > 1e-12 and d[1] > 1e-12 else axis).append(mag)
        assert len(axis) >= 2 and len(diag) >= 2
        assert np.ptp(axis) <= 1e-12
        assert np.ptp(diag) <= 1e-12

    def test_boundary_edge_rejected(self):
        m = mesh.build_initial_mesh("unit_square")
        w = np.zeros(m.n_vertices)
        boundary = [e for e in range(len(m.edge_lengths))
                    if m.edge_tris[e, 1] < 0]
        with pytest.raises(EstimatorError, match="boundary"):
            jump_residual(m, IDENTITY, w, boundary[0])
        with pytest.raises(EstimatorError, match="out of range"):
            jump_residual(m, IDENTITY, w, len(m.edge_lengths))


class TestElementResidual:
    def test_p1_identity_coefficients_residual_is_lam_u(self, squares):
        # orbital 2 lies in the double 5*pi^2 eigenspace, where rounding
        # picks the basis; compare against the block's own pair
        m, system, _, block = squares[4]
        bary, _ = assembly._QUAD_RULES[2]
        full = system.expand(block.vectors[2])
        tri_vals = full[m.triangles]                    # (nt, 3)
        expected = block.ritz_values[2] * tri_vals @ bary.T
        for t in (0, 7, m.n_triangles - 1):
            got = element_residual(m, IDENTITY, block, 2, t)
            assert np.allclose(got, expected[t], rtol=1e-10, atol=1e-12)

    def test_zero_eigenvalue_zero_reaction(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        rng = np.random.default_rng(5)
        blk = single_orbital(rng.standard_normal(m.n_vertices), 0.0)
        for t in range(m.n_triangles):
            assert np.all(element_residual(m, IDENTITY, blk, 0, t) == 0.0)

    def test_constant_function_with_reaction(self):
        # w == 1 has unit b-norm on the unit square, so the residual is
        # lam*b(w,w)*w - c*w = lam - c at every sample point
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        co = Coefficients.constant(np.eye(2), 2.0)
        blk = single_orbital(np.ones(m.n_vertices), 3.0)
        for t in (0, 3, m.n_triangles - 1):
            got = element_residual(m, co, blk, 0, t)
            assert np.allclose(got, 1.0, atol=1e-12)


class TestLocalIndicator:
    def test_zero_orbital(self):
        m = mesh.build_initial_mesh("unit_square")
        blk = single_orbital(np.zeros(m.n_vertices), 4.0)
        for t in range(m.n_triangles):
            assert local_indicator(m, IDENTITY, blk, 0, t) == 0.0

    def test_quadratic_homogeneity(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(m.n_vertices)
        one = estimate(m, IDENTITY, single_orbital(w, 7.0))
        two = estimate(m, IDENTITY, single_orbital(2.0 * w, 7.0))
        assert np.allclose(two.per_element, 4.0 * one.per_element,
                           rtol=1e-12)
        assert two.global_sq == pytest.approx(4.0 * one.global_sq,
                                              rel=1e-12)

    def test_block_sum_matches_per_orbital_accumulation(self, squares):
        m, system, ref, block = squares[4]
        total = estimate(m, IDENTITY, block)
        acc = np.zeros(m.n_triangles)
        for k in range(block.n):
            solo = single_orbital(block.vectors[k], block.ritz_values[k])
            acc += estimate(m, IDENTITY, solo).per_element
        assert np.allclose(total.per_element, acc, rtol=1e-10)

    def test_local_indicator_agrees_with_estimate(self, squares):
        m, system, ref, block = squares[4]
        total = estimate(m, IDENTITY, block)
        for t in (0, 9, 31):
            local = sum(local_indicator(m, IDENTITY, block, k, t)
                        for k in range(block.n))
            assert local == pytest.approx(total.per_element[t], rel=1e-10)


class TestEstimate:
    def test_nonnegative_indicators(self, squares):
        m, system, ref, block = squares[6]
        ind = estimate(m, IDENTITY, block)
        assert np.all(ind.per_element >= 0.0)
        assert ind.global_sq >= 0.0

    def test_eigenvalue_doubling_recomputes_residual_term(self, squares):
        # with identity coefficients the jump part is unchanged while the
        # residual part scales with lam^2; splitting via a lam=0 block
        # must reproduce the doubled-lam indicators exactly
        m, system, ref, block = squares[4]
        doubled = paro.OrbitalBlock(layout=block.layout,
                                    vectors=block.vectors,
                                    ritz_values=2.0 * block.ritz_values,
                                    shifts=block.shifts)
        jump_only = paro.OrbitalBlock(layout=block.layout,
                                      vectors=block.vectors,
                                      ritz_values=0.0 * block.ritz_values,
                                      shifts=block.shifts)
        base = estimate(m, IDENTITY, block).per_element
        four = estimate(m, IDENTITY, doubled).per_element
        jumps = estimate(m, IDENTITY, jump_only).per_element
        assert np.allclose(four, jumps + 4.0 * (base - jumps), rtol=1e-10)

    def test_converged_block_matches_reference_estimator(self, squares):
        m, system, ref, block = squares[8]
        pts = m.vertices[system.free_dofs]
        starts = sine_starts(system, pts, noise=0.05, seed=0)
        b0 = paro.initial_block(system, starts)
        tols = paro.ParoTolerances(tol2=1e-12, max_inner=80)
        out, _, _ = paro.paro_inner_loop(system, b0, tols)
        eta_ref = np.sqrt(estimate(m, IDENTITY, block).global_sq)
        eta_out = np.sqrt(estimate(m, IDENTITY, out).global_sq)
        assert abs(eta_out - eta_ref) / eta_ref <= 1e-6

    def test_uniform_decay_factor_two_per_halving(self, squares):
        etas = [np.sqrt(estimate(squares[p][0], IDENTITY,
                                 squares[p][3]).global_sq)
                for p in (4, 6, 8)]
        for coarse, fine in zip(etas, etas[1:]):
            assert 1.8 <= coarse / fine <= 2.6

    def test_reliability_constant_stable_across_levels(self, squares):
        lam_exact = 2.0 * np.pi ** 2
        exact = verify.square_eigenfunction(1, 1)
        ratios = []
        for p in (4, 6, 8):
            m, system, ref, _ = squares[p]
            uh = ref.vectors[0]
            cross = float(verify.load_vector(m, exact)[system.free_dofs] @ uh)
            if cross < 0.0:
                uh, cross = -uh, -cross
            err = np.sqrt(lam_exact + float(system.K.quad_form(uh))
                          - 2.0 * lam_exact * cross)
            eta = np.sqrt(estimate(m, IDENTITY,
                                   single_orbital(system.expand(uh),
                                                  ref.eigenvalues[0])
                                   ).global_sq)
            ratios.append(eta / err)
        for r in ratios[1:]:
            assert abs(r - ratios[0]) <= 0.10 * ratios[0]

    def test_proximity_constant_under_tolerance_sweep(self, squares):
        # one constant must bound |eta - eta_tilde|^2 against the sum of
        # squared subspace distances and eigenvalue gaps, across stops
        m, system, ref, block = squares[8]
        eta_ref = np.sqrt(estimate(m, IDENTITY, block).global_sq)
        slices = [slice(0, 1), slice(1, 3), slice(3, 4), slice(4, 6)]
        pts = m.vertices[system.free_dofs]
        b0 = paro.initial_block(system,
                                sine_starts(system, pts, noise=0.1, seed=2))
        ratios = []
        for tol2 in (1e-4, 1e-6, 1e-8):
            tols = paro.ParoTolerances(tol2=tol2, max_inner=60)
            out, _, _ = paro.paro_inner_loop(system, b0, tols)
            eta = np.sqrt(estimate(m, IDENTITY, out).global_sq)
            dist_sq = sum(verify.dist_a(system, ref.vectors[s],
                                        out.vectors[s]) ** 2
                          for s in slices)
            gap_sq = float(((ref.eigenvalues[:6] - out.ritz_values) ** 2)
                           .sum())
            ratios.append((eta_ref - eta) ** 2 / (dist_sq + gap_sq))
        assert max(ratios) / min(ratios) <= 10.0


class TestIndicators:
    def test_negative_entry_rejected(self):
        with pytest.raises(EstimatorError, match="negative"):
            Indicators(per_element=np.array([1.0, -1e-9]), global_sq=1.0)

    def test_mismatched_total_rejected(self):
        with pytest.raises(EstimatorError, match="sum"):
            Indicators(per_element=np.array([1.0, 2.0]), global_sq=3.5)

    def test_csv_roundtrip(self):
        ind = Indicators(per_element=np.array([0.25, 0.5, 0.125]),
                         global_sq=0.875)
        lines = ind.to_csv().strip().split("\n")
        assert lines[0] == "element_index,eta_sq"
        parsed = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in parsed] == [0, 1, 2]
        assert [float(v) for _, v in parsed] == [0.25, 0.5, 0.125]
