"""Residual error indicators: frozen examples and scaling laws.

Element residuals and flux jumps are checked on the arrays `estimate`
itself sums, the residual samples and jumps `estimator._residuals`
returns, turned orbital-first: (N, nt, nq) and (N, ne). `_residuals`
takes vertex values, so these frozen examples may use P1 functions that
do not vanish on the boundary; `estimate` takes free-dof rows. A
property test compares `estimate` with a per-triangle, per-edge loop
over the definition.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import descendants, load_vector, square_eigenfunction
from paroeig import assembly, estimator, mesh, paro, verify
from paroeig.assembly import Coefficients
from paroeig.estimator import EstimatorError, Indicators, estimate

IDENTITY = Coefficients.identity()

SINE_PAIRS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]

# initial unit square: triangles (0, 1, 3) and (2, 3, 1) share the
# diagonal edge 3 from (1, 0) to (0, 1), normal (1, 1)/sqrt(2)
DIAGONAL = 3


def single_orbital(vec, lam):
    """One-orbital block with a pinned eigenvalue estimate."""
    return paro.OrbitalBlock(np.asarray(vec, dtype=np.float64)[None, :],
                             np.array([lam]))


def residuals(m, coeffs, block):
    """(residual samples (N, nt, nq), flux jumps (N, ne)), orbital
    first, of a block whose rows are vertex values."""
    r, jumps = estimator._residuals(assembly.ElementData(m, coeffs),
                                    np.ascontiguousarray(block.vectors.T),
                                    block.ritz_values)
    return np.moveaxis(r, -1, 0), jumps.T


def orbital_rows(vectors, lam):
    """An OrbitalBlock of the rows and their Ritz values in any order.
    estimate reads only these two, so the block is made without
    OrbitalBlock's checks, whose values must ascend."""
    block = object.__new__(paro.OrbitalBlock)
    object.__setattr__(block, "vectors", vectors)
    object.__setattr__(block, "ritz_values", lam)
    return block


def on_vertices(m, block):
    """block with its free-dof rows padded to vertex values."""
    full = np.zeros((len(block.vectors), m.n_vertices))
    full[:, m.interior_vertices()] = block.vectors
    return orbital_rows(full, block.ritz_values)


def n_free(m):
    return len(m.interior_vertices())


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
        # gradient (1, 0) below the diagonal, (0.5, -0.5) above: same
        # tangential part, normal jump 1/sqrt(2)
        m = mesh.build_initial_mesh("unit_square")
        blk = single_orbital([0.0, 1.0, 0.5, 0.0], 0.0)
        r, jumps = residuals(m, IDENTITY, blk)
        assert jumps[0, DIAGONAL] == pytest.approx(1.0 / np.sqrt(2.0),
                                                   abs=1e-15)
        # edge energy h_e * ||J||^2 on the diagonal (length sqrt(2),
        # constant jump) collapses to h_e^2 * J^2 = 1; with lam = 0 it is
        # all either triangle carries
        assert (m.edge_lengths[DIAGONAL] * jumps[0, DIAGONAL]) ** 2 \
            == pytest.approx(1.0, abs=1e-14)
        assert np.all(r == 0.0)
        assert np.count_nonzero(jumps) == 1

    def test_continuous_flux_has_zero_jump(self):
        # A = 2I below the diagonal, I above: a normal gradient twice as
        # steep above keeps the conormal flux continuous
        m = mesh.build_initial_mesh("unit_square")
        table = Coefficients(np.stack([2.0 * np.eye(2), np.eye(2)]), 0.0)
        blk = single_orbital([1.0, 0.0, -2.0, 0.0], 0.0)
        _, jumps = residuals(m, table, blk)
        assert jumps[0, DIAGONAL] == pytest.approx(0.0, abs=1e-15)
        _, plain = residuals(m, IDENTITY, blk)
        assert abs(plain[0, DIAGONAL]) > 1.0

    def test_globally_linear_function_no_jump(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        w = m.vertices[:, 0] + 2.0 * m.vertices[:, 1]
        _, jumps = residuals(m, IDENTITY, single_orbital(w, 1.0))
        assert np.abs(jumps).max() <= 1e-13

    def test_hat_function_symmetric_jumps(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        center = int(np.argmin(np.abs(m.vertices - 0.5).sum(axis=1)))
        assert np.allclose(m.vertices[center], [0.5, 0.5])
        hat = np.zeros(m.n_vertices)
        hat[center] = 1.0
        _, jumps = residuals(m, IDENTITY, single_orbital(hat, 0.0))
        # interior edges touching the center, grouped by direction
        axis, diag = [], []
        for e in np.nonzero(m.edge_tris[:, 1] >= 0)[0]:
            a, b = m.edges[int(e)]
            if center not in (a, b):
                continue
            other = m.vertices[b if a == center else a]
            d = np.abs(other - m.vertices[center])
            mag = abs(jumps[0, int(e)])
            (diag if d[0] > 1e-12 and d[1] > 1e-12 else axis).append(mag)
        assert len(axis) >= 2 and len(diag) >= 2
        assert np.ptp(axis) <= 1e-12
        assert np.ptp(diag) <= 1e-12

    def test_boundary_jumps_are_zero(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"), 2)
        rng = np.random.default_rng(4)
        blk = single_orbital(rng.standard_normal(m.n_vertices), 3.0)
        for coeffs in (IDENTITY, variable_coefficients()):
            _, jumps = residuals(m, coeffs, blk)
            assert jumps.shape == (1, len(m.edge_lengths))
            boundary = m.edge_tris[:, 1] < 0
            assert np.all(jumps[:, boundary] == 0.0)
            assert np.all(jumps[:, ~boundary] != 0.0)


    def test_callable_flux_takes_diffusion_at_edge_midpoints(self):
        # reference: the diffusion sampled at each interior edge midpoint,
        # one sample for both sides, edge by edge
        coarse, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"),
                                        2)
        mid, rmap = mesh.refine(coarse, [0, 7, 11])
        m, _ = mesh.refine(mid, descendants(rmap, [0, 7, 11]))
        coeffs = variable_coefficients()
        rng = np.random.default_rng(9)
        blk = single_orbital(rng.standard_normal(m.n_vertices), 2.0)
        _, jumps = residuals(m, coeffs, blk)
        grads, _ = assembly.p1_gradients(m)
        g = np.einsum("ti,tid->td", blk.vectors[0][m.triangles], grads)
        expected = np.zeros(len(m.edges))
        for e in np.nonzero(m.edge_tris[:, 1] >= 0)[0]:
            t_plus, t_minus = m.edge_tris[e]
            x, y = m.vertices[m.edges[e]].mean(axis=0)[:, None]
            a = coeffs.diffusion(x, y)[0]
            expected[e] = (a @ (g[t_plus] - g[t_minus])) @ m.edge_normals[e]
        np.testing.assert_allclose(jumps[0], expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    def test_quadrature_points_are_edge_midpoints_bitwise(self):
        coarse, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"),
                                        3)
        mid, rmap = mesh.refine(coarse, [1, 4, 20])
        m, _ = mesh.refine(mid, descendants(rmap, [1, 4, 20]))
        bary, _ = assembly._QUAD_RULE
        pts = np.einsum("qi,tid->tqd", bary, m.vertices[m.triangles])
        edges = m.tri_edges[:, list(assembly._QUAD_EDGE)]     # (nt, nq)
        mids = m.vertices[m.edges].mean(axis=1)[edges]
        assert pts.tobytes() == mids.tobytes()


class TestElementResidual:
    def test_p1_identity_coefficients_residual_is_lam_u(self, squares):
        # orbital 2 lies in the double 5*pi^2 eigenspace, where rounding
        # picks the basis; compare against the block's own pair
        m, system, _, block = squares[4]
        bary, _ = assembly._QUAD_RULE
        padded = on_vertices(m, block)
        tri_vals = padded.vectors[2][m.triangles]       # (nt, 3)
        expected = block.ritz_values[2] * tri_vals @ bary.T
        r, _ = residuals(m, IDENTITY, padded)
        assert r.shape == (block.n, m.n_triangles, len(bary))
        assert np.allclose(r[2], expected, rtol=1e-10, atol=1e-12)

    def test_zero_eigenvalue_zero_reaction(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        rng = np.random.default_rng(5)
        blk = single_orbital(rng.standard_normal(m.n_vertices), 0.0)
        r, _ = residuals(m, IDENTITY, blk)
        assert np.all(r == 0.0)

    def test_constant_function_with_reaction(self):
        # w == 1 has unit b-norm on the unit square, so the residual is
        # lam*b(w,w)*w - c*w = lam - c at every sample point
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        co = Coefficients.constant(np.eye(2), 2.0)
        blk = single_orbital(np.ones(m.n_vertices), 3.0)
        r, _ = residuals(m, co, blk)
        assert np.allclose(r, 1.0, atol=1e-12)


class TestLocalIndicator:
    def test_zero_orbital(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        blk = single_orbital(np.zeros(m.n_vertices), 4.0)
        r, jumps = residuals(m, IDENTITY, blk)
        assert np.all(r == 0.0) and np.all(jumps == 0.0)
        blk = single_orbital(np.zeros(n_free(m)), 4.0)
        assert np.all(estimate(m, IDENTITY, blk).per_element == 0.0)

    def test_quadratic_homogeneity(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(n_free(m))
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
        # eta2(u_k, T) = h_T^2 |T| sum_q w_q R^2 + sum_{e in dT} h_e^2 J_e^2,
        # summed orbital by orbital on single elements
        m, system, ref, block = squares[4]
        total = estimate(m, IDENTITY, block)
        r, jumps = residuals(m, IDENTITY, on_vertices(m, block))
        _, weights = assembly._QUAD_RULE
        areas = m.signed_areas()
        for t in (0, 9, 31):
            edges = m.tri_edges[t]
            h_t = m.edge_lengths[edges].max()
            local = sum(
                h_t ** 2 * areas[t] * float(weights @ r[k, t] ** 2)
                + float((m.edge_lengths[edges] ** 2
                         * jumps[k, edges] ** 2).sum())
                for k in range(block.n))
            assert local == pytest.approx(total.per_element[t], rel=1e-10)


class TestEstimate:
    def test_vertex_length_rows_rejected(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 2)
        with pytest.raises(EstimatorError, match="length 9, expected 1 free"):
            estimate(m, IDENTITY, single_orbital(np.ones(m.n_vertices), 1.0))

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
        doubled = paro.OrbitalBlock(block.vectors, 2.0 * block.ritz_values)
        jump_only = paro.OrbitalBlock(block.vectors,
                                      0.0 * block.ritz_values)
        base = estimate(m, IDENTITY, block).per_element
        four = estimate(m, IDENTITY, doubled).per_element
        jumps = estimate(m, IDENTITY, jump_only).per_element
        assert np.allclose(four, jumps + 4.0 * (base - jumps), rtol=1e-10)

    def test_converged_block_matches_reference_estimator(self, squares):
        m, system, ref, block = squares[8]
        pts = m.vertices[system.free_dofs]
        starts = sine_starts(system, pts, noise=0.05, seed=0)
        b0 = paro.initial_block(system, starts)
        out, _, _ = paro.paro_inner_loop(system, b0, 1e-12, 80)
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
        exact = square_eigenfunction(1, 1)
        ratios = []
        for p in (4, 6, 8):
            m, system, ref, _ = squares[p]
            uh = ref.vectors[0]
            cross = float(load_vector(m, exact)[system.free_dofs] @ uh)
            if cross < 0.0:
                uh, cross = -uh, -cross
            err = np.sqrt(lam_exact + float(uh @ (system.K @ uh))
                          - 2.0 * lam_exact * cross)
            eta = np.sqrt(estimate(m, IDENTITY,
                                   single_orbital(uh, ref.eigenvalues[0])
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
        # from 1e-6 on, (eta_ref - eta)^2 is round-off on eta ~ 23 and
        # the denominator is the reference's own error: stop above both
        for tol2 in (1e-1, 1e-2):
            out, _, _ = paro.paro_inner_loop(system, b0, tol2, 60)
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
            Indicators(np.array([1.0, -1e-9]))

    def test_global_sq_is_the_element_sum(self):
        per = np.random.default_rng(5).uniform(0.0, 1.0, 50)
        assert Indicators(per).global_sq == float(per.sum())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(EstimatorError, match="finite"):
            Indicators(np.array([bad, 1.0]))
        # finite entries whose sum overflows
        with pytest.raises(EstimatorError, match="finite"):
            Indicators(np.array([1e308, 1e308]))


def variable_coefficients():
    """Smooth callable diffusion and reaction, as in `paroeig run`."""
    def diffusion(x, y):
        scale = 2.0 + np.sin(np.pi * x) * np.sin(np.pi * y)
        return scale[:, None, None] * np.eye(2)

    return Coefficients(diffusion, lambda x, y: x * x + y * y)


def perturbed_block(m, coeffs, n, seed):
    system = assembly.assemble(m, coeffs)
    ref = verify.reference_eig(system, n)
    noise = np.random.default_rng(seed).standard_normal(ref.vectors.shape)
    return paro.initial_block(system, ref.vectors + 1e-3 * noise)


class TestCoefficientRepresentations:
    def test_constant_field_same_in_every_representation(self):
        m0 = mesh.build_initial_mesh("l_shape")
        m, _ = mesh.uniform_refine(m0, 3)
        a0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        c0 = 1.5
        const = Coefficients(a0, c0)
        table = Coefficients(np.stack([a0] * m0.n_triangles),
                             np.full(m0.n_triangles, c0))
        # the central difference of a constant field is exactly 0, so
        # the callable form adds no divergence term
        func = Coefficients(lambda x, y: np.tile(a0, (len(x), 1, 1)),
                            lambda x, y: np.full(len(x), c0))
        block = perturbed_block(m, const, 3, seed=1)
        base = estimate(m, const, block).per_element
        for coeffs in (table, func):
            got = estimate(m, coeffs, block).per_element
            np.testing.assert_allclose(got, base, rtol=1e-12, atol=0.0)

    def test_linear_diffusion_divergence_term(self):
        # A = (2 + x) I has div A = (1, 0) and stays positive definite
        # on the L-shape [-1, 1]^2; for w = 2x + 3y with lam = 0 and no
        # reaction the residual is (div A) . grad w = 2 at every sample,
        # and w has no flux jump
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"), 2)
        coeffs = Coefficients(
            lambda x, y: (2.0 + x)[:, None, None] * np.eye(2), 0.0)
        w = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1]
        r, jumps = residuals(m, coeffs, single_orbital(w, 0.0))
        np.testing.assert_allclose(r, 2.0, rtol=1e-6)
        assert np.abs(jumps).max() <= 1e-12


@pytest.fixture(scope="module")
def variable_block():
    m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"), 3)
    coeffs = variable_coefficients()
    block = perturbed_block(m, coeffs, 4, seed=2)
    # pin orbitals 1 and 2 to one shared Ritz value so they may rotate
    lam = block.ritz_values.copy()
    lam[1:3] = lam[1:3].mean()
    return m, coeffs, block.vectors, lam


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(range(4)),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4,
                      max_size=4),
       angle=st.floats(0.0, 2.0 * np.pi))
def test_estimate_invariant_under_orbital_symmetries(variable_block, perm,
                                                     signs, angle):
    m, coeffs, vectors, lam = variable_block
    base = estimate(m, coeffs, orbital_rows(vectors, lam)).per_element
    c, s = np.cos(angle), np.sin(angle)
    rotated = vectors.copy()
    rotated[1:3] = np.array([[c, -s], [s, c]]) @ vectors[1:3]
    moved = np.asarray(signs)[:, None] * rotated[list(perm)]
    got = estimate(m, coeffs,
                   orbital_rows(moved, lam[list(perm)])).per_element
    np.testing.assert_allclose(got, base, rtol=1e-10, atol=0.0)


def test_one_pass_shares_gradients_and_mass(monkeypatch):
    m, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"), 2)
    calls = {"p1_gradients": 0, "_to_vertex_values": 0, "_gather": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(assembly, "p1_gradients")
    counting(estimator, "_to_vertex_values")
    counting(estimator, "_gather")
    rng = np.random.default_rng(6)
    blk = single_orbital(rng.standard_normal(n_free(m)), 2.0)
    coeffs = variable_coefficients()
    estimate(m, coeffs, blk)
    # one ElementData, one application each of J and L
    assert calls == {"p1_gradients": 1, "_to_vertex_values": 1,
                     "_gather": 2}

    # two estimates on one ElementData sample nothing again; each builds
    # and applies its own J and L and gives the same bytes
    data = assembly.ElementData(m, coeffs)
    first = estimate(m, coeffs, blk, data=data).per_element
    second = estimate(m, coeffs, blk, data=data).per_element
    assert calls["p1_gradients"] == 2 and calls["_gather"] == 6
    assert first.tobytes() == second.tobytes()


def loop_indicators(m, coeffs, vectors, lam):
    """eta2 of every triangle, computed triangle by triangle and edge by
    edge from the definition, without the estimator's operators."""
    def at(f, x, y):
        # a callable's value at one point, from one-point arrays
        return f(np.array([x]), np.array([y]))[0]

    def field(value, t, point):
        if callable(value):
            return np.asarray(at(value, *point), dtype=np.float64)
        value = np.asarray(value, dtype=np.float64)
        if value.ndim in (1, 3):                # per initial triangle
            return value[m.ancestor[t]]
        return value

    def div_a(point, delta):
        # the central difference the estimator defines, stencil delta
        x, y = point
        a = coeffs.diffusion
        dax = (at(a, x + delta, y) - at(a, x - delta, y)) / (2.0 * delta)
        day = (at(a, x, y + delta) - at(a, x, y - delta)) / (2.0 * delta)
        return dax[0, :] + day[1, :]

    n = len(vectors)
    mids = {e: m.vertices[m.edges[e]].mean(axis=0)
            for e in range(len(m.edges))}
    grads, areas, gram = [], [], np.zeros((n, n))
    for tri in m.triangles:
        affine = np.linalg.inv(np.column_stack([m.vertices[tri],
                                                np.ones(3)]))
        grads.append(affine[:2].T)                      # (3, 2)
        area = 0.5 * abs(np.linalg.det(m.vertices[tri[1:]]
                                       - m.vertices[tri[0]]))
        areas.append(area)
        mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        gram += vectors[:, tri] @ mass @ vectors[:, tri].T
    out = np.zeros(m.n_triangles)
    for t, tri in enumerate(m.triangles):
        h_t = m.edge_lengths[m.tri_edges[t]].max()
        for e in m.tri_edges[t]:
            # u at the midpoint of an edge of t: mean of its end values
            a, b = m.edges[e]
            at_mid = 0.5 * (vectors[:, a] + vectors[:, b])
            res = (gram * lam / np.diag(gram)) @ at_mid
            res -= field(coeffs.reaction, t, mids[e]) * at_mid
            if callable(coeffs.diffusion):
                res += (vectors[:, tri] @ grads[t]) @ div_a(mids[e],
                                                            1e-6 * h_t)
            out[t] += h_t ** 2 * areas[t] / 3.0 * float(res @ res)
    for e, (t1, t2) in enumerate(m.edge_tris):
        if t2 < 0:
            continue
        a, b = m.vertices[m.edges[e]]
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / np.hypot(*(b - a))
        flux = []
        for t in (t1, t2):
            # a callable is sampled once, at the edge midpoint
            coeff = field(coeffs.diffusion, t, mids[e])
            flux.append((vectors[:, m.triangles[t]] @ grads[t]) @ coeff.T)
        jump = (flux[0] - flux[1]) @ normal
        edge_sq = m.edge_lengths[e] ** 2 * float(jump @ jump)
        out[t1] += edge_sq
        out[t2] += edge_sq
    return out


def graded_l_shape(marked):
    """The once-refined L-shape with the triangles marked (indices taken
    modulo its size) refined twice."""
    coarse, _ = mesh.uniform_refine(mesh.build_initial_mesh("l_shape"), 1)
    marked = np.array(marked) % coarse.n_triangles
    mid, rmap = mesh.refine(coarse, marked)
    return mesh.refine(mid, descendants(rmap, marked))[0]


def coefficient_case(case, rng):
    """Constant, table (random, on the initial L-shape) or callable
    coefficients."""
    n0 = mesh.build_initial_mesh("l_shape").n_triangles
    if case == "constant":
        return Coefficients(np.array([[2.0, 0.5], [0.5, 1.0]]), 1.5)
    if case == "table":
        return Coefficients(
            np.stack([np.diag(rng.uniform(0.5, 2.0, 2)) for _ in range(n0)]),
            rng.uniform(0.0, 2.0, n0))
    return variable_coefficients()


CASE = st.sampled_from(["constant", "table", "callable"])
MARKED = st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6)


@settings(max_examples=15, deadline=None)
@given(case=CASE, n=st.sampled_from([1, 2, 3]), marked=MARKED,
       seed=st.integers(0, 2 ** 16))
def test_estimate_matches_a_per_triangle_loop(case, n, marked, seed):
    m = graded_l_shape(marked)
    rng = np.random.default_rng(seed)
    coeffs = coefficient_case(case, rng)
    block = orbital_rows(rng.standard_normal((n, n_free(m))),
                         rng.uniform(1.0, 50.0, n))
    got = estimate(m, coeffs, block).per_element
    np.testing.assert_allclose(
        got, loop_indicators(m, coeffs, on_vertices(m, block).vectors,
                             block.ritz_values), rtol=1e-12, atol=0.0)


@settings(max_examples=20, deadline=None)
@example(case="callable", n=3, marked=[0], seed=0, share=1.0)
@given(case=CASE, n=st.sampled_from([1, 2, 3]), marked=MARKED,
       seed=st.integers(0, 2 ** 16), share=st.floats(0.0, 1.0))
def test_indicators_ignore_the_sign_of_edge_normals(case, n, marked, seed,
                                                    share):
    # turning a normal around negates its flux jumps exactly, and the
    # estimator only squares them: no indicator may change by one bit
    m = graded_l_shape(marked)
    rng = np.random.default_rng(seed)
    coeffs = coefficient_case(case, rng)
    flip = rng.random(len(m.edges)) < share
    tables = {name: getattr(m, name) for name in mesh._TABLES}
    tables["edge_normals"] = np.where(flip[:, None], -m.edge_normals,
                                      m.edge_normals)
    flipped = mesh.Mesh._from_tables(**tables)
    block = paro.OrbitalBlock(rng.standard_normal((n, n_free(m))),
                              np.sort(rng.uniform(1.0, 50.0, n)))
    assert (estimate(flipped, coeffs, block).per_element.tobytes()
            == estimate(m, coeffs, block).per_element.tobytes())
