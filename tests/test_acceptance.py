"""End-to-end acceptance runs.

Each test exercises one headline capability at its stated tolerance and
prints a single line with the measured numbers, so `pytest -v -s` reads
as a checklist.
"""

from dataclasses import replace

import numpy as np
import pytest

from paroeig import mesh, verify
from paroeig.adapt import AdaptConfig, adaptive_solve, dorfler_mark
from paroeig.assembly import Coefficients, assemble
from paroeig.estimator import Indicators, estimate
from paroeig.paro import initial_block, paro_inner_loop
from paroeig.verify import dist_a, fit_rate, reference_eig

LAPLACE = Coefficients.identity()
GROUND_STATE = 2.0 * np.pi ** 2

SINE_PAIRS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]


def unit_square(passes):
    m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"),
                               passes)
    return m, assemble(m, LAPLACE)


def sine_starts(system, points, noise, seed):
    base = np.stack([np.sin(np.pi * a * points[:, 0])
                     * np.sin(np.pi * b * points[:, 1])
                     for a, b in SINE_PAIRS])
    rng = np.random.default_rng(seed)
    return base + noise * rng.standard_normal(base.shape)


def solve_block(system, starts, tol2, max_inner):
    block = initial_block(system, starts)
    return paro_inner_loop(system, block, tol2, max_inner)


@pytest.fixture(scope="module")
def clustered_run():
    """Six orbitals on the h=1/16 square, solved to tol2=1e-10."""
    m, system = unit_square(8)
    pts = m.vertices[system.free_dofs]
    starts = sine_starts(system, pts, noise=0.1, seed=2)
    block, _, _ = solve_block(system, starts, tol2=1e-10, max_inner=60)
    ref = reference_eig(system, 6)
    return system, block, ref


def test_uniform_square_error_positive_and_second_order():
    errors = []
    for passes in (6, 8, 10):
        _, system = unit_square(passes)
        seeds = verify.reference_eig(system, 1).vectors
        block, _, _ = solve_block(system, seeds, tol2=1e-10, max_inner=40)
        errors.append(float(block.ritz_values[0]) - GROUND_STATE)
    assert all(e > 0.0 for e in errors)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(3.4 <= r <= 4.6 for r in ratios)
    print(f"PASS uniform second-order decay: halving ratios "
          f"{[round(r, 3) for r in ratios]}")


def test_clustered_ritz_values_match_reference(clustered_run):
    system, block, ref = clustered_run
    rel = float(np.max(np.abs(block.ritz_values - ref.eigenvalues)
                       / np.abs(ref.eigenvalues)))
    assert rel <= 1e-8
    assert block.layout.d == (1, 2, 1, 2)
    dists = [dist_a(system, block.vectors[s], ref.vectors[s])
             for s in block.layout.cluster_slices()]
    assert max(dists) <= 1e-6
    print(f"PASS clustered accuracy: max value gap {rel:.2e}, "
          f"max cluster distance {max(dists):.2e}")


def test_estimator_gap_tracks_subspace_distance_across_meshes():
    fitted = []
    for passes in (6, 8, 10):
        m, system = unit_square(passes)
        ref = reference_eig(system, 6)
        ref_block = initial_block(system, ref.vectors)
        slices = ref_block.layout.cluster_slices()
        eta_ref = float(np.sqrt(estimate(m, LAPLACE, ref_block).global_sq))
        pts = m.vertices[system.free_dofs]
        starts = sine_starts(system, pts, noise=0.1, seed=2)
        ratios = []
        for stop in (1, 2, 3):
            block, _, _ = solve_block(system, starts, tol2=1e-16,
                                      max_inner=stop)
            eta = float(np.sqrt(estimate(m, LAPLACE, block).global_sq))
            dist_sq = sum(
                dist_a(system, block.vectors[s], ref.vectors[s]) ** 2
                for s in slices)
            gap_sq = float(np.sum(
                (block.ritz_values - ref.eigenvalues) ** 2))
            ratios.append((eta_ref - eta) ** 2 / (dist_sq + gap_sq))
        fitted.append(max(ratios))
    spread = max(fitted) / min(fitted)
    assert spread <= 10.0
    print(f"PASS estimator proximity: fitted constants "
          f"{[f'{c:.2e}' for c in fitted]}, spread {spread:.2f}")


def test_adaptive_estimator_contracts_linearly_in_log():
    cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=10,
                      tol2=1e-10, max_inner=40)
    records, _, _ = adaptive_solve("unit_square", LAPLACE, 1, cfg)
    assert len(records) >= 9
    log_eta = np.log([r.global_estimator_sq for r in records])
    n = np.arange(len(records), dtype=float)
    slope, intercept = np.polyfit(n, log_eta, 1)
    resid = log_eta - (intercept + slope * n)
    r_sq = 1.0 - resid.var() / log_eta.var()
    assert slope < 0.0
    assert r_sq >= 0.95
    errors = [r.ritz_values[0] - GROUND_STATE for r in records]
    assert all(e > 0.0 for e in errors)
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt <= prev + 1e-9
    print(f"PASS estimator contraction: per-level factor "
          f"{np.exp(slope):.3f}, fit R^2 {r_sq:.3f}, error monotone")


def test_adaptive_beats_uniform_on_corner_singularity():
    base = mesh.build_initial_mesh("l_shape")
    lam = {}
    dofs = {}
    for passes in (8, 10, 12, 14, 16):
        m, _ = mesh.uniform_refine(base, passes)
        system = assemble(m, LAPLACE)
        lam[passes] = float(reference_eig(system, 1).eigenvalues[0])
        dofs[passes] = system.n_dofs
    diff = {p: lam[p] - lam[p + 2] for p in (8, 10, 12, 14)}
    assert all(d > 0.0 for d in diff.values())
    # consecutive-level differences follow the same power law as the
    # errors, so the uniform rate needs no limit value
    u_slope, u_r2 = fit_rate([dofs[p] for p in (10, 12, 14)],
                             [diff[p] for p in (10, 12, 14)])
    assert u_slope >= -0.75
    assert u_r2 >= 0.95
    ratio = diff[14] / diff[12]
    assert 0.0 < ratio < 1.0
    lam_limit = lam[16] - diff[14] * ratio / (1.0 - ratio)
    target = lam[14] - lam_limit
    assert target > 0.0

    cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=22,
                      initial_passes=2,
                      tol2=1e-10, max_inner=40)
    records, _, _ = adaptive_solve("l_shape", LAPLACE, 1, cfg)
    errors = np.array([r.ritz_values[0] - lam_limit for r in records])
    assert np.all(errors > 0.0)
    tail = [(r.n_dofs, e) for r, e in zip(records, errors)
            if r.n_dofs >= 30]
    a_slope, a_r2 = fit_rate([d for d, _ in tail], [e for _, e in tail])
    assert a_slope <= -0.85
    assert a_r2 >= 0.95
    crossed = next(r.n_dofs for r, e in zip(records, errors)
                   if e <= target)
    assert crossed <= 0.5 * dofs[14]
    print(f"PASS corner singularity: uniform slope {u_slope:.3f}, "
          f"adaptive slope {a_slope:.3f}, dofs to target "
          f"{crossed}/{dofs[14]}")


def test_marking_sets_exact_and_minimal():
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(1000):
        per = rng.uniform(0.0, 1.0, size=int(rng.integers(3, 60))) ** 2
        per += 1e-9
        ind = Indicators(per_element=per, global_sq=float(per.sum()))
        for theta in (0.2, 0.5, 0.8):
            marked = dorfler_mark(ind, theta)
            total = float(per[marked].sum())
            assert total >= theta * ind.global_sq - 1e-12
            assert total - per[marked].min() < theta * ind.global_sq
            checked += 1
    print(f"PASS marking exactness: {checked} trials, bound tight after "
          f"dropping the smallest member")


def test_matched_vector_distances_within_procrustes_bound(clustered_run):
    system, block, ref = clustered_run
    reports = verify.quasi_orthogonality_report(system, block, ref,
                                                block.layout)
    worst = 0.0
    for report in reports:
        d = report.dist
        chord = np.sqrt(2.0 * d * d / (1.0 + np.sqrt(max(0.0,
                                                         1.0 - d * d))))
        bound = (1.0 + np.sqrt(report.dim)) * chord
        assert report.bound_ok
        for per in report.per_vector:
            assert per <= bound * (1.0 + 1e-12) + 1e-15
        worst = max(worst, max(report.per_vector))
    print(f"PASS per-vector matching: worst matched distance {worst:.2e} "
          f"within every cluster bound")


def test_estimator_matched_inner_stop_saves_iterations():
    fixed_cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=10,
                            tol2=1e-10, max_inner=40)
    budget_cfg = replace(fixed_cfg, budget_factor=0.1)
    fixed, _, _ = adaptive_solve("unit_square", LAPLACE, 1, fixed_cfg)
    saving, _, _ = adaptive_solve("unit_square", LAPLACE, 1, budget_cfg)
    total_fixed = sum(r.m_used for r in fixed)
    total_saving = sum(r.m_used for r in saving)
    assert total_saving <= 0.6 * total_fixed
    err_fixed = fixed[-1].ritz_values[0] - GROUND_STATE
    err_saving = saving[-1].ritz_values[0] - GROUND_STATE
    assert err_saving <= 1.10 * err_fixed
    print(f"PASS iteration economy: {total_saving}/{total_fixed} inner "
          f"sweeps, error degradation "
          f"{100.0 * (err_saving / err_fixed - 1.0):.2f}%")


def test_bisection_stays_conforming_with_bounded_shape_classes():
    rng = np.random.default_rng(11)
    for domain in ("unit_square", "l_shape"):
        current = mesh.build_initial_mesh(domain)
        for _ in range(12):
            size = max(1, current.n_triangles // 4)
            marked = np.unique(rng.integers(0, current.n_triangles,
                                            size=size))
            current, _ = mesh.refine(current, marked)
            assert max(current.similarity_class_counts().values()) <= 4
    seen = []
    cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=10,
                      initial_passes=2,
                      tol2=1e-10, max_inner=40)
    adaptive_solve("l_shape", LAPLACE, 1, cfg,
                   observer=lambda lv, m, s, b, i, d: seen.append(m))
    assert len(seen) == 11
    classes = 0
    for m in seen:
        classes = max(classes, max(m.similarity_class_counts().values()))
    assert classes <= 4
    print(f"PASS bisection soundness: every mesh conforming, shape "
          f"classes per starting triangle <= {classes}")
