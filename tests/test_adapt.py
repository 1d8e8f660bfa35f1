"""Marking, block transfer, and the outer adaptive refinement loop."""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paroeig import adapt, estimator, mesh, multilevel, paro, verify
from paroeig.adapt import (
    AdaptConfig,
    AdaptError,
    RunRecord,
    adaptive_solve,
    default_seed_vectors,
    dorfler_mark,
    records_to_csv,
    transfer_block,
)
from paroeig.assembly import Coefficients, assemble
from paroeig.estimator import Indicators
from paroeig.linalg import gram
from paroeig.paro import initial_block, relative_change

IDENTITY = Coefficients.identity()


def make_indicators(values):
    values = np.asarray(values, dtype=np.float64)
    return Indicators(per_element=values, global_sq=float(values.sum()))


class TestAdaptConfig:
    def test_theta_bounds(self):
        with pytest.raises(AdaptError, match=r"theta out of \(0,1\)"):
            AdaptConfig(theta=1.5)
        with pytest.raises(AdaptError, match=r"theta out of \(0,1\)"):
            AdaptConfig(theta=0.0)

    def test_other_field_validation(self):
        with pytest.raises(AdaptError, match="tol1"):
            AdaptConfig(tol1=0.0)
        with pytest.raises(AdaptError, match="budget_factor"):
            AdaptConfig(budget_factor=-0.1)
        with pytest.raises(AdaptError, match="max_refinements"):
            AdaptConfig(max_refinements=-1)

    def test_nan_rejected(self):
        with pytest.raises(AdaptError, match="tol1"):
            AdaptConfig(tol1=np.nan)
        with pytest.raises(AdaptError, match="budget_factor"):
            AdaptConfig(budget_factor=np.nan)
        with pytest.raises(AdaptError, match="theta"):
            AdaptConfig(theta=np.nan)

    @pytest.mark.parametrize("field", ["max_refinements", "max_inner",
                                       "initial_passes"])
    def test_counts_must_be_integers(self, field):
        # a float count would reach range() or the sweep loop later
        for bad in (2.5, 2.0, "2"):
            with pytest.raises(AdaptError,
                               match=f"{field} must be an integer"):
                AdaptConfig(**{field: bad})
        cfg = AdaptConfig(**{field: np.int64(3)})
        assert type(getattr(cfg, field)) is int and getattr(cfg, field) == 3

    def test_orbital_count_must_be_an_integer(self):
        cfg = AdaptConfig(max_refinements=0, initial_passes=2)
        for bad in (1.5, 1.0, None):
            with pytest.raises(AdaptError,
                               match="n_orbitals must be an integer"):
                adaptive_solve("l_shape", IDENTITY, bad, cfg)
        records, block, _ = adaptive_solve("l_shape", IDENTITY, np.int64(1),
                                           cfg)
        assert block.n == 1

    @pytest.mark.parametrize("field,bad", [
        ("theta", "0.5"), ("tol1", "1e-6"), ("budget_factor", "1"),
        ("tol2", None), ("theta", None), ("tol1", [1e-6])])
    def test_tolerances_must_be_real_numbers(self, field, bad):
        # each used to escape as a bare TypeError from a comparison
        with pytest.raises(AdaptError, match=f"{field} must be a real"):
            AdaptConfig(**{field: bad})
        # numpy floats are real numbers
        assert getattr(AdaptConfig(**{field: np.float64(0.5)}), field) == 0.5

    def test_tolerances_must_be_positive(self):
        with pytest.raises(AdaptError, match="tol2"):
            AdaptConfig(tol2=0.0)
        with pytest.raises(AdaptError, match="max_inner"):
            AdaptConfig(max_inner=0)
        # NaN compares False with everything, so "x <= 0" would pass it
        with pytest.raises(AdaptError, match="tol2"):
            AdaptConfig(tol2=np.nan)


class TestDorflerMark:
    def test_worked_example(self):
        ind = make_indicators([0.4, 0.3, 0.2, 0.1])
        assert dorfler_mark(ind, 0.6).tolist() == [0, 1]

    def test_tiny_theta_marks_single_largest(self):
        ind = make_indicators([0.1, 0.7, 0.2])
        assert dorfler_mark(ind, 1e-9).tolist() == [1]

    def test_uniform_indicators_half_theta(self):
        ind = make_indicators(np.full(8, 0.25))
        assert len(dorfler_mark(ind, 0.5)) == 4

    def test_zero_estimator_marks_nothing(self):
        ind = make_indicators(np.zeros(5))
        assert dorfler_mark(ind, 0.5).size == 0

    def test_ties_resolved_to_lower_index(self):
        ind = make_indicators([0.3, 0.4, 0.3, 0.0])
        assert dorfler_mark(ind, 0.5).tolist() == [0, 1]

    def test_near_ties_resolved_to_lower_index(self):
        # four mirror-image elements whose indicators agree only to the
        # last bits; the bulk takes two of them, and which two must not
        # depend on that rounding
        rng = np.random.default_rng(3)
        base = np.array([2.0, 3.3374951, 3.3374951, 1.0, 3.3374951,
                         3.3374951])
        for _ in range(50):
            ulps = rng.integers(-4, 5, base.size)
            per = base * (1.0 + ulps * np.finfo(float).eps)
            assert dorfler_mark(make_indicators(per), 0.3).tolist() == [1, 2]
        # values a little further apart still go by size
        per = base.copy()
        per[4] *= 1.0 + 1e-9
        assert dorfler_mark(make_indicators(per), 0.3).tolist() == [1, 4]

    def test_invalid_theta(self):
        ind = make_indicators([1.0])
        with pytest.raises(AdaptError, match="theta"):
            dorfler_mark(ind, 1.0)

    def test_bound_and_minimality_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            per = rng.uniform(0.0, 1.0, size=rng.integers(2, 40)) ** 3
            per[rng.uniform(size=per.shape) < 0.2] = 0.0
            if per.sum() == 0.0:
                continue
            ind = make_indicators(per)
            for theta in (0.2, 0.5, 0.8):
                marked = dorfler_mark(ind, theta)
                total = per[marked].sum()
                assert total >= theta * ind.global_sq - 1e-12
                drop = total - per[marked].min()
                assert drop < theta * ind.global_sq


class TestDelta1:
    # delta1 divides by the new values
    def test_quotient_uses_new_denominator(self):
        assert relative_change([7.3], [7.0], [7.3]) == pytest.approx(
            0.3 / 7.3, rel=1e-12)

    def test_zero_cases(self):
        assert relative_change([0.0], [0.0], [0.0]) == 0.0
        assert relative_change([0.0], [1.0], [0.0]) == np.inf


class TestTransferBlock:
    def test_nested_transfer_preserves_span_and_values(self):
        coarse, _ = mesh.uniform_refine(
            mesh.build_initial_mesh("unit_square"), 4)
        coarse_sys = assemble(coarse, IDENTITY)
        ref = verify.reference_eig(coarse_sys, 3)
        block = initial_block(coarse_sys, ref.vectors)
        fine, rmap = mesh.refine(coarse, np.arange(coarse.n_triangles))
        fine_sys = assemble(fine, IDENTITY)
        prolong = rmap.prolongation[fine_sys.free_dofs][
            :, coarse_sys.free_dofs]
        moved = transfer_block(fine_sys, prolong, block)
        assert np.array_equal(moved.ritz_values, block.ritz_values)
        assert moved.layout == block.layout
        assert np.array_equal(moved.shifts, block.shifts)
        g = gram(moved.vectors, fine_sys.M)
        assert np.allclose(g, np.eye(3), atol=1e-12)
        # interpolate on all vertices, with zeros on the boundary
        full = np.zeros((coarse.n_vertices, block.n))
        full[coarse_sys.free_dofs] = block.vectors.T
        manual = mesh.interpolate(coarse, fine, rmap, full)
        manual = manual[fine_sys.free_dofs].T
        assert verify.dist_a(fine_sys, manual, moved.vectors) <= 1e-9


class TestAdaptiveSolve:
    def test_single_mode_unit_square(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=8,
                          tol2=1e-10, max_inner=40)
        records, block, final_mesh = adaptive_solve("unit_square",
                                                    IDENTITY, 1, cfg)
        lam_exact = 2.0 * np.pi ** 2
        values = [r.ritz_values[0] for r in records]
        assert all(v > lam_exact for v in values)
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev + 1e-9
        levels = [r.n for r in records]
        assert levels == sorted(set(levels))
        dofs = [r.n_dofs for r in records]
        assert all(b >= a for a, b in zip(dofs, dofs[1:]))
        assert records[0].delta1 == np.inf
        assert all(r.delta1 < np.inf for r in records[1:])

    def test_estimator_contracts_geometrically(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=10,
                          tol2=1e-10, max_inner=40)
        records, _, _ = adaptive_solve("unit_square", IDENTITY, 1, cfg)
        eta_sq = np.array([r.global_estimator_sq for r in records])
        n = np.arange(len(eta_sq), dtype=float)
        slope, intercept = np.polyfit(n, np.log(eta_sq), 1)
        fitted = intercept + slope * n
        resid = np.log(eta_sq) - fitted
        r_sq = 1.0 - resid.var() / np.log(eta_sq).var()
        assert slope < 0.0
        assert np.exp(slope) < 1.0
        assert r_sq >= 0.95

    def test_six_orbitals_resolve_cluster_pattern(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-8, max_refinements=2,
                          initial_passes=6,
                          tol2=1e-10, max_inner=40)
        records, block, _ = adaptive_solve("unit_square", IDENTITY, 6, cfg)
        assert block.layout.d == (1, 2, 1, 2)
        targets = verify.analytic_spectrum("unit_square", 6)
        assert np.all(block.ritz_values > targets)
        assert np.all(block.ritz_values < targets * 1.10)

    def test_l_shape_concentrates_at_corner(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=12,
                          initial_passes=2,
                          tol2=1e-10, max_inner=40)
        _, _, final_mesh = adaptive_solve("l_shape", IDENTITY, 1, cfg)
        centers = final_mesh.vertices[final_mesh.triangles].mean(axis=1)
        frac = float((np.linalg.norm(centers, axis=1) <= 0.25).mean())
        start = mesh.build_initial_mesh("l_shape")
        start_centers = start.vertices[start.triangles].mean(axis=1)
        frac0 = float((np.linalg.norm(start_centers, axis=1) <= 0.25)
                      .mean())
        assert frac > frac0
        assert frac >= 0.05

    def test_budget_stop_saves_sweeps(self):
        fixed = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=8,
                            tol2=1e-10, max_inner=40)
        budget = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=8,
                             tol2=1e-10, max_inner=40, budget_factor=0.1)
        rec_f, _, _ = adaptive_solve("unit_square", IDENTITY, 1, fixed)
        rec_b, _, _ = adaptive_solve("unit_square", IDENTITY, 1, budget)
        assert sum(r.m_used for r in rec_b) < sum(r.m_used for r in rec_f)
        assert rec_b[-1].ritz_values[0] == pytest.approx(
            rec_f[-1].ritz_values[0], rel=1e-2)

    @pytest.mark.parametrize("budget_factor,extra", [(None, 0), (1.0, 1)])
    def test_one_estimate_per_level(self, monkeypatch, budget_factor,
                                    extra):
        # the budget reads the previous level's estimate; only level 0
        # estimates its incoming block
        calls = []
        real = estimator.estimate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(adapt, "estimate", counting)
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=5,
                          tol2=1e-10, max_inner=40,
                          budget_factor=budget_factor)
        records, _, _ = adaptive_solve("unit_square", IDENTITY, 1, cfg)
        assert len(records) == 6
        assert len(calls) == len(records) + extra

    @pytest.mark.parametrize("domain,n_orbitals,cfg", [
        pytest.param("unit_square", 3,
                     AdaptConfig(tol1=1e-12, max_refinements=10,
                                 budget_factor=1.0), id="square_n3"),
        pytest.param("l_shape", 1,
                     AdaptConfig(tol1=1e-12, max_refinements=14,
                                 initial_passes=2, tol2=1e-10,
                                 max_inner=40), id="lshape_n1"),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_loose_orbital_solves_keep_the_run(self, monkeypatch, domain,
                                               n_orbitals, cfg, seed):
        # the orbital solves stop at paro.MINRES_TOL; solving them to
        # 1e-10 must give the same meshes, layouts and sweeps, and both
        # must match a direct eigensolver on the final mesh
        iterations = []
        real = paro.minres_solve

        def counting(*args, **kwargs):
            result = real(*args, **kwargs)
            iterations.append(sum(result.row_iterations))
            return result

        def run(tol):
            iterations.clear()
            layouts = []
            with monkeypatch.context() as patch:
                patch.setattr(paro, "MINRES_TOL", tol)
                patch.setattr(paro, "minres_solve", counting)
                records, block, final = adaptive_solve(
                    domain, IDENTITY, n_orbitals, cfg, seed=seed,
                    observer=lambda lv, m, s, b, *_:
                        layouts.append(b.layout.d))
            ref = verify.reference_eig(assemble(final, IDENTITY),
                                       n_orbitals)
            assert_allclose(block.ritz_values, ref.eigenvalues, rtol=1e-8,
                            atol=0)
            levels = [(r.n, r.n_dofs, r.m_used) for r in records]
            return levels, layouts, sum(iterations)

        loose_levels, loose_layouts, loose_iterations = run(paro.MINRES_TOL)
        tight_levels, tight_layouts, tight_iterations = run(1e-10)
        # past 400 dofs the coarse solve is no longer exact and the stop
        # decides the iteration counts
        assert loose_levels[-1][1] > 400
        assert loose_iterations < tight_iterations
        assert loose_levels == tight_levels
        assert loose_layouts == tight_layouts

    def test_deterministic_given_seed(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=4,
                          tol2=1e-10, max_inner=40)
        rec_a, _, _ = adaptive_solve("unit_square", IDENTITY, 1, cfg,
                                     seed=7)
        rec_b, _, _ = adaptive_solve("unit_square", IDENTITY, 1, cfg,
                                     seed=7)
        assert records_to_csv(rec_a) == records_to_csv(rec_b)

    def test_wall_times_cover_the_run(self):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=10,
                          initial_passes=2,
                          tol2=1e-10, max_inner=40)
        t0 = time.perf_counter()
        records, _, _ = adaptive_solve("l_shape", IDENTITY, 1, cfg)
        elapsed = time.perf_counter() - t0
        assert sum(r.wall_time for r in records) >= 0.9 * elapsed

    def test_too_few_dofs_reports_records(self):
        cfg = AdaptConfig(initial_passes=0)
        with pytest.raises(AdaptError, match="free dofs") as err:
            adaptive_solve("unit_square", IDENTITY, 1, cfg)
        assert err.value.records == []

    @pytest.mark.parametrize("domain,n_orbitals,passes", [
        ("unit_square", 3, 3), ("l_shape", 2, 1)])
    def test_orbitals_splitting_a_cluster_rejected(self, domain,
                                                   n_orbitals, passes):
        # the first mesh's value N+1 lies in the cluster of value N, so
        # the block would keep an arbitrary part of that cluster
        cfg = AdaptConfig(initial_passes=passes, max_refinements=3)
        with pytest.raises(AdaptError, match="splits a cluster") as err:
            adaptive_solve(domain, IDENTITY, n_orbitals, cfg)
        assert "change n_orbitals or initial_passes" in str(err.value)
        assert err.value.records == []

    def test_mid_run_failure_keeps_partial_history(self, monkeypatch):
        cfg = AdaptConfig(theta=0.5, tol1=1e-12, max_refinements=6,
                          tol2=1e-8, max_inner=40)
        calls = {"n": 0}
        real = estimator.estimate

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise RuntimeError("synthetic estimator outage")
            return real(*args, **kwargs)

        monkeypatch.setattr(adapt, "estimate", failing)
        with pytest.raises(AdaptError, match="level 2") as err:
            adaptive_solve("unit_square", IDENTITY, 1, cfg)
        assert len(err.value.records) == 2
        assert [r.n for r in err.value.records] == [0, 1]


class TestRecordsCsv:
    def records(self):
        return [RunRecord(n=0, n_dofs=9, ritz_values=[22.5, 51.0],
                          global_estimator_sq=3.25, m_used=4,
                          delta1=np.inf, wall_time=0.125),
                RunRecord(n=1, n_dofs=14, ritz_values=[21.0, 50.5],
                          global_estimator_sq=1.5, m_used=3,
                          delta1=0.02, wall_time=0.25)]

    def test_columns_and_values(self):
        text = records_to_csv(self.records())
        lines = text.strip().split("\n")
        assert lines[0] == ("n,n_dofs,ritz_0,ritz_1,"
                            "global_estimator_sq,m_used,delta1")
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "9"
        assert float(first[2]) == 22.5
        assert float(first[6]) == np.inf

    def test_empty_rejected(self):
        with pytest.raises(AdaptError, match="no records"):
            records_to_csv([])


class TestDefaultSeeds:
    def test_seeds_span_low_modes(self):
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"),
                                   6)
        system = assemble(m, IDENTITY)
        seeds = default_seed_vectors(system, 4, seed=1)
        assert seeds.shape == (4, system.n_dofs)
        ref = verify.reference_eig(system, 4)
        assert verify.dist_a(system, seeds, ref.vectors) <= 0.3

    def test_preconditioned_seed_solves_are_one_block_call_per_sweep(
            self, monkeypatch):
        # a first mesh of at most COARSE_DOFS dofs: B(0) is K^-1, so
        # every seed solve is exact after one step
        m, _ = mesh.uniform_refine(mesh.build_initial_mesh("unit_square"),
                                   4)
        system = assemble(m, IDENTITY)
        assert system.n_dofs <= multilevel.COARSE_DOFS
        calls = []
        solve = adapt.minres_solve

        def recording(ops, rhs, **kwargs):
            res = solve(ops, rhs, **kwargs)
            calls.append((len(ops), rhs.shape, res.row_iterations))
            return res

        monkeypatch.setattr(adapt, "minres_solve", recording)
        precond = multilevel.MultilevelPreconditioner(m, system)
        seeds = default_seed_vectors(system, 4, seed=1, precond=precond)
        assert [c[:2] for c in calls] == [(8, (8, system.n_dofs))] * 4
        assert all(it == (1,) * 8 for _, _, it in calls)
        plain = default_seed_vectors(system, 4, seed=1)
        assert verify.dist_a(system, seeds, plain) <= 1e-8
