"""The benchmark's four fixed workloads: inputs, one solve, and checks.

Three workloads are adaptive solves described the way the command line
describes them (a `RunConfig`, turned into coefficients and an
`AdaptConfig` by `paroeig.cli`); the fourth is the uniform-refinement
baseline. Every solve calls the library through module attributes looked
up at call time, so the wrappers installed by `spans.Tracer` see it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ADAPTIVE = {
    "lshape_n1": dict(
        domain="l_shape", n_orbitals=1, theta=0.5, tol1=1e-12,
        max_refinements=22, initial_passes=2, tol2=1e-10, max_inner=40),
    "square_n6_cluster": dict(
        domain="unit_square", n_orbitals=6, theta=0.5, tol1=1e-8,
        max_refinements=16, initial_passes=6, tol2=1e-10, max_inner=40,
        budget_factor=1.0),
    "lshape_n3_variable": dict(
        domain="l_shape", coefficients="variable", n_orbitals=3, theta=0.5,
        tol1=1e-10, max_refinements=16, initial_passes=2,
        budget_factor=1.0),
}
LAYOUTS = {"lshape_n1": (1,), "square_n6_cluster": (1, 2, 1, 2),
           "lshape_n3_variable": (1, 1, 1)}
UNIFORM = "lshape_uniform"
UNIFORM_PASSES = 16
NAMES = tuple(ADAPTIVE) + (UNIFORM,)

# cmd_verify's ritz_match tolerance
RITZ_MATCH_TOL = 1e-8
# published L-shape ground state; the P1 value lies above it
LSHAPE_LAMBDA1 = 9.6397238440219
LSHAPE_LAMBDA1_SLACK = 1e-3


def load_paroeig():
    """Import paroeig from this checkout's src/, never from elsewhere."""
    if not (SRC / "paroeig" / "__init__.py").is_file():
        raise ImportError(f"no paroeig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import paroeig
    import paroeig.cli
    if SRC.resolve() not in Path(paroeig.__file__).resolve().parents:
        raise ImportError(f"paroeig imported from {paroeig.__file__}, "
                          f"not from {SRC}")
    return paroeig


@dataclass
class Result:
    """What one solve produced; `summary()` must repeat exactly."""
    ritz_values: np.ndarray
    layout: tuple
    levels: int
    sweeps: int
    dofs: int
    mesh: object
    system: object = None        # uniform only: the assembled pencil
    vectors: np.ndarray = None   # uniform only: reference eigenvector
    final_eta_sq: float = None   # adaptive: the last level's estimator

    def summary(self):
        return (self.layout, self.levels, self.sweeps, self.dofs,
                self.mesh.n_triangles, self.ritz_values.tobytes())


def pool_width(name, nproc):
    """Workers in the orbital pool: paro uses min(N, cpu_count)."""
    if name == UNIFORM:
        return 0
    return min(ADAPTIVE[name]["n_orbitals"], nproc)


def build(paroeig, name, seed):
    """Make the workload's inputs from the seed; return (solve, coeffs).

    solve() runs the workload's main call and returns a Result.
    """
    cli = paroeig.cli
    if name == UNIFORM:
        coarse = paroeig.mesh.build_initial_mesh("l_shape")
        coeffs = paroeig.assembly.Coefficients.identity()

        def solve():
            fine, _ = paroeig.mesh.uniform_refine(coarse, UNIFORM_PASSES)
            system = paroeig.assembly.assemble(fine, coeffs)
            ref = paroeig.verify.reference_eig(system, 1, seed=seed)
            return Result(ref.eigenvalues, (1,), 0, 0, system.n_dofs, fine,
                          system=system, vectors=ref.vectors)
        return solve, coeffs

    config = replace(cli.RunConfig(**ADAPTIVE[name]), seed=seed)
    coeffs = cli.build_coefficients(config)
    adapt_config = cli.build_adapt_config(config)

    def solve():
        records, block, final = paroeig.adapt.adaptive_solve(
            config.domain, coeffs, config.n_orbitals, adapt_config,
            seed=config.seed, threads=config.threads or None)
        return Result(block.ritz_values, block.layout.d, len(records),
                      sum(r.m_used for r in records), records[-1].n_dofs,
                      final,
                      final_eta_sq=records[-1].global_estimator_sq)
    return solve, coeffs


def check(paroeig, name, result, coeffs):
    """Correctness of one solve against an independent reference.

    Fills in result.final_eta_sq for the uniform workload (the estimator
    of the reference pair on the final mesh). Returns a list of problems,
    empty when the solve is correct.
    """
    if name == UNIFORM:
        lam = float(result.ritz_values[0])
        problems = []
        hi = (1.0 + LSHAPE_LAMBDA1_SLACK) * LSHAPE_LAMBDA1
        if not LSHAPE_LAMBDA1 <= lam <= hi:
            problems.append(f"lambda1 {lam!r} outside "
                            f"[{LSHAPE_LAMBDA1!r}, {hi!r}]")
        block = paroeig.paro.initial_block(result.system, result.vectors)
        result.final_eta_sq = paroeig.estimator.estimate(
            result.mesh, coeffs, block).global_sq
        return problems

    problems = []
    if result.layout != LAYOUTS[name]:
        problems.append(f"cluster layout {result.layout} != "
                        f"{LAYOUTS[name]}")
    system = paroeig.assembly.assemble(result.mesh, coeffs)
    ref = paroeig.verify.reference_eig(system, len(result.ritz_values))
    rel = float(np.max(np.abs(result.ritz_values - ref.eigenvalues)
                       / np.abs(ref.eigenvalues)))
    if not rel <= RITZ_MATCH_TOL:
        problems.append(f"Ritz values off the reference by {rel:.3e} "
                        f"relative (limit {RITZ_MATCH_TOL:g})")
    return problems
