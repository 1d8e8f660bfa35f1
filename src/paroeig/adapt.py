"""Outer adaptive loop: solve, estimate, mark, refine, transfer.

One refinement level runs the orbital inner iteration on the current
mesh, evaluates the residual indicators, marks a minimal bulk of
elements, bisects them, and carries the orbitals (free-dof vectors) to
the finer mesh with the refinement's nodal prolongation restricted to
the free dofs, which the preconditioner reads too. Per-triangle data
(assembly.ElementData) is built on the first mesh and extended after
every refinement, so each triangle's coefficients are sampled once in
the run; the level's assembly and its estimates read it, and each
estimate builds its linear maps from it afresh. The
loop stops when the relative eigenvalue movement between consecutive
meshes (delta1) falls under tol1 or the refinement budget is spent.

The inner iteration does not need to outrun the discretization error.
With budget_factor set, each level stops its sweeps once delta2 falls
under budget_factor * eta_sq / sum|lambda|, where eta_sq is the global
indicator of the previous level's final block, already computed for
marking; level 0 has none and estimates its incoming block instead, so
a run estimates levels + 1 times. tol2 still applies as the tighter
fallback. The previous level's indicator is on a coarser mesh and so
somewhat larger than the incoming block's on the current one, which
loosens the floor a little; the budget only needs its scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import mesh as mesh_mod
from ._checks import count, real
from .assembly import ElementData, assemble
from .estimator import estimate
from .linalg import b_orthonormalize, dense_sym_gen_eig, gram, minres_solve
from .multilevel import MultilevelPreconditioner
from .paro import (
    cluster_guesses,
    initial_block,
    paro_inner_loop,
    relative_change,
)


class AdaptError(RuntimeError):
    """Adaptive loop misconfiguration or a failed refinement level.

    When a level fails mid-run the exception carries the records of the
    completed levels in the `records` attribute.
    """

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = list(records)


@dataclass(frozen=True)
class AdaptConfig:
    """Run knobs: the outer loop (theta, tol1, max_refinements), the
    inner stop (tol2, max_inner sweeps) and the start (initial_passes);
    see module docstring for budget_factor."""
    theta: float = 0.5
    tol1: float = 1e-6
    max_refinements: int = 12
    tol2: float = 1e-8
    max_inner: int = 50
    budget_factor: float | None = None
    initial_passes: int = 4

    def __post_init__(self):
        for name, minimum in (("max_refinements", 0), ("max_inner", 1),
                              ("initial_passes", 0)):
            object.__setattr__(self, name, count(getattr(self, name), name,
                                                 AdaptError, minimum))
        for name in ("theta", "tol1", "tol2", "budget_factor"):
            value = getattr(self, name)
            if value is not None or name != "budget_factor":
                value = real(value, name, AdaptError)
                if name != "theta" and not value > 0.0:     # NaN too
                    raise AdaptError(f"{name} must be positive, got {value}")
                object.__setattr__(self, name, value)
        if not 0.0 < self.theta < 1.0:
            raise AdaptError(f"theta out of (0,1): {self.theta}")


@dataclass(frozen=True)
class RunRecord:
    """One refinement level of an adaptive run.

    wall_time covers everything the level did outside the observer:
    refining into its mesh, assembly, transfer, extending the
    preconditioner, the inner loop and the estimate (level 0 also the
    initial mesh and the seed vectors).
    """
    n: int
    n_dofs: int
    ritz_values: np.ndarray
    global_estimator_sq: float
    m_used: int
    delta1: float
    wall_time: float

    def __post_init__(self):
        object.__setattr__(self, "ritz_values",
                           np.asarray(self.ritz_values, dtype=np.float64))


def records_to_csv(records):
    """Fixed-column CSV of a record list.

    Columns: n, n_dofs, ritz_0..ritz_{N-1}, global_estimator_sq, m_used,
    delta1. wall_time stays out: timings break byte-for-byte
    reproducibility.
    """
    if not records:
        raise AdaptError("no records to serialize")
    n_orb = len(records[0].ritz_values)
    head = ["n", "n_dofs"] + [f"ritz_{k}" for k in range(n_orb)]
    head += ["global_estimator_sq", "m_used", "delta1"]
    lines = [",".join(head)]
    for rec in records:
        if len(rec.ritz_values) != n_orb:
            raise AdaptError("records disagree on orbital count")
        row = [str(rec.n), str(rec.n_dofs)]
        row += [repr(float(v)) for v in rec.ritz_values]
        row += [repr(float(rec.global_estimator_sq)), str(rec.m_used),
                repr(float(rec.delta1))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# squared indicators within this relative distance of the next larger
# one count as tied: mirror-image elements agree only to rounding
TIE_RTOL = 1e-12


def dorfler_mark(indicators, theta):
    """Minimal bulk-criterion element set, ascending indices.

    Greedy: sort squared indicators descending and accumulate until the
    marked mass reaches theta times the global square. A value within
    TIE_RTOL relative of its predecessor in that order is tied with it,
    and tied values go by ascending element index, so rounding-level
    differences between symmetric elements do not decide which one is
    marked. A zero estimator marks nothing.
    """
    if not 0.0 < real(theta, "theta", AdaptError) < 1.0:
        raise AdaptError(f"theta out of (0,1): {theta!r}")
    per = indicators.per_element
    if indicators.global_sq == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((np.arange(len(per)), -per))
    value = per[order]
    tied = value[1:] >= value[:-1] * (1.0 - TIE_RTOL)
    group = np.concatenate([[0], np.cumsum(~tied)])
    # group ascends along order already, so sorting by (group, element)
    # only reorders the tied runs; timsort does that in near-linear time
    order = order[np.argsort(group * len(per) + order, kind="stable")]
    csum = np.cumsum(per[order])
    target = theta * indicators.global_sq
    count = int(np.searchsorted(csum, target, side="left")) + 1
    count = min(count, len(per))
    return np.sort(order[:count])


# unshifted inverse-iteration sweeps of the starting guesses
SEED_SWEEPS = 4


def default_seed_vectors(system, n_orbitals, seed=0, precond=None):
    """Low-mode starting guesses from a few unshifted inverse iterations.

    Oversamples with guard vectors so clustered tails are not missed on
    coarse meshes, then keeps the lowest Rayleigh-Ritz combinations.
    Uses only the package's own solver (MINRES on K, all vectors of a
    sweep in one block call), so adaptive runs stay independent of the
    scipy-based reference plumbing. precond is the mesh's
    MultilevelPreconditioner, or None for unpreconditioned solves; its
    B(0) is K^-1 itself on a first mesh of up to COARSE_DOFS dofs.

    Raises AdaptError when the first guard value joins the cluster of
    the N-th value: a block that splits a cluster keeps an arbitrary
    part of it and converges to a wrong eigenpair.
    """
    rng = np.random.default_rng(seed)
    width = min(n_orbitals + 4, system.n_dofs)
    vecs = rng.standard_normal((width, system.n_dofs))
    apply = None if precond is None else precond.shifted(np.zeros(width))
    for _ in range(SEED_SWEEPS):
        vecs = b_orthonormalize(vecs, system.M)
        rhs = (system.M @ vecs.T).T
        vecs = minres_solve([system.K] * width, rhs, tol=1e-10,
                            precond=apply).solution
    vecs = b_orthonormalize(vecs, system.M)
    values, combo = dense_sym_gen_eig(gram(vecs, system.K), np.eye(width))
    if (width > n_orbitals
            and cluster_guesses(values[:n_orbitals + 1]).d[-1] > 1):
        raise AdaptError(
            f"n_orbitals={n_orbitals} splits a cluster of the first "
            f"mesh's spectrum: Ritz values {n_orbitals} and "
            f"{n_orbitals + 1} are {values[n_orbitals - 1]:.6g} and "
            f"{values[n_orbitals]:.6g}; change n_orbitals or "
            f"initial_passes")
    return combo.T[:n_orbitals] @ vecs


def transfer_block(fine_sys, prolong, block):
    """Carry orbitals to a refined mesh: interpolate nodally with prolong,
    the (fine free dofs x coarse free dofs) nodal prolongation, restore
    b-orthonormality, keep the Ritz values, layout and shifts as the
    next initial data."""
    vecs = b_orthonormalize((prolong @ block.vectors.T).T, fine_sys.M)
    return replace(block, vectors=vecs)


def _effective_tol2(config, block, eta_sq):
    """Inner stop matched to the estimator level eta_sq; eta_sq is read
    only when config.budget_factor is set."""
    if config.budget_factor is None:
        return config.tol2
    lam_sum = float(np.abs(block.ritz_values).sum())
    if lam_sum == 0.0:
        return config.tol2
    floor = config.budget_factor * eta_sq / lam_sum
    return max(config.tol2, floor)


def adaptive_solve(domain, coeffs, n_orbitals, config, seed=0,
                   threads=None, observer=None):
    """Run the adaptive eigensolver.

    Args:
        domain: initial-mesh name ("unit_square", "l_shape") or a Mesh;
            names are uniformly refined config.initial_passes times first.
        coeffs: Coefficients for the operator pencil.
        n_orbitals: number of wanted eigenpairs N.
        config: AdaptConfig.
        seed: rng seed of the start: a few inverse-iteration sweeps
            from random vectors on the initial mesh.
        threads: accepted and ignored; the orbital solves of a sweep
            run as one block MINRES call. Kept only because the
            benchmark passes it.
        observer: optional callable (level, mesh, system, block,
            indicators, data) invoked once per level, after the inner
            loop; data is the mesh's ElementData, for estimates on the
            same mesh that should not sample the coefficients again.

    Returns:
        (records, final_block, final_mesh); one RunRecord per level.
    """
    n_orbitals = count(n_orbitals, "n_orbitals", AdaptError, minimum=1)
    if not isinstance(config, AdaptConfig):
        raise AdaptError(f"config must be an AdaptConfig, got {config!r}")
    t0 = time.perf_counter()
    if isinstance(domain, str):
        current, _ = mesh_mod.uniform_refine(
            mesh_mod.build_initial_mesh(domain), config.initial_passes)
    else:
        current = domain
    records = []
    block = None
    system = None
    prev_values = None
    eta_sq = None
    for level in range(config.max_refinements + 1):
        try:
            if system is None:
                data = ElementData(current, coeffs)
                system = assemble(current, coeffs, data=data)
                precond = MultilevelPreconditioner(current, system)
            if system.n_dofs < n_orbitals:
                raise AdaptError(
                    f"mesh has {system.n_dofs} free dofs for "
                    f"{n_orbitals} orbitals; refine the initial mesh",
                    records=records)
            if block is None:
                block = initial_block(
                    system, default_seed_vectors(system, n_orbitals,
                                                 seed=seed, precond=precond))
            if eta_sq is None and config.budget_factor is not None:
                # level 0 has no previous estimate to match
                eta_sq = estimate(current, coeffs, block,
                                  data=data).global_sq
            tol2 = _effective_tol2(config, block, eta_sq)
            block, m_used, _ = paro_inner_loop(system, block, tol2,
                                               config.max_inner, precond)
            indicators = estimate(current, coeffs, block, data=data)
            eta_sq = indicators.global_sq
            wall = time.perf_counter() - t0
            if observer is not None:
                observer(level, current, system, block, indicators, data)
            t0 = time.perf_counter()
            d1 = (np.inf if prev_values is None
                  else relative_change(block.ritz_values, prev_values,
                                       block.ritz_values))
            records.append(RunRecord(
                n=level, n_dofs=system.n_dofs,
                ritz_values=block.ritz_values.copy(),
                global_estimator_sq=indicators.global_sq,
                m_used=m_used, delta1=d1, wall_time=wall))
            prev_values = block.ritz_values.copy()
            if d1 <= config.tol1 or level == config.max_refinements:
                break
            marked = dorfler_mark(indicators, config.theta)
            if marked.size == 0:
                break
            fine, rmap = mesh_mod.refine(current, marked)
            data = data.extend(rmap, fine)
            fine_sys = assemble(fine, coeffs, data=data)
            prolong = rmap.prolongation[fine_sys.free_dofs][
                :, system.free_dofs]
            block = transfer_block(fine_sys, prolong, block)
            precond = precond.extend(prolong, fine, fine_sys)
            current, system = fine, fine_sys
        except AdaptError:
            raise
        except Exception as exc:
            raise AdaptError(f"refinement level {level} failed: {exc}",
                             records=records) from exc
    return records, block, current
