"""Outer adaptive loop: solve, estimate, mark, refine, transfer.

Each refinement level runs on one Level: the mesh's per-triangle data
(assembly.ElementData, which holds the mesh and the coefficients), its
pencil and its preconditioner. The loop runs the orbital inner iteration
on it, evaluates the residual indicators and marks a minimal bulk of
elements; Level.refine bisects them into the next level and forms the
nodal prolongation between the two meshes' free dofs, which extends the
preconditioner and carries the orbitals (free-dof vectors). Level 0 is
grown from Level.first of the initial mesh by initial_passes uniform
Level.refine passes, so the preconditioner holds the whole bisection
hierarchy down to the initial mesh. The ElementData is built on the
initial mesh and extended after every refinement, so each triangle's
coefficients are sampled once in the run; the level's assembly and its
estimates read it, and each estimate builds its linear maps from it
afresh. The loop stops when the relative eigenvalue movement between
consecutive meshes (delta1) falls under tol1 or the refinement budget
is spent.

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
from ._checks import (
    count,
    instance,
    instances,
    matrix,
    method,
    real,
    real_array,
)
from .assembly import AssemblyError, ElementData, FemSystem, assemble
from .estimator import Indicators, estimate
from .linalg import (
    LinAlgError,
    b_orthonormalize,
    dense_sym_gen_eig,
    gram,
    minres_solve,
)
from .multilevel import MultilevelPreconditioner
from .paro import (
    OrbitalBlock,
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


@dataclass(frozen=True, eq=False)
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
        values = real_array(self.ritz_values, "ritz_values", AdaptError)
        if values.ndim != 1:
            raise AdaptError("ritz_values must be a 1-D array")
        object.__setattr__(self, "ritz_values", values)


def records_to_csv(records):
    """Fixed-column CSV of a record list.

    Columns: n, n_dofs, ritz_0..ritz_{N-1}, global_estimator_sq, m_used,
    delta1. wall_time stays out: timings break byte-for-byte
    reproducibility.
    """
    records = instances(records, RunRecord, "records", AdaptError)
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
    """Minimal bulk-criterion element set of Indicators (AdaptError
    otherwise), ascending indices.

    Greedy: sort squared indicators descending and accumulate until the
    marked mass reaches theta times the global square. A value within
    TIE_RTOL relative of its predecessor in that order is tied with it,
    and tied values go by ascending element index, so rounding-level
    differences between symmetric elements do not decide which one is
    marked. A zero estimator marks nothing.
    """
    instance(indicators, Indicators, "indicators", AdaptError)
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
    B(0) is K^-1 itself when the mesh is its coarse level: a refined
    mesh of at most multilevel.RESTART_DOFS dofs, or a first mesh of at
    most COARSE_DOFS.

    Raises AdaptError when the system has fewer free dofs than
    n_orbitals, or when the first guard value joins the cluster of the
    N-th value: a block that splits a cluster keeps an arbitrary part
    of it and converges to a wrong eigenpair.
    """
    instance(system, FemSystem, "system", AdaptError)
    n_orbitals = count(n_orbitals, "n_orbitals", AdaptError, minimum=1)
    if system.n_dofs < n_orbitals:
        raise AdaptError(f"mesh has {system.n_dofs} free dofs for "
                         f"{n_orbitals} orbitals; refine the initial mesh")
    rng = np.random.default_rng(count(seed, "seed", AdaptError))
    if precond is not None:
        method(precond, "shifted", "precond", AdaptError)
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
    b-orthonormality, keep the Ritz values (and so the layout and
    shifts) as the next initial data."""
    instance(fine_sys, FemSystem, "fine_sys", AdaptError)
    instance(block, OrbitalBlock, "block", AdaptError)
    matrix(prolong, (fine_sys.n_dofs, block.vectors.shape[1]), "prolong",
           AdaptError)
    vecs = b_orthonormalize((prolong @ block.vectors.T).T, fine_sys.M)
    return replace(block, vectors=vecs)


@dataclass(frozen=True, eq=False)
class Level:
    """One mesh of an adaptive run: its ElementData (which holds the mesh
    and the coefficients), its FemSystem and its preconditioner."""
    data: ElementData
    system: FemSystem
    precond: MultilevelPreconditioner

    @property
    def mesh(self):
        return self.data.mesh

    @classmethod
    def first(cls, mesh, coeffs):
        """The Level of a run's initial mesh, the preconditioner's coarse
        level; over multilevel.COARSE_DOFS free dofs it raises
        LinAlgError. Refinements extend its hierarchy, and restart it
        only on a mesh of at most multilevel.RESTART_DOFS free dofs."""
        data = ElementData(mesh, coeffs)
        system = assemble(mesh, coeffs, data=data)
        return cls(data, system, MultilevelPreconditioner(mesh, system))

    def refine(self, marked):
        """(next Level, prolong) after bisecting the marked triangles;
        prolong is the refinement's nodal prolongation restricted to the
        free dofs of both meshes."""
        fine, rmap = mesh_mod.refine(self.mesh, marked)
        data = self.data.extend(rmap, fine)
        system = assemble(fine, data.coeffs, data=data)
        prolong = rmap.prolongation[system.free_dofs][
            :, self.system.free_dofs]
        precond = self.precond.extend(prolong, fine, system)
        return Level(data, system, precond), prolong

    def estimate(self, block):
        return estimate(self.mesh, self.data.coeffs, block, data=self.data)


def _effective_tol2(config, block, eta_sq):
    """Inner stop matched to the estimator level eta_sq; eta_sq is read
    only when config.budget_factor is set."""
    lam_sum = float(np.abs(block.ritz_values).sum())
    if config.budget_factor is None or lam_sum == 0.0:
        return config.tol2
    return max(config.tol2, config.budget_factor * eta_sq / lam_sum)


def adaptive_solve(domain, coeffs, n_orbitals, config, seed=0,
                   threads=None, observer=None):
    """Run the adaptive eigensolver.

    Args:
        domain: initial mesh as mesh.build_initial_mesh takes it, a
            name or a (vertices, triangles) pair, refined
            config.initial_passes times for level 0. Anything else (a
            Mesh too), an unknown name, or an initial mesh of more than
            multilevel.COARSE_DOFS free dofs raises an AdaptError that
            says so; coefficients that fail on the initial mesh raise
            one that names them. The preconditioner's coarse level is
            the last mesh of at most multilevel.RESTART_DOFS free dofs,
            or the initial mesh when that is larger.
        coeffs: Coefficients for the operator pencil.
        n_orbitals: number of wanted eigenpairs N.
        config: AdaptConfig.
        seed: integer >= 0 seeding the start: a few inverse-iteration
            sweeps from random vectors on the initial mesh.
        threads: accepted and ignored; the orbital solves of a sweep
            run as one block MINRES call. Kept only because the
            benchmark passes it.
        observer: optional callable (n, level, block, indicators)
            invoked once per refinement level n, after the inner loop;
            level is the Level the block was solved on, whose estimate
            reuses its ElementData.

    Returns:
        (records, final_block, final_mesh); one RunRecord per level.
    """
    n_orbitals = count(n_orbitals, "n_orbitals", AdaptError, minimum=1)
    seed = count(seed, "seed", AdaptError)
    instance(config, AdaptConfig, "config", AdaptError)
    if observer is not None and not callable(observer):
        raise AdaptError(f"observer must be callable, got {observer!r}")
    t0 = time.perf_counter()
    try:
        initial = mesh_mod.build_initial_mesh(domain)
    except mesh_mod.MeshError as exc:
        raise AdaptError(f"bad domain: {exc}") from exc
    try:
        level = Level.first(initial, coeffs)
    except LinAlgError as exc:
        raise AdaptError(f"the domain's initial mesh is too fine: "
                         f"{exc}") from exc
    except AssemblyError as exc:
        raise AdaptError(f"bad coefficients: {exc}") from exc
    records, eta_sq = [], None
    for n in range(config.max_refinements + 1):
        try:
            if n == 0:
                for _ in range(config.initial_passes):
                    level, _ = level.refine(
                        np.arange(level.mesh.n_triangles))
                block = initial_block(level.system, default_seed_vectors(
                    level.system, n_orbitals, seed, level.precond))
                if config.budget_factor is not None:
                    # level 0 has no previous estimate to match
                    eta_sq = level.estimate(block).global_sq
            tol2 = _effective_tol2(config, block, eta_sq)
            block, m_used, _ = paro_inner_loop(
                level.system, block, tol2, config.max_inner, level.precond)
            indicators = level.estimate(block)
            eta_sq = indicators.global_sq
            wall = time.perf_counter() - t0
            if observer is not None:
                observer(n, level, block, indicators)
            t0 = time.perf_counter()
            d1 = np.inf if not records else relative_change(
                block.ritz_values, records[-1].ritz_values, block.ritz_values)
            records.append(RunRecord(
                n=n, n_dofs=level.system.n_dofs,
                ritz_values=block.ritz_values,
                global_estimator_sq=indicators.global_sq,
                m_used=m_used, delta1=d1, wall_time=wall))
            if d1 <= config.tol1 or n == config.max_refinements:
                break
            marked = dorfler_mark(indicators, config.theta)
            if marked.size == 0:
                break
            level, prolong = level.refine(marked)
            block = transfer_block(level.system, prolong, block)
        except AdaptError:
            raise
        except Exception as exc:
            raise AdaptError(f"refinement level {n} failed: {exc}",
                             records=records) from exc
    return records, block, level.mesh
