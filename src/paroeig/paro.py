"""Parallel orbital-updating iteration for clustered eigenvalue problems.

One inner sweep on a fixed mesh does, in order:
  1. group the current Ritz values into clusters (relative-gap rule),
  2. pick one shift per cluster (arithmetic mean of the cluster),
  3. for every orbital u solve (K - shift*M) x = shift*M u; the N solves
     are independent and run together, as one block MINRES call whose
     rows share each step's V-cycle,
  4. Rayleigh-Ritz on the span of the half-steps, giving a b-orthonormal
     block with ascending Ritz values,
  5. stop when the relative eigenvalue movement delta2 drops below tol2.

The shifted systems are intentionally near-singular: the closer a shift
sits to an eigenvalue, the harder the solve amplifies the wanted
eigendirections. Half-steps are therefore huge and unnormalized; the
Ritz step renormalizes. A solver hitting its iteration cap is routine,
not an error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    LinAlgError,
    b_orthonormalize,
    dense_sym_gen_eig,
    gram,
    minres_solve,
)

# clusters split where consecutive Ritz values differ by more than this
# relative gap: wide enough to hold a discretely split multiple eigenvalue
REL_GAP = 0.02
# relative B-norm residual at which every shifted solve stops. The Ritz
# step needs only the half-steps' span, and inexact inverse iteration
# converges with a fixed relative inner tolerance well below 1 (Golub and
# Ye 2000; Berns-Mueller, Graham and Spence 2006). Against 1e-10, the
# adaptive benchmark runs keep their levels, final dofs, sweeps and
# layouts at 1e-5, and their Ritz values still agree with a direct
# eigensolver to 1e-12; 1e-4 saves a few more iterations but leaves
# less margin
MINRES_TOL = 1e-5


class ParoError(RuntimeError):
    """Degenerate orbital data or a failed Ritz reduction."""


@dataclass(frozen=True)
class ClusterLayout:
    """Partition of N ascending values into q = len(d) contiguous
    clusters of sizes d."""
    d: tuple

    def __post_init__(self):
        try:
            # operator.index takes Python and numpy integers only
            d = tuple(operator.index(di) for di in self.d)
        except TypeError:
            raise ParoError("cluster multiplicities must be integers, "
                            f"got {self.d!r}") from None
        if not d or min(d) < 1:
            raise ParoError("need at least one cluster, and every "
                            "cluster multiplicity must be >= 1")
        object.__setattr__(self, "d", d)

    @property
    def q(self):
        return len(self.d)

    @property
    def n(self):
        return sum(self.d)

    def starts(self):
        return np.concatenate([[0], np.cumsum(self.d)])

    def cluster_slices(self):
        s = self.starts()
        return [slice(int(s[i]), int(s[i + 1])) for i in range(self.q)]


@dataclass(frozen=True)
class OrbitalBlock:
    """A block of N orbitals with their Ritz values and cluster shifts.

    vectors is (N, n_dofs) in flat cluster order; after a Ritz step the
    rows are b-orthonormal and ritz_values ascend.
    """
    layout: ClusterLayout
    vectors: np.ndarray
    ritz_values: np.ndarray
    shifts: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        ritz = np.asarray(self.ritz_values, dtype=np.float64)
        shifts = np.asarray(self.shifts, dtype=np.float64)
        n = self.layout.n
        if vectors.ndim != 2 or vectors.shape[0] != n:
            raise ParoError(f"expected {n} orbital vectors")
        if ritz.shape != (n,):
            raise ParoError(f"expected {n} ritz values")
        if shifts.shape != (self.layout.q,):
            raise ParoError(f"expected {self.layout.q} shifts")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "ritz_values", ritz)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n(self):
        return self.layout.n


def cluster_guesses(values):
    """Group ascending eigenvalue guesses into relative-gap clusters.

    A new cluster starts at k iff
        values[k] - values[k-1] > REL_GAP * max(1, |values[k-1]|).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ParoError("need at least one eigenvalue guess")
    if np.any(np.diff(v) < 0):
        raise ParoError("eigenvalue guesses must be ascending")
    d = []
    count = 1
    for k in range(1, v.size):
        if v[k] - v[k - 1] > REL_GAP * max(1.0, abs(v[k - 1])):
            d.append(count)
            count = 1
        else:
            count += 1
    d.append(count)
    return ClusterLayout(tuple(d))


def _mean_shifts(values, layout):
    return np.array([values[s].mean() for s in layout.cluster_slices()])


def _safe_shift(shift, ritz_values):
    """Nudge a shift that collides with a Ritz value to machine distance;
    an exactly singular operator would make MINRES directionless."""
    if np.min(np.abs(shift - ritz_values)) < 1e-12 * abs(shift):
        return shift * (1.0 - 1e-10)
    return shift


def orbital_update(sys, block, precond=None):
    """Solve (K - shift_i M) x_ij = shift_i M u_ij for every orbital.

    Returns the (N, n_dofs) array of unnormalized half-step vectors.
    The N solves are independent and run as one block MINRES call, row
    j on its cluster's operator; the members of a cluster share one
    assembled operator (sys.shifted). precond is None (no
    preconditioner) or, like a MultilevelPreconditioner, has a method
    shifted(shifts) that takes the 1-D array of the orbitals' shifts and
    returns minres_solve's block callable (R, rows) -> B R, column i
    preconditioned by B ~ |K - shift*M|^-1 for orbital rows[i]'s shift;
    it is called once per sweep. Iteration caps are expected near
    convergence and not reported as errors.
    """
    shifts = np.array([_safe_shift(float(s), block.ritz_values)
                       for s in block.shifts])
    cluster = np.repeat(np.arange(block.layout.q), block.layout.d)
    operators = [sys.shifted(s) for s in shifts]
    rhs = shifts[cluster, None] * (sys.M @ block.vectors.T).T
    zero = ~rhs.any(axis=1)
    if zero.any():
        raise ParoError(f"orbital {int(np.argmax(zero))} produced a zero "
                        f"right-hand side (degenerate orbital)")
    apply = None if precond is None else precond.shifted(shifts[cluster])
    return minres_solve([operators[c] for c in cluster], rhs,
                        tol=MINRES_TOL, precond=apply).solution


def ritz_step(sys, half_steps, layout):
    """Rayleigh-Ritz on span(half_steps) -> new b-orthonormal block.

    The half-steps are b-orthonormalized first (their raw scales differ
    by many orders of magnitude), then the N x N projected pencil is
    solved densely. Cluster structure is re-derived from the new Ritz
    values, so membership may legitimately shuffle between sweeps.
    """
    hs = np.asarray(half_steps, dtype=np.float64)
    if hs.ndim != 2:
        raise ParoError("half_steps must be a (N, n_dofs) array")
    if layout is not None and hs.shape[0] != layout.n:
        raise ParoError(f"expected {layout.n} half-step vectors, "
                        f"got {hs.shape[0]}")
    try:
        basis = b_orthonormalize(hs, sys.M)
        a_bar = gram(basis, sys.K)
        m_bar = gram(basis, sys.M)
        values, w = dense_sym_gen_eig(a_bar, m_bar)
    except LinAlgError as exc:
        raise ParoError(
            "half-step block is numerically rank deficient; perturb "
            "the initial data") from exc
    vectors = w.T @ basis
    new_layout = cluster_guesses(values)
    return OrbitalBlock(layout=new_layout, vectors=vectors,
                        ritz_values=values,
                        shifts=_mean_shifts(values, new_layout))


def initial_block(sys, vectors):
    """Build a valid starting block from raw (possibly skew) vectors."""
    return ritz_step(sys, vectors, None)


def relative_change(new_values, old_values, scale):
    """Relative eigenvalue movement sum|new - old| / sum|scale|.

    The inner loop's delta2 divides by the old values, the outer loop's
    delta1 by the new ones. 0/0 is 0 and x/0 is inf.
    """
    new = np.asarray(new_values, dtype=np.float64)
    num = np.abs(new - np.asarray(old_values, dtype=np.float64)).sum()
    den = np.abs(np.asarray(scale, dtype=np.float64)).sum()
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return float(num / den)


def paro_inner_loop(sys, block0, tol2, max_inner, precond=None):
    """Iterate orbital_update + ritz_step until delta2 <= tol2, for at
    most max_inner sweeps.

    precond is handed to every orbital_update.

    Returns (final block, sweeps used, delta2 history). Hitting
    max_inner is left to the caller to judge; the partial block is
    still a valid Ritz block.
    """
    if not tol2 > 0 or max_inner < 1:      # "not x > 0" also rejects NaN
        raise ParoError("tol2 must be positive and max_inner >= 1")
    block = block0
    history = []
    m_used = 0
    for _ in range(max_inner):
        half = orbital_update(sys, block, precond)
        new_block = ritz_step(sys, half, block.layout)
        d2 = relative_change(new_block.ritz_values, block.ritz_values,
                             block.ritz_values)
        history.append(d2)
        block = new_block
        m_used += 1
        if d2 <= tol2:
            break
    return block, m_used, np.asarray(history)


def check_block(sys, block, tol=1e-8):
    """Validate the post-Ritz invariants; raises ParoError on violation.

    Returns the worst Gram deviation from identity (useful in tests).
    """
    g = gram(block.vectors, sys.M)
    dev = float(np.abs(g - np.eye(block.n)).max()) if block.n else 0.0
    if dev > tol:
        raise ParoError(f"block is not b-orthonormal (deviation {dev:.3e})")
    if np.any(np.diff(block.ritz_values) < 0):
        raise ParoError("ritz values are not ascending")
    for i, sl in enumerate(block.layout.cluster_slices()):
        lo = block.ritz_values[sl].min()
        hi = block.ritz_values[sl].max()
        pad = 1e-12 * max(1.0, abs(hi))
        if not (lo - pad <= block.shifts[i] <= hi + pad):
            raise ParoError(f"shift {i} outside its cluster interval")
    return dev
