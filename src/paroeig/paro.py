"""Parallel orbital-updating iteration for clustered eigenvalue problems.

One inner sweep on a fixed mesh does, in order:
  1. group the current Ritz values into clusters (relative-gap rule),
  2. pick one shift per cluster, its mean, times (1 - 1e-10) for every
     singleton and for larger clusters whose members agree to ~1e-12,
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import count, real, real_array
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
            d = tuple(count(di, "cluster multiplicities", ParoError, 1)
                      for di in self.d)
        except TypeError:                   # not iterable
            d = ()
        if not d:
            raise ParoError(f"need at least one cluster, got {self.d!r}")
        object.__setattr__(self, "d", d)

    @property
    def q(self):
        return len(self.d)

    @property
    def n(self):
        return sum(self.d)

    def cluster_slices(self):
        s = np.concatenate([[0], np.cumsum(self.d)])
        return [slice(int(s[i]), int(s[i + 1])) for i in range(self.q)]


@dataclass(frozen=True, eq=False)
class OrbitalBlock:
    """A block of N orbitals with their finite, ascending Ritz values.

    vectors (N, n_dofs), in flat cluster order and b-orthonormal after a
    Ritz step, is held by reference; ritz_values is kept as a read-only
    copy, from which layout and shifts (steps 1 and 2) are derived;
    shifts is read-only too.
    """
    vectors: np.ndarray
    ritz_values: np.ndarray

    def __post_init__(self):
        values = real_array(self.ritz_values, "ritz_values", ParoError,
                            copy=True)
        values.flags.writeable = False
        object.__setattr__(self, "ritz_values", values)
        vectors = real_array(self.vectors, "vectors", ParoError)
        if vectors.ndim != 2 or len(vectors) != self.n:
            raise ParoError(f"expected {self.n} vectors")
        object.__setattr__(self, "vectors", vectors)

    @cached_property
    def layout(self):
        return cluster_guesses(self.ritz_values)

    @cached_property
    def shifts(self):
        shifts = np.array([self.ritz_values[s].mean()
                           for s in self.layout.cluster_slices()])
        shifts.flags.writeable = False
        return shifts

    @property
    def n(self):
        return self.layout.n


def cluster_guesses(values):
    """Group ascending eigenvalue guesses into relative-gap clusters.

    A new cluster starts at k iff
        values[k] - values[k-1] > REL_GAP * max(1, |values[k-1]|).
    """
    v = real_array(values, "eigenvalue guesses", ParoError, finite=True)
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


def _safe_shift(shift, ritz_values):
    """shift * (1 - 1e-10) if within 1e-12 relative of a Ritz value, where
    K - shift*M is singular to rounding: always for a singleton cluster,
    whose shift is its own Ritz value, and for a larger one only when its
    members agree to about 1e-12, as exact doubles on symmetric meshes do."""
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


def ritz_step(sys, half_steps):
    """Rayleigh-Ritz on span(half_steps) -> new b-orthonormal block.

    The half-steps are b-orthonormalized first (their raw scales differ
    by many orders of magnitude), then the N x N projected pencil is
    solved densely. The new block derives its clusters from the new
    Ritz values, so membership may legitimately shuffle between sweeps.
    """
    hs = real_array(half_steps, "half_steps", ParoError)
    if hs.ndim != 2:
        raise ParoError("half_steps must be a (N, n_dofs) array")
    try:
        basis = b_orthonormalize(hs, sys.M)
        a_bar = gram(basis, sys.K)
        m_bar = gram(basis, sys.M)
        values, w = dense_sym_gen_eig(a_bar, m_bar)
    except LinAlgError as exc:
        raise ParoError(
            "half-step block is numerically rank deficient; perturb "
            "the initial data") from exc
    return OrbitalBlock(vectors=w.T @ basis, ritz_values=values)


def initial_block(sys, vectors):
    """Build a valid starting block from raw (possibly skew) vectors."""
    return ritz_step(sys, vectors)


def relative_change(new_values, old_values, scale):
    """Relative eigenvalue movement sum|new - old| / sum|scale|.

    The inner loop's delta2 divides by the old values, the outer loop's
    delta1 by the new ones. 0/0 is 0 and x/0 is inf.
    """
    new, old, scale = (real_array(v, "eigenvalues", ParoError, finite=True)
                       for v in (new_values, old_values, scale))
    if not new.shape == old.shape == scale.shape:
        raise ParoError("eigenvalue arrays of different shapes")
    with np.errstate(over="ignore"):        # a sum beyond range is inf
        num = float(np.abs(new - old).sum())
        den = float(np.abs(scale).sum())
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def paro_inner_loop(sys, block0, tol2, max_inner, precond=None):
    """Iterate orbital_update + ritz_step until delta2 <= tol2, for at
    most max_inner sweeps.

    precond is handed to every orbital_update.

    Returns (final block, sweeps used, delta2 history). Hitting
    max_inner is left to the caller to judge; the partial block is
    still a valid Ritz block.
    """
    if (not real(tol2, "tol2", ParoError) > 0      # NaN too
            or count(max_inner, "max_inner", ParoError) < 1):
        raise ParoError("tol2 must be positive and max_inner >= 1")
    block = block0
    history = []
    m_used = 0
    for _ in range(max_inner):
        half = orbital_update(sys, block, precond)
        new_block = ritz_step(sys, half)
        d2 = relative_change(new_block.ritz_values, block.ritz_values,
                             block.ritz_values)
        history.append(d2)
        block = new_block
        m_used += 1
        if d2 <= tol2:
            break
    return block, m_used, np.asarray(history)

