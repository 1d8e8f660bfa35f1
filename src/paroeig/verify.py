"""Oracles and diagnostics kept independent of the solver under test.

The independence is about the sparse pencil: reference_eig solves with
K through one sparse LU factorization, inside ARPACK's shift-invert
Lanczos (scipy's eigsh, whose restarts max_iter caps), never through
the iteration's own shifted MINRES solves or its multilevel
preconditioner. Tests that compare the two routes therefore compare
independent computations on the same K and M. The LU runs in a
nested-dissection order of the free dofs' coordinates (FemSystem's
vertices), with SuperLU's default partial pivoting. A request for every
eigenpair, which Lanczos cannot serve, and the small dense steps on
both routes (Gram matrices, the N x N Rayleigh-Ritz pencil) go through
LAPACK; they are not where the routes differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import _checks
from .assembly import FemSystem
from .linalg import gram
from .paro import OrbitalBlock


class VerifyError(RuntimeError):
    """Diagnostic preconditions violated or an oracle failed to converge."""


@dataclass(frozen=True, eq=False)
class ReferencePairs:
    """Reference discrete eigenpairs; rows of vectors are M-orthonormal."""
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return len(self.eigenvalues)


def _top_bit(x):
    """Index of the highest set bit of each non-negative integer below
    2**53, -1 for 0; frexp reads it from the exponent, exactly."""
    return np.frexp(x)[1] - 1


def _nested_dissection(vertices, k):
    """A nested-dissection order of the dofs at vertices (n, 2) for the
    symmetric pattern of k (George 1973), cut by the coordinates.

    Each coordinate is replaced by its rank among the distinct values,
    and the two ranks' bits interleave into a Morton code: each bit of
    the code halves its subtree along x or y. An edge is cut at the
    highest bit in which its ends' codes differ, and the end with the
    lower code joins that cut's separator; a dof keeps the highest such
    cut. Sorting by the code with the bits below its cut set to one puts
    each separator after both halves it splits; a tie goes to the deeper
    cut, then to the lower code.
    """
    rx, ry = (np.unique(c, return_inverse=True)[1] for c in vertices.T)
    code = np.zeros(len(vertices), dtype=np.int64)
    for b in range(len(vertices).bit_length()):     # ranks are below n
        code |= (rx >> b & 1) << 2 * b + 1 | (ry >> b & 1) << 2 * b
    rows = k.indices
    cols = np.repeat(np.arange(k.shape[1]), np.diff(k.indptr))
    # the pattern is symmetric: each edge once, its lower-coded end as col
    low = code[cols] < code[rows]
    rows, cols = rows[low], cols[low]
    # the top differing code bit, from the ranks' top differing bits
    cut = np.maximum(2 * _top_bit(rx[rows] ^ rx[cols]) + 1,
                     2 * _top_bit(ry[rows] ^ ry[cols]))
    sep = np.full(len(code), -1)
    np.maximum.at(sep, cols, cut)
    return np.lexsort((code, sep, code | ((1 << sep + 1) - 1)))


@dataclass(frozen=True, eq=False)
class _PermutedLU:
    """splu of K[perm][:, perm]; solve(b) takes and returns vectors or
    (n, k) blocks in K's own numbering."""
    lu: spla.SuperLU
    perm: np.ndarray

    def solve(self, b):
        y = self.lu.solve(np.asarray(b)[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def _factor_k(sys):
    """splu of K without the exact zeros it stores on M's pattern, in
    the nested-dissection order of the free dofs' coordinates.

    SuperLU keeps that order (permc_spec NATURAL) and its default
    partial pivoting; the zeros would add edges to the ordering and
    fill to the factor.
    """
    k_csc = sys.K.tocsc()
    k_csc.eliminate_zeros()
    perm = _nested_dissection(sys.vertices[sys.free_dofs], k_csc)
    try:
        return _PermutedLU(spla.splu(k_csc[perm][:, perm],
                                     permc_spec="NATURAL"), perm)
    except RuntimeError as exc:             # "Factor is exactly singular"
        raise VerifyError(f"K cannot be factored: {exc}") from exc


def reference_eig(sys, n_pairs, tol=1e-10, seed=0, max_iter=200):
    """Smallest n_pairs eigenpairs by shift-invert Lanczos on one LU.

    One sparse LU factorization of K, in the nested-dissection order
    of _factor_k, serves ARPACK's shift-invert Lanczos at sigma = 0
    (scipy's eigsh): the smallest eigenvalues of K v = lam M v are the
    largest of K^-1 M, found in the M-inner product from the start
    vector that seed draws, within max_iter implicit restarts. eigsh
    needs n_pairs < n_dofs, so at n_pairs == n_dofs the pencil is
    solved densely by LAPACK eigh. Each lam is its vector's Rayleigh
    quotient, and every pair must end with ||K v - lam M v|| <= tol *
    ||K||_inf * ||v||, for a tol that is positive and finite.
    """
    _checks.instance(sys, FemSystem, "sys", VerifyError)
    n_pairs = _checks.count(n_pairs, "n_pairs", VerifyError, minimum=1)
    tol = _checks.real(tol, "tol", VerifyError)
    if not 0.0 < tol < np.inf:                      # NaN too
        raise VerifyError(f"tol must be positive and finite, got {tol!r}")
    max_iter = _checks.count(max_iter, "max_iter", VerifyError, minimum=1)
    seed = _checks.count(seed, "seed", VerifyError)
    if n_pairs > sys.n_dofs:
        raise VerifyError(f"requested {n_pairs} pairs but the system has "
                          f"only {sys.n_dofs} dofs")
    for data in (sys.K.data, sys.M.data):
        _checks.real_array(data, "K and M", VerifyError, finite=True)
    lu = _factor_k(sys)
    if n_pairs == sys.n_dofs:
        try:
            values, vectors = scipy.linalg.eigh(sys.K.toarray(),
                                                sys.M.toarray())
        except np.linalg.LinAlgError as exc:
            raise VerifyError(f"M is not positive definite: {exc}") from exc
    else:
        k_inv = spla.LinearOperator(sys.K.shape, matvec=lu.solve,
                                    dtype=np.float64)
        v0 = np.random.default_rng(seed).standard_normal(sys.n_dofs)
        try:
            values, vectors = spla.eigsh(sys.K, k=n_pairs, M=sys.M,
                                         sigma=0.0, OPinv=k_inv, v0=v0,
                                         maxiter=max_iter, tol=0)
        except spla.ArpackError as exc:     # ArpackNoConvergence among them
            raise VerifyError(f"Lanczos did not reach {n_pairs} pairs in "
                              f"{max_iter} restarts: {exc}") from exc
    # each value is its vector's Rayleigh quotient, an upper bound on the
    # discrete eigenvalue whose error is quadratic in the vector's; the
    # Lanczos value also carries the LU solves' forward error, about
    # 1e-12 relative at 195k dofs and changing with the factor's order
    kv, mv = sys.K @ vectors, sys.M @ vectors
    values = (np.einsum("ij,ij->j", vectors, kv)
              / np.einsum("ij,ij->j", vectors, mv))
    res = np.linalg.norm(kv - mv * values, axis=0)
    order = np.argsort(values)
    values, v, res = values[order], vectors.T[order], res[order]
    k_norm = float(abs(sys.K).sum(axis=1).max())
    if np.any(res > tol * k_norm * np.linalg.norm(v, axis=1)):
        raise VerifyError(f"reference pairs did not reach tol={tol}; "
                          f"residuals {res}")
    v[v[np.arange(n_pairs), np.abs(v).argmax(axis=1)] < 0.0] *= -1.0
    return ReferencePairs(eigenvalues=values, vectors=v)


def _a_orthonormalize(sys, vectors):
    v = np.atleast_2d(_checks.real_array(vectors, "vectors", VerifyError))
    if v.ndim != 2 or v.shape[1] != sys.n_dofs:
        raise VerifyError(f"vectors must have {sys.n_dofs} entries each")
    g = gram(v, sys.K)
    try:
        ell = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise VerifyError("vector set is rank deficient in the a-inner "
                          "product") from exc
    return np.linalg.solve(ell, v)


def _principal(sys, x, y):
    """(dist_a(sys, x, y), xo, yo, w): the distance with the a-orthonormal
    bases xo, yo of span(x), span(y) and their cross-Gram w = yo K xo^T
    it is evaluated from."""
    _checks.instance(sys, FemSystem, "sys", VerifyError)
    xo = _a_orthonormalize(sys, x)
    yo = _a_orthonormalize(sys, y)
    w = yo @ (sys.K @ xo.T)                          # (l, k)
    if xo.shape[0] > yo.shape[0]:
        return 1.0, xo, yo, w
    r = xo - w.T @ yo
    val = np.sqrt(max(np.linalg.eigvalsh(gram(r, sys.K)).max(), 0.0))
    return float(min(val, 1.0)), xo, yo, w


def dist_a(sys, x, y):
    """Largest-principal-angle sine between span(x) and span(y) in the
    a-inner product: sqrt(1 - sigma_min^2) of the cross-Gram of
    a-orthonormal bases, evaluated through the projection residual so
    values near zero are not lost to cancellation."""
    return _principal(sys, x, y)[0]


def analytic_spectrum(domain, count):
    """Dirichlet Laplacian eigenvalues pi^2 (m^2 + n^2) on the unit
    square, ascending with multiplicity; no closed form elsewhere."""
    if not isinstance(domain, str) or domain != "unit_square":
        raise VerifyError(f"no analytic spectrum for domain {domain!r}")
    count = _checks.count(count, "count", VerifyError, minimum=1)
    top = int(np.ceil(np.sqrt(2.0 * count))) + 2
    vals = np.sort([np.pi ** 2 * (m * m + n * n)
                    for m in range(1, top + 1)
                    for n in range(1, top + 1)])
    return vals[:count]


def fit_rate(x, y):
    """Log-log least-squares slope and R^2 of positive finite samples,
    not all at one x."""
    x, y = (_checks.real_array(v, "rate samples", VerifyError, finite=True)
            for v in (x, y))
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise VerifyError("rate fitting needs positive samples")
    if x.ndim != 1 or x.size < 3 or x.shape != y.shape or np.ptp(x) == 0:
        raise VerifyError("need at least 3 matched samples, not all at one x")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(((ly - fitted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r_sq)


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Per-cluster agreement between an orbital block and reference."""
    cluster: int
    dist: float
    max_gap: float
    per_vector: np.ndarray

    @property
    def dim(self):
        return len(self.per_vector)

    @property
    def bound(self):
        """(1 + sqrt(dim)) * sqrt(2 - 2 sqrt(1 - dist^2))."""
        d = min(self.dist, 1.0)
        # 2 - 2 sqrt(1-d^2) rewritten as 2d^2/(1+sqrt(1-d^2)): the direct
        # form underflows to 0 for d near machine precision
        chord_sq = 2.0 * d ** 2 / (1.0 + np.sqrt(1.0 - d ** 2))
        return float((1.0 + np.sqrt(self.dim)) * np.sqrt(chord_sq))

    @property
    def bound_ok(self):
        return bool(np.all(self.per_vector <= self.bound + 1e-12))


def quasi_orthogonality_report(sys, block, ref):
    """Subspace distances, eigenvalue gaps, and the matched
    per-vector distances, with ClusterReport's bound, for each cluster
    of block.layout.

    The matched basis comes from the orthogonal Procrustes rotation of
    the block cluster onto the reference cluster in the a-inner product.
    """
    _checks.instance(block, OrbitalBlock, "block", VerifyError)
    _checks.instance(ref, ReferencePairs, "ref", VerifyError)
    if block.n > ref.n:
        raise VerifyError(f"{block.n} orbitals but {ref.n} reference pairs")
    reports = []
    for i, sl in enumerate(block.layout.cluster_slices()):
        d, xo, yo, w = _principal(sys, ref.vectors[sl], block.vectors[sl])
        gap = float(np.abs(ref.eigenvalues[sl]
                           - block.ritz_values[sl]).max())
        u_svd, _, vt_svd = np.linalg.svd(w)
        rot = (u_svd @ vt_svd).T
        matched = rot @ yo
        diff = xo - matched
        per_vec = np.sqrt(np.maximum(
            np.einsum("kn,kn->k", diff, (sys.K @ diff.T).T), 0.0))
        reports.append(ClusterReport(cluster=i, dist=d, max_gap=gap,
                                     per_vector=per_vec))
    return reports
