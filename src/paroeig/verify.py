"""Oracles and diagnostics kept independent of the solver under test.

The independence is about the sparse pencil: reference_eig solves with
K through one sparse LU factorization, inside ARPACK's shift-invert
Lanczos (scipy's eigsh, whose restarts max_iter caps), never through
the iteration's own shifted MINRES solves or its multilevel
preconditioner. Tests that compare the two routes therefore compare
independent computations on the same K and M. A request for every
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
from .linalg import gram


class VerifyError(RuntimeError):
    """Diagnostic preconditions violated or an oracle failed to converge."""


@dataclass(frozen=True)
class ReferencePairs:
    """Reference discrete eigenpairs; rows of vectors are M-orthonormal."""
    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def n(self):
        return len(self.eigenvalues)


def _factor_k(sys):
    """splu of K without the exact zeros it stores on M's pattern: the
    LU orders and fills by the stored pattern, so zeros change it."""
    k_csc = sys.K.tocsc()
    k_csc.eliminate_zeros()
    try:
        return spla.splu(k_csc)
    except RuntimeError as exc:             # "Factor is exactly singular"
        raise VerifyError(f"K cannot be factored: {exc}") from exc


def reference_eig(sys, n_pairs, tol=1e-10, seed=0, max_iter=200):
    """Smallest n_pairs eigenpairs by shift-invert Lanczos on one LU.

    One sparse LU factorization of K serves ARPACK's shift-invert
    Lanczos at sigma = 0 (scipy's eigsh): the smallest eigenvalues of
    K v = lam M v are the largest of K^-1 M, found in the M-inner
    product from the start vector that seed draws, within max_iter
    implicit restarts. eigsh needs n_pairs < n_dofs, so at n_pairs ==
    n_dofs the pencil is solved densely by LAPACK eigh. Every pair must
    end with ||K v - lam M v|| <= tol * ||K||_inf * ||v||.
    """
    n_pairs = _checks.count(n_pairs, "n_pairs", VerifyError, minimum=1)
    tol = _checks.real(tol, "tol", VerifyError)
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
    order = np.argsort(values)
    values, v = values[order], vectors.T[order]
    res = np.linalg.norm(sys.K @ v.T - (sys.M @ v.T) * values, axis=0)
    k_norm = float(abs(sys.K).sum(axis=1).max())
    if np.any(res > tol * k_norm * np.linalg.norm(v, axis=1)):
        raise VerifyError(f"reference pairs did not reach tol={tol}; "
                          f"residuals {res}")
    v[v[np.arange(n_pairs), np.abs(v).argmax(axis=1)] < 0.0] *= -1.0
    return ReferencePairs(eigenvalues=values, vectors=v)


def _a_orthonormalize(sys, vectors):
    v = _checks.real_array(vectors, "vectors", VerifyError)
    if v.ndim == 1:
        v = v[None, :]
    g = gram(v, sys.K)
    try:
        ell = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise VerifyError("vector set is rank deficient in the a-inner "
                          "product") from exc
    return np.linalg.solve(ell, v)


def dist_a(sys, x, y):
    """Largest-principal-angle sine between span(x) and span(y) in the
    a-inner product: sqrt(1 - sigma_min^2) of the cross-Gram of
    a-orthonormal bases, evaluated through the projection residual so
    values near zero are not lost to cancellation."""
    xo = _a_orthonormalize(sys, x)
    yo = _a_orthonormalize(sys, y)
    if xo.shape[0] > yo.shape[0]:
        return 1.0
    w = yo @ (sys.K @ xo.T)                          # (l, k)
    r = xo - w.T @ yo
    val = np.sqrt(max(np.linalg.eigvalsh(gram(r, sys.K)).max(), 0.0))
    return float(min(val, 1.0))


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


@dataclass(frozen=True)
class ClusterReport:
    """Per-cluster agreement between an orbital block and reference."""
    cluster: int
    dim: int
    dist: float
    max_gap: float
    per_vector: np.ndarray
    bound: float

    @property
    def bound_ok(self):
        return bool(np.all(self.per_vector <= self.bound + 1e-12))


def quasi_orthogonality_report(sys, block, ref):
    """Subspace distances, eigenvalue gaps, and the matched
    per-vector distances against the bound
        (1 + sqrt(d)) * sqrt(2 - 2 sqrt(1 - dist^2))
    for each cluster of block.layout.

    The matched basis comes from the orthogonal Procrustes rotation of
    the block cluster onto the reference cluster in the a-inner product.
    """
    if block.n > ref.n:
        raise VerifyError(f"{block.n} orbitals but {ref.n} reference pairs")
    reports = []
    for i, sl in enumerate(block.layout.cluster_slices()):
        x = ref.vectors[sl]
        y = block.vectors[sl]
        d = dist_a(sys, x, y)
        gap = float(np.abs(ref.eigenvalues[sl]
                           - block.ritz_values[sl]).max())
        xo = _a_orthonormalize(sys, x)
        yo = _a_orthonormalize(sys, y)
        w = yo @ (sys.K @ xo.T)
        u_svd, _, vt_svd = np.linalg.svd(w)
        rot = (u_svd @ vt_svd).T
        matched = rot @ yo
        diff = xo - matched
        per_vec = np.sqrt(np.maximum(
            np.einsum("kn,kn->k", diff, (sys.K @ diff.T).T), 0.0))
        d_clip = min(d, 1.0)
        # 2 - 2 sqrt(1-d^2) rewritten as 2d^2/(1+sqrt(1-d^2)): the direct
        # form underflows to 0 for d near machine precision
        chord_sq = 2.0 * d_clip ** 2 / (1.0 + np.sqrt(1.0 - d_clip ** 2))
        bound = (1.0 + np.sqrt(sl.stop - sl.start)) * np.sqrt(chord_sq)
        reports.append(ClusterReport(cluster=i, dim=sl.stop - sl.start,
                                     dist=d, max_gap=gap,
                                     per_vector=per_vec, bound=float(bound)))
    return reports
