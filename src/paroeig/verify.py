"""Oracles and diagnostics kept independent of the solver under test.

The independence is about the sparse pencil: reference_eig and the
Galerkin projection solve with K through a sparse LU factorization,
never through the iteration's own shifted MINRES solves or its
multilevel preconditioner. Tests that compare the two routes therefore
compare independent computations on the same K and M. The small dense
steps on both routes (Gram matrices, the N x N Rayleigh-Ritz pencil)
go through LAPACK; they are not where the routes differ.
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


def _inf_norm(s):
    if s.shape[0] == 0:
        return 0.0
    return float(np.abs(s).sum(axis=1).max())


def reference_eig(sys, n_pairs, tol=1e-10, seed=0, max_iter=200):
    """Smallest n_pairs eigenpairs by block inverse iteration.

    One sparse LU factorization of K, then repeat: solve K Z = M V,
    M-orthonormalize, Rayleigh-Ritz (LAPACK eigh) until every wanted
    pair has residual ||K v - lam M v|| <= tol * ||K||_inf * ||v||.
    Up to four guard vectors ride along to protect clustered tails, as
    many as the dofs beyond n_pairs allow (none when n_pairs == n_dofs).
    """
    n_pairs = _checks.count(n_pairs, "n_pairs", VerifyError, minimum=1)
    tol = _checks.real(tol, "tol", VerifyError)
    max_iter = _checks.count(max_iter, "max_iter", VerifyError, minimum=1)
    if n_pairs > sys.n_dofs:
        raise VerifyError(f"requested {n_pairs} pairs but the system has "
                          f"only {sys.n_dofs} dofs")
    guards = min(4, sys.n_dofs - n_pairs)
    k_csc = sys.K.tocsc()
    for data in (k_csc.data, sys.M.data):
        _checks.real_array(data, "K and M", VerifyError, finite=True)
    try:
        lu = spla.splu(k_csc)
    except RuntimeError as exc:             # "Factor is exactly singular"
        raise VerifyError(f"K cannot be factored: {exc}") from exc
    k_norm = _inf_norm(sys.K)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_pairs + guards, sys.n_dofs))
    values = None
    res = None
    for _ in range(max_iter):
        z = lu.solve(sys.M @ v.T)                     # (n, k)
        g = z.T @ (sys.M @ z)
        try:
            ell = np.linalg.cholesky(0.5 * (g + g.T))
        except np.linalg.LinAlgError as exc:
            raise VerifyError("iteration block became rank deficient") \
                from exc
        q = scipy.linalg.solve_triangular(ell, z.T, lower=True)
        a_bar = gram(q, sys.K)
        m_bar = gram(q, sys.M)
        values, w = scipy.linalg.eigh(a_bar, m_bar)
        v = w.T @ q
        kv = sys.K @ v.T
        mv = sys.M @ v.T
        res = np.linalg.norm(kv - mv * values[None, :], axis=0)
        scale = tol * k_norm * np.linalg.norm(v, axis=1)
        if np.all(res[:n_pairs] <= scale[:n_pairs]):
            flips = v[np.arange(len(values)),
                      np.abs(v).argmax(axis=1)] < 0.0
            v[flips] *= -1.0
            return ReferencePairs(eigenvalues=values[:n_pairs].copy(),
                                  vectors=v[:n_pairs].copy())
    raise VerifyError(f"inverse iteration did not reach tol={tol} in "
                      f"{max_iter} sweeps; residuals {res[:n_pairs]}")


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
    if domain != "unit_square":
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


def quasi_orthogonality_report(sys, block, ref, layout):
    """Cluster-wise subspace distances, eigenvalue gaps, and the matched
    per-vector distances against the bound
        (1 + sqrt(d)) * sqrt(2 - 2 sqrt(1 - dist^2)).

    The matched basis comes from the orthogonal Procrustes rotation of
    the block cluster onto the reference cluster in the a-inner product.
    """
    if layout.n != block.n or layout.n > ref.n:
        raise VerifyError("cluster layout does not match block/reference "
                          "dimensions")
    reports = []
    for i, sl in enumerate(layout.cluster_slices()):
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


# -- analytic-eigenfunction machinery (unit square) ------------------------

# degree-5 rule: centroid + two orbits of three points
_SQRT15 = np.sqrt(15.0)
_A1 = (6.0 - _SQRT15) / 21.0
_A2 = (6.0 + _SQRT15) / 21.0
_DEG5_BARY = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [1 - 2 * _A1, _A1, _A1], [_A1, 1 - 2 * _A1, _A1], [_A1, _A1, 1 - 2 * _A1],
     [1 - 2 * _A2, _A2, _A2], [_A2, 1 - 2 * _A2, _A2], [_A2, _A2, 1 - 2 * _A2]])
_DEG5_W = np.array([9 / 40,
                    (155.0 - _SQRT15) / 1200.0, (155.0 - _SQRT15) / 1200.0,
                    (155.0 - _SQRT15) / 1200.0,
                    (155.0 + _SQRT15) / 1200.0, (155.0 + _SQRT15) / 1200.0,
                    (155.0 + _SQRT15) / 1200.0])


def square_eigenfunction(m, n):
    """b-normalized Dirichlet eigenfunction 2 sin(m pi x) sin(n pi y)."""
    def u(x, y):
        return 2.0 * np.sin(m * np.pi * x) * np.sin(n * np.pi * y)
    return u


def load_vector(mesh, func):
    """(func, phi_i) for all vertex hats, degree-5 quadrature."""
    pts = np.einsum("qi,tid->tqd", _DEG5_BARY,
                    mesh.vertices[mesh.triangles])
    vals = func(pts[..., 0], pts[..., 1])               # (nt, nq)
    areas = mesh.signed_areas()
    contrib = np.einsum("q,tq,qi->ti", _DEG5_W, vals, _DEG5_BARY)
    contrib *= areas[:, None]
    rhs = np.zeros(mesh.n_vertices)
    np.add.at(rhs, mesh.triangles, contrib)
    return rhs


def galerkin_projection_gap(mesh, sys, modes):
    """dist_a^2 between an analytic eigenspace and the FE space.

    modes: list of (m, n, lam) with a common eigenvalue lam. Computes the
    a-orthogonal (Galerkin) projection P u of each b-normalized analytic
    eigenfunction via one sparse solve, then the worst-direction value
    max eig( I - G/lam ) with G[i][j] = a(P u_i, P u_j); for the
    Laplacian a(u, phi) = lam (u, phi), so the load vector only needs
    the degree-5 mass quadrature.
    """
    lu = spla.splu(sys.K.tocsc())
    lam = modes[0][2]
    proj = []
    for m, n, lam_i in modes:
        if abs(lam_i - lam) > 1e-9 * lam:
            raise VerifyError("modes must share one eigenvalue")
        rhs_full = lam * load_vector(mesh, square_eigenfunction(m, n))
        p = lu.solve(rhs_full[sys.free_dofs])
        proj.append(p)
    proj = np.vstack(proj)
    g = gram(proj, sys.K)
    resid = np.eye(len(modes)) - g / lam
    return float(max(np.linalg.eigvalsh(resid).max(), 0.0))
