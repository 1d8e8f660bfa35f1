"""Sparse symmetric storage and the solvers behind the orbital iteration.

A SparseSymMatrix is built from its lower triangle and stores the full
symmetric matrix once, as a single CSR, so every product is one sparse
matvec. The shifted operator K - sigma*M is assembled into its own CSR
once per shift for the same reason: it is applied once per MINRES
iteration, the hot path of the solver.

MINRES is implemented directly (Paige-Saunders recurrences) because the
shifted operator K - sigma*M is indefinite whenever the shift sits inside
the spectrum, and because near-singular solves are the normal operating
regime here: the solver caps iterations, keeps the monotone residual
estimate as an internal invariant, and hands possibly huge iterates back
to the caller, whose Rayleigh-Ritz step absorbs the amplification.

The dense generalized eigensolver reduces the pencil by Cholesky and
diagonalizes with cyclic Jacobi rotations; the subspace dimensions in
play are tiny (N <= ~50), where Jacobi is robust and accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular


class LinAlgError(RuntimeError):
    """Numerical failure in a linear-algebra kernel."""


class SparseSymMatrix:
    """Symmetric sparse operator stored as one full CSR matrix.

    The constructor takes the lower triangle L and stores
    L + strict_lower(L).T, so S == S.T holds exactly by construction and
    matvec/matmat are single sparse products.
    """

    def __init__(self, lower):
        lower = sp.csr_matrix(lower)
        if lower.shape[0] != lower.shape[1]:
            raise LinAlgError("matrix must be square")
        if sp.triu(lower, k=1).nnz != 0:
            raise LinAlgError("input must contain only the lower triangle")
        lower.sum_duplicates()
        lower.eliminate_zeros()
        self._nnz_lower = lower.nnz
        full = (lower + sp.tril(lower, k=-1).T).tocsr()
        full.sort_indices()
        self._full = full

    @classmethod
    def from_triplets(cls, n, rows, cols, values):
        """Build from symmetric COO triplets; upper entries are dropped
        (their mirror images must also be present)."""
        full = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
        return cls(sp.tril(full, format="csr"))

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        return cls(sp.csr_matrix(np.tril(a)))

    @property
    def n(self):
        return self._full.shape[0]

    @property
    def nnz_lower(self):
        return self._nnz_lower

    def matvec(self, x):
        return self._full @ x

    def matmat(self, x):
        """Apply to the columns of an (n, k) array."""
        return self._full @ x

    def quad_form(self, x):
        return float(x @ self.matvec(x))

    def diagonal(self):
        return self._full.diagonal()

    def to_csr(self):
        """A copy of the stored full matrix."""
        return self._full.copy()

    def to_dense(self):
        return self._full.toarray()


@dataclass(frozen=True)
class ShiftedOperator:
    """The pencil operator v -> (K - sigma*M) v.

    K - sigma*M is assembled into one CSR matrix at construction, so each
    application is a single sparse matvec. Build one operator per shift
    and share it between the solves that use that shift.
    """
    K: SparseSymMatrix
    M: SparseSymMatrix
    sigma: float
    matrix: sp.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           self.K._full - self.sigma * self.M._full)

    def __call__(self, v):
        return self.matrix @ v

    @property
    def n(self):
        return self.K.n


def _as_apply(op):
    if callable(op):
        return op
    if isinstance(op, SparseSymMatrix):
        return op.matvec
    a = np.asarray(op, dtype=np.float64)
    return lambda v: a @ v


@dataclass
class MinresResult:
    solution: np.ndarray
    iterations: int
    achieved_residual: float
    flag: str                    # "converged" | "max_iter" | "breakdown"
    residual_history: np.ndarray


def minres_solve(S, rhs, tol=1e-10, max_iter=None, precond_diag=None):
    """Minimum-residual iteration for a symmetric (indefinite) operator.

    Args:
        S: the operator, as a callable v -> S v (e.g. ShiftedOperator) or a
            SparseSymMatrix / dense array.
        rhs: right-hand side.
        tol: relative residual target.
        max_iter: iteration cap, default 4 * len(rhs).
        precond_diag: optional positive diagonal of a Jacobi preconditioner;
            convergence is then tracked in the preconditioned norm.

    Returns:
        MinresResult. Hitting max_iter is reported via flag, not raised:
        near-singular systems that stall at large iterate norms are an
        expected regime for shifted-inverse orbital updates.

    Raises:
        LinAlgError: the right-hand side or the residual estimate is not
            finite, or the residual estimate increases.
    """
    apply_s = _as_apply(S)
    b = np.asarray(rhs, dtype=np.float64)
    if not np.isfinite(b).all():
        raise LinAlgError("MINRES right-hand side is not finite")
    n = b.size
    if max_iter is None:
        max_iter = 4 * n
    x = np.zeros(n)
    if n == 0:
        return MinresResult(x, 0, 0.0, "converged", np.zeros(0))
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return MinresResult(x, 0, 0.0, "converged", np.zeros(0))
    use_pre = precond_diag is not None
    if use_pre:
        d = np.asarray(precond_diag, dtype=np.float64)
        if (d <= 0.0).any():
            raise LinAlgError("Jacobi preconditioner must be positive")

    r1 = b.copy()
    y = r1 / d if use_pre else r1.copy()
    beta1 = float(r1 @ y)
    if beta1 < 0.0:
        raise LinAlgError("preconditioner is not positive definite")
    beta1 = np.sqrt(beta1)

    oldb, beta = 0.0, beta1
    dbar, epsln, phibar = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    history = [phibar]
    flag = "max_iter"
    itn = 0
    eps = np.finfo(float).eps

    while itn < max_iter:
        itn += 1
        v = y / beta
        y = apply_s(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = r2 / d if use_pre else r2
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            raise LinAlgError("preconditioner is not positive definite")
        beta = np.sqrt(beta)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        if not math.isfinite(phibar):
            raise LinAlgError(f"MINRES residual estimate is not finite "
                              f"at iteration {itn}")
        # |sn| <= 1 makes this nonincreasing by construction
        if phibar > history[-1]:
            raise LinAlgError(f"MINRES residual estimate increased at "
                              f"iteration {itn}")
        history.append(phibar)

        if phibar <= tol * beta1:
            flag = "converged"
            break
        if beta <= n * eps * max(1.0, oldb):
            # Krylov space exhausted; exact for consistent systems
            flag = "converged" if phibar <= tol * beta1 * 10 else "breakdown"
            break

    achieved = float(np.linalg.norm(b - apply_s(x)) / bnorm)
    return MinresResult(x, itn, achieved, flag, np.asarray(history))


# -- dense generalized eigensolver ----------------------------------------


def _cyclic_jacobi(c, tol=1e-14, max_sweeps=60):
    """Diagonalize a dense symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(c, dtype=np.float64)
    n = a.shape[0]
    q = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), q
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), q
    skip = tol * scale / (4.0 * n)
    for _ in range(max_sweeps):
        strict = a.copy()
        np.fill_diagonal(strict, 0.0)
        if np.linalg.norm(strict) <= tol * scale:
            return a.diagonal().copy(), q
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = a[p, r]
                if abs(apr) <= skip:
                    continue
                theta = (a[r, r] - a[p, p]) / (2.0 * apr)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) \
                    if theta != 0.0 else 1.0
                cth = 1.0 / np.hypot(1.0, t)
                sth = t * cth
                ap = cth * a[:, p] - sth * a[:, r]
                ar = sth * a[:, p] + cth * a[:, r]
                a[:, p], a[:, r] = ap, ar
                ap = cth * a[p, :] - sth * a[r, :]
                ar = sth * a[p, :] + cth * a[r, :]
                a[p, :], a[r, :] = ap, ar
                a[p, r] = a[r, p] = 0.0
                qp = cth * q[:, p] - sth * q[:, r]
                qr = sth * q[:, p] + cth * q[:, r]
                q[:, p], q[:, r] = qp, qr
    raise LinAlgError("Jacobi iteration did not reach tolerance")


def dense_sym_gen_eig(a_bar, m_bar):
    """Solve the small dense pencil A V = M V diag(w), w ascending.

    Reduction: Cholesky M = L L^T, then cyclic Jacobi on L^-1 A L^-T.
    Returned eigenvector columns are M-orthonormal; each column's sign is
    fixed so its largest-magnitude entry is positive (reproducibility).
    """
    a = np.asarray(a_bar, dtype=np.float64)
    m = np.asarray(m_bar, dtype=np.float64)
    if a.shape != m.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinAlgError("pencil matrices must be square and congruent")
    scale = max(np.abs(a).max(initial=0.0), np.abs(m).max(initial=0.0), 1.0)
    if (np.abs(a - a.T).max(initial=0.0) > 1e-8 * scale
            or np.abs(m - m.T).max(initial=0.0) > 1e-8 * scale):
        raise LinAlgError("pencil matrices must be symmetric")
    a = 0.5 * (a + a.T)
    m = 0.5 * (m + m.T)
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise LinAlgError("projected mass matrix is not positive definite "
                          "(degenerate subspace)") from exc
    # C = L^-1 A L^-T
    tmp = solve_triangular(ell, a, lower=True)
    c = solve_triangular(ell, tmp.T, lower=True).T
    c = 0.5 * (c + c.T)
    w, q = _cyclic_jacobi(c)
    vecs = solve_triangular(ell, q, lower=True, trans="T")
    order = np.argsort(w, kind="stable")
    w = w[order]
    vecs = vecs[:, order]
    flips = vecs[np.abs(vecs).argmax(axis=0), np.arange(len(w))] < 0.0
    vecs[:, flips] *= -1.0
    return w, vecs


# -- block utilities -------------------------------------------------------


def gram(vectors, S):
    """Gram matrix G[i][j] = v_i . S v_j, symmetrized as (G + G^T) / 2.

    vectors: (k, n) array (rows are coefficient vectors) or list of 1-D
    arrays; S: SparseSymMatrix (or anything with matmat/dense semantics).
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if isinstance(S, SparseSymMatrix):
        sv = S.matmat(v.T)
    else:
        sv = np.asarray(S) @ v.T
    g = v @ sv
    return 0.5 * (g + g.T)


def b_orthonormalize(vectors, M):
    """Modified Gram-Schmidt in the M inner product, one extra pass.

    Returns a new (k, n) array spanning the same space with V M V^T = I.
    Raises LinAlgError naming the first vector whose pivot falls below
    1e-12 times the leading pivot (numerical rank deficiency).
    """
    v = np.array(vectors, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    k = v.shape[0]
    mv = np.empty_like(v)          # M-applied orthonormal basis rows
    lead = None
    for i in range(k):
        x = v[i]
        for _ in range(2):
            for j in range(i):
                x = x - (mv[j] @ x) * v[j]
        mx = M.matvec(x)
        pivot = float(x @ mx)
        pivot = np.sqrt(pivot) if pivot > 0.0 else 0.0
        if lead is None:
            lead = pivot
        if pivot <= 1e-12 * lead or pivot == 0.0:
            raise LinAlgError(f"vector {i} is numerically dependent in the "
                              f"b inner product (pivot {pivot:.3e})")
        v[i] = x / pivot
        mv[i] = mx / pivot
    return v
