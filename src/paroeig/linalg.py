"""The solvers behind the orbital iteration.

Operators are plain scipy.sparse CSR matrices (the assembled K and M,
and the shifted K - sigma*M built once per cluster) or dense arrays;
every kernel here applies them with @.

MINRES is implemented directly (Paige-Saunders recurrences) because the
shifted operator K - sigma*M is indefinite whenever the shift sits inside
the spectrum, and because near-singular solves are the normal operating
regime here: the solver caps iterations, stops on its monotone residual
estimate (kept as an internal invariant; the true residual b - S x is
never formed), and hands possibly huge iterates back to the caller,
whose Rayleigh-Ritz step absorbs the amplification.
Every call is a block call: a sweep's independent solves go in as the
rows of one (k, n) right-hand side, each row on its own operator. Each
row keeps its own scalar recurrence, and only the preconditioner, the
costly part of a step, is applied to all running rows at once.

The N x N Rayleigh-Ritz pencil goes to LAPACK (scipy.linalg.eigh); this
module adds the input checks, the package's error type and a sign rule
that makes its eigenvectors reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._checks import count, real, real_array


class LinAlgError(RuntimeError):
    """Numerical failure in a linear-algebra kernel."""


# exit flags, worst last
_FLAGS = ("converged", "max_iter", "breakdown")


@dataclass(eq=False)
class MinresResult:
    """What minres_solve returns for a (k, n) right-hand side.

    solution is (k, n); residual_history holds one array per row, the
    residual estimates the stop test read; row_iterations and row_flags
    give each row's own count and flag (one of _FLAGS). iterations, the
    lockstep steps, is the most any row took; flag is the worst row's.
    """
    solution: np.ndarray
    residual_history: tuple
    row_iterations: tuple
    row_flags: tuple

    @property
    def iterations(self):
        return max(self.row_iterations, default=0)

    @property
    def flag(self):
        return max(self.row_flags, key=_FLAGS.index, default=_FLAGS[0])


def minres_solve(S, rhs, tol=1e-10, max_iter=None, precond=None):
    """Minimum-residual iteration for symmetric (indefinite) operators.

    The k rows of the (k, n) right-hand side run k independent MINRES
    recurrences in lockstep, row j on the operator S[j]. Each step
    applies the preconditioner once, to the block of the rows still
    running; a row stops on its own test and keeps its own iteration
    count and flag. One solve is the one-row call minres_solve([S],
    b[None]).

    Args:
        S: a list or tuple of k symmetric operators, anything that
            applies itself with @ (a sparse matrix such as K - sigma*M,
            or a dense array); rows may share one.
        rhs: the (k, n) right-hand sides, one per row.
        tol: relative residual target. With a preconditioner B it is
            measured in the B-norm: a row stops once
            sqrt(r.B r) <= tol * sqrt(b.B b).
        max_iter: iteration cap of every row, default 4 * n.
        precond: optional symmetric positive definite preconditioner, a
            callable (R, rows) -> B R, where R is the C-contiguous
            (n, a) block whose column i is the residual of row rows[i],
            and column i of the (n, a) result is B(rows[i]) R[:, i]: the
            rows may use different preconditioners, as
            MultilevelPreconditioner.shifted(shifts) does.

    Returns:
        MinresResult. Hitting max_iter is reported via flag, not raised:
        near-singular systems that stall at large iterate norms are an
        expected regime for shifted-inverse orbital updates.

    Raises:
        LinAlgError: tol is not a positive finite real, max_iter not an
            integer >= 1, rhs not a real (k, n) array or S not a list of
            k (n, n) operators; a right-hand side or a residual estimate is not
            finite, a residual estimate increases, or the preconditioner
            is not positive definite. These last errors name the row.
    """
    if not 0.0 < real(tol, "MINRES tol", LinAlgError) < math.inf:
        raise LinAlgError(f"MINRES tol must be positive and finite, "
                          f"got {tol!r}")
    b = np.ascontiguousarray(real_array(rhs, "rhs", LinAlgError))
    if b.ndim != 2:
        raise LinAlgError(f"MINRES right-hand side must be (k, n), got "
                          f"shape {b.shape}")
    if not isinstance(S, (list, tuple)) or len(S) != len(b):
        raise LinAlgError(f"a ({len(b)}, n) right-hand side needs a "
                          f"list of {len(b)} operators")
    k, n = b.shape
    if any(getattr(op, "shape", None) != (n, n) for op in S):
        raise LinAlgError(f"every operator must be ({n}, {n}), as the "
                          f"right-hand side is ({k}, {n})")
    max_iter = (4 * n if max_iter is None
                else count(max_iter, "MINRES max_iter", LinAlgError, 1))
    finite = np.isfinite(b).all(axis=1)
    if not finite.all():
        raise LinAlgError(f"MINRES right-hand side (row "
                          f"{int(np.argmin(finite))}) is not finite")

    rows = [_recurrence(op, bj, tol, max_iter, j)
            for j, (op, bj) in enumerate(zip(S, b))]
    done = [None] * k
    pending = {}                 # row -> residual waiting for B

    def advance(j, y):
        try:
            pending[j] = rows[j].send(y)
        except StopIteration as stop:
            done[j] = stop.value
            pending.pop(j, None)

    for j in range(k):
        advance(j, None)
    while pending:
        active = list(pending)
        ys = _precondition(precond, [pending[j] for j in active], active)
        for j, y in zip(active, ys):
            advance(j, y)

    x, itns, flags, history = zip(*done) if k else ((),) * 4
    return MinresResult(np.array(x).reshape(k, n), history, itns, flags)


def _precondition(precond, residuals, active):
    """B applied to the residuals of the active rows, one array each."""
    if precond is None:
        return residuals
    r = np.stack(residuals, axis=1)               # (n, a), C-contiguous
    y = np.asarray(precond(r, np.array(active)))
    if y.shape != r.shape:
        raise LinAlgError(f"block preconditioner returned shape {y.shape} "
                          f"for a block of shape {r.shape}")
    return np.ascontiguousarray(y.T)


def _recurrence(S, b, tol, max_iter, row):
    """Row row's Paige-Saunders recurrence as a generator: it yields each
    residual r, is sent B r back, and returns (x, iterations, flag,
    residual history)."""
    n = b.size
    x = np.zeros(n)
    if not b.any():
        return x, 0, "converged", np.zeros(0)
    r1 = b.copy()
    y = yield r1
    beta1 = float(r1 @ y)
    if beta1 <= 0.0:
        raise LinAlgError(f"preconditioner is not positive "
                          f"definite (row {row})")
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
        y = S @ v
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = float(v @ y)
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = yield r2
        oldb = beta
        beta = float(r2 @ y)
        if beta < 0.0:
            raise LinAlgError(f"preconditioner is not positive "
                              f"definite (row {row})")
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

        # w = (v - oldeps * w1 - delta * w2) / gamma, in the storage of
        # w1, which no one reads afterwards; same rounding
        w1, w2 = w2, w
        w = w1
        w *= -oldeps
        w += v
        w -= delta * w2
        w /= gamma
        x += phi * w

        if not math.isfinite(phibar):
            raise LinAlgError(f"MINRES residual estimate (row {row}) is "
                              f"not finite at iteration {itn}")
        # |sn| <= 1 makes this nonincreasing by construction
        if phibar > history[-1]:
            raise LinAlgError(f"MINRES residual estimate (row {row}) "
                              f"increased at iteration {itn}")
        history.append(phibar)

        if phibar <= tol * beta1:
            flag = "converged"
            break
        if beta <= n * eps * max(1.0, oldb):
            # Krylov space exhausted; exact for consistent systems
            flag = "converged" if phibar <= tol * beta1 * 10 else "breakdown"
            break

    return x, itn, flag, np.asarray(history)


# -- dense generalized eigensolver ----------------------------------------


def dense_sym_gen_eig(a_bar, m_bar):
    """Solve the small dense pencil A V = M V diag(w), w ascending.

    LAPACK's symmetric-definite solver (scipy.linalg.eigh) does the work.
    Returned eigenvector columns are M-orthonormal; each column's sign is
    fixed so its largest-magnitude entry is positive (reproducibility).
    """
    a, m = (real_array(x, "pencil matrices", LinAlgError, finite=True)
            for x in (a_bar, m_bar))
    if a.shape != m.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinAlgError("pencil matrices must be square and congruent")
    scale = max(np.abs(a).max(initial=0.0), np.abs(m).max(initial=0.0), 1.0)
    if (np.abs(a - a.T).max(initial=0.0) > 1e-8 * scale
            or np.abs(m - m.T).max(initial=0.0) > 1e-8 * scale):
        raise LinAlgError("pencil matrices must be symmetric")
    a = 0.5 * (a + a.T)
    m = 0.5 * (m + m.T)
    try:
        w, vecs = scipy.linalg.eigh(a, m)
    except np.linalg.LinAlgError as exc:
        raise LinAlgError("projected mass matrix is not positive definite "
                          "(degenerate subspace)") from exc
    flips = vecs[np.abs(vecs).argmax(axis=0), np.arange(len(w))] < 0.0
    vecs[:, flips] *= -1.0
    return w, vecs


# -- block utilities -------------------------------------------------------


def gram(vectors, S):
    """Gram matrix G[i][j] = v_i . S v_j, symmetrized as (G + G^T) / 2.

    vectors: (k, n) array (rows are coefficient vectors) or list of 1-D
    arrays; S: a sparse matrix or dense array, applied with @.
    """
    v = real_array(vectors, "vectors", LinAlgError)
    if v.ndim == 1:
        v = v[None, :]
    g = v @ (S @ v.T)
    return 0.5 * (g + g.T)


def b_orthonormalize(vectors, M):
    """Modified Gram-Schmidt in the M inner product, one extra pass.

    M: a sparse matrix or dense array, applied with @.

    Returns a new (k, n) array spanning the same space with V M V^T = I.
    Raises LinAlgError naming the first vector whose pivot falls below
    1e-12 times the leading pivot (numerical rank deficiency).
    """
    v = real_array(vectors, "vectors", LinAlgError, copy=True)
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
        mx = M @ x
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
