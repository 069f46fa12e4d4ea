"""Sparse linear solvers: preconditioned CG for the condensed SPD system and
a pivoted direct factorization for the nonsymmetric projection systems.

Matrix storage is scipy CSR/CSC; desk-scale problem sizes make a sparse LU
the right tool for everything that is not symmetric positive definite.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_PIVOT_TOL = 1e-14


class SolverError(RuntimeError):
    """A linear solve failed in a way that must be surfaced, never masked."""


def cg_solve(S, rhs, rel_tol: float = 1e-12, max_iter: int | None = None, diag=None,
             x0=None):
    """Jacobi-preconditioned conjugate gradients started from x0 (zero if None).

    Returns (x, iterations) with ||S x - rhs|| <= rel_tol * ||rhs||.  The test
    is relative to ||rhs||, not to the initial residual, so a good x0 saves
    iterations without loosening the result; an x0 that already passes returns
    with 0 iterations.  Raises SolverError on non-finite rhs or x0, on
    nonpositive or NaN curvature (S not positive definite) or when max_iter is
    exhausted.  `diag` may pass a precomputed S.diagonal().
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if S.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {S.shape}, rhs {rhs.shape}")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"shape mismatch: rhs {rhs.shape}, initial guess {x.shape}")
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(x))):
        raise SolverError("right-hand side or initial guess has non-finite entries")
    if max_iter is None:
        max_iter = 10 * n

    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return np.zeros(n), 0
    if diag is None:
        diag = S.diagonal()
    if np.any(diag <= 0.0):
        raise SolverError("matrix has a nonpositive diagonal entry; not positive definite")
    inv_diag = 1.0 / diag

    r = rhs - S @ x
    if np.linalg.norm(r) <= rel_tol * b_norm:
        return x, 0
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for iteration in range(1, max_iter + 1):
        Sp = S @ p
        curvature = p @ Sp
        if not curvature > 0.0:
            raise SolverError(
                f"nonpositive or NaN curvature {curvature:.3e} at CG iteration {iteration}; "
                "matrix is not positive definite"
            )
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * Sp
        if np.linalg.norm(r) <= rel_tol * b_norm:
            # guard against recurrence drift before declaring victory
            r = rhs - S @ x
            if np.linalg.norm(r) <= rel_tol * b_norm:
                return x, iteration
            z = inv_diag * r
            p = z.copy()
            rz = r @ z
            continue
        z = inv_diag * r
        rz_next = r @ z
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    raise SolverError(f"CG did not converge within {max_iter} iterations "
                      f"(residual {np.linalg.norm(rhs - S @ x) / b_norm:.3e} relative)")


def lu_solve(M, rhs):
    """Direct solve with partial pivoting; raises SolverError when the matrix
    is singular to working precision (pivot below 1e-14 * max|M|)."""
    rhs = np.asarray(rhs, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.shape[0] != rhs.shape[0]:
        raise ValueError(f"shape mismatch: matrix {M.shape}, rhs {rhs.shape}")

    if sp.issparse(M):
        scale = abs(M).max() if M.nnz else 0.0
        try:
            factor = spla.splu(M.tocsc())
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}") from exc
        pivots = np.abs(factor.U.diagonal())
        if pivots.size == 0 or pivots.min() <= _PIVOT_TOL * scale:
            raise SolverError("matrix is singular to working precision")
        x = factor.solve(rhs)
    else:
        M = np.asarray(M, dtype=float)
        scale = np.abs(M).max()
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
        pivots = np.abs(np.diag(lu))
        if pivots.size == 0 or pivots.min() <= _PIVOT_TOL * scale:
            raise SolverError("matrix is singular to working precision")
        x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    return x
