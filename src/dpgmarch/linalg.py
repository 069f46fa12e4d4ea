"""Sparse linear solvers: CG for the condensed SPD system, preconditioned by a
float64 sparse factor of it, and a pivoted sparse LU for the nonsymmetric
projection system.

Matrix storage is scipy CSR/CSC.  `factor_spd` factors S in its own numbering,
which the march assembles in the midpoint (Morton) order of
`nested_dissection`, and solves through SuperLU's transposed path (S^T x = r,
the same system for a symmetric S), which is faster than the plain one on S's
small supernodes; `lu_solve` keeps the plain path, since a nonsymmetric N^T is
another matrix.  `cg_solve` first takes x = precond(rhs): one product S x gives
both the curvature check and the true residual, and x is accepted when that
residual is at most 1e-12 times the right-hand side, as it is with the float64
factor; otherwise CG continues from x, and raises after 50 iterations.
`lu_solve` factors every matrix, the condensed projection matrix N (the
pattern of S, a strong diagonal) among them, in one regime, SuperLU's
symmetric mode: minimum degree ordering on M + M^T with threshold pivoting
that keeps a diagonal pivot within a factor 10 of its column's largest entry
and otherwise, a zero diagonal entry included, takes an off-diagonal one
(X. S. Li, "An overview of SuperLU", ACM TOMS 31, 2005).  A matrix is
singular to working precision when its 1-norm condition estimate is 1e14 or
more; the estimate of ||M^{-1}||_1 is `scipy.sparse.linalg.onenormest`
(Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21, 2000) on the factor's
solves with M and M^T, as in LAPACK's dgecon, so no copy of the factor's L or
U is ever made.  Every direct solve is checked afterwards for a small
backward error.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_CG_REL_TOL = 1e-12
_CG_MAX_ITER = 50  # a step preconditioned by the float64 factor takes 1
_COND_TOL = 1e14  # ||M||_1 ||M^{-1}||_1 at which M is singular to working precision
_BACKWARD_TOL = 1e-10


class SolverError(RuntimeError):
    """A linear solve failed in a way that must be surfaced, never masked."""


def nested_dissection(points, cols, n):
    """Nested-dissection order of the n unknowns of a finite element system
    whose elements have centroids points (ne, 2) and hold the unknowns
    cols (ne, nc), -1 at an eliminated slot.

    Returns order, order[i] the unknown numbered i.  Each part of the elements
    is halved at its midpoint, across the longer side of their bounding box
    first (x on a tie), then alternating, down to parts of two on a dyadic
    mesh: a leaf is the bit-interleaved (Morton) code of a grid cell, and may
    hold more or fewer elsewhere.  Each unknown is numbered after both halves
    of the smallest part holding all of its elements.  Two unknowns couple in
    S = sum_K E_K^T E_K only through an element they share: a nested
    dissection on any conforming mesh (A. George, "Nested dissection of a
    regular finite element mesh", SIAM J. Numer. Anal. 10, 1973).
    """
    # rows of x and y: numpy is slow along an axis of length two
    xy = np.ascontiguousarray(np.transpose(points), dtype=float)
    cols = np.asarray(cols)
    depth = max((len(cols) - 1).bit_length() - 1, 0)  # the fewest levels to parts of two
    lo = xy.min(axis=1, keepdims=True)
    extent = np.maximum(xy.max(axis=1, keepdims=True) - lo, np.finfo(float).tiny)
    first_axis = int(extent[1, 0] > extent[0, 0])  # split first across the longer side
    # bits per axis: ceil(depth/2) for the first split's axis, floor(depth/2) for the other
    bits = np.array([[depth + 1 - first_axis], [depth + first_axis]]) // 2
    cell = np.minimum(((xy - lo) / extent * 2**bits).astype(np.int64), 2**bits - 1)
    leaf = np.zeros(len(cols), dtype=np.int64)
    for level in range(depth):  # one bit of the leaf per level, from the root down
        axis = (first_axis + level) % 2
        leaf = (leaf << 1) | ((cell[axis] >> (bits[axis, 0] - 1 - level // 2)) & 1)

    # the smallest part holding an unknown's elements is the common ancestor
    # of its first and last leaf; an unknown in no element goes to the root
    free = cols >= 0
    unknowns = cols[free]
    leaves = np.broadcast_to(leaf[:, None], cols.shape)[free]
    first = np.full(n, 2**depth - 1, dtype=np.int64)
    last = np.zeros(n, dtype=np.int64)
    np.minimum.at(first, unknowns, leaves)
    np.maximum.at(last, unknowns, leaves)
    height = np.frexp(first ^ last)[1]  # levels from the leaves up to that part
    # postorder: parts by the last leaf they hold, a part after its descendants
    end = first | ((1 << height) - 1)
    return np.argsort(end * (depth + 1) + height, kind="stable")


def factor_spd(S):
    """Sparse float64 factor of a symmetric positive definite S, as the
    preconditioner r -> S^{-1} r of `cg_solve`.

    SuperLU factors S's own arrays in symmetric mode with its NATURAL column
    order and diagonal pivots, so the fill is the one S's numbering gives
    (see `nested_dissection`), and the preconditioner solves S^T x = r.
    Raises ValueError unless S is canonical CSR, and SolverError when S has
    entries that are not finite or SuperLU fails.
    """
    if not (sp.isspmatrix_csr(S) and S.has_canonical_format):
        raise ValueError("S must be a CSR matrix in canonical format")
    if not np.all(np.isfinite(S.data)):
        raise SolverError("matrix has entries that are not finite")
    try:
        # S is symmetric, so its CSR arrays are its CSC arrays
        factor = spla.splu(sp.csc_matrix((S.data, S.indices, S.indptr), shape=S.shape),
                           permc_spec="NATURAL", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    # SuperLU's transposed solve is faster on S's many small supernodes, and it
    # solves the same system: `assemble_condensed` has checked S for symmetry to
    # 2e-12 max|S|, and `cg_solve` checks every result against S itself.
    return lambda r: factor.solve(r, trans="T")


def cg_solve(S, rhs, precond):
    """Conjugate gradients on S x = rhs, preconditioned by precond:
    r -> M^{-1} r (see `factor_spd`), from the first iterate precond(rhs).

    Returns (x, iterations) with ||S x - rhs|| <= 1e-12 ||rhs||, the residual
    recomputed before it is accepted; (precond(rhs), 1) when that first
    iterate already passes.  Raises SolverError, before any product with S,
    when ||rhs|| is not finite (an entry is NaN or Inf, or the norm
    overflows), on nonpositive or NaN curvature (S not positive definite)
    and when 50 iterations do not reach the tolerance.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if S.shape != (n, n):
        raise ValueError(f"shape mismatch: matrix {S.shape}, rhs {rhs.shape}")
    b_norm = np.linalg.norm(rhs)
    if not np.isfinite(b_norm):  # NaN or Inf whenever an entry is, or when it overflows
        raise SolverError("right-hand side has non-finite entries or norm")
    if b_norm == 0.0:
        return np.zeros(n), 0
    tolerance = _CG_REL_TOL * b_norm

    p = precond(rhs)
    restart = True  # p is the preconditioned residual, with no earlier direction
    for iteration in range(1, _CG_MAX_ITER + 1):
        Sp = S @ p
        curvature = p @ Sp
        if not curvature > 0.0:
            raise SolverError(
                f"nonpositive or NaN curvature {curvature:.3e} at CG iteration {iteration}; "
                "matrix is not positive definite"
            )
        if iteration == 1:
            # a first step of length one: x = precond(rhs), its residual exact
            x, r = p, rhs - Sp
        else:
            alpha = rz / curvature
            x, r = x + alpha * p, r - alpha * Sp
            restart = np.linalg.norm(r) <= tolerance
            if restart:  # guard against recurrence drift before declaring victory
                r = rhs - S @ x
        if restart and np.linalg.norm(r) <= tolerance:
            return x, iteration
        z = precond(r)
        rz_next = r @ z
        p = z if restart else z + (rz_next / rz) * p
        rz = rz_next
    raise SolverError(f"CG did not converge within {_CG_MAX_ITER} iterations "
                      f"(residual {np.linalg.norm(rhs - S @ x) / b_norm:.3e} relative)")


def lu_solve(M, rhs):
    """Direct solve of M x = rhs by SuperLU's pivoted sparse LU; M may be any
    matrix that `scipy.sparse.csc_matrix` accepts.

    Every M is factored in SuperLU's symmetric mode: minimum degree ordering
    on M + M^T, a diagonal pivot kept unless it is below 0.1 times its
    column's largest entry, so that a zero diagonal entry is pivoted away.
    Only the factor's own solves are used: no copy of its L or U is made.  M
    is singular to working precision, and SolverError is raised, when its
    condition number estimate ||M||_1 est(||M^{-1}||_1) is 1e14 or more, est
    the t = 1 estimate of `scipy.sparse.linalg.onenormest` on the factor's
    solves, usually four after the one of rhs.  SolverError is also raised
    when M or rhs has entries that are not finite, and when the result fails
    the backward-error check
    ||M x - rhs||_inf <= 1e-10 (||M||_inf ||x||_inf + ||rhs||_inf),
    so that relaxed pivoting can never quietly return a wrong solution.
    """
    rhs = np.asarray(rhs, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    n = M.shape[0]
    if n != rhs.shape[0]:
        raise ValueError(f"shape mismatch: matrix {M.shape}, rhs {rhs.shape}")
    M = sp.csc_matrix(M, dtype=float)
    if not (np.all(np.isfinite(M.data)) and np.all(np.isfinite(rhs))):
        raise SolverError("matrix or right-hand side has entries that are not finite")
    if n == 0:
        raise SolverError("matrix is singular to working precision")

    try:
        factor = spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                           options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc
    x = factor.solve(rhs)
    inverse = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float,
                                  rmatvec=lambda r: factor.solve(r, trans="T"))
    abs_data = np.abs(M.data)
    # SuperLU rejects an empty column as exactly singular, so none is empty here
    norm1 = np.add.reduceat(abs_data, M.indptr[:-1]).max()
    if not norm1 * spla.onenormest(inverse, t=1) < _COND_TOL:
        raise SolverError("matrix is singular to working precision")
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    residual = np.abs(M @ x - rhs).max()
    row_sums = np.bincount(M.indices, abs_data, minlength=n)
    bound = _BACKWARD_TOL * (row_sums.max() * np.abs(x).max() + np.abs(rhs).max())
    if not residual <= bound:
        raise SolverError(f"direct solve failed the backward-error check: residual "
                          f"{residual:.3e} exceeds {bound:.3e}")
    return x
