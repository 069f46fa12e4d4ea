"""Sparse linear solvers: a checked direct solve of the condensed SPD system
with a float64 sparse factor of it, and a pivoted sparse LU for the
nonsymmetric projection system.

Matrix storage is scipy CSR/CSC.  Both factor in SuperLU's symmetric mode
(X. S. Li, "An overview of SuperLU", ACM TOMS 31, 2005) in the numbering
they are given: the march assembles S, and the elliptic projection orders N,
which has the pattern of S, in the midpoint (Morton) order of
`nested_dissection`.

Both accept a solution x of M x = b by one rule, its normwise backward error
eta = ||M x - b||_inf / (||M||_inf ||x||_inf + ||b||_inf), the least relative
change of M and b that makes x exact (Rigal & Gaches; Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed., 2002, Thm. 7.1).  A
backward-stable solve leaves eta near the unit roundoff however
ill-conditioned M is, where its residual relative to ||b|| alone grows with
||M|| ||x|| / ||b||.  `cg_solve` refines once on a miss (ibid., ch. 12),
which recovers a factor slightly off, such as one of (1 + 1e-9) S; `lu_solve`
has no refinement.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_COND_TOL = 1e14  # ||M||_1 ||M^{-1}||_1 at which M is singular to working precision
# Backward errors at which a solve is accepted.  The march's exact float64
# factor of S leaves at most 4.3e-16 (p = 0 and 1, n up to 160).  The step
# solve refines on a miss, so its tolerance is tight enough that an inexact
# factor is refined rather than accepted.  The LU solve pivots with a relaxed
# threshold and has no refinement to fall back on, so it accepts what that
# pivoting allows.
_STEP_TOL = 1e-14
_LU_TOL = 1e-10


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
    # postorder: parts by the last leaf they hold, a part after its descendants,
    # and the unknowns of a part by number: a unique key, so any sort is stable
    end = first | ((1 << height) - 1)
    return np.argsort((end * (depth + 1) + height) * n + np.arange(n))


def factor_spd(S):
    """Sparse float64 factor of a symmetric positive definite S, as the
    solve r -> S^{-1} r whose results `cg_solve` accepts by their backward
    error against S.

    SuperLU factors S's own arrays in symmetric mode with its NATURAL column
    order and diagonal pivots, so the fill is the one S's numbering gives
    (see `nested_dissection`), and the solve it returns solves S^T x = r.
    Raises ValueError unless S is canonical CSR, and SolverError when S has
    entries that are not finite or SuperLU fails.

    Build and drop the factor on one thread.  `splu` releases the GIL, but
    eight factors of a 90 000-unknown 2-D Laplacian, each built on a worker
    thread and dropped on the main one, left a peak RSS of 874 MB, against
    195 MB on one thread (glibc malloc, 2 CPUs).
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


def _backward_error(r, M_norm, x, b):
    """The backward error eta of x for M x = b (see above), from its residual
    r and M_norm = ||M||_inf: 0 when r = 0, NaN when r has a NaN."""
    residual = np.abs(r).max(initial=0.0)
    return residual / (M_norm * np.abs(x).max() + np.abs(b).max()) if residual else 0.0


def cg_solve(S, rhs, precond, S_norm):
    """Direct solve of the SPD system S x = rhs by precond: r -> S^{-1} r (see
    `factor_spd`), checked against S itself and S_norm = ||S||_inf.

    x = precond(rhs) is accepted when one product S x gives a positive
    curvature x.(S x) and a backward error of at most 1e-14; on a miss, such
    as a slightly inexact factor leaves, one step of iterative refinement,
    x + precond(rhs - S x), is checked the same way.  Returns (x, solves),
    solves 0 for rhs = 0, otherwise 1, or 2 after a refinement.  Raises SolverError, before any product with S, when
    ||rhs||_2 is not finite (an entry is NaN or Inf, or the norm overflows),
    on nonpositive or NaN curvature, and when the refined x still misses.  It
    keeps the name of the conjugate gradient solver it replaced, which the
    benchmark hooks.
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

    x = precond(rhs)
    for solves in (1, 2):
        Sx = S @ x
        curvature = x @ Sx
        if not curvature > 0.0:
            raise SolverError(f"nonpositive or NaN curvature {curvature:.3e} after solve "
                              f"{solves}; matrix is not positive definite")
        r = rhs - Sx
        eta = _backward_error(r, S_norm, x, rhs)
        if eta <= _STEP_TOL:
            return x, solves
        if solves == 1:
            x = x + precond(r)
    raise SolverError(f"solve failed the backward-error check after one refinement "
                      f"(residual at backward error {eta:.3e}, tolerance {_STEP_TOL:.0e})")


def lu_solve(M, rhs):
    """Direct solve of M x = rhs by SuperLU's pivoted sparse LU; M may be any
    matrix that `scipy.sparse.csc_matrix` accepts.

    Every M is factored in SuperLU's symmetric mode, in its natural order:
    the caller orders M for a small fill (see `nested_dissection`), and a
    diagonal pivot is kept unless it is below 0.1 times its column's largest
    entry, so that a zero diagonal entry is pivoted away.
    Only the factor's own solves are used: no copy of its L or U is made.  M
    is singular to working precision, and SolverError is raised, when its
    condition number estimate ||M||_1 est(||M^{-1}||_1) is 1e14 or more, est
    the t = 1 estimate of `scipy.sparse.linalg.onenormest` on the factor's
    solves, usually four after the one of rhs.  SolverError is also raised
    when M or rhs has entries that are not finite, and when x has a backward
    error eta above 1e-10 (see the module docstring), so that relaxed
    pivoting can never quietly return a wrong solution.
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
        factor = spla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                           options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"sparse LU factorization failed: {exc}") from exc
    x = factor.solve(rhs)  # the plain path: unlike S, a nonsymmetric M^T is another matrix
    # ||M^{-1}||_1 by onenormest (Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21,
    # 2000) on the factor's solves with M and M^T, as LAPACK's dgecon does
    inverse = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float,
                                  rmatvec=lambda r: factor.solve(r, trans="T"))
    abs_data = np.abs(M.data)
    # SuperLU rejects an empty column as exactly singular, so none is empty here
    norm1 = np.add.reduceat(abs_data, M.indptr[:-1]).max()
    if not norm1 * spla.onenormest(inverse, t=1) < _COND_TOL:
        raise SolverError("matrix is singular to working precision")
    if not np.all(np.isfinite(x)):
        raise SolverError("direct solve produced non-finite values")
    eta = _backward_error(rhs - M @ x, np.bincount(M.indices, abs_data).max(), x, rhs)
    if not eta <= _LU_TOL:
        raise SolverError(f"direct solve failed the backward-error check (backward error "
                          f"{eta:.3e}, tolerance {_LU_TOL:.0e})")
    return x
