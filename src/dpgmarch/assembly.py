"""Element blocks and static condensation for the backward Euler primal DPG step.

Per element K the test space carries the inner product

    (v, dv)_{V,k} = (1/k)(v, dv)_K + (A grad v, grad dv)_K,

whose matrix G_K = L_K L_K^T is the Gram block.  The trial-to-test matrices
realize

    b(u, v) = (A grad u, grad v) + (beta . grad u, v) + (gamma u, v)
              - sum_{e in dK} sign_{K,e} int_e sigma_hat v ds,
    a(u, v) = (1/k)(u, v) + b(u, v),

with columns ordered field nodes first, then 3*(p+1) trace slots.  Dirichlet
field nodes are eliminated.  Every condensation is a product with block
rows: `block_rows` stacks element blocks over ne*nt test rows at their global
columns, and with R = block_rows(L_K^{-1} B_{a,K}) the condensed matrix is

    S = sum_K B_{a,K}^T G_K^{-1} B_{a,K} = R^T R,

symmetric positive definite on the free (field + trace) unknowns.  The
source of a march is separable, f(t, x) = sum_s a_s(t) g_s(x) (see `cases`),
so a step's load (f + w/k, psi)_K condenses to

    rhs = R^T (sources^T a(t) + W_w w) = F a(t) + C w,

where row s of sources stacks L_K^{-1} (g_s, psi)_K over the elements,
integrated once per march with the volume rule of degree 2(p+2), and W_w
is the block rows of L_K^{-1} mass_field / k over the field unknowns.  A
march keeps S, its factor, F = R^T sources^T and C = R^T W_w; R, W_w, the
source rows and the element blocks are freed before the factor, and a step
does no quadrature.

Elements are affine and A, beta, gamma constant, so each volume block is a
fixed combination of reference-triangle integrals (the tensor representation
of Kirby, Knepley, Logg & Scott, SIAM J. Sci. Comput. 27, 2005),
K^{ab} = int d_a psi d_b phi, M = int psi phi and C^a = int psi d_a phi,
weighted per element by W_K = det J J^{-1} A J^{-T}, b_K = det J J^{-1} beta
and det J:

    G_K = W_K : K_tt + (det J / k) M_tt,    mass_field = det J M_tf,
    B_field = W_K : K_tf + b_K . C_tf + gamma mass_field,

with t the test and f the field basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .basis import TRIANGLE_VERTICES, edge_rule, lagrange_edge, lagrange_triangle, triangle_rule
from .dofmap import DofMap
from .linalg import SolverError, factor_spd
from .mesh import Mesh

_SYM_TOL = 1e-12
_TRACE_EQUIV_WARN = 10.0  # h / sqrt(k) beyond which the trace-norm equivalence degrades


@dataclass(frozen=True)
class PdeCoefficients:
    """Constant PDE data: diffusion matrix A (SPD), advection beta, reaction
    gamma >= 0, time step k and end time T_end."""

    A: np.ndarray
    beta: np.ndarray
    gamma: float
    k: float
    T_end: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if A.shape != (2, 2):
            raise ValueError(f"A must be 2x2, got shape {A.shape}")
        if beta.shape != (2,):
            raise ValueError(f"beta must be a 2-vector, got shape {beta.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(beta))
                and np.isfinite(self.gamma)):
            raise ValueError("A, beta and gamma must be finite")
        if np.abs(A - A.T).max() > 1e-12 * max(np.abs(A).max(), 1.0):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0.0:
            raise ValueError("A must be positive definite")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.k > 0.0:
            raise ValueError(f"time step k must be positive, got {self.k}")
        if not self.T_end > 0.0:
            raise ValueError(f"T_end must be positive, got {self.T_end}")
        if self.k > self.T_end * (1.0 + 1e-12):
            raise ValueError(f"time step k={self.k} exceeds T_end={self.T_end}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "T_end", float(self.T_end))

    def is_heat(self) -> bool:
        return (np.abs(self.A - np.eye(2)).max() == 0.0
                and np.abs(self.beta).max() == 0.0 and self.gamma == 0.0)


@dataclass
class LocalBlocks:
    """Stacked per-element blocks, the set-up temporaries of a condensation.

    chol / chol_inv: Cholesky factor L_K of G_K and its inverse, (ne, nt, nt),
        the inverse by forward substitution.
    B_a, B_b: trial-to-test blocks, (ne, nt, nc).
    mass_field: test-against-field mass block, (ne, nt, nfl).
    cols: global column index per local trial slot, -1 where eliminated.
    """

    chol: np.ndarray
    chol_inv: np.ndarray
    B_a: np.ndarray
    B_b: np.ndarray
    mass_field: np.ndarray
    cols: np.ndarray


@dataclass
class StepOperators:
    """What a march keeps of the element blocks: the load of a step is
    rhs = F a + C w for the source time weights a and the previous field w,
    with F = R^T sources^T, (n_dof, m), and C = R^T W_w, (n_dof, n_field)."""

    F: np.ndarray
    C: sp.csr_matrix


@dataclass
class CondensedSystem:
    """Global condensed normal-equation system S = R^T R and the operators of
    the step load; precond applies the inverse of a single-precision factor
    of S."""

    S: sp.csr_matrix
    blocks: StepOperators
    dofmap: DofMap
    coeffs: PdeCoefficients
    precond: Callable[[np.ndarray], np.ndarray]


def _geometry(mesh: Mesh):
    v = mesh.vertices[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # columns of the affine map
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if not np.all(detJ > 0.0):  # also catches NaN
        raise SolverError("degenerate element: nonpositive or non-finite Jacobian determinant")
    invJ = np.empty_like(J)
    invJ[:, 0, 0] = J[:, 1, 1]
    invJ[:, 0, 1] = -J[:, 0, 1]
    invJ[:, 1, 0] = -J[:, 1, 0]
    invJ[:, 1, 1] = J[:, 0, 0]
    invJ /= detJ[:, None, None]
    return v, J, invJ, detJ


def volume_quadrature(mesh: Mesh, degree: int):
    """Triangle rule of the given degree mapped to every element.

    Returns (rule, physical points (ne, nq, 2), weights times det J (ne, nq),
    J^{-1} (ne, 2, 2)).  Computed once per mesh and degree and kept in
    `mesh.quadrature`; every later call returns the same read-only arrays.
    """
    if degree not in mesh.quadrature:
        rule = triangle_rule(degree)
        v, J, invJ, detJ = _geometry(mesh)
        points = v[:, 0, None, :] + rule.points @ J.transpose(0, 2, 1)
        wdet = rule.weights[None, :] * detJ[:, None]
        for array in (points, wdet, invJ):
            array.flags.writeable = False
        mesh.quadrature[degree] = (rule, points, wdet, invJ)
    return mesh.quadrature[degree]


def gather(vector: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of vector per element slot, 0.0 where the column is -1: a take
    from the vector padded with one zero, which slot -1 reads."""
    return np.append(vector, 0.0)[cols]


@lru_cache(maxsize=None)
def _reference_tensors(test_degree: int, trial_degree: int) -> np.ndarray:
    """Reference-triangle integrals of the test basis psi_m against the trial
    basis phi_j, stacked (7, nt, n) as K^{xx}, K^{xy}, K^{yx}, K^{yy}, M, C^x,
    C^y (see the module docstring).  Read-only and shared by every caller."""
    rule = triangle_rule(test_degree + trial_degree)
    test = lagrange_triangle(test_degree, rule.points)
    trial = lagrange_triangle(trial_degree, rule.points)
    w = rule.weights
    stiffness = np.einsum("mqa,jqb,q->abmj", test.gradients, trial.gradients, w)
    mass = np.einsum("mq,jq,q->mj", test.values, trial.values, w)
    advection = np.einsum("mq,jqa,q->amj", test.values, trial.gradients, w)
    tensors = np.concatenate([stiffness.reshape(4, *mass.shape), mass[None], advection])
    tensors.flags.writeable = False
    return tensors


def _element_weights(mesh: Mesh, coeffs: PdeCoefficients):
    """det J J^{-1} A J^{-T} flattened to (ne, 4), det J (ne,) and
    det J J^{-1} beta (ne, 2): the weights of the reference tensors."""
    _, _, invJ, detJ = _geometry(mesh)
    W = detJ[:, None, None] * (invJ @ coeffs.A @ invJ.transpose(0, 2, 1))
    b = detJ[:, None] * (invJ @ coeffs.beta)
    return W.reshape(-1, 4), detJ, b


def _combine(weights: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """sum_i weights[:, i] tensors[i], (ne, nt, n)."""
    return (weights @ tensors.reshape(len(tensors), -1)).reshape(-1, *tensors.shape[1:])


def _edge_test_tables(test_degree: int, rule):
    """Test-basis values along each local edge, keyed by (local_edge, sign).

    The trace unknown lives in the global edge parametrization t in [0,1]
    (lower vertex -> higher vertex); sign -1 means the element traverses the
    edge the other way round.
    """
    tables = {}
    for l in range(3):
        a = TRIANGLE_VERTICES[l]
        b = TRIANGLE_VERTICES[(l + 1) % 3]
        for s in (1, -1):
            start, end = (a, b) if s == 1 else (b, a)
            pts = start[None, :] + rule.points[:, None] * (end - start)[None, :]
            tables[(l, s)] = lagrange_triangle(test_degree, pts).values
    return tables


def gram_blocks(mesh: Mesh, p: int, coeffs: PdeCoefficients) -> np.ndarray:
    """All Gram matrices G_K = W_K : K_tt + (det J / k) M_tt, (ne, nt, nt),
    over the degree p + 2 test space."""
    W, detJ, _ = _element_weights(mesh, coeffs)
    return _gram(W, detJ, coeffs.k, p + 2)


def _gram(W: np.ndarray, detJ: np.ndarray, k: float, degree: int) -> np.ndarray:
    return _combine(np.column_stack([W, detJ / k]), _reference_tensors(degree, degree)[:5])


def _cholesky_blocks(gram: np.ndarray) -> np.ndarray:
    """Cholesky factors of stacked Gram blocks; SolverError names the first
    element whose block is not positive definite or whose factor is not finite."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for e in range(gram.shape[0]):
            try:
                np.linalg.cholesky(gram[e])
            except np.linalg.LinAlgError:
                raise SolverError(
                    f"Cholesky factorization of the Gram block of element {e} failed; "
                    "degenerate element or invalid time step"
                ) from None
        raise
    # LAPACK passes NaN through without raising
    bad = np.flatnonzero(~np.isfinite(chol).all(axis=(1, 2)))
    if bad.size:
        raise SolverError(f"the Cholesky factor of the Gram block of element {bad[0]} "
                          "is not finite; NaN or Inf data")
    return chol


def _build_blocks(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> LocalBlocks:
    p = dofmap.p
    k = coeffs.k
    test_degree = p + 2
    erule = edge_rule(2 * p + 2)
    trace_tab = lagrange_edge(p, erule.points)
    edge_tables = _edge_test_tables(test_degree, erule)

    W, detJ, b = _element_weights(mesh, coeffs)
    chol = _cholesky_blocks(_gram(W, detJ, k, test_degree))
    ne, nt, _ = chol.shape
    # forward substitution L X = I, one row of every element at a time
    chol_inv = np.zeros_like(chol)
    eye = np.eye(nt)
    for i in range(nt):
        chol_inv[:, i] = (eye[i] - np.einsum("ej,ejk->ek", chol[:, i, :i], chol_inv[:, :i])) \
            / chol[:, i, i, None]

    ref = _reference_tensors(test_degree, p + 1)
    nfl = ref.shape[2]
    n_per_edge = p + 1
    nc = nfl + 3 * n_per_edge
    mass_field = detJ[:, None, None] * ref[4]
    B_b = np.empty((ne, nt, nc))
    B_b[:, :, :nfl] = _combine(np.column_stack([W, coeffs.gamma * detJ, b]), ref)

    # trace pairing: column block of local edge l carries -sign * length * int_e tau psi
    pair = {(l, s): np.einsum("mq,rq,q->mr", edge_tables[(l, s)], trace_tab.values,
                              erule.weights)
            for l in range(3) for s in (1, -1)}
    lengths = mesh.edge_lengths()[mesh.element_edges]
    for l in range(3):
        s = mesh.element_edge_signs[:, l]
        block = np.where((s == 1)[:, None, None], pair[(l, 1)][None], pair[(l, -1)][None])
        B_b[:, :, nfl + l * n_per_edge:nfl + (l + 1) * n_per_edge] = \
            -(s * lengths[:, l])[:, None, None] * block

    B_a = B_b.copy()
    B_a[:, :, :nfl] += (1.0 / k) * mass_field
    cols = np.hstack([dofmap.element_field_dofs,
                      dofmap.n_field + dofmap.element_trace_dofs])
    return LocalBlocks(chol=chol, chol_inv=chol_inv, B_a=B_a, B_b=B_b,
                       mass_field=mass_field, cols=cols)


def block_rows(blocks: np.ndarray, cols: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """Element blocks (ne, nt, nc) as a CSR matrix of shape (ne*nt, n_cols):
    row e*nt + m holds blocks[e, m] at the global columns cols[e], leaving out
    the slots whose column is -1."""
    ne, nt, _ = blocks.shape
    free = cols >= 0
    mask = np.broadcast_to(free[:, None, :], blocks.shape)
    indices = np.broadcast_to(cols.astype(np.int32)[:, None, :], blocks.shape)[mask]
    indptr = np.concatenate([[0], np.cumsum(np.repeat(free.sum(axis=1), nt))])
    return sp.csr_matrix((blocks[mask], indices, indptr), shape=(ne * nt, n_cols))


def _source_rows(mesh: Mesh, p: int, chol_inv: np.ndarray, source_space) -> np.ndarray:
    """L_K^{-1} (g_s, psi)_K for the spatial source terms g_s = source_space(x, y)[s],
    stacked (m, ne*nt)."""
    ne, nt, _ = chol_inv.shape
    rule, points, wdet, _ = volume_quadrature(mesh, 2 * (p + 2))
    values = np.asarray(source_space(points[..., 0], points[..., 1]), dtype=float)
    if values.ndim != 3 or values.shape[1:] != wdet.shape:
        raise ValueError(f"source_space must return shape (m, {ne}, {wdet.shape[1]}) "
                         f"at the quadrature points, got {values.shape}")
    loads = (values * wdet) @ lagrange_triangle(p + 2, rule.points).values.T
    return (chol_inv @ loads[..., None]).reshape(len(values), ne * nt)


def assemble_condensed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                       source_space) -> CondensedSystem:
    """Assemble S = R^T R, R the block rows of L_K^{-1} B_{a,K}, over the free
    unknowns, and the operators of the step load for the spatial source terms
    source_space(x, y) -> (m, *x.shape)."""
    ratio = mesh.h_max / np.sqrt(coeffs.k)
    if ratio > _TRACE_EQUIV_WARN:
        warnings.warn(
            f"h / sqrt(k) = {ratio:.2f} > {_TRACE_EQUIV_WARN:g}: the trace-norm "
            "equivalence constants degrade in this regime",
            RuntimeWarning, stacklevel=2,
        )
    blocks = _build_blocks(mesh, dofmap, coeffs)
    R = block_rows(blocks.chol_inv @ blocks.B_a, blocks.cols, dofmap.n_dof)
    W_w = block_rows(blocks.chol_inv @ blocks.mass_field / coeffs.k, dofmap.element_field_dofs,
                     dofmap.n_field)
    sources = _source_rows(mesh, dofmap.p, blocks.chol_inv, source_space)
    del blocks  # set-up temporaries: free them before the products and the factor
    Rt = R.T.tocsr()
    S = Rt @ R
    del R
    ops = StepOperators(F=Rt @ sources.T, C=Rt @ W_w)
    del Rt, W_w, sources
    S.sort_indices()  # the product leaves rows unsorted; factor_spd would sort a copy
    # S.T is a CSC view of S's own arrays, so S x - S^T x needs no transposed
    # copy.  With x in [1, 2], one entry of S - S^T equal to delta (a stored
    # entry whose mirror is missing counts as one) moves the difference by
    # delta to 2 delta: an asymmetry above 2 _SYM_TOL max|S| always trips,
    # one below _SYM_TOL max|S| never does.  The symmetric product leaves
    # about 1e-15 max|S| of rounding.
    x = np.random.default_rng(0).uniform(1.0, 2.0, S.shape[0])
    scale = max(S.data.max(initial=0.0), -S.data.min(initial=0.0))
    if np.abs(S @ x - S.T @ x).max(initial=0.0) > 2.0 * _SYM_TOL * scale:
        raise SolverError("condensed system lost symmetry; assembly is inconsistent")
    return CondensedSystem(S=S, blocks=ops, dofmap=dofmap, coeffs=coeffs,
                           precond=factor_spd(S))


def condense_load(ops: StepOperators, a, w_field: np.ndarray) -> np.ndarray:
    """Condensed right-hand side F a + C w of the source sum_s a_s g_s and
    the previous field w: sum_K B_{a,K}^T G_K^{-1} (sum_s a_s g_s + w/k, psi)_K."""
    a = np.asarray(a, dtype=float)
    if a.shape != ops.F.shape[1:]:
        raise ValueError(f"expected {ops.F.shape[1]} source time weights, got shape {a.shape}")
    w_field = np.asarray(w_field, dtype=float)
    if w_field.shape != ops.C.shape[1:]:
        raise ValueError(f"field coefficient vector has wrong length {w_field.shape}")
    return ops.F @ a + ops.C @ w_field
