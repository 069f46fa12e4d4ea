"""Element blocks and static condensation for the backward Euler primal DPG step.

Per element K the test space carries the inner product

    (v, dv)_{V,k} = (1/k)(v, dv)_K + (A grad v, grad dv)_K,

whose matrix G_K is the Gram block.  The trial-to-test matrices realize

    b(u, v) = (A grad u, grad v) + (beta . grad u, v) + (gamma u, v)
              - sum_{e in dK} sign_{K,e} int_e sigma_hat v ds,
    a(u, v) = (1/k)(u, v) + b(u, v),

with columns ordered field nodes first, then 3*(p+1) trace slots.  The
condensed matrix S = sum_K B_{a,K}^T G_K^{-1} B_{a,K} is symmetric positive
definite on the free (field + trace) unknowns; Dirichlet field nodes are
eliminated before condensation.

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
    """Stacked per-element data kept after condensation.

    chol / chol_inv: Cholesky factor of G_K and its inverse, (ne, nt, nt).
    B_a, B_b: trial-to-test blocks, (ne, nt, nc).
    Bt_a: chol_inv @ B_a, so that B_a^T G^{-1} B_a = Bt_a^T Bt_a.
    mass_field: test-against-field mass block, (ne, nt, nfl).
    cols: global column index per local trial slot, -1 where eliminated.
    quad_points / quad_wdet: physical volume quadrature, (ne, nq, 2) / (ne, nq).
    test_values: shared reference test table at the volume rule, (nt, nq).
    """

    p: int
    k: float
    n_field: int
    n_trace: int
    chol: np.ndarray
    chol_inv: np.ndarray
    B_a: np.ndarray
    B_b: np.ndarray
    Bt_a: np.ndarray
    mass_field: np.ndarray
    cols: np.ndarray
    quad_points: np.ndarray
    quad_wdet: np.ndarray
    test_values: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.B_a.shape[0]

    @property
    def n_test(self) -> int:
        return self.B_a.shape[1]

    @property
    def n_dof(self) -> int:
        return self.n_field + self.n_trace

    def gather_local(self, u: np.ndarray) -> np.ndarray:
        """Local trial coefficients per element; eliminated slots read as zero."""
        return gather(u, self.cols)


@dataclass
class CondensedSystem:
    """Global condensed normal-equation system plus retained element blocks;
    precond applies the inverse of a single-precision factor of S."""

    S: sp.csr_matrix
    blocks: LocalBlocks
    mesh: Mesh
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
        points = v[:, 0, None, :] + np.einsum("eab,qb->eqa", J, rule.points)
        wdet = rule.weights[None, :] * detJ[:, None]
        for array in (points, wdet, invJ):
            array.flags.writeable = False
        mesh.quadrature[degree] = (rule, points, wdet, invJ)
    return mesh.quadrature[degree]


def gather(vector: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of vector per element slot, 0.0 where the column is -1."""
    if not vector.size:
        return np.zeros(cols.shape)
    return np.where(cols >= 0, vector[np.clip(cols, 0, None)], 0.0)


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


def gram_blocks(mesh: Mesh, p: int, coeffs: PdeCoefficients, test_degree: int | None = None) -> np.ndarray:
    """All Gram matrices G_K = W_K : K_tt + (det J / k) M_tt, (ne, nt, nt)."""
    deg = test_degree if test_degree is not None else p + 2
    W, detJ, _ = _element_weights(mesh, coeffs)
    return _gram(W, detJ, coeffs.k, deg)


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
    vol, qpoints, wdet, _ = volume_quadrature(mesh, 2 * test_degree)
    erule = edge_rule(2 * p + 2)
    trace_tab = lagrange_edge(p, erule.points)
    edge_tables = _edge_test_tables(test_degree, erule)

    W, detJ, b = _element_weights(mesh, coeffs)
    chol = _cholesky_blocks(_gram(W, detJ, k, test_degree))
    ne, nt, _ = chol.shape
    chol_inv = np.linalg.solve(chol, np.broadcast_to(np.eye(nt), chol.shape))

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
    v = mesh.vertices[mesh.elements]
    for l in range(3):
        length = np.linalg.norm(v[:, (l + 1) % 3] - v[:, l], axis=1)
        s = mesh.element_edge_signs[:, l]
        block = np.where((s == 1)[:, None, None], pair[(l, 1)][None], pair[(l, -1)][None])
        B_b[:, :, nfl + l * n_per_edge:nfl + (l + 1) * n_per_edge] = \
            -(s * length)[:, None, None] * block

    B_a = B_b.copy()
    B_a[:, :, :nfl] += (1.0 / k) * mass_field
    Bt_a = chol_inv @ B_a

    cols = np.hstack([dofmap.element_field_dofs,
                      dofmap.n_field + dofmap.element_trace_dofs])

    return LocalBlocks(
        p=p, k=k, n_field=dofmap.n_field, n_trace=dofmap.n_trace,
        chol=chol, chol_inv=chol_inv, B_a=B_a, B_b=B_b, Bt_a=Bt_a,
        mass_field=mass_field, cols=cols,
        quad_points=qpoints, quad_wdet=wdet,
        test_values=lagrange_triangle(test_degree, vol.points).values,
    )


def scatter_condensed(Bt_rows: np.ndarray, Bt_cols: np.ndarray, cols: np.ndarray,
                      n_dof: int) -> sp.csr_matrix:
    """sum_K Bt_rows^T Bt_cols scattered over the free global unknowns."""
    contrib = np.einsum("emi,emj->eij", Bt_rows, Bt_cols)
    shape = contrib.shape
    cols = cols.astype(np.int32)
    free = cols >= 0
    mask = free[:, :, None] & free[:, None, :]
    rows_idx = np.broadcast_to(cols[:, :, None], shape)[mask]
    cols_idx = np.broadcast_to(cols[:, None, :], shape)[mask]
    matrix = sp.coo_matrix((contrib[mask], (rows_idx, cols_idx)), shape=(n_dof, n_dof))
    return matrix.tocsr()


def assemble_condensed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> CondensedSystem:
    """Assemble S = sum_K B_{a,K}^T G_K^{-1} B_{a,K} over the free unknowns."""
    ratio = mesh.h_max / np.sqrt(coeffs.k)
    if ratio > _TRACE_EQUIV_WARN:
        warnings.warn(
            f"h / sqrt(k) = {ratio:.2f} > {_TRACE_EQUIV_WARN:g}: the trace-norm "
            "equivalence constants degrade in this regime",
            RuntimeWarning, stacklevel=2,
        )
    blocks = _build_blocks(mesh, dofmap, coeffs)
    S = scatter_condensed(blocks.Bt_a, blocks.Bt_a, blocks.cols, dofmap.n_dof)
    # the CSC arrays of S are the CSR arrays of S^T; the pattern is symmetric
    # by construction, so S = S^T compares the two value arrays
    St = S.tocsc()
    if S.nnz and (not (np.array_equal(St.indptr, S.indptr)
                       and np.array_equal(St.indices, S.indices))
                  or np.abs(St.data - S.data).max() > _SYM_TOL * np.abs(S.data).max()):
        raise SolverError("condensed system lost symmetry; assembly is inconsistent")
    del St
    return CondensedSystem(S=S, blocks=blocks, mesh=mesh, dofmap=dofmap, coeffs=coeffs,
                           precond=factor_spd(S))


def local_test_loads(blocks: LocalBlocks, g, w_field, coeffs: PdeCoefficients) -> np.ndarray:
    """Element test-space loads (g + w/k, psi_m)_K, shape (ne, nt)."""
    loads = np.zeros((blocks.n_elements, blocks.n_test))
    if g is not None:
        gv = g(blocks.quad_points[..., 0], blocks.quad_points[..., 1])
        loads += np.einsum("mq,eq->em", blocks.test_values, blocks.quad_wdet * gv)
    if w_field is not None:
        w_field = np.asarray(w_field, dtype=float)
        if w_field.shape != (blocks.n_field,):
            raise ValueError(f"field coefficient vector has wrong length {w_field.shape}")
        w_loc = gather(w_field, blocks.cols[:, :blocks.mass_field.shape[2]])
        loads += (1.0 / coeffs.k) * np.einsum("emj,ej->em", blocks.mass_field, w_loc)
    return loads


def condense_element_loads(blocks: LocalBlocks, loads: np.ndarray) -> np.ndarray:
    """Condensed right-hand side sum_K B_{a,K}^T G_K^{-1} l_K of element test
    loads l, shape (ne, nt)."""
    y = np.einsum("emn,en->em", blocks.chol_inv, loads)
    contrib = np.einsum("emc,em->ec", blocks.Bt_a, y)
    out = np.zeros(blocks.n_dof)
    mask = blocks.cols >= 0
    np.add.at(out, blocks.cols[mask], contrib[mask])
    return out


def condense_load(blocks: LocalBlocks, g, w_field, coeffs: PdeCoefficients) -> np.ndarray:
    """Condensed right-hand side sum_K B_{a,K}^T G_K^{-1} (g + w/k, psi)_K."""
    return condense_element_loads(blocks, local_test_loads(blocks, g, w_field, coeffs))
