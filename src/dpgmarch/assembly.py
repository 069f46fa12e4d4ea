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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .basis import TRIANGLE_VERTICES, edge_rule, lagrange_edge, lagrange_triangle, triangle_rule
from .dofmap import DofMap
from .linalg import SolverError, factor_spd
from .mesh import Mesh

_SYM_TOL = 1e-12
_CHUNK = 1024  # elements per pass of _build_blocks, which bounds its temporaries
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

    def gram_apply_inv(self, r: np.ndarray) -> np.ndarray:
        """G_K^{-1} r per element; r has shape (ne, nt)."""
        z = np.einsum("emn,en->em", self.chol_inv, r)
        return np.einsum("enm,en->em", self.chol_inv, z)

    def test_norm(self, v: np.ndarray) -> float:
        """(V,k)-norm of an element-blocked test function, sqrt(sum v^T G v)."""
        z = np.einsum("enm,en->em", self.chol, v)
        return float(np.sqrt(np.sum(z * z)))

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
    if np.any(detJ <= 0.0):
        raise SolverError("degenerate element: nonpositive Jacobian determinant")
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


def _physical_gradients(invJ, table):
    # grad_x phi = J^{-T} grad_ref phi, (ne, nm, nq, 2)
    g = table.gradients
    return (invJ[:, None, None, 0, :] * g[None, :, :, 0, None]
            + invJ[:, None, None, 1, :] * g[None, :, :, 1, None])


def gather(vector: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of vector per element slot, 0.0 where the column is -1."""
    if not vector.size:
        return np.zeros(cols.shape)
    return np.where(cols >= 0, vector[np.clip(cols, 0, None)], 0.0)


def _gram(grads, values, wdet, coeffs: PdeCoefficients) -> np.ndarray:
    """G_K = (1/k) mass + A-weighted stiffness of a tabulated test basis."""
    a_grads = np.einsum("ab,emqb->emqa", coeffs.A, grads)
    gram = np.einsum("emqa,enqa,eq->emn", grads, a_grads, wdet)
    gram += (1.0 / coeffs.k) * np.einsum("mq,nq,eq->emn", values, values, wdet)
    return gram


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
    """All Gram matrices G_K = (1/k) mass + A-weighted stiffness, (ne, nt, nt)."""
    deg = test_degree if test_degree is not None else p + 2
    rule, _, wdet, invJ = volume_quadrature(mesh, 2 * deg)
    table = lagrange_triangle(deg, rule.points)
    return _gram(_physical_gradients(invJ, table), table.values, wdet, coeffs)


def _cholesky_blocks(gram: np.ndarray, first: int = 0) -> np.ndarray:
    """Cholesky factors of stacked Gram blocks; `first` numbers the first
    block in the error message."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for e in range(gram.shape[0]):
            try:
                np.linalg.cholesky(gram[e])
            except np.linalg.LinAlgError:
                raise SolverError(
                    f"Cholesky factorization of the Gram block of element {first + e} failed; "
                    "degenerate element or invalid time step"
                ) from None
        raise


def _build_blocks(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> LocalBlocks:
    p = dofmap.p
    k = coeffs.k
    test_degree = p + 2
    vol, qpoints, wdet, invJ = volume_quadrature(mesh, 2 * test_degree)
    erule = edge_rule(2 * p + 2)

    test_tab = lagrange_triangle(test_degree, vol.points)
    field_tab = lagrange_triangle(p + 1, vol.points)
    trace_tab = lagrange_edge(p, erule.points)
    edge_tables = _edge_test_tables(test_degree, erule)

    ne = mesh.n_elements
    nt = test_tab.n_basis
    nfl = field_tab.n_basis
    n_per_edge = p + 1
    nc = nfl + 3 * n_per_edge

    # trace pairing: column block of local edge l carries -sign * length * int_e tau psi
    pair = {(l, s): np.einsum("mq,rq,q->mr", edge_tables[(l, s)], trace_tab.values,
                              erule.weights)
            for l in range(3) for s in (1, -1)}

    # the element arrays are computed chunk by chunk into these outputs, so the
    # quadrature-level temporaries never span the whole mesh
    chol = np.empty((ne, nt, nt))
    chol_inv = np.empty((ne, nt, nt))
    B_a = np.empty((ne, nt, nc))
    B_b = np.empty((ne, nt, nc))
    Bt_a = np.empty((ne, nt, nc))
    mass_field = np.empty((ne, nt, nfl))
    for start in range(0, ne, _CHUNK):
        e = slice(start, min(start + _CHUNK, ne))
        w = wdet[e]
        test_grads = _physical_gradients(invJ[e], test_tab)
        field_grads = _physical_gradients(invJ[e], field_tab)
        a_field_grads = np.einsum("ab,ejqb->ejqa", coeffs.A, field_grads)

        chol[e] = _cholesky_blocks(_gram(test_grads, test_tab.values, w, coeffs), start)
        chol_inv[e] = np.linalg.solve(chol[e], np.broadcast_to(np.eye(nt), chol[e].shape))

        B_field = np.einsum("emqa,ejqa,eq->emj", test_grads, a_field_grads, w)
        B_field += np.einsum("a,ejqa,mq,eq->emj", coeffs.beta, field_grads, test_tab.values, w)
        mass_field[e] = np.einsum("mq,jq,eq->emj", test_tab.values, field_tab.values, w)
        if coeffs.gamma != 0.0:
            B_field += coeffs.gamma * mass_field[e]
        B_b[e, :, :nfl] = B_field

        v = mesh.vertices[mesh.elements[e]]
        for l in range(3):
            length = np.linalg.norm(v[:, (l + 1) % 3] - v[:, l], axis=1)
            s = mesh.element_edge_signs[e, l]
            block = np.where((s == 1)[:, None, None], pair[(l, 1)][None], pair[(l, -1)][None])
            B_b[e, :, nfl + l * n_per_edge:nfl + (l + 1) * n_per_edge] = \
                -(s * length)[:, None, None] * block

        B_a[e] = B_b[e]
        B_a[e, :, :nfl] += (1.0 / k) * mass_field[e]
        Bt_a[e] = chol_inv[e] @ B_a[e]

    cols = np.hstack([dofmap.element_field_dofs,
                      dofmap.n_field + dofmap.element_trace_dofs])

    return LocalBlocks(
        p=p, k=k, n_field=dofmap.n_field, n_trace=dofmap.n_trace,
        chol=chol, chol_inv=chol_inv, B_a=B_a, B_b=B_b, Bt_a=Bt_a,
        mass_field=mass_field, cols=cols,
        quad_points=qpoints, quad_wdet=wdet, test_values=test_tab.values,
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


def apply_trial_to_test(system: CondensedSystem, u: np.ndarray) -> np.ndarray:
    """Discrete optimal test function of a trial vector, element-blocked
    coefficients (ne, nt): v_K = G_K^{-1} B_{a,K} u_loc."""
    blocks = system.blocks
    u = np.asarray(u, dtype=float)
    if u.shape != (blocks.n_dof,):
        raise ValueError(f"trial vector has wrong length {u.shape}")
    u_loc = blocks.gather_local(u)
    return blocks.gram_apply_inv(np.einsum("emc,ec->em", blocks.B_a, u_loc))


def embed_field_in_test(p: int) -> np.ndarray:
    """Coefficients of the degree p+1 field basis in the degree p+2 nodal test
    basis: field values at the test nodes, shape (nfl, nt)."""
    from .basis import triangle_nodes

    return lagrange_triangle(p + 1, triangle_nodes(p + 2)).values
