"""Elliptic projection onto the trial space.

The projection is defined against optimal test functions of the full
time-step form: find u_h with

    b(u_h, Theta_h w_h) = b(u, Theta_h w_h)   for all w_h,

which in condensed form is the nonsymmetric system N x = r with

    N[i, j] = (B_a e_i)^T G^{-1} (B_b e_j),
    r[i]    = (B_a e_i)^T G^{-1} l_b,     l_b[m] = b(u, psi_m).

It is equivalent to the mixed saddle-point system

    (v_h, dv)_{V,k} + b(u_h, dv) = b(u, dv),      a(dw, v_h) = 0,

which is solved monolithically as an independent cross-check; its auxiliary
component v_h represents the projection residual in the test space.

Note that the projection depends on the time step k through the optimal test
functions and the (V,k) inner product; rate studies must fix the same k
policy as the march they accompany.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (LocalBlocks, PdeCoefficients, _build_blocks, condense_element_loads,
                       scatter_condensed, volume_quadrature)
from .basis import lagrange_triangle
from .dofmap import DofMap
from .errors import SpatialFields, _trace_residuals
from .linalg import lu_solve
from .mesh import Mesh
from .timestep import TrialVector


@dataclass(frozen=True)
class TestVector:
    """Element-blocked coefficients of a broken test function, (ne, nt)."""

    values: np.ndarray


@dataclass
class ProjectionSystem:
    N: sp.csr_matrix
    blocks: LocalBlocks
    mesh: Mesh
    dofmap: DofMap
    coeffs: PdeCoefficients


def build_projection_system(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> ProjectionSystem:
    blocks = _build_blocks(mesh, dofmap, coeffs)
    Bt_b = blocks.chol_inv @ blocks.B_b
    N = scatter_condensed(blocks.Bt_a, Bt_b, blocks.cols, dofmap.n_dof)
    return ProjectionSystem(N=N, blocks=blocks, mesh=mesh, dofmap=dofmap, coeffs=coeffs)


def exact_b_load(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                 exact: SpatialFields) -> np.ndarray:
    """Element test loads l_b[m] = b((u, A grad u . n), psi_m) for exact data."""
    p = dofmap.p
    rule, qp, wdet, invJ = volume_quadrature(mesh, 2 * (p + 2) + 2)
    table = lagrange_triangle(p + 2, rule.points)
    g = np.moveaxis(np.asarray(exact.grad_u(qp[..., 0], qp[..., 1])), 0, -1)
    # (A grad u, J^{-T} grad_ref psi) w det J: map the data, not the basis
    mapped = (g @ coeffs.A.T @ invJ.transpose(0, 2, 1)) * wdet[..., None]
    loads = np.tensordot(mapped, table.gradients, axes=([1, 2], [1, 2]))
    advection = np.einsum("eqa,a->eq", g, coeffs.beta)
    if coeffs.gamma != 0.0:
        advection = advection + coeffs.gamma * exact.u(qp[..., 0], qp[..., 1])
    loads += np.einsum("mq,eq->em", table.values, wdet * advection)

    # -<sigma, psi>_S with sigma the exact flux trace
    zero_trace = np.zeros(dofmap.n_trace)
    loads -= _trace_residuals(mesh, dofmap, coeffs, zero_trace, exact.grad_u, p + 2)
    return loads


def discrete_b_load(blocks: LocalBlocks, coefficients: np.ndarray) -> np.ndarray:
    """Element test loads b(u_h, psi_m) of a discrete trial vector."""
    u_loc = blocks.gather_local(np.asarray(coefficients, dtype=float))
    return np.einsum("emc,ec->em", blocks.B_b, u_loc)


def project(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
            exact: SpatialFields) -> TrialVector:
    """Elliptic projection of exact data (u, grad_u); the flux trace is taken
    from grad_u and is single-valued for smooth u."""
    system = build_projection_system(mesh, dofmap, coeffs)
    rhs = condense_element_loads(system.blocks, exact_b_load(mesh, dofmap, coeffs, exact))
    x = lu_solve(system.N, rhs)
    return TrialVector.from_vector(x, dofmap.n_field)


def _mixed_matrix(blocks: LocalBlocks, n_dof: int) -> sp.csc_matrix:
    ne, nt = blocks.n_elements, blocks.n_test
    gram = np.einsum("emk,enk->emn", blocks.chol, blocks.chol)
    rows = (np.arange(ne)[:, None, None] * nt + np.arange(nt)[None, :, None])
    cols = (np.arange(ne)[:, None, None] * nt + np.arange(nt)[None, None, :])
    G = sp.coo_matrix((gram.ravel(), (np.broadcast_to(rows, gram.shape).ravel(),
                                      np.broadcast_to(cols, gram.shape).ravel())),
                      shape=(ne * nt, ne * nt))

    test_rows = np.arange(ne)[:, None, None] * nt + np.arange(nt)[None, :, None]
    trial_cols = np.broadcast_to(blocks.cols[:, None, :], blocks.B_b.shape)
    mask = trial_cols >= 0
    row_idx = np.broadcast_to(test_rows, blocks.B_b.shape)[mask]
    Bb = sp.coo_matrix((blocks.B_b[mask], (row_idx, trial_cols[mask])),
                       shape=(ne * nt, n_dof))
    Ba = sp.coo_matrix((blocks.B_a[mask], (row_idx, trial_cols[mask])),
                       shape=(ne * nt, n_dof))
    return sp.bmat([[G, Bb], [Ba.T, None]], format="csc")


def project_mixed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                  exact: SpatialFields | None = None,
                  discrete_data: np.ndarray | None = None):
    """Solve the equivalent mixed system; returns (TestVector, TrialVector).

    Exactly one of `exact` (callbacks) and `discrete_data` (trial coefficients
    whose projection is requested) must be given.
    """
    if (exact is None) == (discrete_data is None):
        raise ValueError("provide exactly one of exact callbacks or discrete data")
    blocks = _build_blocks(mesh, dofmap, coeffs)
    if exact is not None:
        loads = exact_b_load(mesh, dofmap, coeffs, exact)
    else:
        loads = discrete_b_load(blocks, discrete_data)
    ne, nt = blocks.n_elements, blocks.n_test
    saddle = _mixed_matrix(blocks, dofmap.n_dof)
    rhs = np.concatenate([loads.ravel(), np.zeros(dofmap.n_dof)])
    x = lu_solve(saddle, rhs)
    v = TestVector(values=x[:ne * nt].reshape(ne, nt))
    return v, TrialVector.from_vector(x[ne * nt:], dofmap.n_field)


def b_orthogonality_residual(system: ProjectionSystem, rhs: np.ndarray,
                             solution: np.ndarray):
    """(max_i |b(u - u_h, Theta phi_i)|, system scale) for a computed projection."""
    residual = rhs - system.N @ solution
    scale = float(np.abs(system.N).dot(np.abs(solution)).max() + np.abs(rhs).max())
    return float(np.abs(residual).max()), scale
