"""Elliptic projection onto the trial space.

The projection is defined against optimal test functions of the full
time-step form: find u_h with

    b(u_h, Theta_h w_h) = b(u, Theta_h w_h)   for all w_h,

which in condensed form is the nonsymmetric system N x = r with

    N[i, j] = (B_a e_i)^T G^{-1} (B_b e_j),
    r[i]    = (B_a e_i)^T G^{-1} l_b,     l_b[m] = b(u, psi_m).

With G_K = L_K L_K^T and the block rows R = block_rows(L^{-1} B_a) and
R_b = block_rows(L^{-1} B_b) of `assembly`, N = R^T R_b and r = R^T L^{-1} l_b.

It is equivalent to the mixed saddle-point system

    (v_h, dv)_{V,k} + b(u_h, dv) = b(u, dv),      a(dw, v_h) = 0,

which is solved monolithically as an independent cross-check, with the
saddle matrix built from the block rows of G, B_b and B_a; its auxiliary
component v_h represents the projection residual in the test space.

Note that the projection depends on the time step k through the optimal test
functions and the (V,k) inner product; rate studies must fix the same k
policy as the march they accompany.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import LocalBlocks, PdeCoefficients, _build_blocks, block_rows, gather, \
    volume_quadrature
from .basis import lagrange_triangle
from .dofmap import DofMap
from .errors import SpatialFields, _trace_residuals
from .linalg import lu_solve
from .mesh import Mesh
from .timestep import TrialVector


@dataclass
class ProjectionSystem:
    """N = R^T R_b, the block rows R of L^{-1} B_a for the load, and the
    element blocks."""

    N: sp.csr_matrix
    R: sp.csr_matrix
    blocks: LocalBlocks


def build_projection_system(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> ProjectionSystem:
    blocks = _build_blocks(mesh, dofmap, coeffs)
    R = block_rows(blocks.chol_inv @ blocks.B_a, blocks.cols, dofmap.n_dof)
    N = (R.T @ block_rows(blocks.chol_inv @ blocks.B_b, blocks.cols, dofmap.n_dof)).tocsr()
    return ProjectionSystem(N=N, R=R, blocks=blocks)


def condense_element_loads(system: ProjectionSystem, loads: np.ndarray) -> np.ndarray:
    """Condensed right-hand side R^T L^{-1} l = sum_K B_{a,K}^T G_K^{-1} l_K of
    element test loads l, shape (ne, nt)."""
    return system.R.T @ np.einsum("emn,en->em", system.blocks.chol_inv, loads).ravel()


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
    loads -= _trace_residuals(mesh, dofmap, coeffs, zero_trace, exact.grad_u)
    return loads


def discrete_b_load(blocks: LocalBlocks, coefficients: np.ndarray) -> np.ndarray:
    """Element test loads b(u_h, psi_m) of a discrete trial vector."""
    coefficients = np.asarray(coefficients, dtype=float)
    n_dof = int(blocks.cols.max()) + 1  # every unknown sits in some element slot
    if coefficients.shape != (n_dof,):
        raise ValueError(f"trial coefficient vector must have shape ({n_dof},), "
                         f"got {coefficients.shape}")
    u_loc = gather(coefficients, blocks.cols)
    return np.einsum("emc,ec->em", blocks.B_b, u_loc)


def project(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
            exact: SpatialFields) -> TrialVector:
    """Elliptic projection of exact data (u, grad_u); the flux trace is taken
    from grad_u and is single-valued for smooth u."""
    system = build_projection_system(mesh, dofmap, coeffs)
    rhs = condense_element_loads(system, exact_b_load(mesh, dofmap, coeffs, exact))
    N = system.N
    del system  # free the element blocks and R before the factorization
    x = lu_solve(N, rhs)
    return TrialVector.from_vector(x, dofmap.n_field)


def _mixed_matrix(blocks: LocalBlocks, n_dof: int) -> sp.csc_matrix:
    ne, nt, _ = blocks.chol.shape
    G = block_rows(blocks.chol @ blocks.chol.transpose(0, 2, 1),
                   np.arange(ne * nt).reshape(ne, nt), ne * nt)
    Bb = block_rows(blocks.B_b, blocks.cols, n_dof)
    Ba = block_rows(blocks.B_a, blocks.cols, n_dof)
    return sp.bmat([[G, Bb], [Ba.T, None]], format="csc")


def project_mixed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                  exact: SpatialFields | None = None,
                  discrete_data: np.ndarray | None = None):
    """Solve the equivalent mixed system; returns (v_h, TrialVector) with v_h
    the element-blocked test coefficients, shape (ne, nt).

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
    saddle = _mixed_matrix(blocks, dofmap.n_dof)
    rhs = np.concatenate([loads.ravel(), np.zeros(dofmap.n_dof)])
    v, u = np.split(lu_solve(saddle, rhs), [loads.size])
    return v.reshape(loads.shape), TrialVector.from_vector(u, dofmap.n_field)

