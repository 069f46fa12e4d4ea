"""Elliptic projection onto the trial space.

The projection is defined against optimal test functions of the full
time-step form: find u_h with

    b(u_h, Theta_h w_h) = b(u, Theta_h w_h)   for all w_h,

which in condensed form is the nonsymmetric system N x = r with

    N[i, j] = (B_a e_i)^T G^{-1} (B_b e_j),
    r[i]    = (B_a e_i)^T G^{-1} l_b,     l_b[m] = b(u, psi_m).

The test space is broken, so with G_K = L_K L_K^T and E = L_K^{-1} B_K both
are sums of element products scattered by `assembly`: N = sum_K
E_{a,K}^T E_{b,K} and r = sum_K E_{a,K}^T L_K^{-1} l_{b,K}, with E_{a,K} and
the products E_{a,K}^T E_{b,K} formed once per class of congruent elements.

It is equivalent to the mixed saddle-point system

    (v_h, dv)_{V,k} + b(u_h, dv) = b(u, dv),      a(dw, v_h) = 0,

which `project_mixed` solves monolithically as an independent cross-check,
for element test loads l_b from `exact_b_load` or `discrete_b_load`, with the
saddle matrix scattered from G_K, B_{b,K} and B_{a,K} at test rows e*nt + m;
its auxiliary component v_h represents the projection residual in the test
space.

Note that the projection depends on the time step k through the optimal test
functions and the (V,k) inner product; rate studies must fix the same k
policy as the march they accompany.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import LocalBlocks, PdeCoefficients, _build_blocks, gather, scatter, \
    scatter_load, volume_quadrature
from .basis import triangle_table
from .dofmap import DofMap
from .errors import SpatialFields, _trace_residuals
from .linalg import lu_solve
from .mesh import Mesh
from .timestep import TrialVector


@dataclass
class ProjectionSystem:
    """N = sum_K E_{a,K}^T E_{b,K} in CSC, the element blocks, and E_{a,K}^T
    per class, (n_classes, nc, nt), for the load."""

    N: sp.csc_matrix
    blocks: LocalBlocks
    Et: np.ndarray


def build_projection_system(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> ProjectionSystem:
    blocks = _build_blocks(mesh, dofmap, coeffs)
    Et = (blocks.chol_inv @ blocks.B_a).transpose(0, 2, 1)
    N = scatter((Et @ (blocks.chol_inv @ blocks.B_b))[blocks.cls], blocks.cols, blocks.cols,
                (dofmap.n_dof, dofmap.n_dof), "csc")
    return ProjectionSystem(N=N, blocks=blocks, Et=Et)


def condense_element_loads(system: ProjectionSystem, loads: np.ndarray) -> np.ndarray:
    """Condensed right-hand side sum_K E_{a,K}^T L_K^{-1} l_K of element test
    loads l, shape (ne, nt)."""
    blocks = system.blocks
    cls = blocks.cls
    loads = system.Et[cls] @ (blocks.chol_inv[cls] @ loads[..., None])
    return scatter_load(loads, blocks.cols, system.N.shape[0])[:, 0]


def exact_b_load(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                 exact: SpatialFields) -> np.ndarray:
    """Element test loads l_b[m] = b((u, A grad u . n), psi_m) for exact data."""
    p = dofmap.p
    rule_degree = 2 * (p + 2) + 2
    _, qp, wdet, invJ = volume_quadrature(mesh, rule_degree)
    table = triangle_table(p + 2, rule_degree)
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


def discrete_b_load(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                    coefficients: np.ndarray) -> np.ndarray:
    """Element test loads b(u_h, psi_m) of a discrete trial vector."""
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (dofmap.n_dof,):
        raise ValueError(f"trial coefficient vector must have shape ({dofmap.n_dof},), "
                         f"got {coefficients.shape}")
    blocks = _build_blocks(mesh, dofmap, coeffs)
    return np.einsum("emc,ec->em", blocks.B_b[blocks.cls], gather(coefficients, blocks.cols))


def project(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
            exact: SpatialFields) -> TrialVector:
    """Elliptic projection of exact data (u, grad_u); the flux trace is taken
    from grad_u and is single-valued for smooth u."""
    system = build_projection_system(mesh, dofmap, coeffs)
    rhs = condense_element_loads(system, exact_b_load(mesh, dofmap, coeffs, exact))
    N = system.N
    del system  # free the element blocks before the factorization
    return TrialVector.from_vector(lu_solve(N, rhs), dofmap.n_field)


def _mixed_matrix(blocks: LocalBlocks, n_dof: int) -> sp.csc_matrix:
    cls = blocks.cls
    ne, nt = len(cls), blocks.chol.shape[1]
    rows = np.arange(ne * nt).reshape(ne, nt)
    G = scatter((blocks.chol @ blocks.chol.transpose(0, 2, 1))[cls], rows, rows,
                (ne * nt,) * 2, "csr")
    Bb = scatter(blocks.B_b[cls], rows, blocks.cols, (ne * nt, n_dof), "csr")
    Ba = scatter(blocks.B_a[cls], rows, blocks.cols, (ne * nt, n_dof), "csr")
    return sp.bmat([[G, Bb], [Ba.T, None]], format="csc")


def project_mixed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients, loads: np.ndarray):
    """Solve the equivalent mixed system for element test loads l_b, shape
    (ne, nt), from `exact_b_load` or `discrete_b_load`; returns (v_h,
    TrialVector) with v_h the element-blocked test coefficients, shape (ne, nt)."""
    blocks = _build_blocks(mesh, dofmap, coeffs)
    loads = np.asarray(loads, dtype=float)
    shape = (mesh.n_elements, blocks.chol.shape[1])
    if loads.shape != shape:
        raise ValueError(f"element test loads must have shape {shape}, got {loads.shape}")
    saddle = _mixed_matrix(blocks, dofmap.n_dof)
    rhs = np.concatenate([loads.ravel(), np.zeros(dofmap.n_dof)])
    v, u = np.split(lu_solve(saddle, rhs), [loads.size])
    return v.reshape(loads.shape), TrialVector.from_vector(u, dofmap.n_field)
