"""Elliptic projection onto the trial space.

The projection is defined against optimal test functions of the full
time-step form: find u_h with

    b(u_h, Theta_h w_h) = b(u, Theta_h w_h)   for all w_h,

which in condensed form is the nonsymmetric system N x = r with

    N[i, j] = (B_a e_i)^T G^{-1} (B_b e_j),
    r[i]    = (B_a e_i)^T G^{-1} l_b,     l_b[m] = b(u, psi_m).

The test space is broken, so with G_K = L_K L_K^T and E = L_K^{-1} B_K both
are sums of element products: N = sum_K E_{a,K}^T E_{b,K}, scattered by
`assembly.scatter`, and r = sum_K E_{a,K}^T L_K^{-1} l_{b,K}, the march's
load condensation `assembly.condensed_loads`.  E_{a,K}^T comes with the
element blocks and the products E_{a,K}^T E_{b,K} are formed once per class
of congruent elements.

Note that the projection depends on the time step k through the optimal test
functions and the (V,k) inner product; rate studies must fix the same k
policy as the march they accompany.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import LocalBlocks, PdeCoefficients, _build_blocks, condensed_loads, scatter, \
    volume_quadrature
from .basis import triangle_table
from .dofmap import DofMap
from .errors import SpatialFields, _norm_rule_degree, _trace_residuals
from .linalg import lu_solve
from .mesh import Mesh
from .timestep import TrialVector


@dataclass
class ProjectionSystem:
    """N = sum_K E_{a,K}^T E_{b,K} in CSC and the element blocks, whose
    E_{a,K}^T also condenses the load (`assembly.condensed_loads`)."""

    N: sp.csc_matrix
    blocks: LocalBlocks


def build_projection_system(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> ProjectionSystem:
    blocks = _build_blocks(mesh, dofmap, coeffs)
    N = scatter((blocks.Et @ (blocks.chol_inv @ blocks.B_b))[blocks.cls], blocks.cols,
                blocks.cols, (dofmap.n_dof, dofmap.n_dof), "csc")
    return ProjectionSystem(N=N, blocks=blocks)


def exact_b_load(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                 exact: SpatialFields) -> np.ndarray:
    """Element test loads l_b[m] = b((u, A grad u . n), psi_m) for exact data."""
    p = dofmap.p
    rule_degree = _norm_rule_degree(p)
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


def project(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
            exact: SpatialFields) -> TrialVector:
    """Elliptic projection of exact data (u, grad_u); the flux trace is taken
    from grad_u and is single-valued for smooth u."""
    system = build_projection_system(mesh, dofmap, coeffs)
    loads = exact_b_load(mesh, dofmap, coeffs, exact)[..., None]
    rhs = condensed_loads(system.blocks, loads, system.blocks.cols, dofmap.n_dof)[:, 0]
    N = system.N
    del system, loads  # free the element blocks and loads before the factorization
    return TrialVector.from_vector(lu_solve(N, rhs), dofmap.n_field)

