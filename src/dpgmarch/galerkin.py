"""Independent backward Euler Galerkin FEM for the heat equation.

Cross-check oracle: on the same conforming field space, the primal DPG field
coincides with the standard Galerkin solution when A = I, beta = 0, gamma = 0,
at every backward Euler step.  `galerkin_states(case, mesh, dofmap)` marches a
case the way `timestep.states` does and yields the field of each step.  Its
element blocks are integrated here, deliberately apart from the DPG element
blocks: only mesh, basis, quadrature and the sparse sum `assembly.scatter`
are shared.  The step systems are solved by a direct sparse factorization,
not the DPG conjugate-gradient path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import scatter, volume_quadrature
from .basis import triangle_table
from .cases import PdeCase
from .dofmap import DofMap
from .mesh import Mesh
from .timestep import initial_field, n_steps


@dataclass
class GalerkinSystem:
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix


def _physical_gradients(invJ, table):
    # grad_x phi = J^{-T} grad_ref phi, (ne, nm, nq, 2)
    g = table.gradients
    return (invJ[:, None, None, 0, :] * g[None, :, :, 0, None]
            + invJ[:, None, None, 1, :] * g[None, :, :, 1, None])


def build_galerkin_system(mesh: Mesh, dofmap: DofMap) -> GalerkinSystem:
    """Mass and (unit-diffusion) stiffness matrices on the conforming field space."""
    p = dofmap.p
    # load/mass quadrature exactness matches the DPG assembly so the heat-case
    # identity holds to solver tolerance even for non-polynomial sources
    rule_degree = 2 * (p + 2)
    _, _, wdet, invJ = volume_quadrature(mesh, rule_degree)
    table = triangle_table(p + 1, rule_degree)
    grads = _physical_gradients(invJ, table)

    m_loc = np.einsum("iq,jq,eq->eij", table.values, table.values, wdet)
    k_loc = np.einsum("eiqa,ejqa,eq->eij", grads, grads, wdet)

    cols = dofmap.element_field_dofs
    shape = (dofmap.n_field,) * 2
    return GalerkinSystem(mass=scatter(m_loc, cols, cols, shape, "csr"),
                          stiffness=scatter(k_loc, cols, cols, shape, "csr"))


def _source_load(mesh: Mesh, dofmap: DofMap, f, t: float) -> np.ndarray:
    rule_degree = 2 * (dofmap.p + 2)
    _, qp, wdet, _ = volume_quadrature(mesh, rule_degree)
    table = triangle_table(dofmap.p + 1, rule_degree)
    loc = np.einsum("jq,eq->ej", table.values, wdet * f(t, qp[..., 0], qp[..., 1]))
    free = dofmap.element_field_dofs >= 0
    return np.bincount(dofmap.element_field_dofs[free], loc[free], minlength=dofmap.n_field)


def galerkin_states(case: PdeCase, mesh: Mesh, dofmap: DofMap):
    """The field of each step of the backward Euler heat march
    (M/k + K) u^n = (f^n, .) + (M/k) u^{n-1}, from the interpolated u^0 to
    T_end, with k, T_end, f and u0 read from `case`.

    A case that is not the heat equation, and a time grid that `n_steps`
    rejects, raise at the call; the steps run as the fields are read."""
    k = case.coeffs.k
    if not case.coeffs.is_heat():
        raise ValueError("the Galerkin oracle is only valid for the heat equation "
                         "(A = I, beta = 0, gamma = 0)")
    count = n_steps(k, case.coeffs.T_end)

    def fields():
        system = build_galerkin_system(mesh, dofmap)
        solver = spla.splu((system.mass / k + system.stiffness).tocsc())
        u = initial_field(case.u0, dofmap, mesh).field
        yield u
        for n in range(1, count + 1):
            u = solver.solve(_source_load(mesh, dofmap, case.f, n * k) + (system.mass @ u) / k)
            yield u

    return fields()
