"""Global degree-of-freedom enumeration.

Trial unknowns pair a conforming field (degree p+1 Lagrange, homogeneous
Dirichlet values eliminated) with edgewise flux traces of degree p on every
edge, boundary included.  Test functions are broken polynomials of degree
p+2 per element and are never globally numbered.

Numbering is deterministic: interior vertices in vertex order first, then
(for p = 1) midpoints of interior edges in edge order.  Edge e owns trace
unknowns e*(p+1) .. e*(p+1)+p, placed at the Lagrange nodes of the edge in
its global orientation (lower-indexed vertex -> higher-indexed vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh

SUPPORTED_ORDERS = (0, 1)


@dataclass(frozen=True)
class DofMap:
    """DOF layout for one mesh and one polynomial order p.

    element_field_dofs[e, j] is the global field DOF of local field node j
    (-1 where the node sits on the Dirichlet boundary).  Local field nodes
    follow the reference-triangle node ordering of the degree p+1 basis.
    element_trace_dofs[e, (p+1)*l + r] is trace unknown r of the element's
    local edge l.
    """

    p: int
    n_field: int
    n_trace: int
    element_field_dofs: np.ndarray
    element_trace_dofs: np.ndarray
    field_dof_coords: np.ndarray
    vertex_field_dof: np.ndarray

    @property
    def n_dof(self) -> int:
        return self.n_field + self.n_trace


def build_dofmap(mesh: Mesh, p: int) -> DofMap:
    if p not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported polynomial order p={p}; supported: {SUPPORTED_ORDERS}")

    vertex_field_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    interior_vertices = np.flatnonzero(~mesh.vertex_on_boundary)
    vertex_field_dof[interior_vertices] = np.arange(interior_vertices.size)
    coords = [mesh.vertices[interior_vertices]]
    n_field = interior_vertices.size

    if p == 0:
        element_field_dofs = vertex_field_dof[mesh.elements]
    else:
        # degree-2 field: one midpoint node per edge, shared through the edge index
        edge_field_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
        interior_edges = np.flatnonzero(~mesh.edge_on_boundary)
        edge_field_dof[interior_edges] = n_field + np.arange(interior_edges.size)
        n_field += interior_edges.size
        coords.append(0.5 * (mesh.vertices[mesh.edges[interior_edges, 0]]
                             + mesh.vertices[mesh.edges[interior_edges, 1]]))
        element_field_dofs = np.hstack(
            [vertex_field_dof[mesh.elements], edge_field_dof[mesh.element_edges]]
        )

    n_per_edge = p + 1
    element_trace_dofs = (
        mesh.element_edges[:, :, None] * n_per_edge + np.arange(n_per_edge)[None, None, :]
    ).reshape(mesh.n_elements, 3 * n_per_edge)

    return DofMap(
        p=p,
        n_field=int(n_field),
        n_trace=n_per_edge * mesh.n_edges,
        element_field_dofs=np.ascontiguousarray(element_field_dofs),
        element_trace_dofs=np.ascontiguousarray(element_trace_dofs),
        field_dof_coords=np.vstack(coords) if n_field else np.zeros((0, 2)),
        vertex_field_dof=vertex_field_dof,
    )
