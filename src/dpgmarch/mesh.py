"""Conforming triangulations of the unit square with an oriented edge skeleton.

Every edge carries a global orientation: its normal is the 90-degree
clockwise rotation of the unit tangent pointing from the lower-indexed to
the higher-indexed vertex.  Elements store, per local edge, the sign that
reconciles their outward normal with that global normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
    elements : (n_elements, 3) int array
        Vertex indices, counterclockwise.  Local edge ``l`` runs from local
        vertex ``l`` to local vertex ``(l + 1) % 3``.
    edges : (n_edges, 2) int array
        Vertex pairs with the lower index first, sorted lexicographically.
    element_edges : (n_elements, 3) int array
        Global edge index of each local edge.
    element_edge_signs : (n_elements, 3) int array
        +1 where the element's outward normal equals the global edge
        normal, -1 otherwise.
    vertex_on_boundary, edge_on_boundary : bool arrays
    h_max : float
        Longest edge length.
    quadrature : dict
        Volume quadrature of this mesh by rule degree, filled on first use by
        ``assembly.volume_quadrature``; a new mesh always starts empty.
    """

    vertices: np.ndarray
    elements: np.ndarray
    edges: np.ndarray
    element_edges: np.ndarray
    element_edge_signs: np.ndarray
    vertex_on_boundary: np.ndarray
    edge_on_boundary: np.ndarray
    h_max: float
    quadrature: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def element_coords(self, element: int) -> np.ndarray:
        """Vertex coordinates of one element, shape (3, 2)."""
        return self.vertices[self.elements[element]]

    def edge_vectors(self) -> np.ndarray:
        """Per edge, the vector from the lower- to the higher-indexed vertex."""
        return self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]

    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edge_vectors(), axis=1)

    def edge_normals(self) -> np.ndarray:
        """Global unit edge normals (clockwise rotation of the unit tangent)."""
        t = self.edge_vectors()
        t = t / np.linalg.norm(t, axis=1)[:, None]
        return np.column_stack((t[:, 1], -t[:, 0]))

    def signed_areas(self) -> np.ndarray:
        v = self.vertices[self.elements]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def mesh_from_arrays(vertices, elements) -> Mesh:
    """Build a Mesh (connectivity, orientation, boundary flags) from raw arrays.

    Validates counterclockwise element orientation and conformity: each edge
    must be shared by one (boundary) or two (interior) elements.
    """
    vertices = np.asarray(vertices, dtype=float)
    elements = np.asarray(elements, dtype=np.int64)
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise ValueError("vertices must have shape (n, 2)")
    if elements.ndim != 2 or elements.shape[1] != 3:
        raise ValueError("elements must have shape (n, 3)")
    if not np.all(np.isfinite(vertices)):
        raise ValueError("vertex coordinates must be finite")

    v = vertices[elements]
    areas = 0.5 * ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
                   - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise ValueError(f"element {bad} is degenerate or clockwise (signed area {areas[bad]:.3e})")

    # local edge l = (v_l, v_{l+1}); identify undirected edges lexicographically
    pairs = np.stack([elements, np.roll(elements, -1, axis=1)], axis=2)  # (ne, 3, 2)
    lo_hi = np.sort(pairs.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(lo_hi, axis=0, return_inverse=True)
    element_edges = inverse.reshape(-1, 3)

    counts = np.bincount(element_edges.ravel(), minlength=edges.shape[0])
    if np.any(counts > 2):
        raise ValueError("non-conforming mesh: an edge is shared by more than two elements")
    edge_on_boundary = counts == 1

    # +1 iff the ccw local traversal runs from the lower to the higher vertex index
    signs = np.where(pairs[:, :, 0] < pairs[:, :, 1], 1, -1).astype(np.int64)

    vertex_on_boundary = np.zeros(vertices.shape[0], dtype=bool)
    vertex_on_boundary[edges[edge_on_boundary].ravel()] = True

    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return Mesh(
        vertices=vertices,
        elements=elements,
        edges=edges,
        element_edges=element_edges,
        element_edge_signs=signs,
        vertex_on_boundary=vertex_on_boundary,
        edge_on_boundary=edge_on_boundary,
        h_max=float(lengths.max()),
    )


def build_structured_mesh(n: int) -> Mesh:
    """n-by-n grid of squares on the unit square, each split along the
    diagonal from the lower-left to the upper-right corner.

    Yields 2*n**2 elements, (n+1)**2 vertices and 3*n**2 + 2*n edges with
    h_max = sqrt(2)/n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    coords = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack((xv.ravel(), yv.ravel()))

    def vid(i, j):
        return j * (n + 1) + i

    elements = []
    for j in range(n):
        for i in range(n):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            elements.append((a, b, c))
            elements.append((a, c, d))
    mesh = mesh_from_arrays(vertices, np.array(elements))
    if abs(mesh.signed_areas().sum() - 1.0) > 1e-12:
        raise RuntimeError("structured mesh does not tile the unit square")
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: split every triangle into four via the edge midpoints."""
    nv = mesh.n_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack((mesh.vertices, midpoints))

    e = mesh.elements
    m = nv + mesh.element_edges  # midpoint vertex of local edge l
    children = np.concatenate(
        [
            np.stack([e[:, 0], m[:, 0], m[:, 2]], axis=1),
            np.stack([m[:, 0], e[:, 1], m[:, 1]], axis=1),
            np.stack([m[:, 2], m[:, 1], e[:, 2]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ],
        axis=0,
    )
    return mesh_from_arrays(vertices, children)


def edge_orientation_sign(mesh: Mesh, element: int, local_edge: int) -> int:
    """Stored sign(n_K . n_e) for one local edge of one element."""
    if not 0 <= element < mesh.n_elements:
        raise IndexError(f"element index {element} out of range")
    if not 0 <= local_edge < 3:
        raise IndexError(f"local edge index {local_edge} out of range")
    return int(mesh.element_edge_signs[element, local_edge])
