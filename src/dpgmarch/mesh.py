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
        return _signed_areas(self.vertices[self.elements])


def _signed_areas(corners: np.ndarray) -> np.ndarray:
    """Signed areas of triangles with corners (ne, 3, 2), positive when
    counterclockwise."""
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
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
    n_vertices = vertices.shape[0]
    if elements.size and (elements.min() < 0 or elements.max() >= n_vertices):
        raise ValueError(f"element vertex indices must lie in [0, {n_vertices})")

    areas = _signed_areas(vertices[elements])
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise ValueError(f"element {bad} is degenerate or clockwise (signed area {areas[bad]:.3e})")

    # local edge l = (v_l, v_{l+1}); identify undirected edges by the key
    # lo * n_vertices + hi, whose order is the lexicographic order of (lo, hi)
    start, end = elements, np.roll(elements, -1, axis=1)
    keys = np.minimum(start, end) * n_vertices + np.maximum(start, end)
    keys, inverse = np.unique(keys, return_inverse=True)
    edges = np.column_stack(np.divmod(keys, n_vertices))
    element_edges = inverse.reshape(-1, 3)

    counts = np.bincount(element_edges.ravel(), minlength=edges.shape[0])
    if np.any(counts > 2):
        raise ValueError("non-conforming mesh: an edge is shared by more than two elements")
    edge_on_boundary = counts == 1

    # +1 iff the ccw local traversal runs from the lower to the higher vertex index
    signs = np.where(start < end, 1, -1).astype(np.int64)

    vertex_on_boundary = np.zeros(n_vertices, dtype=bool)
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

    # square (i, j) has lower-left vertex a = j (n+1) + i and yields the
    # triangles (a, b, c), (a, c, d), b = a + 1, c = a + n + 2, d = a + n + 1
    a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)[None, :]).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    elements = np.stack([np.column_stack((a, b, c)), np.column_stack((a, c, d))], axis=1)
    mesh = mesh_from_arrays(vertices, elements.reshape(-1, 3))
    if abs(mesh.signed_areas().sum() - 1.0) > 1e-12:
        raise RuntimeError("structured mesh does not tile the unit square")
    return mesh

