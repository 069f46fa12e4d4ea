import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

from conftest import refine_uniform


def test_build_counts_one_square():
    mesh = build_structured_mesh(1)
    assert mesh.n_elements == 2
    assert mesh.n_vertices == 4
    assert mesh.n_edges == 5
    assert mesh.h_max == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_build_counts_two_by_two():
    # hand enumeration: 6 horizontal + 6 vertical + 4 diagonal edges
    mesh = build_structured_mesh(2)
    assert mesh.n_elements == 8
    assert mesh.n_vertices == 9
    assert mesh.n_edges == 16


def test_build_counts_formulas():
    for n in (1, 2, 3, 5):
        mesh = build_structured_mesh(n)
        assert mesh.n_elements == 2 * n**2
        assert mesh.n_vertices == (n + 1) ** 2
        assert mesh.n_edges == 3 * n**2 + 2 * n
        assert mesh.h_max == pytest.approx(np.sqrt(2.0) / n, abs=1e-14)


def test_build_rejects_zero():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_total_area_is_one():
    mesh = build_structured_mesh(4)
    assert abs(mesh.signed_areas().sum() - 1.0) <= 1e-12


def test_elements_counterclockwise():
    mesh = build_structured_mesh(3)
    assert np.all(mesh.signed_areas() > 0.0)


def test_conformity_edge_sharing():
    mesh = build_structured_mesh(3)
    counts = np.bincount(mesh.element_edges.ravel(), minlength=mesh.n_edges)
    assert np.array_equal(np.isin(counts, (1, 2)), np.ones(mesh.n_edges, dtype=bool))
    assert np.array_equal(counts == 1, mesh.edge_on_boundary)


def test_refine_element_count():
    assert refine_uniform(build_structured_mesh(1)).n_elements == 8


def test_refine_matches_build_counts():
    refined = refine_uniform(build_structured_mesh(2))
    direct = build_structured_mesh(4)
    assert refined.n_elements == direct.n_elements
    assert refined.n_vertices == direct.n_vertices
    assert refined.n_edges == direct.n_edges
    assert refined.edge_on_boundary.sum() == direct.edge_on_boundary.sum()


def test_refine_halves_h_max():
    mesh = build_structured_mesh(3)
    refined = refine_uniform(mesh)
    assert abs(refined.h_max - mesh.h_max / 2) <= 1e-14


def test_refine_preserves_invariants():
    mesh = refine_uniform(refine_uniform(build_structured_mesh(2)))
    assert np.all(mesh.signed_areas() > 0.0)
    assert abs(mesh.signed_areas().sum() - 1.0) <= 1e-12
    counts = np.bincount(mesh.element_edges.ravel(), minlength=mesh.n_edges)
    assert set(np.unique(counts)) <= {1, 2}
    base = build_structured_mesh(2)
    assert mesh.edge_on_boundary.sum() == 4 * base.edge_on_boundary.sum()


def test_interior_edge_signs_opposite():
    mesh = build_structured_mesh(3)
    seen = {}
    for e in range(mesh.n_elements):
        for l in range(3):
            edge = mesh.element_edges[e, l]
            seen.setdefault(edge, []).append(mesh.element_edge_signs[e, l])
    for edge, signs in seen.items():
        if not mesh.edge_on_boundary[edge]:
            assert signs[0] == -signs[1]
        else:
            assert len(signs) == 1


def _geometric_sign(mesh, element, local_edge):
    tri = mesh.vertices[mesh.elements[element]]
    a = tri[local_edge]
    b = tri[(local_edge + 1) % 3]
    tangent = b - a
    outward = np.array([tangent[1], -tangent[0]])  # ccw element: interior on the left
    edge = mesh.edges[mesh.element_edges[element, local_edge]]
    global_normal = mesh.edge_normals()[mesh.element_edges[element, local_edge]]
    return int(np.sign(outward @ global_normal)), edge


def test_signs_match_geometric_recomputation():
    for mesh in (build_structured_mesh(3), refine_uniform(build_structured_mesh(2))):
        for e in range(mesh.n_elements):
            for l in range(3):
                expected, _ = _geometric_sign(mesh, e, l)
                assert mesh.element_edge_signs[e, l] == expected


def test_boundary_normal_points_outward():
    mesh = build_structured_mesh(2)
    normals = mesh.edge_normals()
    centroids = mesh.vertices[mesh.elements].mean(axis=1)
    for e in range(mesh.n_elements):
        for l in range(3):
            edge = mesh.element_edges[e, l]
            if not mesh.edge_on_boundary[edge]:
                continue
            sign = mesh.element_edge_signs[e, l]
            midpoint = mesh.vertices[mesh.edges[edge]].mean(axis=0)
            assert sign * normals[edge] @ (midpoint - centroids[e]) > 0.0


def test_closed_surface_identity():
    # sum over the element boundary of sign * length * n_e vanishes, exactly
    # representable with one-point edge quadrature
    mesh = refine_uniform(build_structured_mesh(2))
    normals = mesh.edge_normals()
    lengths = mesh.edge_lengths()
    for e in range(mesh.n_elements):
        total = np.zeros(2)
        for l in range(3):
            edge = mesh.element_edges[e, l]
            total += mesh.element_edge_signs[e, l] * lengths[edge] * normals[edge]
        assert np.abs(total).max() <= 1e-14


def test_mesh_from_arrays_rejects_clockwise():
    with pytest.raises(ValueError):
        mesh_from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_from_arrays_rejects_non_finite_vertices(bad):
    # a NaN signed area is not <= 0, so the orientation test alone lets it pass
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    vertices[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        mesh_from_arrays(vertices, [[0, 1, 2], [1, 3, 2]])


def _connectivity_by_rows(elements):
    """Edges and element edges by np.unique over the (lo, hi) rows, the
    construction that mesh_from_arrays replaced with a 1-D key."""
    pairs = np.stack([elements, np.roll(elements, -1, axis=1)], axis=2)
    lo_hi = np.sort(pairs.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(lo_hi, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1, 3)


def _mesh_by_loops(n):
    """Every Mesh array of the structured mesh as built by a double loop over
    the squares and row-wise np.unique."""
    coords = np.linspace(0.0, 1.0, n + 1)
    xv, yv = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack((xv.ravel(), yv.ravel()))
    elements = []
    for j in range(n):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = (j + 1) * (n + 1) + i + 1, (j + 1) * (n + 1) + i
            elements.append((a, b, c))
            elements.append((a, c, d))
    elements = np.array(elements)
    edges, element_edges = _connectivity_by_rows(elements)
    counts = np.bincount(element_edges.ravel(), minlength=len(edges))
    vertex_on_boundary = np.zeros(len(vertices), dtype=bool)
    vertex_on_boundary[edges[counts == 1].ravel()] = True
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    return dict(vertices=vertices, elements=elements, edges=edges, element_edges=element_edges,
                element_edge_signs=np.where(elements < np.roll(elements, -1, axis=1), 1, -1),
                vertex_on_boundary=vertex_on_boundary, edge_on_boundary=counts == 1,
                h_max=float(lengths.max()))


@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_structured_mesh_equals_the_loop_construction(n):
    mesh = build_structured_mesh(n)
    for name, expected in _mesh_by_loops(n).items():
        got = getattr(mesh, name)
        assert np.array_equal(got, expected), name
        assert np.asarray(got).dtype == np.asarray(expected).dtype, name


def test_mesh_from_arrays_rejects_out_of_range_vertex_indices():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    for bad in ([[0, 1, 3]], [[-1, 0, 1]]):
        with pytest.raises(ValueError, match="vertex indices"):
            mesh_from_arrays(vertices, bad)


def _check_mesh_invariants(mesh):
    edges, element_edges = _connectivity_by_rows(mesh.elements)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.element_edges, element_edges)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    local = np.stack([mesh.elements, np.roll(mesh.elements, -1, axis=1)], axis=2)
    assert np.array_equal(mesh.edges[mesh.element_edges], np.sort(local, axis=2))
    assert np.array_equal(mesh.element_edge_signs == 1, local[..., 0] < local[..., 1])
    counts = np.bincount(mesh.element_edges.ravel(), minlength=mesh.n_edges)
    assert np.all((counts == 1) | (counts == 2))
    assert np.array_equal(mesh.edge_on_boundary, counts == 1)
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.edges[mesh.edge_on_boundary].ravel()] = True
    assert np.array_equal(mesh.vertex_on_boundary, on_boundary)
    assert np.all(mesh.signed_areas() > 0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_relabelled_structured_meshes_keep_their_invariants(n, seed):
    # a conforming mesh with its vertices relabelled, its elements reordered
    # and each element's vertices rotated is the same triangulation
    rng = np.random.default_rng(seed)
    base = build_structured_mesh(n)
    label = rng.permutation(base.n_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[label] = base.vertices
    shift = rng.integers(0, 3, base.n_elements)
    rotated = np.take_along_axis(base.elements, (np.arange(3) + shift[:, None]) % 3, axis=1)
    elements = label[rotated][rng.permutation(base.n_elements)]
    mesh = mesh_from_arrays(vertices, elements)
    _check_mesh_invariants(mesh)
    assert mesh.n_edges == base.n_edges
    assert mesh.edge_on_boundary.sum() == 4 * n
    x, y = mesh.vertices.T
    assert np.array_equal(mesh.vertex_on_boundary, (x * (1 - x) * y * (1 - y)) == 0.0)
    assert mesh.h_max == base.h_max
    # a repeated element puts a third element on its interior edge
    with pytest.raises(ValueError, match="non-conforming"):
        mesh_from_arrays(vertices, np.vstack([elements, elements[rng.integers(len(elements))]]))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=7,
                       unique=True),
       triples=st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=8))
def test_random_triangle_lists_are_accepted_only_when_conforming(points, triples):
    # arbitrary triangle lists: mesh_from_arrays either rejects them with a
    # ValueError or returns a mesh with consistent connectivity
    vertices = np.array(points, dtype=float)
    elements = np.array(triples)
    try:
        mesh = mesh_from_arrays(vertices, elements)
    except ValueError:
        in_range = elements.max() < len(vertices)
        if in_range:
            v = vertices[elements]
            d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
            areas = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
            if np.all(areas > 0.0):
                _, element_edges = _connectivity_by_rows(elements)
                assert np.bincount(element_edges.ravel()).max() > 2
        return
    _check_mesh_invariants(mesh)
