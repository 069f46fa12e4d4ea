import numpy as np
import pytest

from dpgmarch.mesh import (build_structured_mesh, edge_orientation_sign,
                           mesh_from_arrays, refine_uniform)


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
                assert edge_orientation_sign(mesh, e, l) == expected


def test_boundary_normal_points_outward():
    mesh = build_structured_mesh(2)
    normals = mesh.edge_normals()
    centroids = mesh.vertices[mesh.elements].mean(axis=1)
    for e in range(mesh.n_elements):
        for l in range(3):
            edge = mesh.element_edges[e, l]
            if not mesh.edge_on_boundary[edge]:
                continue
            sign = edge_orientation_sign(mesh, e, l)
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


def test_edge_orientation_sign_bounds():
    mesh = build_structured_mesh(1)
    with pytest.raises(IndexError):
        edge_orientation_sign(mesh, mesh.n_elements, 0)
    with pytest.raises(IndexError):
        edge_orientation_sign(mesh, 0, 3)


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
