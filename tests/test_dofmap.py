import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgmarch.assembly import PdeCoefficients, gram_factors
from dpgmarch.basis import lagrange_edge
from dpgmarch.dofmap import build_dofmap
from dpgmarch.mesh import build_structured_mesh

from conftest import refine_uniform


def _test_space_dimension(mesh, p):
    """Side of the element Gram blocks: the broken test space per element."""
    coeffs = PdeCoefficients(A=np.eye(2), beta=np.zeros(2), gamma=0.0, k=0.1, T_end=1.0)
    factors = gram_factors(mesh, p, coeffs)
    assert len(factors.cls) == mesh.n_elements
    return factors.chol.shape[1]


def test_counts_two_by_two_p0():
    # hand enumeration: single interior vertex at (0.5, 0.5), one trace per edge
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    assert dofmap.n_field == 1
    assert dofmap.n_trace == 16
    assert np.allclose(dofmap.field_dof_coords[0], [0.5, 0.5])


def test_counts_coarsest_p0():
    mesh = build_structured_mesh(1)
    dofmap = build_dofmap(mesh, 0)
    assert dofmap.n_field == 0
    assert dofmap.n_trace == 5


def test_counts_formulas_p0():
    for n in (2, 3, 4):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        assert dofmap.n_field == (n - 1) ** 2
        assert dofmap.n_trace == 3 * n**2 + 2 * n
        assert _test_space_dimension(mesh, 0) == 6


def test_test_space_dimension_p1():
    mesh = build_structured_mesh(2)
    assert _test_space_dimension(mesh, 1) == 10  # dim P^3


def test_counts_p1():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 1)
    interior_edges = int((~mesh.edge_on_boundary).sum())
    assert dofmap.n_field == 1 + interior_edges
    assert dofmap.n_trace == 2 * mesh.n_edges
    assert dofmap.element_field_dofs.shape == (mesh.n_elements, 6)


def test_boundary_field_dofs_eliminated():
    mesh = build_structured_mesh(3)
    for p in (0, 1):
        dofmap = build_dofmap(mesh, p)
        assert np.all(dofmap.vertex_field_dof[mesh.vertex_on_boundary] == -1)
        coords = dofmap.field_dof_coords
        on_boundary = (coords == 0.0) | (coords == 1.0)
        assert not np.any(on_boundary)


def test_deterministic_vertex_numbering():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    interior = np.flatnonzero(~mesh.vertex_on_boundary)
    assert np.array_equal(dofmap.vertex_field_dof[interior], np.arange(interior.size))


def test_trace_dofs_cover_all_edges():
    mesh = build_structured_mesh(3)
    for p in (0, 1):
        dofmap = build_dofmap(mesh, p)
        assert dofmap.n_trace == (p + 1) * mesh.n_edges
        assert set(dofmap.element_trace_dofs.ravel()) == set(range(dofmap.n_trace))


def test_shared_edge_consistency():
    # both elements adjacent to an interior edge see the same trace unknowns
    # and evaluate the trace at matched physical points identically
    mesh = build_structured_mesh(2)
    p = 1
    dofmap = build_dofmap(mesh, p)
    rng = np.random.default_rng(7)
    sigma = rng.standard_normal(dofmap.n_trace)

    sightings = {}
    for e in range(mesh.n_elements):
        for l in range(3):
            sightings.setdefault(mesh.element_edges[e, l], []).append((e, l))

    params = np.array([0.2, 0.9])
    table = lagrange_edge(p, params)
    for edge, where in sightings.items():
        if mesh.edge_on_boundary[edge]:
            continue
        values = []
        for e, l in where:
            dofs = dofmap.element_trace_dofs[e, l * (p + 1):(l + 1) * (p + 1)]
            values.append(sigma[dofs] @ table.values)
        assert np.array_equal(where[0][0] != where[1][0], True)
        assert np.abs(values[0] - values[1]).max() <= 1e-15


def test_rejects_unsupported_order():
    mesh = build_structured_mesh(1)
    with pytest.raises(ValueError):
        build_dofmap(mesh, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), refinements=st.integers(0, 2), p=st.sampled_from([0, 1]))
def test_dofmap_invariants_under_refinement(n, refinements, p):
    mesh = build_structured_mesh(n)
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    dofmap = build_dofmap(mesh, p)

    # an N x N structured mesh has (N-1)^2 interior vertices and 3N^2 + 2N
    # edges, 4N of them on the boundary
    N = n * 2**refinements
    assert dofmap.n_field == (N - 1) ** 2 + p * (3 * N**2 - 2 * N)
    assert dofmap.n_trace == (p + 1) * (3 * N**2 + 2 * N)

    field = dofmap.element_field_dofs
    assert set(field[field >= 0]) == set(range(dofmap.n_field))
    assert set(dofmap.element_trace_dofs.ravel()) == set(range(dofmap.n_trace))

    traces = dofmap.element_trace_dofs.reshape(mesh.n_elements, 3, p + 1)
    sightings = {}
    for e, l in np.ndindex(mesh.n_elements, 3):
        sightings.setdefault(mesh.element_edges[e, l], []).append(traces[e, l])
    for edge, seen in sightings.items():
        assert len(seen) == (1 if mesh.edge_on_boundary[edge] else 2)
        assert all(np.array_equal(dofs, seen[0]) for dofs in seen)
