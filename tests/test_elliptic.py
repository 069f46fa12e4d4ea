import numpy as np
import pytest

from dpgmarch.assembly import condense_element_loads
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import (b_orthogonality_residual, build_projection_system,
                               discrete_b_load, exact_b_load, project, project_mixed)
from dpgmarch.errors import SpatialFields, eoc, field_error, trace_dual_error
from dpgmarch.linalg import lu_solve
from dpgmarch.mesh import build_structured_mesh

from conftest import norm_in_test_space


def _adr_exact():
    case = make_case("adr-decay", 0.1, 1.0)
    u_fn, grad_fn = case.spatial_u(0.0)
    return case.coeffs, SpatialFields(u=u_fn, grad_u=grad_fn)


def test_projection_reproduces_discrete_data():
    # unique solvability makes the projection the identity on the trial space
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = build_projection_system(mesh, dofmap, coeffs)
    rng = np.random.default_rng(0)
    data = rng.standard_normal(dofmap.n_dof)
    recovered = lu_solve(system.N, system.N @ data)
    assert np.abs(recovered - data).max() <= 1e-9 * np.abs(data).max()


def test_galerkin_orthogonality_residual():
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = build_projection_system(mesh, dofmap, coeffs)
    rhs = condense_element_loads(system.blocks, exact_b_load(mesh, dofmap, coeffs, exact))
    solution = lu_solve(system.N, rhs)
    residual, scale = b_orthogonality_residual(system, rhs, solution)
    assert residual <= 1e-10 * scale


def test_mixed_system_matches_condensed_solve():
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    direct = project(mesh, dofmap, coeffs, exact).as_vector()
    _, via_mixed = project_mixed(mesh, dofmap, coeffs, exact=exact)
    deviation = np.abs(via_mixed.as_vector() - direct).max()
    assert deviation <= 1e-9 * np.abs(direct).max()


def test_mixed_residual_vanishes_for_representable_data():
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(1)
    data = rng.standard_normal(dofmap.n_dof)
    v, u = project_mixed(mesh, dofmap, coeffs, discrete_data=data)
    assert np.abs(u.as_vector() - data).max() <= 1e-9 * np.abs(data).max()
    assert np.abs(v.values).max() <= 1e-9 * np.abs(data).max()


def test_mixed_residual_controls_projection_error():
    # ||v_h||_{V,k} / |||u - u_h|||_k stays bounded across refinements
    coeffs, exact = _adr_exact()
    ratios = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        system = build_projection_system(mesh, dofmap, coeffs)
        v, u = project_mixed(mesh, dofmap, coeffs, exact=exact)
        v_norm = norm_in_test_space(system.blocks, v.values)
        h1_part = field_error(mesh, dofmap, u.field, exact, "H1semi")
        trace_part = trace_dual_error(mesh, dofmap, coeffs, u.trace, exact.grad_u)
        enorm = np.hypot(h1_part, trace_part)
        ratios.append(v_norm / enorm)
    assert max(ratios) / min(ratios) < 5.0


def test_projection_rates_h1_and_l2():
    coeffs, exact = _adr_exact()
    errs_h1, errs_l2, hs = [], [], []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        result = project(mesh, dofmap, coeffs, exact)
        errs_h1.append(field_error(mesh, dofmap, result.field, exact, "H1semi"))
        errs_l2.append(field_error(mesh, dofmap, result.field, exact, "L2"))
        hs.append(mesh.h_max)
    assert eoc(errs_h1, hs)[-1] >= 0.85
    assert eoc(errs_l2, hs)[-1] >= 1.85  # L2 superconvergence


def test_projection_rates_second_order_elements():
    # p = 1: field degree 2 gives H1 rate p+1 = 2 and L2 rate p+2 = 3
    coeffs, exact = _adr_exact()
    errs_h1, errs_l2, hs = [], [], []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 1)
        result = project(mesh, dofmap, coeffs, exact)
        errs_h1.append(field_error(mesh, dofmap, result.field, exact, "H1semi"))
        errs_l2.append(field_error(mesh, dofmap, result.field, exact, "L2"))
        hs.append(mesh.h_max)
    assert eoc(errs_h1, hs)[-1] >= 1.85
    assert eoc(errs_l2, hs)[-1] >= 2.85


def test_projection_energy_quasi_optimality():
    # projection H1 error within a bounded factor of the interpolation error
    coeffs, exact = _adr_exact()
    from dpgmarch.timestep import initial_field

    ratios = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        result = project(mesh, dofmap, coeffs, exact)
        projected = field_error(mesh, dofmap, result.field, exact, "H1semi")
        interp = initial_field(exact.u, dofmap, mesh)
        best_proxy = field_error(mesh, dofmap, interp.field, exact, "H1semi")
        ratios.append(projected / best_proxy)
    assert max(ratios) <= 3.0
    assert max(ratios) / min(ratios) < 2.0


def test_mixed_rejects_ambiguous_data():
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    with pytest.raises(ValueError):
        project_mixed(mesh, dofmap, coeffs)
    with pytest.raises(ValueError):
        project_mixed(mesh, dofmap, coeffs, exact=exact,
                      discrete_data=np.zeros(dofmap.n_dof))


def test_discrete_b_load_matches_matrix_action():
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    system = build_projection_system(mesh, dofmap, coeffs)
    rng = np.random.default_rng(2)
    data = rng.standard_normal(dofmap.n_dof)
    condensed = condense_element_loads(system.blocks, discrete_b_load(system.blocks, data))
    assert np.abs(condensed - system.N @ data).max() <= 1e-12 * np.abs(condensed).max()
