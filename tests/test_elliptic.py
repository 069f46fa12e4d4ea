import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpgmarch import elliptic
from dpgmarch.assembly import gather
from dpgmarch.basis import lagrange_triangle, triangle_rule, triangle_table
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import build_projection_system, exact_b_load, project
from dpgmarch.errors import _trace_residuals, eoc, field_error, trace_dual_error
from dpgmarch.linalg import lu_solve
from dpgmarch.mesh import build_structured_mesh

from conftest import (b_orthogonality_residual, discrete_b_load, norm_in_test_space, perturbed_mesh,
                      project_mixed, projection_load)


def _adr_exact():
    case = make_case("adr-decay", 0.1, 1.0)
    return case.coeffs, case.at(0.0)


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
    rhs = projection_load(system, exact_b_load(mesh, dofmap, coeffs, exact))
    solution = lu_solve(system.N, rhs)
    residual, scale = b_orthogonality_residual(system, rhs, solution)
    assert residual <= 1e-10 * scale


def test_mixed_system_matches_condensed_solve():
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    direct = project(mesh, dofmap, coeffs, exact)
    direct = np.concatenate([direct.field, direct.trace])
    _, via_mixed = project_mixed(mesh, dofmap, coeffs, exact_b_load(mesh, dofmap, coeffs, exact))
    deviation = np.abs(np.concatenate([via_mixed.field, via_mixed.trace]) - direct).max()
    assert deviation <= 1e-9 * np.abs(direct).max()


def test_mixed_residual_vanishes_for_representable_data():
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(1)
    data = rng.standard_normal(dofmap.n_dof)
    v, u = project_mixed(mesh, dofmap, coeffs, discrete_b_load(mesh, dofmap, coeffs, data))
    assert np.abs(np.concatenate([u.field, u.trace]) - data).max() <= 1e-9 * np.abs(data).max()
    assert np.abs(v).max() <= 1e-9 * np.abs(data).max()


def test_mixed_residual_controls_projection_error():
    # ||v_h||_{V,k} / |||u - u_h|||_k stays bounded across refinements
    coeffs, exact = _adr_exact()
    ratios = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        system = build_projection_system(mesh, dofmap, coeffs)
        v, u = project_mixed(mesh, dofmap, coeffs, exact_b_load(mesh, dofmap, coeffs, exact))
        v_norm = norm_in_test_space(system.blocks, v)
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


def test_mixed_rejects_loads_of_the_wrong_shape():
    # the transposed loads have the right size and would be read silently
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    loads = exact_b_load(mesh, dofmap, coeffs, exact)
    with pytest.raises(ValueError, match="element test loads"):
        project_mixed(mesh, dofmap, coeffs, loads.T)


def test_discrete_b_load_matches_matrix_action():
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    system = build_projection_system(mesh, dofmap, coeffs)
    rng = np.random.default_rng(2)
    data = rng.standard_normal(dofmap.n_dof)
    condensed = projection_load(system, discrete_b_load(mesh, dofmap, coeffs, data))
    assert np.abs(condensed - system.N @ data).max() <= 1e-12 * np.abs(condensed).max()


@pytest.mark.parametrize("extra", [1, -1])
def test_discrete_b_load_rejects_a_vector_of_the_wrong_length(extra):
    # one entry long was dropped silently; one entry short would read the
    # zero that pads the gather
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 1)
    with pytest.raises(ValueError, match="trial coefficient vector"):
        discrete_b_load(mesh, dofmap, coeffs, np.ones(dofmap.n_dof + extra))


@pytest.mark.parametrize("case_id,p", [("aniso", 1), ("adr-decay", 0)])
def test_projection_matches_a_default_splu_solve(case_id, p):
    # independent oracle for the symmetric-mode factor: scipy's default
    # splu (COLAMD, partial pivoting) on the same N and right-hand side
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, p)
    case = make_case(case_id, mesh.h_max, mesh.h_max)
    exact = case.at(0.0)
    system = build_projection_system(mesh, dofmap, case.coeffs)
    rhs = projection_load(system, exact_b_load(mesh, dofmap, case.coeffs, exact))
    expected = spla.splu(system.N.tocsc()).solve(rhs)
    got = project(mesh, dofmap, case.coeffs, exact)
    got = np.concatenate([got.field, got.trace])
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def test_projection_frees_the_element_blocks_before_the_solve(monkeypatch):
    # the element blocks are set-up temporaries: once the right-hand side is
    # built, only N and the load reach the factorization
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 1)
    case = make_case("aniso", 0.1, 1.0)
    refs, alive = [], []
    build, solve = elliptic.build_projection_system, elliptic.lu_solve

    def recording_build(*args):
        system = build(*args)
        refs.append(weakref.ref(system.blocks))
        return system

    def recording_solve(M, rhs):
        alive.append(refs[-1]() is not None)
        return solve(M, rhs)

    monkeypatch.setattr(elliptic, "build_projection_system", recording_build)
    monkeypatch.setattr(elliptic, "lu_solve", recording_solve)
    project(mesh, dofmap, case.coeffs, case.at(0.0))
    assert alive == [False]


def test_lu_solve_factors_in_symmetric_mode_with_minimum_degree(monkeypatch):
    # one regime for every matrix: N, with its nonzero diagonal, and a matrix
    # with a zero diagonal, whose pivots the 0.1 threshold takes off it
    calls = []
    splu = spla.splu

    def recording_splu(M, **kwargs):
        calls.append(kwargs)
        return splu(M, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    project(mesh, dofmap, coeffs, exact)
    lu_solve(np.array([[0.0, 2.0], [1.0, 0.0]]), np.ones(2))
    assert calls == [dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                          options={"SymmetricMode": True})] * 2


@pytest.mark.parametrize("p", [0, 1])
def test_reference_gradient_contractions_match_quadrature(p):
    # field_error (H1semi) and exact_b_load contract on the reference element;
    # the oracle forms every physical basis gradient at every quadrature point
    mesh = perturbed_mesh(4, seed=8)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.1, 1.0)
    coeffs, exact = case.coeffs, case.at(0.3)
    rule = triangle_rule(2 * (p + 2) + 2)
    v = mesh.vertices[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    invJ = np.linalg.inv(J)
    wdet = rule.weights[None, :] * np.linalg.det(J)[:, None]
    qp = v[:, 0, None, :] + np.einsum("eab,qb->eqa", J, rule.points)
    g = np.einsum("aeq->eqa", exact.grad_u(qp[..., 0], qp[..., 1]))

    field = lagrange_triangle(p + 1, rule.points)
    u = np.random.default_rng(9).standard_normal(dofmap.n_field)
    u_loc = gather(u, dofmap.element_field_dofs)
    field_grads = np.einsum("eba,jqb->ejqa", invJ, field.gradients)
    diff = g - np.einsum("ej,ejqa->eqa", u_loc, field_grads)
    h1 = np.sqrt(np.einsum("eqa,eqa,eq->", diff, diff, wdet))
    assert abs(field_error(mesh, dofmap, u, exact, "H1semi") - h1) <= 1e-13 * h1

    test = lagrange_triangle(p + 2, rule.points)
    test_grads = np.einsum("eba,mqb->emqa", invJ, test.gradients)
    advection = g @ coeffs.beta + coeffs.gamma * exact.u(qp[..., 0], qp[..., 1])
    loads = (np.einsum("emqa,ab,eqb,eq->em", test_grads, coeffs.A, g, wdet)
             + np.einsum("mq,eq,eq->em", test.values, advection, wdet)
             - _trace_residuals(mesh, dofmap, coeffs, np.zeros(dofmap.n_trace),
                                exact.grad_u))
    got = exact_b_load(mesh, dofmap, coeffs, exact)
    assert np.abs(got - loads).max() <= 1e-13 * np.abs(loads).max()


def test_projection_system_is_N_in_csc_and_the_element_blocks():
    # N is scattered straight into canonical CSC, the format the LU reads;
    # no block rows are kept for the load, only E_a^T per class in the blocks
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(4)
    system = build_projection_system(mesh, build_dofmap(mesh, 1), coeffs)
    assert vars(system).keys() == {"N", "blocks"}
    assert system.N.format == "csc" and system.N.has_canonical_format
    n_classes, nt, nc = system.blocks.B_a.shape
    assert system.blocks.Et.shape == (n_classes, nc, nt) and n_classes == 2


def test_a_projection_level_tabulates_no_edge_basis(monkeypatch):
    # the edge rule, the trace basis and the test basis along the edges are
    # tabulated once per degree and rule: a repeated level evaluates no basis
    # in the element blocks, the exact load or the trace error
    from dpgmarch import assembly

    case = make_case("aniso", 0.1, 1.0)
    exact = case.at(0.0)
    calls = []
    for module, name in ((assembly, "lagrange_triangle"), (assembly, "lagrange_edge")):
        tabulate = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, tabulate=tabulate: calls.append(args) or tabulate(*args))
    for n in (3, 4):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 1)
        calls.clear()
        misses = triangle_table.cache_info().misses
        system = build_projection_system(mesh, dofmap, case.coeffs)
        loads = exact_b_load(mesh, dofmap, case.coeffs, exact)
        projection_load(system, loads)
        trace_dual_error(mesh, dofmap, case.coeffs, np.zeros(dofmap.n_trace), exact.grad_u)
    assert calls == []
    assert triangle_table.cache_info().misses == misses
