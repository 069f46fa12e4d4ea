import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpgmarch import elliptic
from dpgmarch.assembly import gather
from dpgmarch.basis import lagrange_triangle, triangle_rule
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import (build_projection_system, condense_element_loads, discrete_b_load,
                               exact_b_load, project, project_mixed)
from dpgmarch.errors import SpatialFields, _trace_residuals, eoc, field_error, trace_dual_error
from dpgmarch.linalg import lu_solve
from dpgmarch.mesh import build_structured_mesh

from conftest import b_orthogonality_residual, norm_in_test_space, perturbed_mesh


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
    rhs = condense_element_loads(system, exact_b_load(mesh, dofmap, coeffs, exact))
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
    assert np.abs(v).max() <= 1e-9 * np.abs(data).max()


def test_mixed_residual_controls_projection_error():
    # ||v_h||_{V,k} / |||u - u_h|||_k stays bounded across refinements
    coeffs, exact = _adr_exact()
    ratios = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        system = build_projection_system(mesh, dofmap, coeffs)
        v, u = project_mixed(mesh, dofmap, coeffs, exact=exact)
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
    condensed = condense_element_loads(system, discrete_b_load(system.blocks, data))
    assert np.abs(condensed - system.N @ data).max() <= 1e-12 * np.abs(condensed).max()


@pytest.mark.parametrize("extra", [1, -1])
def test_discrete_b_load_rejects_a_vector_of_the_wrong_length(extra):
    # one entry long was dropped silently; one entry short would read the
    # zero that pads the gather
    coeffs, _ = _adr_exact()
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 1)
    blocks = build_projection_system(mesh, dofmap, coeffs).blocks
    with pytest.raises(ValueError, match="trial coefficient vector"):
        discrete_b_load(blocks, np.ones(dofmap.n_dof + extra))


@pytest.mark.parametrize("case_id,p", [("aniso", 1), ("adr-decay", 0)])
def test_projection_matches_a_default_splu_solve(case_id, p):
    # independent oracle for the symmetric-mode factor: scipy's default
    # splu (COLAMD, partial pivoting) on the same N and right-hand side
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, p)
    case = make_case(case_id, mesh.h_max, mesh.h_max)
    exact = SpatialFields(*case.spatial_u(0.0))
    system = build_projection_system(mesh, dofmap, case.coeffs)
    rhs = condense_element_loads(system,
                                 exact_b_load(mesh, dofmap, case.coeffs, exact))
    expected = spla.splu(system.N.tocsc()).solve(rhs)
    got = project(mesh, dofmap, case.coeffs, exact).as_vector()
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
    project(mesh, dofmap, case.coeffs, SpatialFields(*case.spatial_u(0.0)))
    assert alive == [False]


def test_sparse_pivoting_regime_follows_the_diagonal(monkeypatch):
    # N has a nonzero diagonal and is factored in symmetric mode; the saddle
    # matrix of the mixed form has a zero (2,2) block and keeps partial pivoting
    calls = []
    splu = spla.splu

    def recording_splu(M, **kwargs):
        calls.append((bool(np.all(M.diagonal() != 0.0)),
                      kwargs.get("options", {}).get("SymmetricMode", False)))
        return splu(M, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    coeffs, exact = _adr_exact()
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    project(mesh, dofmap, coeffs, exact)
    project_mixed(mesh, dofmap, coeffs, exact=exact)
    assert calls == [(True, True), (False, False)]


@pytest.mark.parametrize("p", [0, 1])
def test_reference_gradient_contractions_match_quadrature(p):
    # field_error (H1semi) and exact_b_load contract on the reference element;
    # the oracle forms every physical basis gradient at every quadrature point
    mesh = perturbed_mesh(4, seed=8)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.1, 1.0)
    coeffs, exact = case.coeffs, SpatialFields(*case.spatial_u(0.3))
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
