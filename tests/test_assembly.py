import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpgmarch.assembly import (PdeCoefficients, _build_blocks, _cholesky_blocks,
                               assemble_condensed, condense_load, gram_blocks,
                               volume_quadrature)
from dpgmarch.basis import lagrange_triangle, triangle_rule
from dpgmarch.dofmap import build_dofmap
from dpgmarch.linalg import SolverError
from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

from conftest import (apply_trial_to_test, embed_field_in_test, field_quadratic_forms,
                      integrate_on_reference_triangle)


def reference_triangle_mesh(scale=1.0):
    return mesh_from_arrays(scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            [[0, 1, 2]])


def coeffs_with(A=None, beta=None, gamma=0.0, k=0.1, T_end=None):
    return PdeCoefficients(
        A=np.eye(2) if A is None else A,
        beta=np.zeros(2) if beta is None else np.asarray(beta, dtype=float),
        gamma=gamma, k=k, T_end=k if T_end is None else T_end,
    )


def test_coefficient_validation():
    with pytest.raises(ValueError):
        coeffs_with(A=np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        coeffs_with(A=np.array([[1.0, 0.0], [0.0, -1.0]]))  # not positive definite
    with pytest.raises(ValueError):
        coeffs_with(gamma=-0.5)
    with pytest.raises(ValueError):
        coeffs_with(k=0.0)
    with pytest.raises(ValueError):
        coeffs_with(k=2.0, T_end=1.0)


@pytest.mark.parametrize("bad", [
    {"A": np.array([[np.inf, 0.0], [0.0, 1.0]])},
    {"beta": [np.nan, 0.0]},
    {"gamma": np.nan},
    {"gamma": np.inf},
])
def test_coefficient_validation_rejects_non_finite_data(bad):
    with pytest.raises(ValueError, match="finite"):
        coeffs_with(**bad)


def test_gram_constant_test_function():
    # the all-ones coefficient vector is the constant 1 by partition of unity,
    # so 1^T G 1 = |K| / k
    mesh = build_structured_mesh(2)
    coeffs = coeffs_with(k=0.25)
    gram = gram_blocks(mesh, 0, coeffs)[3]
    area = mesh.signed_areas()[3]
    ones = np.ones(gram.shape[0])
    assert ones @ gram @ ones == pytest.approx(area / coeffs.k, rel=1e-13)


def test_gram_matches_symbolic_on_reference_triangle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    mesh = reference_triangle_mesh()
    gram = gram_blocks(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]

    from dpgmarch.basis import triangle_nodes
    nodes = [(sympy.nsimplify(px), sympy.nsimplify(py)) for px, py in triangle_nodes(2)]
    exps = [(t - b, b) for t in range(3) for b in range(t + 1)]
    vand = sympy.Matrix([[px**a * py**b for a, b in exps] for px, py in nodes])
    coeff = vand.inv()
    basis = [sum(coeff[m, j] * x ** exps[m][0] * y ** exps[m][1] for m in range(6))
             for j in range(6)]
    exact = np.empty((6, 6))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            integrand = bi * bj + bi.diff(x) * bj.diff(x) + bi.diff(y) * bj.diff(y)
            exact[i, j] = float(integrate_on_reference_triangle(integrand, x, y))
    assert np.abs(gram - exact).max() <= 1e-12


def test_gram_linear_in_inverse_timestep():
    mesh = build_structured_mesh(2)
    g1 = gram_blocks(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]
    g2 = gram_blocks(mesh, 0, coeffs_with(k=0.5, T_end=1.0))[0]
    g4 = gram_blocks(mesh, 0, coeffs_with(k=0.25, T_end=1.0))[0]
    assert np.abs((g4 - g2) - 2.0 * (g2 - g1)).max() <= 1e-12 * np.abs(g4).max()


def test_gram_scaling_under_coordinate_scaling():
    # mass scales with s^2, the 2D stiffness is scale invariant
    s = 1.7
    k = 0.3
    gram = gram_blocks(reference_triangle_mesh(), 0, coeffs_with(k=k, T_end=1.0))[0]
    gram_big = gram_blocks(reference_triangle_mesh(1.0), 0, coeffs_with(k=1.0, T_end=1.0))[0]
    mass = gram_big - local_gram_stiffness_part()
    scaled = gram_blocks(reference_triangle_mesh(s), 0, coeffs_with(k=k, T_end=1.0))[0]
    expected = (s**2 / k) * mass + (gram_big - mass)
    assert np.abs(scaled - expected).max() <= 1e-12 * np.abs(expected).max()


def local_gram_stiffness_part():
    # G(k) = M/k + K  =>  M = G(1/2) - G(1), K = G(1) - M
    mesh = reference_triangle_mesh()
    g1 = gram_blocks(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]
    g_half = gram_blocks(mesh, 0, coeffs_with(k=0.5, T_end=1.0))[0]
    mass = g_half - g1
    return g1 - mass


def test_trial_to_test_pure_gradient_rows_vanish():
    # beta = 0, gamma = 0: testing the field block against the constant 1
    # leaves only the gradient term, which vanishes
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    B = assemble_condensed(mesh, dofmap, coeffs_with()).blocks.B_b[1]
    ones = np.ones(B.shape[0])
    assert np.abs(ones @ B[:, :3]).max() <= 1e-13


def test_trial_to_test_form_difference_is_mass():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with(beta=[1.0, 0.5], gamma=1.0, k=0.2)
    blocks = assemble_condensed(mesh, dofmap, coeffs).blocks
    Ba, Bb = blocks.B_a[2], blocks.B_b[2]
    diff = Ba - Bb
    assert np.abs(diff[:, 3:]).max() == 0.0  # trace columns unchanged

    rule = triangle_rule(6)
    test_tab = lagrange_triangle(2, rule.points)
    field_tab = lagrange_triangle(1, rule.points)
    tri = mesh.element_coords(2)
    J = np.column_stack((tri[1] - tri[0], tri[2] - tri[0]))
    det = np.linalg.det(J)
    mass = np.einsum("mq,jq,q->mj", test_tab.values, field_tab.values, rule.weights) * det
    assert np.abs(diff[:, :3] - mass / coeffs.k).max() <= 1e-13 * np.abs(mass).max()


def test_trace_columns_telescope_for_constant_flux():
    # sigma the normal trace of a constant field: <sigma, 1>_K = 0
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    normals = mesh.edge_normals()
    sigma0 = np.array([0.3, -1.2])
    B_b = assemble_condensed(mesh, dofmap, coeffs_with()).blocks.B_b
    for element in range(mesh.n_elements):
        B = B_b[element]
        local_edges = mesh.element_edges[element]
        sigma_loc = normals[local_edges] @ sigma0
        ones = np.ones(B.shape[0])
        assert abs(ones @ B[:, 3:] @ sigma_loc) <= 1e-13


def test_coarsest_system_rank():
    # 0 field + 5 trace unknowns; the enriched test space makes the trace
    # pairing injective, so S is positive definite even without a gauge
    mesh = build_structured_mesh(1)
    dofmap = build_dofmap(mesh, 0)
    with pytest.warns(RuntimeWarning):
        system = assemble_condensed(mesh, dofmap, coeffs_with(k=0.01, T_end=1.0))
    S = system.S.toarray()
    assert S.shape == (5, 5)
    assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
    eigenvalues = np.linalg.eigvalsh(S)
    assert eigenvalues.min() > 0.0


def test_condensed_symmetry():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0))
    S = system.S
    asym = abs(S - S.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-12 * abs(S).max()


def test_timestep_regime_warning():
    mesh = build_structured_mesh(1)
    dofmap = build_dofmap(mesh, 0)
    with pytest.warns(RuntimeWarning, match="trace-norm"):
        assemble_condensed(mesh, dofmap, coeffs_with(k=1e-4, T_end=1.0))


def test_coercivity_bound(adr_coeffs):
    # (1/k) ||u||^2 + ||A^(1/2) grad u||^2 <= u^T S u for 100 random samples
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(11)
    for k in (1.0, 0.01):
        coeffs = PdeCoefficients(A=adr_coeffs.A, beta=adr_coeffs.beta,
                                 gamma=adr_coeffs.gamma, k=k, T_end=1.0)
        system = assemble_condensed(mesh, dofmap, coeffs)
        mass, stiff = field_quadratic_forms(mesh, dofmap, coeffs.A)
        for _ in range(100):
            x = rng.standard_normal(dofmap.n_dof)
            u = x[:dofmap.n_field]
            lhs = (u @ mass @ u) / k + u @ stiff @ u
            assert lhs <= x @ (system.S @ x) + 1e-10


def test_heat_case_theta_identity(heat_coeffs):
    # A = I, beta = 0, gamma = 0: the optimal test function of (u_h, 0) is u_h
    for p in (0, 1):
        mesh = build_structured_mesh(3)
        dofmap = build_dofmap(mesh, p)
        system = assemble_condensed(mesh, dofmap, heat_coeffs)
        rng = np.random.default_rng(5)
        x = np.zeros(dofmap.n_dof)
        x[:dofmap.n_field] = rng.standard_normal(dofmap.n_field)
        theta = apply_trial_to_test(system, x)
        u_loc = system.blocks.gather_local(x)[:, :dofmap.n_field_local]
        embedded = np.einsum("ej,jm->em", u_loc, embed_field_in_test(p))
        assert np.abs(theta - embedded).max() <= 1e-11


def test_trace_annihilation(adr_coeffs):
    # <sigma_h, w>_S = 0 for conforming w with zero boundary values
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, adr_coeffs)
    rng = np.random.default_rng(13)
    sigma = rng.standard_normal(dofmap.n_trace)
    w = np.zeros(dofmap.n_dof)
    w[:dofmap.n_field] = rng.standard_normal(dofmap.n_field)
    w_loc = system.blocks.gather_local(w)[:, :dofmap.n_field_local]
    w_test = np.einsum("ej,jm->em", w_loc, embed_field_in_test(0))
    trace_block = system.blocks.B_b[:, :, dofmap.n_field_local:]
    sigma_loc = sigma[dofmap.element_trace_dofs]
    pairing = -np.einsum("emr,er,em->", trace_block, sigma_loc, w_test)
    scale = np.abs(sigma).max() * np.abs(w).max() * mesh.n_elements
    assert abs(pairing) <= 1e-12 * scale


def test_condense_load_zero():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with()
    system = assemble_condensed(mesh, dofmap, coeffs)
    rhs = condense_load(system.blocks, None, np.zeros(dofmap.n_field), coeffs)
    assert np.all(rhs == 0.0)


def test_local_load_constant_source():
    # g = 1 against the constant test function gives the element area
    from dpgmarch.assembly import local_test_loads

    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with()
    system = assemble_condensed(mesh, dofmap, coeffs)
    loads = local_test_loads(system.blocks, lambda x, y: np.ones_like(x), None, coeffs)
    areas = mesh.signed_areas()
    assert np.abs(loads.sum(axis=1) - areas).max() <= 1e-14


def test_cg_converges_on_condensed_system():
    # positive definiteness in action: no negative curvature on build(4)
    from dpgmarch.linalg import cg_solve

    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0))
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(dofmap.n_dof)
    for precond in (None, system.precond):  # Jacobi, then the march's factor
        x, iterations = cg_solve(system.S, rhs, precond=precond)
        assert iterations >= 1
        assert np.linalg.norm(system.S @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_condense_load_mass_path_matches_function_path():
    # feeding the previous field through the mass block must equal feeding it
    # as a pointwise source scaled by 1/k (exact for polynomial data)
    from dpgmarch.errors import evaluate_field

    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with(beta=[1.0, 0.5], gamma=1.0, k=0.2)
    system = assemble_condensed(mesh, dofmap, coeffs)
    rng = np.random.default_rng(23)
    w = rng.standard_normal(dofmap.n_field)

    via_mass = condense_load(system.blocks, None, w, coeffs)
    via_func = condense_load(
        system.blocks,
        lambda x, y: evaluate_field(mesh, dofmap, w, x, y) / coeffs.k,
        None, coeffs)
    assert np.abs(via_mass - via_func).max() <= 1e-12 * np.abs(via_mass).max()


def test_volume_quadrature_repeats_the_same_arrays():
    mesh = build_structured_mesh(3)
    first = volume_quadrature(mesh, 4)
    again = volume_quadrature(mesh, 4)
    assert all(a is b for a, b in zip(first, again))
    other_degree = volume_quadrature(mesh, 6)
    assert other_degree[1].shape[1] != first[1].shape[1]
    # the element blocks read the cached copy
    blocks = assemble_condensed(mesh, build_dofmap(mesh, 0), coeffs_with()).blocks
    assert blocks.quad_points is first[1] and blocks.quad_wdet is first[2]


def test_volume_quadrature_arrays_are_read_only():
    _, points, wdet, invJ = volume_quadrature(build_structured_mesh(2), 4)
    for array in (points, wdet, invJ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_volume_quadrature_is_never_shared_between_meshes():
    a = build_structured_mesh(3)
    b = build_structured_mesh(3)
    qa, qb = volume_quadrature(a, 4), volume_quadrature(b, 4)
    assert qa[1] is not qb[1] and np.array_equal(qa[1], qb[1])
    # a copy with other vertices starts with an empty cache
    moved = dataclasses.replace(a, vertices=0.5 * a.vertices)
    assert moved.quadrature == {}
    assert np.array_equal(volume_quadrature(moved, 4)[1], 0.5 * qa[1])
    # meshes built and dropped in turn (whose ids may repeat) see their own geometry
    for n in (2, 3, 4, 5):
        mesh = build_structured_mesh(n)
        _, points, wdet, _ = volume_quadrature(mesh, 4)
        assert wdet.shape[0] == points.shape[0] == mesh.n_elements == 2 * n * n


ANISO = dict(A=np.array([[1.0, 0.2], [0.2, 0.5]]), beta=[1.0, 0.5], gamma=1.0, k=0.01)


def quadrature_blocks(mesh, p, coeffs, test_degree=None):
    """G_K, mass_field and the field columns of B_b by quadrature einsums on
    every element, independent of the reference tensors."""
    deg = p + 2 if test_degree is None else test_degree
    rule = triangle_rule(2 * deg)
    test = lagrange_triangle(deg, rule.points)
    field = lagrange_triangle(p + 1, rule.points)
    v = mesh.vertices[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    invJ = np.linalg.inv(J)
    wdet = rule.weights[None, :] * np.linalg.det(J)[:, None]
    test_grads = np.einsum("eba,mqb->emqa", invJ, test.gradients)
    field_grads = np.einsum("eba,jqb->ejqa", invJ, field.gradients)
    gram = (np.einsum("emqa,ab,enqb,eq->emn", test_grads, coeffs.A, test_grads, wdet)
            + np.einsum("mq,nq,eq->emn", test.values, test.values, wdet) / coeffs.k)
    mass = np.einsum("mq,jq,eq->emj", test.values, field.values, wdet)
    B_field = (np.einsum("emqa,ab,ejqb,eq->emj", test_grads, coeffs.A, field_grads, wdet)
               + np.einsum("a,ejqa,mq,eq->emj", coeffs.beta, field_grads, test.values, wdet)
               + coeffs.gamma * mass)
    return gram, mass, B_field


def _relative_deviation(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("p", [0, 1])
def test_tensor_blocks_match_quadrature(p):
    mesh = build_structured_mesh(4)
    vertices = mesh.vertices.copy()
    inner = ~mesh.vertex_on_boundary
    vertices[inner] += np.random.default_rng(7).uniform(-0.05, 0.05, (inner.sum(), 2))
    mesh = mesh_from_arrays(vertices, mesh.elements)
    coeffs = coeffs_with(**ANISO)
    gram, mass, B_field = quadrature_blocks(mesh, p, coeffs)
    blocks = _build_blocks(mesh, build_dofmap(mesh, p), coeffs)
    nfl = mass.shape[2]
    assert _relative_deviation(gram_blocks(mesh, p, coeffs), gram) <= 1e-13
    assert _relative_deviation(blocks.chol @ blocks.chol.transpose(0, 2, 1), gram) <= 1e-13
    assert _relative_deviation(blocks.mass_field, mass) <= 1e-13
    assert _relative_deviation(blocks.B_b[:, :, :nfl], B_field) <= 1e-13
    assert _relative_deviation(blocks.B_a[:, :, :nfl], B_field + mass / coeffs.k) <= 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coords=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
       test_degree=st.sampled_from([1, 2, 3]), k=st.floats(1e-3, 1.0))
def test_tensor_gram_matches_quadrature_on_random_triangles(coords, test_degree, k):
    v = np.array(coords).reshape(3, 2)
    d1, d2 = v[1] - v[0], v[2] - v[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    longest = max(np.sum(d1**2), np.sum(d2**2), np.sum((v[2] - v[1]) ** 2))
    assume(abs(area) > 1e-2 * longest)  # non-degenerate, with a bounded aspect ratio
    if area < 0.0:
        v = v[[0, 2, 1]]
    mesh = mesh_from_arrays(v, [[0, 1, 2]])
    coeffs = coeffs_with(A=ANISO["A"], k=k, T_end=1.0)
    gram, _, _ = quadrature_blocks(mesh, 0, coeffs, test_degree)
    assert _relative_deviation(gram_blocks(mesh, 0, coeffs, test_degree), gram) <= 1e-12


def test_cholesky_blocks_reject_nan_gram_data():
    gram = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    gram[2, 1, 1] = np.nan
    with pytest.raises(SolverError, match="element 2 is not finite"):
        _cholesky_blocks(gram)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_geometry_raises_solver_error():
    # det J = inf passes the positivity test, and the Gram weights inf * 0
    # are NaN; the Cholesky guard must stop them
    mesh = mesh_from_arrays(1e200 * build_structured_mesh(2).vertices,
                            build_structured_mesh(2).elements)
    with pytest.raises(SolverError, match="not finite"):
        assemble_condensed(mesh, build_dofmap(mesh, 0), coeffs_with())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_jacobian_raises_solver_error(bad):
    # mesh_from_arrays rejects such vertices; a Mesh built around it must not
    # slip a NaN det J through the element geometry either
    mesh = build_structured_mesh(2)
    vertices = mesh.vertices.copy()
    vertices[4] = bad
    broken = dataclasses.replace(mesh, vertices=vertices)
    with pytest.raises(SolverError, match="Jacobian"):
        gram_blocks(broken, 0, coeffs_with())


def test_block_assembly_peak_memory_stays_near_its_output():
    # the reference-tensor build keeps no quadrature-level temporaries
    mesh = build_structured_mesh(48)
    dofmap = build_dofmap(mesh, 1)
    coeffs = coeffs_with(**ANISO)
    tracemalloc.start()
    try:
        blocks = _build_blocks(mesh, dofmap, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(v.nbytes for v in vars(blocks).values() if isinstance(v, np.ndarray))
    assert peak <= 1.6 * returned
