import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpgmarch import assembly
from dpgmarch.assembly import (PdeCoefficients, _build_blocks, _source_loads, assemble_condensed,
                               condense_load, condensed_loads, element_classes, gather,
                               gram_factors, scatter, volume_quadrature)
from dpgmarch.basis import lagrange_triangle, triangle_rule
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import build_projection_system, exact_b_load
from dpgmarch.linalg import SolverError
from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

from conftest import (apply_trial_to_test, block_rows, element_grams, embed_field_in_test,
                      evaluate_field, field_quadratic_forms, integrate_on_reference_triangle,
                      no_source, perturbed_mesh, refine_uniform)


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
    gram = element_grams(mesh, 0, coeffs)[3]
    area = mesh.signed_areas()[3]
    ones = np.ones(gram.shape[0])
    assert ones @ gram @ ones == pytest.approx(area / coeffs.k, rel=1e-13)


def test_gram_matches_symbolic_on_reference_triangle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    mesh = reference_triangle_mesh()
    gram = element_grams(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]

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
    g1 = element_grams(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]
    g2 = element_grams(mesh, 0, coeffs_with(k=0.5, T_end=1.0))[0]
    g4 = element_grams(mesh, 0, coeffs_with(k=0.25, T_end=1.0))[0]
    assert np.abs((g4 - g2) - 2.0 * (g2 - g1)).max() <= 1e-12 * np.abs(g4).max()


def test_gram_scaling_under_coordinate_scaling():
    # mass scales with s^2, the 2D stiffness is scale invariant
    s = 1.7
    k = 0.3
    gram = element_grams(reference_triangle_mesh(), 0, coeffs_with(k=k, T_end=1.0))[0]
    gram_big = element_grams(reference_triangle_mesh(1.0), 0, coeffs_with(k=1.0, T_end=1.0))[0]
    mass = gram_big - local_gram_stiffness_part()
    scaled = element_grams(reference_triangle_mesh(s), 0, coeffs_with(k=k, T_end=1.0))[0]
    expected = (s**2 / k) * mass + (gram_big - mass)
    assert np.abs(scaled - expected).max() <= 1e-12 * np.abs(expected).max()


def local_gram_stiffness_part():
    # G(k) = M/k + K  =>  M = G(1/2) - G(1), K = G(1) - M
    mesh = reference_triangle_mesh()
    g1 = element_grams(mesh, 0, coeffs_with(k=1.0, T_end=1.0))[0]
    g_half = element_grams(mesh, 0, coeffs_with(k=0.5, T_end=1.0))[0]
    mass = g_half - g1
    return g1 - mass


def test_trial_to_test_pure_gradient_rows_vanish():
    # beta = 0, gamma = 0: testing the field block against the constant 1
    # leaves only the gradient term, which vanishes
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    blocks = _build_blocks(mesh, dofmap, coeffs_with())
    B = blocks.B_b[blocks.cls[1]]
    ones = np.ones(B.shape[0])
    assert np.abs(ones @ B[:, :3]).max() <= 1e-13


def test_trial_to_test_form_difference_is_mass():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with(beta=[1.0, 0.5], gamma=1.0, k=0.2)
    blocks = _build_blocks(mesh, dofmap, coeffs)
    Ba, Bb = blocks.B_a[blocks.cls[2]], blocks.B_b[blocks.cls[2]]
    diff = Ba - Bb
    assert np.abs(diff[:, 3:]).max() == 0.0  # trace columns unchanged

    rule = triangle_rule(6)
    test_tab = lagrange_triangle(2, rule.points)
    field_tab = lagrange_triangle(1, rule.points)
    tri = mesh.vertices[mesh.elements[2]]
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
    blocks = _build_blocks(mesh, dofmap, coeffs_with())
    for element in range(mesh.n_elements):
        B = blocks.B_b[blocks.cls[element]]
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
        system = assemble_condensed(mesh, dofmap, coeffs_with(k=0.01, T_end=1.0), no_source)
    S = system.S.toarray()
    assert S.shape == (5, 5)
    assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
    eigenvalues = np.linalg.eigvalsh(S)
    assert eigenvalues.min() > 0.0


def test_condensed_symmetry():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0), no_source)
    S = system.S
    asym = abs(S - S.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-12 * abs(S).max()


@pytest.mark.parametrize("n,p", [(32, 0), (8, 1)])
def test_factor_receives_S_permuted_by_its_order(n, p, monkeypatch):
    # S is born in the nested-dissection numbering, so SuperLU receives S's
    # own canonical arrays and no permuted copy; renumbered back, S is the
    # product R^T R of the block rows R of L^{-1} B_a
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kwargs: factored.append(M) or splu(M, **kwargs))
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, p)
    coeffs = coeffs_with(**ANISO)
    system = assemble_condensed(mesh, dofmap, coeffs, no_source)
    S, rank = system.S, system.rank
    (M,) = factored
    assert S.has_canonical_format and M.shape == S.shape
    assert all(np.shares_memory(a, b) and np.array_equal(a, b)
               for a, b in zip((M.data, M.indices, M.indptr), (S.data, S.indices, S.indptr)))
    blocks = _build_blocks(mesh, dofmap, coeffs)
    R = block_rows((blocks.chol_inv @ blocks.B_a)[blocks.cls], blocks.cols, dofmap.n_dof)
    oracle = (R.T @ R).tocsr()
    assert sorted(rank) == list(range(dofmap.n_dof))
    assert abs(S[rank][:, rank] - oracle).max() <= 1e-14 * abs(oracle).max()


def test_lost_symmetry_raises_solver_error(monkeypatch):
    # S = sum_K E_K^T E_K is symmetric by construction; an inconsistent
    # scatter must not reach the factor.  Every square scatter moves one
    # off-diagonal entry by a multiple of its largest entry: above 2 _SYM_TOL
    # the check trips, also at the 4 097 unknowns of n=32, below _SYM_TOL it
    # does not
    def asymmetric(relative):
        def wrapped(blocks, rows, cols, shape, format):
            result = scatter(blocks, rows, cols, shape, format)
            if shape[0] != shape[1]:
                return result
            S = sp.csr_matrix(result)
            diagonal = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
            S.data[np.flatnonzero(S.indices != diagonal)[0]] += relative * np.abs(S.data).max()
            return S
        return wrapped

    for n, relative in ((4, 1e-6), (32, 1e-10), (32, 2.5e-12), (32, 0.5e-12)):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        monkeypatch.setattr(assembly, "scatter", asymmetric(relative))
        if relative > 2.0 * assembly._SYM_TOL:
            with pytest.raises(SolverError, match="lost symmetry"):
                assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0),
                                   no_source)
        else:
            assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0), no_source)


def test_cholesky_inverse_is_as_accurate_as_an_lu_solve():
    # forward substitution against the identity leaves no larger a residual
    # ||X L - I|| than the general LU solve it replaced
    mesh = perturbed_mesh(6, seed=5)
    for p in (0, 1):
        blocks = _build_blocks(mesh, build_dofmap(mesh, p), coeffs_with(**ANISO))
        chol = blocks.chol
        eye = np.eye(chol.shape[1])
        lu_inverse = np.linalg.solve(chol, np.broadcast_to(eye, chol.shape))
        assert np.all(np.triu(blocks.chol_inv, 1) == 0.0)
        assert (np.linalg.norm(blocks.chol_inv @ chol - eye)
                <= np.linalg.norm(lu_inverse @ chol - eye))


def test_timestep_regime_warning():
    mesh = build_structured_mesh(1)
    dofmap = build_dofmap(mesh, 0)
    with pytest.warns(RuntimeWarning, match="trace-norm"):
        assemble_condensed(mesh, dofmap, coeffs_with(k=1e-4, T_end=1.0), no_source)


def test_coercivity_bound(adr_coeffs):
    # (1/k) ||u||^2 + ||A^(1/2) grad u||^2 <= u^T S u for 100 random samples
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(11)
    for k in (1.0, 0.01):
        coeffs = PdeCoefficients(A=adr_coeffs.A, beta=adr_coeffs.beta,
                                 gamma=adr_coeffs.gamma, k=k, T_end=1.0)
        system = assemble_condensed(mesh, dofmap, coeffs, no_source)
        S = system.S[system.rank][:, system.rank]  # in the numbering of the dofmap
        mass, stiff = field_quadratic_forms(mesh, dofmap, coeffs.A)
        for _ in range(100):
            x = rng.standard_normal(dofmap.n_dof)
            u = x[:dofmap.n_field]
            lhs = (u @ mass @ u) / k + u @ stiff @ u
            assert lhs <= x @ (S @ x) + 1e-10


def test_heat_case_theta_identity(heat_coeffs):
    # A = I, beta = 0, gamma = 0: the optimal test function of (u_h, 0) is u_h
    for p in (0, 1):
        mesh = build_structured_mesh(3)
        dofmap = build_dofmap(mesh, p)
        blocks = _build_blocks(mesh, dofmap, heat_coeffs)
        rng = np.random.default_rng(5)
        x = np.zeros(dofmap.n_dof)
        x[:dofmap.n_field] = rng.standard_normal(dofmap.n_field)
        theta = apply_trial_to_test(blocks, x)
        u_loc = gather(x, dofmap.element_field_dofs)
        embedded = np.einsum("ej,jm->em", u_loc, embed_field_in_test(p))
        assert np.abs(theta - embedded).max() <= 1e-11


def test_trace_annihilation(adr_coeffs):
    # <sigma_h, w>_S = 0 for conforming w with zero boundary values
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    blocks = _build_blocks(mesh, dofmap, adr_coeffs)
    rng = np.random.default_rng(13)
    sigma = rng.standard_normal(dofmap.n_trace)
    w = np.zeros(dofmap.n_dof)
    w[:dofmap.n_field] = rng.standard_normal(dofmap.n_field)
    w_loc = gather(w, dofmap.element_field_dofs)
    w_test = np.einsum("ej,jm->em", w_loc, embed_field_in_test(0))
    trace_block = blocks.B_b[blocks.cls][:, :, w_loc.shape[1]:]
    sigma_loc = sigma[dofmap.element_trace_dofs]
    pairing = -np.einsum("emr,er,em->", trace_block, sigma_loc, w_test)
    scale = np.abs(sigma).max() * np.abs(w).max() * mesh.n_elements
    assert abs(pairing) <= 1e-12 * scale


def _constant_source(value):
    return lambda x, y: np.full((1,) + np.shape(x), value)


def test_condense_load_zero():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with()
    system = assemble_condensed(mesh, dofmap, coeffs, _constant_source(0.0))
    rhs = condense_load(system.blocks, [1.0], np.zeros(dofmap.n_field))
    assert np.all(rhs == 0.0)


def test_condense_load_rejects_mismatched_time_weights():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, coeffs_with(), _constant_source(1.0))
    with pytest.raises(ValueError, match="1 source time weights"):
        condense_load(system.blocks, [1.0, 0.0], np.zeros(dofmap.n_field))


def test_source_space_must_return_one_row_per_term():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    with pytest.raises(ValueError, match="source_space must return shape"):
        assemble_condensed(mesh, dofmap, coeffs_with(), lambda x, y: np.ones_like(x))


def test_local_load_constant_source():
    # g = 1 against the constant test function gives the element area
    mesh = build_structured_mesh(2)
    loads = _source_loads(mesh, 0, _constant_source(1.0))
    assert loads.shape == (mesh.n_elements, 6, 1)
    loads = loads[:, :, 0]
    areas = mesh.signed_areas()
    assert np.abs(loads.sum(axis=1) - areas).max() <= 1e-14


def test_cg_converges_on_condensed_system():
    # positive definiteness in action: no negative curvature on build(4)
    from dpgmarch.linalg import cg_solve

    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = assemble_condensed(mesh, dofmap, coeffs_with(beta=[1.0, 0.5], gamma=1.0), no_source)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(dofmap.n_dof)
    # Jacobi-CG needs about 60 iterations here: its 50 allowed ones all see
    # positive curvature, and it stops only at the cap
    with pytest.raises(SolverError, match="did not converge within 50"):
        cg_solve(system.S, rhs, lambda r: r / system.S.diagonal())
    x, iterations = cg_solve(system.S, rhs, system.precond)  # the march's factor
    assert iterations >= 1
    assert np.linalg.norm(system.S @ x - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_condense_load_mass_path_matches_function_path():
    # feeding the previous field through the mass block must equal feeding it
    # as a pointwise source scaled by 1/k (exact for polynomial data)
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with(beta=[1.0, 0.5], gamma=1.0, k=0.2)
    rng = np.random.default_rng(23)
    w = rng.standard_normal(dofmap.n_field)
    system = assemble_condensed(
        mesh, dofmap, coeffs, lambda x, y: evaluate_field(mesh, dofmap, w, x, y)[None] / coeffs.k)

    via_mass = condense_load(system.blocks, [0.0], w)
    via_func = condense_load(system.blocks, [1.0], np.zeros(dofmap.n_field))
    assert np.abs(via_mass - via_func).max() <= 1e-12 * np.abs(via_mass).max()


def test_volume_quadrature_repeats_the_same_arrays():
    mesh = build_structured_mesh(3)
    first = volume_quadrature(mesh, 4)
    again = volume_quadrature(mesh, 4)
    assert all(a is b for a, b in zip(first, again))
    other_degree = volume_quadrature(mesh, 6)
    assert other_degree[1].shape[1] != first[1].shape[1]
    # the march's source loads read the cached copy: the source is sampled at
    # its points and integrated with its weights
    sampled = []

    def source_space(x, y):
        sampled.append(x)
        return np.stack([x, x * y])

    sources = _source_loads(mesh, 0, source_space)
    test_values = lagrange_triangle(2, first[0].points).values
    assert len(sampled) == 1 and sampled[0].base is first[1]
    expected = np.einsum("nq,eq,seq->sen", test_values, first[2],
                         source_space(first[1][..., 0], first[1][..., 1]))
    assert np.abs(sources - expected.transpose(1, 2, 0)).max() <= 1e-14 * np.abs(expected).max()


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


@st.composite
def vector_and_columns(draw):
    vector = draw(hnp.arrays(float, st.integers(0, 12), elements=st.floats(allow_nan=False)))
    cols = draw(hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0),
                           elements=st.integers(-1, len(vector) - 1)))
    return vector, cols


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vector_and_columns())
@example((np.zeros(0), np.full((3, 4), -1)))  # the empty vector, every slot eliminated
def test_gather_is_a_take_with_zero_at_eliminated_slots(args):
    vector, cols = args
    got = gather(vector, cols)
    expected = (np.where(cols >= 0, vector[np.clip(cols, 0, None)], 0.0) if vector.size
                else np.zeros(cols.shape))
    assert got.shape == cols.shape and got.dtype == np.float64
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), degree=st.integers(1, 8))
def test_volume_quadrature_points_are_the_affine_map_of_the_rule(n, seed, degree):
    mesh = perturbed_mesh(n, seed)
    rule, points, wdet, _ = volume_quadrature(mesh, degree)
    v, J, _, _ = assembly._geometry(mesh)
    # a rule of degree >= 1 integrates linear functions exactly, so its mean
    # point is the centroid
    centroid = rule.weights @ points / rule.weights.sum()
    eps = np.finfo(float).eps
    assert np.abs(centroid - v.mean(axis=1)).max() <= 4 * eps
    # within an ulp at 1.0 of the einsum form of the same map
    einsum_form = v[:, 0, None, :] + np.einsum("eab,qb->eqa", J, rule.points)
    assert np.abs(points - einsum_form).max() <= eps


ANISO = dict(A=np.array([[1.0, 0.2], [0.2, 0.5]]), beta=[1.0, 0.5], gamma=1.0, k=0.01)


def quadrature_blocks(mesh, p, coeffs):
    """G_K, mass_field and the field columns of B_b by quadrature einsums on
    every element, independent of the reference tensors."""
    deg = p + 2
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
    # the perturbed mesh has one class per element, the structured one 50
    # classes among 288 elements: every element reads its blocks through cls
    coeffs = coeffs_with(**ANISO)
    for mesh, n_classes in ((perturbed_mesh(4, seed=7), 32), (build_structured_mesh(12), 50)):
        gram, mass, B_field = quadrature_blocks(mesh, p, coeffs)
        blocks = _build_blocks(mesh, build_dofmap(mesh, p), coeffs)
        cls = blocks.cls
        assert len(blocks.chol) == n_classes
        nfl = mass.shape[2]
        assert _relative_deviation((blocks.chol @ blocks.chol.transpose(0, 2, 1))[cls],
                                   gram) <= 1e-13
        assert _relative_deviation(blocks.mass_field[cls], mass) <= 1e-13
        assert _relative_deviation(blocks.B_b[cls][:, :, :nfl], B_field) <= 1e-13
        assert _relative_deviation(blocks.B_a[cls][:, :, :nfl],
                                   B_field + mass / coeffs.k) <= 1e-13


@pytest.mark.parametrize("p", [0, 1])
def test_build_blocks_evaluates_the_element_weights_once(p, monkeypatch):
    mesh = perturbed_mesh(4, seed=7)
    coeffs = coeffs_with(**ANISO)
    calls = []
    weights = assembly._element_weights
    monkeypatch.setattr(assembly, "_element_weights",
                        lambda *args: calls.append(args) or weights(*args))
    blocks = _build_blocks(mesh, build_dofmap(mesh, p), coeffs)
    assert len(calls) == 1
    # the Gram factors inside the build are bit for bit those of gram_factors
    assert np.array_equal(blocks.chol, gram_factors(mesh, p, coeffs).chol)


def _class_keys(mesh):
    """J, edge signs and edge lengths of every element as raw bits, (ne, 10),
    computed apart from element_classes."""
    v = mesh.vertices[mesh.elements]
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2).reshape(-1, 4)
    lengths = np.linalg.norm(mesh.edge_vectors(), axis=1)[mesh.element_edges]
    return np.hstack([J.view(np.int64), mesh.element_edge_signs, lengths.view(np.int64)])


def _two_triangles(vertices, elements):
    return element_classes(mesh_from_arrays(vertices, elements))


def test_translated_copies_share_a_class():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.75]])
    first, cls = _two_triangles(np.vstack([triangle, triangle + [2.0, 0.5]]),
                                [[0, 1, 2], [3, 4, 5]])
    assert list(first) == [0] and list(cls) == [0, 0]


def test_a_flipped_edge_orientation_separates_classes():
    # the same triangle twice; renumbering the copy's last two vertices flips
    # the global orientation of its local edge 1 and leaves J as it is
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.75]])
    copy = triangle + [2.0, 0.5]
    vertices = np.vstack([triangle, copy[[0, 2, 1]]])
    mesh = mesh_from_arrays(vertices, [[0, 1, 2], [3, 5, 4]])
    keys = _class_keys(mesh)
    assert np.array_equal(keys[0, :4], keys[1, :4])
    assert list(mesh.element_edge_signs[:, 1]) == [1, -1]
    first, cls = element_classes(mesh)
    assert list(first) == [0, 1] and list(cls) == [0, 1]


def test_a_different_edge_length_separates_classes():
    # a translated copy whose J and edge signs agree bit for bit while the
    # length of its third edge, v2 - v1 taken from the translated vertices,
    # rounds apart
    triangle = np.array([[0.0, 0.0], [0.1, 0.2], [0.05, 0.3]])
    mesh = mesh_from_arrays(np.vstack([triangle, triangle + [0.027, 0.02]]),
                            [[0, 1, 2], [3, 4, 5]])
    keys = _class_keys(mesh)
    assert np.array_equal(keys[0, :7], keys[1, :7])
    assert np.sum(keys[0, 7:] != keys[1, 7:]) == 1
    first, cls = element_classes(mesh)
    assert list(first) == [0, 1] and list(cls) == [0, 1]


def test_class_counts_of_structured_and_perturbed_meshes():
    first, cls = element_classes(build_structured_mesh(16))
    assert len(first) == 2 and np.bincount(cls).tolist() == [256, 256]
    mesh = perturbed_mesh(4, seed=7)
    first, cls = element_classes(mesh)
    assert np.array_equal(first, np.arange(mesh.n_elements))
    assert np.array_equal(cls, np.arange(mesh.n_elements))


@pytest.mark.parametrize("mesh", [build_structured_mesh(12), build_structured_mesh(24),
                                  build_structured_mesh(48),
                                  refine_uniform(build_structured_mesh(4))],
                         ids=["structured-12", "structured-24", "structured-48",
                              "refined-4"])
def test_every_element_has_the_key_of_its_class(mesh):
    # the refined mesh numbers its vertices apart from the grid order (7
    # classes among 128 elements)
    first, cls = element_classes(mesh)
    keys = _class_keys(mesh)
    assert np.array_equal(keys, keys[first][cls])
    # first[c] is the lowest element of class c, and the classes are numbered
    # in the order of their first elements
    assert np.array_equal(cls[first], np.arange(len(first)))
    assert np.all(first[cls] <= np.arange(mesh.n_elements))
    assert np.all(np.diff(first) > 0)
    # distinct classes have distinct keys
    assert len(np.unique(keys[first], axis=0)) == len(first)


@pytest.mark.parametrize("failure", ["indefinite", "nan"])
def test_a_failing_gram_block_names_the_first_element_of_its_class(failure, monkeypatch):
    mesh = build_structured_mesh(12)
    first, cls = element_classes(mesh)
    bad = 7
    assert first[bad] > bad  # the class index is not the element index
    weights = assembly._element_weights

    def broken(*args):
        W, detJ, b = weights(*args)
        if failure == "indefinite":
            detJ[bad] = -1.0  # (1/k)(v, v) < 0 for a constant v
        else:
            W[bad] = np.nan
        return W, detJ, b

    monkeypatch.setattr(assembly, "_element_weights", broken)
    with pytest.raises(SolverError, match=f"element {first[bad]} "):
        _build_blocks(mesh, build_dofmap(mesh, 0), coeffs_with())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(coords=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6),
       p=st.sampled_from([0, 1]), k=st.floats(1e-3, 1.0))
def test_tensor_gram_matches_quadrature_on_random_triangles(coords, p, k):
    v = np.array(coords).reshape(3, 2)
    d1, d2 = v[1] - v[0], v[2] - v[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    longest = max(np.sum(d1**2), np.sum(d2**2), np.sum((v[2] - v[1]) ** 2))
    assume(abs(area) > 1e-2 * longest)  # non-degenerate, with a bounded aspect ratio
    if area < 0.0:
        v = v[[0, 2, 1]]
    mesh = mesh_from_arrays(v, [[0, 1, 2]])
    coeffs = coeffs_with(A=ANISO["A"], k=k, T_end=1.0)
    gram, _, _ = quadrature_blocks(mesh, p, coeffs)
    assert _relative_deviation(element_grams(mesh, p, coeffs), gram) <= 1e-12


def test_cholesky_blocks_reject_nan_gram_data(monkeypatch):
    # one NaN entry in the det J weight of a class: LAPACK factors it without
    # raising, and the message names the first element of the class, not its
    # position among the classes
    mesh = build_structured_mesh(12)
    first, _ = element_classes(mesh)
    weights = assembly._element_weights

    def broken(*args):
        W, detJ, b = weights(*args)
        detJ[5] = np.nan
        return W, detJ, b

    monkeypatch.setattr(assembly, "_element_weights", broken)
    assert first[5] != 5
    with pytest.raises(SolverError, match=f"element {first[5]} is not finite"):
        gram_factors(mesh, 1, coeffs_with())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_geometry_raises_solver_error():
    # det J = inf passes the positivity test, and the Gram weights inf * 0
    # are NaN; the Cholesky guard must stop them
    mesh = mesh_from_arrays(1e200 * build_structured_mesh(2).vertices,
                            build_structured_mesh(2).elements)
    with pytest.raises(SolverError, match="not finite"):
        assemble_condensed(mesh, build_dofmap(mesh, 0), coeffs_with(), no_source)


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
        gram_factors(broken, 0, coeffs_with())


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


@st.composite
def element_blocks(draw):
    """Element blocks with global rows and columns in -1..n-1: eliminated
    slots and columns repeated within and across elements."""
    ne = draw(st.integers(1, 5))
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(hnp.arrays(np.int64, (ne, nr), elements=st.integers(-1, n_rows - 1)))
    cols = draw(hnp.arrays(np.int64, (ne, nc), elements=st.integers(-1, n_cols - 1)))
    # small integers: every sum is exact, whatever the order of summation
    blocks = draw(hnp.arrays(np.int64, (ne, nr, nc), elements=st.integers(-9, 9)))
    return blocks.astype(float), rows, cols, (n_rows, n_cols)


@pytest.mark.parametrize("format", ["csr", "csc"])
@settings(max_examples=60, deadline=None)
@given(data=element_blocks(), relabel=st.randoms(use_true_random=False))
def test_scatter_matches_a_dense_element_loop(format, data, relabel):
    blocks, rows, cols, shape = data
    dense = np.zeros(shape)
    for e in range(len(blocks)):
        for i, row in enumerate(rows[e]):
            for j, col in enumerate(cols[e]):
                if row >= 0 and col >= 0:
                    dense[row, col] += blocks[e, i, j]
    matrix = scatter(blocks, rows, cols, shape, format)
    assert matrix.format == format and matrix.has_canonical_format
    assert np.array_equal(matrix.toarray(), dense)
    # relabelled rows and columns, as by a nested-dissection rank: the
    # scatter is the permuted matrix, -1 slots still left out
    row_rank = np.array(relabel.sample(range(shape[0]), shape[0]))
    col_rank = np.array(relabel.sample(range(shape[1]), shape[1]))
    relabelled = scatter(blocks, np.append(row_rank, -1)[rows], np.append(col_rank, -1)[cols],
                         shape, format)
    assert np.array_equal(relabelled.toarray()[row_rank][:, col_rank], dense)


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("mesh", [perturbed_mesh(4, seed=7), build_structured_mesh(12)],
                         ids=["perturbed-4", "structured-12"])
def test_condensations_match_a_dense_sum_over_the_elements(mesh, p):
    # S, C, F, N and the projection load against sum_K B_{a,K}^T G_K^{-1} X_K,
    # each element's G_K solved densely; the perturbed mesh has one class per
    # element, the structured one 50 classes among 288 elements
    coeffs = coeffs_with(**ANISO)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.01, 1.0)
    blocks = _build_blocks(mesh, dofmap, coeffs)
    cls, cols, field_dofs = blocks.cls, blocks.cols, dofmap.element_field_dofs
    gram = element_grams(mesh, p, coeffs)
    sources = _source_loads(mesh, p, case.source_space)
    loads = exact_b_load(mesh, dofmap, coeffs, case.at(0.3))
    n, n_field, m = dofmap.n_dof, dofmap.n_field, sources.shape[2]
    S, N, C = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n_field))
    F, r = np.zeros((n, m)), np.zeros(n)
    for e in range(mesh.n_elements):
        B_a, B_b = blocks.B_a[cls[e]], blocks.B_b[cls[e]]
        X = np.linalg.solve(gram[e], np.column_stack(
            [B_a, B_b, blocks.mass_field[cls[e]] / coeffs.k, sources[e], loads[e]]))
        Y = np.split(B_a.T @ X, np.cumsum([B_a.shape[1], B_b.shape[1], field_dofs.shape[1], m]),
                     axis=1)
        rows, fields = cols[e] >= 0, field_dofs[e] >= 0
        at = np.ix_(cols[e][rows], cols[e][rows])
        S[at] += Y[0][np.ix_(rows, rows)]
        N[at] += Y[1][np.ix_(rows, rows)]
        C[np.ix_(cols[e][rows], field_dofs[e][fields])] += Y[2][np.ix_(rows, fields)]
        F[cols[e][rows]] += Y[3][rows]
        r[cols[e][rows]] += Y[4][rows, 0]
    system = assemble_condensed(mesh, dofmap, coeffs, case.source_space)
    rank = system.rank  # S, C and F are numbered by nested dissection
    N_built = build_projection_system(mesh, dofmap, coeffs).N
    load = condensed_loads(blocks, loads[..., None], cols, n)[:, 0]
    for got, want in ((system.S[rank][:, rank].toarray(), S), (N_built.toarray(), N),
                      (system.blocks.C[rank].toarray(), C), (system.blocks.F[rank], F),
                      (load, r)):
        assert _relative_deviation(got, want) <= 1e-12


def _nbytes(matrix):
    if isinstance(matrix, np.ndarray):
        return matrix.nbytes
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def test_march_retains_only_its_step_operators():
    # the element blocks (chol, chol_inv, B_a, B_b, mass_field), their
    # products and the condensed source rows are set-up temporaries; the march
    # keeps S, F, C, the field mass matrix M, the quadrature points already
    # cached on the mesh, the float64 factor, which SuperLU allocates outside
    # the heap that tracemalloc sees, and the nested-dissection rank (8 bytes
    # an unknown)
    mesh = build_structured_mesh(48)
    dofmap = build_dofmap(mesh, 1)
    volume_quadrature(mesh, 6)
    source_space = make_case("aniso", 0.01, 1.0).source_space
    tracemalloc.start()
    try:
        system = assemble_condensed(mesh, dofmap, coeffs_with(**ANISO), source_space)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ops = system.blocks
    assert vars(ops).keys() == {"F", "C"}
    assert ops.F.shape == (dofmap.n_dof, 2)
    assert ops.C.shape == (dofmap.n_dof, dofmap.n_field)
    assert system.mass.shape == (dofmap.n_field, dofmap.n_field)
    assert retained <= 1.1 * sum(map(_nbytes, (system.S, ops.F, ops.C, system.mass)))
