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
from dpgmarch.assembly import (PdeCoefficients, _build_blocks, _cholesky_blocks, _source_rows,
                               assemble_condensed, block_rows, condense_load, gather,
                               gram_blocks, volume_quadrature)
from dpgmarch.basis import lagrange_triangle, triangle_rule
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.linalg import SolverError
from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

from conftest import (apply_trial_to_test, embed_field_in_test, evaluate_field,
                      field_quadratic_forms, integrate_on_reference_triangle, no_source,
                      perturbed_mesh)


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
    B = _build_blocks(mesh, dofmap, coeffs_with()).B_b[1]
    ones = np.ones(B.shape[0])
    assert np.abs(ones @ B[:, :3]).max() <= 1e-13


def test_trial_to_test_form_difference_is_mass():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = coeffs_with(beta=[1.0, 0.5], gamma=1.0, k=0.2)
    blocks = _build_blocks(mesh, dofmap, coeffs)
    Ba, Bb = blocks.B_a[2], blocks.B_b[2]
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
    B_b = _build_blocks(mesh, dofmap, coeffs_with()).B_b
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
def test_assembled_S_is_canonical_and_factored_without_a_copy(n, p, monkeypatch):
    # S = R^T R leaves its column indices unsorted; assembly sorts them in
    # place once, so the float32 factor reads S's own index arrays
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda M, **kwargs: factored.append(M) or splu(M, **kwargs))
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, p)
    system = assemble_condensed(mesh, dofmap, coeffs_with(**ANISO), no_source)
    assert system.S.has_canonical_format
    (M,) = factored
    assert np.shares_memory(M.indices, system.S.indices)
    assert np.shares_memory(M.indptr, system.S.indptr)


def test_lost_symmetry_raises_solver_error(monkeypatch):
    # S = R^T R is symmetric by construction; an inconsistent product must not
    # reach the factor.  Every sparse-sparse product moves one off-diagonal
    # entry by a multiple of its largest entry: above 2 _SYM_TOL the check
    # trips, also at the 4 097 unknowns of n=32, below _SYM_TOL it does not
    def asymmetric(product, relative):
        def wrapped(self, other):
            result = product(self, other)
            if not sp.issparse(other):
                return result
            S = sp.csr_matrix(result)
            rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
            S.data[np.flatnonzero(S.indices != rows)[0]] += relative * np.abs(S.data).max()
            return S
        return wrapped

    products = {cls: cls.__matmul__ for cls in (sp.csr_matrix, sp.csc_matrix)}
    for n, relative in ((4, 1e-6), (32, 1e-10), (32, 2.5e-12), (32, 0.5e-12)):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        for cls, product in products.items():
            monkeypatch.setattr(cls, "__matmul__", asymmetric(product, relative))
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
    trace_block = blocks.B_b[:, :, w_loc.shape[1]:]
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
    # g = 1 against the constant test function gives the element area; the
    # condensed source rows are L^{-1} l, so l = L sources
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    blocks = _build_blocks(mesh, dofmap, coeffs_with())
    sources = _source_rows(mesh, 0, blocks.chol_inv, _constant_source(1.0))
    loads = blocks.chol @ sources.reshape(mesh.n_elements, -1, 1)
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
    # the march's source rows read the cached copy: the source is sampled at
    # its points and integrated with its weights
    dofmap = build_dofmap(mesh, 0)
    sampled = []

    def source_space(x, y):
        sampled.append(x)
        return np.stack([x, x * y])

    chol_inv = _build_blocks(mesh, dofmap, coeffs_with()).chol_inv
    sources = _source_rows(mesh, 0, chol_inv, source_space)
    test_values = lagrange_triangle(2, first[0].points).values
    assert len(sampled) == 1 and sampled[0].base is first[1]
    expected = np.einsum("emn,nq,eq,seq->sem", chol_inv, test_values, first[2],
                         source_space(first[1][..., 0], first[1][..., 1]))
    assert np.abs(sources - expected.reshape(2, -1)).max() <= 1e-14 * np.abs(expected).max()


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
    mesh = perturbed_mesh(4, seed=7)
    coeffs = coeffs_with(**ANISO)
    gram, mass, B_field = quadrature_blocks(mesh, p, coeffs)
    blocks = _build_blocks(mesh, build_dofmap(mesh, p), coeffs)
    nfl = mass.shape[2]
    assert _relative_deviation(gram_blocks(mesh, p, coeffs), gram) <= 1e-13
    assert _relative_deviation(blocks.chol @ blocks.chol.transpose(0, 2, 1), gram) <= 1e-13
    assert _relative_deviation(blocks.mass_field, mass) <= 1e-13
    assert _relative_deviation(blocks.B_b[:, :, :nfl], B_field) <= 1e-13
    assert _relative_deviation(blocks.B_a[:, :, :nfl], B_field + mass / coeffs.k) <= 1e-13


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
    # the Gram blocks inside the build are bit for bit those of gram_blocks
    assert np.array_equal(blocks.chol, np.linalg.cholesky(gram_blocks(mesh, p, coeffs)))


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
    assert _relative_deviation(gram_blocks(mesh, p, coeffs), gram) <= 1e-12


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


@pytest.mark.parametrize("p", [0, 1])
def test_block_rows_match_a_dense_element_loop(p):
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, p)
    cols = _build_blocks(mesh, dofmap, coeffs_with()).cols
    assert np.any(cols < 0)  # the boundary field slots are eliminated
    ne, nc = cols.shape
    nt = 4
    blocks = np.random.default_rng(p).standard_normal((ne, nt, nc))
    dense = np.zeros((ne * nt, dofmap.n_dof))
    for e in range(ne):
        for j in range(nc):
            if cols[e, j] >= 0:
                dense[e * nt:(e + 1) * nt, cols[e, j]] += blocks[e, :, j]
    R = block_rows(blocks, cols, dofmap.n_dof)
    assert R.shape == dense.shape
    assert R.nnz == nt * np.count_nonzero(cols >= 0)
    assert np.array_equal(R.toarray(), dense)


def _nbytes(matrix):
    if isinstance(matrix, np.ndarray):
        return matrix.nbytes
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def test_march_retains_only_its_step_operators():
    # the element blocks (chol, chol_inv, B_a, B_b, mass_field), R, W_w and the
    # condensed source rows are set-up temporaries; the march keeps S, F, C,
    # the quadrature points already cached on the mesh, and the float32 factor,
    # which SuperLU allocates outside the heap that tracemalloc sees
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
    assert retained <= 1.1 * sum(map(_nbytes, (system.S, ops.F, ops.C)))
