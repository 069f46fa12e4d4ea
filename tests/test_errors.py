import numpy as np
import pytest

from dpgmarch.assembly import PdeCoefficients, _element_weights, _reference_tensors, scatter
from dpgmarch.basis import edge_rule, lagrange_edge, triangle_table
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.errors import ZERO_FIELDS, SpatialFields, eoc, field_error, trace_dual_error
from dpgmarch.mesh import build_structured_mesh

from conftest import evaluate_field, function_l2_norm, perturbed_mesh


def _sine_exact():
    pi = np.pi
    return SpatialFields(
        u=lambda x, y: np.sin(pi * x) * np.sin(pi * y),
        grad_u=lambda x, y: np.stack([pi * np.cos(pi * x) * np.sin(pi * y),
                                      pi * np.sin(pi * x) * np.cos(pi * y)]),
    )


def test_error_of_discrete_function_against_itself_vanishes():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(dofmap.n_field)
    exact = SpatialFields(
        u=lambda x, y: evaluate_field(mesh, dofmap, coeffs, x, y),
        grad_u=None,
    )
    assert field_error(mesh, dofmap, coeffs, exact, "L2") <= 1e-13


def test_l2_error_of_sine_against_zero():
    # integral of sin^2(pi x) sin^2(pi y) over the unit square is 1/4
    mesh = build_structured_mesh(16)
    dofmap = build_dofmap(mesh, 0)
    value = field_error(mesh, dofmap, np.zeros(dofmap.n_field), _sine_exact(), "L2")
    assert value == pytest.approx(0.5, abs=1e-9)


def test_h1_seminorm_of_sine_against_zero():
    # integral of |grad u|^2 is pi^2 / 2
    mesh = build_structured_mesh(16)
    dofmap = build_dofmap(mesh, 0)
    value = field_error(mesh, dofmap, np.zeros(dofmap.n_field), _sine_exact(), "H1semi")
    assert value == pytest.approx(np.pi / np.sqrt(2.0), abs=1e-8)


def test_field_error_norm_properties():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(dofmap.n_field)
    b = rng.standard_normal(dofmap.n_field)
    for mode in ("L2", "H1semi"):
        norm = lambda c: field_error(mesh, dofmap, c, ZERO_FIELDS, mode)
        assert norm(2.5 * a) == pytest.approx(2.5 * norm(a), rel=1e-12)
        assert norm(a + b) <= norm(a) + norm(b) + 1e-13
    with pytest.raises(ValueError):
        field_error(mesh, dofmap, a, ZERO_FIELDS, "Linf")


def _edgewise_flux_projection(mesh, dofmap, coeffs, grad_u):
    """L2 projection of the exact flux onto the trace space, edge by edge."""
    p = dofmap.p
    rule = edge_rule(8)
    tab = lagrange_edge(p, rule.points)
    lo = mesh.vertices[mesh.edges[:, 0]]
    hi = mesh.vertices[mesh.edges[:, 1]]
    lengths = np.linalg.norm(hi - lo, axis=1)
    tangents = (hi - lo) / lengths[:, None]
    normals = np.column_stack((tangents[:, 1], -tangents[:, 0]))
    pts = lo[:, None, :] + rule.points[None, :, None] * (hi - lo)[:, None, :]
    g = np.moveaxis(np.asarray(grad_u(pts[..., 0], pts[..., 1])), 0, -1)
    flux = np.einsum("eqa,ea->eq", g @ coeffs.A.T, normals)
    gram = np.einsum("rq,sq,q->rs", tab.values, tab.values, rule.weights)
    rhs = np.einsum("rq,eq,q->er", tab.values, flux, rule.weights)
    return np.linalg.solve(gram, rhs.T).T.ravel()


def test_trace_surrogate_zero_for_exact_projection_of_discrete():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    coeffs = make_case("heat-decay", 0.1, 1.0).coeffs
    sigma = np.zeros(dofmap.n_trace)
    assert trace_dual_error(mesh, dofmap, coeffs, sigma, ZERO_FIELDS.grad_u) == 0.0


def test_trace_surrogate_homogeneity():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    coeffs = make_case("adr-decay", 0.1, 1.0).coeffs
    rng = np.random.default_rng(2)
    sigma = rng.standard_normal(dofmap.n_trace)
    one = trace_dual_error(mesh, dofmap, coeffs, sigma, ZERO_FIELDS.grad_u)
    three = trace_dual_error(mesh, dofmap, coeffs, 3.0 * sigma, ZERO_FIELDS.grad_u)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


def test_trace_surrogate_decreases_under_refinement():
    # quadratic u, A = I: the surrogate of flux minus its edgewise projection
    # is small and shrinks with the mesh
    exact_grad = lambda x, y: np.stack([2 * x + y, x + 0.0 * y])
    coeffs = make_case("heat-decay", 0.1, 1.0).coeffs
    values = []
    for n in (4, 8, 16):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        sigma = _edgewise_flux_projection(mesh, dofmap, coeffs, exact_grad)
        values.append(trace_dual_error(mesh, dofmap, coeffs, sigma, exact_grad))
    assert values[0] < 0.25  # small against the O(3) flux magnitude
    assert values[1] < 0.75 * values[0]
    assert values[2] < 0.75 * values[1]


def test_eoc_values():
    assert eoc([0.1, 0.05], [1.0, 0.5]) == [pytest.approx(1.0)]
    assert eoc([0.1, 0.025], [1.0, 0.5]) == [pytest.approx(2.0)]
    assert eoc([0.3, 0.3], [1.0, 0.5]) == [pytest.approx(0.0)]
    assert eoc([0.1, 0.0], [1.0, 0.5]) == [None]
    # equal steps leave the rate undefined, not NaN or infinite
    assert eoc([0.1, 0.05, 0.05], [0.5, 0.5, 0.25]) == [None, pytest.approx(0.0)]
    with pytest.raises(ValueError):
        eoc([1.0], [1.0, 0.5])


def test_function_l2_norm():
    mesh = build_structured_mesh(2)
    assert function_l2_norm(mesh, lambda x, y: np.ones_like(x)) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("p", [0, 1])
def test_exact_flux_is_evaluated_once_per_edge(p):
    # both neighbours of an edge share its points, so grad_u sees each edge once;
    # the residuals equal an evaluation on every element's three edges bit for bit
    from dpgmarch.assembly import _edge_tables
    from dpgmarch.errors import _trace_residuals

    mesh = perturbed_mesh(4, seed=3)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.1, 1.0)
    grad_u = case.at(0.3).grad_u
    points = []

    def counting(x, y):
        points.append(np.size(x))
        return grad_u(x, y)

    sigma = np.random.default_rng(4).standard_normal(dofmap.n_trace)
    got = _trace_residuals(mesh, dofmap, case.coeffs, sigma, counting)
    rule = edge_rule(min(2 * p + 4, 8))
    assert sum(points) == mesh.n_edges * len(rule.weights)

    trace_tab = lagrange_edge(p, rule.points)
    tables = _edge_tables(p, rule.exact_degree)[2]
    v = mesh.vertices[mesh.elements]
    expected = np.zeros((mesh.n_elements, tables.shape[2]))
    for l in range(3):
        edge_idx = mesh.element_edges[:, l]
        s = mesh.element_edge_signs[:, l]
        length = np.linalg.norm(v[:, (l + 1) % 3] - v[:, l], axis=1)
        tdofs = edge_idx[:, None] * (p + 1) + np.arange(p + 1)[None, :]
        sig_vals = np.einsum("er,rq->eq", sigma[tdofs], trace_tab.values)
        lo = mesh.vertices[mesh.edges[edge_idx, 0]]
        hi = mesh.vertices[mesh.edges[edge_idx, 1]]
        tangent = (hi - lo) / length[:, None]
        normal = np.column_stack((tangent[:, 1], -tangent[:, 0]))
        pts = lo[:, None, :] + rule.points[None, :, None] * (hi - lo)[:, None, :]
        g = np.moveaxis(np.asarray(grad_u(pts[..., 0], pts[..., 1])), 0, -1)
        diff = np.einsum("eqa,ea->eq", g @ case.coeffs.A.T, normal) - sig_vals
        psi = np.where((s == 1)[:, None, None], tables[l, 0], tables[l, 1])
        expected += (s * length)[:, None] * np.einsum("emq,eq,q->em", psi, diff, rule.weights)
    assert np.array_equal(got, expected)


def test_field_error_tabulates_its_basis_once():
    # the degree p+1 basis at the norm rule depends on p only: two norms of
    # the same order share one table, and the values do not change
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 1)
    w = np.random.default_rng(5).standard_normal(dofmap.n_field)
    before = field_error(mesh, dofmap, w, ZERO_FIELDS, "L2")
    misses = triangle_table.cache_info().misses
    first = field_error(mesh, dofmap, w, ZERO_FIELDS, "L2")
    again = field_error(mesh, dofmap, w, _sine_exact(), "H1semi")
    assert triangle_table.cache_info().misses == misses
    assert first == before
    assert again == field_error(mesh, dofmap, w, _sine_exact(), "H1semi")


@pytest.mark.parametrize("p", [0, 1])
def test_field_norms_match_assembled_quadratic_forms(p):
    # oracle off the quadrature path: ||w||^2 = w^T M w and |w|_1^2 = w^T K w
    # with M, K the reference-triangle tensors of the degree p+1 field basis
    # weighted per element and assembled through scatter
    mesh = perturbed_mesh(4, 11)
    dofmap = build_dofmap(mesh, p)
    cols = dofmap.element_field_dofs
    assert (cols < 0).any(axis=1).sum() > 0  # boundary elements with eliminated slots
    ref = _reference_tensors(p + 1, p + 1)
    W, detJ, _ = _element_weights(mesh, PdeCoefficients(A=np.eye(2), beta=np.zeros(2),
                                                        gamma=0.0, k=1.0, T_end=1.0),
                                  np.arange(mesh.n_elements))
    shape = (dofmap.n_field, dofmap.n_field)
    mass = scatter(detJ[:, None, None] * ref[4], cols, cols, shape, "csr")
    stiff = scatter(np.einsum("ea,amj->emj", W, ref[:4]), cols, cols, shape, "csr")
    rng = np.random.default_rng(p)
    for w in (rng.standard_normal(dofmap.n_field), np.ones(dofmap.n_field)):
        l2 = field_error(mesh, dofmap, w, ZERO_FIELDS, "L2")
        h1 = field_error(mesh, dofmap, w, ZERO_FIELDS, "H1semi")
        assert abs(l2**2 - w @ (mass @ w)) <= 1e-12 * (w @ (mass @ w))
        assert abs(h1**2 - w @ (stiff @ w)) <= 1e-12 * (w @ (stiff @ w))


@pytest.mark.parametrize("length", ["field_and_trace", "one_long", "one_short"])
def test_field_error_rejects_a_vector_of_the_wrong_length(length):
    # a field+trace vector would give the norm of its first n_field entries,
    # and one entry short the padded gather would read its zero
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 1)
    n = {"field_and_trace": dofmap.n_dof, "one_long": dofmap.n_field + 1,
         "one_short": dofmap.n_field - 1}[length]
    w = np.random.default_rng(3).standard_normal(n)
    for mode in ("L2", "H1semi"):
        with pytest.raises(ValueError, match="field coefficient vector"):
            field_error(mesh, dofmap, w, ZERO_FIELDS, mode)


@pytest.mark.parametrize("p, mesh", [
    (0, perturbed_mesh(4, seed=6)), (1, perturbed_mesh(4, seed=6)),
    (0, build_structured_mesh(12)), (1, build_structured_mesh(12)),
], ids=["0", "1", "structured-12-0", "structured-12-1"])
def test_trace_dual_error_matches_a_gram_solve(p, mesh):
    # ||L_K^{-1} r_K||^2 from the Cholesky factors is r_K^T G_K^{-1} r_K, here
    # solved with each element's own Gram block, formed without the classes
    # of congruent elements; the perturbed mesh has one class per element,
    # the structured one 50 classes among 288 elements
    from dpgmarch.errors import _trace_residuals

    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.05, 1.0)
    grad_u = case.at(0.2).grad_u
    sigma = np.random.default_rng(p).standard_normal(dofmap.n_trace)
    r = _trace_residuals(mesh, dofmap, case.coeffs, sigma, grad_u)
    W, detJ, _ = _element_weights(mesh, case.coeffs, np.arange(mesh.n_elements))
    ref = _reference_tensors(p + 2, p + 2)
    gram = np.einsum("ea,amj->emj", W, ref[:4]) + (detJ / case.coeffs.k)[:, None, None] * ref[4]
    expected = np.sqrt(np.sum(r * np.linalg.solve(gram, r[:, :, None])[:, :, 0]))
    got = trace_dual_error(mesh, dofmap, case.coeffs, sigma, grad_u)
    assert abs(got - expected) <= 1e-13 * expected
