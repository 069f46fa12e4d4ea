import numpy as np
import pytest

from dpgmarch.assembly import PdeCoefficients


@pytest.fixture
def heat_coeffs():
    return PdeCoefficients(A=np.eye(2), beta=np.zeros(2), gamma=0.0, k=0.1, T_end=1.0)


@pytest.fixture
def adr_coeffs():
    return PdeCoefficients(A=np.eye(2), beta=np.array([1.0, 0.5]), gamma=1.0, k=0.1, T_end=1.0)


def no_source(x, y):
    """A source of no terms, for tests that need only S: the march then keeps
    an F of shape (n_dof, 0)."""
    return np.zeros((0,) + np.shape(x))


def zero_data_case(k, T_end, u0=None):
    """A heat-equation case with zero source and initial data u0(x, y), zero
    by default, whose exact solution is then u = 0.  Its u is u0 at every
    time and its u_t and grad_u are zero: only u0 is read from them."""
    from dpgmarch.cases import PdeCase

    u0 = (lambda x, y: np.zeros_like(x)) if u0 is None else u0
    coeffs = PdeCoefficients(A=np.eye(2), beta=np.zeros(2), gamma=0.0, k=k, T_end=T_end)
    return PdeCase(name="zero-data", coeffs=coeffs, u=lambda t, x, y: u0(x, y),
                   grad_u=lambda t, x, y: np.zeros((2,) + np.shape(x)),
                   u_t=lambda t, x, y: np.zeros_like(x), source_time=lambda t: np.ones(1),
                   source_space=lambda x, y: np.zeros((1,) + np.shape(x)))


def block_rows(blocks, cols, n_cols):
    """Element blocks (ne, nt, nc) as a CSR matrix of shape (ne*nt, n_cols):
    row e*nt + m holds blocks[e, m] at the global columns cols[e], leaving out
    the slots whose column is -1.  An oracle of the condensed products, built
    apart from the production scatter: S = R^T R for R = block_rows(L^{-1} B_a)."""
    import scipy.sparse as sp

    ne, nt, _ = blocks.shape
    free = cols >= 0
    mask = np.broadcast_to(free[:, None, :], blocks.shape)
    indices = np.broadcast_to(cols[:, None, :], blocks.shape)[mask]
    indptr = np.concatenate([[0], np.cumsum(np.repeat(free.sum(axis=1), nt))])
    return sp.csr_matrix((blocks[mask], indices, indptr), shape=(ne * nt, n_cols))


def perturbed_mesh(n, seed):
    """Structured n x n mesh with every interior vertex moved by up to 0.05."""
    from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

    mesh = build_structured_mesh(n)
    vertices = mesh.vertices.copy()
    inner = ~mesh.vertex_on_boundary
    vertices[inner] += np.random.default_rng(seed).uniform(-0.05, 0.05, (inner.sum(), 2))
    return mesh_from_arrays(vertices, mesh.elements)


def refine_uniform(mesh):
    """Red refinement: split every triangle into four via the edge midpoints."""
    from dpgmarch.mesh import mesh_from_arrays

    nv = mesh.n_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack((mesh.vertices, midpoints))

    e = mesh.elements
    m = nv + mesh.element_edges  # midpoint vertex of local edge l
    children = np.concatenate(
        [
            np.stack([e[:, 0], m[:, 0], m[:, 2]], axis=1),
            np.stack([m[:, 0], e[:, 1], m[:, 1]], axis=1),
            np.stack([m[:, 2], m[:, 1], e[:, 2]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ],
        axis=0,
    )
    return mesh_from_arrays(vertices, children)


def field_quadratic_forms(mesh, dofmap, A):
    """Quadrature mass and A-weighted stiffness on the conforming field space,
    assembled independently of the production element blocks."""
    from dpgmarch.assembly import _geometry
    from dpgmarch.basis import lagrange_triangle, triangle_rule

    rule = triangle_rule(2 * (dofmap.p + 2))
    table = lagrange_triangle(dofmap.p + 1, rule.points)
    v, J, invJ, detJ = _geometry(mesh)
    wdet = rule.weights[None, :] * detJ[:, None]
    grads = np.einsum("eba,jqb->ejqa", invJ, table.gradients)
    a_grads = np.einsum("ab,ejqb->ejqa", np.asarray(A, dtype=float), grads)

    m_loc = np.einsum("iq,jq,eq->eij", table.values, table.values, wdet)
    k_loc = np.einsum("eiqa,ejqa,eq->eij", grads, a_grads, wdet)
    n = dofmap.n_field
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    cols = dofmap.element_field_dofs
    for e in range(mesh.n_elements):
        idx = cols[e]
        keep = idx >= 0
        mass[np.ix_(idx[keep], idx[keep])] += m_loc[e][np.ix_(keep, keep)]
        stiff[np.ix_(idx[keep], idx[keep])] += k_loc[e][np.ix_(keep, keep)]
    return mass, stiff


def norm_in_test_space(blocks, v):
    """(V,k)-norm of an element-blocked test function, sqrt(sum_K v_K^T G_K v_K)."""
    z = np.einsum("enm,en->em", blocks.chol[blocks.cls], v)
    return float(np.sqrt(np.sum(z * z)))


def apply_trial_to_test(blocks, u):
    """Discrete optimal test function of a trial vector, element-blocked
    coefficients (ne, nt): v_K = G_K^{-1} B_{a,K} u_loc, applied through the
    Cholesky inverses of the element blocks."""
    from dpgmarch.assembly import gather

    u_loc = gather(np.asarray(u, dtype=float), blocks.cols)
    chol_inv = blocks.chol_inv[blocks.cls]
    z = np.einsum("emn,enc,ec->em", chol_inv, blocks.B_a[blocks.cls], u_loc)
    return np.einsum("enm,en->em", chol_inv, z)


def embed_field_in_test(p):
    """Coefficients of the degree p+1 field basis in the degree p+2 nodal test
    basis: field values at the test nodes, shape (nfl, nt)."""
    from dpgmarch.basis import lagrange_triangle, triangle_nodes

    return lagrange_triangle(p + 1, triangle_nodes(p + 2)).values


def integrate_on_reference_triangle(expr, x, y):
    """Exact integral of a sympy polynomial in x, y over the reference
    triangle, term by term: int x^a y^b = a! b! / (a + b + 2)!."""
    import sympy

    poly = sympy.Poly(sympy.expand(expr), x, y)
    return sum(c * sympy.factorial(a) * sympy.factorial(b) / sympy.factorial(a + b + 2)
               for (a, b), c in poly.terms())


def projection_load(system, loads):
    """Condensed projection load sum_K E_{a,K}^T L_K^{-1} l_K of the element
    test loads l (ne, nt), in the numbering of the dofmap."""
    from dpgmarch.assembly import condensed_loads

    blocks = system.blocks
    return condensed_loads(blocks, loads[..., None], blocks.cols, system.N.shape[0])[:, 0]


def b_orthogonality_residual(system, rhs, solution):
    """(max_i |b(u - u_h, Theta phi_i)|, system scale) for a computed projection."""
    residual = rhs - system.N @ solution
    scale = float(np.abs(system.N).dot(np.abs(solution)).max() + np.abs(rhs).max())
    return float(np.abs(residual).max()), scale


def function_l2_norm(mesh, f, degree=8):
    """Quadrature L2 norm of a pointwise function over the mesh."""
    from dpgmarch.assembly import volume_quadrature

    _, qp, wdet, _ = volume_quadrature(mesh, degree)
    vals = f(qp[..., 0], qp[..., 1])
    return float(np.sqrt(np.sum(wdet * vals**2)))


def evaluate_field(mesh, dofmap, coeffs_vector, x, y):
    """Pointwise evaluation of the discrete field (brute-force element lookup)."""
    from dpgmarch.assembly import _geometry, gather
    from dpgmarch.basis import lagrange_triangle

    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pts = np.column_stack((x.ravel(), y.ravel()))
    v, _, invJ, _ = _geometry(mesh)
    local = np.einsum("eab,epb->epa", invJ, pts[None, :, :] - v[:, None, 0, :])
    tol = 1e-12
    inside = (local[..., 0] >= -tol) & (local[..., 1] >= -tol) \
        & (local.sum(axis=-1) <= 1.0 + tol)

    u_loc = gather(np.asarray(coeffs_vector, dtype=float), dofmap.element_field_dofs)
    out = np.empty(pts.shape[0])
    for i in range(pts.shape[0]):
        hits = np.flatnonzero(inside[:, i])
        if hits.size == 0:
            raise ValueError(f"point {pts[i]} lies outside the mesh")
        e = hits[0]
        table = lagrange_triangle(dofmap.p + 1, local[e, i][None, :])
        out[i] = u_loc[e] @ table.values[:, 0]
    return out.reshape(x.shape)
