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
    time and its grad_u is zero, which is no solution of the PDE: only u0 is
    read from them."""
    from dpgmarch.cases import PdeCase

    class ZeroDataCase(PdeCase):
        def source_time(self, t):
            return np.ones(1)

        def source_space(self, x, y):
            return np.zeros((1,) + np.shape(x))

    def profile(x, y, order):
        if order == 0:
            return np.zeros_like(x) if u0 is None else u0(x, y)
        return np.zeros_like(x), np.zeros_like(x)

    coeffs = PdeCoefficients(A=np.eye(2), beta=np.zeros(2), gamma=0.0, k=k, T_end=T_end)
    return ZeroDataCase(name="zero-data", coeffs=coeffs, profile=profile,
                        T=lambda t: 1.0, T_dot=lambda t: 0.0)


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


def perturbed_mesh(n, seed, amplitude=0.05):
    """Structured n x n mesh with every interior vertex moved by up to
    `amplitude` in each coordinate."""
    from dpgmarch.mesh import build_structured_mesh, mesh_from_arrays

    mesh = build_structured_mesh(n)
    vertices = mesh.vertices.copy()
    inner = ~mesh.vertex_on_boundary
    vertices[inner] += np.random.default_rng(seed).uniform(-amplitude, amplitude, (inner.sum(), 2))
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
    from dpgmarch.assembly import _affine
    from dpgmarch.basis import lagrange_triangle, triangle_rule

    rule = triangle_rule(2 * (dofmap.p + 2))
    table = lagrange_triangle(dofmap.p + 1, rule.points)
    _, invJ, detJ = _affine(mesh.vertices[mesh.elements])
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


def norm_in_test_space(factors, v):
    """(V,k)-norm of an element-blocked test function, sqrt(sum_K v_K^T G_K v_K),
    with the Cholesky factors of `assembly.gram_factors`."""
    z = np.einsum("enm,en->em", factors.chol[factors.cls], v)
    return float(np.sqrt(np.sum(z * z)))


def a_blocks(blocks, coeffs):
    """Trial-to-test blocks B_{a,K} of the time-step form a, per class: B_b
    with mass_field / k added to its field columns, the two lines by which
    `_build_blocks` forms them before it keeps only E_{a,K}^T."""
    B_a = blocks.B_b.copy()
    B_a[:, :, :blocks.mass_field.shape[2]] += (1.0 / coeffs.k) * blocks.mass_field
    return B_a


def apply_trial_to_test(blocks, coeffs, u):
    """Discrete optimal test function of a trial vector, element-blocked
    coefficients (ne, nt): v_K = G_K^{-1} B_{a,K} u_loc, applied through the
    Cholesky inverses of the element blocks."""
    from dpgmarch.assembly import gather

    u_loc = gather(np.asarray(u, dtype=float), blocks.cols)
    chol_inv = blocks.chol_inv[blocks.cls]
    z = np.einsum("emn,enc,ec->em", chol_inv, a_blocks(blocks, coeffs)[blocks.cls], u_loc)
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


def element_grams(mesh, p, coeffs):
    """Gram blocks G_K = L_K L_K^T of every element, (ne, nt, nt), from the
    factor of its class."""
    from dpgmarch.assembly import gram_factors

    factors = gram_factors(mesh, p, coeffs)
    return (factors.chol @ factors.chol.transpose(0, 2, 1))[factors.cls]


def projection_load(system, loads):
    """Condensed projection load sum_K E_{a,K}^T L_K^{-1} l_K of the element
    test loads l (ne, nt), in the numbering of the dofmap."""
    from dpgmarch.assembly import condensed_loads

    blocks = system.blocks
    return condensed_loads(blocks, loads[..., None], blocks.cols, system.N.shape[0])[:, 0]


def discrete_b_load(mesh, dofmap, coeffs, coefficients):
    """Element test loads b(u_h, psi_m), shape (ne, nt), of a trial vector of
    length n_dof."""
    from dpgmarch.assembly import _build_blocks, gather

    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.shape != (dofmap.n_dof,):
        raise ValueError(f"trial coefficient vector must have shape ({dofmap.n_dof},), "
                         f"got {coefficients.shape}")
    blocks = _build_blocks(mesh, dofmap, coeffs)
    return np.einsum("emc,ec->em", blocks.B_b[blocks.cls], gather(coefficients, blocks.cols))


def mixed_matrix(mesh, dofmap, coeffs):
    """Saddle matrix [[G, B_b], [B_a^T, 0]] of the mixed projection in CSC,
    scattered from G_K, B_{b,K} and B_{a,K} at test rows e*nt + m."""
    import scipy.sparse as sp

    from dpgmarch.assembly import _build_blocks, scatter

    blocks = _build_blocks(mesh, dofmap, coeffs)
    cls, n_dof = blocks.cls, dofmap.n_dof
    ne, nt = len(cls), blocks.chol_inv.shape[1]
    rows = np.arange(ne * nt).reshape(ne, nt)
    G = scatter(element_grams(mesh, dofmap.p, coeffs), rows, rows, (ne * nt,) * 2, "csr")
    Bb = scatter(blocks.B_b[cls], rows, blocks.cols, (ne * nt, n_dof), "csr")
    Ba = scatter(a_blocks(blocks, coeffs)[cls], rows, blocks.cols, (ne * nt, n_dof), "csr")
    return sp.bmat([[G, Bb], [Ba.T, None]], format="csc")


def project_mixed(mesh, dofmap, coeffs, loads):
    """The elliptic projection from its mixed saddle-point form

        (v_h, dv)_{V,k} + b(u_h, dv) = b(u, dv),      a(dw, v_h) = 0,

    for element test loads l_b, shape (ne, nt), from `exact_b_load` or
    `discrete_b_load`.  An oracle of `elliptic.project`: the saddle matrix is
    factored by scipy's default splu (COLAMD, partial pivoting), which shares
    no solver code with `lu_solve`.  Returns (v_h, TrialVector) with v_h, the
    projection residual in the test space, element-blocked as the loads."""
    import scipy.sparse.linalg as spla

    from dpgmarch.timestep import TrialVector

    saddle = mixed_matrix(mesh, dofmap, coeffs)
    loads = np.asarray(loads, dtype=float)
    shape = (mesh.n_elements, (saddle.shape[0] - dofmap.n_dof) // mesh.n_elements)
    if loads.shape != shape:
        raise ValueError(f"element test loads must have shape {shape}, got {loads.shape}")
    rhs = np.concatenate([loads.ravel(), np.zeros(dofmap.n_dof)])
    v, u = np.split(spla.splu(saddle).solve(rhs), [loads.size])
    return v.reshape(loads.shape), TrialVector.from_vector(u, dofmap.n_field)


def b_orthogonality_residual(system, rhs, solution):
    """(max_i |b(u - u_h, Theta phi_i)|, system scale) for a computed projection."""
    residual = rhs - system.N @ solution
    scale = float(np.abs(system.N).dot(np.abs(solution)).max() + np.abs(rhs).max())
    return float(np.abs(residual).max()), scale


def function_l2_norm(mesh, f, degree=8):
    """Quadrature L2 norm of a pointwise function over the mesh."""
    from dpgmarch.assembly import volume_quadrature

    qp, wdet, _ = volume_quadrature(mesh, degree)
    vals = f(qp[..., 0], qp[..., 1])
    return float(np.sqrt(np.sum(wdet * vals**2)))


def evaluate_field(mesh, dofmap, coeffs_vector, x, y):
    """Pointwise evaluation of the discrete field (brute-force element lookup)."""
    from dpgmarch.assembly import _affine, gather
    from dpgmarch.basis import lagrange_triangle

    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    pts = np.column_stack((x.ravel(), y.ravel()))
    v = mesh.vertices[mesh.elements]
    _, invJ, _ = _affine(v)
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
