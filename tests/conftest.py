import numpy as np
import pytest

from dpgmarch.assembly import PdeCoefficients


@pytest.fixture
def heat_coeffs():
    return PdeCoefficients(A=np.eye(2), beta=np.zeros(2), gamma=0.0, k=0.1, T_end=1.0)


@pytest.fixture
def adr_coeffs():
    return PdeCoefficients(A=np.eye(2), beta=np.array([1.0, 0.5]), gamma=1.0, k=0.1, T_end=1.0)


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
    z = np.einsum("enm,en->em", blocks.chol, v)
    return float(np.sqrt(np.sum(z * z)))


def apply_trial_to_test(system, u):
    """Discrete optimal test function of a trial vector, element-blocked
    coefficients (ne, nt): v_K = G_K^{-1} B_{a,K} u_loc, applied through the
    stored Cholesky inverses."""
    blocks = system.blocks
    u_loc = blocks.gather_local(np.asarray(u, dtype=float))
    z = np.einsum("emn,enc,ec->em", blocks.chol_inv, blocks.B_a, u_loc)
    return np.einsum("enm,en->em", blocks.chol_inv, z)


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
