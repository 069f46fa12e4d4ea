"""Nodal Lagrange shape functions and Gauss quadrature on reference elements.

Reference triangle: vertices (0,0), (1,0), (0,1).  Reference edge: [0,1].
Triangle rules are built by collapsing a tensor Gauss rule (Duffy map), which
is exact for the requested total polynomial degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TRIANGLE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_MAX_RULE_DEGREE = 8
_TRI_DEGREES = (1, 2, 3)
_EDGE_DEGREES = (0, 1, 2)


@dataclass(frozen=True)
class ShapeTable:
    """Lagrange basis tabulated at a fixed set of reference points.

    values[i, q] is basis function i at point q; gradients[i, q, :] its
    reference gradient (one component on the reference edge).
    """

    degree: int
    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray


@dataclass(frozen=True)
class QuadRule:
    points: np.ndarray
    weights: np.ndarray
    exact_degree: int


def _tri_exponents(degree):
    return [(t - b, b) for t in range(degree + 1) for b in range(t + 1)]


def triangle_nodes(degree: int) -> np.ndarray:
    """Nodal points: vertices, then (degree-1) points per local edge l in
    traversal order v_l -> v_{l+1}, then interior points."""
    if degree not in _TRI_DEGREES:
        raise ValueError(f"unsupported triangle degree {degree}; supported: {_TRI_DEGREES}")
    nodes = [TRIANGLE_VERTICES[i] for i in range(3)]
    for l in range(3):
        a = TRIANGLE_VERTICES[l]
        b = TRIANGLE_VERTICES[(l + 1) % 3]
        for r in range(1, degree):
            nodes.append(a + (r / degree) * (b - a))
    if degree == 3:
        nodes.append(np.array([1.0, 1.0]) / 3.0)
    return np.array(nodes)


def _tri_vandermonde(points, degree):
    x, y = points[:, 0], points[:, 1]
    return np.column_stack([x**a * y**b for a, b in _tri_exponents(degree)])


def _tri_vandermonde_grad(points, degree):
    x, y = points[:, 0], points[:, 1]
    dx, dy = [], []
    for a, b in _tri_exponents(degree):
        dx.append(a * x ** max(a - 1, 0) * y**b if a > 0 else np.zeros_like(x))
        dy.append(b * x**a * y ** max(b - 1, 0) if b > 0 else np.zeros_like(x))
    return np.column_stack(dx), np.column_stack(dy)


@lru_cache(maxsize=None)
def _tri_coefficients(degree: int) -> np.ndarray:
    # column j holds the monomial coefficients of nodal basis function j
    return np.linalg.inv(_tri_vandermonde(triangle_nodes(degree), degree))


def lagrange_triangle(degree: int, points) -> ShapeTable:
    """Nodal Lagrange basis on the reference triangle tabulated at `points`."""
    if degree not in _TRI_DEGREES:
        raise ValueError(f"unsupported triangle degree {degree}; supported: {_TRI_DEGREES}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    coeff = _tri_coefficients(degree)
    values = (_tri_vandermonde(points, degree) @ coeff).T
    vdx, vdy = _tri_vandermonde_grad(points, degree)
    gradients = np.stack([(vdx @ coeff).T, (vdy @ coeff).T], axis=2)
    return ShapeTable(degree=degree, points=points, values=values, gradients=gradients)


@lru_cache(maxsize=None)
def triangle_table(degree: int, rule_degree: int) -> ShapeTable:
    """Degree `degree` basis at the points of triangle_rule(rule_degree):
    read-only and shared by every caller."""
    table = lagrange_triangle(degree, triangle_rule(rule_degree).points)
    for array in (table.values, table.gradients):
        array.flags.writeable = False
    return table


def edge_nodes(degree: int) -> np.ndarray:
    if degree not in _EDGE_DEGREES:
        raise ValueError(f"unsupported edge degree {degree}; supported: {_EDGE_DEGREES}")
    if degree == 0:
        return np.array([0.5])
    return np.linspace(0.0, 1.0, degree + 1)


def lagrange_edge(degree: int, points) -> ShapeTable:
    """Lagrange basis on the reference edge [0,1]; degree 0 is the constant 1,
    which the Vandermonde path below gives for the single node 1/2."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    nodes = edge_nodes(degree)
    vand = np.column_stack([nodes**m for m in range(degree + 1)])
    coeff = np.linalg.inv(vand)
    values = (np.column_stack([points**m for m in range(degree + 1)]) @ coeff).T
    dvand = np.column_stack(
        [m * points ** max(m - 1, 0) if m > 0 else np.zeros_like(points) for m in range(degree + 1)]
    )
    gradients = ((dvand @ coeff).T)[:, :, None]
    return ShapeTable(degree=degree, points=points, values=values, gradients=gradients)


def _gauss01(n_points: int):
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def edge_rule(exact_degree: int) -> QuadRule:
    """Gauss rule on [0,1] exact for polynomials up to `exact_degree`."""
    if not 0 <= exact_degree <= _MAX_RULE_DEGREE:
        raise ValueError(f"edge rule degree {exact_degree} outside supported range [0, {_MAX_RULE_DEGREE}]")
    n = max(1, math.ceil((exact_degree + 1) / 2))
    points, weights = _gauss01(n)
    return QuadRule(points=points, weights=weights, exact_degree=exact_degree)


@lru_cache(maxsize=None)
def triangle_rule(exact_degree: int) -> QuadRule:
    """Collapsed tensor Gauss rule on the reference triangle.

    With x = u, y = v(1-u) the integrand x^a y^b picks up the Jacobian
    (1-u), so a monomial of total degree d needs 1D exactness d+1 in u.
    """
    if not 0 <= exact_degree <= _MAX_RULE_DEGREE:
        raise ValueError(f"triangle rule degree {exact_degree} outside supported range [0, {_MAX_RULE_DEGREE}]")
    n = math.ceil((exact_degree + 2) / 2)
    u, wu = _gauss01(n)
    v, wv = _gauss01(n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wu * (1.0 - u), wv)).ravel()
    return QuadRule(points=np.column_stack((x, y)), weights=w, exact_degree=exact_degree)
