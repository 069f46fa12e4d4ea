import math

import numpy as np
import pytest

from dpgmarch.basis import (edge_rule, lagrange_edge, lagrange_triangle, triangle_nodes,
                            triangle_rule)

from conftest import integrate_on_reference_triangle


def _random_triangle_points(rng, count):
    # uniform barycentric samples strictly inside the reference triangle
    a = rng.random((count, 2))
    flip = a.sum(axis=1) > 1.0
    a[flip] = 1.0 - a[flip]
    return a


def test_partition_of_unity_and_gradient_sum():
    rng = np.random.default_rng(42)
    pts = _random_triangle_points(rng, 40)
    for degree in (1, 2, 3):
        table = lagrange_triangle(degree, pts)
        assert np.abs(table.values.sum(axis=0) - 1.0).max() <= 1e-13
        assert np.abs(table.gradients.sum(axis=0)).max() <= 1e-13


def test_nodal_property():
    for degree in (1, 2, 3):
        nodes = triangle_nodes(degree)
        table = lagrange_triangle(degree, nodes)
        assert np.abs(table.values - np.eye(len(nodes))).max() <= 1e-12


def test_linear_basis_at_barycenter():
    table = lagrange_triangle(1, [[1 / 3, 1 / 3]])
    assert np.abs(table.values[:, 0] - 1 / 3).max() <= 1e-15


def test_edge_basis():
    rng = np.random.default_rng(3)
    pts = rng.random(17)
    constant = lagrange_edge(0, pts)
    assert constant.values.shape == (1, 17) and np.all(constant.values == 1.0)
    assert constant.gradients.shape == (1, 17, 1) and np.all(constant.gradients == 0.0)
    mid = lagrange_edge(1, [0.5])
    assert np.abs(mid.values - 0.5).max() <= 1e-15
    for degree in (0, 1, 2):
        table = lagrange_edge(degree, pts)
        assert np.abs(table.values.sum(axis=0) - 1.0).max() <= 1e-13


def test_unsupported_degrees_raise():
    with pytest.raises(ValueError):
        lagrange_triangle(4, [[0.1, 0.1]])
    with pytest.raises(ValueError):
        lagrange_edge(3, [0.2])
    with pytest.raises(ValueError):
        triangle_rule(9)
    with pytest.raises(ValueError):
        edge_rule(9)


def test_triangle_rule_weight_sums():
    for degree in range(9):
        rule = triangle_rule(degree)
        assert np.all(rule.weights > 0.0)
        assert abs(rule.weights.sum() - 0.5) <= 1e-14


def test_triangle_rule_monomial_exactness():
    # oracle: int_T x^a y^b = a! b! / (a + b + 2)!
    for degree in range(9):
        rule = triangle_rule(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
                quad = float(np.sum(rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                assert abs(quad - exact) <= 1e-13


def test_triangle_rule_x_squared():
    rule = triangle_rule(2)
    assert float(np.sum(rule.weights * rule.points[:, 0] ** 2)) == pytest.approx(1 / 12, abs=1e-14)


def test_edge_rule_exactness():
    for degree in range(9):
        rule = edge_rule(degree)
        assert abs(rule.weights.sum() - 1.0) <= 1e-14
        for m in range(degree + 1):
            quad = float(np.sum(rule.weights * rule.points**m))
            assert abs(quad - 1.0 / (m + 1)) <= 1e-14
    cubic = edge_rule(3)
    assert float(np.sum(cubic.weights * cubic.points**3)) == pytest.approx(0.25, abs=1e-14)


def test_mass_matrix_matches_symbolic_integration():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for degree in (1, 2, 3):
        nodes = [(sympy.nsimplify(px), sympy.nsimplify(py)) for px, py in triangle_nodes(degree)]
        exps = [(t - b, b) for t in range(degree + 1) for b in range(t + 1)]
        vand = sympy.Matrix([[px**a * py**b for a, b in exps] for px, py in nodes])
        coeff = vand.inv()
        basis = [sum(coeff[m, j] * x ** exps[m][0] * y ** exps[m][1] for m in range(len(exps)))
                 for j in range(len(exps))]
        exact = np.array([
            [float(integrate_on_reference_triangle(bi * bj, x, y)) for bj in basis]
            for bi in basis
        ])
        rule = triangle_rule(2 * degree)
        table = lagrange_triangle(degree, rule.points)
        quad = np.einsum("iq,jq,q->ij", table.values, table.values, rule.weights)
        assert np.abs(quad - exact).max() <= 1e-12
