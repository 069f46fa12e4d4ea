import numpy as np
import pytest
import sympy

from dpgmarch.cases import CASE_IDS, make_case


def _central_time(fn, t, x, y, h=1e-6):
    return (fn(t + h, x, y) - fn(t - h, x, y)) / (2 * h)


def _central_grad(fn, t, x, y, h=1e-6):
    gx = (fn(t, x + h, y) - fn(t, x - h, y)) / (2 * h)
    gy = (fn(t, x, y + h) - fn(t, x, y - h)) / (2 * h)
    return np.stack([gx, gy])


@pytest.fixture(params=CASE_IDS)
def case(request):
    return make_case(request.param, 0.1, 1.0)


def _samples(rng, count=25):
    t = rng.uniform(0.05, 0.9, count)
    x = rng.uniform(0.05, 0.95, count)
    y = rng.uniform(0.05, 0.95, count)
    return t, x, y


def _u_t(case, t, x, y):
    return case.T_dot(t) * case.profile(x, y, 0)


def test_time_derivative_matches_finite_differences(case):
    rng = np.random.default_rng(1)
    for t, x, y in zip(*_samples(rng)):
        assert _u_t(case, t, x, y) == pytest.approx(_central_time(case.u, t, x, y), abs=1e-7)


def test_gradient_matches_finite_differences(case):
    rng = np.random.default_rng(2)
    for t, x, y in zip(*_samples(rng)):
        fd = _central_grad(case.u, t, x, y)
        assert np.abs(case.grad_u(t, x, y) - fd).max() <= 1e-6


def test_source_is_pde_residual(case):
    # f = u_t - div(A grad u) + beta . grad u + gamma u, with the divergence
    # evaluated by differencing the gradient callbacks
    rng = np.random.default_rng(3)
    A, beta, gamma = case.coeffs.A, case.coeffs.beta, case.coeffs.gamma
    h = 1e-5
    for t, x, y in zip(*_samples(rng)):
        div_flux = (
            (case.grad_u(t, x + h, y) - case.grad_u(t, x - h, y))[0] / (2 * h) * A[0, 0]
            + (case.grad_u(t, x, y + h) - case.grad_u(t, x, y - h))[0] / (2 * h) * A[0, 1]
            + (case.grad_u(t, x + h, y) - case.grad_u(t, x - h, y))[1] / (2 * h) * A[1, 0]
            + (case.grad_u(t, x, y + h) - case.grad_u(t, x, y - h))[1] / (2 * h) * A[1, 1]
        )
        expected = (_u_t(case, t, x, y) - div_flux
                    + beta @ case.grad_u(t, x, y) + gamma * case.u(t, x, y))
        assert case.f(t, x, y) == pytest.approx(expected, rel=1e-5, abs=1e-7)


def test_zero_boundary_values(case):
    s = np.linspace(0.0, 1.0, 13)
    for t in (0.0, 0.4, 1.0):
        for edge in (case.u(t, s, 0.0 * s), case.u(t, s, 1.0 + 0.0 * s),
                     case.u(t, 0.0 * s, s), case.u(t, 1.0 + 0.0 * s, s)):
            assert np.abs(edge).max() <= 1e-14


def test_stationary_case_is_time_independent():
    case = make_case("stationary-adr", 0.1, 1.0)
    x, y = 0.3, 0.7
    assert case.u(0.0, x, y) == case.u(0.7, x, y)
    assert case.T_dot(0.5) == 0.0


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown case"):
        make_case("poisson", 0.1, 1.0)


def test_initial_slice_matches_u0(case):
    rng = np.random.default_rng(4)
    _, x, y = _samples(rng, 5)
    assert np.allclose(case.u0(x, y), case.u(0.0, x, y))


def test_frozen_time_slice_is_the_case_bitwise(case):
    rng = np.random.default_rng(5)
    t, x, y = _samples(rng)
    for time in (0.0, 0.37, 1.0):
        exact = case.at(time)
        assert np.array_equal(exact.u(x, y), case.u(time, x, y))
        assert np.array_equal(exact.grad_u(x, y), case.grad_u(time, x, y))
    assert np.array_equal(case.u0(x, y), case.at(0.0).u(x, y))


# The catalog of the `cases` docstring, written out symbolically:
# id: (A, beta, gamma, u(t, x, y)).
_t, _x, _y = sympy.symbols("t x y")
_SINE = sympy.sin(sympy.pi * _x) * sympy.sin(sympy.pi * _y)
_ADR = (sympy.eye(2), (1, sympy.Rational(1, 2)), 1)
SYMBOLIC = {
    "heat-decay": (sympy.eye(2), (0, 0), 0, sympy.exp(-_t) * _SINE),
    "adr-decay": (*_ADR, sympy.exp(-_t) * _SINE),
    "adr-linear": (*_ADR, (1 + _t) * _SINE),
    "stationary-adr": (*_ADR, _SINE),
    "aniso": (sympy.Matrix([[2, sympy.Rational(1, 2)], [sympy.Rational(1, 2), 1]]),
              (sympy.Rational(3, 10), -sympy.Rational(1, 5)), sympy.Rational(1, 2),
              sympy.exp(-_t) * _x * (1 - _x) * _y * (1 - _y)),
}


def test_exact_quantities_match_sympy(case):
    # grad u, T' phi and f = u_t - div(A grad u) + beta . grad u + gamma u,
    # differentiated symbolically from the documented u
    A, beta, gamma, u = SYMBOLIC[case.name]
    assert np.array_equal(case.coeffs.A, np.array(A, dtype=float))
    assert np.array_equal(case.coeffs.beta, np.array(beta, dtype=float))
    assert case.coeffs.gamma == float(gamma)
    grad = sympy.Matrix([sympy.diff(u, _x), sympy.diff(u, _y)])
    flux = A * grad
    f = (sympy.diff(u, _t) - sympy.diff(flux[0], _x) - sympy.diff(flux[1], _y)
         + beta[0] * grad[0] + beta[1] * grad[1] + gamma * u)
    names = ("u", "ux", "uy", "u_t", "f")
    exact = sympy.lambdify((_t, _x, _y), [u, grad[0], grad[1], sympy.diff(u, _t), f], "numpy")
    # the time factors take a scalar t, so the samples are taken one by one
    got, want = [], []
    for t, x, y in zip(*_samples(np.random.default_rng(6))):
        got.append((case.u(t, x, y), *case.grad_u(t, x, y), _u_t(case, t, x, y),
                    case.f(t, x, y)))
        want.append(exact(t, x, y))
    for name, g, w in zip(names, np.array(got).T, np.array(want, dtype=float).T):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name
