"""Manufactured problems on the unit square.

Each case fixes constant coefficients and an exact solution
u = T(t) phi(x, y) with zero boundary values; the source is the PDE residual

    f = u_t - div(A grad u) + beta . grad u + gamma u = T'(t) phi + T(t) L phi,

L phi = -div(A grad phi) + beta . grad phi + gamma phi.  A case carries the
source in this separated form, as time weights `source_time(t)` = (T', T)
and spatial terms `source_space(x, y)` = (phi, L phi), so a march condenses
each spatial term once and weights it per step (see `timestep`).  `f` is
derived from the two and evaluates the source pointwise for the Galerkin
oracle.  A source that is not a finite sum of such products cannot be
marched.

Catalog:
    heat-decay      A=I, beta=0, gamma=0,           u = exp(-t) sin(pi x) sin(pi y)
    adr-decay       A=I, beta=(1, 0.5), gamma=1,    same spatial profile
    adr-linear      same coefficients,              u = (1 + t) sin(pi x) sin(pi y)
    stationary-adr  same coefficients,              u = sin(pi x) sin(pi y), time-independent
    aniso           A=[[2,.5],[.5,1]], beta=(.3,-.2), gamma=.5,
                                                    u = exp(-t) x(1-x) y(1-y)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import PdeCoefficients


# A spatial profile maps (x, y, order) to what a callback of that derivative
# order needs of the factor phi: phi (order 0), (phi_x, phi_y) (order 1) or
# (phi, phi_x, phi_y, phi_xx, phi_xy, phi_yy) (order 2), evaluating only the
# factors these share.  Products keep their left-to-right operand order:
# regrouping them changes the rounding, and with it the recorded CLI outputs.


def _sine_profile(x, y, order):
    pi = np.pi
    sx, sy = np.sin(pi * x), np.sin(pi * y)
    if order == 0:
        return sx * sy
    cx, cy = np.cos(pi * x), np.cos(pi * y)
    if order == 1:
        return pi * cx * sy, pi * sx * cy
    second = -pi**2 * sx * sy
    return sx * sy, pi * cx * sy, pi * sx * cy, second, pi**2 * cx * cy, second


def _bubble_profile(x, y, order):
    mx, my = 1 - x, 1 - y
    if order == 0:
        return x * mx * y * my
    dx, dy = 1 - 2 * x, 1 - 2 * y
    if order == 1:
        return dx * y * my, x * mx * dy
    return (x * mx * y * my, dx * y * my, x * mx * dy,
            -2.0 * y * my + 0.0 * x, dx * dy, -2.0 * x * mx + 0.0 * y)


@dataclass(frozen=True)
class PdeCase:
    """Coefficients plus exact-solution callbacks; all space-time callables
    take (t, x, y) with array-valued x, y.  The source is
    f(t, x, y) = sum_s source_time(t)[s] * source_space(x, y)[s], with
    source_time(t) of shape (m,) and source_space(x, y) of shape (m, *x.shape)."""

    name: str
    coeffs: PdeCoefficients
    u: callable
    grad_u: callable
    u_t: callable
    source_time: callable
    source_space: callable

    def f(self, t, x, y):
        weights = self.source_time(t)
        return sum(w * g for w, g in zip(weights, self.source_space(x, y)))

    def u0(self, x, y):
        return self.u(0.0, x, y)

    def spatial_u(self, t: float):
        """Frozen-time spatial slice (u, grad_u) as (x, y) callables."""
        return (lambda x, y: self.u(t, x, y)), (lambda x, y: self.grad_u(t, x, y))


def _make_case(name, coeffs, profile, time_factor, time_factor_dot) -> PdeCase:
    A, beta, gamma = coeffs.A, coeffs.beta, coeffs.gamma

    def u(t, x, y):
        return time_factor(t) * profile(x, y, 0)

    def grad_u(t, x, y):
        g = time_factor(t)
        ux, uy = profile(x, y, 1)
        return np.stack([g * ux, g * uy])

    def u_t(t, x, y):
        return time_factor_dot(t) * profile(x, y, 0)

    def source_time(t):
        return np.array([time_factor_dot(t), time_factor(t)], dtype=float)

    def source_space(x, y):
        phi, ux, uy, uxx, uxy, uyy = profile(x, y, 2)
        diffusion = A[0, 0] * uxx + 2.0 * A[0, 1] * uxy + A[1, 1] * uyy
        advection = beta[0] * ux + beta[1] * uy
        return np.stack([phi, -diffusion + advection + gamma * phi])

    return PdeCase(name=name, coeffs=coeffs, u=u, grad_u=grad_u, u_t=u_t,
                   source_time=source_time, source_space=source_space)


def _catalog():
    eye = np.eye(2)
    decay = (lambda t: np.exp(-t), lambda t: -np.exp(-t))
    linear = (lambda t: 1.0 + t, lambda t: 1.0)  # backward Euler's quotient is exact
    steady = (lambda t: 1.0, lambda t: 0.0)
    return {
        "heat-decay": (eye, np.zeros(2), 0.0, _sine_profile, decay),
        "adr-decay": (eye, np.array([1.0, 0.5]), 1.0, _sine_profile, decay),
        "adr-linear": (eye, np.array([1.0, 0.5]), 1.0, _sine_profile, linear),
        "stationary-adr": (eye, np.array([1.0, 0.5]), 1.0, _sine_profile, steady),
        "aniso": (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.2]), 0.5,
                  _bubble_profile, decay),
    }


CASE_IDS = tuple(_catalog().keys())


def make_case(case_id: str, k: float, T_end: float) -> PdeCase:
    """Instantiate a catalog case with the given time step and end time."""
    catalog = _catalog()
    if case_id not in catalog:
        raise ValueError(f"unknown case {case_id!r}; available: {', '.join(CASE_IDS)}")
    A, beta, gamma, profile, (g, gdot) = catalog[case_id]
    coeffs = PdeCoefficients(A=A, beta=beta, gamma=gamma, k=k, T_end=T_end)
    return _make_case(case_id, coeffs, profile, g, gdot)
