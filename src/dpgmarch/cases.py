"""Manufactured problems on the unit square.

Each case fixes constant coefficients and an exact solution
u = T(t) phi(x, y) with zero boundary values; the source is the PDE residual

    f = u_t - div(A grad u) + beta . grad u + gamma u = T'(t) phi + T(t) L phi,

L phi = -div(A grad phi) + beta . grad phi + gamma phi.  A case stores only
this separable form, the spatial profile phi and the time factors T and T',
and derives every exact quantity from it: u and grad u, the initial data u0,
the frozen-time slice `at(t)` that the error and projection routines take,
and the source, as time weights `source_time(t)` = (T', T) and spatial terms
`source_space(x, y)` = (phi, L phi), so a march condenses each spatial term
once and weights it per step (see `timestep`).  `f` sums the two and
evaluates the source pointwise for the Galerkin oracle.  A source that is not
a finite sum of such products cannot be marched.

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
from .errors import SpatialFields


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
    """A separable case u = T(t) phi(x, y): coefficients, the spatial profile
    phi (see above), the time factor T and its derivative T_dot.  Every exact
    quantity is a method; the space-time ones take (t, x, y) with array-valued
    x, y.  The source is f(t, x, y) = sum_s source_time(t)[s] *
    source_space(x, y)[s], with source_time(t) of shape (m,) and
    source_space(x, y) of shape (m, *x.shape)."""

    name: str
    coeffs: PdeCoefficients
    profile: callable
    T: callable
    T_dot: callable

    def u(self, t, x, y):
        return self.T(t) * self.profile(x, y, 0)

    def grad_u(self, t, x, y):
        g = self.T(t)
        ux, uy = self.profile(x, y, 1)
        return np.stack([g * ux, g * uy])

    def u0(self, x, y):
        return self.u(0.0, x, y)

    def at(self, t: float) -> SpatialFields:
        """Frozen-time slice u(t, .) and grad_u(t, .) as (x, y) callables."""
        return SpatialFields(u=lambda x, y: self.u(t, x, y),
                             grad_u=lambda x, y: self.grad_u(t, x, y))

    def source_time(self, t):
        return np.array([self.T_dot(t), self.T(t)], dtype=float)

    def source_space(self, x, y):
        A, beta, gamma = self.coeffs.A, self.coeffs.beta, self.coeffs.gamma
        phi, ux, uy, uxx, uxy, uyy = self.profile(x, y, 2)
        diffusion = A[0, 0] * uxx + 2.0 * A[0, 1] * uxy + A[1, 1] * uyy
        advection = beta[0] * ux + beta[1] * uy
        return np.stack([phi, -diffusion + advection + gamma * phi])

    def f(self, t, x, y):
        weights = self.source_time(t)
        return sum(w * g for w, g in zip(weights, self.source_space(x, y)))


_EYE = ((1.0, 0.0), (0.0, 1.0))
_DECAY = (lambda t: np.exp(-t), lambda t: -np.exp(-t))
# id: (A, beta, gamma, profile, T, T_dot).  A and beta are tuples, so that each
# case gets arrays of its own.  For adr-linear, backward Euler's difference
# quotient of T is exact.
_CATALOG = {
    "heat-decay": (_EYE, (0.0, 0.0), 0.0, _sine_profile, *_DECAY),
    "adr-decay": (_EYE, (1.0, 0.5), 1.0, _sine_profile, *_DECAY),
    "adr-linear": (_EYE, (1.0, 0.5), 1.0, _sine_profile, lambda t: 1.0 + t, lambda t: 1.0),
    "stationary-adr": (_EYE, (1.0, 0.5), 1.0, _sine_profile, lambda t: 1.0, lambda t: 0.0),
    "aniso": (((2.0, 0.5), (0.5, 1.0)), (0.3, -0.2), 0.5, _bubble_profile, *_DECAY),
}
CASE_IDS = tuple(_CATALOG)


def make_case(case_id: str, k: float, T_end: float) -> PdeCase:
    """Instantiate a catalog case with the given time step and end time."""
    if case_id not in _CATALOG:
        raise ValueError(f"unknown case {case_id!r}; available: {', '.join(CASE_IDS)}")
    A, beta, gamma, profile, T, T_dot = _CATALOG[case_id]
    coeffs = PdeCoefficients(A=A, beta=beta, gamma=gamma, k=k, T_end=T_end)
    return PdeCase(case_id, coeffs, profile, T, T_dot)
