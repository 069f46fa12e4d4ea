"""Error measurement: L2/H1 field errors, the discrete dual surrogate of the
trace norm, and experimental orders of convergence.

The trace norm of a flux error is approximated by the discrete sup over the
broken test space,

    sup_{v in V_h} <sigma - sigma_h, v>_S / ||v||_{V,k}
        = sqrt( sum_K r_K^T G_K^{-1} r_K ),   r_K[m] = <sigma - sigma_h, psi_m>_K,

a lower bound of the continuous dual norm (the sup runs over a subspace).
The factors L_K of G_K = L_K L_K^T are those of `assembly.gram_factors`, one
per class of congruent elements: the factors the condensations use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .assembly import PdeCoefficients, _edge_tables, _forward_substitution, _sides, gather, \
    gram_factors, volume_quadrature
from .basis import triangle_table
from .dofmap import DofMap
from .mesh import Mesh


@dataclass(frozen=True)
class SpatialFields:
    """Exact spatial data: u(x, y) and grad_u(x, y) -> (2, ...) array.
    `PdeCase.at(t)` builds it from a case at a frozen time."""

    u: callable
    grad_u: callable


ZERO_FIELDS = SpatialFields(u=lambda x, y: np.zeros_like(x),
                            grad_u=lambda x, y: np.zeros((2,) + np.shape(x)))


@dataclass
class ErrorReport:
    level: int
    h_max: float
    k: float
    n_field: int
    n_trace: int
    err_L2: float
    err_H1_semi: float
    err_trace_dual: float
    eoc_L2: float | None = None
    eoc_H1: float | None = None
    eoc_trace: float | None = None

    def row(self):
        """The values in field order, the order of the study CSV's columns."""
        return [getattr(self, field.name) for field in fields(self)]


def _norm_rule_degree(p: int) -> int:
    # two degrees above assembly exactness keeps quadrature consistency errors
    # well below the discretization errors being measured
    return 2 * (p + 2) + 2


def field_error(mesh: Mesh, dofmap: DofMap, coeffs_vector, exact: SpatialFields,
                mode: str = "L2") -> float:
    """L2 or H1-seminorm distance between the discrete field and exact data."""
    if mode not in ("L2", "H1semi"):
        raise ValueError(f"mode must be 'L2' or 'H1semi', got {mode!r}")
    coeffs_vector = np.asarray(coeffs_vector, dtype=float)
    if coeffs_vector.shape != (dofmap.n_field,):
        raise ValueError(f"field coefficient vector must have shape ({dofmap.n_field},), "
                         f"got {coeffs_vector.shape}")
    rule_degree = _norm_rule_degree(dofmap.p)
    qp, wdet, invJ = volume_quadrature(mesh, rule_degree)
    table = triangle_table(dofmap.p + 1, rule_degree)
    u_loc = gather(coeffs_vector, dofmap.element_field_dofs)

    if mode == "L2":
        diff = exact.u(qp[..., 0], qp[..., 1]) - u_loc @ table.values
        return float(np.sqrt((diff * diff).ravel() @ wdet.ravel()))
    # contract on the reference element, then map: grad_x u_h = J^{-T} grad_ref u_h
    gh = np.tensordot(u_loc, table.gradients, axes=1) @ invJ
    g = np.moveaxis(np.asarray(exact.grad_u(qp[..., 0], qp[..., 1])), 0, -1)
    diff = g - gh
    return float(np.sqrt(np.sum(wdet * np.sum(diff**2, axis=-1))))


def _trace_residuals(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients, sigma_h,
                     grad_u) -> np.ndarray:
    """r_K[m] = <sigma - sigma_h, psi_m>_K with sigma = A grad_u . n."""
    p = dofmap.p
    erule, trace, tables = _edge_tables(p, min(2 * p + 4, 8))

    sigma_h = np.asarray(sigma_h, dtype=float)
    if sigma_h.shape != (dofmap.n_trace,):
        raise ValueError(f"trace coefficient vector has wrong length {sigma_h.shape}")

    # (A grad u) . n - sigma_h once per global edge, in its global orientation
    lo = mesh.vertices[mesh.edges[:, 0]]
    pts = lo[:, None, :] + erule.points[None, :, None] * mesh.edge_vectors()[:, None, :]
    g = np.moveaxis(np.asarray(grad_u(pts[..., 0], pts[..., 1])), 0, -1)
    sig_vals = np.einsum("er,rq->eq", sigma_h.reshape(mesh.n_edges, p + 1), trace)
    diff = np.einsum("eqa,ea->eq", g @ coeffs.A.T, mesh.edge_normals()) - sig_vals

    lengths = mesh.edge_lengths()
    r = np.zeros((mesh.n_elements, tables.shape[2]))
    for l in range(3):
        edge_idx = mesh.element_edges[:, l]
        s = mesh.element_edge_signs[:, l]
        psi = tables[l, _sides(s)]
        r += (s * lengths[edge_idx])[:, None] * np.einsum("emq,eq,q->em", psi, diff[edge_idx],
                                                          erule.weights)
    return r


def trace_dual_error(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients, sigma_h,
                     grad_u) -> float:
    """Discrete dual-norm surrogate of || A grad u . n - sigma_h ||_{-1/2,k}:
    the square root of sum_K r_K^T G_K^{-1} r_K = sum_K ||L_K^{-1} r_K||^2,
    with L_K the factor of its class from `assembly.gram_factors`."""
    r = _trace_residuals(mesh, dofmap, coeffs, sigma_h, grad_u)
    factors = gram_factors(mesh, dofmap.p, coeffs)
    y = _forward_substitution(factors.chol[factors.cls], r[:, :, None])
    return float(np.sqrt(np.sum(y * y)))


def eoc(errors, steps):
    """Rates log(e_{l-1}/e_l) / log(s_{l-1}/s_l); None where undefined."""
    errors = list(errors)
    steps = list(steps)
    if len(errors) != len(steps):
        raise ValueError("errors and steps must have equal length")
    rates = []
    for prev_e, cur_e, prev_s, cur_s in zip(errors, errors[1:], steps, steps[1:]):
        if prev_e <= 0.0 or cur_e <= 0.0 or prev_s == cur_s:
            rates.append(None)
        else:
            rates.append(float(np.log(prev_e / cur_e) / np.log(prev_s / cur_s)))
    return rates

