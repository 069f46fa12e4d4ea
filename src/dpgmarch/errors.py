"""Error measurement: L2/H1 field errors, the discrete dual surrogate of the
trace norm, and experimental orders of convergence.

The trace norm of a flux error is approximated by the discrete sup over the
broken test space,

    sup_{v in V_h} <sigma - sigma_h, v>_S / ||v||_{V,k}
        = sqrt( sum_K r_K^T G_K^{-1} r_K ),   r_K[m] = <sigma - sigma_h, psi_m>_K,

a lower bound of the continuous dual norm (the sup runs over a subspace).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assembly import PdeCoefficients, _edge_test_tables, gather, gram_blocks, volume_quadrature
from .basis import edge_rule, lagrange_edge, lagrange_triangle, triangle_rule
from .dofmap import DofMap
from .mesh import Mesh


@dataclass(frozen=True)
class SpatialFields:
    """Exact spatial data: u(x, y) and grad_u(x, y) -> (2, ...) array."""

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

    FIELDS = ("level", "h_max", "k", "n_field", "n_trace", "err_L2", "err_H1_semi",
              "err_trace_dual", "eoc_L2", "eoc_H1", "eoc_trace")

    def row(self):
        return [getattr(self, name) for name in self.FIELDS]


def _norm_rule_degree(p: int) -> int:
    # two degrees above assembly exactness keeps quadrature consistency errors
    # well below the discretization errors being measured
    return 2 * (p + 2) + 2


@lru_cache(maxsize=None)
def _field_table(p: int):
    """Degree p+1 basis at the norm rule of order p: read-only, one per p."""
    table = lagrange_triangle(p + 1, triangle_rule(_norm_rule_degree(p)).points)
    for array in (table.values, table.gradients):
        array.flags.writeable = False
    return table


def field_error(mesh: Mesh, dofmap: DofMap, coeffs_vector, exact: SpatialFields,
                mode: str = "L2") -> float:
    """L2 or H1-seminorm distance between the discrete field and exact data."""
    if mode not in ("L2", "H1semi"):
        raise ValueError(f"mode must be 'L2' or 'H1semi', got {mode!r}")
    coeffs_vector = np.asarray(coeffs_vector, dtype=float)
    if coeffs_vector.shape != (dofmap.n_field,):
        raise ValueError(f"field coefficient vector must have shape ({dofmap.n_field},), "
                         f"got {coeffs_vector.shape}")
    _, qp, wdet, invJ = volume_quadrature(mesh, _norm_rule_degree(dofmap.p))
    table = _field_table(dofmap.p)
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
    erule = edge_rule(min(2 * p + 4, 8))
    trace_tab = lagrange_edge(p, erule.points)
    edge_tables = _edge_test_tables(p + 2, erule)

    sigma_h = np.asarray(sigma_h, dtype=float)
    if sigma_h.shape != (dofmap.n_trace,):
        raise ValueError(f"trace coefficient vector has wrong length {sigma_h.shape}")

    # (A grad u) . n - sigma_h once per global edge, in its global orientation
    lo = mesh.vertices[mesh.edges[:, 0]]
    pts = lo[:, None, :] + erule.points[None, :, None] * mesh.edge_vectors()[:, None, :]
    g = np.moveaxis(np.asarray(grad_u(pts[..., 0], pts[..., 1])), 0, -1)
    sig_vals = np.einsum("er,rq->eq", sigma_h.reshape(mesh.n_edges, p + 1), trace_tab.values)
    diff = np.einsum("eqa,ea->eq", g @ coeffs.A.T, mesh.edge_normals()) - sig_vals

    lengths = mesh.edge_lengths()
    nt = edge_tables[(0, 1)].shape[0]
    r = np.zeros((mesh.n_elements, nt))
    for l in range(3):
        edge_idx = mesh.element_edges[:, l]
        s = mesh.element_edge_signs[:, l]
        psi = np.where((s == 1)[:, None, None], edge_tables[(l, 1)][None],
                       edge_tables[(l, -1)][None])
        r += (s * lengths[edge_idx])[:, None] * np.einsum("emq,eq,q->em", psi, diff[edge_idx],
                                                          erule.weights)
    return r


def trace_dual_error(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients, sigma_h,
                     grad_u) -> float:
    """Discrete dual-norm surrogate of || A grad u . n - sigma_h ||_{-1/2,k}."""
    r = _trace_residuals(mesh, dofmap, coeffs, sigma_h, grad_u)
    gram = gram_blocks(mesh, dofmap.p, coeffs)
    y = np.linalg.solve(gram, r[:, :, None])[:, :, 0]
    return float(np.sqrt(np.sum(r * y)))


def eoc(errors, steps):
    """Rates log(e_{l-1}/e_l) / log(s_{l-1}/s_l); None where undefined."""
    errors = list(errors)
    steps = list(steps)
    if len(errors) != len(steps):
        raise ValueError("errors and steps must have equal length")
    rates = []
    for prev_e, cur_e, prev_s, cur_s in zip(errors, errors[1:], steps, steps[1:]):
        if prev_e <= 0.0 or cur_e <= 0.0:
            rates.append(None)
        else:
            rates.append(float(np.log(prev_e / cur_e) / np.log(prev_s / cur_s)))
    return rates

