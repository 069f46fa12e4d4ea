"""Element blocks and static condensation for the backward Euler primal DPG step.

Per element K the test space carries the inner product

    (v, dv)_{V,k} = (1/k)(v, dv)_K + (A grad v, grad dv)_K,

whose matrix G_K = L_K L_K^T is the Gram block.  The trial-to-test matrices
realize

    b(u, v) = (A grad u, grad v) + (beta . grad u, v) + (gamma u, v)
              - sum_{e in dK} sign_{K,e} int_e sigma_hat v ds,
    a(u, v) = (1/k)(u, v) + b(u, v),

with columns ordered field nodes first, then 3*(p+1) trace slots.  Dirichlet
field nodes are eliminated.  The test space is broken, so every condensation
is a sum of small element products: with E_K = L_K^{-1} B_{a,K},

    S = sum_K B_{a,K}^T G_K^{-1} B_{a,K} = sum_K E_K^T E_K,

symmetric positive definite on the free (field + trace) unknowns, summed
by `scatter` (the one sparse sum of element blocks, here and in `elliptic`
and `galerkin`) in one conversion to compressed storage.  The source of a
march is separable, f(t, x) = sum_s a_s(t) g_s(x) (see `cases`), so a
step's load (f + w/k, psi)_K condenses to

    rhs = sum_K E_K^T L_K^{-1} ((sum_s a_s g_s, psi)_K + mass_field w_K / k)
        = F a(t) + C w,

with (g_s, psi)_K integrated once per march by the volume rule of degree
2(p+2).  E_K^T is formed once, with the element blocks (`LocalBlocks.Et`),
and one load condensation, `condensed_loads`, sums E_K^T L_K^{-1} l_K over
the elements for the march's F and for the load of the elliptic projection
(see `elliptic`).  A march keeps S, its factor, F and C, all numbered in the
`nested_dissection` order that the factor needs, and a step does no
quadrature.  It also keeps the field mass matrix M = sum_K det J M_ff, in
the numbering of the dofmap, so the L2 norm of a field w is
sqrt(w^T M w), one product and no quadrature.

Elements are affine and A, beta, gamma constant, so each volume block is a
fixed combination of reference-triangle integrals (the tensor representation
of Kirby, Knepley, Logg & Scott, SIAM J. Sci. Comput. 27, 2005),
K^{ab} = int d_a psi d_b phi, M = int psi phi and C^a = int psi d_a phi,
weighted per element by W_K = det J J^{-1} A J^{-T}, b_K = det J J^{-1} beta
and det J:

    G_K = W_K : K_tt + (det J / k) M_tt,    mass_field = det J M_tf,
    B_field = W_K : K_tf + b_K . C_tf + gamma mass_field,

with t the test and f the field basis.

These weights, and with them every block, depend on the element only
through J, the signs of its edges and their lengths.  `element_classes`
groups the elements that are translates of each other, bit for bit, with
equally oriented edges; the blocks are built once per class, for its first
element, and element e reads those of class cls[e].  G_K is formed and
factored in one place, `gram_factors`, for `_build_blocks` and for
`errors.trace_dual_error`.  A structured n-by-n mesh has 2 classes when n
is a power of two and 50-98 at n = 12, 24, 48; a perturbed mesh has one
class per element.  The element products of a condensation are formed per
class too, and taken to the elements, in element order, only by a scatter
or by an element load, so S, C and F are bitwise those of a per-element
build.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .basis import TRIANGLE_VERTICES, edge_rule, lagrange_edge, lagrange_triangle, triangle_rule, \
    triangle_table
from .dofmap import DofMap
from .linalg import SolverError, factor_spd, nested_dissection
from .mesh import Mesh

_SYM_TOL = 1e-12
_TRACE_EQUIV_WARN = 10.0  # h / sqrt(k) beyond which the trace-norm equivalence degrades
_FNV_OFFSET, _FNV_PRIME = np.uint64(0xCBF29CE484222325), np.uint64(0x100000001B3)


@dataclass(frozen=True)
class PdeCoefficients:
    """Constant PDE data: diffusion matrix A (SPD), advection beta, reaction
    gamma >= 0, time step k and end time T_end."""

    A: np.ndarray
    beta: np.ndarray
    gamma: float
    k: float
    T_end: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        if A.shape != (2, 2):
            raise ValueError(f"A must be 2x2, got shape {A.shape}")
        if beta.shape != (2,):
            raise ValueError(f"beta must be a 2-vector, got shape {beta.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(beta))
                and np.isfinite(self.gamma)):
            raise ValueError("A, beta and gamma must be finite")
        if np.abs(A - A.T).max() > 1e-12 * max(np.abs(A).max(), 1.0):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(A).min() <= 0.0:
            raise ValueError("A must be positive definite")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if not self.k > 0.0:
            raise ValueError(f"time step k must be positive, got {self.k}")
        if not self.T_end > 0.0:
            raise ValueError(f"T_end must be positive, got {self.T_end}")
        if self.k > self.T_end * (1.0 + 1e-12):
            raise ValueError(f"time step k={self.k} exceeds T_end={self.T_end}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "T_end", float(self.T_end))

    def is_heat(self) -> bool:
        return (np.abs(self.A - np.eye(2)).max() == 0.0
                and np.abs(self.beta).max() == 0.0 and self.gamma == 0.0)


@dataclass
class LocalBlocks:
    """Blocks stacked per class of congruent elements (see `element_classes`),
    the set-up temporaries of a condensation; element e has the blocks of
    class cls[e].

    chol / chol_inv: Cholesky factor L_K of G_K and its inverse,
        (n_classes, nt, nt), the inverse by forward substitution.
    B_a, B_b: trial-to-test blocks, (n_classes, nt, nc).
    Et: E_{a,K}^T = B_{a,K}^T L_K^{-T}, (n_classes, nc, nt), the left factor
        of every condensation.
    mass_field: test-against-field mass block, (n_classes, nt, nfl).
    detJ: det J of each class, (n_classes,).
    cls: class of each element, (ne,).
    cols: global column index per element and local trial slot, (ne, nc),
        -1 where eliminated.
    """

    chol: np.ndarray
    chol_inv: np.ndarray
    B_a: np.ndarray
    B_b: np.ndarray
    Et: np.ndarray
    mass_field: np.ndarray
    detJ: np.ndarray
    cls: np.ndarray
    cols: np.ndarray


@dataclass
class StepOperators:
    """What a march keeps of the element blocks: the load of a step is
    rhs = F a + C w for the source time weights a and the previous field w,
    F (n_dof, m) dense and C (n_dof, n_field) sparse, numbered as S."""

    F: np.ndarray
    C: sp.csr_matrix


@dataclass
class CondensedSystem:
    """Global condensed system S = sum_K E_K^T E_K and the operators of the
    step load, numbered by nested dissection: unknown i of the dofmap is
    unknown rank[i] of S.  precond applies the inverse of a factor of S.
    mass is the field mass matrix M = sum_K det J M_ff, (n_field, n_field)
    in the numbering of the dofmap: a field w has L2 norm sqrt(w^T M w)."""

    S: sp.csr_matrix
    blocks: StepOperators
    mass: sp.csr_matrix
    dofmap: DofMap
    coeffs: PdeCoefficients
    precond: Callable[[np.ndarray], np.ndarray]
    rank: np.ndarray


def _affine(v: np.ndarray):
    """J (n, 2, 2), J^{-1} and det J of the triangles with vertices v (n, 3, 2)."""
    J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # columns of the affine map
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if not np.all(detJ > 0.0):  # also catches NaN
        raise SolverError("degenerate element: nonpositive or non-finite Jacobian determinant")
    invJ = np.empty_like(J)
    invJ[:, 0, 0] = J[:, 1, 1]
    invJ[:, 0, 1] = -J[:, 0, 1]
    invJ[:, 1, 0] = -J[:, 1, 0]
    invJ[:, 1, 1] = J[:, 0, 0]
    invJ /= detJ[:, None, None]
    return J, invJ, detJ


def _geometry(mesh: Mesh):
    v = mesh.vertices[mesh.elements]
    return (v, *_affine(v))


def volume_quadrature(mesh: Mesh, degree: int):
    """Triangle rule of the given degree mapped to every element.

    Returns (rule, physical points (ne, nq, 2), weights times det J (ne, nq),
    J^{-1} (ne, 2, 2)).  Computed once per mesh and degree and kept in
    `mesh.quadrature`; every later call returns the same read-only arrays.
    """
    if degree not in mesh.quadrature:
        rule = triangle_rule(degree)
        v, J, invJ, detJ = _geometry(mesh)
        points = v[:, 0, None, :] + rule.points @ J.transpose(0, 2, 1)
        wdet = rule.weights[None, :] * detJ[:, None]
        for array in (points, wdet, invJ):
            array.flags.writeable = False
        mesh.quadrature[degree] = (rule, points, wdet, invJ)
    return mesh.quadrature[degree]


def element_classes(mesh: Mesh):
    """Classes of congruent elements, (first, cls): cls[e] is the class of
    element e and first[c] the lowest element of class c, the classes
    numbered in the order of their first elements.

    The key of an element is the bits of its edge vectors v_{l+1} - v_l and
    its edge signs, so the elements of a class are translates of each other
    with equally oriented edges.  J holds two edge vectors, up to sign, and
    each edge length is the norm of one, so J, the edge lengths and with them
    every element block are bitwise functions of the key.  The elements are
    sorted by a 64-bit FNV-1 hash of the key, and a class starts wherever the
    key changes: a class never mixes keys, and two distinct keys with one
    hash (a chance below ne^2 2^-64) can only split a class."""
    v = mesh.vertices[mesh.elements]
    edges = (v[:, [1, 2, 0]] - v).reshape(-1, 6)
    keys = (*edges.view(np.uint64).T, *mesh.element_edge_signs.astype(np.uint64).T)
    digest = np.full(len(v), _FNV_OFFSET)
    for key in keys:
        digest = (digest * _FNV_PRIME) ^ key
    order = np.argsort(digest, kind="stable")
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for key in keys:
        ranked = key[order]
        head[1:] |= ranked[1:] != ranked[:-1]
    # the sort is stable, so each run of equal keys starts at its lowest element
    lowest = np.empty(len(order), dtype=np.intp)
    lowest[order] = order[head][np.cumsum(head) - 1]
    is_first = np.zeros(len(order), dtype=bool)
    is_first[lowest] = True
    return np.flatnonzero(is_first), np.cumsum(is_first)[lowest] - 1


def gather(vector: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of vector per element slot, 0.0 where the column is -1: a take
    from the vector padded with one zero, which slot -1 reads."""
    return np.append(vector, 0.0)[cols]


@lru_cache(maxsize=None)
def _reference_tensors(test_degree: int, trial_degree: int) -> np.ndarray:
    """Reference-triangle integrals of the test basis psi_m against the trial
    basis phi_j, stacked (7, nt, n) as K^{xx}, K^{xy}, K^{yx}, K^{yy}, M, C^x,
    C^y (see the module docstring).  Read-only and shared by every caller."""
    degree = test_degree + trial_degree
    rule = triangle_rule(degree)
    test = triangle_table(test_degree, degree)
    trial = triangle_table(trial_degree, degree)
    w = rule.weights
    stiffness = np.einsum("mqa,jqb,q->abmj", test.gradients, trial.gradients, w)
    mass = np.einsum("mq,jq,q->mj", test.values, trial.values, w)
    advection = np.einsum("mq,jqa,q->amj", test.values, trial.gradients, w)
    tensors = np.concatenate([stiffness.reshape(4, *mass.shape), mass[None], advection])
    tensors.flags.writeable = False
    return tensors


def _element_weights(mesh: Mesh, coeffs: PdeCoefficients, elements: np.ndarray):
    """det J J^{-1} A J^{-T} flattened to (n, 4), det J (n,) and
    det J J^{-1} beta (n, 2) of the n given elements: the weights of the
    reference tensors."""
    _, invJ, detJ = _affine(mesh.vertices[mesh.elements[elements]])
    W = detJ[:, None, None] * (invJ @ coeffs.A @ invJ.transpose(0, 2, 1))
    b = detJ[:, None] * (invJ @ coeffs.beta)
    return W.reshape(-1, 4), detJ, b


def _combine(weights: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """sum_i weights[:, i] tensors[i], (ne, nt, n)."""
    return (weights @ tensors.reshape(len(tensors), -1)).reshape(-1, *tensors.shape[1:])


@lru_cache(maxsize=None)
def _edge_tables(p: int, rule_degree: int):
    """Edge rule of the given degree, the degree p trace basis at its points
    and the degree p+2 test basis along each local edge, keyed by
    (local_edge, sign); read-only and shared by every caller.  The trace
    unknown lives in the global edge parametrization t in [0,1] (lower
    vertex -> higher vertex); sign -1 means the element traverses the edge
    the other way round."""
    rule = edge_rule(rule_degree)
    tables = {}
    for l in range(3):
        a = TRIANGLE_VERTICES[l]
        b = TRIANGLE_VERTICES[(l + 1) % 3]
        for s in (1, -1):
            start, end = (a, b) if s == 1 else (b, a)
            pts = start[None, :] + rule.points[:, None] * (end - start)[None, :]
            tables[(l, s)] = lagrange_triangle(p + 2, pts).values
    trace = lagrange_edge(p, rule.points).values
    for array in (trace, *tables.values()):
        array.flags.writeable = False
    return rule, trace, tables


class GramFactors(NamedTuple):
    """Classes of congruent elements (first, cls; see `element_classes`), the
    weights W, detJ, b of their reference tensors (see `_element_weights`) and
    the Cholesky factors L_K of their Gram blocks, chol (n_classes, nt, nt)."""

    first: np.ndarray
    cls: np.ndarray
    W: np.ndarray
    detJ: np.ndarray
    b: np.ndarray
    chol: np.ndarray


def gram_factors(mesh: Mesh, p: int, coeffs: PdeCoefficients) -> GramFactors:
    """Factors of G_K = W_K : K_tt + (det J / k) M_tt over the degree p + 2
    test space, one per class; SolverError names the first element of a class
    whose block is not positive definite or whose factor is not finite."""
    first, cls = element_classes(mesh)
    W, detJ, b = _element_weights(mesh, coeffs, first)
    gram = _combine(np.column_stack([W, detJ / coeffs.k]), _reference_tensors(p + 2, p + 2)[:5])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        for block, element in zip(gram, first):
            try:
                np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                raise SolverError(
                    f"Cholesky factorization of the Gram block of element {element} failed; "
                    "degenerate element or invalid time step"
                ) from None
        raise
    # LAPACK passes NaN through without raising
    bad = np.flatnonzero(~np.isfinite(chol).all(axis=(1, 2)))
    if bad.size:
        raise SolverError(f"the Cholesky factor of the Gram block of element "
                          f"{first[bad[0]]} is not finite; NaN or Inf data")
    return GramFactors(first, cls, W, detJ, b, chol)


def _forward_substitution(L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X with L_K X_K = rhs_K for stacked Cholesky factors L (ne, nt, nt) and
    right-hand sides (ne, nt, m), one row of every element at a time."""
    x = np.zeros(rhs.shape)
    for i in range(L.shape[1]):
        x[:, i] = (rhs[:, i] - np.einsum("ej,ejk->ek", L[:, i, :i], x[:, :i])) / L[:, i, i, None]
    return x


def _build_blocks(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients) -> LocalBlocks:
    p = dofmap.p
    erule, trace, edge_tables = _edge_tables(p, 2 * p + 2)

    first, cls, W, detJ, b, chol = gram_factors(mesh, p, coeffs)
    n_classes, nt, _ = chol.shape
    chol_inv = _forward_substitution(chol, np.broadcast_to(np.eye(nt), chol.shape))

    ref = _reference_tensors(p + 2, p + 1)
    nfl = ref.shape[2]
    n_per_edge = p + 1
    nc = nfl + 3 * n_per_edge
    mass_field = detJ[:, None, None] * ref[4]
    B_b = np.empty((n_classes, nt, nc))
    B_b[:, :, :nfl] = _combine(np.column_stack([W, coeffs.gamma * detJ, b]), ref)

    # trace pairing: column block of local edge l carries -sign * length * int_e tau psi
    pair = {key: np.einsum("mq,rq,q->mr", table, trace, erule.weights)
            for key, table in edge_tables.items()}
    lengths = mesh.edge_lengths()[mesh.element_edges[first]]
    for l in range(3):
        s = mesh.element_edge_signs[first, l]
        block = np.where((s == 1)[:, None, None], pair[(l, 1)][None], pair[(l, -1)][None])
        B_b[:, :, nfl + l * n_per_edge:nfl + (l + 1) * n_per_edge] = \
            -(s * lengths[:, l])[:, None, None] * block

    B_a = B_b.copy()
    B_a[:, :, :nfl] += (1.0 / coeffs.k) * mass_field
    cols = np.hstack([dofmap.element_field_dofs,
                      dofmap.n_field + dofmap.element_trace_dofs])
    return LocalBlocks(chol=chol, chol_inv=chol_inv, B_a=B_a, B_b=B_b,
                       Et=(chol_inv @ B_a).transpose(0, 2, 1), mass_field=mass_field,
                       detJ=detJ, cls=cls, cols=cols)


def scatter(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape,
            format: str) -> sp.spmatrix:
    """Sum over the elements e of blocks[e] (ne, nr, nc) at the global rows[e]
    and columns cols[e], leaving out slots at -1, in canonical `format`."""
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    r = np.broadcast_to(rows.astype(index)[:, :, None], blocks.shape)
    c = np.broadcast_to(cols.astype(index)[:, None, :], blocks.shape)
    keep = (rows >= 0)[:, :, None] & (cols >= 0)[:, None, :]
    matrix = sp.coo_matrix((blocks[keep], (r[keep], c[keep])), shape=shape).asformat(format)
    # summing the duplicates leaves views of arrays of the unsummed length
    matrix.data, matrix.indices = matrix.data.copy(), matrix.indices.copy()
    return matrix


def condensed_loads(blocks: LocalBlocks, loads: np.ndarray, cols: np.ndarray,
                    n: int) -> np.ndarray:
    """Condensed loads sum_K E_{a,K}^T L_K^{-1} l_K of the element test loads
    l (ne, nt, m), summed at the rows cols (ne, nc) and leaving out slots at
    -1, (n, m): the march's F in S's numbering, the projection load in the
    dofmap's."""
    cls = blocks.cls
    values = blocks.Et[cls] @ (blocks.chol_inv[cls] @ loads)
    free = cols >= 0
    m = values.shape[2]
    index = cols[free][:, None] * m + np.arange(m)
    return np.bincount(index.ravel(), values[free].ravel(), minlength=n * m).reshape(n, m)


def _source_loads(mesh: Mesh, p: int, source_space) -> np.ndarray:
    """Element loads (g_s, psi)_K of the spatial source terms
    g_s = source_space(x, y)[s], stacked (ne, nt, m)."""
    rule_degree = 2 * (p + 2)
    _, points, wdet, _ = volume_quadrature(mesh, rule_degree)
    values = np.asarray(source_space(points[..., 0], points[..., 1]), dtype=float)
    if values.ndim != 3 or values.shape[1:] != wdet.shape:
        raise ValueError(f"source_space must return shape (m, {wdet.shape[0]}, "
                         f"{wdet.shape[1]}) at the quadrature points, got {values.shape}")
    loads = (values * wdet) @ triangle_table(p + 2, rule_degree).values.T
    return loads.transpose(1, 2, 0)


def assemble_condensed(mesh: Mesh, dofmap: DofMap, coeffs: PdeCoefficients,
                       source_space) -> CondensedSystem:
    """Assemble S = sum_K E_K^T E_K, E_K = L_K^{-1} B_{a,K}, and the step
    operators of the source terms source_space(x, y) -> (m, *x.shape)."""
    ratio = mesh.h_max / np.sqrt(coeffs.k)
    if ratio > _TRACE_EQUIV_WARN:
        warnings.warn(
            f"h / sqrt(k) = {ratio:.2f} > {_TRACE_EQUIV_WARN:g}: the trace-norm "
            "equivalence constants degrade in this regime; the field L2 and H1 errors "
            "keep their optimal rates, and only the trace-dual EOC is pre-asymptotic",
            RuntimeWarning, stacklevel=2,
        )
    blocks = _build_blocks(mesh, dofmap, coeffs)
    n = dofmap.n_dof
    v, e = mesh.vertices, mesh.elements
    order = nested_dissection((v[e[:, 0]] + v[e[:, 1]] + v[e[:, 2]]) / 3, blocks.cols, n)
    rank = np.empty_like(order)
    rank[order] = np.arange(n)  # the inverse permutation, without a sort
    cols = np.append(rank, -1)[blocks.cols]  # the element slots in the numbering of S
    cls, Et = blocks.cls, blocks.Et
    W_w = blocks.chol_inv @ blocks.mass_field / coeffs.k
    field_dofs = dofmap.element_field_dofs
    ops = StepOperators(
        F=condensed_loads(blocks, _source_loads(mesh, dofmap.p, source_space), cols, n),
        C=scatter((Et @ W_w)[cls], cols, field_dofs, (n, dofmap.n_field), "csr"))
    field_mass = blocks.detJ[:, None, None] * _reference_tensors(dofmap.p + 1, dofmap.p + 1)[4]
    mass = scatter(field_mass[cls], field_dofs, field_dofs, (dofmap.n_field,) * 2, "csr")
    del blocks  # set-up temporaries: free them before the largest scatter
    S = scatter((Et @ Et.transpose(0, 2, 1))[cls], cols, cols, (n, n), "csr")
    del Et
    # S.T is a CSC view of S's own arrays, so S x - S^T x needs no transposed
    # copy.  With x in [1, 2], one entry of S - S^T equal to delta (a stored
    # entry whose mirror is missing counts as one) moves the difference by
    # delta to 2 delta: an asymmetry above 2 _SYM_TOL max|S| always trips,
    # one below _SYM_TOL max|S| never does.  The scattered element products
    # come out exactly symmetric (measured at n=32, p=0 and n=64, p=1).
    x = np.random.default_rng(0).uniform(1.0, 2.0, S.shape[0])
    scale = max(S.data.max(initial=0.0), -S.data.min(initial=0.0))
    if np.abs(S @ x - S.T @ x).max(initial=0.0) > 2.0 * _SYM_TOL * scale:
        raise SolverError("condensed system lost symmetry; assembly is inconsistent")
    return CondensedSystem(S=S, blocks=ops, mass=mass, dofmap=dofmap, coeffs=coeffs,
                           precond=factor_spd(S), rank=rank)


def condense_load(ops: StepOperators, a, w_field: np.ndarray) -> np.ndarray:
    """Condensed right-hand side F a + C w of the source sum_s a_s g_s and
    the previous field w: sum_K B_{a,K}^T G_K^{-1} (sum_s a_s g_s + w/k, psi)_K,
    in the numbering of S."""
    a = np.asarray(a, dtype=float)
    if a.shape != ops.F.shape[1:]:
        raise ValueError(f"expected {ops.F.shape[1]} source time weights, got shape {a.shape}")
    w_field = np.asarray(w_field, dtype=float)
    if w_field.shape != ops.C.shape[1:]:
        raise ValueError(f"field coefficient vector has wrong length {w_field.shape}")
    return ops.F @ a + ops.C @ w_field
