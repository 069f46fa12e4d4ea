import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgmarch.assembly import assemble_condensed
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.linalg import SolverError, cg_solve, factor_spd, lu_solve, nested_dissection
from dpgmarch.mesh import build_structured_mesh

from conftest import refine_uniform


def unpreconditioned(r):
    return r


def jacobi(S):
    diagonal = S.diagonal()
    return lambda r: r / diagonal


def laplacian_1d(n):
    """tridiag(-1, 2, -1): condition number about 4 n^2 / pi^2, so CG without
    a good preconditioner needs far more than the 50-iteration cap."""
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def test_cg_identity_single_iteration():
    S = sp.identity(6, format="csr")
    rhs = np.zeros(6)
    rhs[0] = 1.0
    x, iterations = cg_solve(S, rhs, unpreconditioned)
    assert np.allclose(x, rhs)
    assert iterations == 1


def test_cg_diagonal():
    S = sp.diags([2.0, 3.0]).tocsr()
    x, _ = cg_solve(S, np.array([2.0, 3.0]), unpreconditioned)
    assert np.allclose(x, [1.0, 1.0], atol=1e-13)


def test_cg_zero_rhs():
    S = sp.identity(4, format="csr")
    x, iterations = cg_solve(S, np.zeros(4), unpreconditioned)
    assert iterations == 0
    assert np.all(x == 0.0)


def test_cg_random_spd_against_dense_solve():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 20))
    S = A.T @ A + np.eye(20)
    rhs = rng.standard_normal(20)
    expected = np.linalg.solve(S, rhs)
    x, _ = cg_solve(sp.csr_matrix(S), rhs, jacobi(sp.csr_matrix(S)))
    assert np.linalg.norm(S @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_cg_reports_iteration_count():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((15, 15))
    S = sp.csr_matrix(A.T @ A + 10 * np.eye(15))
    _, iterations = cg_solve(S, rng.standard_normal(15), jacobi(S))
    assert 1 <= iterations <= 50


def test_cg_negative_curvature_surfaces():
    S = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(SolverError, match="curvature|definite"):
        cg_solve(S, np.array([1.0, 1.0]), jacobi(S))


def test_cg_max_iter_exhaustion():
    S = laplacian_1d(400)
    rhs = np.random.default_rng(2).standard_normal(400)
    with pytest.raises(SolverError, match="converge"):
        cg_solve(S, rhs, jacobi(S))


class CountingMatrix:
    """Sparse matrix stand-in that counts products."""

    def __init__(self, S):
        self.S, self.shape, self.products = S, S.shape, 0

    def diagonal(self):
        return self.S.diagonal()

    def __matmul__(self, v):
        self.products += 1
        return self.S @ v


def _spd(seed, n=20):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return sp.csr_matrix(A.T @ A + np.eye(n)), rng


@pytest.mark.parametrize("bad", ["rhs-nan", "rhs-inf"])
def test_cg_nonfinite_data_raises_before_iterating(bad):
    S, rng = _spd(5)
    rhs = rng.standard_normal(20)
    rhs[3] = np.nan if bad.endswith("nan") else np.inf
    counting = CountingMatrix(S)
    with pytest.raises(SolverError, match="non-finite"):
        cg_solve(counting, rhs, unpreconditioned)
    assert counting.products == 0


def test_cg_nan_curvature_is_breakdown():
    S = sp.csr_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(SolverError, match="curvature .* iteration 1;"):
        cg_solve(S, np.array([1.0, 1.0]), unpreconditioned)


def test_cg_rejects_misshapen_rhs():
    with pytest.raises(ValueError, match="shape mismatch"):
        cg_solve(sp.identity(3, format="csr"), np.ones(2), unpreconditioned)


def test_factor_spd_preconditions_cg_to_full_accuracy():
    S, rng = _spd(9, n=40)
    saved = [S.data.copy(), S.indices.copy(), S.indptr.copy()]
    rhs = rng.standard_normal(40)
    x, iterations = cg_solve(S, rhs, factor_spd(S))
    assert iterations == 1
    assert np.linalg.norm(S @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # the factor reads S's own arrays and writes nothing back to them
    assert all(np.array_equal(a, b) for a, b in zip(saved, (S.data, S.indices, S.indptr)))


def test_factor_spd_cg_raises_within_the_cap():
    # the factor of S's diagonal is a poor preconditioner for the Laplacian
    S = laplacian_1d(400)
    counting = CountingMatrix(S)
    with pytest.raises(SolverError, match="within 50 iterations"):
        cg_solve(counting, np.random.default_rng(10).standard_normal(400),
                 factor_spd(sp.diags(S.diagonal()).tocsr()))
    # one product per iteration, at most one more per recomputed residual
    assert counting.products <= 2 * 50 + 2


@pytest.mark.parametrize("bad", ["nan", "inf", "zero-row"])
def test_factor_spd_rejects_bad_matrices(bad):
    S = _spd(11)[0].toarray()
    if bad == "nan":
        S[3, 3] = np.nan
    elif bad == "inf":
        S[3, 3] = np.inf
    else:
        S[3, :] = 0.0
        S[:, 3] = 0.0
    with pytest.raises(SolverError):
        factor_spd(sp.csr_matrix(S))


def test_factor_spd_solves_in_the_order_it_is_given():
    # the numbering is S's own: factoring P S P^T solves in the order P
    S, rng = _spd(12)
    order = rng.permutation(20)
    rank = np.argsort(order)
    r = rng.standard_normal(20)
    expected = np.linalg.solve(S.toarray(), r)
    x = factor_spd(S[order][:, order].sorted_indices())(r[order])[rank]
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("bad", ["csc", "duplicates", "unsorted"])
def test_factor_spd_rejects_S_that_is_not_canonical_csr(bad):
    # the factor reads S's arrays in place, so they must already be the
    # canonical ones SuperLU would otherwise sort and sum into
    S = _spd(13)[0]
    if bad == "csc":
        S = S.tocsc()
    elif bad == "duplicates":
        S = sp.csr_matrix((np.append(S.data, 1.0), np.append(S.indices, 0),
                           np.append(S.indptr[:-1], S.nnz + 1)), shape=S.shape)
    else:
        S.indices[:2] = S.indices[1::-1]
        S.data[:2] = S.data[1::-1]
        S.has_sorted_indices = False
    with pytest.raises(ValueError, match="canonical"):
        factor_spd(S)


def test_cg_falls_back_to_iterating_from_the_first_iterate():
    # a diagonal preconditioner leaves precond(rhs) far from the solution:
    # CG continues from it and converges, or raises within the cap
    S = laplacian_1d(20) + sp.identity(20, format="csr")
    rhs = np.random.default_rng(14).standard_normal(20)
    counting = CountingMatrix(S)
    x, iterations = cg_solve(counting, rhs, jacobi(S))
    assert 1 < iterations <= 22
    assert np.linalg.norm(S @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # one product for the first iterate, one per iteration after it and at
    # most one more per recomputed residual
    assert counting.products <= 1 + 2 * (iterations - 1)
    counting = CountingMatrix(laplacian_1d(400))
    with pytest.raises(SolverError, match="within 50 iterations"):
        cg_solve(counting, np.random.default_rng(15).standard_normal(400),
                 jacobi(laplacian_1d(400)))
    assert counting.products <= 1 + 2 * 49


def _element_cols(dofmap):
    return np.hstack([dofmap.element_field_dofs, dofmap.n_field + dofmap.element_trace_dofs])


def _element_order(mesh, dofmap):
    return nested_dissection(mesh.vertices[mesh.elements].mean(axis=1), _element_cols(dofmap),
                             dofmap.n_dof)


def _recursive_dissection(points, cols, n):
    """The order of `nested_dissection`, one part at a time: bisect a part at
    the median of its longer bounding-box side (a stable sort, the first
    half of the size to the left) to the depth at which no part holds more
    than two elements, and number a part's own unknowns, those whose
    elements it holds but neither half does, after both halves."""
    elements_of = [set() for _ in range(n)]
    for e, row in enumerate(cols):
        for unknown in row[row >= 0]:
            elements_of[unknown].add(e)
    depth = 0
    while -(-len(points) // 2**depth) > 2:
        depth += 1

    def held(part):
        inside = set(part)
        return {u for e in part for u in cols[e][cols[e] >= 0] if elements_of[u] <= inside}

    def number(part, level):
        if level == depth:
            return sorted(held(part))
        xy = points[part]
        axis = int(np.ptp(xy[:, 1]) > np.ptp(xy[:, 0]))
        ranked = sorted(part, key=lambda e: points[e, axis])
        left, right = ranked[:len(part) // 2], ranked[len(part) // 2:]
        own = held(part) - held(left) - held(right)
        return number(left, level + 1) + number(right, level + 1) + sorted(own)

    return np.array(number(list(range(len(points))), 0), dtype=int)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), refined=st.booleans(), p=st.sampled_from([0, 1]))
def test_nested_dissection_numbers_every_unknown_once(n, refined, p):
    mesh = build_structured_mesh(n)
    if refined:
        mesh = refine_uniform(mesh)
    dofmap = build_dofmap(mesh, p)
    order = _element_order(mesh, dofmap)
    assert np.array_equal(np.sort(order), np.arange(dofmap.n_dof))
    expected = _recursive_dissection(mesh.vertices[mesh.elements].mean(axis=1),
                                     _element_cols(dofmap), dofmap.n_dof)
    assert np.array_equal(order, expected)


@pytest.mark.parametrize("p", [0, 1])
def test_nested_dissection_fills_less_than_minimum_degree(p):
    # from about n = 24 up; below that the order fills up to 29% more
    mesh = build_structured_mesh(32)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.01, 0.01)
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    S = system.S[system.rank][:, system.rank]  # in the numbering of the dofmap
    order = _element_order(mesh, dofmap)
    assert abs(S[order][:, order] - system.S).max() == 0.0  # the march's S is numbered so
    symmetric = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    nd = spla.splu(system.S.tocsc(), permc_spec="NATURAL", **symmetric)
    mmd = spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A", **symmetric)
    assert nd.L.nnz + nd.U.nnz < mmd.L.nnz + mmd.U.nnz


def test_lu_identity():
    assert np.allclose(lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_lu_permutation_needs_pivoting():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(lu_solve(M, np.array([1.0, 2.0])), [2.0, 1.0])


def test_lu_random_residual():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((30, 30)) + 5 * np.eye(30)
    rhs = rng.standard_normal(30)
    x = lu_solve(M, rhs)
    assert np.linalg.norm(M @ x - rhs) <= 1e-10 * (
        np.abs(M).max() * np.linalg.norm(x) + np.linalg.norm(rhs))


def test_lu_sparse_matches_dense():
    # a dense and a sparse M take the same SuperLU path
    rng = np.random.default_rng(4)
    M = rng.standard_normal((25, 25)) + 6 * np.eye(25)
    rhs = rng.standard_normal(25)
    expected = np.linalg.solve(M, rhs)
    assert np.allclose(lu_solve(sp.csr_matrix(M), rhs), expected, atol=1e-10)
    assert np.allclose(lu_solve(M, rhs), expected, atol=1e-10)


def test_lu_singular_detection():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SolverError, match="singular"):
        lu_solve(M, np.array([1.0, 1.0]))
    with pytest.raises(SolverError):
        lu_solve(sp.csr_matrix(M), np.array([1.0, 1.0]))


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_solve(np.ones((2, 3)), np.ones(2))


def _backward_error(M, x, rhs):
    """||M x - rhs||_inf / (||M||_inf ||x||_inf + ||rhs||_inf), the quantity
    that lu_solve bounds by 1e-10."""
    M = sp.csr_matrix(M)
    return (np.abs(M @ x - rhs).max()
            / (abs(M).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("bad", ["matrix-nan", "matrix-inf", "rhs-nan"])
def test_lu_rejects_non_finite_data(sparse, bad):
    rng = np.random.default_rng(12)
    M = rng.standard_normal((6, 6)) + 4 * np.eye(6)
    rhs = rng.standard_normal(6)
    if bad == "rhs-nan":
        rhs[2] = np.nan
    else:
        M[1, 3] = np.nan if bad == "matrix-nan" else np.inf
    with pytest.raises(SolverError, match="not finite"):
        lu_solve(sp.csr_matrix(M) if sparse else M, rhs)


def test_lu_sparse_zero_diagonal_permutation():
    # every diagonal entry is zero, so the symmetric mode is ruled out
    perm = np.random.default_rng(13).permutation(12)
    perm = np.roll(perm, 1)[np.argsort(perm)]  # one 12-cycle, so no fixed point
    M = sp.csr_matrix((np.arange(1.0, 13.0), (np.arange(12), perm)), shape=(12, 12))
    assert np.all(M.diagonal() == 0.0)
    rhs = np.arange(12.0) - 5.5
    x = lu_solve(M, rhs)
    assert _backward_error(M, x, rhs) <= 1e-15
    assert np.allclose(x, np.linalg.solve(M.toarray(), rhs), rtol=1e-14, atol=0.0)


def test_lu_sparse_tiny_diagonal_needs_threshold_pivoting():
    # minimum degree eliminates the end of a tridiagonal matrix early; taken
    # as a pivot, its 1e-20 diagonal would wipe out the next pivot, 4 - 1e20.
    # The threshold (0.1 times the column's largest entry) picks the
    # off-diagonal entry instead.
    rng = np.random.default_rng(14)
    n = 20
    M = sp.diags([rng.uniform(1.0, 2.0, n - 1), np.full(n, 4.0), rng.uniform(1.0, 2.0, n - 1)],
                 [-1, 0, 1]).tolil()
    M[0, 0] = 1e-20
    M = M.tocsr()
    rhs = rng.standard_normal(n)
    x = lu_solve(M, rhs)
    assert _backward_error(M, x, rhs) <= 1e-15
    expected = np.linalg.solve(M.toarray(), rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


class PerturbedFactor:
    """A factor whose solutions are off by a relative 1e-6."""

    def __init__(self, factor):
        self.U = factor.U
        self.solve = lambda b: factor.solve(b) * (1.0 + 1e-6)


def test_lu_backward_error_guard_trips_on_a_wrong_sparse_solution(monkeypatch):
    rng = np.random.default_rng(15)
    M = sp.csr_matrix(rng.standard_normal((10, 10)) + 5 * np.eye(10))
    rhs = rng.standard_normal(10)
    lu_solve(M, rhs)  # the genuine factor passes
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: PerturbedFactor(splu(*args, **kwargs)))
    with pytest.raises(SolverError, match="backward-error"):
        lu_solve(M, rhs)


def test_lu_backward_error_guard_trips_on_a_wrong_dense_solution(monkeypatch):
    rng = np.random.default_rng(16)
    M = rng.standard_normal((10, 10)) + 5 * np.eye(10)
    rhs = rng.standard_normal(10)
    lu_solve(M, rhs)  # the genuine factor passes
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: PerturbedFactor(splu(*args, **kwargs)))
    with pytest.raises(SolverError, match="backward-error"):
        lu_solve(M, rhs)
