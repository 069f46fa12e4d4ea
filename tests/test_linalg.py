import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dpgmarch.linalg import SolverError, cg_solve, factor_spd, lu_solve


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
    assert 1 <= iterations <= 3
    assert np.linalg.norm(S @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # the factor reads S's index arrays and writes nothing back
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


@pytest.mark.parametrize("bad", ["nan", "beyond-float32", "zero-row"])
def test_factor_spd_rejects_bad_matrices(bad):
    S = _spd(11)[0].toarray()
    if bad == "nan":
        S[3, 3] = np.nan
    elif bad == "beyond-float32":
        S[3, 3] = 1e39
    else:
        S[3, :] = 0.0
        S[:, 3] = 0.0
    with pytest.raises(SolverError):
        factor_spd(sp.csr_matrix(S))


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
