import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpgmarch import linalg
from dpgmarch.assembly import assemble_condensed, condense_load
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import build_projection_system, exact_b_load
from dpgmarch.linalg import SolverError, cg_solve, factor_spd, lu_solve, nested_dissection
from dpgmarch.mesh import build_structured_mesh
from dpgmarch.timestep import initial_field

from conftest import mixed_matrix, projection_load, refine_uniform


def unpreconditioned(r):
    return r


def jacobi(S):
    diagonal = S.diagonal()
    return lambda r: r / diagonal


def inf_norm(S):
    """||S||_inf, the norm `cg_solve` takes as its fourth argument."""
    return abs(S).sum(axis=1).max()


def backward_error(M, x, rhs):
    """||M x - rhs||_inf / (||M||_inf ||x||_inf + ||rhs||_inf): the normwise
    backward error by which `cg_solve` and `lu_solve` accept x, recomputed."""
    M = sp.csr_matrix(M)
    return np.abs(M @ x - rhs).max() / (inf_norm(M) * np.abs(x).max() + np.abs(rhs).max())


def laplacian_1d(n):
    """tridiag(-1, 2, -1): condition number about 4 n^2 / pi^2, so a diagonal
    preconditioner leaves a solve far from its residual check."""
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()


def test_cg_identity_single_iteration():
    S = sp.identity(6, format="csr")
    rhs = np.zeros(6)
    rhs[0] = 1.0
    x, solves = cg_solve(S, rhs, unpreconditioned, 1.0)
    assert np.allclose(x, rhs)
    assert solves == 1


def test_cg_zero_rhs():
    S = sp.identity(4, format="csr")
    x, solves = cg_solve(S, np.zeros(4), unpreconditioned, 1.0)
    assert solves == 0
    assert np.all(x == 0.0)


def test_cg_reports_iteration_count():
    # the count is of solves with precond: one with the exact factor, two
    # when the first misses the backward-error check and one refinement
    # passes it.  A factor of (1 + 1e-9) S leaves x 1e-9 short, a backward
    # error of about 1e-9 ||rhs|| / (||S|| ||x|| + ||rhs||), far above 1e-14
    # on this well-conditioned S
    rng = np.random.default_rng(1)
    A = rng.standard_normal((15, 15))
    S = sp.csr_matrix(A.T @ A + 10 * np.eye(15))
    rhs = rng.standard_normal(15)
    for factor, expected in ((factor_spd(S), 1), (factor_spd(S * (1 + 1e-9)), 2)):
        counting = CountingMatrix(S)  # one product with S per solve
        x, solves = cg_solve(counting, rhs, factor, inf_norm(S))
        assert solves == counting.products == expected
        assert backward_error(S, x, rhs) <= 1e-14


def test_cg_negative_curvature_surfaces():
    S = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(SolverError, match="curvature|definite"):
        cg_solve(S, np.array([1.0, 1.0]), jacobi(S), 1.0)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", ["rhs-nan", "rhs-inf", "rhs-overflow"])
def test_cg_nonfinite_data_raises_before_iterating(bad):
    # an rhs whose 2-norm overflows is rejected with the non-finite ones
    S, rng = _spd(5)
    rhs = rng.standard_normal(20)
    rhs[3] = {"rhs-nan": np.nan, "rhs-inf": np.inf, "rhs-overflow": 1e300}[bad]
    counting = CountingMatrix(S)
    with pytest.raises(SolverError, match="non-finite"):
        cg_solve(counting, rhs, unpreconditioned, inf_norm(S))
    assert counting.products == 0


def test_cg_nan_curvature_is_breakdown():
    S = sp.csr_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(SolverError, match="NaN curvature nan after solve 1;"):
        cg_solve(S, np.array([1.0, 1.0]), unpreconditioned, inf_norm(S))


def test_cg_rejects_misshapen_rhs():
    with pytest.raises(ValueError, match="shape mismatch"):
        cg_solve(sp.identity(3, format="csr"), np.ones(2), unpreconditioned, 1.0)


def test_factor_spd_preconditions_cg_to_full_accuracy():
    S, rng = _spd(9, n=40)
    saved = [S.data.copy(), S.indices.copy(), S.indptr.copy()]
    rhs = rng.standard_normal(40)
    x, solves = cg_solve(S, rhs, factor_spd(S), inf_norm(S))
    assert solves == 1
    assert np.linalg.norm(S @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # the factor reads S's own arrays and writes nothing back to them
    assert all(np.array_equal(a, b) for a, b in zip(saved, (S.data, S.indices, S.indptr)))


def test_factor_spd_cg_raises_within_the_cap():
    # the factor of S's diagonal is a poor solve for the Laplacian: its first
    # x and one refinement both miss, and the error names the backward error
    S = laplacian_1d(400)
    counting = CountingMatrix(S)
    with pytest.raises(SolverError, match=r"after one refinement \(residual at backward "
                                          r"error \S+, tolerance 1e-14\)"):
        cg_solve(counting, np.random.default_rng(10).standard_normal(400),
                 factor_spd(sp.diags(S.diagonal()).tocsr()), inf_norm(S))
    # one product with S per solve, and no third solve
    assert counting.products == 2


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


def test_factor_spd_solves_through_the_transposed_path(monkeypatch):
    # S is symmetric, so SuperLU's faster transposed solve is the same system
    calls = []
    splu = spla.splu

    class RecordingFactor:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs, trans="N"):
            calls.append(trans)
            return self.factor.solve(rhs, trans=trans)

    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **kw: RecordingFactor(splu(*a, **kw)))
    S, rng = _spd(16)
    r = rng.standard_normal(20)
    x = factor_spd(S)(r)
    assert calls == ["T"]
    assert np.linalg.norm(S @ x - r) <= 1e-12 * np.linalg.norm(r)


def test_cg_with_the_transposed_factor_solves_an_S_asymmetric_below_the_check():
    # an off-diagonal entry of the march's S moved by 1e-13 max|S|, its mirror
    # not, passes the symmetry check of assemble_condensed; the solve through
    # S^T is still checked with S itself, and refined once if need be
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("adr-decay", 0.1, 0.1)
    S = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space).S.copy()
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    entry = np.flatnonzero(rows != S.indices)[len(rows) // 3]
    S.data[entry] += 1e-13 * np.abs(S.data).max()
    assert (S != S.T).nnz == 2
    rhs = np.random.default_rng(19).standard_normal(S.shape[0])
    x, solves = cg_solve(S, rhs, factor_spd(S), inf_norm(S))
    assert solves <= 2
    assert backward_error(S, x, rhs) <= 1e-14


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
    # a factor of (1 + 1e-9) S leaves precond(rhs) 1e-9 short, a backward
    # error of about 3e-10 on this S of condition 5: one step of iterative
    # refinement from it, x + precond(rhs - S x), passes the check
    S = (laplacian_1d(20) + sp.identity(20, format="csr")).tocsr()
    rhs = np.random.default_rng(14).standard_normal(20)
    solve = factor_spd(S * (1 + 1e-9))
    counting = CountingMatrix(S)
    x, solves = cg_solve(counting, rhs, solve, inf_norm(S))
    assert solves == 2
    first = solve(rhs)
    assert backward_error(S, first, rhs) > 1e-11
    assert np.array_equal(x, first + solve(rhs - S @ first))
    assert backward_error(S, x, rhs) <= 1e-14
    # one product with S per solve: the residual and the curvature share it
    assert counting.products == 2


def _symmetric(Q, eigenvalues):
    S = (Q * eigenvalues) @ Q.T
    return sp.csr_matrix((S + S.T) / 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), log_cond=st.floats(1.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_cg_solve_accepts_refines_or_raises_on_random_spd_matrices(n, log_cond, seed):
    # S = Q diag(lambda) Q^T, lambda log-spaced over [1, 10^log_cond]; rhs = S x
    # for a random x.  An exact factor is backward stable at once.  A factor
    # 1e-9 short leaves a backward error of about 1e-9 ||rhs|| / (||S|| ||x||
    # + ||rhs||): refined, unless ||S|| ||x|| / ||rhs|| passes about 1e5,
    # when the short solve is itself backward stable and accepted at once
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigenvalues = np.geomspace(1.0, 10**log_cond, n)
    S = _symmetric(Q, eigenvalues)
    rhs = S @ rng.standard_normal(n)
    S_norm = inf_norm(S)

    x, solves = cg_solve(S, rhs, factor_spd(S), S_norm)  # an exact factor
    assert solves == 1 and backward_error(S, x, rhs) <= 1e-14
    short = factor_spd(S * (1 + 1e-9))
    x, solves = cg_solve(S, rhs, short, S_norm)
    assert solves == (1 if backward_error(S, short(rhs), rhs) <= 1e-14 else 2)
    assert backward_error(S, x, rhs) <= 1e-14
    with pytest.raises(SolverError, match=r"residual at backward error \S+, tolerance"):
        cg_solve(S, rhs, jacobi(S), S_norm)
    # an indefinite S, its upper half of eigenvalues negated, and a rhs whose
    # solution lies in their eigenspace: the curvature x.(S x) is negative
    negative = np.arange(n) >= n // 2
    S = _symmetric(Q, np.where(negative, -eigenvalues, eigenvalues))
    rhs = S @ (Q[:, negative] @ rng.standard_normal(negative.sum()))
    with pytest.raises(SolverError, match="curvature .* not positive definite"):
        cg_solve(S, rhs, lambda r: np.linalg.solve(S.toarray(), r), inf_norm(S))


@pytest.mark.parametrize("case_id,p", [("aniso", 1), ("heat-decay", 0)])
def test_cg_solve_agrees_with_scipy_jacobi_cg_on_the_condensed_system(case_id, p):
    # the independent oracle of the march's solve: scipy's conjugate gradients,
    # Jacobi-preconditioned and run to a tight tolerance, on the first step
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, p)
    case = make_case(case_id, 1 / 64, 1 / 64)
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    rhs = condense_load(system.blocks, case.source_time(case.coeffs.k),
                        initial_field(case.u0, dofmap).field)
    x, solves = cg_solve(system.S, rhs, system.precond, system.S_norm)
    assert solves == 1
    n = system.S.shape[0]
    diagonal = system.S.diagonal()
    preconditioner = spla.LinearOperator((n, n), matvec=lambda r: r / diagonal, dtype=float)
    oracle, info = spla.cg(system.S, rhs, rtol=1e-14, maxiter=10 * n, M=preconditioner)
    assert info == 0
    assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def _element_cols(dofmap):
    return np.hstack([dofmap.element_field_dofs, dofmap.n_field + dofmap.element_trace_dofs])


def _element_order(mesh, dofmap):
    return nested_dissection(mesh.vertices[mesh.elements].mean(axis=1), _element_cols(dofmap),
                             dofmap.n_dof)


def _recursive_dissection(points, cols, n):
    """The order of `nested_dissection`, one part at a time.  The root is the
    grid of 2^ceil(d/2) x 2^floor(d/2) cells over the centroids' bounding box,
    its longer side first (x on a tie), to the depth d at which parts of equal
    size would hold at most two elements.  A part's range of cells is halved
    at its midpoint along the axis its level picks, the first one at even
    levels and the other at odd ones; an element goes left when its
    coordinate, in cells, is below the midpoint.  A part's own unknowns, those
    whose elements it holds but neither half does, are numbered after both
    halves."""
    elements_of = [set() for _ in range(n)]
    for e, row in enumerate(cols):
        for unknown in row[row >= 0]:
            elements_of[unknown].add(e)
    depth = 0
    while -(-len(points) // 2**depth) > 2:
        depth += 1
    lo, extent = points.min(axis=0), np.ptp(points, axis=0)
    first = int(extent[1] > extent[0])
    cells = np.empty(2, dtype=int)
    cells[first], cells[1 - first] = 2 ** ((depth + 1) // 2), 2 ** (depth // 2)
    coordinate = (points - lo) / extent * cells

    def held(part):
        inside = set(part)
        return {u for e in part for u in cols[e][cols[e] >= 0] if elements_of[u] <= inside}

    def number(part, box, level):
        if level == depth:
            return sorted(held(part))
        axis = (first + level) % 2
        mid = sum(box[axis]) // 2
        left = [e for e in part if coordinate[e, axis] < mid]
        right = [e for e in part if coordinate[e, axis] >= mid]
        left_box, right_box = list(box), list(box)
        left_box[axis], right_box[axis] = (box[axis][0], mid), (mid, box[axis][1])
        own = held(part) - held(left) - held(right)
        return (number(left, left_box, level + 1) + number(right, right_box, level + 1)
                + sorted(own))

    return np.array(number(list(range(len(points))), [(0, cells[0]), (0, cells[1])], 0),
                    dtype=int)


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


@pytest.mark.parametrize("p, n", [(0, 32), (1, 32), (0, 48), (1, 48)],
                         ids=["0", "1", "0-48", "1-48"])
def test_nested_dissection_fills_less_than_minimum_degree(p, n):
    # on dyadic and non-dyadic meshes from n = 24 (p = 0) and n = 32 (p = 1)
    # up; on coarser meshes the order fills up to 15% more, as at n = 24,
    # p = 1 (494 742 against 487 340) and n = 20, p = 1 (344 806 against 299 282)
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, p)
    case = make_case("aniso", 0.01, 0.01)
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    S = system.S[system.rank][:, system.rank]  # in the numbering of the dofmap
    order = _element_order(mesh, dofmap)
    assert abs(S[order][:, order] - system.S).max() == 0.0  # the march's S is numbered so
    # by a rank that inverts the order by a scatter, from centroids summed
    # over the three vertices: bit for bit an argsort and the vertex mean
    assert np.array_equal(system.rank, np.argsort(order))
    symmetric = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    nd = spla.splu(system.S.tocsc(), permc_spec="NATURAL", **symmetric)
    mmd = spla.splu(S.tocsc(), permc_spec="MMD_AT_PLUS_A", **symmetric)
    assert nd.nnz < mmd.nnz  # the fill, read without building L and U


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


def _zero_diagonal_permutation(n, seed):
    perm = np.random.default_rng(seed).permutation(n)
    perm = np.roll(perm, 1)[np.argsort(perm)]  # one n-cycle, so no fixed point
    return sp.csr_matrix((np.arange(1.0, n + 1.0), (np.arange(n), perm)), shape=(n, n))


def test_lu_sparse_zero_diagonal_permutation():
    # every diagonal entry is zero, so every pivot of the symmetric mode's
    # threshold pivoting is taken off the diagonal
    M = _zero_diagonal_permutation(12, 13)
    assert np.all(M.diagonal() == 0.0)
    rhs = np.arange(12.0) - 5.5
    x = lu_solve(M, rhs)
    assert backward_error(M, x, rhs) <= 1e-15
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
    assert backward_error(M, x, rhs) <= 1e-15
    expected = np.linalg.solve(M.toarray(), rhs)
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


class PerturbedFactor:
    """A factor whose solutions, with M or with M^T, are off by a relative 1e-6."""

    def __init__(self, factor):
        self.solve = lambda b, trans="N": factor.solve(b, trans) * (1.0 + 1e-6)


def test_lu_zero_rhs_gives_zero():
    # x = 0 leaves no residual: its backward error is 0, not 0 / 0
    x = lu_solve(sp.csr_matrix(_spd(17)[0]), np.zeros(20))
    assert np.array_equal(x, np.zeros(20))


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


class FactorWithoutCopies:
    """A SuperLU factor whose L and U raise: scipy builds both triangles as
    CSC copies of the factor when either is read."""

    def __init__(self, factor):
        self.solve = factor.solve

    @property
    def L(self):
        raise AssertionError("the factor's L was read")

    @property
    def U(self):
        raise AssertionError("the factor's U was read")


@pytest.mark.parametrize("matrix", ["dominant", "zero-diagonal"])
def test_lu_solve_makes_no_copy_of_the_factor(monkeypatch, matrix):
    # a zero diagonal takes the same symmetric mode, pivoted off the diagonal
    rng = np.random.default_rng(17)
    if matrix == "dominant":
        M = sp.csr_matrix(rng.standard_normal((12, 12)) + 6 * np.eye(12))
    else:
        M = _zero_diagonal_permutation(12, 18)
    rhs = rng.standard_normal(12)
    modes = []
    splu = spla.splu

    def wrapped(*args, **kwargs):
        modes.append(kwargs.get("options", {}).get("SymmetricMode", False))
        return FactorWithoutCopies(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", wrapped)
    x = lu_solve(M, rhs)
    assert modes == [True]
    assert backward_error(M, x, rhs) <= 1e-15


def _near_singular_2x2(delta):
    return np.array([[1.0, 1.0], [1.0, 1.0 + delta]])


def _near_singular_zero_diagonal(delta):
    # row 3 is row 1 minus row 2 up to delta, and no diagonal entry is nonzero
    return np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, 1.0 + delta, 0.0]])


@pytest.mark.parametrize("matrix", [_near_singular_2x2, _near_singular_zero_diagonal])
def test_lu_rejects_a_near_singular_matrix_and_solves_a_better_one(matrix):
    # kappa_1 is about 4e15 at delta = 1e-15 and 4e13-6e13 at delta = 1e-13.
    # The 2x2 rhs (1, 1) is consistent: M x = rhs for x = (1, 0), so an
    # estimate that started from the right-hand side alone would miss the
    # tiny pivot.  The 3x3 matrix has no nonzero diagonal entry, so every
    # pivot is taken off the diagonal.
    rhs = np.ones(len(matrix(0.0)))
    with pytest.raises(SolverError, match="singular"):
        lu_solve(matrix(1e-15), rhs)
    M = matrix(1e-13)
    x = lu_solve(M, rhs)
    assert backward_error(M, x, rhs) <= 1e-15


def test_lu_rejects_an_ill_conditioned_matrix_with_unit_pivots():
    # (M^{-1})_{ij} = 2^{j-i}: kappa_1 is about 2^61 although every pivot is
    # 1, which a test of the pivots against max|M| accepted
    n = 60
    M = sp.diags([np.ones(n), np.full(n - 1, -2.0)], [0, 1]).tocsr()
    with pytest.raises(SolverError, match="singular"):
        lu_solve(M, np.ones(n))


def test_projection_matrices_are_far_from_singular(monkeypatch):
    # N of the projection workload, aniso, p=1, k=h at n=12, 24 and 48
    # (kappa_1 about 2.0e5, 7.8e5 and 3.1e6), through lu_solve in the
    # nested-dissection order that `project` gives it, and the mixed
    # saddle-point matrices of the projection tests, which the test oracle
    # factors with scipy's default splu: far below the threshold 1e14
    norms, kappas = [], []
    splu, estimate = spla.splu, spla.onenormest

    def recording_splu(M, **kwargs):
        norms.append(abs(M).sum(axis=0).max())
        return splu(M, **kwargs)

    def recording_estimate(A, **kwargs):
        est = estimate(A, **kwargs)
        kappas.append(norms[-1] * est)
        return est

    monkeypatch.setattr(spla, "splu", recording_splu)
    monkeypatch.setattr(spla, "onenormest", recording_estimate)
    for n in (12, 24, 48):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 1)
        case = make_case("aniso", 1.0 / n, 1.0 / n)
        exact = case.at(0.0)
        system = build_projection_system(mesh, dofmap, case.coeffs)
        rhs = projection_load(system, exact_b_load(mesh, dofmap, case.coeffs, exact))
        # in the numbering of the dofmap, lu_solve's natural order fills N 61 times
        # more at n=24 (30 309 166 against 494 742)
        order = _element_order(mesh, dofmap)
        lu_solve(system.N[order][:, order], rhs[order])
    coeffs = make_case("adr-decay", 0.1, 1.0).coeffs
    for n, p in ((4, 0), (8, 0), (16, 0), (4, 1)):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, p)
        saddle = mixed_matrix(mesh, dofmap, coeffs)
        factor = splu(saddle)  # as the oracle `project_mixed` factors it
        inverse = spla.LinearOperator(saddle.shape, matvec=factor.solve, dtype=float,
                                      rmatvec=lambda r: factor.solve(r, trans="T"))
        kappas.append(abs(saddle).sum(axis=0).max() * estimate(inverse, t=1))
    assert len(kappas) == 7
    assert max(kappas) <= 1e8


@pytest.mark.parametrize("seed", range(6))
def test_inverse_norm_estimate_is_a_lower_bound_of_the_norm(seed):
    rng = np.random.default_rng(seed)
    n = 30
    M = sp.csc_matrix(rng.standard_normal((n, n)) + 3 * np.eye(n))
    factor = spla.splu(M)
    inverse = spla.LinearOperator((n, n), matvec=factor.solve, dtype=float,
                                  rmatvec=lambda r: factor.solve(r, trans="T"))
    estimate = spla.onenormest(inverse, t=1)
    exact = np.abs(np.linalg.inv(M.toarray())).sum(axis=0).max()
    assert exact / 3 <= estimate <= exact * (1 + 1e-12)


@st.composite
def dominant_systems(draw):
    """A strictly diagonally dominant sparse matrix of order 3 to 8, a
    right-hand side and three distinct rows."""
    n = draw(st.integers(3, 8))
    entries = draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    kept = draw(arrays(bool, (n, n)))
    M = np.where(kept, entries, 0.0)
    np.fill_diagonal(M, 0.0)
    margin = draw(arrays(float, n, elements=st.floats(0.01, 1.0)))
    signs = draw(arrays(bool, n))
    np.fill_diagonal(M, np.where(signs, 1.0, -1.0) * (np.abs(M).sum(axis=1) + margin))
    rhs = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    rows = draw(st.permutations(range(n)))[:3]
    return M, rhs, rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=dominant_systems())
def test_lu_solves_dominant_matrices_and_rejects_a_dependent_row(system):
    M, rhs, (i, j, k) = system
    x = lu_solve(sp.csr_matrix(M), rhs)
    assert np.abs(M @ x - rhs).max() <= 1e-10 * (np.abs(M).sum(axis=1).max() * np.abs(x).max()
                                                  + np.abs(rhs).max())
    M[i] = M[j] + M[k]
    with pytest.raises(SolverError):
        lu_solve(sp.csr_matrix(M), rhs)


@pytest.mark.parametrize("case_id,p,n", [("heat-decay", 1, 8), ("aniso", 1, 8),
                                         ("heat-decay", 0, 16)])
def test_cg_solve_accepts_the_march_factor_where_a_residual_relative_to_rhs_misses(
        case_id, p, n):
    # rhs = S v for v near the lowest eigenvector of the march's own S (eight
    # inverse iterations with its factor, from ones), at k = 1e3: then
    # ||S|| ||x|| / ||rhs|| is about 1e7, and the factor's backward-stable
    # solve leaves a residual far above 1e-12 ||rhs||, the test cg_solve
    # applied before it accepted by backward error
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, p)
    case = make_case(case_id, 1e3, 1e3)
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    assert system.S_norm == pytest.approx(inf_norm(system.S), rel=1e-14)
    v = np.ones(system.S.shape[0])
    for _ in range(8):
        v = system.precond(v)
        v /= np.abs(v).max()
    rhs = system.S @ v
    x, solves = cg_solve(system.S, rhs, system.precond, system.S_norm)
    assert solves == 1
    assert system.S_norm * np.abs(x).max() >= 1e6 * np.abs(rhs).max()
    assert np.linalg.norm(system.S @ x - rhs) > 1e-11 * np.linalg.norm(rhs)
    assert backward_error(system.S, x, rhs) <= 1e-14


def test_cg_solve_accepts_an_exact_factor_on_ill_conditioned_spd_matrices():
    # 200 random 30 x 30 SPD matrices of condition 1e6, rhs along the lowest
    # eigenvector: the exact factor leaves a residual of up to about
    # 1e-10 ||rhs||, since ||S|| ||x|| = 1e6 ||rhs||, and its backward error
    # at rounding level
    eigenvalues = np.geomspace(1.0, 1e6, 30)
    for seed in range(200):
        Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((30, 30)))[0]
        S = _symmetric(Q, eigenvalues)
        x, solves = cg_solve(S, Q[:, 0], factor_spd(S), inf_norm(S))
        assert solves == 1
        assert backward_error(S, x, Q[:, 0]) <= 1e-14
