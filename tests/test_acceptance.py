"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import contextlib
import dataclasses
import time

import numpy as np
import pytest

from dpgmarch.assembly import PdeCoefficients, assemble_condensed
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.elliptic import build_projection_system, exact_b_load, project
from dpgmarch.errors import SpatialFields, eoc, field_error, trace_dual_error
from dpgmarch.galerkin import galerkin_states
from dpgmarch.linalg import cg_solve, lu_solve
from dpgmarch.mesh import build_structured_mesh
from dpgmarch.timestep import march, states

from conftest import (b_orthogonality_residual, discrete_b_load, field_quadratic_forms,
                      function_l2_norm, no_source, perturbed_mesh, project_mixed, projection_load)

ZERO = SpatialFields(u=lambda x, y: np.zeros_like(x),
                     grad_u=lambda x, y: np.zeros((2,) + np.shape(x)))


def report(number, passed, detail):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _stationary_study(k_for_h):
    errs_l2, errs_h1, errs_tr, hs = [], [], [], []
    for n in (4, 8, 16, 32):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        k = k_for_h(mesh.h_max)
        case = make_case("stationary-adr", k, 5 * k)
        state = march(case, mesh, dofmap)
        exact = case.at(state.time)
        errs_l2.append(field_error(mesh, dofmap, state.current.field, exact, "L2"))
        errs_h1.append(field_error(mesh, dofmap, state.current.field, exact, "H1semi"))
        errs_tr.append(trace_dual_error(mesh, dofmap, case.coeffs, state.current.trace,
                                        exact.grad_u))
        hs.append(mesh.h_max)
    return errs_l2, errs_h1, errs_tr, hs


def test_criterion_1_heat_identity():
    started = time.perf_counter()
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("heat-decay", 0.01, 0.1)  # 10 steps
    state = march(case, mesh, dofmap)
    oracle = list(galerkin_states(case, mesh, dofmap))[-1]
    deviation = np.abs(state.current.field - oracle).max() / np.abs(oracle).max()
    elapsed = time.perf_counter() - started
    report(1, deviation <= 1e-9 and elapsed < 10.0,
           f"heat identity deviation {deviation:.3e} <= 1e-9, runtime {elapsed:.1f}s < 10s")


def test_criterion_2_coercivity():
    base = make_case("adr-decay", 0.1, 1.0).coeffs
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for k in (1.0, 0.01):
        coeffs = PdeCoefficients(A=base.A, beta=base.beta, gamma=base.gamma,
                                 k=k, T_end=1.0)
        system = assemble_condensed(mesh, dofmap, coeffs, no_source)
        S = system.S[system.rank][:, system.rank]  # in the numbering of the dofmap
        mass, stiff = field_quadratic_forms(mesh, dofmap, coeffs.A)
        for _ in range(100):
            x = rng.standard_normal(dofmap.n_dof)
            u = x[:dofmap.n_field]
            lhs = (u @ mass @ u) / k + u @ stiff @ u
            worst = max(worst, lhs - x @ (S @ x))
    report(2, worst <= 1e-10,
           f"coercivity margin max(lhs - u^T S u) = {worst:.3e} <= 1e-10 "
           "(200 random samples)")


def test_criterion_3_stability_bound():
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    k = 0.05
    case = make_case("adr-decay", k, 1.0)  # 20 steps
    history = list(states(case, mesh, dofmap))
    bound = field_error(mesh, dofmap, history[0].current.field, ZERO, "L2")
    worst = -np.inf
    for n in range(1, 21):
        bound += k * function_l2_norm(mesh, lambda x, y, t=n * k: case.f(t, x, y))
        norm_n = field_error(mesh, dofmap, history[n].current.field, ZERO, "L2")
        worst = max(worst, norm_n - bound)
    report(3, worst <= 1e-8,
           f"stability margin max(||u^n|| - bound) = {worst:.3e} <= 1e-8 over 20 steps")


def test_criterion_4_spatial_h1_rate():
    started = time.perf_counter()
    _, errs_h1, errs_tr, hs = _stationary_study(lambda h: 0.1)
    elapsed = time.perf_counter() - started
    rate = eoc(errs_h1, hs)[-1]
    trace_rate = eoc(errs_tr, hs)[-1]
    report(4, rate >= 0.85 and elapsed < 120.0,
           f"H1 EOC {rate:.3f} >= 0.85 on the finest pair "
           f"(trace surrogate EOC {trace_rate:.3f}, informational; target ~1), "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_5_spatial_l2_rate():
    # k = 25 h^2 keeps h k^{-1/2} constant and damps the initial transient
    # within the 5 steps of the study
    started = time.perf_counter()
    errs_l2, _, _, hs = _stationary_study(lambda h: 25.0 * h**2)
    elapsed = time.perf_counter() - started
    rate = eoc(errs_l2, hs)[-1]
    report(5, rate >= 1.85 and elapsed < 300.0,
           f"L2 EOC {rate:.3f} >= 1.85 on the finest pair with k = h^2 coupling, "
           f"runtime {elapsed:.1f}s < 300s")


def test_criterion_6_temporal_rate():
    mesh = build_structured_mesh(32)
    dofmap = build_dofmap(mesh, 0)
    reference = march(make_case("heat-decay", 1 / 512, 1.0), mesh, dofmap)
    errors, steps = [], []
    for k in (1 / 4, 1 / 8, 1 / 16, 1 / 32):
        state = march(make_case("heat-decay", k, 1.0), mesh, dofmap)
        diff = state.current.field - reference.current.field
        errors.append(field_error(mesh, dofmap, diff, ZERO, "L2"))
        steps.append(k)
    rates = eoc(errors, steps)
    ok = all(0.85 <= rate <= 1.15 for rate in rates)
    report(6, ok, "temporal EOC " + ", ".join(f"{r:.3f}" for r in rates)
           + " all within [0.85, 1.15] against the k=1/512 reference")


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("k", [0.1, 1e-4])
def test_linear_in_time_case_has_the_optimal_l2_rate_at_every_k(p, k):
    # backward Euler's difference quotient is exact for T(t) = 1 + t, so the
    # error after 10 steps is spatial alone, whatever k is: the paper's
    # optimal field L2 rate p + 2 shows at every k, with no k-h coupling.  The
    # H1 rate p + 1 holds too, also past h/sqrt(k) = 10, where only the
    # trace-dual EOC is pre-asymptotic (criterion 4's window, shifted by p)
    errs_l2, errs_h1, hs = [], [], []
    for n in (4, 8, 16, 32):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, p)
        case = make_case("adr-linear", k, 10 * k)
        regime = (pytest.warns(RuntimeWarning, match="trace-norm")
                  if mesh.h_max / np.sqrt(k) > 10 else contextlib.nullcontext())
        with regime:  # at k = 1e-4, n = 4 and 8 are past h/sqrt(k) = 10
            state = march(case, mesh, dofmap)
        exact = case.at(state.time)
        errs_l2.append(field_error(mesh, dofmap, state.current.field, exact, "L2"))
        errs_h1.append(field_error(mesh, dofmap, state.current.field, exact, "H1semi"))
        hs.append(mesh.h_max)
    rate, rate_h1 = eoc(errs_l2, hs)[-1], eoc(errs_h1, hs)[-1]
    print(f"adr-linear, p={p}, k={k:g}: L2 EOC {rate:.3f}, H1 EOC {rate_h1:.3f} "
          "on the finest pair (n=16, 32)")
    assert p + 1.85 <= rate <= p + 2.15
    assert rate_h1 >= p + 0.85


def test_trace_dual_rate_recovers_once_h_over_sqrt_k_nears_one():
    # the trace-dual EOC is pre-asymptotic only while h/sqrt(k) is large: on
    # adr-linear at p=0, k=1e-4 it reads 0.85, 0.95 and 0.99 over n = 32-64,
    # 64-128 and 128-256, where h/sqrt(k) falls from 4.4 to 2.2, 1.1 and 0.55
    k, errs, hs = 1e-4, [], []
    for n in (64, 128):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        case = make_case("adr-linear", k, 10 * k)
        state = march(case, mesh, dofmap)
        exact = case.at(state.time)
        errs.append(trace_dual_error(mesh, dofmap, case.coeffs, state.current.trace,
                                     exact.grad_u))
        hs.append(mesh.h_max)
    rate = eoc(errs, hs)[-1]
    print(f"adr-linear, p=0, k=1e-4: trace-dual EOC {rate:.3f} (n=64, 128)")
    assert rate >= 0.9


# theta_b / ||e|| measured on n = 16 (structured, perturbed):
# (p, k) = (0, 0.1): 0.0211, 0.0206; (0, 1e-4): 0.3417, 0.3444;
# (1, 0.1): 0.0023, 0.0023; (1, 1e-4): 0.0541, 0.0733
THETA_B_BOUNDS = {(0, 0.1): 0.04, (0, 1e-4): 0.7, (1, 0.1): 0.005, (1, 1e-4): 0.15}


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("k", [0.1, 1e-4])
def test_the_march_error_is_mostly_the_projection_error(p, k):
    # The paper splits e = u - u_h at the elliptic projection P of the spatial
    # form (`project`): e = rho + theta with rho = u - P u.  On the
    # linear-in-time case the error after 10 steps is spatial alone, and
    # theta_b = ||P u(t_n) - u_h^n|| is a small part of ||e||, on the
    # structured n=16 mesh and on one whose interior vertices move by up to
    # h/4 in each coordinate; each bound is about twice the larger measured
    # ratio (see THETA_B_BOUNDS)
    case = make_case("adr-linear", k, 10 * k)
    for label, mesh in (("structured", build_structured_mesh(16)),
                        ("perturbed", perturbed_mesh(16, seed=5, amplitude=1 / 64))):
        dofmap = build_dofmap(mesh, p)
        regime = (pytest.warns(RuntimeWarning, match="trace-norm")
                  if mesh.h_max / np.sqrt(k) > 10 else contextlib.nullcontext())
        with regime:
            state = march(case, mesh, dofmap)
        exact = case.at(state.time)
        u_h = state.current.field
        error = field_error(mesh, dofmap, u_h, exact, "L2")
        theta_b = field_error(mesh, dofmap, project(mesh, dofmap, case.coeffs, exact).field - u_h,
                              ZERO, "L2")
        print(f"adr-linear, p={p}, k={k:g}, n=16 {label}: theta_b / ||e|| = {theta_b / error:.4f}")
        assert theta_b <= THETA_B_BOUNDS[p, k] * error


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("k", [0.1, 1e-4])
def test_the_spatial_projection_is_nearer_the_march_than_the_full_form_one(p, k):
    # The paper splits the error at the elliptic projection P_b of the spatial
    # form b (`project`), not at the projection P_a of the full step form
    # a = (1/k)(., .) + b.  For u = T(t) phi, a(u, v) is the source
    # (T/k) phi + T L phi, so P_a u solves S x = F (T/k, T) on the march's own
    # operators.  With T = 1 + t the march's error after 10 steps is spatial
    # alone, and theta = ||P u - u_h|| is smaller for P_b at the finest level
    # (theta_a / theta_b measured 12.6, 2.6, 12.7 and 1.4 at n=32 for
    # (p, k) = (0, 0.1), (0, 1e-4), (1, 0.1) and (1, 1e-4))
    for n in (4, 8, 16, 32):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, p)
        case = make_case("adr-linear", k, 10 * k)
        regime = (pytest.warns(RuntimeWarning, match="trace-norm")
                  if mesh.h_max / np.sqrt(k) > 10 else contextlib.nullcontext())
        with regime:  # at k = 1e-4, n = 4 and 8 are past h/sqrt(k) = 10
            state = march(case, mesh, dofmap)
            system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
        T = 1.0 + state.time
        x, _ = cg_solve(system.S, system.blocks.F @ np.array([T / k, T]), system.precond)
        full_form = x[system.rank[:dofmap.n_field]]
        spatial = project(mesh, dofmap, case.coeffs, case.at(state.time)).field
        theta_a = field_error(mesh, dofmap, full_form - state.current.field, ZERO, "L2")
        theta_b = field_error(mesh, dofmap, spatial - state.current.field, ZERO, "L2")
        print(f"adr-linear, p={p}, k={k:g}, n={n}: theta_a {theta_a:.3e}, "
              f"theta_b {theta_b:.3e}, ratio {theta_a / theta_b:.2f}")
    assert theta_b < theta_a


def test_criterion_7_projection_rates():
    case = make_case("adr-decay", 0.1, 1.0)
    exact = case.at(0.0)
    errs_h1, errs_l2, hs = [], [], []
    for n in (4, 8, 16, 32, 64):
        mesh = build_structured_mesh(n)
        dofmap = build_dofmap(mesh, 0)
        result = project(mesh, dofmap, case.coeffs, exact)
        errs_h1.append(field_error(mesh, dofmap, result.field, exact, "H1semi"))
        errs_l2.append(field_error(mesh, dofmap, result.field, exact, "L2"))
        hs.append(mesh.h_max)
    rate_h1 = eoc(errs_h1, hs)[-1]
    rate_l2 = eoc(errs_l2, hs)[-1]
    report(7, rate_h1 >= 0.85 and rate_l2 >= 1.85,
           f"projection rates on the finest pair: H1 EOC {rate_h1:.3f} >= 0.85, "
           f"L2 EOC {rate_l2:.3f} >= 1.85 (levels n=4..64, k=0.1)")


def test_criterion_8_mixed_equivalence():
    case = make_case("adr-decay", 0.1, 1.0)
    exact = case.at(0.0)
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)

    direct = project(mesh, dofmap, case.coeffs, exact)
    direct = np.concatenate([direct.field, direct.trace])
    _, via_mixed = project_mixed(mesh, dofmap, case.coeffs,
                                 exact_b_load(mesh, dofmap, case.coeffs, exact))
    via_mixed = np.concatenate([via_mixed.field, via_mixed.trace])
    deviation = np.abs(via_mixed - direct).max() / np.abs(direct).max()

    rng = np.random.default_rng(8)
    data = rng.standard_normal(dofmap.n_dof)
    v, u = project_mixed(mesh, dofmap, case.coeffs,
                         discrete_b_load(mesh, dofmap, case.coeffs, data))
    residual = np.abs(v).max() / np.abs(data).max()
    identity = np.abs(np.concatenate([u.field, u.trace]) - data).max() / np.abs(data).max()

    report(8, deviation <= 1e-9 and residual <= 1e-9 and identity <= 1e-9,
           f"mixed vs condensed deviation {deviation:.3e} <= 1e-9; representable data: "
           f"|v_h| {residual:.3e}, identity defect {identity:.3e}")


def test_criterion_9_projection_orthogonality():
    case = make_case("adr-decay", 0.1, 1.0)
    exact = case.at(0.0)
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    system = build_projection_system(mesh, dofmap, case.coeffs)
    rhs = projection_load(system, exact_b_load(mesh, dofmap, case.coeffs, exact))
    solution = lu_solve(system.N, rhs)
    residual, scale = b_orthogonality_residual(system, rhs, solution)
    report(9, residual <= 1e-10 * scale,
           f"orthogonality residual {residual:.3e} <= 1e-10 * scale ({scale:.3e})")


def test_criterion_10_structural_checks():
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("adr-decay", 0.05, 0.1)
    # Cholesky of every G_K
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    asym = abs(system.S - system.S.T)
    symmetry = (asym.max() if asym.nnz else 0.0) / abs(system.S).max()

    heat = make_case("heat-decay", 0.02, 0.1)
    advected_coeffs = PdeCoefficients(A=np.eye(2), beta=np.array([1.0, 0.0]), gamma=0.0,
                                      k=0.02, T_end=0.1)
    # the control marches the advected PDE with its own consistent source
    advected = dataclasses.replace(heat, name="control", coeffs=advected_coeffs)
    state = march(advected, mesh, dofmap)
    oracle = list(galerkin_states(heat, mesh, dofmap))[-1]
    control = np.abs(state.current.field - oracle).max()

    report(10, symmetry <= 1e-12 and control > 1e-6,
           f"S symmetry defect {symmetry:.3e} <= 1e-12 (relative); all Gram blocks "
           f"factorized; negative control deviation {control:.3e} > 1e-6 with beta=(1,0)")
