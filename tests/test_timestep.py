import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dpgmarch import timestep
from dpgmarch.assembly import (_build_blocks, assemble_condensed, condense_load,
                               element_classes, volume_quadrature)
from dpgmarch.basis import lagrange_triangle, triangle_rule
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.errors import ZERO_FIELDS, field_error
from dpgmarch.galerkin import galerkin_states
from dpgmarch.linalg import SolverError, cg_solve
from dpgmarch.mesh import build_structured_mesh
from dpgmarch.timestep import MarchState, initial_field, march, n_steps, states, step

from conftest import a_blocks, block_rows, evaluate_field, function_l2_norm, perturbed_mesh, \
    zero_data_case

def test_initial_field_zero():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    state = initial_field(lambda x, y: np.zeros_like(x), dofmap)
    assert np.all(state.field == 0.0)
    assert np.all(state.trace == 0.0)


def test_initial_field_sine_center_node():
    # sin(pi/2)^2 = 1 at the single interior node (0.5, 0.5)
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    state = initial_field(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), dofmap)
    assert state.field[0] == pytest.approx(1.0, abs=1e-15)


def test_initial_field_reproduces_discrete_functions():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(dofmap.n_field)
    state = initial_field(lambda x, y: evaluate_field(mesh, dofmap, coeffs, x, y), dofmap)
    assert np.abs(state.field - coeffs).max() <= 1e-13


def test_zero_data_stays_zero():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    for state in states(zero_data_case(0.1, 0.5), mesh, dofmap):
        assert np.abs(state.current.field).max() <= 1e-14
        assert np.abs(state.current.trace).max() <= 1e-14


def test_single_step_equals_one_step_march():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("adr-decay", 0.25, 0.25)
    final = march(case, mesh, dofmap)
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    state0 = MarchState(0, 0.0, initial_field(case.u0, dofmap))
    manual = step(system, state0, case.source_time(0.25))
    assert final.step_index == 1
    assert np.array_equal(final.current.field, manual.current.field)
    assert np.array_equal(final.current.trace, manual.current.trace)


def test_march_is_deterministic():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("aniso", 0.1, 0.4)
    a = march(case, mesh, dofmap).current
    b = march(case, mesh, dofmap).current
    assert np.array_equal(a.field, b.field)
    assert np.array_equal(a.trace, b.trace)


def test_march_is_markov_in_the_field():
    # continuing a march from an intermediate state reproduces the long march
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("adr-decay", 0.1, 0.5)
    history = list(states(case, mesh, dofmap))
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    state = history[2]
    for n in (3, 4, 5):
        state = step(system, state, case.source_time(n * 0.1))
    assert np.array_equal(state.current.field, history[-1].current.field)
    assert np.array_equal(state.current.trace, history[-1].current.trace)
    assert state.time == pytest.approx(0.5, abs=1e-14)


def test_march_time_grid():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("heat-decay", 0.125, 0.5)
    history = list(states(case, mesh, dofmap))
    assert [state.step_index for state in history] == [0, 1, 2, 3, 4]
    for state in history:
        assert abs(state.time - state.step_index * 0.125) <= 1e-14
        norm = field_error(mesh, dofmap, state.current.field, ZERO_FIELDS, "L2")
        assert state.l2 == pytest.approx(norm, rel=1e-14)


@pytest.mark.parametrize("perturbed, case_id, p", [(False, "heat-decay", 0),
                                                   (False, "aniso", 1),
                                                   (True, "adr-decay", 1)])
def test_every_state_norm_is_the_quadrature_norm(perturbed, case_id, p):
    # sqrt(w^T M w) with the assembled field mass matrix against the
    # quadrature of field_error, on every state of the march; on the
    # perturbed mesh M is built from one class per element
    mesh = perturbed_mesh(4, 3) if perturbed else build_structured_mesh(4)
    if perturbed:
        assert len(element_classes(mesh)[0]) == mesh.n_elements
    dofmap = build_dofmap(mesh, p)
    history = list(states(make_case(case_id, 0.1, 0.4), mesh, dofmap))
    assert len(history) == 5
    for state in history:
        norm = field_error(mesh, dofmap, state.current.field, ZERO_FIELDS, "L2")
        assert norm > 0.0
        assert state.l2 == pytest.approx(norm, rel=1e-14)


def test_state_norms_without_interior_field_unknowns_are_zero():
    # n=1, p=0 has no interior field node, so M is 0 by 0 and every field is 0
    mesh = build_structured_mesh(1)
    dofmap = build_dofmap(mesh, 0)
    assert dofmap.n_field == 0
    history = list(states(make_case("heat-decay", 0.25, 0.5), mesh, dofmap))
    assert [state.l2 for state in history] == [0.0, 0.0, 0.0]


def test_states_reject_a_mass_matrix_norm_off_the_quadrature(monkeypatch):
    # a quadrature norm 1e-9 above the mass-matrix norm trips the once-per-march
    # check at the initial state, before any state is yielded
    quadrature = timestep.field_error
    monkeypatch.setattr(timestep, "field_error",
                        lambda *args: quadrature(*args) * (1.0 + 1e-9))
    mesh = build_structured_mesh(3)
    sequence = states(make_case("heat-decay", 0.25, 0.5), mesh, build_dofmap(mesh, 0))
    with pytest.raises(SolverError, match="mass matrix"):
        next(sequence)


@pytest.mark.parametrize("p", [0, 1])
def test_states_check_the_mass_matrix_when_u0_is_zero(monkeypatch, p):
    # the check integrates a fixed probe field, not the initial one, so a
    # march from u0 = 0, whose every norm is 0, still checks M
    quadrature = timestep.field_error
    monkeypatch.setattr(timestep, "field_error",
                        lambda *args: quadrature(*args) * (1.0 + 1e-9))
    mesh = build_structured_mesh(3)
    sequence = states(zero_data_case(0.25, 0.5), mesh, build_dofmap(mesh, p))
    with pytest.raises(SolverError, match="mass matrix"):
        next(sequence)


@pytest.mark.parametrize("case_id, p, k, T_end", [("adr-decay", 0, 0.1, 0.5),
                                                  ("aniso", 1, 0.25, 1.0)])
def test_march_is_the_last_of_its_states(case_id, p, k, T_end):
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, p)
    case = make_case(case_id, k, T_end)
    history = list(states(case, mesh, dofmap))
    assert [state.step_index for state in history] == list(range(n_steps(k, T_end) + 1))
    final = march(case, mesh, dofmap)
    assert final.step_index == history[-1].step_index
    assert final.time == history[-1].time
    assert np.array_equal(final.current.field, history[-1].current.field)
    assert np.array_equal(final.current.trace, history[-1].current.trace)
    assert final.l2 == history[-1].l2


def test_march_rejects_incompatible_grid():
    with pytest.raises(ValueError):
        n_steps(0.3, 1.0)


def test_states_rejects_a_bad_time_grid_when_called():
    # the time grid is checked at the call, before any next()
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    with pytest.raises(ValueError, match="integer multiple"):
        states(make_case("heat-decay", 0.3, 1.0), mesh, dofmap)


def test_stability_bound():
    # ||u^n|| <= sum_j k ||f^j|| + ||u^0|| with quadrature-evaluated norms
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    k = 0.1
    case = make_case("adr-decay", k, 1.0)
    history = list(states(case, mesh, dofmap))
    bound = field_error(mesh, dofmap, history[0].current.field, ZERO_FIELDS, "L2")
    for n in range(1, len(history)):
        bound += k * function_l2_norm(mesh, lambda x, y, t=n * k: case.f(t, x, y))
        norm_n = field_error(mesh, dofmap, history[n].current.field, ZERO_FIELDS, "L2")
        assert norm_n <= bound + 1e-8


def test_heat_single_step_matches_galerkin():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("heat-decay", 0.05, 0.05)
    state = march(case, mesh, dofmap)
    oracle = list(galerkin_states(case, mesh, dofmap))[-1]
    assert np.abs(state.current.field - oracle).max() <= 1e-9 * np.abs(oracle).max()


def test_temporal_self_convergence():
    # halving k at fixed h reduces the final-time distance to a fine-k reference
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 0)
    reference = march(make_case("heat-decay", 1 / 64, 1.0), mesh, dofmap)
    errors = []
    for k in (1 / 4, 1 / 8):
        state = march(make_case("heat-decay", k, 1.0), mesh, dofmap)
        diff = state.current.field - reference.current.field
        errors.append(field_error(mesh, dofmap, diff, ZERO_FIELDS, "L2"))
    assert errors[1] < 0.75 * errors[0]


def test_march_matches_direct_solves():
    # each step of the march, solved with the float64 factor of S and checked by
    # cg_solve, equals a march that solves it with scipy's spsolve
    mesh = build_structured_mesh(8)
    dofmap = build_dofmap(mesh, 1)
    k = 1 / 64
    case = make_case("aniso", k, 4 * k)
    final = march(case, mesh, dofmap).current
    final = np.concatenate([final.field, final.trace])
    system = assemble_condensed(mesh, dofmap, case.coeffs, case.source_space)
    S = system.S.tocsc()
    field = initial_field(case.u0, dofmap).field
    for n in range(1, 5):
        rhs = condense_load(system.blocks, case.source_time(n * k), field)
        direct = spla.spsolve(S, rhs)[system.rank]  # back to the numbering of the dofmap
        field = direct[:dofmap.n_field]
    assert np.linalg.norm(final - direct) <= 1e-10 * np.linalg.norm(direct)


def test_march_evaluates_the_source_once(monkeypatch):
    # the spatial source terms are sampled and condensed once per march; a
    # step only asks for the time weights at its new time level
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 1)
    case = make_case("aniso", 0.1, 0.5)
    calls = {"space": 0, "times": []}

    def profile(x, y, order):
        calls["space"] += order == 2
        return case.profile(x, y, order)

    def T_dot(t):
        calls["times"].append(t)
        return case.T_dot(t)

    counted = dataclasses.replace(case, profile=profile, T_dot=T_dot)
    final = march(counted, mesh, dofmap)
    assert calls["space"] == 1
    assert calls["times"] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-15)
    expected = march(case, mesh, dofmap).current
    assert np.array_equal(final.current.field, expected.field)
    assert np.array_equal(final.current.trace, expected.trace)


@pytest.mark.parametrize("case_id", ["heat-decay", "aniso"])
def test_march_load_matches_the_pointwise_source(case_id, monkeypatch):
    # every step's load equals R^T (L^{-1} T diag(w det J) f(t_n, x_q) + W_w w),
    # built here from block rows of the element blocks and the pointwise
    # source f at the volume quadrature points, without the march's own
    # operators, and compared after renumbering the load as the dofmap
    for p in (0, 1):
        mesh = build_structured_mesh(4)
        dofmap = build_dofmap(mesh, p)
        k = 0.05
        case = make_case(case_id, k, 4 * k)
        blocks = _build_blocks(mesh, dofmap, case.coeffs)
        chol_inv = blocks.chol_inv[blocks.cls]
        R = block_rows(chol_inv @ a_blocks(blocks, case.coeffs)[blocks.cls], blocks.cols,
                       dofmap.n_dof)
        W_w = block_rows(chol_inv @ blocks.mass_field[blocks.cls] / k,
                         dofmap.element_field_dofs, dofmap.n_field)
        points, wdet, _ = volume_quadrature(mesh, 2 * (p + 2))
        W_f = np.einsum("emn,nq,eq->emq", chol_inv,
                        lagrange_triangle(p + 2, triangle_rule(2 * (p + 2)).points).values, wdet)
        loads = []

        def recording(ops, a, w):
            rhs = condense_load(ops, a, w)
            loads.append((w, rhs))
            return rhs

        systems = []

        def assembling(*args):
            systems.append(assemble_condensed(*args))
            return systems[-1]

        monkeypatch.setattr(timestep, "condense_load", recording)
        monkeypatch.setattr(timestep, "assemble_condensed", assembling)
        march(case, mesh, dofmap)
        assert len(loads) == 4
        rank = systems[0].rank  # the load's rows are numbered as S
        for n, (w, rhs) in enumerate(loads, start=1):
            fq = case.f(n * k, points[..., 0], points[..., 1])
            pointwise = R.T @ (np.einsum("emq,eq->em", W_f, fq).ravel() + W_w @ w)
            assert np.linalg.norm(rhs[rank] - pointwise) <= 1e-12 * np.linalg.norm(pointwise)


def test_factored_march_takes_few_cg_iterations(monkeypatch):
    solves = []

    def counting(S, rhs, precond, S_norm):
        x, count = cg_solve(S, rhs, precond, S_norm)
        solves.append(count)
        return x, count

    # the float64 factor solves S to rounding, so its first solve passes the
    # backward-error check and no step refines
    monkeypatch.setattr(timestep, "cg_solve", counting)
    mesh = build_structured_mesh(8)
    march(make_case("heat-decay", 1 / 64, 8 / 64), mesh, build_dofmap(mesh, 0))
    assert solves == [1] * 8
    solves.clear()
    march(make_case("aniso", 1 / 64, 4 / 64), mesh, build_dofmap(mesh, 1))
    assert solves == [1] * 4


def test_step_count_is_capped():
    assert n_steps(1e-6, 1.0) == 10**6
    with pytest.raises(ValueError, match="1e\\+301 time steps"):
        n_steps(0.1, 1e300)
    with pytest.raises(ValueError, match="inf time steps"):
        n_steps(1e-10, 1e300)
