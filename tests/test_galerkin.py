import dataclasses

import numpy as np
import pytest

from dpgmarch.assembly import PdeCoefficients
from dpgmarch.cases import make_case
from dpgmarch.dofmap import build_dofmap
from dpgmarch.galerkin import build_galerkin_system, galerkin_states
from dpgmarch.mesh import build_structured_mesh
from dpgmarch.timestep import march, states

from conftest import zero_data_case


def test_zero_trajectory():
    mesh = build_structured_mesh(3)
    dofmap = build_dofmap(mesh, 0)
    u = list(galerkin_states(zero_data_case(0.1, 0.5), mesh, dofmap))[-1]
    assert np.all(u == 0.0)


def test_system_matrices_symmetric_definite():
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    system = build_galerkin_system(mesh, dofmap)
    M = system.mass.toarray()
    K = system.stiffness.toarray()
    assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
    assert np.abs(K - K.T).max() <= 1e-14 * np.abs(K).max()
    assert np.linalg.eigvalsh(M).min() > 0.0
    assert np.linalg.eigvalsh(K).min() >= -1e-12 * np.abs(K).max()


def test_backward_euler_is_dissipative():
    # f = 0: the M-energy of the solution cannot grow
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    history = list(galerkin_states(zero_data_case(0.1, 0.5, u0), mesh, dofmap))
    assert len(history) == 6
    M = build_galerkin_system(mesh, dofmap).mass
    energies = [u @ (M @ u) for u in history]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))


def test_identity_with_dpg_field_stepwise():
    # the identity holds at every step, not only at the final time
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    case = make_case("heat-decay", 0.02, 0.1)
    dpg_history = list(states(case, mesh, dofmap))
    fem_history = list(galerkin_states(case, mesh, dofmap))
    assert len(dpg_history) == len(fem_history) == 6
    for dpg_state, fem in zip(dpg_history, fem_history):
        scale = max(np.abs(fem).max(), 1e-30)
        assert np.abs(dpg_state.current.field - fem).max() <= 1e-9 * scale


def test_identity_fails_with_advection():
    # negative control: beta nonzero breaks the coincidence with Galerkin
    mesh = build_structured_mesh(4)
    dofmap = build_dofmap(mesh, 0)
    heat = make_case("heat-decay", 0.02, 0.1)
    coeffs = PdeCoefficients(A=np.eye(2), beta=np.array([1.0, 0.0]), gamma=0.0,
                             k=0.02, T_end=0.1)
    # the control marches the advected PDE with its own consistent source
    advected = dataclasses.replace(heat, name="control", coeffs=coeffs)
    state = march(advected, mesh, dofmap)
    oracle = list(galerkin_states(heat, mesh, dofmap))[-1]
    assert np.abs(state.current.field - oracle).max() > 1e-6


def test_rejects_non_heat_coefficients():
    # checked at the call, before any next()
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    with pytest.raises(ValueError, match="heat"):
        galerkin_states(make_case("adr-decay", 0.1, 0.5), mesh, dofmap)


def test_rejects_incompatible_time_grid():
    mesh = build_structured_mesh(2)
    dofmap = build_dofmap(mesh, 0)
    with pytest.raises(ValueError, match="integer multiple"):
        galerkin_states(make_case("heat-decay", 0.3, 1.0), mesh, dofmap)
