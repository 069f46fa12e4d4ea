"""Backward Euler marching of the condensed primal DPG system.

Each step solves the condensed normal equations S x = rhs, with
S = sum_K E_K^T E_K and the load (f^n + u^{n-1}/k, .) condensed to
rhs = F a(t_n) + C w (see `assembly`), both in the nested-dissection
numbering of S.  The case's source is separable, f = sum_s a_s(t) g_s(x) (see
`cases`): each spatial term g_s is condensed once per march into a column of
F, a step weights the columns with a(t_n) = case.source_time(t_n) and does
no quadrature, and only the field component w of the previous step enters.
A source that is not given in this form cannot be marched.  The trace
component of the initial state is irrelevant to the scheme and kept at zero.
`states(case, mesh, dofmap)` checks the time grid when it is called and
yields the state of each step as it is read; `march` returns the last.

The initial field is the nodal interpolant of u0 at the interior Lagrange
nodes; for smooth u0 this attains the approximation orders assumed by the
error analysis, so the initial-error terms do not pollute measured rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import CondensedSystem, assemble_condensed, condense_load
from .cases import PdeCase
from .dofmap import DofMap
from .errors import ZERO_FIELDS, field_error
from .linalg import cg_solve
from .mesh import Mesh

_MAX_STEPS = 10**6


@dataclass(frozen=True)
class TrialVector:
    """Coefficients of one trial function: conforming field + edge traces."""

    field: np.ndarray
    trace: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.field, self.trace])

    @classmethod
    def from_vector(cls, vector, n_field: int) -> "TrialVector":
        vector = np.asarray(vector, dtype=float)
        return cls(field=vector[:n_field].copy(), trace=vector[n_field:].copy())


@dataclass(frozen=True)
class MarchState:
    step_index: int
    time: float
    current: TrialVector
    l2: float | None = None  # field L2 norm of `current`, set by `states`


def initial_field(u0, dofmap: DofMap, mesh: Mesh) -> TrialVector:
    """Nodal interpolant of u0 at the interior field nodes; zero traces."""
    coords = dofmap.field_dof_coords
    if coords.shape[0]:
        field = np.asarray(u0(coords[:, 0], coords[:, 1]), dtype=float)
    else:
        field = np.zeros(0)
    return TrialVector(field=field, trace=np.zeros(dofmap.n_trace))


def step(system: CondensedSystem, state: MarchState, a) -> MarchState:
    """One backward Euler step; a must be the source time weights at the new
    time level, case.source_time(t_n).

    CG is preconditioned by the float64 factor of S built once per march and
    stops after one iteration.
    """
    rhs = condense_load(system.blocks, a, state.current.field)
    x, _ = cg_solve(system.S, rhs, system.precond)
    return MarchState(
        step_index=state.step_index + 1,
        time=(state.step_index + 1) * system.coeffs.k,
        current=TrialVector.from_vector(x[system.rank], system.dofmap.n_field),
    )


def n_steps(k: float, T_end: float) -> int:
    ratio = T_end / k
    if not ratio < _MAX_STEPS + 0.5:
        raise ValueError(f"T_end={T_end} with k={k} asks for {ratio:.6g} time steps; "
                         f"at most {_MAX_STEPS} are allowed")
    count = int(round(ratio))
    if count < 1 or abs(count * k - T_end) > 1e-12 * max(1.0, T_end):
        raise ValueError(f"T_end={T_end} is not an integer multiple of k={k}")
    return count


def states(case: PdeCase, mesh: Mesh, dofmap: DofMap):
    """The interpolated initial state, then the state of each backward Euler
    step up to T_end, each with its field L2 norm.

    A time grid that `n_steps` rejects raises at the call; the system is
    assembled and the steps run as the states are read."""
    coeffs = case.coeffs
    count = n_steps(coeffs.k, coeffs.T_end)

    def sequence():
        system = assemble_condensed(mesh, dofmap, coeffs, case.source_space)
        state = MarchState(step_index=0, time=0.0, current=initial_field(case.u0, dofmap, mesh))
        for n in range(count + 1):
            if n:
                state = step(system, state, case.source_time(n * coeffs.k))
            yield replace(state, l2=field_error(mesh, dofmap, state.current.field,
                                                ZERO_FIELDS, "L2"))

    return sequence()


def march(case: PdeCase, mesh: Mesh, dofmap: DofMap) -> MarchState:
    """March from the interpolated initial state to T_end; the final state."""
    for state in states(case, mesh, dofmap):
        pass
    return state
