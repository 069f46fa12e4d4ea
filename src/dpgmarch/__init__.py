"""Backward Euler primal DPG solver for parabolic advection-diffusion-reaction
problems on the unit square, with convergence-study tooling."""

from .assembly import CondensedSystem, PdeCoefficients, assemble_condensed, condense_load
from .basis import QuadRule, ShapeTable, edge_rule, lagrange_edge, lagrange_triangle, \
    triangle_rule
from .cases import CASE_IDS, PdeCase, make_case
from .dofmap import DofMap, build_dofmap
from .elliptic import TestVector, project, project_mixed
from .errors import ErrorReport, SpatialFields, eoc, field_error, trace_dual_error
from .galerkin import galerkin_march
from .linalg import SolverError, cg_solve, lu_solve
from .mesh import Mesh, build_structured_mesh, edge_orientation_sign, mesh_from_arrays, \
    refine_uniform
from .timestep import MarchState, TrialVector, initial_field, march, step

__all__ = [
    "CASE_IDS", "CondensedSystem", "DofMap", "ErrorReport", "MarchState", "Mesh",
    "PdeCase", "PdeCoefficients", "QuadRule", "ShapeTable", "SolverError",
    "SpatialFields", "TestVector", "TrialVector", "assemble_condensed", "build_dofmap",
    "build_structured_mesh", "cg_solve",
    "condense_load", "edge_orientation_sign", "edge_rule", "eoc", "field_error",
    "galerkin_march", "initial_field", "lagrange_edge", "lagrange_triangle",
    "lu_solve", "make_case", "march",
    "mesh_from_arrays", "project", "project_mixed", "refine_uniform", "step",
    "trace_dual_error", "triangle_rule",
]
