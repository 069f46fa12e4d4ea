"""Batch driver: single solves and convergence studies.

Usage:
    dpgmarch <command> --config <path> [key=value ...]

The JSON config uses flat keys; trailing key=value pairs override config
entries, with values parsed as JSON when possible.  KEYS holds the parser and
default of each key and COMMAND_TABLE the handler of each command with the
keys it reads: an unknown key, a value of the wrong type or out of range, and
a key set (not null) for a command that does not read it are configuration
errors, raised before any mesh is built.  Nothing is coerced.  Studies write
a CSV table with the ErrorReport columns and print an EOC table; `run` can
additionally dump the field as a legacy ASCII VTK snapshot.  Exit codes: 0
success, 1 verification failed (heat-identity FAIL), 2 configuration error
(including an output_path that cannot be written), 3 solver failure or out of
memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .cases import CASE_IDS, make_case
from .dofmap import build_dofmap
from .elliptic import project
from .errors import ZERO_FIELDS, ErrorReport, eoc, field_error, trace_dual_error
from .galerkin import galerkin_states
from .linalg import SolverError
from .mesh import build_structured_mesh
from .timestep import TrialVector, march, states

HEAT_IDENTITY_TOL = 1e-9
# a plain decimal or scientific numeral: no spaces, underscores, non-ASCII
# digits, inf or nan, all of which float() would accept
_NUMERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_H_POWER = {"fixed": 0, "h": 1, "h2": 2}  # k = value * h_max**power
REQUIRED = object()  # the default of a key the config must set


class ConfigError(ValueError):
    pass


@dataclass
class KPolicy:
    """Time-step policy: fixed k, k = c*h, k = c*h^2, or an explicit list."""

    kind: str
    values: tuple

    @classmethod
    def parse(cls, text) -> "KPolicy":
        kind, _, payload = str(text).partition(":")
        numerals = payload.split(",") if kind == "list" else [payload]
        if (kind == "list" or kind in _H_POWER) and all(map(_NUMERAL.fullmatch, numerals)):
            values = tuple(float(v) for v in numerals)
            # 1e400 is a numeral, but not a float
            if all(math.isfinite(v) and v > 0.0 for v in values):
                return cls(kind=kind, values=values)
        raise ConfigError(f"invalid k_policy {text!r}; expected 'fixed:K', 'h:C', 'h2:C' or "
                          "'list:K1,K2,...' with positive numbers")

    def k_for(self, h_max: float) -> float:
        return self.values[0] * h_max ** _H_POWER[self.kind]


@dataclass
class RunConfig:
    command: str
    case_id: str
    p: int
    levels: list
    k_policy: KPolicy
    T_end: float
    n_steps: int | None
    k_ref: float | None
    output_path: str
    snapshot: bool

    def validate(self, present) -> None:
        """Check the keys set in the config and the values against the command's row."""
        row = COMMAND_TABLE[self.command]
        ignored = sorted(present - row.reads)
        if ignored:
            raise ConfigError(f"{self.command} does not read {', '.join(ignored)}; "
                              "leave it out or set it to null")
        if row.single_level and len(self.levels) > 1:
            raise ConfigError(f"{self.command} runs on one mesh; levels must have one entry, "
                              f"got {self.levels}")
        if row.list_policy != (self.k_policy.kind == "list"):
            need = "a" if row.list_policy else "no"
            raise ConfigError(f"{self.command} takes {need} k_policy 'list:...'")
        if list(self.k_policy.values) != sorted(set(self.k_policy.values), reverse=True):
            raise ConfigError("the steps of a k_policy 'list:...' must strictly decrease")


def _integer(key: str, value) -> int:
    """An integral JSON number (4 or 4.0) as int; bools and fractions are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _number(key: str, value) -> float:
    """A finite JSON number as float; bools, strings, infinities, NaN and
    integers beyond the float range are rejected."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _checked(parse, ok, need: str):
    """The parser `parse`, followed by the check `ok` of the parsed value."""
    def checked(key: str, value):
        value = parse(key, value)
        if not ok(value):
            raise ConfigError(f"{key} must be {need}, got {value!r}")
        return value
    return checked


def _typed(kind, need: str):
    return _checked(lambda key, value: value, lambda v: isinstance(v, kind), need)


def _one_of(choices):
    return _checked(_typed(str, "a string"), lambda v: v in choices, f"one of {', '.join(choices)}")


def _levels(key: str, value) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"levels must be a nonempty list of mesh subdivisions, got {value!r}")
    levels = [_positive_integer(key, n) for n in value]
    if levels != sorted(set(levels)):
        raise ConfigError("levels must be strictly increasing")
    return levels


def _output_path(key: str, value) -> str:
    parent = os.path.dirname(_typed(str, "a string")(key, value))
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"the directory {parent!r} of output_path does not exist")
    return value


_positive_integer = _checked(_integer, lambda v: v > 0, "positive")
_positive_number = _checked(_number, lambda v: v > 0, "positive")


def load_config(path: str, overrides=(), command: str | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object with flat keys")

    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw

    if command is not None:
        data["command"] = command
    unknown = set(data) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    present = {key for key, value in data.items() if value is not None}  # null is unset
    missing = [key for key, (_, default) in KEYS.items()
               if default is REQUIRED and key not in present]
    if missing:
        raise ConfigError(f"config requires {', '.join(missing)}")
    cfg = RunConfig(**{key: parse(key, data[key]) if key in present else default
                       for key, (parse, default) in KEYS.items()})
    cfg.validate(present)
    return cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.16g}"
    return str(value)


def _write_lines(path: str, lines) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_study(cfg: RunConfig, reports, steps=None) -> int:
    """EOC over `steps` (h_max by default), then the study's CSV and table."""
    steps = [r.h_max for r in reports] if steps is None else steps
    rates = [eoc([getattr(r, name) for r in reports], steps)
             for name in ("err_L2", "err_H1_semi", "err_trace_dual")]
    for report, (l2, h1, tr) in zip(reports[1:], zip(*rates)):
        report.eoc_L2, report.eoc_H1, report.eoc_trace = l2, h1, tr
    lines = [",".join(field.name for field in fields(ErrorReport))]
    lines += [",".join(_fmt(v) for v in report.row()) for report in reports]
    _write_lines(cfg.output_path, lines)
    print(f"{'level':>5} {'h_max':>12} {'k':>12} {'err_L2':>13} {'err_H1':>13} "
          f"{'err_trace':>13} {'eoc_L2':>7} {'eoc_H1':>7} {'eoc_tr':>7}")
    for r in reports:
        rate = lambda v: f"{v:7.2f}" if v is not None else "      -"
        print(f"{r.level:>5} {r.h_max:>12.5e} {r.k:>12.5e} {r.err_L2:>13.6e} "
              f"{r.err_H1_semi:>13.6e} {r.err_trace_dual:>13.6e} "
              f"{rate(r.eoc_L2)} {rate(r.eoc_H1)} {rate(r.eoc_trace)}")
    return 0


def write_vtk(path: str, mesh, dofmap, field_coeffs) -> None:
    """Legacy ASCII VTK unstructured grid with vertex data 'u'."""
    values = np.zeros(mesh.n_vertices)
    mask = dofmap.vertex_field_dof >= 0
    values[mask] = np.asarray(field_coeffs)[dofmap.vertex_field_dof[mask]]
    lines = ["# vtk DataFile Version 2.0", "dpgmarch field snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    lines += [f"{x:.16g} {y:.16g} 0" for x, y in mesh.vertices]
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.elements]
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines += ["5"] * mesh.n_elements
    lines += [f"POINT_DATA {mesh.n_vertices}", "SCALARS u double 1", "LOOKUP_TABLE default"]
    lines += [f"{v:.16g}" for v in values]
    _write_lines(path, lines)


def _level(cfg: RunConfig, n: int):
    """Mesh, dofmap and case of one study level, with k from the policy."""
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, cfg.p)
    k = cfg.k_policy.k_for(mesh.h_max)
    T_end = cfg.n_steps * k if cfg.n_steps is not None else cfg.T_end
    return mesh, dofmap, make_case(cfg.case_id, k, T_end)


def _error_report(level: int, mesh, dofmap, coeffs, trial: TrialVector, exact) -> ErrorReport:
    return ErrorReport(
        level=level, h_max=mesh.h_max, k=coeffs.k, n_field=dofmap.n_field,
        n_trace=dofmap.n_trace,
        err_L2=field_error(mesh, dofmap, trial.field, exact, "L2"),
        err_H1_semi=field_error(mesh, dofmap, trial.field, exact, "H1semi"),
        err_trace_dual=trace_dual_error(mesh, dofmap, coeffs, trial.trace, exact.grad_u),
    )


def _march_report(cfg: RunConfig, level: int, n: int):
    mesh, dofmap, case = _level(cfg, n)
    state = march(case, mesh, dofmap)
    report = _error_report(level, mesh, dofmap, case.coeffs, state.current, case.at(state.time))
    return mesh, dofmap, state, report


def cmd_run(cfg: RunConfig) -> int:
    mesh, dofmap, state, report = _march_report(cfg, 0, cfg.levels[0])
    write_study(cfg, [report])
    if cfg.snapshot:
        write_vtk(cfg.output_path + ".vtk", mesh, dofmap, state.current.field)
        print(f"snapshot written to {cfg.output_path}.vtk")
    return 0


def cmd_converge_space(cfg: RunConfig) -> int:
    return write_study(cfg, [_march_report(cfg, level, n)[3]
                             for level, n in enumerate(cfg.levels)])


def cmd_converge_time(cfg: RunConfig) -> int:
    n = cfg.levels[0]
    mesh = build_structured_mesh(n)
    dofmap = build_dofmap(mesh, cfg.p)
    k_values = cfg.k_policy.values
    k_ref = cfg.k_ref if cfg.k_ref is not None else min(k_values) / 16.0

    ref_state = march(make_case(cfg.case_id, k_ref, cfg.T_end), mesh, dofmap)
    reports = []
    for level, k in enumerate(k_values):
        case = make_case(cfg.case_id, k, cfg.T_end)
        state = march(case, mesh, dofmap)
        diff = TrialVector(field=state.current.field - ref_state.current.field,
                           trace=state.current.trace - ref_state.current.trace)
        reports.append(_error_report(level, mesh, dofmap, case.coeffs, diff, ZERO_FIELDS))
    return write_study(cfg, reports, steps=k_values)


def cmd_converge_projection(cfg: RunConfig) -> int:
    reports = []
    for level, n in enumerate(cfg.levels):
        mesh, dofmap, case = _level(cfg, n)
        exact = case.at(0.0)
        result = project(mesh, dofmap, case.coeffs, exact)
        reports.append(_error_report(level, mesh, dofmap, case.coeffs, result, exact))
    return write_study(cfg, reports)


def cmd_heat_identity(cfg: RunConfig) -> int:
    mesh, dofmap, case = _level(cfg, cfg.levels[0])
    march_states = states(case, mesh, dofmap)
    # the oracle runs first and only its fields are kept, so its factor is freed
    # before the DPG system is assembled and the two are never alive together
    oracle = list(galerkin_states(case, mesh, dofmap))
    pairs = zip(march_states, oracle, strict=True)
    deviation = max(float(np.abs(state.current.field - oracle).max()
                          / max(np.abs(oracle).max(), 1e-300)) for state, oracle in pairs)
    passed = deviation <= HEAT_IDENTITY_TOL
    print(f"max relative DOF deviation over every step: {deviation:.3e} "
          f"({'PASS' if passed else 'FAIL'} vs {HEAT_IDENTITY_TOL:.0e})")
    return 0 if passed else 1


class Command(NamedTuple):
    """A row of COMMAND_TABLE: the handler, the config keys it reads, whether
    it runs on one level and whether its k_policy must be a 'list:'."""

    handler: Callable[[RunConfig], int]
    reads: frozenset
    single_level: bool
    list_policy: bool = False


_EVERY = frozenset({"command", "case_id", "p", "levels", "k_policy", "T_end"})  # read by all

COMMAND_TABLE = {
    "run": Command(cmd_run, _EVERY | {"n_steps", "output_path", "snapshot"}, single_level=True),
    "converge-space": Command(cmd_converge_space, _EVERY | {"n_steps", "output_path"},
                              single_level=False),
    "converge-time": Command(cmd_converge_time, _EVERY | {"k_ref", "output_path"},
                             single_level=True, list_policy=True),
    "converge-projection": Command(cmd_converge_projection, _EVERY | {"n_steps", "output_path"},
                                   single_level=False),
    "heat-identity": Command(cmd_heat_identity, _EVERY | {"n_steps"}, single_level=True),
}

# key -> (parser, default); a key set to null keeps its default
KEYS = {
    "command": (_one_of(COMMAND_TABLE), REQUIRED),
    "case_id": (_one_of(CASE_IDS), REQUIRED),
    "p": (_checked(_integer, lambda p: p in (0, 1), "0 or 1"), 0),
    "levels": (_levels, REQUIRED),
    "k_policy": (lambda key, value: KPolicy.parse(value), REQUIRED),
    "T_end": (_positive_number, 1.0),
    "n_steps": (_positive_integer, None),
    "k_ref": (_positive_number, None),
    "output_path": (_output_path, "study.csv"),
    "snapshot": (_typed(bool, "true or false"), False),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dpgmarch", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMAND_TABLE)
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    try:
        args, overrides = parser.parse_known_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    bad = [item for item in overrides if "=" not in item or item.startswith("-")]
    if bad:
        print(f"configuration error: overrides must be key=value pairs, got {bad}",
              file=sys.stderr)
        return 2

    cfg = None
    try:
        cfg = load_config(args.config, overrides, command=args.command)
        return COMMAND_TABLE[cfg.command].handler(cfg)
    except (SolverError, MemoryError) as exc:
        failure = "out of memory" if isinstance(exc, MemoryError) else "solver failure"
        where = args.command if cfg is None else f"{args.command} / {cfg.case_id}"
        print(f"{failure} [{where}]: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
