"""Batch driver: single solves and convergence studies.

Usage:
    dpgmarch <command> --config <path> [key=value ...]

Commands: run, converge-space, converge-time, converge-projection,
heat-identity.  The JSON config uses flat keys (see RunConfig); trailing
key=value pairs override config entries, with values parsed as JSON when
possible.  `p`, `n_steps` and the entries of the `levels` list must be
integral numbers (4 and 4.0 are accepted, 4.6 and true are not), `T_end`
and `k_ref` finite numbers, the numbers in `k_policy` plain decimal or
scientific numerals, and `snapshot` a JSON boolean; nothing is coerced.
`run`, `heat-identity` and `converge-time` take a single level, and
`converge-time` takes no `n_steps`: input a command would ignore is rejected.
Studies write a CSV table with the ErrorReport columns and print an EOC
table; `run` can additionally dump the field as a legacy ASCII VTK
snapshot.  Exit codes: 0 success, 1 verification failed (heat-identity
FAIL), 2 validation error (including an output_path whose directory does
not exist or that cannot be written), 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_condensed
from .cases import CASE_IDS, make_case
from .dofmap import build_dofmap
from .elliptic import project
from .errors import ZERO_FIELDS, ErrorReport, SpatialFields, eoc, field_error, trace_dual_error
from .galerkin import galerkin_march
from .linalg import SolverError
from .mesh import build_structured_mesh
from .timestep import TrialVector, march

COMMANDS = ("run", "converge-space", "converge-time", "converge-projection", "heat-identity")

HEAT_IDENTITY_TOL = 1e-9
# a plain decimal or scientific numeral: no spaces, underscores, non-ASCII
# digits, inf or nan, all of which float() would accept
_NUMERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class ConfigError(ValueError):
    pass


@dataclass
class KPolicy:
    """Time-step policy: fixed k, k = c*h, k = c*h^2, or an explicit list."""

    kind: str
    value: float = 0.0
    values: tuple = ()

    @classmethod
    def parse(cls, text: str) -> "KPolicy":
        kind, _, payload = str(text).partition(":")
        numerals = payload.split(",") if kind == "list" else [payload]
        if kind in ("fixed", "h", "h2", "list") and all(map(_NUMERAL.fullmatch, numerals)):
            values = tuple(float(v) for v in numerals)
            if all(map(math.isfinite, values)):  # 1e400 is a numeral, but not a float
                if kind == "list":
                    return cls(kind="list", values=values)
                return cls(kind=kind, value=values[0])
        raise ConfigError(
            f"invalid k_policy {text!r}; expected 'fixed:K', 'h:C', 'h2:C' or 'list:K1,K2,...'"
        )

    def k_for(self, h_max: float) -> float:
        if self.kind == "fixed":
            return self.value
        if self.kind == "h":
            return self.value * h_max
        if self.kind == "h2":
            return self.value * h_max**2
        raise ConfigError("an explicit k list cannot be evaluated per mesh level")


@dataclass
class RunConfig:
    command: str
    case_id: str
    p: int = 0
    levels: list = field(default_factory=list)
    k_policy: KPolicy = None
    T_end: float = 1.0
    n_steps: int | None = None
    k_ref: float | None = None
    output_path: str = "study.csv"
    snapshot: bool = False

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; available: {', '.join(COMMANDS)}")
        if self.case_id not in CASE_IDS:
            raise ConfigError(f"unknown case_id {self.case_id!r}; available: {', '.join(CASE_IDS)}")
        if self.p not in (0, 1):
            raise ConfigError(f"p must be 0 or 1, got {self.p}")
        if not self.levels:
            raise ConfigError("levels must be a nonempty list of mesh subdivisions")
        if any(n < 1 for n in self.levels):
            raise ConfigError("levels must be positive integers")
        if list(self.levels) != sorted(set(self.levels)):
            raise ConfigError("levels must be strictly increasing")
        if self.command == "converge-time" and self.k_policy.kind != "list":
            raise ConfigError("converge-time requires a fixed mesh and k_policy 'list:...'")
        if self.command != "converge-time" and self.k_policy.kind == "list":
            raise ConfigError(f"k_policy 'list' is only valid for converge-time, not {self.command}")
        if self.command in ("run", "heat-identity", "converge-time") and len(self.levels) > 1:
            raise ConfigError(f"{self.command} runs on one mesh; levels must have one entry, "
                              f"got {self.levels}")
        if self.command == "converge-time" and self.n_steps is not None:
            raise ConfigError("converge-time marches to T_end with each k of its list; "
                              "n_steps must not be set")
        parent = os.path.dirname(self.output_path)
        if parent and not os.path.isdir(parent):
            raise ConfigError(f"the directory {parent!r} of output_path does not exist")


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
    known = {"command", "case_id", "p", "levels", "k_policy", "T_end", "n_steps",
             "k_ref", "output_path", "snapshot"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "command" not in data or "case_id" not in data:
        raise ConfigError("config requires at least 'command' and 'case_id'")
    if "k_policy" not in data:
        raise ConfigError("config requires 'k_policy'")
    levels = data.get("levels", [])
    if not isinstance(levels, list):
        raise ConfigError(f"levels must be a list of integers, got {levels!r}")
    snapshot = data.get("snapshot", False)
    if not isinstance(snapshot, bool):
        raise ConfigError(f"snapshot must be true or false, got {snapshot!r}")

    cfg = RunConfig(
        command=str(data["command"]),
        case_id=str(data["case_id"]),
        p=_integer("p", data.get("p", 0)),
        levels=[_integer("levels", n) for n in levels],
        k_policy=KPolicy.parse(data["k_policy"]),
        T_end=_number("T_end", data.get("T_end", 1.0)),
        n_steps=None if data.get("n_steps") is None else _integer("n_steps", data["n_steps"]),
        k_ref=None if data.get("k_ref") is None else _number("k_ref", data["k_ref"]),
        output_path=str(data.get("output_path", "study.csv")),
        snapshot=snapshot,
    )
    cfg.validate()
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


def write_csv(path: str, reports) -> None:
    lines = [",".join(ErrorReport.FIELDS)]
    lines += [",".join(_fmt(v) for v in report.row()) for report in reports]
    _write_lines(path, lines)


def print_table(reports) -> None:
    print(f"{'level':>5} {'h_max':>12} {'k':>12} {'err_L2':>13} {'err_H1':>13} "
          f"{'err_trace':>13} {'eoc_L2':>7} {'eoc_H1':>7} {'eoc_tr':>7}")
    for r in reports:
        rate = lambda v: f"{v:7.2f}" if v is not None else "      -"
        print(f"{r.level:>5} {r.h_max:>12.5e} {r.k:>12.5e} {r.err_L2:>13.6e} "
              f"{r.err_H1_semi:>13.6e} {r.err_trace_dual:>13.6e} "
              f"{rate(r.eoc_L2)} {rate(r.eoc_H1)} {rate(r.eoc_trace)}")


def _attach_rates(reports, steps) -> None:
    l2 = eoc([r.err_L2 for r in reports], steps)
    h1 = eoc([r.err_H1_semi for r in reports], steps)
    tr = eoc([r.err_trace_dual for r in reports], steps)
    for i, report in enumerate(reports[1:]):
        report.eoc_L2, report.eoc_H1, report.eoc_trace = l2[i], h1[i], tr[i]


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
    if k <= 0.0:
        raise ConfigError(f"k_policy produced nonpositive time step {k}")
    T_end = cfg.n_steps * k if cfg.n_steps is not None else cfg.T_end
    return mesh, dofmap, make_case(cfg.case_id, k, T_end)


def _error_report(level: int, mesh, dofmap, coeffs, trial: TrialVector,
                  exact: SpatialFields) -> ErrorReport:
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
    exact = SpatialFields(*case.spatial_u(state.time))
    report = _error_report(level, mesh, dofmap, case.coeffs, state.current, exact)
    return mesh, dofmap, state, report


def cmd_run(cfg: RunConfig) -> int:
    mesh, dofmap, state, report = _march_report(cfg, 0, cfg.levels[0])
    write_csv(cfg.output_path, [report])
    print_table([report])
    if cfg.snapshot:
        write_vtk(cfg.output_path + ".vtk", mesh, dofmap, state.current.field)
        print(f"snapshot written to {cfg.output_path}.vtk")
    return 0


def cmd_converge_space(cfg: RunConfig) -> int:
    reports = [_march_report(cfg, level, n)[3] for level, n in enumerate(cfg.levels)]
    _attach_rates(reports, [r.h_max for r in reports])
    write_csv(cfg.output_path, reports)
    print_table(reports)
    return 0


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
    _attach_rates(reports, list(k_values))
    write_csv(cfg.output_path, reports)
    print_table(reports)
    return 0


def cmd_converge_projection(cfg: RunConfig) -> int:
    reports = []
    for level, n in enumerate(cfg.levels):
        mesh, dofmap, case = _level(cfg, n)
        exact = SpatialFields(*case.spatial_u(0.0))
        result = project(mesh, dofmap, case.coeffs, exact)
        reports.append(_error_report(level, mesh, dofmap, case.coeffs, result, exact))
    _attach_rates(reports, [r.h_max for r in reports])
    write_csv(cfg.output_path, reports)
    print_table(reports)
    return 0


def cmd_heat_identity(cfg: RunConfig) -> int:
    mesh, dofmap, case = _level(cfg, cfg.levels[0])
    state = march(case, mesh, dofmap)
    oracle = galerkin_march(mesh, dofmap, case.coeffs.k, case.coeffs.T_end, case.f, case.u0,
                            coeffs=case.coeffs)
    deviation = float(np.abs(state.current.field - oracle).max()
                      / max(np.abs(oracle).max(), 1e-300))
    passed = deviation <= HEAT_IDENTITY_TOL
    print(f"max relative DOF deviation: {deviation:.3e} "
          f"({'PASS' if passed else 'FAIL'} vs {HEAT_IDENTITY_TOL:.0e})")
    return 0 if passed else 1


_DISPATCH = {
    "run": cmd_run,
    "converge-space": cmd_converge_space,
    "converge-time": cmd_converge_time,
    "converge-projection": cmd_converge_projection,
    "heat-identity": cmd_heat_identity,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dpgmarch", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS)
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

    try:
        cfg = load_config(args.config, overrides, command=args.command)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        return _DISPATCH[cfg.command](cfg)
    except SolverError as exc:
        print(f"solver failure [{cfg.command} / {cfg.case_id}]: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
