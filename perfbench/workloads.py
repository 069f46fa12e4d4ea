"""The benchmark's workloads and the check of their CSV output.

Inputs are fixed.  Reference error values were recorded from the CLI CSVs and
live in reference.json next to this file, with the relative tolerance they are
checked to and the EOC windows of the projection study.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

ERROR_COLUMNS = ("err_L2", "err_H1_semi", "err_trace_dual")
EOC_COLUMNS = ("eoc_L2", "eoc_H1", "eoc_trace")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    kind: str  # "march" or "projection"
    config: dict
    smoke: dict = field(default_factory=dict)  # overrides for the self-test, at n=4

    def cli_config(self, smoke: bool) -> dict:
        return {**self.config, **(self.smoke if smoke else {})}


WORKLOADS = {w.name: w for w in (
    # 512 cheap steps (4 097 DOF): per-step overhead sets the time
    Workload("march-p0-many-steps", "run", "march",
             {"case_id": "heat-decay", "p": 0, "levels": [32],
              "k_policy": "fixed:0.001953125", "T_end": 1.0},
             {"levels": [4], "n_steps": 4}),
    # few expensive steps (40 961 DOF): Jacobi-CG dominates each step
    Workload("march-p1-aniso", "run", "march",
             {"case_id": "aniso", "p": 1, "levels": [64],
              "k_policy": "fixed:0.015625", "n_steps": 4},
             {"levels": [4], "n_steps": 2}),
    # no march and no CG: sparse LU, assembly and error evaluation
    Workload("projection-p1-study", "converge-projection", "projection",
             {"case_id": "aniso", "p": 1, "levels": [12, 24, 48],
              "k_policy": "h:1.0", "n_steps": 1},
             {"levels": [4, 8, 16]}),
)}


def _number(row, column):
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError):
        return None


def verify_csv(path, workload, reference, smoke=False) -> list:
    """Problems found in the workload's CLI CSV; an empty list means it verifies.

    Each error column must be finite and within the reference's rtol of its
    reference value.  On a projection study every rate cell after the first
    level must also lie in its EOC window.
    """
    rows_expected = reference["smoke" if smoke else "workloads"][workload.name]["rows"]
    rtol = reference["rtol"]
    eoc_windows = reference["eoc_windows"] if workload.kind == "projection" else None
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if len(rows) != len(rows_expected):
        return [f"{len(rows)} rows, expected {len(rows_expected)}"]
    problems = []
    for level, (row, expected) in enumerate(zip(rows, rows_expected)):
        for column, want in zip(ERROR_COLUMNS, expected):
            got = _number(row, column)
            if got is None or not math.isfinite(got) or abs(got - want) > rtol * abs(want):
                problems.append(f"level {level} {column} = {row.get(column)!r}, "
                                f"reference {want!r} (rtol {rtol:g})")
        if eoc_windows and level > 0:
            for column in EOC_COLUMNS:
                low, high = eoc_windows[column]
                got = _number(row, column)
                if got is None or not low <= got <= high:
                    problems.append(f"level {level} {column} = {row.get(column)!r}, "
                                    f"outside [{low}, {high}]")
    return problems
