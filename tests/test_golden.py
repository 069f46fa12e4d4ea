"""Golden CSV outputs of the CLI on small configs.

The CSVs under tests/golden/ were written by an earlier version of the
package.  A refactor must reproduce them with the header and the integer and
mesh columns exact, and the error and rate cells to a relative tolerance: 1e-9
on the march commands (their step solve rounds differently when the load
arithmetic is reordered), 1e-12 on the projection (its direct solve rounds
differently when the element blocks move from quadrature to reference
tensors, or the sparse LU changes its ordering and pivoting).

Re-record with

    PYTHONPATH=src python tests/test_golden.py tests/golden

and print the largest relative difference of the error and rate cells of two
CSVs of one config with

    PYTHONPATH=src python tests/test_golden.py --diff GOT.csv WANT.csv
"""

import json
import math
import sys
from pathlib import Path

import pytest

from dpgmarch.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
MARCH_RTOL = 1e-9
PROJECTION_RTOL = 1e-12
EXACT_COLUMNS = ("level", "h_max", "k", "n_field", "n_trace")

CONFIGS = {
    "run-p0-heat": {"command": "run", "case_id": "heat-decay", "p": 0, "levels": [8],
                    "k_policy": "fixed:0.05", "n_steps": 4},
    "run-p1-aniso": {"command": "run", "case_id": "aniso", "p": 1, "levels": [8],
                     "k_policy": "fixed:0.0625", "n_steps": 4},
    "converge-space-p1": {"command": "converge-space", "case_id": "stationary-adr", "p": 1,
                          "levels": [4, 8], "k_policy": "fixed:0.1", "n_steps": 2},
    "converge-time-p0": {"command": "converge-time", "case_id": "heat-decay", "p": 0,
                         "levels": [4], "k_policy": "list:0.25,0.125", "T_end": 1.0,
                         "k_ref": 0.03125},
    "converge-time-p1": {"command": "converge-time", "case_id": "aniso", "p": 1,
                         "levels": [4], "k_policy": "list:0.5,0.25", "T_end": 1.0,
                         "k_ref": 0.0625},
    "converge-projection-p0": {"command": "converge-projection", "case_id": "adr-decay",
                               "p": 0, "levels": [4, 8], "k_policy": "h:1.0", "n_steps": 1},
    "converge-projection-p1": {"command": "converge-projection", "case_id": "aniso",
                               "p": 1, "levels": [4, 8], "k_policy": "h:1.0", "n_steps": 1},
}


def run_config(name, out_dir: Path) -> Path:
    out = out_dir / f"{name}.csv"
    entries = {**CONFIGS[name], "output_path": str(out)}
    config = out_dir / f"{name}.json"
    config.write_text(json.dumps(entries), encoding="utf-8")
    assert main([entries["command"], "--config", str(config)]) == 0
    return out


def _cells_match(column, got, want, rtol):
    if column in EXACT_COLUMNS or want == "" or got == "":
        return got == want
    return math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0)


def largest_relative_difference(got: Path, want: Path) -> float:
    """The largest |g - w| / |w| over the error and rate cells g of got and w
    of want; inf when the headers, the row counts or another cell differ."""
    got_rows, want_rows = ([line.split(",") for line in path.read_text("utf-8").splitlines()]
                           for path in (got, want))
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return math.inf
    largest = 0.0
    for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
        if len(got_row) != len(want_row):
            return math.inf
        for column, g, w in zip(want_rows[0], got_row, want_row):
            if g == w:
                continue
            if column in EXACT_COLUMNS or "" in (g, w) or float(w) == 0.0:
                return math.inf
            largest = max(largest, abs(float(g) - float(w)) / abs(float(w)))
    return largest


def test_largest_relative_difference(tmp_path):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    want.write_text("level,err_L2,eoc_L2\n0,0.5,\n1,0.125,2\n", encoding="utf-8")
    got.write_text("level,err_L2,eoc_L2\n0,0.5,\n1,0.125,2.000002\n", encoding="utf-8")
    assert largest_relative_difference(want, want) == 0.0
    assert largest_relative_difference(got, want) == pytest.approx(1e-6)
    got.write_text("level,err_L2,eoc_L2\n0,0.5,\n2,0.125,2\n", encoding="utf-8")
    assert largest_relative_difference(got, want) == math.inf


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_reproduces_golden_csv(name, tmp_path):
    out = run_config(name, tmp_path)
    golden = GOLDEN_DIR / f"{name}.csv"
    projection = CONFIGS[name]["command"] == "converge-projection"
    rtol = PROJECTION_RTOL if projection else MARCH_RTOL
    got = out.read_text(encoding="utf-8").splitlines()
    want = golden.read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0].split(",")
    for got_row, want_row in zip(got[1:], want[1:]):
        for column, g, w in zip(header, got_row.split(","), want_row.split(","), strict=True):
            assert _cells_match(column, g, w, rtol), f"{name}: {column} = {g}, golden {w}"


if __name__ == "__main__":
    if sys.argv[1] == "--diff":
        print(f"{largest_relative_difference(Path(sys.argv[2]), Path(sys.argv[3])):.3e}")
        sys.exit(0)
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for config_name in CONFIGS:
        run_config(config_name, target)
        (target / f"{config_name}.json").unlink()
