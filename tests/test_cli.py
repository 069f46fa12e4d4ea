import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dpgmarch
from dpgmarch import cli, timestep
from dpgmarch.cli import KPolicy, load_config, main
from dpgmarch.linalg import SolverError


def write_config(path, **entries):
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def base_config(tmp_path, **overrides):
    """A converge-space config with `overrides`; an override of None leaves
    the key out."""
    entries = {
        "command": "converge-space",
        "case_id": "stationary-adr",
        "p": 0,
        "levels": [4, 8],
        "k_policy": "fixed:0.1",
        "n_steps": 5,
        "output_path": str(tmp_path / "out.csv"),
    }
    entries.update(overrides)
    return write_config(tmp_path / "config.json",
                        **{key: value for key, value in entries.items() if value is not None})


def command_config(tmp_path, command, **overrides):
    """A valid config of `command` that sets only keys the command reads."""
    row = cli.COMMAND_TABLE[command]
    entries = {"command": command, "case_id": "heat-decay", "p": 0,
               "levels": [4] if row.single_level else [4, 8],
               "k_policy": "list:0.25,0.125" if row.list_policy else "fixed:0.25",
               "T_end": 1.0, "n_steps": 2, "output_path": str(tmp_path / "out.csv")}
    entries = {key: value for key, value in entries.items() if key in row.reads}
    return write_config(tmp_path / "config.json", **{**entries, **overrides})


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_k_policy_parsing():
    assert KPolicy.parse("fixed:0.05").k_for(1.0) == 0.05
    assert KPolicy.parse("h:0.5").k_for(0.2) == pytest.approx(0.1)
    assert KPolicy.parse("h2:2.0").k_for(0.5) == pytest.approx(0.5)
    assert KPolicy.parse("list:0.25,0.125").values == (0.25, 0.125)
    for bad in ("nonsense", "fixed:", "list:", "h:abc"):
        with pytest.raises(ValueError):
            KPolicy.parse(bad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_k_policy_round_trips_every_positive_float(k):
    assert KPolicy.parse(f"fixed:{k!r}").values == (k,)


def test_converge_space_csv(tmp_path, capsys):
    config = base_config(tmp_path)
    assert main(["converge-space", "--config", config]) == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header == ["level", "h_max", "k", "n_field", "n_trace", "err_L2", "err_H1_semi",
                      "err_trace_dual", "eoc_L2", "eoc_H1", "eoc_trace"]
    assert len(rows) == 2
    err_h1 = [float(row[6]) for row in rows]
    assert err_h1[1] < err_h1[0]
    assert rows[0][8:] == ["", "", ""]  # no rates at level 0
    assert float(rows[1][9]) >= 0.8  # H1 rate approaches p + 1
    assert "eoc" in capsys.readouterr().out


def test_csv_is_deterministic(tmp_path):
    config = base_config(tmp_path)
    assert main(["converge-space", "--config", config]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["converge-space", "--config", config]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


def test_overrides_change_the_study(tmp_path):
    config = base_config(tmp_path)
    out2 = tmp_path / "other.csv"
    assert main(["converge-space", "--config", config,
                 "levels=[4]", f"output_path={out2}"]) == 0
    _, rows = read_csv(out2)
    assert len(rows) == 1


def test_run_with_vtk_snapshot(tmp_path):
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[4],
                         k_policy="fixed:0.05", n_steps=4, snapshot=True)
    assert main(["run", "--config", config]) == 0
    vtk = (tmp_path / "out.csv.vtk").read_text().split("\n")
    points_line = next(line for line in vtk if line.startswith("POINTS"))
    assert int(points_line.split()[1]) == 25  # build(4) vertex count
    n_points = sum(1 for line in vtk[vtk.index(points_line) + 1:] if line and
                   not line[0].isalpha() and len(line.split()) == 3)
    assert n_points == 25
    assert "SCALARS u double 1" in vtk


def test_heat_identity_command(tmp_path, capsys):
    config = base_config(tmp_path, command="heat-identity", case_id="heat-decay",
                         levels=[4], k_policy="fixed:0.01", n_steps=5, output_path=None)
    assert main(["heat-identity", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "deviation" in out


def _perturbed_oracle(monkeypatch, at_step):
    """Patch the CLI's Galerkin oracle to scale its field by 1 + 1e-6 at the
    steps `at_step(n)` accepts, leaving the others exact."""
    oracle = cli.galerkin_states

    def perturbed(*args):
        for n, field in enumerate(oracle(*args)):
            yield field * (1.0 + 1e-6) if at_step(n) else field

    monkeypatch.setattr(cli, "galerkin_states", perturbed)


def test_heat_identity_failure_exits_1(tmp_path, monkeypatch, capsys):
    _perturbed_oracle(monkeypatch, lambda n: True)
    config = base_config(tmp_path, command="heat-identity", case_id="heat-decay",
                         levels=[4], k_policy="fixed:0.01", n_steps=5, output_path=None)
    assert main(["heat-identity", "--config", config]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_heat_identity_checks_every_step(tmp_path, monkeypatch, capsys):
    # a deviation at one middle step fails, with step 0 and the final step exact
    _perturbed_oracle(monkeypatch, lambda n: n == 2)
    config = base_config(tmp_path, command="heat-identity", case_id="heat-decay",
                         levels=[4], k_policy="fixed:0.01", n_steps=5, output_path=None)
    assert main(["heat-identity", "--config", config]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert float(re.search(r"deviation over every step: (\S+)", out).group(1)) \
        == pytest.approx(1e-6, rel=1e-3)


def test_heat_identity_frees_the_oracle_before_the_march_assembles(tmp_path, monkeypatch):
    events = []
    oracle, assemble = cli.galerkin_states, timestep.assemble_condensed

    def recorded_oracle(*args):
        yield from oracle(*args)
        events.append("oracle exhausted")

    def recorded_assemble(*args):
        events.append("assemble")
        return assemble(*args)

    monkeypatch.setattr(cli, "galerkin_states", recorded_oracle)
    monkeypatch.setattr(timestep, "assemble_condensed", recorded_assemble)
    config = base_config(tmp_path, command="heat-identity", case_id="heat-decay",
                         levels=[4], k_policy="fixed:0.01", n_steps=5, output_path=None)
    assert main(["heat-identity", "--config", config]) == 0
    assert events == ["oracle exhausted", "assemble"]


def test_converge_time_command(tmp_path):
    config = base_config(tmp_path, command="converge-time", case_id="heat-decay",
                         levels=[4], k_policy="list:0.25,0.125", T_end=1.0,
                         k_ref=0.03125, n_steps=None)
    assert main(["converge-time", "--config", config]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert len(rows) == 2
    assert float(rows[1][8]) == pytest.approx(1.0, abs=0.4)  # first-order in k


def test_converge_projection_command(tmp_path):
    config = base_config(tmp_path, command="converge-projection", case_id="adr-decay",
                         levels=[4, 8], n_steps=None)
    assert main(["converge-projection", "--config", config]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert float(rows[1][8]) >= 1.5  # L2 superconvergence visible already


def test_validation_exit_codes(tmp_path):
    config = base_config(tmp_path)
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["converge-space", "--config", config, "case_id=bogus"]) == 2
    assert main(["converge-space", "--config", config, "k_policy=weird"]) == 2
    assert main(["converge-space", "--config", config, "levels=[8,4]"]) == 2
    assert main(["converge-space", "--config", config, "p=3"]) == 2
    assert main(["converge-time", "--config", config]) == 2  # needs a k list
    assert main(["converge-space", "--config", config, "unknown_key=1"]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(bad_json)]) == 2


@pytest.mark.parametrize("override", [
    "p=0.7", "p=true", "levels=[4.6]", "levels=[true]", "levels=8", "n_steps=2.9",
    "n_steps=false", 'snapshot="no"', "snapshot=1",
    "T_end=true", 'T_end="1"', "T_end=Infinity", "T_end=1e400", "T_end=NaN",
    "k_ref=true", 'k_ref="0.01"', "k_ref=-Infinity",
    "n_steps=null T_end=1e300",  # about 1e301 steps of k = 0.1
    "k_policy=fixed:1_0", 'k_policy="fixed:\\u00200.1"',  # "fixed: 0.1"
    "k_policy=fixed:inf", "k_policy=fixed:nan", "k_policy=fixed:1e400",
    "k_policy=fixed:\u0661",  # an Arabic-Indic digit one
])
def test_config_types_are_not_coerced(tmp_path, override):
    config = base_config(tmp_path, command="run", levels=[4])
    assert main(["run", "--config", config, *override.split()]) == 2
    assert not (tmp_path / "out.csv").exists()


def nan_profile_at(monkeypatch, nan_order):
    """Make every case of the CLI return NaN from its profile at one
    derivative order: 1 reaches only grad_u, 2 only the source terms."""
    make_case = cli.make_case

    def patched(*args):
        case = make_case(*args)

        def profile(x, y, order):
            values = case.profile(x, y, order)
            return np.full(np.shape(values), np.nan) if order == nan_order else values

        return dataclasses.replace(case, profile=profile)

    monkeypatch.setattr(cli, "make_case", patched)


def test_nan_source_exits_3(tmp_path, monkeypatch, capsys):
    nan_profile_at(monkeypatch, 2)
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[4])
    assert main(["run", "--config", config]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_mass_matrix_norm_off_the_quadrature_exits_3(tmp_path, monkeypatch, capsys):
    # the march's once-per-march check of its field mass matrix is a solver
    # failure, exit 3, not a configuration error
    quadrature = timestep.field_error
    monkeypatch.setattr(timestep, "field_error",
                        lambda *args: quadrature(*args) * (1.0 + 1e-9))
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[4])
    assert main(["run", "--config", config]) == 3
    assert "mass matrix" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_nan_exact_gradient_in_projection_exits_3(tmp_path, monkeypatch, capsys):
    nan_profile_at(monkeypatch, 1)
    config = base_config(tmp_path, command="converge-projection", case_id="adr-decay",
                         levels=[4, 8], n_steps=None)
    assert main(["converge-projection", "--config", config]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_out_of_memory_exits_3_in_one_line(tmp_path, monkeypatch, capsys):
    # a mesh too large for the machine is a resource failure, not exit 1
    # ("verification failed"), and prints no traceback
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "build_structured_mesh", no_memory)
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[100000])
    assert main(["run", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out of memory [run / heat-decay]: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("failure, prefix", [(MemoryError, "out of memory"),
                                             (SolverError, "solver failure")])
def test_a_failure_while_loading_the_config_exits_3_in_one_line(tmp_path, monkeypatch, capsys,
                                                                  failure, prefix):
    # no config exists yet, so the line names the command alone
    def failing_load(*args, **kwargs):
        raise failure("while reading the config")

    monkeypatch.setattr(cli, "load_config", failing_load)
    config = base_config(tmp_path, command="run", case_id="heat-decay")
    assert main(["run", "--config", config]) == 3
    err = capsys.readouterr().err
    assert err == f"{prefix} [run]: while reading the config\n"


def test_python_m_entry_point(tmp_path):
    src = str(Path(dpgmarch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "dpgmarch.cli", "run", "--config", str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2
    assert "configuration error" in result.stderr


def test_command_line_overrides_config_command(tmp_path):
    # the positional command wins over the config entry
    config = base_config(tmp_path, command="run", levels=[4])
    assert main(["converge-space", "--config", config]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("command,overrides", [
    ("run", ["levels=[4,8]"]),
    ("heat-identity", ["levels=[4,8]"]),
    ("converge-time", ["levels=[4,8]", "n_steps=null"]),
    ("converge-time", ["levels=[4]", "n_steps=5"]),
    ("converge-projection", ["k_ref=0.5", "snapshot=true"]),
    ("converge-space", ["k_ref=0.5"]),
    ("heat-identity", ["levels=[4]", "output_path={tmp}/out.csv"]),
    ("run", ["levels=[4]", "k_policy=fixed:0"]),
    ("run", ["levels=[4]", "T_end=-1", "n_steps=null"]),
    ("run", ["levels=[4]", "n_steps=0"]),
    ("converge-time", ["levels=[4]", "n_steps=null", "k_ref=-0.1"]),
    ("converge-time", ["levels=[4]", "n_steps=null", "k_policy=list:0.25,0"]),
    ("converge-time", ["levels=[4]", "n_steps=null", "k_policy=list:0.25,0.25"]),
    ("converge-time", ["levels=[4]", "n_steps=null", "k_policy=list:0.125,0.25"]),
])
def test_ignored_config_input_exits_2_before_any_mesh(tmp_path, monkeypatch, capsys,
                                                      command, overrides):
    # run, heat-identity and converge-time solve on levels[0] only, converge-time
    # marches to T_end, only converge-time reads k_ref, only run writes a
    # snapshot and heat-identity writes no file: such input would be dropped.
    # Nonpositive times, step counts and steps are rejected as they are parsed,
    # and a 'list:' of steps that does not strictly decrease would give no rate.
    calls = []
    monkeypatch.setattr(cli, "build_structured_mesh", lambda *args: calls.append("mesh"))
    config = command_config(tmp_path, command)
    overrides = [item.format(tmp=tmp_path) for item in overrides]
    assert main([command, "--config", config, *overrides]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "out.csv").exists()


def test_load_config_roundtrip(tmp_path):
    config = base_config(tmp_path)
    cfg = load_config(config)
    assert cfg.command == "converge-space"
    assert cfg.levels == [4, 8]
    assert cfg.k_policy.kind == "fixed"
    # integral floats are integers
    assert load_config(config, ["levels=[4.0, 8]", "p=1.0"]).levels == [4, 8]


def test_missing_output_directory_exits_2_before_any_mesh(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "build_structured_mesh", lambda *args: calls.append("mesh"))
    monkeypatch.setattr(cli, "march", lambda *args, **kwargs: calls.append("march"))
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[2],
                         k_policy="fixed:0.25", T_end=0.5, n_steps=None,
                         output_path=str(tmp_path / "missing" / "out.csv"))
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "does not exist" in err
    assert "Traceback" not in err
    assert calls == []


def test_unwritable_csv_exits_2(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "march", lambda *args, **kwargs: calls.append("march"))
    (tmp_path / "out.csv").mkdir()  # the directory exists, the file cannot be opened
    config = base_config(tmp_path, command="converge-projection", case_id="adr-decay",
                         levels=[2], n_steps=None)
    assert main(["converge-projection", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert calls == []


def test_unwritable_vtk_snapshot_exits_2(tmp_path, capsys):
    (tmp_path / "out.csv.vtk").mkdir()
    config = base_config(tmp_path, command="run", case_id="heat-decay", levels=[2],
                         k_policy="fixed:0.25", T_end=0.5, n_steps=None, snapshot=True)
    assert main(["run", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "out.csv.vtk" in err and "Traceback" not in err


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(cli.COMMAND_TABLE)),
       p=st.sampled_from([0, 1]),
       levels=st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True).map(sorted),
       T_end=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       k_ref=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       n_steps=st.none() | st.integers(1, 10**6),
       snapshot=st.booleans())
def test_config_overrides_round_trip(tmp_path, command, p, levels, T_end, k_ref, n_steps,
                                     snapshot):
    # valid values of the keys a command reads, passed as key=<json> overrides,
    # arrive unchanged in the RunConfig
    row = cli.COMMAND_TABLE[command]
    values = dict(p=p, levels=levels[:1] if row.single_level else levels, T_end=T_end,
                  k_ref=k_ref, n_steps=n_steps, snapshot=snapshot)
    values = {key: value for key, value in values.items() if key in row.reads}
    cfg = load_config(command_config(tmp_path, command),
                      [f"{key}={json.dumps(value)}" for key, value in values.items()])
    for key, value in values.items():
        got = getattr(cfg, key)
        assert got == value and type(got) is type(value)


# the (command, key) pairs of a key set for a command that does not read it
FORBIDDEN = {
    ("run", "k_ref"), ("converge-space", "k_ref"), ("converge-projection", "k_ref"),
    ("heat-identity", "k_ref"),
    ("converge-space", "snapshot"), ("converge-time", "snapshot"),
    ("converge-projection", "snapshot"), ("heat-identity", "snapshot"),
    ("converge-time", "n_steps"),
    ("heat-identity", "output_path"),
}
SINGLE_LEVEL = {"run", "heat-identity", "converge-time"}
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
VALID = {  # valid values of the keys in FORBIDDEN; an output path is a file name
    "k_ref": POSITIVE,
    "snapshot": st.booleans(),
    "n_steps": st.integers(1, 10**6),
    "output_path": st.sampled_from(["out.csv", "written.csv"]),
}


def test_command_table_rows():
    table = cli.COMMAND_TABLE
    assert {(command, key) for command, row in table.items() for key in cli.KEYS
            if key not in row.reads} == FORBIDDEN
    assert {command for command, row in table.items() if row.single_level} == SINGLE_LEVEL
    assert {command for command, row in table.items() if row.list_policy} == {"converge-time"}
    assert all(row.reads <= set(cli.KEYS) for row in table.values())


def _rejected_before_any_mesh(tmp_path, monkeypatch, capsys, command, config, overrides):
    """Run the command; return its stderr after checking that it exited 2
    with a configuration error, built no mesh and wrote no file."""
    calls = []
    monkeypatch.setattr(cli, "build_structured_mesh", lambda *args: calls.append("mesh"))
    assert main([command, "--config", config, *overrides]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
    return err


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), in_config=st.booleans())
def test_every_key_a_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, data,
                                                   in_config):
    command, key = data.draw(st.sampled_from(sorted(FORBIDDEN)))
    value = data.draw(VALID[key])
    if key == "output_path":
        value = str(tmp_path / value)
    config = command_config(tmp_path, command, **({key: value} if in_config else {}))
    overrides = [] if in_config else [f"{key}={json.dumps(value)}"]
    err = _rejected_before_any_mesh(tmp_path, monkeypatch, capsys, command, config, overrides)
    assert f"{command} does not read {key}" in err


def _rule_violation(command):
    """A strategy of (override, message) that breaks a rule row of `command`."""
    several_levels = st.lists(st.integers(1, 64), min_size=2, max_size=4, unique=True).map(
        lambda levels: (f"levels={json.dumps(sorted(levels))}", "runs on one mesh"))
    k_list = st.lists(POSITIVE, min_size=1, max_size=3).map(
        lambda ks: ("k_policy=list:" + ",".join(map(repr, ks)), "no k_policy 'list:...'"))
    no_list = st.tuples(st.sampled_from(["fixed", "h", "h2"]), POSITIVE).map(
        lambda policy: (f"k_policy={policy[0]}:{policy[1]!r}", "a k_policy 'list:...'"))
    rules = [no_list] if command == "converge-time" else [k_list]
    return st.one_of(rules + ([several_levels] if command in SINGLE_LEVEL else []))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_rule_row_exits_2(tmp_path, monkeypatch, capsys, data):
    # several levels on a single-level command, a 'list:' policy outside
    # converge-time and any other policy on converge-time
    command = data.draw(st.sampled_from(sorted(cli.COMMAND_TABLE)))
    override, message = data.draw(_rule_violation(command))
    err = _rejected_before_any_mesh(tmp_path, monkeypatch, capsys, command,
                                    command_config(tmp_path, command), [override])
    assert message in err


def test_readme_key_table_matches_the_command_table():
    """Each row of the README's key table names the commands that read the
    key: `every command`, `every command but` some, or a list of them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    header = "| key | type | read by | meaning |"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].strip().split("\n")[1:]
    read_by = {}
    for row in rows:
        key, _, cell, _ = (column.strip() for column in row.strip("|").split("|", 3))
        named = set(re.findall(r"`([a-z-]+)`", cell))
        if cell.startswith("every command"):
            named = set(cli.COMMAND_TABLE) - named
        read_by[key.strip("`")] = named
    assert read_by == {key: {command for command, row in cli.COMMAND_TABLE.items()
                             if key in row.reads} for key in cli.KEYS}
