"""Config parsing/validation, serialization round trips, CLI surfaces."""

import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kvsim import (
    CheckpointError,
    ConfigError,
    NonConvergenceError,
    SimState,
    UsageError,
    cli_io,
    linear_step,
    mms,
    picard,
)
from kvsim.cli_io import (
    CHECKPOINT_MAGIC,
    builtin_scenario,
    build_initial_state,
    build_sources,
    load_checkpoint,
    load_config,
    main,
    perturb_state,
    save_checkpoint,
    write_diagnostics_csv,
    write_vtk_snapshot,
)
from kvsim.diagnostics import (
    CSV_FIELDS,
    gronwall_compare,
    initial_record,
    mixed_norm,
    v2_norm,
)
from kvsim.grid import magnitude, neumann_matrix
from kvsim.picard import run

from helpers import AcceptedStates, bump_state, make_grid

MINIMAL = """
[grid]
dimension = 2
nodes = 9 9
lengths = 1.0 1.0

[material]
lambda1 = 1.0
mu1 = 1.0
lambda2 = 1.0
mu2 = 1.0
k = 1.0
cv = 1.0
alpha = 0.1

[stepper]
dt = 0.05
t_end = 0.1
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# configuration loading
# ---------------------------------------------------------------------------

def test_minimal_config_gets_documented_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.grid.n == (9, 9)
    assert cfg.params.beta == 1.0
    assert cfg.initial.preset == "uniform"
    assert cfg.initial.theta0 == 1.0
    assert cfg.sources.b == "zero" and cfg.sources.g == "zero"
    assert cfg.output.snapshot_every == 0


def test_config_rejects_viscosity_outside_elasticity_range(tmp_path):
    text = MINIMAL.replace("mu1 = 1.0", "mu1 = 0.0")
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert any("elasticity range" in v for v in excinfo.value.violations)


def test_config_rejects_nonpositive_initial_temperature(tmp_path):
    text = MINIMAL + "\n[initial]\npreset = uniform\ntheta0 = 0.0\n"
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert any("positive" in v for v in excinfo.value.violations)


def test_config_rejects_unknown_keys_and_sections(tmp_path, capsys):
    text = MINIMAL + "\n[mystery]\nfoo = 1\n"
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert any("unknown section" in v for v in excinfo.value.violations)
    text2 = MINIMAL.replace("dt = 0.05", "dt = 0.05\nwarp = 9")
    with pytest.raises(ConfigError) as excinfo2:
        load_config(write_cfg(tmp_path, text2))
    assert any("unknown key" in v for v in excinfo2.value.violations)
    # the stepper's tolerances, caps and floor are not settable
    for line in ("picard_tol = 1e-10", "picard_max = 50", "cg_tol = 1e-12",
                 "cg_max = 20000", "theta_floor = auto"):
        text3 = MINIMAL.replace("dt = 0.05", f"dt = 0.05\n{line}")
        cfg = write_cfg(tmp_path, text3)
        assert main(["run", "--config", str(cfg)]) == 2
        key = line.split(" = ")[0]
        assert f"stepper.{key}: unknown key" in capsys.readouterr().err


def test_documented_keys_are_the_accepted_keys():
    """The key list of the module docstring is the schema the parser
    enforces, section by section and in its order: a required key is
    marked required, and an optional key shows its default (an empty value
    documents None)."""
    documented = {}
    for line in cli_io.__doc__.splitlines():
        section = re.fullmatch(r" {4}\[(\w+)\]", line)
        key = re.fullmatch(r" {4}(\w+) =(.*?)#(.*)", line)
        if section:
            current = documented.setdefault(section.group(1), {})
        elif key:
            current[key.group(1)] = (key.group(2).strip(), key.group(3))
    assert ({s: list(keys) for s, keys in documented.items()}
            == {s: list(keys) for s, keys in cli_io._SCHEMA.items()})
    for section, keys in cli_io._SCHEMA.items():
        for key, (parse, default) in keys.items():
            value, comment = documented[section][key]
            required = comment.strip().startswith("required")
            assert required == (default is cli_io._REQUIRED), (section, key)
            if not required:
                assert (parse(value) if value else None) == default, key


@pytest.mark.parametrize("text,expected", [
    (MINIMAL.replace("nodes = 9 9", "nodes = 9").replace("mu1 = 1.0",
                                                         "mu1 = abc"),
     ["grid.nodes: expected 2 values", "material.mu1: not a number: 'abc'"]),
    (MINIMAL + "\n[initial]\npreset = bump\ntheta0 = abc\n"
               "theta_amplitude = 2\n",
     ["initial.theta0: not a number: 'abc'"]),
], ids=["grid-checked-despite-material", "theta-unchecked-when-unparsed"])
def test_config_skips_a_check_only_when_a_key_it_reads_failed(
        tmp_path, text, expected):
    """A failed key elsewhere does not stop the grid's checks; a failed
    theta0 stops the initial-temperature check that reads it."""
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert excinfo.value.violations == expected


@pytest.mark.parametrize("section,violation", [
    ("[sources]\nb = zero\nb_value = 0.3 0.2\n",
     "sources.b_value: not read when b = zero"),
    ("[sources]\ng = manufactured:default\nb_value = 0.3 0.2\n",
     "sources.b_value: not read when b = zero"),
    ("[sources]\nb = manufactured:default\nb_value = 0.3 0.2\n",
     "sources.b_value: not read when b = manufactured"),
    ("[sources]\ng = zero\ng_value = 0.5\n",
     "sources.g_value: not read when g = zero"),
    ("[sources]\ng = manufactured:default\ng_value = 0.5\n",
     "sources.g_value: not read when g = manufactured"),
    ("[initial]\npreset = uniform\nvelocity_amplitude = 5\n",
     "initial.velocity_amplitude: not read when preset = uniform"),
    ("[initial]\npreset = manufactured:default\ntheta_amplitude = 0.1\n",
     "initial.theta_amplitude: not read when preset = manufactured"),
    ("[initial]\npreset = manufactured:default\ntheta0 = 7.0\n",
     "initial.theta0: not read when preset = manufactured"),
    ("[initial]\npreset = checkpoint:start.ckpt\ntheta0 = 7.0\n",
     "initial.theta0: not read when preset = checkpoint"),
], ids=["b_value-zero", "b_value-default-b", "b_value-manufactured",
        "g_value-zero", "g_value-manufactured", "velocity_amplitude-uniform",
        "theta_amplitude-manufactured", "theta0-manufactured",
        "theta0-checkpoint"])
def test_cli_rejects_a_key_its_kind_does_not_read(tmp_path, capsys, section,
                                                  violation):
    """A key that the chosen kind would drop is a configuration error
    (exit 2) naming the key and the kind, reported alone."""
    cfg = write_cfg(tmp_path, MINIMAL + "\n" + section)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error:", f"  {violation}"]


def test_config_reads_no_kind_of_a_key_that_failed(tmp_path):
    """A kind that does not parse reports itself, not the keys it reads."""
    text = MINIMAL + "\n[sources]\ng = sometimes\ng_value = 0.5\n"
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert excinfo.value.violations == ["sources.g: unknown source kind "
                                        "'sometimes'"]


def test_config_reports_every_violation_at_once(tmp_path):
    text = (MINIMAL
            .replace("mu1 = 1.0", "mu1 = -1.0")
            .replace("k = 1.0", "k = 0.0")
            .replace("dt = 0.05", "dt = -0.05"))
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    joined = "\n".join(excinfo.value.violations)
    assert "mu1" in joined and "k" in joined and "dt" in joined
    assert len(excinfo.value.violations) >= 3


def test_config_reports_t_end_when_dt_does_not_parse(tmp_path):
    text = (MINIMAL
            .replace("dt = 0.05", "dt = abc")
            .replace("t_end = 0.1", "t_end = -1"))
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert excinfo.value.violations == [
        "stepper.dt: not a number: 'abc'",
        "stepper.t_end: t_end = -1.0 must be positive",
    ]


def test_config_parse_error_has_line_info(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, "not an ini file ["))
    assert "parse error" in excinfo.value.violations[0]


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_builtin_scenarios_all_load():
    names = ["bump2d", "bump3d", "heated2d", "rest2d"]
    for name in names:
        cfg = load_config(builtin_scenario(name))
        state = build_initial_state(cfg)
        assert np.min(state.theta.data) > 0.0
    # the message lists every shipped scenario: none is left out above
    with pytest.raises(UsageError, match=re.escape(f"available: {names}")):
        builtin_scenario("missing")


def test_manufactured_preset_round_trip(tmp_path):
    text = (MINIMAL
            + "\n[initial]\npreset = manufactured:default\n"
            + "\n[sources]\nb = manufactured:default\ng = manufactured:default\n")
    cfg = load_config(write_cfg(tmp_path, text))
    state = build_initial_state(cfg)
    sources = build_sources(cfg)
    assert np.min(state.theta.data) > 0.0
    assert sources.b is not None and sources.g is not None


def test_checkpoint_initial_preset_restarts_run(tmp_path):
    grid = make_grid(d=2, n=9)
    state = bump_state(grid)
    ck = tmp_path / "restart.ckpt"
    save_checkpoint(state, ck)
    text = MINIMAL + f"\n[initial]\npreset = checkpoint:{ck}\n"
    cfg = load_config(write_cfg(tmp_path, text))
    restored = build_initial_state(cfg)
    assert np.array_equal(restored.v.data, state.v.data)
    # a checkpoint on a different grid is rejected
    other = MINIMAL.replace("nodes = 9 9", "nodes = 11 11")
    cfg2 = load_config(write_cfg(tmp_path, other + f"\n[initial]\npreset = checkpoint:{ck}\n",
                                 name="other.cfg"))
    with pytest.raises(UsageError):
        build_initial_state(cfg2)


def test_constant_body_force_source(tmp_path):
    text = MINIMAL + "\n[sources]\nb = constant\nb_value = 0.1 0.0\n"
    cfg = load_config(write_cfg(tmp_path, text))
    sources = build_sources(cfg)
    field = sources.b(0.0)
    assert np.max(np.abs(field.data[..., 0] - 0.1)) == 0.0
    assert np.max(np.abs(field.data[..., 1])) == 0.0
    assert sources.g is None


def test_perturb_state_fields(grid2d):
    state = bump_state(grid2d)
    for name in ("theta0", "u0", "u1"):
        out = perturb_state(state, name, 1e-3)
        assert out is not state
    with pytest.raises(UsageError):
        perturb_state(state, "nope", 1e-3)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    grid = make_grid(d=2, n=9)
    state = bump_state(grid)
    state.theta.data += 0.01 * rng.random(grid.shape)
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, path)
    loaded, loaded_grid = load_checkpoint(path)
    assert loaded_grid == grid
    assert loaded.t == state.t
    assert np.array_equal(loaded.u.data, state.u.data)
    assert np.array_equal(loaded.v.data, state.v.data)
    assert np.array_equal(loaded.theta.data, state.theta.data)


def test_checkpoint_detects_corruption(tmp_path):
    grid = make_grid(d=2, n=9)
    path = tmp_path / "state.ckpt"
    save_checkpoint(SimState.rest(grid), path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")


def _header(d, nodes, lengths):
    return struct.pack(f"<II{d}I{d}dd", 1, d, *nodes, *lengths, 0.0)


@pytest.mark.parametrize("payload", [
    _header(2, (9, 9), (1.0, 1.0)),
    _header(2, (9, 9), (1.0, 1.0)) + bytes(8 * 5 * 81 + 1),
    struct.pack("<II", 1, 7) + bytes(200),
    struct.pack("<II", 1, 3) + bytes(8),
    _header(1, (2,), (1.0,)) + bytes(8 * 3 * 2),
    _header(1, (5,), (float("nan"),)) + bytes(8 * 3 * 5),
], ids=["no-field-data", "trailing-byte", "d=7", "truncated-header",
        "two-nodes", "nan-length"])
def test_checkpoint_rejects_malformed_payload_with_valid_crc(tmp_path, payload):
    """A header that describes no valid grid and payload is a
    CheckpointError (exit 4), even when the checksum matches."""
    blob = CHECKPOINT_MAGIC + payload + struct.pack("<I", zlib.crc32(payload))
    for name in ("a.ckpt", "b.ckpt"):
        (tmp_path / name).write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "a.ckpt")
    assert main(["norms", "--traj", str(tmp_path)]) == 4


@pytest.mark.parametrize("bad_t", [float("nan"), float("inf")])
def test_checkpoint_rejects_non_finite_time(tmp_path, bad_t):
    """A checkpoint whose time is not finite is a CheckpointError (exit 4)
    although its checksum matches; `kvsim norms` used to print nan norms.
    The writer refuses such a state before writing a byte."""
    grid = make_grid(d=2, n=9)
    for k, t in enumerate((0.0, 0.1, 0.2)):
        save_checkpoint(replace(SimState.rest(grid), t=t),
                        tmp_path / f"{k}.ckpt")
    # patch the time of the middle file (it follows the magic, version,
    # dimension, nodes and lengths) and recompute the checksum
    path = tmp_path / "1.ckpt"
    blob = path.read_bytes()
    at = len(CHECKPOINT_MAGIC) + struct.calcsize("<II2I2d")
    payload = (blob[len(CHECKPOINT_MAGIC):at] + struct.pack("<d", bad_t)
               + blob[at + 8:-4])
    path.write_bytes(CHECKPOINT_MAGIC + payload
                     + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError, match="time"):
        load_checkpoint(path)
    assert main(["norms", "--traj", str(tmp_path)]) == 4
    with pytest.raises(CheckpointError, match="time"):
        save_checkpoint(replace(SimState.rest(grid), t=bad_t),
                        tmp_path / "bad.ckpt")
    assert not (tmp_path / "bad.ckpt").exists()


# ---------------------------------------------------------------------------
# snapshots and CSV
# ---------------------------------------------------------------------------

def test_vtk_snapshot_structure(tmp_path):
    grid = make_grid(d=2, n=5)
    state = SimState.rest(grid, theta0=1.25)
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(state, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    assert "DIMENSIONS 5 5 1" in lines
    assert f"POINT_DATA {grid.num_nodes}" in lines
    assert "VECTORS displacement double" in lines
    assert "VECTORS velocity double" in lines
    assert "SCALARS temperature double 1" in lines
    body = lines[lines.index("LOOKUP_TABLE default") + 1:]
    assert len(body) == grid.num_nodes
    assert all(v == "1.25" for v in body)
    vec_start = lines.index("VECTORS displacement double") + 1
    assert lines[vec_start].split() == ["0", "0", "0"]


def test_vtk_snapshot_3d_ordering(tmp_path):
    grid = make_grid(d=3, n=3)
    state = SimState.rest(grid, theta0=2.0)
    # make the temperature encode its own x index: x must vary fastest
    xg = grid.coords()[0]
    state.theta.data[:] = 1.0 + xg
    path = tmp_path / "snap3.vtk"
    write_vtk_snapshot(state, path)
    lines = path.read_text().splitlines()
    assert "DIMENSIONS 3 3 3" in lines
    body = lines[lines.index("LOOKUP_TABLE default") + 1:]
    assert len(body) == 27
    assert [float(v) for v in body[:4]] == [1.0, 1.5, 2.0, 1.0]


@pytest.mark.parametrize("d", [2, 3])
def test_vtk_snapshot_bytes_match_per_value_format(tmp_path, d):
    """The snapshot writes each value as format(v, ".17g") would, on values
    whose text is easy to get wrong: -0.0, the smallest subnormal, 1e308,
    0.1 and floats with integer values."""
    grid = make_grid(d=d, n=4)
    special = np.array([-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 1e16, 0.0])
    state = SimState.rest(grid, theta0=1.0)
    for k, fld in enumerate((state.u.data, state.v.data, state.theta.data)):
        fld[...] = np.resize(np.roll(special, k), fld.shape)
    path = tmp_path / "special.vtk"
    write_vtk_snapshot(state, path)

    def rows(data):
        """Node data in VTK order, x fastest, vectors padded to 3."""
        spatial = tuple(reversed(range(d)))
        if data.ndim == d:
            return [[v] for v in data.transpose(spatial).ravel()]
        flat = data.transpose(spatial + (d,)).reshape(-1, d)
        return [list(row) + [0.0] * (3 - d) for row in flat]

    dims = list(grid.n) + [1] * (3 - d)
    spacing = list(grid.h) + [1.0] * (3 - d)
    lines = [
        "# vtk DataFile Version 3.0",
        "kvsim state snapshot",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS " + " ".join(str(m) for m in dims),
        "ORIGIN 0 0 0",
        "SPACING " + " ".join(format(s, ".17g") for s in spacing),
        f"POINT_DATA {grid.num_nodes}",
    ]
    for name, data in (("displacement", state.u.data),
                       ("velocity", state.v.data)):
        lines.append(f"VECTORS {name} double")
        lines += [" ".join(format(v, ".17g") for v in row)
                  for row in rows(data)]
    lines += ["SCALARS temperature double 1", "LOOKUP_TABLE default"]
    lines += [format(row[0], ".17g") for row in rows(state.theta.data)]
    text = "\n".join(lines) + "\n"
    assert path.read_bytes() == text.encode()
    assert {format(v, ".17g") for v in special} <= set(text.split())


def test_csv_schema_and_determinism(tmp_path, params):
    grid = make_grid(d=2, n=9)
    records = [initial_record(bump_state(grid), params)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagnostics_csv(records, p1)
    write_diagnostics_csv(records, p2)
    text = p1.read_text()
    header = text.splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    assert all(len(line.split(",")) == len(CSV_FIELDS)
               for line in text.splitlines())
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def run_cfg_text(csv_name="diag.csv", snapshot_every=0, extra=""):
    return MINIMAL + f"""
[output]
csv = {csv_name}
snapshot_every = {snapshot_every}
snapshot_prefix = snaps/state
{extra}
"""


def test_cli_run_zero_data_constant_energy(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text())
    assert main(["run", "--config", str(cfg)]) == 0
    lines = (tmp_path / "diag.csv").read_text().splitlines()
    energy_col = CSV_FIELDS.index("total_energy")
    energies = [float(line.split(",")[energy_col]) for line in lines[1:]]
    assert max(energies) - min(energies) <= 1e-12 * (1.0 + abs(energies[0]))
    assert "completed" in capsys.readouterr().out
    # snapshot cadence 0: no snapshot files, the run still succeeds
    assert not (tmp_path / "snaps").exists()


def test_cli_run_reruns_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(csv_name="one.csv"))
    assert main(["run", "--config", str(cfg)]) == 0
    first = (tmp_path / "one.csv").read_bytes()
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "one.csv").read_bytes() == first


def test_cli_run_csv_independent_of_blas_threads(tmp_path):
    """The shipped bump3d scenario writes the same CSV bytes with one and
    with two OpenBLAS threads: its 17^3 velocity system is long enough for
    a BLAS dot product to split its sum across threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    config = str(builtin_scenario("bump3d"))
    csvs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "kvsim.cli_io", "run", "--config", config],
            cwd=run_dir, env=env, check=True, capture_output=True, timeout=300,
        )
        csvs.append((run_dir / "out" / "bump3d.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_run_writes_snapshots_at_cadence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(snapshot_every=1))
    assert main(["run", "--config", str(cfg)]) == 0
    snaps = sorted((tmp_path / "snaps").glob("*.vtk"))
    ckpts = sorted((tmp_path / "snaps").glob("*.ckpt"))
    assert len(snaps) == 2 and len(ckpts) == 2  # two steps of 0.05 to t=0.1
    state, _ = load_checkpoint(ckpts[-1])
    assert state.t == pytest.approx(0.1)


def test_cli_resumed_run_repeats_the_whole_run(tmp_path, monkeypatch):
    """The shipped bump2d resumed from its own step-20 checkpoint writes,
    from its second row on, the whole run's rows of steps 21 to 50 byte
    for byte, times included: a checkpoint at k0 * dt steps on to
    (k0 + k + 1) * dt.  (Formed as t0 + (k + 1) * dt, 8 of those 30 times
    were one ulp off, such as 0.42000000000000004 for 0.41999999999999998.)
    """
    monkeypatch.chdir(tmp_path)
    text = builtin_scenario("bump2d").read_text()
    whole = write_cfg(tmp_path, text.replace("snapshot_every = 0",
                                             "snapshot_every = 20"))
    assert main(["run", "--config", str(whole)]) == 0
    resumed = re.sub(r"\n(theta0|velocity_amplitude|theta_amplitude) = .*",
                     "", text)
    resumed = resumed.replace(
        "preset = bump", "preset = checkpoint:out/bump2d_000020.ckpt"
    ).replace("csv = out/bump2d.csv", "csv = out/resumed.csv")
    resumed = write_cfg(tmp_path, resumed, name="resumed.cfg")
    assert main(["run", "--config", str(resumed)]) == 0
    rows = (tmp_path / "out" / "bump2d.csv").read_text().splitlines()
    resumed_rows = (tmp_path / "out" / "resumed.csv").read_text().splitlines()
    assert len(rows) == 52 and len(resumed_rows) == 32
    assert resumed_rows[2:] == rows[22:]


def _fail_at_call(monkeypatch, failing_call, error):
    """Make the ``failing_call``-th ``Stepper.step`` raise ``error``."""
    step = picard.Stepper.step
    calls = []

    def failing(stepper, *args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise error
        return step(stepper, *args, **kwargs)

    monkeypatch.setattr(picard.Stepper, "step", failing)


def test_cli_run_writes_the_accepted_steps_when_a_step_fails(
        tmp_path, monkeypatch, capsys):
    """A step that fails leaves a CSV of the records accepted before it:
    failing at the third step, the header, the initial record and two
    steps, the same bytes as the first three rows of the run that
    succeeds.  The exit code is the failure's."""
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text().replace("t_end = 0.1", "t_end = 0.25")
    text += "\n[initial]\npreset = bump\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 0
    full = (tmp_path / "diag.csv").read_bytes().splitlines(keepends=True)
    assert len(full) == 1 + 1 + 5
    (tmp_path / "diag.csv").unlink()
    _fail_at_call(monkeypatch, 3, NonConvergenceError("injected"))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "numerical failure: injected" in capsys.readouterr().err
    assert (tmp_path / "diag.csv").read_bytes() == b"".join(full[:4])


def test_cli_run_writes_the_accepted_steps_when_a_snapshot_fails(
        tmp_path, monkeypatch, capsys):
    """A snapshot write that fails with an ``OSError``, here because its
    prefix lies under a regular file, leaves a CSV of the records accepted
    up to it: snapshotting every second step, the header, the initial
    record and two steps, the same bytes as the first rows of the run
    without snapshots.  The exit code is that of an i/o error."""
    monkeypatch.chdir(tmp_path)
    bump = "\n[initial]\npreset = bump\n"
    text = run_cfg_text().replace("t_end = 0.1", "t_end = 0.25") + bump
    assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 0
    full = (tmp_path / "diag.csv").read_bytes().splitlines(keepends=True)
    assert len(full) == 1 + 1 + 5
    (tmp_path / "diag.csv").unlink()
    (tmp_path / "snaps").write_text("a regular file\n")
    text = text.replace("snapshot_every = 0", "snapshot_every = 2")
    assert main(["run", "--config", str(write_cfg(tmp_path, text))]) == 4
    assert "i/o error" in capsys.readouterr().err
    assert (tmp_path / "diag.csv").read_bytes() == b"".join(full[:4])


def test_cli_run_refuses_an_invalid_checkpoint_before_any_record(
        tmp_path, monkeypatch, capsys):
    """A checkpoint whose temperature is not positive is refused when the
    initial state is built (exit 3): no CSV holds a record of it."""
    monkeypatch.chdir(tmp_path)
    state = SimState.rest(make_grid(d=2, n=9))
    state.theta.data[4, 4] = -1.0
    save_checkpoint(state, tmp_path / "cold.ckpt")
    cfg = write_cfg(tmp_path, run_cfg_text()
                    + "\n[initial]\npreset = checkpoint:cold.ckpt\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "temperature must be positive" in capsys.readouterr().err
    assert not (tmp_path / "diag.csv").exists()


def test_cli_run_lets_other_exceptions_through(tmp_path, monkeypatch):
    """Only a ``KvsimError`` or an ``OSError`` writes the partial CSV: any
    other exception from a step (the benchmark's set-up timer stops a run
    this way) leaves ``cmd_run`` untouched and writes nothing."""

    class Stop(Exception):
        pass

    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text())
    _fail_at_call(monkeypatch, 1, Stop())
    with pytest.raises(Stop):
        main(["run", "--config", str(cfg)])
    assert not (tmp_path / "diag.csv").exists()


def test_cli_run_keeps_two_states_at_a_time(tmp_path, monkeypatch):
    """``kvsim run`` streams its steps into the diagnostics and the
    snapshots: at no step of a 12-step run are more than two earlier
    accepted states alive, and none is once it returns."""
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(snapshot_every=5).replace("t_end = 0.1", "t_end = 0.6")
    cfg = write_cfg(tmp_path, text + "\n[initial]\npreset = bump\n")
    watch = AcceptedStates(monkeypatch)
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(watch.refs) == 12
    assert list(watch.most_alive) == [(9, 9)]
    assert watch.most_alive[(9, 9)] <= 2
    assert watch.alive() == 0
    assert len((tmp_path / "diag.csv").read_text().splitlines()) == 1 + 13


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("mu1 = 1.0", "mu1 = 0.0"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "elasticity range" in capsys.readouterr().err


@pytest.mark.parametrize("key,edit", [
    ("sources.g_value", ("", "\n[sources]\ng = constant\ng_value = inf\n")),
    ("sources.g_value", ("", "\n[sources]\ng = constant\ng_value = nan\n")),
    ("sources.b_value", ("", "\n[sources]\nb = constant\nb_value = 0 -inf\n")),
    ("material.k", ("k = 1.0", "k = 1e999")),
    ("stepper.dt", ("dt = 0.05", "dt = nan")),
    ("grid.nodes", ("nodes = 9 9", "nodes = 17.9 16.2")),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, edit):
    old, new = edit
    text = MINIMAL.replace(old, new) if old else MINIMAL + new
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{key}: not" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,violation", [
    ("lengths = 1.0 1.0", "lengths = 1e-300 1.0", "grid: grid spacing"),
    ("lengths = 1.0 1.0", "lengths = 1e-160 1.0", "grid: grid spacing"),
    ("nodes = 9 9", "nodes = 1e30 9", "grid: nodes (1000000000000000019884624838656, 9)"),
    ("dimension = 2", "dimension = 0",
     "grid.dimension: must be 1, 2, or 3, got 0"),
])
def test_cli_rejects_grids_it_cannot_build(tmp_path, capsys, old, new,
                                           violation):
    """A grid whose 1/h^2 is not finite, whose node count numpy cannot
    index, or whose dimension is 0 is a configuration error (exit 2) that
    names the grid, reported alone."""
    cfg = write_cfg(tmp_path, MINIMAL.replace(old, new))
    assert main(["run", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "configuration error:"
    assert len(lines) == 2 and lines[1].startswith(f"  {violation}")


def test_cli_exit_code_on_numerical_failure(tmp_path, monkeypatch, capsys):
    """A 9x9 bump with thermal expansion 2 does not contract at dt 0.5:
    the velocity-temperature coupling lifts the Y ratios above 1, and the
    step fails at the third consecutive rise.  (A velocity amplitude of 10
    at dt 0.05 failed only while the heat capacity was iterated by
    substitution.)"""
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text() + (
        "\n[initial]\npreset = bump\ntheta_amplitude = 0.1\n")
    text = text.replace("alpha = 0.1", "alpha = 2.0")
    text = text.replace("dt = 0.05", "dt = 0.5").replace("t_end = 0.1",
                                                         "t_end = 1.0")
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "did not contract" in err


def test_cli_exit_code_on_cg_stagnation(tmp_path, monkeypatch, capsys):
    """A heat solve whose tolerance lies below its attainable residual fails
    fast with exit code 3 and names the attainable residual."""
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text() + "\n[initial]\npreset = bump\n"
    text = text.replace("nodes = 9 9", "nodes = 17 17")
    text = text.replace("dt = 0.05", "dt = 50").replace("t_end = 0.1", "t_end = 100")
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "attainable relative residual" in capsys.readouterr().err


def test_cli_exit_code_on_cg_breakdown(tmp_path, monkeypatch, capsys):
    """A velocity operator that is not positive definite stops the run at
    its first CG iteration with exit code 3 and a breakdown message."""
    build = linear_step.velocity_matrix

    def negated(*args):
        op = build(*args)
        return replace(op, matrix=-op.matrix)

    monkeypatch.setattr(linear_step, "velocity_matrix", negated)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text() + "\n[initial]\npreset = bump\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "broke down after 0 iterations" in capsys.readouterr().err


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """Start-up cost guard: importing the command-line module must not pull
    in scipy.fft, scipy.special, scipy.linalg or scipy.sparse.linalg, each
    of which adds a large share of the start-up time."""
    heavy = ("scipy.fft", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, kvsim.cli_io; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == ""


def test_cli_norms_and_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(snapshot_every=1))
    assert main(["run", "--config", str(cfg)]) == 0
    assert main(["norms", "--traj", str(tmp_path / "snaps"),
                 "--p", "2", "--p0", "inf"]) == 0
    out = capsys.readouterr().out
    assert "V2 norm" in out
    # corrupt one checkpoint: the norms command must fail with an I/O error
    victim = sorted((tmp_path / "snaps").glob("*.ckpt"))[0]
    blob = bytearray(victim.read_bytes())
    blob[30] ^= 0xFF
    victim.write_bytes(bytes(blob))
    assert main(["norms", "--traj", str(tmp_path / "snaps")]) == 4


@pytest.mark.parametrize("exponent", ["abc", "nan", "0.5"])
def test_cli_norms_rejects_bad_exponents(tmp_path, capsys, exponent):
    """A bad --p or --p0 is a usage error (exit 2) before any output."""
    grid = make_grid(d=2, n=9)
    for k in range(2):
        save_checkpoint(replace(SimState.rest(grid), t=0.1 * k),
                        tmp_path / f"{k}.ckpt")
    for option in ("--p", "--p0"):
        assert main(["norms", "--traj", str(tmp_path), option, exponent]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and option in captured.err


def test_cli_norms_rejects_checkpoints_that_share_a_time(tmp_path, capsys):
    """Checkpoints at one time span no interval: a usage error (exit 2)
    before any output, not dt = 0 and zero norms."""
    grid = make_grid(d=2, n=9)
    for k in range(3):
        save_checkpoint(replace(SimState.rest(grid, theta0=1.0 + k), t=0.1),
                        tmp_path / f"{k}.ckpt")
    assert main(["norms", "--traj", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "strictly increase" in captured.err


def _shortened_run(tmp_path, monkeypatch):
    """A 9^2 bump at dt = 0.03 to t = 0.1, so its last step is 0.01,
    with a checkpoint after every step; returns its loaded config."""
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text(snapshot_every=1, extra="[initial]\npreset = bump\n")
    cfg = write_cfg(tmp_path, text.replace("dt = 0.05", "dt = 0.03"))
    assert main(["run", "--config", str(cfg)]) == 0
    return load_config(cfg)


def _printed_norms(out):
    """The header of `kvsim norms` and its values by label."""
    header, *rows = out.splitlines()
    labels = [row.rsplit(maxsplit=1) for row in rows]
    return header, {label: float(value) for label, value in labels}


def test_cli_norms_weigh_a_shortened_last_step(tmp_path, monkeypatch, capsys):
    """Checkpoints 0.03, 0.03 and 0.01 apart give exit 0 and the
    left-endpoint sums weighted by those intervals; so does that
    trajectory continued from its last checkpoint at dt = 0.02."""
    _shortened_run(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(["norms", "--traj", "snaps", "--p", "3", "--p0", "2"]) == 0
    header, got = _printed_norms(capsys.readouterr().out)
    assert header == ("4 snapshots from t = 0.029999999999999999 "
                      "to t = 0.10000000000000001, p = 3, p0 = 2")
    states = sorted((load_checkpoint(path)[0]
                     for path in (tmp_path / "snaps").glob("*.ckpt")),
                    key=lambda s: s.t)
    widths = [b.t - a.t for a, b in zip(states, states[1:])]
    assert widths == pytest.approx([0.03, 0.03, 0.01], rel=1e-12)
    weights = states[0].grid.quad_weights.ravel()

    def lp(data, p):
        return np.sum(weights * np.abs(data.ravel()) ** p) ** (1.0 / p)

    for name, field in (("theta", lambda s: s.theta),
                        ("|u|", lambda s: magnitude(s.u)),
                        ("|v|", lambda s: magnitude(s.v))):
        want = sum(w * lp(field(s).data, 3.0) ** 2
                   for w, s in zip(widths, states)) ** 0.5
        assert got[f"L_(p,p0) of {name}"] == pytest.approx(want, rel=1e-13)
    stiffness = neumann_matrix(states[0].grid)[0]
    thetas = [s.theta.data.ravel() for s in states]
    want = max(lp(f, 2.0) for f in thetas) + np.sqrt(sum(
        w * (f @ (stiffness @ f)) for w, f in zip(widths, thetas)))
    assert got["V2 norm of theta"] == pytest.approx(want, rel=1e-13)
    # the restart writes 0.12, 0.14 and 0.16 next to 0.03 ... 0.1
    restart = (MINIMAL.replace("dt = 0.05", "dt = 0.02")
               .replace("t_end = 0.1", "t_end = 0.16")
               + "\n[initial]\npreset = checkpoint:snaps/state000004.ckpt\n"
               + "\n[output]\nsnapshot_every = 1\n"
               + "snapshot_prefix = snaps/restart\n")
    cfg = write_cfg(tmp_path, restart, name="restart.cfg")
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["norms", "--traj", "snaps"]) == 0
    assert capsys.readouterr().out.startswith(
        "7 snapshots from t = 0.029999999999999999 to t = 0.16")


def test_observer_norms_equal_cli_norms_bit_for_bit(tmp_path, monkeypatch,
                                                    capsys):
    """A `run` observer that keeps (t, theta) of each step gives the norms
    that `kvsim norms` prints from the same run's checkpoints, to the last
    bit: a norm study needs no snapshot files."""
    config = _shortened_run(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(["norms", "--traj", "snaps"]) == 0
    _, printed = _printed_norms(capsys.readouterr().out)
    times, thetas = [], []

    def keep(event):
        times.append(event.state_new.t)
        thetas.append(event.state_new.theta)

    run(build_initial_state(config), config.params, config.stepper,
        config.t_end, sources=build_sources(config), observers=[keep])
    assert len(times) == 4
    assert mixed_norm(thetas, times, 2.0, 2.0) == printed[
        "L_(p,p0) of theta"]
    assert v2_norm(thetas, times) == printed["V2 norm of theta"]


def test_cli_perturb(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text() +
                    "\n[initial]\npreset = bump\nvelocity_amplitude = 0.1\n")
    out_file = tmp_path / "gronwall.csv"
    code = main(["perturb", "--config", str(cfg), "--delta", "1e-6",
                 "--field", "theta0", "--out", str(out_file)])
    assert code == 0
    assert "respected" in capsys.readouterr().out
    assert out_file.read_text().splitlines()[0] == "t,x,rate,bound"


def _never(*args, **kwargs):
    raise AssertionError("a rejected command line must not start a run")


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_cli_perturb_rejects_non_finite_delta(tmp_path, monkeypatch, capsys,
                                              delta):
    """A non-finite --delta is a usage error (exit 2) before either run."""
    monkeypatch.setattr(cli_io, "steps", _never)
    cfg = write_cfg(tmp_path, run_cfg_text())
    assert main(["perturb", "--config", str(cfg), "--delta", delta]) == 2
    assert "perturbation delta must be finite" in capsys.readouterr().err


def test_cli_perturb_rejects_a_delta_that_makes_the_temperature_nonpositive(
        tmp_path, monkeypatch, capsys):
    """A --delta that drives the initial temperature to zero or below is
    bad input, a usage error (exit 2) naming the field, the delta and the
    minimum it gives, before either run and without a report."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_io, "steps", _never)
    cfg = write_cfg(tmp_path, run_cfg_text())
    out_file = tmp_path / "gronwall.csv"
    assert main(["perturb", "--config", str(cfg), "--delta", "-5",
                 "--out", str(out_file)]) == 2
    assert ("perturbing theta0 by -5 drives the initial temperature to -4;"
            in capsys.readouterr().err)
    assert not out_file.exists()


def test_cli_perturb_reads_both_runs_once_in_lockstep(tmp_path, monkeypatch):
    """`kvsim perturb` hands the Gronwall comparison the two runs as
    streams of states, drawn in lockstep, and its report equals the
    comparison of the two collected trajectories bit for bit."""
    cfg = write_cfg(tmp_path, run_cfg_text().replace(
        "t_end = 0.1", "t_end = 0.25") +
        "\n[initial]\npreset = bump\nvelocity_amplitude = 0.1\n")
    drawn, leads, reports = [0, 0], [], []

    def counted(states, which):
        for state in states:
            drawn[which] += 1
            leads.append(abs(drawn[0] - drawn[1]))
            yield state

    def compare(run1, run2, params):
        reports.append(gronwall_compare(counted(run1, 0), counted(run2, 1),
                                        params))
        return reports[-1]

    monkeypatch.setattr(cli_io, "gronwall_compare", compare)
    assert main(["perturb", "--config", str(cfg), "--delta", "1e-6",
                 "--out", str(tmp_path / "gronwall.csv")]) == 0
    config = load_config(str(cfg))
    base_state = build_initial_state(config)
    sources = build_sources(config)
    base, other = (run(state, config.params, config.stepper, config.t_end,
                       sources=sources)
                   for state in (base_state,
                                 perturb_state(base_state, "theta0", 1e-6)))
    expected = gronwall_compare(other, base, config.params)
    (got,) = reports
    for name in ("times", "x", "a", "bound"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
    assert (got.slack, got.violation) == (expected.slack, expected.violation)
    assert drawn == [len(base.states)] * 2 == [6, 6]
    assert max(leads) == 1


def test_cli_mms_rejects_dimension_zero(monkeypatch, capsys):
    """--dimension 0 is a usage error (exit 2), not an IndexError."""
    monkeypatch.setattr(mms, "manufacture", _never)
    assert main(["mms", "--dimension", "0"]) == 2
    assert "dimension must be 1, 2, or 3, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["spatial", "temporal"])
@pytest.mark.parametrize("levels", ["1", "-4"])
def test_cli_mms_rejects_fewer_than_three_levels(monkeypatch, capsys, mode,
                                                 levels):
    """--levels below 3 is a usage error (exit 2), not a silent 3-level
    ladder."""
    monkeypatch.setattr(mms, "convergence_study", _never)
    assert main(["mms", "--mode", mode, "--levels", levels]) == 2
    assert f"--levels must be at least 3, got {levels}" in (
        capsys.readouterr().err)


def test_cli_mms_writes_report(tmp_path, capsys):
    out_file = tmp_path / "orders.txt"
    code = main(["mms", "--case", "cooling", "--levels", "3",
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert "observed order" in text
    assert "cooling" in capsys.readouterr().out
