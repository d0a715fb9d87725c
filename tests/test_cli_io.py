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

from kvsim import CheckpointError, ConfigError, SimState, UsageError, linear_step
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
from kvsim.diagnostics import CSV_FIELDS, initial_record

from helpers import bump_state, make_grid

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
    assert cfg.stepper.picard_tol == 1e-10
    assert cfg.stepper.picard_max == 50
    assert cfg.stepper.cg_tol == 1e-12
    assert cfg.stepper.cg_max == 20000
    assert cfg.stepper.theta_floor is None
    assert cfg.params.beta == 1.0
    assert cfg.initial.preset == "uniform"
    assert cfg.initial.theta0 == 1.0
    assert cfg.sources.b_kind == "zero" and cfg.sources.g_kind == "zero"
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


def test_config_rejects_unknown_keys_and_sections(tmp_path):
    text = MINIMAL + "\n[mystery]\nfoo = 1\n"
    with pytest.raises(ConfigError) as excinfo:
        load_config(write_cfg(tmp_path, text))
    assert any("unknown section" in v for v in excinfo.value.violations)
    text2 = MINIMAL.replace("dt = 0.05", "dt = 0.05\nwarp = 9")
    with pytest.raises(ConfigError) as excinfo2:
        load_config(write_cfg(tmp_path, text2))
    assert any("unknown key" in v for v in excinfo2.value.violations)


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
    although its checksum matches; `kvsim norms` used to print nan norms."""
    grid = make_grid(d=2, n=9)
    for k, t in enumerate((0.0, bad_t, 0.2)):
        save_checkpoint(SimState.rest(grid, t=t), tmp_path / f"{k}.ckpt")
    with pytest.raises(CheckpointError, match="time"):
        load_checkpoint(tmp_path / "1.ckpt")
    assert main(["norms", "--traj", str(tmp_path)]) == 4


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


def test_cli_run_writes_snapshots_at_cadence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, run_cfg_text(snapshot_every=1))
    assert main(["run", "--config", str(cfg)]) == 0
    snaps = sorted((tmp_path / "snaps").glob("*.vtk"))
    ckpts = sorted((tmp_path / "snaps").glob("*.ckpt"))
    assert len(snaps) == 2 and len(ckpts) == 2  # two steps of 0.05 to t=0.1
    state, _ = load_checkpoint(ckpts[-1])
    assert state.t == pytest.approx(0.1)


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL.replace("mu1 = 1.0", "mu1 = 0.0"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "elasticity range" in capsys.readouterr().err


@pytest.mark.parametrize("key,edit", [
    ("sources.g_value", ("", "\n[sources]\ng = constant\ng_value = inf\n")),
    ("sources.g_value", ("", "\n[sources]\ng = constant\ng_value = nan\n")),
    ("sources.b_value", ("", "\n[sources]\nb = constant\nb_value = 0 -inf\n")),
    ("material.k", ("k = 1.0", "k = 1e999")),
    ("stepper.theta_floor", ("dt = 0.05", "dt = 0.05\ntheta_floor = nan")),
    ("grid.nodes", ("nodes = 9 9", "nodes = 17.9 16.2")),
])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, key, edit):
    old, new = edit
    text = MINIMAL.replace(old, new) if old else MINIMAL + new
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{key}: not" in capsys.readouterr().err


def test_cli_exit_code_on_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = run_cfg_text() + "\n[initial]\npreset = bump\ntheta_amplitude = 0.1\n"
    text = text.replace("dt = 0.05", "dt = 0.05\npicard_max = 1\npicard_tol = 1e-16")
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg)]) == 3
    assert "numerical failure" in capsys.readouterr().err


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
        save_checkpoint(SimState.rest(grid, t=0.1 * k), tmp_path / f"{k}.ckpt")
    for option in ("--p", "--p0"):
        assert main(["norms", "--traj", str(tmp_path), option, exponent]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and option in captured.err


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


def test_cli_mms_writes_report(tmp_path, capsys):
    out_file = tmp_path / "orders.txt"
    code = main(["mms", "--case", "cooling", "--levels", "3",
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text()
    assert "observed order" in text
    assert "cooling" in capsys.readouterr().out
