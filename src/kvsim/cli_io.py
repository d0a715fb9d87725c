"""Scenario configuration, serialization, and the command-line interface.

Scenario files are sectioned key-value text (INI syntax, ``#`` comments).
Keys and their meanings::

    [grid]
    dimension = 2            # 1, 2, or 3
    nodes = 33 33            # nodes per axis, whole numbers >= 3
    lengths = 1.0 1.0        # box edge lengths, positive

    [material]
    lambda1 = 1.0            # viscosity pair (lambda1, mu1)
    mu1 = 1.0
    lambda2 = 1.0            # Lame pair (lambda2, mu2)
    mu2 = 1.0
    k = 1.0                  # heat conductivity > 0
    cv = 1.0                 # specific-heat coefficient > 0
    alpha = 0.1              # thermal expansion: 1 value (isotropic) or 6
    beta = 1.0               # availability weight > 0

    [stepper]
    dt = 0.02                # time step > 0
    t_end = 1.0

    [initial]
    preset = bump            # uniform | bump | manufactured:<case> | checkpoint:<path>
    theta0 = 1.0
    velocity_amplitude = 0.2 # bump preset only
    theta_amplitude = 0.1    # bump preset only

    [sources]
    b = zero                 # zero | constant | manufactured:<case>
    b_value = 0 0            # constant body force (d components)
    g = zero
    g_value = 0.0

    [output]
    csv = out/diagnostics.csv
    snapshot_every = 0       # write VTK+checkpoint every N steps; 0 = never
    snapshot_prefix = out/state

Unknown sections or keys, non-finite numbers (inf, nan) and fractional
node counts are rejected; validation reports every violation, not just the
first.  All floating-point CSV output uses 17 significant digits so reruns
diff bytewise.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import glob
import math
import os
import struct
import sys
import zlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np

from . import mms
from .constitutive import MaterialParams
from .diagnostics import (
    CSV_FIELDS,
    DiagnosticsCollector,
    gronwall_compare,
    mixed_norm,
    v2_norm,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    KvsimError,
    NonConvergenceError,
    UsageError,
)
from .grid import Grid, ScalarField, VectorField, magnitude
from .picard import SimState, Sources, StepperConfig, run

CHECKPOINT_MAGIC = b"KVSIMCK\x00"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

@dataclass
class InitialSpec:
    preset: str = "uniform"
    theta0: float = 1.0
    velocity_amplitude: float = 0.1
    theta_amplitude: float = 0.0
    case: Optional[str] = None
    checkpoint: Optional[str] = None


@dataclass
class SourcesSpec:
    b_kind: str = "zero"
    b_value: tuple = (0.0,)
    b_case: Optional[str] = None
    g_kind: str = "zero"
    g_value: float = 0.0
    g_case: Optional[str] = None


@dataclass
class OutputSpec:
    csv: Optional[str] = None
    snapshot_every: int = 0
    snapshot_prefix: str = "state"


@dataclass
class ScenarioConfig:
    grid: Grid
    params: MaterialParams
    stepper: StepperConfig
    t_end: float
    initial: InitialSpec = field(default_factory=InitialSpec)
    sources: SourcesSpec = field(default_factory=SourcesSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


_KNOWN_KEYS = {
    "grid": {"dimension", "nodes", "lengths"},
    "material": {"lambda1", "mu1", "lambda2", "mu2", "k", "cv", "alpha", "beta"},
    "stepper": {"dt", "t_end"},
    "initial": {"preset", "theta0", "velocity_amplitude", "theta_amplitude"},
    "sources": {"b", "b_value", "g", "g_value"},
    "output": {"csv", "snapshot_every", "snapshot_prefix"},
}


class _Parsed:
    """Tracks raw values and accumulates violations with key paths."""

    def __init__(self, parser):
        self.parser = parser
        self.violations = []

    def complain(self, key, message):
        self.violations.append(f"{key}: {message}")

    def get(self, section, key, default=None, required=False):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        if required:
            self.complain(f"{section}.{key}", "required key is missing")
        return default

    def get_float(self, section, key, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            self.complain(f"{section}.{key}", f"not a number: {raw!r}")
            return None
        if not math.isfinite(value):
            self.complain(f"{section}.{key}", f"not a finite number: {raw!r}")
            return None
        return value

    def get_int(self, section, key, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            self.complain(f"{section}.{key}", f"not an integer: {raw!r}")
            return None

    def get_floats(self, section, key, required=False):
        raw = self.get(section, key, required=required)
        if raw is None:
            return None
        try:
            values = tuple(float(tok) for tok in raw.split())
        except ValueError:
            self.complain(f"{section}.{key}", f"not a list of numbers: {raw!r}")
            return None
        if not all(math.isfinite(v) for v in values):
            self.complain(f"{section}.{key}", f"not all finite numbers: {raw!r}")
            return None
        return values

    def present(self, section, getters):
        """The valid values of the keys of ``section`` that are set, keyed
        by name; the dataclass that takes them holds every default."""
        values = {key: get(section, key) for key, get in getters.items()}
        return {key: v for key, v in values.items() if v is not None}


def load_config(path):
    """Parse and fully validate a scenario file.

    Raises :class:`ConfigError` carrying every violation found (syntax
    errors carry line information from the parser).
    """
    if hasattr(path, "read_text"):
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"]) from None
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"]) from None

    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"parse error: {exc}"]) from None

    parsed = _Parsed(parser)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            parsed.complain(section, "unknown section")
            continue
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                parsed.complain(f"{section}.{key}", "unknown key")
    for section in ("grid", "material", "stepper"):
        if not parser.has_section(section):
            parsed.complain(section, "required section is missing")
    if parsed.violations:
        raise ConfigError(parsed.violations)

    # grid
    dimension = parsed.get_int("grid", "dimension", required=True)
    nodes = parsed.get_floats("grid", "nodes", required=True)
    lengths = parsed.get_floats("grid", "lengths", required=True)
    grid = None
    if not parsed.violations:
        if nodes is not None and dimension is not None and len(nodes) != dimension:
            parsed.complain("grid.nodes", f"expected {dimension} values")
        if nodes is not None and not all(n.is_integer() for n in nodes):
            raw = parsed.get("grid", "nodes")
            parsed.complain("grid.nodes", f"not whole numbers: {raw!r}")
        if lengths is not None and dimension is not None and len(lengths) != dimension:
            parsed.complain("grid.lengths", f"expected {dimension} values")
        if not parsed.violations:
            try:
                grid = Grid([int(n) for n in nodes], lengths)
            except UsageError as exc:
                parsed.complain("grid", str(exc))

    # material
    material_kwargs = {}
    for key in ("lambda1", "mu1", "lambda2", "mu2", "k", "cv"):
        material_kwargs[key] = parsed.get_float("material", key, required=True)
    alpha = parsed.get_floats("material", "alpha")
    if alpha is not None and len(alpha) not in (1, 6):
        parsed.complain("material.alpha", "expected 1 or 6 values")
    elif alpha is not None:
        material_kwargs["alpha"] = alpha[0] if len(alpha) == 1 else np.array(alpha)
    material_kwargs.update(parsed.present("material", {"beta": parsed.get_float}))
    params = None
    if all(v is not None for v in material_kwargs.values()):
        try:
            params = MaterialParams(**material_kwargs)
        except UsageError as exc:
            for violation in str(exc).split("; "):
                parsed.complain("material", violation)

    # stepper
    dt = parsed.get_float("stepper", "dt", required=True)
    t_end = parsed.get_float("stepper", "t_end", required=True)
    stepper = None
    if dt is not None:
        try:
            stepper = StepperConfig(dt=dt)
        except UsageError as exc:
            for violation in str(exc).split("; "):
                parsed.complain("stepper", violation)
    if t_end is not None and t_end <= 0.0:
        parsed.complain("stepper.t_end", f"t_end = {t_end} must be positive")

    # initial
    before = len(parsed.violations)
    initial = InitialSpec(**parsed.present("initial", {
        "theta0": parsed.get_float,
        "velocity_amplitude": parsed.get_float,
        "theta_amplitude": parsed.get_float,
    }))
    preset = parsed.get("initial", "preset", default=initial.preset)
    if preset in ("uniform", "bump"):
        initial.preset = preset
        theta0 = initial.theta0
        amp = initial.theta_amplitude if preset == "bump" else 0.0
        # a number that failed to parse has already been reported
        if len(parsed.violations) == before and theta0 - abs(amp) <= 0.0:
            parsed.complain(
                "initial.theta0",
                f"initial temperature can reach {theta0 - abs(amp)}; it must "
                f"stay positive (theta0 >= theta_underbar > 0)",
            )
    elif preset.startswith("manufactured:"):
        initial.preset = "manufactured"
        initial.case = preset.split(":", 1)[1]
        if initial.case not in mms.CASES:
            parsed.complain(
                "initial.preset",
                f"unknown manufactured case {initial.case!r}; "
                f"available: {sorted(mms.CASES)}",
            )
    elif preset.startswith("checkpoint:"):
        initial.preset = "checkpoint"
        initial.checkpoint = preset.split(":", 1)[1]
    else:
        parsed.complain("initial.preset", f"unknown preset {preset!r}")

    # sources
    sources = SourcesSpec(
        **parsed.present("sources", {"g_value": parsed.get_float}))
    for slot in ("b", "g"):
        kind = parsed.get("sources", slot,
                          default=getattr(sources, f"{slot}_kind"))
        if kind == "zero" or kind == "constant":
            setattr(sources, f"{slot}_kind", kind)
        elif kind.startswith("manufactured:"):
            setattr(sources, f"{slot}_kind", "manufactured")
            case = kind.split(":", 1)[1]
            setattr(sources, f"{slot}_case", case)
            if case not in mms.CASES:
                parsed.complain(
                    f"sources.{slot}",
                    f"unknown manufactured case {case!r}; "
                    f"available: {sorted(mms.CASES)}",
                )
        else:
            parsed.complain(f"sources.{slot}", f"unknown source kind {kind!r}")
    b_value = parsed.get_floats("sources", "b_value")
    if b_value is not None:
        if dimension is not None and len(b_value) != dimension:
            parsed.complain("sources.b_value", f"expected {dimension} values")
        sources.b_value = b_value
    elif dimension is not None:
        sources.b_value = (0.0,) * dimension

    # output
    output = OutputSpec(**parsed.present("output", {
        "csv": parsed.get,
        "snapshot_every": parsed.get_int,
        "snapshot_prefix": parsed.get,
    }))
    if output.snapshot_every < 0:
        parsed.complain("output.snapshot_every", "must be >= 0")

    if parsed.violations:
        raise ConfigError(parsed.violations)
    return ScenarioConfig(
        grid=grid, params=params, stepper=stepper, t_end=t_end,
        initial=initial, sources=sources, output=output,
    )


def builtin_scenario(name):
    """Path-like handle to a scenario file shipped with the package."""
    root = resources.files("kvsim") / "scenarios"
    candidate = root / f"{name}.cfg"
    if not candidate.is_file():
        available = sorted(p.name[:-4] for p in root.iterdir()
                           if p.name.endswith(".cfg"))
        raise UsageError(f"unknown scenario {name!r}; available: {available}")
    return candidate


# ---------------------------------------------------------------------------
# initial data and source presets
# ---------------------------------------------------------------------------

def _sin_profile(grid):
    """Product of axis sines; exactly zero on the boundary."""
    out = np.ones(grid.shape)
    for coord, length in zip(grid.coords(), grid.lengths):
        out = out * np.sin(np.pi * coord / length)
    out[grid.boundary_mask] = 0.0
    return out


def _cos_profile(grid):
    """Product of axis cosines; zero normal derivative on every face."""
    out = np.ones(grid.shape)
    for coord, length in zip(grid.coords(), grid.lengths):
        out = out * np.cos(np.pi * coord / length)
    return out


def build_initial_state(config):
    """Materialize the configured initial condition on the scenario grid."""
    grid, spec = config.grid, config.initial
    if spec.preset == "uniform":
        return SimState.rest(grid, theta0=spec.theta0)
    if spec.preset == "bump":
        profile = _sin_profile(grid)
        v = np.zeros(grid.shape + (grid.d,))
        for i in range(grid.d):
            v[..., i] = spec.velocity_amplitude / (1.0 + i) * profile
        theta = spec.theta0 + spec.theta_amplitude * _cos_profile(grid)
        return SimState(
            t=0.0,
            u=VectorField.zeros(grid),
            v=VectorField(grid, v),
            theta=ScalarField(grid, theta),
        ).validate()
    if spec.preset == "manufactured":
        case = mms.get_case(spec.case, grid.d, grid.lengths)
        problem = mms.manufacture(case, grid, config.params)
        return problem.initial_state()
    if spec.preset == "checkpoint":
        state, ck_grid = load_checkpoint(spec.checkpoint)
        if ck_grid != grid:
            raise UsageError(
                f"checkpoint grid {ck_grid} does not match scenario grid {grid}"
            )
        return state
    raise UsageError(f"unknown initial preset {spec.preset!r}")


def build_sources(config):
    """Materialize the configured body force and heat source."""
    grid, spec = config.grid, config.sources
    problems = {}

    def _problem(case_name):
        if case_name not in problems:
            case = mms.get_case(case_name, grid.d, grid.lengths)
            problems[case_name] = mms.manufacture(case, grid, config.params)
        return problems[case_name]

    b_fn = None
    if spec.b_kind == "constant":
        b_fn = Sources.constant(grid, b_value=spec.b_value).b
    elif spec.b_kind == "manufactured":
        b_fn = _problem(spec.b_case).body_force
    g_fn = None
    if spec.g_kind == "constant":
        g_fn = Sources.constant(grid, g_value=spec.g_value).g
    elif spec.g_kind == "manufactured":
        g_fn = _problem(spec.g_case).heat_source
    return Sources(b=b_fn, g=g_fn)


def perturb_state(state, field_name, delta):
    """Perturb one item of the initial data by a BC-compatible profile."""
    if not math.isfinite(delta):
        raise UsageError(f"perturbation delta must be finite, got {delta}")
    grid = state.grid
    out = state.copy()
    if field_name == "theta0":
        out.theta.data += delta * _cos_profile(grid)
    elif field_name in ("u0", "u1"):
        profile = delta * _sin_profile(grid)
        target = out.u if field_name == "u0" else out.v
        for i in range(grid.d):
            target.data[..., i] += profile / (1.0 + i)
    else:
        raise UsageError(
            f"perturbable fields are theta0, u0, u1; got {field_name!r}"
        )
    return out.validate()


# ---------------------------------------------------------------------------
# CSV diagnostics
# ---------------------------------------------------------------------------

def _format_value(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_diagnostics_csv(records, path):
    """Fixed-schema CSV: header = record fields in declared order."""
    lines = [",".join(CSV_FIELDS)]
    for rec in records:
        lines.append(",".join(
            _format_value(getattr(rec, name)) for name in CSV_FIELDS
        ))
    _write_lines(path, lines)


def _ensure_parent(path):
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_lines(path, lines):
    """Write ``lines`` to ``path`` as UTF-8, each ended by a line feed."""
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# snapshots: legacy VTK structured points + binary checkpoints
# ---------------------------------------------------------------------------

def _x_fastest(data, d):
    """Flatten node data so the x index varies fastest (VTK convention)."""
    spatial = tuple(reversed(range(d)))
    if data.ndim == d:
        return data.transpose(spatial).ravel()
    return data.transpose(spatial + (d,)).reshape(-1, data.shape[-1])


def write_vtk_snapshot(state, path):
    """Legacy-VTK ASCII structured-points snapshot (displacement, velocity,
    temperature point data)."""
    grid = state.grid
    dims = list(grid.n) + [1] * (3 - grid.d)
    spacing = list(grid.h) + [1.0] * (3 - grid.d)
    n = grid.num_nodes

    def _pad3(data):
        out = np.zeros((n, 3))
        out[:, :grid.d] = _x_fastest(data, grid.d)
        return out

    lines = [
        "# vtk DataFile Version 3.0",
        "kvsim state snapshot",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        "DIMENSIONS {} {} {}".format(*dims),
        "ORIGIN 0 0 0",
        "SPACING {} {} {}".format(*(_format_value(s) for s in spacing)),
        f"POINT_DATA {n}",
    ]
    for name, fld in (("displacement", state.u), ("velocity", state.v)):
        lines.append(f"VECTORS {name} double")
        for row in _pad3(fld.data):
            lines.append(" ".join(_format_value(v) for v in row))
    lines.append("SCALARS temperature double 1")
    lines.append("LOOKUP_TABLE default")
    for value in _x_fastest(state.theta.data, grid.d):
        lines.append(_format_value(value))
    _write_lines(path, lines)


def save_checkpoint(state, path):
    """Versioned little-endian binary state dump with a trailing checksum.

    Raises :class:`CheckpointError`, writing nothing, when the time is not
    finite: ``load_checkpoint`` refuses such a file."""
    if not math.isfinite(state.t):
        raise CheckpointError(f"cannot checkpoint a state at time {state.t}")
    grid = state.grid
    payload = bytearray()
    payload += struct.pack("<II", CHECKPOINT_VERSION, grid.d)
    payload += struct.pack(f"<{grid.d}I", *grid.n)
    payload += struct.pack(f"<{grid.d}d", *grid.lengths)
    payload += struct.pack("<d", state.t)
    for arr in (state.u.data, state.v.data, state.theta.data):
        payload += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    checksum = zlib.crc32(bytes(payload))
    _ensure_parent(path)
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(payload)
        handle.write(struct.pack("<I", checksum))


def load_checkpoint(path):
    """Load a checkpoint; returns (state, grid).  Bit-exact round trip."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    if len(blob) < len(CHECKPOINT_MAGIC) + 12 or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"not a kvsim checkpoint: {path}")
    payload, (checksum,) = blob[len(CHECKPOINT_MAGIC):-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != checksum:
        raise CheckpointError(f"checksum mismatch in {path}; file is corrupt")
    version, d = struct.unpack_from("<II", payload)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
        )
    if d not in (1, 2, 3):
        raise CheckpointError(f"checkpoint {path} declares dimension {d}")
    header = struct.calcsize(f"<II{d}I{d}dd")
    if len(payload) < header:
        raise CheckpointError(f"truncated header in checkpoint {path}")
    *geometry, t = struct.unpack_from(f"<{d}I{d}dd", payload, 8)
    nodes, lengths = geometry[:d], geometry[d:]
    if not math.isfinite(t):
        raise CheckpointError(f"checkpoint {path} has time {t}")
    n = math.prod(nodes)
    if len(payload) != header + 8 * (2 * d + 1) * n:
        raise CheckpointError(
            f"checkpoint {path} holds {len(payload) - header} bytes of field "
            f"data; its header describes {8 * (2 * d + 1) * n}"
        )
    try:
        grid = Grid(nodes, lengths)
    except UsageError as exc:
        raise CheckpointError(f"checkpoint {path} describes no valid grid: "
                              f"{exc}") from None
    data = np.frombuffer(payload, dtype="<f8", offset=header).astype(float)
    u, v, theta = np.split(data, [n * d, 2 * n * d])
    state = SimState(
        t=t,
        u=VectorField(grid, u.reshape(grid.shape + (d,))),
        v=VectorField(grid, v.reshape(grid.shape + (d,))),
        theta=ScalarField(grid, theta.reshape(grid.shape)),
    )
    return state, grid


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class _SnapshotWriter:
    def __init__(self, every, prefix):
        self.every = every
        self.prefix = prefix

    def __call__(self, event):
        step = event.index + 1
        if self.every > 0 and step % self.every == 0:
            write_vtk_snapshot(event.state_new, f"{self.prefix}{step:06d}.vtk")
            save_checkpoint(event.state_new, f"{self.prefix}{step:06d}.ckpt")


def cmd_run(args):
    config = load_config(args.config)
    state = build_initial_state(config)
    sources = build_sources(config)
    collector = DiagnosticsCollector(config.params, initial_state=state)
    observers = [collector,
                 _SnapshotWriter(config.output.snapshot_every,
                                 config.output.snapshot_prefix)]
    traj = run(state, config.params, config.stepper, config.t_end,
               sources=sources, observers=observers)
    if config.output.csv:
        write_diagnostics_csv(collector.records, config.output.csv)
    last = collector.records[-1]
    print(f"completed {len(traj.traces)} steps to t = {_format_value(last.t)}")
    print(f"total energy        {_format_value(last.total_energy)}")
    print(f"temperature range   [{_format_value(last.theta_min)}, "
          f"{_format_value(last.theta_max)}]")
    if config.output.csv:
        print(f"diagnostics         {config.output.csv}")
    return 0


_DEFAULT_MMS_PARAMS = dict(
    lambda1=1.0, mu1=1.0, lambda2=1.0, mu2=1.0, k=1.0, cv=1.0,
    alpha=0.1, beta=1.0,
)


def cmd_mms(args):
    if args.config is not None:
        params = load_config(args.config).params
    else:
        params = MaterialParams(**_DEFAULT_MMS_PARAMS)
    if args.levels < 3:
        raise UsageError(f"--levels must be at least 3, got {args.levels}")
    resolutions = [9]
    while len(resolutions) < args.levels:
        resolutions.append(2 * resolutions[-1] - 1)
    if args.mode == "spatial":
        report = mms.convergence_study(
            args.case, params, d=args.dimension,
            resolutions=tuple(resolutions), dt0=0.0125, t_end=0.25,
            mode="spatial",
        )
    else:
        # fixed fine grid so the spatial error floor stays below the dt sweep
        dts = [0.1 / 2**i for i in range(args.levels)]
        report = mms.convergence_study(
            args.case, params, d=args.dimension,
            resolutions=(9, 17, 65), dts=dts, t_end=0.5,
            mode="temporal",
        )
    text = report.format()
    print(text)
    if args.out:
        _write_lines(args.out, [text])
    return 0


def cmd_perturb(args):
    config = load_config(args.config)
    base_state = build_initial_state(config)
    perturbed_state = perturb_state(base_state, args.field, args.delta)
    sources = build_sources(config)
    base = run(base_state, config.params, config.stepper, config.t_end,
               sources=sources)
    other = run(perturbed_state, config.params, config.stepper, config.t_end,
                sources=sources)
    report = gronwall_compare(other, base, config.params)
    lines = ["t,x,rate,bound"]
    for k in range(len(report.times)):
        lines.append(",".join(_format_value(v) for v in (
            report.times[k], report.x[k], report.a[k], report.bound[k]
        )))
    out_path = args.out or f"{args.config}.gronwall-{args.field}.csv"
    _write_lines(out_path, lines)
    verdict = "violated" if report.violation else "respected"
    print(f"perturbation of {args.field} by {args.delta:g}: "
          f"Gronwall envelope {verdict}")
    print(f"report              {out_path}")
    return 3 if report.violation else 0


def _load_trajectory_states(pattern):
    if os.path.isdir(pattern):
        paths = sorted(glob.glob(os.path.join(pattern, "*.ckpt")))
    else:
        paths = sorted(glob.glob(pattern))
    if len(paths) < 2:
        raise UsageError(
            f"need at least two checkpoints to form a trajectory, "
            f"found {len(paths)} matching {pattern!r}"
        )
    states = []
    grid = None
    for p in paths:
        state, g = load_checkpoint(p)
        if grid is None:
            grid = g
        elif g != grid:
            raise UsageError(f"checkpoint {p} is on a different grid")
        states.append(state)
    states.sort(key=lambda s: s.t)
    times = np.array([s.t for s in states])
    dts = np.diff(times)
    if np.any(dts == 0.0):  # sorted, so a repeated time is the only way
        raise UsageError(f"checkpoint times must strictly increase; two are "
                         f"at t = {times[1:][dts == 0.0][0]}")
    if np.max(np.abs(dts - dts[0])) > 1e-9 * max(1.0, times[-1]):
        raise UsageError("checkpoints are not uniformly spaced in time")
    return states, float(dts[0])


def _norm_exponent(option, raw):
    """``inf`` or a finite number >= 1."""
    if raw == "inf":
        return np.inf
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1.0):
        raise UsageError(
            f"{option} must be 'inf' or a finite number >= 1, got {raw!r}"
        )
    return value


def cmd_norms(args):
    p = _norm_exponent("--p", args.p)
    p0 = _norm_exponent("--p0", args.p0)
    states, dt = _load_trajectory_states(args.traj)
    quantities = {
        "theta": [s.theta for s in states],
        "|u|": [magnitude(s.u) for s in states],
        "|v|": [magnitude(s.v) for s in states],
    }
    print(f"{len(states)} snapshots, dt = {_format_value(dt)}, "
          f"p = {args.p}, p0 = {args.p0}")
    for name, fields in quantities.items():
        value = mixed_norm(fields, dt, p, p0)
        print(f"L_(p,p0) of {name:6s} {_format_value(value)}")
    print(f"V2 norm of theta   {_format_value(v2_norm(quantities['theta'], dt))}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kvsim",
        description="Kelvin-Voigt thermoviscoelasticity simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=cmd_run)

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("--case", default="default")
    p_mms.add_argument("--levels", type=int, default=3)
    p_mms.add_argument("--mode", choices=("spatial", "temporal"), default="spatial")
    p_mms.add_argument("--dimension", type=int, default=2)
    p_mms.add_argument("--config", default=None,
                       help="take material parameters from a scenario file")
    p_mms.add_argument("--out", default=None)
    p_mms.set_defaults(func=cmd_mms)

    p_pert = sub.add_parser(
        "perturb", help="twin runs with perturbed initial data (Gronwall check)"
    )
    p_pert.add_argument("--config", required=True)
    p_pert.add_argument("--delta", type=float, required=True)
    p_pert.add_argument("--field", choices=("theta0", "u0", "u1"),
                        default="theta0")
    p_pert.add_argument("--out", default=None)
    p_pert.set_defaults(func=cmd_perturb)

    p_norms = sub.add_parser("norms", help="mixed norms of a stored trajectory")
    p_norms.add_argument("--traj", required=True,
                         help="directory of checkpoints or a glob pattern")
    p_norms.add_argument("--p", default="2")
    p_norms.add_argument("--p0", default="2")
    p_norms.set_defaults(func=cmd_norms)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except KvsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
