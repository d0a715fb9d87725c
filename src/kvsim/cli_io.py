"""Scenario configuration, serialization, and the command-line interface.

Scenario files are sectioned key-value text (INI syntax, ``#`` comments).
``_SCHEMA``, each key's type and default, is the key reference.  The keys
and their meanings; an optional key shows its default (none if empty)::

    [grid]
    dimension = 2            # required: 1, 2, or 3
    nodes = 33 33            # required: nodes per axis, whole numbers >= 3
    lengths = 1.0 1.0        # required: box edge lengths, positive

    [material]
    lambda1 = 1.0            # required: viscosity pair (lambda1, mu1)
    mu1 = 1.0                # required
    lambda2 = 1.0            # required: Lame pair (lambda2, mu2)
    mu2 = 1.0                # required
    k = 1.0                  # required: heat conductivity > 0
    cv = 1.0                 # required: specific-heat coefficient > 0
    alpha = 0.0              # thermal expansion: 1 value (isotropic) or 6
    beta = 1.0               # availability weight > 0

    [stepper]
    dt = 0.02                # required: time step > 0
    t_end = 1.0              # required: end time > 0

    [initial]
    preset = uniform         # uniform | bump | manufactured:<case> | checkpoint:<path>
    theta0 = 1.0             # uniform and bump only: base temperature
    velocity_amplitude = 0.1 # bump only
    theta_amplitude = 0.0    # bump only

    [sources]
    b = zero                 # zero | constant | manufactured:<case>
    b_value =                # b = constant only: d components; none: zero
    g = zero                 # zero | constant | manufactured:<case>
    g_value = 0.0            # g = constant only: the heat source

    [output]
    csv =                    # diagnostics CSV path; none: no CSV
    snapshot_every = 0       # write VTK+checkpoint every N steps; 0 = never
    snapshot_prefix = state  # path prefix of the snapshot files

Keys that the chosen kind does not read (the comments above name the
kinds that read them), unknown sections or keys, non-finite numbers (inf,
nan) and fractional node counts are rejected; validation reports every
violation, not just the first.  All floating-point CSV output uses 17
significant digits so reruns diff bytewise.

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
from dataclasses import dataclass, field, make_dataclass
from importlib import resources

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
from .picard import SimState, Sources, StepperConfig, steps

CHECKPOINT_MAGIC = b"KVSIMCK\x00"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

# The types of the scenario keys: each turns a key's text into its value,
# or raises ValueError with the message that reports it.

def _number(raw):
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _integer(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _dimension(raw):
    value = _integer(raw)
    if value not in (1, 2, 3):
        raise ValueError(f"must be 1, 2, or 3, got {value}")
    return value


def _numbers(raw):
    try:
        values = tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise ValueError(f"not a list of numbers: {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"not all finite numbers: {raw!r}")
    return values


def _alpha(raw):
    values = _numbers(raw)
    if len(values) not in (1, 6):
        raise ValueError("expected 1 or 6 values")
    return values[0] if len(values) == 1 else np.array(values)


def _kind(name, **takes_arg):
    """The type of a ``kind[:arg]`` text, kept whole for its user to split;
    ``takes_arg`` tells of each kind whether it takes the argument."""
    def parse(raw):
        kind, colon, arg = raw.partition(":")
        if takes_arg.get(kind) != bool(colon):
            raise ValueError(f"unknown {name} {raw!r}")
        if kind == "manufactured" and arg not in mms.CASES:
            raise ValueError(f"unknown manufactured case {arg!r}; "
                             f"available: {sorted(mms.CASES)}")
        return raw
    return parse


_source = _kind("source kind", zero=False, constant=False, manufactured=True)

_REQUIRED = object()  # the default of a key that must be set

# section -> key -> (type, default)
_SCHEMA = {
    "grid": {
        "dimension": (_dimension, _REQUIRED),
        "nodes": (_numbers, _REQUIRED),
        "lengths": (_numbers, _REQUIRED),
    },
    "material": {
        **dict.fromkeys(("lambda1", "mu1", "lambda2", "mu2", "k", "cv"),
                        (_number, _REQUIRED)),
        "alpha": (_alpha, 0.0),
        "beta": (_number, 1.0),
    },
    "stepper": {"dt": (_number, _REQUIRED), "t_end": (_number, _REQUIRED)},
    "initial": {
        "preset": (_kind("preset", uniform=False, bump=False,
                         manufactured=True, checkpoint=True), "uniform"),
        "theta0": (_number, 1.0),
        "velocity_amplitude": (_number, 0.1),
        "theta_amplitude": (_number, 0.0),
    },
    "sources": {
        "b": (_source, "zero"),
        "b_value": (_numbers, None),
        "g": (_source, "zero"),
        "g_value": (_number, 0.0),
    },
    "output": {
        "csv": (str, None),
        "snapshot_every": (_integer, 0),
        "snapshot_prefix": (str, "state"),
    },
}


# key -> (the kind key of its section, the kinds that read the key)
_READ_BY = {
    "theta0": ("preset", ("uniform", "bump")),
    "velocity_amplitude": ("preset", ("bump",)),
    "theta_amplitude": ("preset", ("bump",)),
    "b_value": ("b", ("constant",)),
    "g_value": ("g", ("constant",)),
}


def _spec(name, section):
    """A dataclass whose fields are the keys of ``section``."""
    return make_dataclass(
        name, [(key, object, field(default=default))
               for key, (_, default) in _SCHEMA[section].items()],
        namespace={"__module__": __name__},
    )


InitialSpec = _spec("InitialSpec", "initial")
SourcesSpec = _spec("SourcesSpec", "sources")
OutputSpec = _spec("OutputSpec", "output")


@dataclass
class ScenarioConfig:
    grid: Grid
    params: MaterialParams
    stepper: StepperConfig
    t_end: float
    initial: InitialSpec = field(default_factory=InitialSpec)
    sources: SourcesSpec = field(default_factory=SourcesSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


def _section(parser, section, violations):
    """The values of the keys of ``section`` by name, each parsed by its
    type or, unset, its default.  A key that does not parse, or is required
    and unset, is reported; only an optional one then takes its default.
    So is a key set under a parsed kind that does not read it."""
    values = {}
    failed = set()
    for key, (parse, default) in _SCHEMA[section].items():
        if default is not _REQUIRED:
            values[key] = default
        if parser.has_option(section, key):
            try:
                values[key] = parse(parser.get(section, key))
            except ValueError as exc:
                violations.append(f"{section}.{key}: {exc}")
                failed.add(key)
        elif default is _REQUIRED:
            violations.append(f"{section}.{key}: required key is missing")
    for key in filter(_READ_BY.__contains__, _SCHEMA[section]):
        kind_key, readers = _READ_BY[key]
        kind = values[kind_key].partition(":")[0]
        if (parser.has_option(section, key) and kind_key not in failed
                and kind not in readers):
            violations.append(
                f"{section}.{key}: not read when {kind_key} = {kind}")
    return values


def load_config(path):
    """Parse and fully validate a scenario file.

    Raises :class:`ConfigError` carrying every violation found (syntax
    errors carry line information from the parser).  A check across keys
    runs only when the keys it reads parsed.
    """
    try:
        if hasattr(path, "read_text"):
            text = path.read_text()
        else:
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

    violations = []
    for section in parser.sections():
        if section not in _SCHEMA:
            violations.append(f"{section}: unknown section")
            continue
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                violations.append(f"{section}.{key}: unknown key")
    for section, keys in _SCHEMA.items():
        required = any(default is _REQUIRED for _, default in keys.values())
        if required and not parser.has_section(section):
            violations.append(f"{section}: required section is missing")
    if violations:
        raise ConfigError(violations)

    # grid: every key is required, and each check reads them all
    keys = _section(parser, "grid", violations)
    dimension = keys.get("dimension")
    grid = None
    if len(keys) == len(_SCHEMA["grid"]):
        nodes, lengths = keys["nodes"], keys["lengths"]
        before = len(violations)
        if len(nodes) != dimension:
            violations.append(f"grid.nodes: expected {dimension} values")
        if not all(n.is_integer() for n in nodes):
            raw = parser.get("grid", "nodes")
            violations.append(f"grid.nodes: not whole numbers: {raw!r}")
        if len(lengths) != dimension:
            violations.append(f"grid.lengths: expected {dimension} values")
        if len(violations) == before:
            try:
                grid = Grid([int(n) for n in nodes], lengths)
            except UsageError as exc:
                violations.append(f"grid: {exc}")

    # material: checked once its required keys parsed
    keys = _section(parser, "material", violations)
    params = None
    if len(keys) == len(_SCHEMA["material"]):
        try:
            params = MaterialParams(**keys)
        except UsageError as exc:
            violations += [f"material: {v}" for v in str(exc).split("; ")]

    keys = _section(parser, "stepper", violations)
    t_end = keys.get("t_end")
    stepper = None
    if "dt" in keys:
        try:
            stepper = StepperConfig(dt=keys["dt"])
        except UsageError as exc:
            violations.append(f"stepper: {exc}")
    if t_end is not None and t_end <= 0.0:
        violations.append(f"stepper.t_end: t_end = {t_end} must be positive")

    # initial: the temperature is checked once every [initial] key parsed
    before = len(violations)
    initial = InitialSpec(**_section(parser, "initial", violations))
    if len(violations) == before and initial.preset in ("uniform", "bump"):
        amp = initial.theta_amplitude if initial.preset == "bump" else 0.0
        if initial.theta0 - abs(amp) <= 0.0:
            violations.append(
                f"initial.theta0: initial temperature can reach "
                f"{initial.theta0 - abs(amp)}; it must stay positive "
                f"(theta0 >= theta_underbar > 0)"
            )

    sources = SourcesSpec(**_section(parser, "sources", violations))
    b_value = sources.b_value
    if b_value is not None and dimension is not None and len(b_value) != dimension:
        violations.append(f"sources.b_value: expected {dimension} values")

    output = OutputSpec(**_section(parser, "output", violations))
    if output.snapshot_every < 0:
        violations.append("output.snapshot_every: must be >= 0")

    if violations:
        raise ConfigError(violations)
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
    """Materialize the configured initial condition on the scenario grid;
    a state that ``SimState.validate`` rejects is refused here, before any
    record of it is made."""
    grid, spec = config.grid, config.initial
    kind, _, arg = spec.preset.partition(":")
    if kind == "uniform":
        return SimState.rest(grid, theta0=spec.theta0)
    if kind == "bump":
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
    if kind == "manufactured":
        return mms.manufacture(
            mms.get_case(arg), grid, config.params).initial_state()
    if kind == "checkpoint":
        state, ck_grid = load_checkpoint(arg)
        if ck_grid != grid:
            raise UsageError(
                f"checkpoint grid {ck_grid} does not match scenario grid {grid}"
            )
        return state.validate()
    raise UsageError(f"unknown initial preset {spec.preset!r}")


def build_sources(config):
    """Materialize the configured body force and heat source."""
    grid, spec = config.grid, config.sources
    problems = {}

    def source(value, constant, manufactured):
        """The ``b`` or ``g`` source that ``value`` names; None for zero."""
        kind, _, case = value.partition(":")
        if kind == "manufactured":
            if case not in problems:
                problems[case] = mms.manufacture(
                    mms.get_case(case), grid, config.params)
            return getattr(problems[case], manufactured)
        return constant if kind == "constant" else None

    constant = Sources.constant(grid, b_value=spec.b_value,
                                g_value=spec.g_value)
    return Sources(b=source(spec.b, constant.b, "body_force"),
                   g=source(spec.g, constant.g, "heat_source"))


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
    theta_min = float(np.min(out.theta.data))
    if theta_min <= 0.0:
        raise UsageError(
            f"perturbing {field_name} by {delta:g} drives the initial "
            f"temperature to {theta_min:g}; it must stay positive")
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
    _write_csv(path, CSV_FIELDS, (
        [getattr(rec, name) for name in CSV_FIELDS] for rec in records))


def _write_csv(path, header, rows):
    """Write the column names ``header`` and then each row of numbers, one
    line each, every number in the form of :func:`_format_value`."""
    _write_lines(path, [",".join(header)] + [
        ",".join(_format_value(value) for value in row) for row in rows])


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
    # each block in one C-level pass: "%.17g" writes what
    # format(v, ".17g") writes
    for name, fld in (("displacement", state.u), ("velocity", state.v)):
        lines.append(f"VECTORS {name} double")
        lines.append("\n".join(["%.17g %.17g %.17g"] * n)
                     % tuple(_pad3(fld.data).ravel().tolist()))
    lines.append("SCALARS temperature double 1")
    lines.append("LOOKUP_TABLE default")
    lines.append("\n".join(["%.17g"] * n)
                 % tuple(_x_fastest(state.theta.data, grid.d).tolist()))
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

def cmd_run(args):
    """Stream a scenario's steps into the diagnostics and the snapshots,
    keeping no states.  When a step or a snapshot fails with a
    ``KvsimError`` or an ``OSError``, the CSV holds the records of every
    step accepted before it, and the error reaches ``main``; any other
    exception leaves no CSV."""
    config = load_config(args.config)
    state = build_initial_state(config)
    sources = build_sources(config)
    collector = DiagnosticsCollector(config.params, initial_state=state)
    every = config.output.snapshot_every
    n_steps = 0
    try:
        for event in steps(state, config.params, config.stepper,
                           config.t_end, sources=sources):
            collector(event)
            n_steps = event.index + 1
            if every > 0 and n_steps % every == 0:
                prefix = f"{config.output.snapshot_prefix}{n_steps:06d}"
                write_vtk_snapshot(event.state_new, prefix + ".vtk")
                save_checkpoint(event.state_new, prefix + ".ckpt")
    except (KvsimError, OSError):
        if config.output.csv:
            write_diagnostics_csv(collector.records, config.output.csv)
        raise
    if config.output.csv:
        write_diagnostics_csv(collector.records, config.output.csv)
    last = collector.records[-1]
    print(f"completed {n_steps} steps to t = {_format_value(last.t)}")
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

    def states(initial):
        yield initial
        for event in steps(initial, config.params, config.stepper,
                           config.t_end, sources):
            yield event.state_new

    report = gronwall_compare(states(perturbed_state), states(base_state),
                              config.params)
    out_path = args.out or f"{args.config}.gronwall-{args.field}.csv"
    _write_csv(out_path, ("t", "x", "rate", "bound"),
               zip(report.times, report.x, report.a, report.bound))
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
    for p in paths:
        state, grid = load_checkpoint(p)
        if states and grid != states[0].grid:
            raise UsageError(f"checkpoint {p} is on a different grid")
        states.append(state)
    states.sort(key=lambda s: s.t)
    return states


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
    states = _load_trajectory_states(args.traj)
    times = [s.t for s in states]
    quantities = {
        "theta": [s.theta for s in states],
        "|u|": [magnitude(s.u) for s in states],
        "|v|": [magnitude(s.v) for s in states],
    }
    # every value first, so a refused trajectory prints nothing
    values = {f"L_(p,p0) of {name:6s}": mixed_norm(fields, times, p, p0)
              for name, fields in quantities.items()}
    values["V2 norm of theta  "] = v2_norm(quantities["theta"], times)
    print(f"{len(states)} snapshots from t = {_format_value(times[0])} "
          f"to t = {_format_value(times[-1])}, p = {args.p}, p0 = {args.p0}")
    for label, value in values.items():
        print(f"{label} {_format_value(value)}")
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
