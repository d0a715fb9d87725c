"""Property test of `kvsim run` over small random scenarios.

Every drawn scenario either runs to the end and writes a finite
diagnostics CSV that keeps the thermodynamic signs (entropy production
>= 0, theta_min > 0), or fails with a typed error and its exit code
(2 configuration, 3 numerical, 4 I/O); no other exception escapes.
"""

import csv
import math
import tempfile
from datetime import timedelta
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kvsim import Grid, SimState  # noqa: E402
from kvsim.cli_io import main, save_checkpoint  # noqa: E402
from kvsim.mms import CASES  # noqa: E402

MATERIAL = ("lambda1", "mu1", "lambda2", "mu2", "k", "cv", "alpha", "beta")
SOURCE_KINDS = ("zero", "constant") + tuple(f"manufactured:{c}" for c in CASES)
PRESETS = ("uniform", "bump", "checkpoint") + tuple(
    f"manufactured:{c}" for c in CASES
)

positive = st.floats(0.1, 10.0)
# about one scenario in five makes one Lame or viscosity constant negative,
# which mostly leaves the elasticity range (a configuration error)
breach = st.sampled_from((None,) * 16 + ("lambda1", "mu1", "lambda2", "mu2"))


@st.composite
def scenarios(draw):
    d = draw(st.integers(1, 3))
    material = {name: draw(positive) for name in MATERIAL}
    negative = draw(breach)
    if negative is not None:
        material[negative] = draw(st.floats(-10.0, -0.1))
    return {
        "nodes": draw(st.lists(st.integers(3, 9), min_size=d, max_size=d)),
        "lengths": draw(st.lists(positive, min_size=d, max_size=d)),
        "material": material,
        "dt": draw(st.floats(1e-3, 1.0)),
        "steps": draw(st.integers(1, 3)),
        "preset": draw(st.sampled_from(PRESETS)),
        "theta0": draw(positive),
        "velocity_amplitude": draw(st.floats(0.0, 1.0)),
        "theta_amplitude": draw(st.floats(0.0, 2.0)),
        "b": draw(st.sampled_from(SOURCE_KINDS)),
        "b_value": draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)),
        "g": draw(st.sampled_from(SOURCE_KINDS)),
        "g_value": draw(st.floats(-1.0, 1.0)),
    }


def _write_scenario(s, directory):
    preset = s["preset"]
    if preset == "checkpoint":
        # a rest state on the drawn grid to start from
        path = directory / "start.ckpt"
        state = SimState.rest(Grid(s["nodes"], s["lengths"]), theta0=s["theta0"])
        save_checkpoint(state, path)
        preset = f"checkpoint:{path}"
    # each kind-dependent key only under a kind that reads it: a key the
    # kind would drop is a configuration error
    kind = preset.partition(":")[0]
    initial = [f"preset = {preset}"]
    if kind in ("uniform", "bump"):
        initial.append(f"theta0 = {s['theta0']!r}")
    if kind == "bump":
        initial += [f"velocity_amplitude = {s['velocity_amplitude']!r}",
                    f"theta_amplitude = {s['theta_amplitude']!r}"]
    sources = [f"b = {s['b']}"]
    if s["b"] == "constant":
        sources.append("b_value = " + " ".join(map(repr, s["b_value"])))
    sources.append(f"g = {s['g']}")
    if s["g"] == "constant":
        sources.append(f"g_value = {s['g_value']!r}")
    lines = [
        "[grid]",
        f"dimension = {len(s['nodes'])}",
        "nodes = " + " ".join(map(str, s["nodes"])),
        "lengths = " + " ".join(map(repr, s["lengths"])),
        "[material]",
        *(f"{name} = {value!r}" for name, value in s["material"].items()),
        "[stepper]",
        f"dt = {s['dt']!r}",
        f"t_end = {s['dt'] * s['steps']!r}",
        "[initial]",
        *initial,
        "[sources]",
        *sources,
        "[output]",
        f"csv = {directory / 'diagnostics.csv'}",
    ]
    path = directory / "scenario.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@settings(max_examples=40, derandomize=True, database=None,
          deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_run_succeeds_cleanly_or_fails_typed(s):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        code = main(["run", "--config", str(_write_scenario(s, directory))])
        assert code in (0, 2, 3, 4)
        if code != 0:
            return
        with open(directory / "diagnostics.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
    assert len(rows) >= 2
    for row in rows:
        values = {key: float(value) for key, value in row.items()}
        assert all(math.isfinite(v) for v in values.values()), row
        assert values["entropy_production"] >= 0.0, row
        assert values["theta_min"] > 0.0, row
