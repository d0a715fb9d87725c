"""The benchmark's workloads: seeded scenario files, kvsim arguments, and
the checks each run's outputs must pass.

Every workload writes its inputs into the run directory from the seed
alone; kvsim receives nothing else.  ``size="toy"`` shrinks the grids and
step counts for the smoke test; the mms ladder is fixed by the command
line, so it has no toy size.
"""

import csv
import math
import random

CSV_FIELDS = (
    "t", "kinetic_energy", "elastic_energy", "thermal_energy", "total_energy",
    "entropy", "availability", "theta_min", "theta_max", "entropy_production",
    "energy_residual", "entropy_residual", "clausius_duhem_defect",
    "grad_theta_dissipation", "strain_rate_dissipation", "picard_iterations",
)

# Material parameters of bump2d.cfg and of `kvsim mms` without --config;
# the mms workload scales each of them by a seeded factor within +-15 %.
DEFAULT_PARAMS = dict(lambda1=1.0, mu1=1.0, lambda2=1.0, mu2=1.0, k=1.0,
                      cv=1.0, alpha=0.1, beta=1.0)
# Band of acceptance criterion 9 for the spatial orders.
MMS_ORDER_BAND = (1.7, 2.3)


class CheckFailed(Exception):
    pass


def _scenario(nodes, dt, steps, velocity_amplitude, theta_amplitude,
              snapshot_every, material=None):
    material = material or DEFAULT_PARAMS
    lines = [
        "[grid]",
        "dimension = 2",
        f"nodes = {nodes} {nodes}",
        "lengths = 1.0 1.0",
        "",
        "[material]",
        *(f"{k} = {v!r}" for k, v in material.items()),
        "",
        "[stepper]",
        f"dt = {dt!r}",
        f"t_end = {dt * steps!r}",
        "",
        "[initial]",
        "preset = bump",
        "theta0 = 1.0",
        f"velocity_amplitude = {velocity_amplitude!r}",
        f"theta_amplitude = {theta_amplitude!r}",
        "",
        "[sources]",
        "b = zero",
        "g = zero",
        "",
        "[output]",
        "csv = out/diagnostics.csv",
        f"snapshot_every = {snapshot_every}",
        "snapshot_prefix = out/state_",
    ]
    return "\n".join(lines) + "\n"


def _bump_amplitudes(seed):
    """The shipped bump2d amplitudes (0.2, 0.1), each scaled by +-15 %."""
    rng = random.Random(seed)
    return 0.2 * rng.uniform(0.85, 1.15), 0.1 * rng.uniform(0.85, 1.15)


class Bump:
    """`kvsim run` on the bump2d set-up; checks its diagnostics CSV."""

    def __init__(self, name, nodes, steps, snapshot_every, toy):
        self.name = name
        self.sizes = {"full": (nodes, steps), "toy": toy}
        self.snapshot_every = snapshot_every

    def inputs(self, seed, size):
        nodes, steps = self.sizes[size]
        va, ta = _bump_amplitudes(seed)
        text = _scenario(nodes, 0.02, steps, va, ta, self.snapshot_every)
        return {"scenario.cfg": text}, ["run", "--config", "scenario.cfg"]

    def check(self, run_dir, size):
        """Validate one run's CSV; returns the user-visible figures."""
        _, steps = self.sizes[size]
        with open(run_dir / "out" / "diagnostics.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        if tuple(rows[0]) != CSV_FIELDS:
            raise CheckFailed(f"CSV header is {rows[0]}")
        if len(rows) != steps + 2:
            raise CheckFailed(f"CSV has {len(rows) - 1} rows, "
                              f"expected {steps + 1}")
        records = [dict(zip(CSV_FIELDS, map(float, row))) for row in rows[1:]]
        for rec in records:
            if not all(math.isfinite(v) for v in rec.values()):
                raise CheckFailed(f"non-finite value in the row at t={rec['t']}")
            if rec["entropy_production"] < 0.0:
                raise CheckFailed(f"negative entropy production at t={rec['t']}")
            if rec["theta_min"] <= 0.0:
                raise CheckFailed(f"nonpositive temperature at t={rec['t']}")
        if self.snapshot_every:
            expected = steps // self.snapshot_every
            for ext in ("vtk", "ckpt"):
                found = len(list((run_dir / "out").glob(f"state_*.{ext}")))
                if found != expected:
                    raise CheckFailed(f"{found} .{ext} snapshots, "
                                      f"expected {expected}")
        return {"energy_residual_max": max(r["energy_residual"]
                                           for r in records)}


class MmsSpatial:
    """`kvsim mms --mode spatial --levels 3` with seeded material
    parameters; checks the order report against criterion 9's band."""

    name = "mms_spatial"

    def inputs(self, seed, size):
        rng = random.Random(seed)
        material = {k: v * rng.uniform(0.85, 1.15)
                    for k, v in DEFAULT_PARAMS.items()}
        text = _scenario(9, 0.0125, 1, 0.0, 0.0, 0, material)
        argv = ["mms", "--mode", "spatial", "--levels", "3",
                "--config", "scenario.cfg", "--out", "out/report.txt"]
        return {"scenario.cfg": text}, argv

    def check(self, run_dir, size):
        lines = (run_dir / "out" / "report.txt").read_text().splitlines()
        levels = [[float(tok) for tok in line.split()[3:]]
                  for line in lines[2:5]]
        orders = [float(line.rsplit(":", 1)[1]) for line in lines[5:8]]
        low, high = MMS_ORDER_BAND
        if not all(low <= p <= high for p in orders):
            raise CheckFailed(f"spatial orders {orders} outside [{low}, {high}]")
        for var, errs in zip(("u", "v", "theta"), zip(*levels)):
            if not all(a > b for a, b in zip(errs, errs[1:])):
                raise CheckFailed(f"errors of {var} do not decrease: {errs}")
        return {"mms_err_max": max(levels[-1])}


WORKLOADS = {
    w.name: w for w in (
        # 50 steps of the shipped 33^2 scenario, VTK+checkpoint every 5th
        Bump("bump2d_desk", 33, 50, 5, toy=(9, 10)),
        # 129^2, snapshots off: two steps already cost seconds in CG
        Bump("bump2d_fine", 129, 2, 0, toy=(17, 2)),
        MmsSpatial(),
    )
}
