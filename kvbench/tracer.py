"""Span tracing of kvsim from outside the program.

``Tracer.install`` rebinds public functions of the ``kvsim`` modules to
wrappers that record one span (name, start, end, parent id) per call and
a few counts at the same boundaries.  Spans stay in memory until the run
ends; ``summary`` and ``layer_metrics`` turn them into the per-layer
metrics.

The span name's prefix (before the first dot) is the layer.  Self time of
a span is its duration minus the durations of its direct children, so the
self times of all spans add up to the root span, ``cli_io.main``.

``constitutive`` is not wrapped: it takes tens of thousands of calls per
run, so a wrapper would measure itself.  Its time shows up as self time
of its callers.
"""

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli_io", "picard", "linear_step", "grid", "diagnostics", "mms")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.grid = None  # grid of the innermost running Stepper.step

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Wrapper recording a span around ``fn``; ``after(args, result)``
        may record counts from a successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind the public kvsim calls of every layer to traced wrappers.

        Names imported with ``from .x import y`` are rebound in each
        importing module as well, because those modules look them up in
        their own globals.
        """
        from kvsim import cli_io, diagnostics, grid, linear_step, mms, picard
        from kvsim.errors import NonConvergenceError

        def rebind(modules, attr, name, after=None):
            wrapped = self.wrap(name, getattr(modules[0], attr), after)
            for module in modules:
                setattr(module, attr, wrapped)

        def count(key):
            return lambda args, result: self.counts.update((key,))

        def file_bytes(key):
            def after(args, result):
                self.counts[key] += os.path.getsize(args[-1])
            return after

        # cli_io
        rebind([cli_io], "main", "cli_io.main")
        rebind([cli_io], "load_config", "cli_io.config_load")
        rebind([cli_io], "build_initial_state", "cli_io.build_initial_state")
        rebind([cli_io], "build_sources", "cli_io.build_sources")
        rebind([cli_io], "write_diagnostics_csv", "cli_io.csv_write",
               file_bytes("cli_io.csv_bytes"))
        rebind([cli_io], "write_vtk_snapshot", "cli_io.vtk_write",
               file_bytes("cli_io.vtk_bytes"))
        rebind([cli_io], "save_checkpoint", "cli_io.checkpoint_write",
               file_bytes("cli_io.checkpoint_bytes"))

        # picard
        rebind([picard, cli_io, mms], "run", "picard.run")
        step = picard.Stepper.step

        def traced_step(stepper, *args, **kwargs):
            outer, self.grid = self.grid, stepper.grid
            try:
                result = step(stepper, *args, **kwargs)
            finally:
                self.grid = outer
            self.counts["picard.steps"] += 1
            return result

        picard.Stepper.step = self.wrap("picard.step", traced_step)
        picard.Stepper.sweep = self.wrap(
            "picard.sweep", picard.Stepper.sweep, count("picard.sweeps"))

        # linear_step
        rebind([linear_step], "velocity_matrix", "linear_step.operator_setup")
        rebind([linear_step], "heat_stiffness", "linear_step.operator_setup")
        rebind([linear_step], "velocity_rhs", "linear_step.velocity_rhs")
        rebind([linear_step], "heat_matrix", "linear_step.heat_assembly")
        rebind([linear_step], "heat_rhs_vector", "linear_step.heat_assembly")
        solve = linear_step.solve_spd

        @functools.wraps(solve)
        def traced_solve(op, *args, **kwargs):
            # a heat system has one unknown per node, a velocity system
            # d unknowns per interior node
            kind = "heat" if op.size == self.grid.num_nodes else "velocity"
            matrix = op.matrix
            bytes_per_iter = (
                matrix.nnz * (matrix.data.itemsize + matrix.indices.itemsize)
                + matrix.indptr.nbytes + 2 * op.size * matrix.data.itemsize
            )
            index = self._open(f"linear_step.{kind}_solve")
            try:
                x, report = solve(op, *args, **kwargs)
            except NonConvergenceError as exc:
                self.counts["linear_step.cg_failures"] += 1
                if exc.report is not None:
                    self._count_iterations(kind, exc.report.iterations,
                                           bytes_per_iter)
                raise
            finally:
                self._close(index)
            self.counts[f"linear_step.{kind}_solves"] += 1
            self._count_iterations(kind, report.iterations, bytes_per_iter)
            return x, report

        linear_step.solve_spd = traced_solve

        # grid
        rebind([grid, linear_step, diagnostics], "sym_gradient",
               "grid.sym_gradient", count("grid.sym_gradient_calls"))

        # diagnostics
        rebind([diagnostics], "record_for_step", "diagnostics.record")
        rebind([diagnostics], "initial_record", "diagnostics.record")

        # mms
        rebind([mms], "convergence_study", "mms.convergence_study")
        rebind([mms], "manufacture", "mms.manufacture")
        problem = mms.ManufacturedProblem
        problem.body_force = self.wrap("mms.forcing", problem.body_force)
        problem.heat_source = self.wrap("mms.forcing", problem.heat_source)
        problem.exact_state = self.wrap("mms.exact_state", problem.exact_state)

    def _count_iterations(self, kind, iterations, bytes_per_iter):
        self.counts[f"linear_step.{kind}_cg_iters"] += iterations
        self.counts["linear_step.matvec_bytes"] += iterations * bytes_per_iter

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent]) + "\n")

    def summary(self):
        """Busy and self seconds per span name, plus the counts."""
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            self_time[name] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        return {
            "busy_s": dict(busy),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
        }


def layer_metrics(summary):
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    busy = summary["busy_s"]
    self_s = summary["self_s"]
    counts = summary["counts"]

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = c("picard.steps")
    out = {
        "picard.steps": steps,
        "picard.sweeps_per_step": ratio(c("picard.sweeps"), steps),
        "picard.step_s": b("picard.step"),
        "picard.control_self_s": (self_s.get("picard.step", 0.0)
                                  + self_s.get("picard.sweep", 0.0)),
    }
    for kind in ("velocity", "heat"):
        solves = c(f"linear_step.{kind}_solves")
        iters = c(f"linear_step.{kind}_cg_iters")
        seconds = b(f"linear_step.{kind}_solve")
        out[f"linear_step.{kind}_solves"] = solves
        out[f"linear_step.{kind}_cg_iters"] = iters
        out[f"linear_step.{kind}_iters_per_solve"] = ratio(iters, solves)
        out[f"linear_step.{kind}_solve_s"] = seconds
        out[f"linear_step.{kind}_us_per_iter"] = 1e6 * ratio(seconds, iters)
    total_iters = (c("linear_step.velocity_cg_iters")
                   + c("linear_step.heat_cg_iters"))
    out.update({
        "linear_step.velocity_rhs_s": b("linear_step.velocity_rhs"),
        "linear_step.heat_assembly_s": b("linear_step.heat_assembly"),
        "linear_step.operator_setup_s": b("linear_step.operator_setup"),
        "linear_step.matvec_bytes_computed": ratio(
            c("linear_step.matvec_bytes"), total_iters),
        "linear_step.cg_failures": c("linear_step.cg_failures"),
        "grid.sym_gradient_calls_per_step": ratio(
            c("grid.sym_gradient_calls"), steps),
        "grid.sym_gradient_s": b("grid.sym_gradient"),
        "diagnostics.record_s": b("diagnostics.record"),
        "diagnostics.record_ms_per_step": 1e3 * ratio(
            b("diagnostics.record"), steps),
        "mms.manufacture_s": b("mms.manufacture"),
        "mms.forcing_s": b("mms.forcing"),
        "mms.exact_state_s": b("mms.exact_state"),
        "cli_io.config_load_s": b("cli_io.config_load"),
        "cli_io.csv_write_s": b("cli_io.csv_write"),
        "cli_io.csv_bytes": c("cli_io.csv_bytes"),
        "cli_io.vtk_write_s": b("cli_io.vtk_write"),
        "cli_io.vtk_bytes": c("cli_io.vtk_bytes"),
        "cli_io.checkpoint_write_s": b("cli_io.checkpoint_write"),
        "cli_io.checkpoint_bytes": c("cli_io.checkpoint_bytes"),
    })
    root = b("cli_io.main")
    for layer in LAYERS:
        layer_self = sum(v for k, v in self_s.items()
                         if k.split(".", 1)[0] == layer)
        out[f"self_share.{layer}"] = ratio(layer_self, root)
    return out


# Counts that must repeat exactly between runs of one input.
EXACT_COUNTS = (
    "picard.steps",
    "picard.sweeps_per_step",
    "linear_step.velocity_solves",
    "linear_step.velocity_cg_iters",
    "linear_step.heat_solves",
    "linear_step.heat_cg_iters",
    "linear_step.matvec_bytes_computed",
    "linear_step.cg_failures",
    "grid.sym_gradient_calls_per_step",
    "cli_io.csv_bytes",
    "cli_io.vtk_bytes",
    "cli_io.checkpoint_bytes",
)
