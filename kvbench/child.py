"""One benchmark run of kvsim in a fresh process.

Usage: python3 child.py RESULT_JSON MODE -- KVSIM_ARGS...

MODE is ``plain`` (step timer and speed readings only), ``trace`` (the
same plus spans around every layer, written next to RESULT_JSON as
spans.jsonl) or ``setup`` (stop at the first ``Stepper.step``, to time
set-up alone).

The clock starts before ``import kvsim``, so set-up and wall time include
the imports a command-line user pays for on every run.  The process exit
code is the one ``kvsim.cli_io.main`` returns.

Speed readings.  On a shared host, other tenants slow this process down
by up to twice, in phases from a fraction of a second to minutes, so raw
times of the same run differ by tens of percent between minutes.  The
child therefore times a small fixed reference kernel, independent of
kvsim, right after the imports and at step and solve boundaries whenever
``READING_GAP_S`` of program time has passed since the last reading.
Each reading is one pass, with the caches as the program left them, so
that it slows down with the program when neighbours crowd the shared
caches and memory.  The time spent in readings is taken off the
program's clock, so every time reported here is the program's own;
``run.py`` divides each stretch of it by the readings around it.
Traced runs take readings only before and after ``cli_io.main``, so
that none falls inside a span.
"""

import json
import os
import resource
import sys
from time import perf_counter

T0 = perf_counter()
READING_GAP_S = 0.02


class SetupDone(Exception):
    """Raised at the first step of a ``setup`` run."""


class Clock:
    """Program time since ``T0`` without the readings, and the readings."""

    def __init__(self):
        start = perf_counter()
        import numpy as np
        import scipy.sparse as sp

        n = 24
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._np = np
        self._matrix = (sp.kron(line, eye) + sp.kron(eye, line)).tocsr()
        self._vector = np.ones(n * n)
        self._reference()  # the first pass runs cold code paths
        self.paused = perf_counter() - start
        self.readings = []  # (program time, seconds of one reference pass)

    def now(self):
        return perf_counter() - T0 - self.paused

    def _reference(self):
        """Sparse products, vector work and an interpreter loop: the mix
        kvsim's steps are made of."""
        start = perf_counter()
        y = self._vector
        for _ in range(4):
            y = self._matrix @ y
            y = y / float(self._np.sqrt(y @ y))
        acc = 0
        for i in range(400):
            acc += i * i
        return perf_counter() - start

    def read(self, force=False):
        at = self.now()
        if (not force and self.readings
                and at - self.readings[-1][0] < READING_GAP_S):
            return
        start = perf_counter()
        seconds = self._reference()
        self.paused += perf_counter() - start
        self.readings.append((at, seconds))


def main():
    result_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON MODE -- KVSIM_ARGS...")
    argv = sys.argv[4:]

    result = {"mode": mode}
    tracer = None
    if mode == "trace":
        start = perf_counter()
        import scipy.sparse  # noqa: F401  with numpy, most of kvsim's import
        result["scipy_sparse_import_s"] = perf_counter() - start
    from kvsim import cli_io, linear_step, picard

    clock = Clock()
    result["import_s"] = clock.now()
    clock.read(force=True)
    # in traced runs, readings would land inside the spans
    sample = mode != "trace"
    steps = []  # (start, end, nodes) of each accepted step
    step = picard.Stepper.step
    solve = linear_step.solve_spd

    def timed_step(stepper, *args, **kwargs):
        if sample:
            clock.read()
        start = clock.now()
        if mode == "setup":
            result["setup_s"] = start
            raise SetupDone
        out = step(stepper, *args, **kwargs)
        steps.append((start, clock.now(), stepper.grid.num_nodes))
        return out

    def timed_solve(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        finally:
            clock.read()

    picard.Stepper.step = timed_step
    if sample:
        linear_step.solve_spd = timed_solve
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    try:
        code = cli_io.main(argv)
    except SetupDone:
        code = 0
    end = clock.now()
    clock.read(force=True)

    if mode != "setup":
        result.update({
            "wall_s": end,
            "setup_s": steps[0][0] if steps else end,
            "steps": [[s, e] for s, e, _ in steps],
            "node_steps": sum(n for _, _, n in steps),
        })
    result["readings"] = clock.readings
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["exit_code"] = code
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
