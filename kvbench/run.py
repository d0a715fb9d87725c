"""kvsim benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 kvbench/run.py --workload bump2d_desk --seed 1 --seconds 36 --trace 0
    python3 kvbench/run.py --smoke

Each run of kvsim is a fresh child process (``child.py``) that gets only
the scenario file generated from ``--seed``.  For ``--seconds`` seconds
the benchmark first times four set-up-only runs, then whole runs, one at
a time, and reports medians.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` from runs that carry only a step timer and
speed readings; ``--trace 1`` alternates such runs with traced ones and
reports the per-layer metrics.  Every run's outputs are checked; the
last line of standard output is one JSON object with the verdict and the
metrics.  Inputs, per-run results and the spans of traced runs are kept
under ``.kvbench/`` in the repository root.

End-to-end times (``wall_s``, ``setup_s``, ``step_ms_p50`` and
``node_steps_per_s``) are normalised for the host's speed.  Other
tenants of a shared host slow a run down by up to twice, in phases of
seconds to minutes; on a 2-vCPU virtual machine, raw medians of ten
seeds spread by 25-40 % of their median (first to third quartile).
``child.py`` times a small fixed reference kernel at step and solve
boundaries, at most every 20 ms of program time, and ``normalised``
scales each stretch of the run to the speed at which that kernel takes
``REFERENCE_S``; the spread drops to about 3 %.  A change to kvsim moves
these times as it moves raw ones, with one exception: a reading pays
for refilling the few tens of kilobytes of cache the reference uses, so
a change that evicts more of the cache shows a few percent less of its
cost.  The raw medians are printed and saved next to the normalised
ones.  Per-layer times are raw.
"""

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import EXACT_COUNTS, layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".kvbench"
SETUP_RUNS = 4
# End-to-end times are reported in seconds at the host speed at which one
# speed reading of child.py takes this long.  On the 2-vCPU Xeon
# (Sapphire Rapids) virtual machine the benchmark was written on, the
# median reading of a run ranged from about 65 us to 110 us.
REFERENCE_S = 100e-6
# One BLAS thread: kvsim's CG is single-threaded sparse work, and on a
# small shared machine extra threads only add noise.
BLAS_THREADS = 1
# No run starts after this many seconds, so that the benchmark ends
# within three minutes even when a run is slow.
LAST_START_S = 120.0
KILL_AFTER_S = 170.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def environment():
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "caches": caches,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(run_dir, mode, argv, inputs, timeout):
    """Run one child; returns its result dict, or raises CheckFailed."""
    run_dir.mkdir()
    for name, text in inputs.items():
        (run_dir / name).write_text(text)
    result_path = run_dir / "result.json"
    with open(run_dir / "log.txt", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path),
                 mode, "--", *argv],
                cwd=run_dir, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"killed after {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise CheckFailed(f"exit code {proc.returncode}; see {run_dir / 'log.txt'}")
    return json.loads(result_path.read_text())


def output_digests(run_dir):
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((run_dir / "out").rglob("*")) if p.is_file()}


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = math.ceil(p / 100.0 * n)
            return {"percentile": p, "value": sorted(samples)[rank - 1],
                    "samples": n}
    return None


def normalised(result):
    """A run's times in seconds at the reference speed.

    ``child.py`` takes speed readings (the time of a fixed reference
    kernel) along the run.  Each reading stands for the program time
    nearer to it than to its neighbours, and a stretch of program time
    counts ``REFERENCE_S / reading`` times its length: as long as it
    would have taken at the host speed where a reading takes
    ``REFERENCE_S``.  Returns ``setup_s`` and, for whole runs,
    ``wall_s`` and ``step_s`` so scaled.
    """
    times = [t for t, _ in result["readings"]]
    scale = [REFERENCE_S / d for _, d in result["readings"]]
    edges = [0.0] + [(a + b) / 2 for a, b in zip(times, times[1:])]
    total = [0.0]
    for i in range(1, len(edges)):
        total.append(total[-1] + (edges[i] - edges[i - 1]) * scale[i - 1])

    def upto(t):
        i = bisect.bisect_right(edges, t) - 1
        return total[i] + (t - edges[i]) * scale[i]

    return raw(result, upto)


def raw(result, clock=float):
    """A run's times as the program's clock read them (or as ``clock``
    maps them)."""
    out = {"setup_s": clock(result["setup_s"])}
    if "wall_s" in result:
        out["wall_s"] = clock(result["wall_s"])
        out["step_s"] = [clock(e) - clock(s) for s, e in result["steps"]]
    return out


class Measurement:
    """The runs of one workload and seed, and their checks."""

    def __init__(self, workload, seed, size, trace):
        self.workload = WORKLOADS[workload]
        self.size = size
        self.trace = trace
        self.inputs, self.argv = self.workload.inputs(seed, size)
        suffix = "" if size == "full" else f"-{size}"
        self.dir = OUT / f"{workload}-seed{seed}-trace{trace}{suffix}"
        self.runs = []  # dicts: mode, result, error
        self.figures = {}
        self.digests = None
        self.counts = None

    def run_once(self, mode, started):
        index = len(self.runs)
        run_dir = self.dir / f"{index:02d}-{mode}"
        record = {"mode": mode, "dir": run_dir.name, "result": None, "error": None}
        self.runs.append(record)
        try:
            timeout = max(1.0, KILL_AFTER_S - (time.monotonic() - started))
            result = launch(run_dir, mode, self.argv, self.inputs, timeout)
            record["result"] = result
            if mode != "setup":
                self.check(run_dir, mode, result)
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            # missing or malformed outputs count as a failed run
            record["error"] = f"{type(exc).__name__}: {exc}"
            print(f"run {run_dir.name} failed: {exc}", file=sys.stderr)
        earlier = any(r["mode"] == mode for r in self.runs[:-1])
        if earlier and (run_dir / "out").exists():
            shutil.rmtree(run_dir / "out")  # keep disk use bounded

    def check(self, run_dir, mode, result):
        self.figures.update(self.workload.check(run_dir, self.size))
        digests = output_digests(run_dir)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise CheckFailed("outputs differ from the first run of this seed")
        if mode == "trace":
            layers = layer_metrics(result["trace"])
            counts = {k: layers[k] for k in EXACT_COUNTS}
            if self.counts is None:
                self.counts = counts
            elif counts != self.counts:
                raise CheckFailed(f"per-layer counts differ: {counts} "
                                  f"!= {self.counts}")
            result["layers"] = layers

    def run(self, seconds):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        started = time.monotonic()
        for _ in range(SETUP_RUNS):
            self.run_once("setup", started)
        cycle = ["plain", "trace"] if self.trace else ["plain"]
        needed = {"plain": 2} if not self.trace else {"plain": 1, "trace": 2}
        durations = []
        while True:
            elapsed = time.monotonic() - started
            done = {m: sum(r["mode"] == m and r["error"] is None
                           for r in self.runs) for m in cycle}
            short = any(done[m] < n for m, n in needed.items())
            expected = statistics.mean(durations) if durations else 0.0
            if elapsed > LAST_START_S or (
                    not short and elapsed + expected > seconds):
                break
            if short and len(durations) >= 4 * sum(needed.values()):
                break  # runs keep failing
            begin = time.monotonic()
            self.run_once(cycle[len(durations) % len(cycle)], started)
            durations.append(time.monotonic() - begin)

    def ok(self, mode):
        return [r["result"] for r in self.runs
                if r["mode"] == mode and r["error"] is None]

    def end_to_end(self, times):
        """Medians over the plain runs of the times that ``times``
        (``normalised`` or ``raw``) gives each run, and the step tail."""
        plain = self.ok("plain")
        runs = [times(r) for r in plain]
        setups = [times(r)["setup_s"] for r in self.ok("setup")]
        setups += [r["setup_s"] for r in runs]
        steps = [1e3 * s for r in runs for s in r["step_s"]]
        return {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "node_steps_per_s": statistics.median(
                p["node_steps"] / r["wall_s"] for p, r in zip(plain, runs)),
            "step_ms_p50": statistics.median(steps),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }, tail(steps)

    def per_layer(self):
        traced = self.ok("trace")
        out = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
        out.update(self.counts)  # equal in every traced run
        out["setup.import_s"] = statistics.median(r["import_s"] for r in traced)
        out["setup.scipy_sparse_import_s"] = statistics.median(
            r["scipy_sparse_import_s"] for r in traced)
        out["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in self.ok("plain")) - 1.0)
        return out

    def self_time_split(self):
        """Median self seconds per span name over the traced runs."""
        traced = self.ok("trace")
        names = sorted({n for r in traced for n in r["trace"]["self_s"]})
        return {n: statistics.median(r["trace"]["self_s"].get(n, 0.0)
                                     for r in traced) for n in names}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the benchmark's result object and a
    report of everything measured."""
    spec = benchmark_spec()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    m = Measurement(workload, seed, size, trace)
    m.run(seconds)
    attempted = sum(r["mode"] != "setup" for r in m.runs)
    failed = sum(r["mode"] != "setup" and r["error"] is not None for r in m.runs)
    setup_failed = sum(r["mode"] == "setup" and r["error"] is not None
                       for r in m.runs)
    report = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "environment": environment(), "inputs": m.inputs,
        "argv": m.argv, "runs": m.runs, "figures": m.figures,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    values = {}
    complete = m.ok("plain") and (not trace or m.ok("trace"))
    if complete:
        e2e, report["step_ms_tail"] = m.end_to_end(normalised)
        report["end_to_end"] = e2e
        report["end_to_end_raw"], _ = m.end_to_end(raw)
        report["reading_us"] = 1e6 * statistics.median(
            d for r in m.ok("plain") for _, d in r["readings"])
        if trace:
            values = m.per_layer()
            report["per_layer"] = values
            report["self_s"] = m.self_time_split()
        else:
            values = e2e
    unknown = set(values) - {x["name"] for x in listed}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
               for x in listed if x["name"] in values}
    result = {
        "correct": bool(complete) and failed == 0 and setup_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["result"] = result
    (m.dir / "results.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, report


def print_report(report):
    result = report["result"]
    runs = report["runs"]
    n_setup = sum(r["mode"] == "setup" for r in runs)
    print(f"kvbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}: {result['attempted']} runs "
          f"+ {n_setup} set-up runs, {result['failed']} failed")
    e2e = report.get("end_to_end", {})
    spec = benchmark_spec()
    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<34} {value:.6g} {units[name]}")
    tail_ = report.get("step_ms_tail")
    if tail_:
        print(f"  {'step_ms_tail':<34} {tail_['value']:.6g} ms "
              f"(p{tail_['percentile']:g} of {tail_['samples']} steps)")
    elif e2e:
        print(f"  {'step_ms_tail':<34} n/a: too few steps for a tail")
    if e2e:
        print(f"  raw times (median reading {report['reading_us']:.4g} us, "
              f"reference {1e6 * REFERENCE_S:g} us):")
        for name, value in report["end_to_end_raw"].items():
            print(f"    {name:<32} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<34} {report['error_rate']:.6g} ratio")
    for name, value in report["figures"].items():
        print(f"  {name:<34} {value:.6g} -")
    if report["trace"] and "per_layer" in report:
        for name, value in report["per_layer"].items():
            print(f"  {name:<34} {value:.6g} {units[name]}")
        print("  self time by span (median s):")
        split = sorted(report["self_s"].items(), key=lambda kv: -kv[1])
        for name, value in split:
            print(f"    {name:<32} {value:.6g}")


def smoke(workload):
    """Toy-size runs: every listed metric present with its unit, and the
    per-layer counts repeat exactly across two traced runs."""
    spec = benchmark_spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, report = measure(workload, 1, 0, trace, size="toy")
        if not result["correct"]:
            raise CheckFailed(f"{workload} trace={trace}: {report['runs']}")
        want = {x["name"]: x["unit"] for x in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            raise CheckFailed(f"{workload} trace={trace}: metrics {got} "
                              f"!= {want}")
    traced = [r["result"]["layers"] for r in report["runs"]
              if r["mode"] == "trace"]
    counts = [{k: layers[k] for k in EXACT_COUNTS} for layers in traced]
    if len(counts) < 2 or any(c != counts[0] for c in counts):
        raise CheckFailed(f"{workload}: per-layer counts differ: {counts}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the "
                             "benchmark itself")
    args = parser.parse_args()
    if not (ROOT / "src" / "kvsim" / "__init__.py").is_file():
        print(f"kvbench: no kvsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        for name in WORKLOADS:
            smoke(name)
            print(f"smoke {name}: ok")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, report = measure(args.workload, args.seed, args.seconds, args.trace)
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
