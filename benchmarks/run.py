"""sprayjets benchmark: one workload, one seed, one closed-loop client.

    python3 benchmarks/run.py --workload base-flow --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else; the package is imported
from ``src/`` next to this directory.  One thread issues each task after
the previous one finished.  The task list is drawn once from the seed; a
pass runs it in order, and passes repeat until ``--seconds`` have been
measured.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are:

- ``task_p50_ms``, ``task_p90_ms``: percentiles over the task list of each
  task's median latency across the passes (the sample count is the
  number of tasks in the list);
- ``wall_s``: one pass at those latencies, i.e. their sum;
- ``setup_s``: median over fresh interpreters of the time from process
  start to the first task (import, sprays and lifts, input generation);
- ``peak_rss_mb``: this process's peak resident set after the passes.

The three task timings are seconds at the host's unloaded speed: each
latency is scaled by the time of a fixed reference kernel run just before
and after the task (see ``reference.py``), because the shared host's
speed drifts by up to a factor of two between phases and a raw latency
mostly measures the phase.  The raw latencies go to the record beside
them.  ``setup_s`` is scaled likewise, by the kernel timed inside each
probe process right after its set-up.

With ``--trace 1`` half the time runs untraced passes and half traced ones;
the per-layer metrics come from the spans (see ``spans.LAYER_METRICS``).

Either way every task's result is checked: ``failed`` counts tasks with a
failed check or a sprayjets error, so fail_frac is failed / attempted.
Afterwards all 15 ``sprayjets-run`` scenario x manifold pairs run twice
in-process and must pass with byte-identical reports; otherwise the run
exits with status 1 and prints no result.  The last line of standard
output is the JSON result; a fuller record, with the Python, numpy, scipy
and CPU details, the git commit and the seed, goes to ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 15


def load_sprayjets():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sprayjets" / "__init__.py").is_file():
        sys.exit(f"error: no sprayjets sources under {src}")
    sys.path.insert(0, str(src))
    sj = importlib.import_module("sprayjets")
    if Path(sj.__file__).resolve().parent != (src / "sprayjets").resolve():
        sys.exit(f"error: imported sprayjets from {sj.__file__}, not from {src}")
    for sub in ("errors", "geodesic", "jacobi", "jetspace", "runner", "samples",
                "spray", "subspray"):
        importlib.import_module(f"sprayjets.{sub}")
    return sj


class Tally:
    """Attempted and failed tasks, the first failures, and the worst tolerance use."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_use = 0.0
        self.failures: list[str] = []

    def add(self, task, checks) -> None:
        self.attempted += 1
        self.worst_use = max(self.worst_use, checks.worst_use)
        if checks.failures:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{task.kind}: {'; '.join(checks.failures)}")


def run_pass(sj, wl, tally: Tally, tracer=None) -> tuple[list[float], list[float]]:
    """Run every task once, in order, with the reference kernel timed between tasks.

    Returns each task's latency in seconds, and the same latency at the
    unloaded speed, scaled by the kernel times just before and after it.
    """
    raw, scaled = [], []
    ref_before = reference.timed()
    for i, task in enumerate(wl.tasks):
        root = tracer.begin_task(i) if tracer else None
        t0 = time.perf_counter()
        checks = workloads.run_task(sj, wl, task)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
        ref_after = reference.timed()
        raw.append(latency)
        scaled.append(reference.scale(latency, ref_before, ref_after))
        ref_before = ref_after
        tally.add(task, checks)
    return raw, scaled


def task_latencies(sj, wl, tally: Tally, seconds: float, tracer=None,
                   between=None) -> tuple[list[float], list[float], int]:
    """Each task's median latency over whole passes run for ``seconds``.

    The host's speed drifts between phases up to twice apart, so a raw
    latency mostly measures the phase.  The median of the reference-scaled
    latencies cancels it; the raw medians are returned beside them for the
    record.  ``between(passes)``, when given, runs after each pass outside
    the measured time.  Runs at least one pass; returns the scaled and raw
    medians and the pass count.
    """
    raw: list[list[float]] = []
    scaled: list[list[float]] = []
    measured = 0.0
    while not raw or measured < seconds:
        t0 = time.perf_counter()
        pass_raw, pass_scaled = run_pass(sj, wl, tally, tracer)
        measured += time.perf_counter() - t0
        raw.append(pass_raw)
        scaled.append(pass_scaled)
        if between:
            between(len(raw))
    return ([statistics.median(col) for col in zip(*scaled)],
            [statistics.median(col) for col in zip(*raw)], len(raw))


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One set-up sample: process start to first task, in a fresh interpreter.

    The probe imports the package, builds the sprays and lifts, draws the
    inputs and prints CLOCK_MONOTONIC, which is system-wide, then the time
    of the reference kernel in that process.  Returns the raw time and the
    time scaled to the unloaded speed by that kernel time.
    """
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    stamp, kernel_s = (float(x) for x in done.stdout.strip().splitlines()[-2:])
    return stamp - t0, reference.scale(stamp - t0, kernel_s, kernel_s)


def end_to_end(sj, workload: str, seed: int, seconds: float):
    wl = workloads.build(sj, workload, seed)
    tally = Tally()
    warm = sum(run_pass(sj, wl, tally)[0])  # warm-up: lazy tables, first-call costs
    # the set-up probes are spread over the run, so their median covers all of it
    stride = max(1, round(seconds / (warm * SETUP_PROBES)))
    setup: list[tuple[float, float]] = []

    def probe(passes: int) -> None:
        if passes % stride == 0 and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(workload, seed))

    scaled, raw, passes = task_latencies(sj, wl, tally, seconds, between=probe)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (sum(scaled), "s"),
        "task_p50_ms": (1e3 * float(numpy.percentile(scaled, 50)), "ms"),
        "task_p90_ms": (1e3 * float(numpy.percentile(scaled, 90)), "ms"),
        "setup_s": (statistics.median([s for _, s in setup]), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {"passes": passes, "latency_samples": len(scaled), "setup_raw_s": [r for r, _ in setup],
             "task_median_s": scaled, "task_median_raw_s": raw, "raw_wall_s": sum(raw)}
    return metrics, tally, notes


def per_layer(sj, workload: str, seed: int, seconds: float):
    wl = workloads.build(sj, workload, seed)
    tally = Tally()
    run_pass(sj, wl, tally)
    plain, _, plain_passes = task_latencies(sj, wl, tally, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install(sj)
    try:
        # rebuilt after install: pushforward_spray binds jet_apply when called
        traced_wl = workloads.build(sj, workload, seed)
        traced, _, traced_passes = task_latencies(sj, traced_wl, tally, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(traced_passes, sum(plain), sum(traced), tally.worst_use)
    units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload}.spans.npz")
    notes = {"untraced_passes": plain_passes, "traced_passes": traced_passes,
             "spans": len(tracer.end), "tasks_per_pass": len(wl.tasks)}
    return metrics, tally, notes


def check_scenarios(sj) -> None:
    """All runner scenario x manifold pairs pass, twice, with identical bytes."""
    runner = sj.runner
    problems = []
    for scenario in runner.SCENARIOS:
        for manifold in runner.MANIFOLDS:
            reports, codes = [], []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(runner.main(["--scenario", scenario, "--manifold", manifold]))
                reports.append(buf.getvalue().encode("utf-8"))
            if codes != [0, 0]:
                problems.append(f"{scenario}/{manifold} exit codes {codes}")
            elif reports[0] != reports[1]:
                problems.append(f"{scenario}/{manifold} reports differ between two calls")
    if problems:
        for line in problems:
            print(f"scenario self-check FAILED: {line}", file=sys.stderr)
        sys.exit(1)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` inside it; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    try:
        getconf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        getconf = ""
    for line in getconf.splitlines():
        key, _, value = line.partition(" ")
        if key.endswith("CACHE_SIZE") and value.strip():
            caches[key] = int(value)
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "cpu": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cache_bytes": caches,
        "git_commit": git_commit(), "seed": seed,
        "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sj = load_sprayjets()
    if args.trace:
        metrics, tally, notes = per_layer(sj, args.workload, args.seed, args.seconds)
    else:
        metrics, tally, notes = end_to_end(sj, args.workload, args.seed, args.seconds)
    check_scenarios(sj)

    env = environment(args.seed)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  env=env, notes=notes, fail_frac=tally.failed / tally.attempted,
                  failures=tally.failures, worst_tol_use=tally.worst_use)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for line in tally.failures:
        print(f"FAILED {line}")
    summary = {k: v for k, v in notes.items() if not isinstance(v, list)}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(summary)}")
    print(f"fail_frac = {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} tasks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"env {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
