"""The benchmark's span tracer still fits the package, and its counters still count.

``benchmarks/spans.py`` rebinds each ``(module, attribute)`` of its
``FUNCTIONS`` table and wraps two methods on their classes; a name that is
gone makes ``Tracer.install`` raise ``AttributeError`` and ends the
per-layer run.  The table is read from the file, not copied, and the
benchmark modules are loaded from their files, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

import sprayjets

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", [*_load("spans").FUNCTIONS, ("spray.Spray", "acceleration"),
                                          ("geodesic.Trajectory", "state_at")])
def test_traced_name_resolves(module, attr):
    owner = sprayjets
    for part in module.split("."):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))


def _traced_pass(workload, names):
    """The named per-layer counters of one traced pass of ``workload`` at seed 1.

    Every run loop the pass gets is checked against the rule of
    ``geodesic._run_loop``: a run inlines exactly when its program is traced
    and the loop built from it has at most 256 locals, the one-byte local
    index.  So a change of which runs inline, and hence of what the
    acceleration counters see, fails here with the loop that moved.
    """
    spans, workloads = _load("spans"), _load("workloads")
    for sub in ("geodesic", "jacobi", "jetspace", "samples", "spray", "subspray"):
        importlib.import_module(f"sprayjets.{sub}")
    geodesic = sprayjets.geodesic
    run_loop = geodesic._run_loop
    runs = {}

    def spy(s, f, n):
        # the tracer rebinds Spray.acceleration, so the program is read here
        program = s.kernel if f == s.acceleration else f
        loop = run_loop(s, f, n)
        runs[id(program), n] = (program, n, s.dim, loop)
        return loop

    tracer = spans.Tracer()
    tracer.install(sprayjets)
    try:
        with mock.patch.object(geodesic, "_run_loop", spy):
            wl = workloads.build(sprayjets, workload, 1)
            for task in wl.tasks:
                assert workloads.run_task(sprayjets, wl, task).failures == []
    finally:
        tracer.uninstall()
    assert runs
    for program, n, dim, loop in runs.values():
        tape = getattr(program, "tape", None)
        where = (program.__code__.co_filename, n)
        if loop is not geodesic._calling(n, dim):
            assert tape is not None and loop.__code__.co_nlocals <= 256, where
        elif tape is not None:
            assert geodesic._rk4(n, dim, tape, "<rk4 loop checked>").__code__.co_nlocals > 256, where
    counts = tracer.layer_metrics(1, 1.0, 1.0, 0.0)
    return {name: counts[name] for name in names}


def test_base_flow_pass_keeps_its_counts():
    # level-0 runs only: a base-flow call the library no longer accepts, or
    # one more run or residual, shows up here before a benchmark run
    expected = {
        "geodesic.integrate.calls": 36,
        "geodesic.integrate.steps": 9000,
        "geodesic.residual.calls": 9,
        "spray.acceleration.L0.calls": 1836,
        "spray.acceleration.L1.calls": 0,
    }
    assert _traced_pass("base-flow", expected) == expected


def test_lifted_jacobi_pass_keeps_its_counts():
    # the pushed spray's kernel is traced, and its geodesic runs in the
    # inlining loop: no L0 call per stage, and jet_apply runs at levels 1
    # and 2 once each, while the kernel is traced; the other L1 calls are
    # those of pushforward
    expected = {
        "spray.acceleration.L0.calls": 11,
        "jetspace.jet_apply.L1.calls": 203,
        "jetspace.jet_apply.L2.calls": 1,
        "jetspace.pushforward.calls": 202,
    }
    assert _traced_pass("lifted-jacobi", expected) == expected


def test_parallel_curves_pass_keeps_its_counts():
    # uniqueness_check integrates no curve of its own, so each parallel-curve
    # task runs its P-geodesic once
    expected = {
        "geodesic.integrate.calls": 18,
        "subspray.geodesic.calls": 9,
        "spray.acceleration.L2.calls": 5453,
    }
    assert _traced_pass("parallel-curves", expected) == expected
