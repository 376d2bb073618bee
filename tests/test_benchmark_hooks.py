"""The benchmark's span tracer still fits the package, and its counters still count.

``benchmarks/spans.py`` rebinds each ``(module, attribute)`` of its
``FUNCTIONS`` table and wraps two methods on their classes; a name that is
gone makes ``Tracer.install`` raise ``AttributeError`` and ends the
per-layer run.  The table is read from the file, not copied, and the
benchmark modules are loaded from their files, never edited.
"""

import hashlib
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
    """The named per-layer counters of one traced pass of ``workload`` at seed 1,
    and the SHA-256 of every trajectory the pass integrates.

    The digest runs over each trajectory ``geodesic._integrate`` returns, in
    call order: the bytes of its times, positions, velocities and
    accelerations, then its exit reason.  ``jacobi`` imports ``_integrate``
    by name, so it is patched there too.  A change that moves any result by
    a bit, or adds, drops or reorders a run, changes the digest.

    Every run loop the pass gets is checked against the rule of
    ``geodesic._run_loop``: a run inlines exactly when its program is traced
    (keeps a tape), at any level and of any width.  So a change of which
    runs inline, and hence of what the acceleration counters see, fails
    here with the loop that moved.
    """
    spans, workloads = _load("spans"), _load("workloads")
    for sub in ("geodesic", "jacobi", "jetspace", "samples", "spray", "subspray"):
        importlib.import_module(f"sprayjets.{sub}")
    geodesic = sprayjets.geodesic
    run_loop = geodesic._run_loop
    integrate = geodesic._integrate
    runs, digest = {}, hashlib.sha256()

    def hashed(*args):
        traj = integrate(*args)
        for a in (traj.times, traj.positions, traj.velocities, traj.accelerations):
            digest.update(a.tobytes())
        digest.update(repr(traj.exit_reason).encode())
        return traj

    def spy(s, f, n):
        # the tracer rebinds Spray.acceleration, so the program is read here
        program = s.kernel if f == s.acceleration else f
        loop = run_loop(s, f, n)
        runs[id(program), n] = (program, n, s.dim, loop)
        return loop

    tracer = spans.Tracer()
    tracer.install(sprayjets)
    try:
        with (mock.patch.object(geodesic, "_run_loop", spy),
              mock.patch.object(geodesic, "_integrate", hashed),
              mock.patch.object(sprayjets.jacobi, "_integrate", hashed)):
            wl = workloads.build(sprayjets, workload, 1)
            for task in wl.tasks:
                assert workloads.run_task(sprayjets, wl, task).failures == []
    finally:
        tracer.uninstall()
    assert runs
    for program, n, dim, loop in runs.values():
        traced = getattr(program, "tape", None) is not None
        assert (loop is not geodesic._calling(n, dim)) == traced, (program.__code__.co_filename, n)
    counts = tracer.layer_metrics(1, 1.0, 1.0, 0.0)
    return {name: counts[name] for name in names}, digest.hexdigest()


# The digest of each workload's trajectories at seed 1, as _traced_pass forms it.
TRAJECTORIES = {
    "base-flow": "430f7dd5677e0e5584e4b77e3c61959b3ffa41705ad8b4b08850b0e023030bb4",
    "lifted-jacobi": "a3fa0cf23619c82613cd87f5e49c9fffccd8cefcb180ed54089bcd8dfff5af95",
    "parallel-curves": "e8b2329d1ffcedf5b9909bb32fcd7a21cd98acb9bd200bfb7f98c41c2d0c4543",
}


def test_base_flow_pass_keeps_its_counts():
    # level-0 runs only: a base-flow call the library no longer accepts, or
    # one more run or residual, shows up here before a benchmark run; the
    # runs inline, so the L0 calls are their node 0s, and each residual
    # evaluates its 200 midpoints as one stack, which calls no acceleration
    expected = {
        "geodesic.integrate.calls": 36,
        "geodesic.integrate.steps": 9000,
        "geodesic.residual.calls": 9,
        "spray.acceleration.L0.calls": 36,
        "spray.acceleration.L1.calls": 0,
    }
    assert _traced_pass("base-flow", expected) == (expected, TRAJECTORIES["base-flow"])


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
    assert _traced_pass("lifted-jacobi", expected) == (expected, TRAJECTORIES["lifted-jacobi"])


def test_parallel_curves_pass_keeps_its_counts():
    # uniqueness_check integrates no curve of its own, so each parallel-curve
    # task runs its P-geodesic once; the level-2 and level-3 runs all
    # inline, so the L2 and L3 calls left are the node 0s of their runs
    expected = {
        "geodesic.integrate.calls": 18,
        "subspray.geodesic.calls": 9,
        "spray.acceleration.L2.calls": 13,
        "spray.acceleration.L3.calls": 3,
    }
    assert _traced_pass("parallel-curves", expected) == (expected, TRAJECTORIES["parallel-curves"])
