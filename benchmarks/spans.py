"""Span tracing around the public sprayjets functions, and the per-layer metrics.

The tracer rebinds each wrapped function in every ``sprayjets`` module that
holds it by name, and wraps ``Spray.acceleration`` and
``Trajectory.state_at`` on their classes; nothing inside the package is
edited.  A span records (name, start, end, parent, task).  A span's self
time is its duration minus the durations of its child spans; calls are
strictly nested in one thread, so children never overlap.

Spans live in flat ``array`` columns so that a traced pass with a few
hundred thousand coefficient evaluations stays a few megabytes.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from functools import wraps
from time import perf_counter

import numpy as np

# (name, unit, better, the end-to-end metric and workload it should move).
# Counts and ``self_s`` are per pass of the workload's task list.
# ``us_per_call`` and ``self_*`` are self time; ``s_per_call`` is inclusive.
# A metric whose layer does not run on a workload reads 0 there.
LAYER_METRICS = (
    ("spray.acceleration.L0.calls", "count/pass", "lower", "wall_s on base-flow"),
    ("spray.acceleration.L0.us_per_call", "us", "lower", "wall_s on base-flow"),
    ("spray.acceleration.L1.calls", "count/pass", "lower", "wall_s and task_p90_ms on lifted-jacobi"),
    ("spray.acceleration.L1.us_per_call", "us", "lower", "wall_s and task_p90_ms on lifted-jacobi"),
    ("spray.acceleration.L2.calls", "count/pass", "lower",
     "wall_s and task_p90_ms on lifted-jacobi; wall_s on parallel-curves"),
    ("spray.acceleration.L2.us_per_call", "us", "lower",
     "wall_s and task_p90_ms on lifted-jacobi; wall_s on parallel-curves"),
    ("spray.acceleration.L3.calls", "count/pass", "lower", "wall_s on parallel-curves"),
    ("spray.acceleration.L3.us_per_call", "us", "lower", "wall_s on parallel-curves"),
    ("jets.lift_share", "fraction", "lower", "wall_s on lifted-jacobi and parallel-curves; 0 on base-flow"),
    ("jets.cost_ratio.L1", "ratio", "lower", "wall_s on lifted-jacobi and parallel-curves; base-flow unchanged"),
    ("jets.cost_ratio.L2", "ratio", "lower", "wall_s on lifted-jacobi and parallel-curves; base-flow unchanged"),
    ("jets.cost_ratio.L3", "ratio", "lower", "wall_s on parallel-curves; base-flow unchanged"),
    ("jetspace.jet_apply.L1.calls", "count/pass", "lower", "wall_s on lifted-jacobi"),
    ("jetspace.jet_apply.L1.us_per_call", "us", "lower", "wall_s on lifted-jacobi"),
    ("jetspace.jet_apply.L2.calls", "count/pass", "lower", "wall_s on lifted-jacobi"),
    ("jetspace.jet_apply.L2.us_per_call", "us", "lower", "wall_s on lifted-jacobi"),
    ("jetspace.pushforward.calls", "count/pass", "lower", "wall_s on lifted-jacobi"),
    ("jetspace.pushforward.us_per_call", "us", "lower", "wall_s on lifted-jacobi"),
    ("geodesic.integrate.calls", "count/pass", "lower", "wall_s on base-flow"),
    ("geodesic.integrate.steps", "count/pass", "lower", "wall_s on base-flow"),
    ("geodesic.integrate.self_s", "s/pass", "lower", "wall_s on base-flow"),
    ("geodesic.rk4_glue_us_per_step", "us", "lower", "wall_s on base-flow"),
    ("geodesic.carrier_dup_frac", "fraction", "lower",
     "wall_s and peak_rss_mb on lifted-jacobi and parallel-curves; 0 on base-flow"),
    ("geodesic.state_at.calls", "count/pass", "lower", "task_p50_ms on lifted-jacobi"),
    ("geodesic.state_at.us_per_call", "us", "lower", "task_p50_ms on lifted-jacobi"),
    ("geodesic.residual.calls", "count/pass", "lower", "wall_s on base-flow"),
    ("geodesic.residual.self_s", "s/pass", "lower", "wall_s on base-flow"),
    ("jacobi.conjugate_search.calls", "count/pass", "lower", "task_p50_ms on lifted-jacobi"),
    ("jacobi.conjugate_search.self_ms_per_call", "ms", "lower", "task_p50_ms on lifted-jacobi"),
    ("jacobi.jacobi_from_initial.s_per_call", "s", "lower", "wall_s on lifted-jacobi"),
    ("jacobi.variation_oracle.s_per_call", "s", "lower", "wall_s on base-flow and lifted-jacobi"),
    ("jacobi.lift_conjugate_check.s_per_call", "s", "lower", "task_p90_ms on lifted-jacobi"),
    ("jacobi.new_from_old_suite.s_per_call", "s", "lower", "wall_s on parallel-curves"),
    ("subspray.membership.calls", "count/pass", "lower", "task_p50_ms on parallel-curves"),
    ("subspray.membership.us_per_call", "us", "lower", "task_p50_ms on parallel-curves"),
    ("spray.acceleration_jet.calls", "count/pass", "lower", "task_p50_ms on parallel-curves"),
    ("spray.acceleration_jet.us_per_call", "us", "lower", "task_p50_ms on parallel-curves"),
    ("subspray.geodesic.calls", "count/pass", "lower", "wall_s on parallel-curves"),
    ("subspray.geodesic.self_ms_per_call", "ms", "lower", "wall_s on parallel-curves"),
    ("subspray.no_conjugate_check.s_per_call", "s", "lower", "task_p90_ms on parallel-curves"),
    ("trace_overhead_frac", "fraction", "lower", "none; tracing cost relative to the untraced pass"),
    ("check.worst_tol_use", "ratio", "lower", "none; largest error/tolerance over all checks"),
)

# Counters that depend only on the seed and the program, never on timing.
DETERMINISTIC = tuple(name for name, *_ in LAYER_METRICS
                      if name.endswith(".calls")
                      or name in ("geodesic.integrate.steps", "geodesic.carrier_dup_frac"))

# Plain functions to wrap, as (module, attribute); each is rebound wherever
# a sprayjets module imported it by name.
FUNCTIONS = (
    ("geodesic", "integrate"),
    ("geodesic", "residual"),
    ("spray", "acceleration_jet"),
    ("jetspace", "jet_apply"),
    ("jetspace", "pushforward"),
    ("jacobi", "conjugate_search"),
    ("jacobi", "jacobi_from_initial"),
    ("jacobi", "variation_oracle"),
    ("jacobi", "lift_conjugate_check"),
    ("jacobi", "new_from_old_suite"),
    ("subspray", "membership"),
    ("subspray", "geodesic"),
    ("subspray", "no_conjugate_check"),
)


class Tracer:
    """In-memory span recorder with wrappers for the sprayjets layers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._task_id = -1
        self._carriers: set[bytes] = set()
        self.steps = 0
        self.duplicates = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self._task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_task(self, task_id: int) -> int:
        self._task_id = task_id
        self._carriers = set()
        return self.open(self.intern("task"))

    def _note_integration(self, tr) -> None:
        # level-0 carrier columns: the first dim entries of positions and velocities
        dim = tr.spray.dim
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(tr.positions[:, :dim]).tobytes())
        digest.update(np.ascontiguousarray(tr.velocities[:, :dim]).tobytes())
        key = digest.digest()
        self.steps += len(tr.times) - 1
        if key in self._carriers:
            self.duplicates += 1
        else:
            self._carriers.add(key)

    # --- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.intern(name)
        open_, close = self.open, self.close

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_leveled(self, fn, prefix: str, level_of):
        ids: dict[int, int] = {}
        open_, close, intern = self.open, self.close, self.intern

        @wraps(fn)
        def traced(*args, **kwargs):
            level = level_of(args, kwargs)
            nid = ids.get(level)
            if nid is None:
                nid = ids[level] = intern(f"{prefix}.L{level}")
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def _wrap_integrate(self, fn):
        nid = self.intern("geodesic.integrate")
        open_, close, note = self.open, self.close, self._note_integration

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                tr = fn(*args, **kwargs)
            finally:
                close(idx)
            note(tr)
            return tr

        return traced

    def install(self, sj) -> None:
        """Wrap the layers of the imported package ``sj``.

        Call this before building any spray through ``pushforward_spray``:
        that builder binds ``jet_apply`` at the moment it is called.
        """

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "sprayjets" or key.startswith("sprayjets."))]
        for mod_name, attr in FUNCTIONS:
            orig = getattr(getattr(sj, mod_name), attr)
            if attr == "integrate":
                wrapper = self._wrap_integrate(orig)
            elif attr == "jet_apply":
                wrapper = self._wrap_leveled(
                    orig, "jetspace.jet_apply",
                    lambda a, k: a[2] if len(a) > 2 else k["level"])
            else:
                wrapper = self._wrap(orig, f"{mod_name}.{attr}")
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
        spray_cls = sj.spray.Spray
        self._patch(spray_cls, "acceleration", self._wrap_leveled(
            spray_cls.acceleration, "spray.acceleration", lambda a, k: a[0].level))
        traj_cls = sj.geodesic.Trajectory
        self._patch(traj_cls, "state_at",
                    self._wrap(traj_cls.state_at, "geodesic.state_at"))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.intc),
                 parent=np.frombuffer(self.parent, np.intc),
                 task=np.frombuffer(self.task, np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    # --- aggregation -------------------------------------------------------

    def layer_metrics(self, passes: int, untraced_pass_s: float, traced_pass_s: float,
                      worst_tol_use: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS``; counts and seconds are per pass."""

        name = np.frombuffer(self.name, np.intc)
        parent = np.frombuffer(self.parent, np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)

        def stat(span):
            i = self._ids.get(span)
            return (0, 0.0, 0.0) if i is None else (int(calls[i]), float(incl[i]), float(own[i]))

        def per_call(span, scale, inclusive=False):
            n, inc, slf = stat(span)
            return scale * (inc if inclusive else slf) / n if n else 0.0

        out: dict[str, float] = {}
        acc_self = {int(span.rsplit("L", 1)[1]): float(own[i]) for span, i in self._ids.items()
                    if span.startswith("spray.acceleration.L")}
        for lvl in range(4):
            span = f"spray.acceleration.L{lvl}"
            out[f"{span}.calls"] = stat(span)[0] / passes
            out[f"{span}.us_per_call"] = per_call(span, 1e6)
        total = sum(acc_self.values())
        out["jets.lift_share"] = (total - acc_self.get(0, 0.0)) / total if total > 0 else 0.0
        base_cost = out["spray.acceleration.L0.us_per_call"]
        for lvl in (1, 2, 3):
            cost = out[f"spray.acceleration.L{lvl}.us_per_call"]
            out[f"jets.cost_ratio.L{lvl}"] = cost / base_cost if base_cost > 0 else 0.0
        for lvl in (1, 2):
            span = f"jetspace.jet_apply.L{lvl}"
            out[f"{span}.calls"] = stat(span)[0] / passes
            out[f"{span}.us_per_call"] = per_call(span, 1e6)
        out["jetspace.pushforward.calls"] = stat("jetspace.pushforward")[0] / passes
        out["jetspace.pushforward.us_per_call"] = per_call("jetspace.pushforward", 1e6)
        n_int, _, int_self = stat("geodesic.integrate")
        out["geodesic.integrate.calls"] = n_int / passes
        out["geodesic.integrate.steps"] = self.steps / passes
        out["geodesic.integrate.self_s"] = int_self / passes
        out["geodesic.rk4_glue_us_per_step"] = 1e6 * int_self / self.steps if self.steps else 0.0
        out["geodesic.carrier_dup_frac"] = self.duplicates / n_int if n_int else 0.0
        out["geodesic.state_at.calls"] = stat("geodesic.state_at")[0] / passes
        out["geodesic.state_at.us_per_call"] = per_call("geodesic.state_at", 1e6)
        n_res, _, res_self = stat("geodesic.residual")
        out["geodesic.residual.calls"] = n_res / passes
        out["geodesic.residual.self_s"] = res_self / passes
        out["jacobi.conjugate_search.calls"] = stat("jacobi.conjugate_search")[0] / passes
        out["jacobi.conjugate_search.self_ms_per_call"] = per_call("jacobi.conjugate_search", 1e3)
        for fn in ("jacobi_from_initial", "variation_oracle", "lift_conjugate_check",
                   "new_from_old_suite"):
            out[f"jacobi.{fn}.s_per_call"] = per_call(f"jacobi.{fn}", 1.0, inclusive=True)
        out["subspray.membership.calls"] = stat("subspray.membership")[0] / passes
        out["subspray.membership.us_per_call"] = per_call("subspray.membership", 1e6)
        out["spray.acceleration_jet.calls"] = stat("spray.acceleration_jet")[0] / passes
        out["spray.acceleration_jet.us_per_call"] = per_call("spray.acceleration_jet", 1e6)
        out["subspray.geodesic.calls"] = stat("subspray.geodesic")[0] / passes
        out["subspray.geodesic.self_ms_per_call"] = per_call("subspray.geodesic", 1e3)
        out["subspray.no_conjugate_check.s_per_call"] = per_call(
            "subspray.no_conjugate_check", 1.0, inclusive=True)
        out["trace_overhead_frac"] = traced_pass_s / untraced_pass_s - 1.0
        out["check.worst_tol_use"] = worst_tol_use
        return {name: out[name] for name, *_ in LAYER_METRICS}
