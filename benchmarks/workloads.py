"""The three benchmark workloads: seeded inputs and checked tasks.

A workload is a fixed list of tasks drawn once from the seed; a pass runs
the list in order.  Each task calls the public sprayjets functions through
their modules (``geodesic.integrate``, not a bound copy), so a tracer that
rebinds module attributes sees every call.  Every tolerance a task checks
is one that ``tests/test_acceptance.py`` or ``sprayjets.runner`` states.

Sphere inputs lie on great circles that keep at least ``POLE_CLEARANCE``
radians from both poles over the whole circle.  Accuracy near a pole is a
property of the colatitude chart, which the test suite covers; here every
task must succeed for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("base-flow", "lifted-jacobi", "parallel-curves")

POLE_CLEARANCE = 0.5

# Step sizes.  The runner's own step is 1e-3; these are larger so that one
# pass takes about a second, and each one keeps its checks inside the
# stated tolerances with a wide margin.
BASE_H = 5e-3          # base-flow geodesics over [0, 1]
JACOBI_H = 1e-2        # lifted fields, conjugate scans, lifted witnesses
PUSH_H = 2.5e-3        # pushed-spray geodesics: the 1e-9 gap scales like h**4
PUSH_SPAN = 0.5
CURVE_H = 2e-3         # parallel curves with a membership check at each node
CURVE_SPAN = 0.4
FAMILY_H = 1e-2        # no-conjugate families, as in criterion 9
LEVEL3_H = 5e-3
LEVEL3_SPAN = 0.5


class Checks:
    """Outcome of one task's checks."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst_use = 0.0

    def within(self, label: str, err, tol: float) -> None:
        err = float(err)
        if tol > 0.0 and math.isfinite(err):
            self.worst_use = max(self.worst_use, err / tol)
        if not err <= tol:
            self.failures.append(f"{label}: {err:.3e} > {tol:.3e}")

    def require(self, label: str, cond: bool) -> None:
        if not cond:
            self.failures.append(label)


@dataclass
class Task:
    kind: str
    fn: Callable
    args: tuple


@dataclass
class Workload:
    tasks: list[Task]
    ctx: dict = field(repr=False)


def build(sj, name: str, seed: int) -> Workload:
    """Build the sprays and lifts, and draw the task list from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")
    sp = sj.spray
    sphere = sp.make_sphere()
    ctx = {
        "sphere": sphere,
        "flat": sp.make_flat(2),
        "finsler": sp.make_finsler_example((0.0, 1.0)),
        "chart": sj.jetspace.shear_chart(),
    }
    ctx["pushed"] = sp.pushforward_spray(ctx["chart"], sphere)
    ctx["sphere^3"] = sp.complete_lift(sp.complete_lift(sp.complete_lift(sphere)))
    rng = np.random.default_rng(seed)
    draw = {"base-flow": _base_flow_tasks, "lifted-jacobi": _lifted_jacobi_tasks,
            "parallel-curves": _parallel_curve_tasks}[name]
    return Workload(draw(sj, rng), ctx)


def run_task(sj, wl: Workload, task: Task) -> Checks:
    """Run one task; a sprayjets error is a failed task, not an abort."""
    checks = Checks()
    try:
        task.fn(sj, wl.ctx, checks, *task.args)
    except (sj.errors.DomainError, sj.errors.IntegrationBlowupError,
            sj.errors.InconsistentTrajectoryError, sj.errors.InvalidLevelError) as exc:
        checks.failures.append(f"{type(exc).__name__}: {exc}")
    return checks


# --- input generation ------------------------------------------------------


def _pole_clearance(theta: float, vtheta: float, vphi: float) -> float:
    """Smallest distance to a pole along the whole great circle of a phase.

    The angular momentum sin^2(theta) * phi' over the metric speed is the
    sine of the circle's smallest colatitude.
    """
    s2 = math.sin(theta) ** 2
    speed = math.sqrt(vtheta * vtheta + s2 * vphi * vphi)
    return math.asin(min(1.0, abs(s2 * vphi) / speed))


def _sphere_phase(sj, rng) -> np.ndarray:
    while True:
        c = sj.samples.sphere_phase(rng).coords
        if _pole_clearance(c[0], c[2], c[3]) >= POLE_CLEARANCE:
            return c.copy()


def _plane_phase(sj, rng) -> np.ndarray:
    """Random point with a unit velocity, as ``sphere_phase`` draws them.

    A fixed speed keeps the arc length per task fixed; the runner's defect
    tolerance is absolute, while the Finsler defect grows with speed.
    """
    coords = sj.samples.random_slashed_jet(rng, 1, 2).coords.copy()
    coords[2:] /= np.linalg.norm(coords[2:])
    return coords


def _phase(sj, rng, tag: str) -> np.ndarray:
    return _sphere_phase(sj, rng) if tag == "sphere" else _plane_phase(sj, rng)


def _curve_start(sj, rng, tag: str):
    """Base point, unit coordinate velocity and the two transport scalars."""
    if tag == "sphere":
        while True:
            x0 = np.array([rng.uniform(0.7, 2.3), rng.uniform(0.0, 2.0)])
            v0 = rng.standard_normal(2)
            v0 /= np.linalg.norm(v0)
            if _pole_clearance(x0[0], v0[0], v0[1]) >= POLE_CLEARANCE:
                break
    else:
        x0 = rng.standard_normal(2)
        v0 = rng.standard_normal(2)
        v0 /= np.linalg.norm(v0)
    return x0, v0, float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))


def _base_flow_tasks(sj, rng) -> list[Task]:
    # Of nine tasks, the median is a Finsler geodesic and the 90th
    # percentile a sphere geodesic.
    tasks = []
    for _ in range(3):
        for tag in ("sphere", "flat", "finsler"):
            tasks.append(Task(f"flow-{tag}", _task_base_flow, (tag, _phase(sj, rng, tag))))
    return tasks


def _lifted_jacobi_tasks(sj, rng) -> list[Task]:
    # Of eleven tasks, the median is a conjugate scan and the 90th
    # percentile a lifted witness, which runs at level 2.
    tasks = []
    for tag in ("sphere", "flat", "finsler"):
        tasks.append(Task(f"jacobi-{tag}", _task_jacobi,
                          (tag, _phase(sj, rng, tag), rng.standard_normal(4))))
    tasks.append(Task("conjugate-flat", _task_conjugate_flat, (_plane_phase(sj, rng),)))
    tasks.append(Task("pushed-geodesic", _task_pushed_geodesic, (_sphere_phase(sj, rng),)))
    for _ in range(4):
        tasks.append(Task("conjugate-sphere", _task_conjugate_sphere,
                          (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, 1.0)))))
    for _ in range(2):
        tasks.append(Task("lifted-witness", _task_lifted_witness,
                          (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.8, 1.2)))))
    return tasks


def _parallel_curve_tasks(sj, rng) -> list[Task]:
    # Of seven tasks, the median is a sphere curve with node checks and the
    # 90th percentile lies between the two no-conjugate families.
    tasks = []
    for tag in ("sphere", "sphere", "flat", "finsler"):
        tasks.append(Task(f"parallel-{tag}", _task_parallel_curve,
                          (tag, *_curve_start(sj, rng, tag))))
    for _ in range(2):
        x0, v0, al, be = _curve_start(sj, rng, "sphere")
        spread = (0.3 * rng.standard_normal(2), 0.3 * rng.standard_normal(2),
                  0.3 * rng.standard_normal(), 0.3 * rng.standard_normal())
        tasks.append(Task("no-conjugate", _task_no_conjugate, (x0, v0, al, be, *spread)))
    tasks.append(Task("level3-tangent", _task_level3, _curve_start(sj, rng, "sphere")))
    return tasks


# --- tasks -----------------------------------------------------------------


def _jet(sj, level: int, coords):
    return sj.jetspace.JetPoint(level, 2, np.asarray(coords, dtype=float))


def _task_base_flow(sj, ctx, c: Checks, tag: str, coords) -> None:
    """Richardson, defect and energy checks (runner flow-check) plus a tangent variation.

    Varying the initial phase along its own velocity gives the Jacobi field
    gamma'(t), so the oracle's field must reproduce the node velocities
    (criterion 6 tolerance) without any jet arithmetic.
    """
    geo, s, h = sj.geodesic, ctx[tag], BASE_H
    init = _jet(sj, 1, coords)
    tr = geo.integrate(s, init, (0.0, 1.0), h)
    fine = geo.integrate(s, init, (0.0, 1.0), h / 2.0)
    c.require("full span", tr.complete and fine.complete)
    c.within("richardson", np.max(np.abs(tr.positions[-1] - fine.positions[-1])),
             max(1e-8, 1e3 * h ** 4))
    c.within("defect", geo.residual(s, tr), max(1e-8, 100.0 * h * h))
    if tag == "sphere":
        energy = (tr.velocities[:, 0] ** 2
                  + np.sin(tr.positions[:, 0]) ** 2 * tr.velocities[:, 1] ** 2)
    elif tag == "flat":
        energy = np.sum(tr.velocities ** 2, axis=1)
    else:
        energy = None
    if energy is not None:
        c.within("energy drift", np.max(np.abs(energy - energy[0])), 1e-8)
    w = np.concatenate([tr.velocities[0], tr.accelerations[0]])
    oracle = sj.jacobi.variation_oracle(s, tr, w)
    c.require("oracle span", oracle.field.exit_reason is None)
    c.within("tangent variation", np.max(np.abs(oracle.fiber_nodes() - tr.velocities)), 1e-5)


def _task_jacobi(sj, ctx, c: Checks, tag: str, coords, w) -> None:
    """Criterion 6: a lifted geodesic against the central-difference variation."""
    s, h = ctx[tag], JACOBI_H
    gamma = sj.geodesic.integrate(s, _jet(sj, 1, coords), (0.0, 1.0), h)
    c.require("full span", gamma.complete)
    init = _jet(sj, 2, [*coords[:2], *w[:2], *coords[2:], *w[2:]])
    lifted = sj.jacobi.jacobi_from_initial(s, init, (0.0, 1.0), h)
    oracle = sj.jacobi.variation_oracle(s, gamma, w, eps=1e-4)
    c.within("jacobi gap", np.max(np.abs(lifted.fiber_nodes() - oracle.fiber_nodes())), 1e-5)


def _task_conjugate_sphere(sj, ctx, c: Checks, phi0: float, incl: float) -> None:
    """Criterion 7: one simple conjugate point at pi along a great circle."""
    init = _jet(sj, 1, [math.pi / 2, phi0, -math.sin(incl), math.cos(incl)])
    scan = sj.jacobi.conjugate_search(ctx["sphere"], init, 3.5, JACOBI_H)
    c.require("scan span", scan.exit_reason is None)
    c.require(f"one conjugate point, got {scan.times}", len(scan.times) == 1)
    if scan.times:
        c.within("conjugate time", abs(scan.times[0] - math.pi), 1e-3)
        c.require("multiplicity 1", scan.multiplicities[0] == 1)


def _task_conjugate_flat(sj, ctx, c: Checks, coords) -> None:
    """Criterion 7: flat lines have no conjugate points."""
    scan = sj.jacobi.conjugate_search(ctx["flat"], _jet(sj, 1, coords), 3.5, JACOBI_H)
    c.require(f"no conjugate point, got {scan.times}", scan.times == [])


def _task_lifted_witness(sj, ctx, c: Checks, phi0: float, amp: float) -> None:
    """Criterion 7: the sine field's witnesses vanish at both ends, two levels up."""
    s = ctx["sphere"]
    init = _jet(sj, 2, [math.pi / 2, phi0, 0.0, 0.0, 0.0, 1.0, amp, 0.0])
    sine = sj.jacobi.jacobi_from_initial(s, init, (0.0, math.pi), JACOBI_H)
    rep = sj.jacobi.lift_conjugate_check(s, sine, end_tol=1e-5)
    c.within("witness ends", max(rep.end_fiber_norms), 1e-5)
    c.require("witness interior >= 0.5", min(rep.interior_sup) >= 0.5)


def _task_pushed_geodesic(sj, ctx, c: Checks, coords) -> None:
    """Criterion 11 tolerance: the pushed spray's geodesic is the pushed geodesic."""
    geo, js, h = sj.geodesic, sj.jetspace, PUSH_H
    base = geo.integrate(ctx["sphere"], _jet(sj, 1, coords), (0.0, PUSH_SPAN), h)
    start = js.pushforward(ctx["chart"], _jet(sj, 1, coords))
    pushed = geo.integrate(ctx["pushed"], start, (0.0, PUSH_SPAN), h)
    c.require("same nodes", base.complete and pushed.complete
              and len(base.times) == len(pushed.times))
    if len(base.times) != len(pushed.times):
        return
    nodes = np.stack([js.pushforward(ctx["chart"], _jet(sj, 1, np.concatenate([x, v]))).coords
                      for x, v in zip(base.positions, base.velocities)])
    gap = max(float(np.max(np.abs(nodes[:, :2] - pushed.positions))),
              float(np.max(np.abs(nodes[:, 2:] - pushed.velocities))))
    c.within("chart gap", gap, 1e-9)


def _task_parallel_curve(sj, ctx, c: Checks, tag: str, x0, v0, al: float, be: float) -> None:
    """Runner subspray-demo checks and criterion 9's scalar recovery."""
    sub, s, h = sj.subspray, ctx[tag], CURVE_H
    sg = sub.geodesic(s, x0, v0, al, be, (0.0, CURVE_SPAN), h, tol=np.inf, node_checks=True)
    c.within("reintegration", sg.reintegration_deviation, 1e-6)
    c.within("membership", sg.membership_max, 1e-6)
    n = len(sg.recovered_alpha)
    c.within("alpha affine drift",
             np.max(np.abs(sg.recovered_alpha - (al + be * sg.traj.times[:n]))), 1e-6)
    c.within("beta constant drift", np.max(np.abs(sg.recovered_beta - be)), 1e-6)
    uniq = sub.uniqueness_check(s, x0, v0, al, be, (0.0, CURVE_SPAN), h)
    c.within("uniqueness gap", uniq.parameter_gap, 1e-8)
    c.within("alpha recovery", abs(uniq.alpha_sequential - al), 1e-8)
    c.within("beta recovery", abs(uniq.beta_sequential - be), 1e-8)
    rep = sub.reparametrized(s, sg, 2.0, 0.2 * CURVE_SPAN)
    c.within("reparametrized field", rep.field_gap, 1e-6)


def _task_no_conjugate(sj, ctx, c: Checks, x0, v0, al, be, dx, dv, da, db) -> None:
    """Criterion 9: no nontrivial two-zero family field on [0, 4]."""

    def family(sig):
        return x0 + sig * dx, v0 + sig * dv, al + sig * da, be + sig * db

    rep = sj.subspray.no_conjugate_check(ctx["sphere"], family, (0.0, 4.0), FAMILY_H)
    c.require("no conjugate pair", rep.ok)


def _task_level3(sj, ctx, c: Checks, x0, v0, al: float, be: float) -> None:
    """Criterion 8 (sphere tolerance) on a level-2 parallel curve and its tangent curve.

    ``new_from_old_suite`` stops below a third lift, so the tangent curve is
    reintegrated here under the thrice-lifted spray.
    """
    s, h = ctx["sphere"], LEVEL3_H
    sg = sj.subspray.geodesic(s, x0, v0, al, be, (0.0, LEVEL3_SPAN), h,
                              tol=np.inf, node_checks=False)
    c.within("reintegration", sg.reintegration_deviation, 1e-6)
    for item, res in sj.jacobi.new_from_old_suite(s, sg.traj).items():
        if res["status"] == "ok":
            c.within(item, res["deviation"], 1e-6)
    j = sg.traj
    pos = np.hstack([j.positions, j.velocities])
    vel = np.hstack([j.velocities, j.accelerations])
    up = sj.geodesic.integrate(ctx["sphere^3"], _jet(sj, 4, np.concatenate([pos[0], vel[0]])),
                               (j.t0, j.t_end), h)
    c.require("tangent curve nodes", len(up.times) == len(j.times))
    n = min(len(up.times), len(j.times))
    c.within("tangent curve", np.max(np.abs(up.positions[:n] - pos[:n])), 1e-6)
