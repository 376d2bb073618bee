"""Fixed-step geodesic integration with dense output.

The integrator is classical RK4 on the first-order system (x' = v,
v' = -2 G(x, v)).  Fixed steps keep runs reproducible and make the
discrete flow commute with fiberwise differentiation, which the lifted
flow identity checks rely on.  Dense output is cubic Hermite per step.

The stage and update arithmetic runs on lists of Python floats.  A state
holds from two to a few dozen numbers, so a numpy expression per stage
costs mostly call overhead; element by element the operations are the
same IEEE double operations in the same order, and the node arrays are
built once at the end.  That order is an invariant, not a detail: the
carrier columns of a lifted run (the leading ``dim`` positions and
velocities) must equal the run of the base spray bit for bit, because the
primal part of jet arithmetic repeats the float computation and
``subspray.geodesic`` takes its base geodesic from the lifted run.  The
loop may not reorder, fuse or regroup any of these operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationBlowupError, InvalidLevelError
from .jetspace import EPS_SLASHED, JetPoint, kappa
from .spray import Spray

EXIT_SLASHED = "slashed"
EXIT_DOMAIN = "domain"


@dataclass
class Trajectory:
    """Sampled geodesic with node states and per-step Hermite interpolation.

    Positions live at the spray's level, velocities alongside; a position
    paired with its velocity is a slashed point one level up.  Node
    accelerations are stored to interpolate velocities.  ``exit_reason``
    is None for a run that covered the requested span, otherwise one of
    ``"slashed"`` or ``"domain"``.
    """

    spray: Spray
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    h: float
    requested: tuple[float, float]
    exit_reason: str | None = field(default=None)

    @property
    def complete(self) -> bool:
        return self.exit_reason is None

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _bracket(self, t: float) -> int:
        ts = self.times
        lo, hi = (ts[0], ts[-1]) if ts[-1] >= ts[0] else (ts[-1], ts[0])
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise DomainError(f"time {t} outside trajectory span [{ts[0]}, {ts[-1]}]")
        if ts[-1] >= ts[0]:
            i = int(np.searchsorted(ts, t, side="right")) - 1
        else:
            i = len(ts) - 1 - int(np.searchsorted(ts[::-1], t, side="left"))
            i = max(0, min(i, len(ts) - 2))
        return max(0, min(i, len(ts) - 2))

    def state_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        if len(self.times) == 1:
            if abs(t - self.times[0]) > 1e-12:
                raise DomainError(f"time {t} outside single-node trajectory")
            return self.positions[0], self.velocities[0]
        i = self._bracket(t)
        dt = self.times[i + 1] - self.times[i]
        tau = (t - self.times[i]) / dt
        x = _hermite(self.positions[i], self.velocities[i],
                     self.positions[i + 1], self.velocities[i + 1], tau, dt)
        v = _hermite(self.velocities[i], self.accelerations[i],
                     self.velocities[i + 1], self.accelerations[i + 1], tau, dt)
        return x, v

    def position_at(self, t: float) -> np.ndarray:
        return self.state_at(t)[0]

    def jet_at(self, t: float) -> JetPoint:
        x, v = self.state_at(t)
        return JetPoint(self.spray.level + 1, self.spray.dim, np.concatenate([x, v]))

    def final_jet(self) -> JetPoint:
        return JetPoint(self.spray.level + 1, self.spray.dim,
                        np.concatenate([self.positions[-1], self.velocities[-1]]))

    def columns(self, idx, spray: Spray) -> Trajectory:
        """The curve formed by the coordinate columns ``idx``, under ``spray``."""
        return Trajectory(
            spray=spray,
            times=self.times,
            positions=self.positions[:, idx],
            velocities=self.velocities[:, idx],
            accelerations=self.accelerations[:, idx],
            h=self.h,
            requested=self.requested,
            exit_reason=self.exit_reason,
        )


def _hermite(y0, d0, y1, d1, tau, dt):
    t2, t3 = tau * tau, tau * tau * tau
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + tau) * dt * d0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * dt * d1)


def _check_node(s: Spray, x: list, v: list) -> str | None:
    """Exit reason of the node (x, v), or None if the run goes on."""
    if not all(map(math.isfinite, x + v)):
        raise IntegrationBlowupError("non-finite state during integration")
    vd = np.array(v[: s.dim])
    if math.sqrt(vd.dot(vd)) <= EPS_SLASHED:  # np.linalg.norm(vd), bit for bit
        return EXIT_SLASHED
    if not s.in_domain(x):
        return EXIT_DOMAIN
    return None


def _euler(x: list, v: list, dx: list, dv: list, c: float) -> tuple[list, list]:
    """The stage point (x + c*dx, v + c*dv), element by element."""
    xs, vs = [], []
    for xi, vi, dxi, dvi in zip(x, v, dx, dv):
        xs.append(xi + c * dxi)
        vs.append(vi + c * dvi)
    return xs, vs


class _StageOutsideDomain(Exception):
    """A coefficient evaluation failed at a stage position outside the chart."""


def integrate(s: Spray, init: JetPoint, t_span: tuple[float, float], h: float) -> Trajectory:
    """Integrate the geodesic with initial jet ``init`` over ``t_span``.

    The trajectory is truncated with an exit reason if the state leaves
    the slashed bundle or the chart domain; a coefficient evaluation that
    fails at an RK4 stage outside the domain also ends the run at the last
    node with ``"domain"``.  Non-finite values, and coefficient failures
    inside the domain, raise :class:`IntegrationBlowupError`.
    """

    if h <= 0.0:
        raise DomainError(f"step size must be positive, got {h}")
    if init.level != s.level + 1:
        raise InvalidLevelError(
            f"initial jet must sit one level above the spray ({s.level + 1}), got {init.level}"
        )
    half = init.coords.size // 2
    x = init.coords[:half].tolist()
    v = init.coords[half:].tolist()
    t0, t1 = float(t_span[0]), float(t_span[1])

    bad = _check_node(s, x, v)
    if bad is not None:
        raise DomainError(f"initial state rejected: {bad}")

    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / h - 1e-12))) if span != 0.0 else 0
    sign = 1.0 if span >= 0.0 else -1.0
    acceleration = s.acceleration

    def accel(xp: list, vp: list) -> list:
        try:
            return acceleration(xp, vp).tolist()
        except (ArithmeticError, ValueError) as exc:
            if not s.in_domain(xp):
                raise _StageOutsideDomain from exc
            raise IntegrationBlowupError(f"coefficient evaluation failed: {exc!r}") from exc

    times = [t0]
    xs = [x]
    vs = [v]
    accs = [accel(x, v)]
    exit_reason = None

    t = t0
    try:
        for k in range(nsteps):
            t_next = t1 if k == nsteps - 1 else t0 + sign * (k + 1) * h
            dt = t_next - t
            a1 = accs[-1]
            x2, v2 = _euler(x, v, v, a1, 0.5 * dt)
            a2 = accel(x2, v2)
            x3, v3 = _euler(x, v, v2, a2, 0.5 * dt)
            a3 = accel(x3, v3)
            x4, v4 = _euler(x, v, v3, a3, dt)
            a4 = accel(x4, v4)
            xn, vn = [], []
            for xi, k1, k2, k3, k4, vi, l1, l2, l3, l4 in zip(x, v, v2, v3, v4,
                                                              v, a1, a2, a3, a4):
                xn.append(xi + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
                vn.append(vi + dt * (l1 + 2.0 * l2 + 2.0 * l3 + l4) / 6.0)

            reason = _check_node(s, xn, vn)
            if reason is not None:
                exit_reason = reason
                break
            x, v, t = xn, vn, t_next
            times.append(t)
            xs.append(x)
            vs.append(v)
            accs.append(accel(x, v))
    except _StageOutsideDomain:
        exit_reason = EXIT_DOMAIN

    return Trajectory(
        spray=s,
        times=np.asarray(times),
        positions=np.asarray(xs),
        velocities=np.asarray(vs),
        accelerations=np.asarray(accs),
        h=h,
        requested=(t0, t1),
        exit_reason=exit_reason,
    )


def flow(s: Spray, p: JetPoint, t: float, h: float) -> JetPoint:
    """Geodesic flow: the phase point reached from ``p`` after time ``t``."""
    tr = integrate(s, p, (0.0, t), h)
    if not tr.complete:
        raise DomainError(
            f"flow left the bundle ({tr.exit_reason}) at t={tr.t_end:.6g} before {t}"
        )
    return tr.final_jet()


def flow_tangent_fd(s: Spray, p: JetPoint, t: float, h: float,
                    eps_fd: float = 1e-5) -> JetPoint:
    """Conjugated tangent flow by central differences.

    Splits ``kappa(p)`` into a phase point and a perturbation direction,
    transports both endpoints of a symmetric chord with the plain flow,
    and swaps the differenced result back.  This is the finite-difference
    side of the lifted flow identity.
    """

    if p.level != s.level + 2:
        raise InvalidLevelError(
            f"tangent flow acts two levels above the spray, got level {p.level}"
        )
    q = kappa(p)
    half = q.coords.size // 2
    base = JetPoint(p.level - 1, p.dim, q.coords[:half])
    direction = q.coords[half:]

    center = flow(s, base, t, h)
    plus = flow(s, JetPoint(p.level - 1, p.dim, q.coords[:half] + eps_fd * direction), t, h)
    minus = flow(s, JetPoint(p.level - 1, p.dim, q.coords[:half] - eps_fd * direction), t, h)
    diff = (plus.coords - minus.coords) / (2.0 * eps_fd)
    out = JetPoint(p.level, p.dim, np.concatenate([center.coords, diff]))
    return kappa(out)


def residual(s: Spray, tr: Trajectory) -> float:
    """A-posteriori defect of the geodesic equation along a trajectory.

    At each step midpoint the Hermite reconstruction provides position,
    velocity, and curvature from node data alone; the defect compares the
    curvature against the spray acceleration there.
    """

    p0, p1 = tr.positions[:-1], tr.positions[1:]
    v0, v1 = tr.velocities[:-1], tr.velocities[1:]
    dt = np.diff(tr.times)[:, None]
    xm = _hermite(p0, v0, p1, v1, 0.5, dt)
    vm = _hermite_d1(p0, v0, p1, v1, 0.5, dt)
    curv = (v1 - v0) / dt
    worst = 0.0
    for c, x, v in zip(curv, xm, vm):
        d = c - s.acceleration(x, v)
        worst = max(worst, math.sqrt(d.dot(d)))  # np.linalg.norm(d), bit for bit
    return worst


def _hermite_d1(y0, d0, y1, d1, tau, dt):
    t2 = tau * tau
    return ((6 * t2 - 6 * tau) * y0 / dt + (3 * t2 - 4 * tau + 1) * d0
            + (-6 * t2 + 6 * tau) * y1 / dt + (3 * t2 - 2 * tau) * d1)


def write_trajectory_csv(tr: Trajectory, path) -> None:
    """Write nodes as CSV: metadata line, header, then one row per node."""
    m = tr.positions.shape[1]
    cols = ["t"] + [f"x_{i}" for i in range(m)] + [f"v_{i}" for i in range(m)]
    lines = [f"# level={tr.spray.level},dim={tr.spray.dim},spray={tr.spray.tag}",
             ",".join(cols)]
    for k in range(len(tr.times)):
        row = [repr(float(tr.times[k]))]
        row += [repr(float(z)) for z in tr.positions[k]]
        row += [repr(float(z)) for z in tr.velocities[k]]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
