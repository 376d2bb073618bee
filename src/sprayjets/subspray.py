"""Parallel-transport geodesics inside the double tangent fiber.

A two-parameter family of distinguished curves lives over every geodesic of
the base spray: the field (a + b t) c'(t) dragged along c.  These curves
are geodesics of the doubly lifted spray whose initial jets fill a slice of
the double tangent fiber parametrized by base position, base velocity and
the two scalars.  This module builds that parametrization, tests membership
of arbitrary jets, propagates and re-verifies the curves, and probes the
global structure (uniqueness, reparametrization, conjugate-point absence,
completeness, dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentTrajectoryError
from .geodesic import Trajectory, integrate
from .jetspace import EPS_SLASHED, JetPoint
from .spray import Spray, acceleration_jet, complete_lift


def _blocks(xi: np.ndarray, m: int) -> list[np.ndarray]:
    return [xi[k * m : (k + 1) * m] for k in range(len(xi) // m)]


def configuration_point(s: Spray, x0, v0, alpha: float, beta: float) -> JetPoint:
    """Level-two position reached by the parallel curve at time zero.

    Blocks: base point, base velocity, alpha * velocity, and the transport
    block alpha * acceleration + beta * velocity.
    """

    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a0 = np.asarray(s.acceleration(x0, v0), dtype=float)
    coords = np.concatenate([x0, v0, alpha * v0, alpha * a0 + beta * v0])
    return JetPoint(s.level + 2, s.dim, coords)


def delta_coordinates(s: Spray, x0, v0, alpha: float, beta: float) -> np.ndarray:
    """Full initial jet of the parallel curve, one level above its positions.

    The velocity half differentiates the position half in time, which pulls
    in the acceleration and its first time derivative along the base
    geodesic.
    """

    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a0, jolt0 = acceleration_jet(s, x0, v0)
    pos = np.concatenate([x0, v0, alpha * v0, alpha * a0 + beta * v0])
    vel = np.concatenate([v0, a0, beta * v0 + alpha * a0, alpha * jolt0 + 2.0 * beta * a0])
    return np.concatenate([pos, vel])


CONSTRAINTS = (
    "slashed",
    "base-velocity",
    "base-acceleration",
    "alpha-fit",
    "beta-fit",
    "fiber-velocity",
    "fiber-acceleration",
)


@dataclass
class MembershipResult:
    alpha: float
    beta: float
    residual: float
    constraints: dict


@dataclass
class MembershipRejection:
    constraint: str
    residual: float
    constraints: dict


def membership(s: Spray, xi, tol: float = 1e-8):
    """Decide whether a jet lies on the parallel-curve slice.

    Constraints are evaluated in a fixed order and the first failure names
    the rejection; the scalars are recovered by projection onto the base
    velocity before the dependent blocks are checked.  Non-finite input is
    a domain error rather than a rejection.
    """

    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise DomainError("jet coordinates must be finite")
    m = s.fiber_dim
    if xi.size != 8 * m:
        raise DomainError(f"expected {8 * m} coordinates, got {xi.size}")
    b = _blocks(xi, m)
    checks: dict[str, float] = {}

    speed = float(np.linalg.norm(b[1]))
    checks["slashed"] = speed
    if speed <= EPS_SLASHED:
        return MembershipRejection("slashed", speed, checks)

    def fail_if(name: str, value: float):
        checks[name] = value
        if value > tol:
            return MembershipRejection(name, value, checks)
        return None

    r = fail_if("base-velocity", float(np.linalg.norm(b[4] - b[1])))
    if r:
        return r
    a = np.asarray(s.acceleration(b[0], b[1]), dtype=float)
    r = fail_if("base-acceleration", float(np.linalg.norm(b[5] - a)))
    if r:
        return r

    vv = float(b[1] @ b[1])
    alpha = float(b[2] @ b[1]) / vv
    r = fail_if("alpha-fit", float(np.linalg.norm(b[2] - alpha * b[1])))
    if r:
        return r
    beta = float((b[3] - alpha * a) @ b[1]) / vv
    r = fail_if("beta-fit", float(np.linalg.norm(b[3] - alpha * a - beta * b[1])))
    if r:
        return r
    r = fail_if("fiber-velocity", float(np.linalg.norm(b[6] - beta * b[1] - alpha * a)))
    if r:
        return r
    _, jolt = acceleration_jet(s, b[0], b[1])
    r = fail_if("fiber-acceleration",
                float(np.linalg.norm(b[7] - alpha * jolt - 2.0 * beta * a)))
    if r:
        return r
    residual = max(checks[name] for name in CONSTRAINTS[1:])
    return MembershipResult(alpha, beta, residual, checks)


@dataclass
class SubsprayGeodesic:
    """A parallel curve propagated as a doubly lifted geodesic."""

    traj: Trajectory
    base: Trajectory
    alpha: float
    beta: float
    reintegration_deviation: float
    membership_max: float | None
    recovered_alpha: np.ndarray | None = field(default=None, repr=False)
    recovered_beta: np.ndarray | None = field(default=None, repr=False)


def geodesic(s: Spray, x0, v0, alpha: float, beta: float,
             t_span: tuple[float, float], h: float, tol: float = 1e-6,
             node_checks: bool = True) -> SubsprayGeodesic:
    """Propagate the parallel curve and cross-check it two ways.

    The curve is integrated under the doubly lifted spray and compared with
    the closed-form assembly from the base trajectory, which is the carrier
    (first quarter of the columns) of that run: it equals a separate run of
    ``s`` bit for bit, so it is not integrated twice.  With ``node_checks``
    every node's jet is pushed back through :func:`membership` and the
    recovered scalars are kept (the first drifts affinely, the second is
    constant).  A deviation above ``tol`` raises, the trajectory is not
    silently accepted.
    """

    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    lifted2 = complete_lift(complete_lift(s))
    init = JetPoint(s.level + 3, s.dim, delta_coordinates(s, x0, v0, alpha, beta))
    tr = integrate(lifted2, init, t_span, h)
    btr = tr.columns(slice(0, s.fiber_dim), s)

    n = len(tr.times)
    t = btr.times[:, None]
    x, dx, ddx = btr.positions, btr.velocities, btr.accelerations
    formula = np.hstack([x, dx, (alpha + beta * t) * dx,
                         (alpha + beta * t) * ddx + beta * dx])
    deviation = float(np.max(np.abs(tr.positions - formula)))
    if deviation > tol:
        raise InconsistentTrajectoryError(
            f"closed form and reintegration disagree by {deviation:.3e}"
        )

    membership_max = None
    rec_a = rec_b = None
    if node_checks:
        residues = np.empty(n)
        rec_a = np.empty(n)
        rec_b = np.empty(n)
        for k in range(n):
            jet = np.concatenate([tr.positions[k], tr.velocities[k]])
            res = membership(s, jet, tol=np.inf)
            residues[k] = res.residual
            rec_a[k] = res.alpha
            rec_b[k] = res.beta
        membership_max = float(np.max(residues))
        if membership_max > tol:
            raise InconsistentTrajectoryError(
                f"node jets leave the parallel slice by {membership_max:.3e}"
            )

    return SubsprayGeodesic(
        traj=tr, base=btr, alpha=alpha, beta=beta,
        reintegration_deviation=deviation, membership_max=membership_max,
        recovered_alpha=rec_a, recovered_beta=rec_b,
    )


@dataclass
class UniquenessReport:
    alpha_sequential: float
    beta_sequential: float
    alpha_joint: float
    beta_joint: float
    parameter_gap: float
    curve_gap: float


def uniqueness_check(s: Spray, x0, v0, alpha: float, beta: float,
                     t_span: tuple[float, float], h: float) -> UniquenessReport:
    """Recover the scalars two independent ways and compare the curves.

    Sequential projection treats the alpha block first; the joint variant
    solves one least-squares system over both dependent blocks.  The curve
    from the recovered data must agree with the propagated one.
    """

    m = s.fiber_dim
    xi = delta_coordinates(s, x0, v0, alpha, beta)
    b = _blocks(xi, m)
    a = np.asarray(s.acceleration(b[0], b[1]), dtype=float)

    vv = float(b[1] @ b[1])
    a_seq = float(b[2] @ b[1]) / vv
    b_seq = float((b[3] - a_seq * a) @ b[1]) / vv

    mat = np.zeros((2 * m, 2))
    mat[:m, 0] = b[1]
    mat[m:, 0] = a
    mat[m:, 1] = b[1]
    rhs = np.concatenate([b[2], b[3]])
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    a_joint, b_joint = float(sol[0]), float(sol[1])

    gap = max(abs(a_seq - a_joint), abs(b_seq - b_joint))
    sg = geodesic(s, x0, v0, a_seq, b_seq, t_span, h, tol=np.inf, node_checks=False)
    return UniquenessReport(a_seq, b_seq, a_joint, b_joint, gap,
                            sg.reintegration_deviation)


@dataclass
class ParallelJacobi:
    """Directional derivative through a family of parallel curves."""

    times: np.ndarray
    values: np.ndarray
    sup_norm: float
    zero_times: list[float]
    center: SubsprayGeodesic


def parallel_jacobi_curve(s: Spray, family, t_span: tuple[float, float], h: float,
                          eps: float = 1e-4, zero_tol: float = 1e-8,
                          min_gap: float = 1e-3) -> ParallelJacobi:
    """Central-difference field of ``family(sigma) -> (x0, v0, alpha, beta)``."""

    curves = {}
    for sig in (-eps, 0.0, eps):
        x0, v0, al, be = family(sig)
        curves[sig] = geodesic(s, x0, v0, float(al), float(be), t_span, h,
                               tol=np.inf, node_checks=False)
    n = min(len(c.traj.times) for c in curves.values())
    vals = (curves[eps].traj.positions[:n] - curves[-eps].traj.positions[:n]) / (2.0 * eps)
    times = curves[0.0].traj.times[:n]
    norms = np.linalg.norm(vals, axis=1)

    zeros: list[float] = []
    for k in range(n):
        if norms[k] <= zero_tol:
            if not zeros or times[k] - zeros[-1] > min_gap:
                zeros.append(float(times[k]))
    return ParallelJacobi(times=times, values=vals, sup_norm=float(np.max(norms)),
                          zero_times=zeros, center=curves[0.0])


@dataclass
class NoConjugateReport:
    zero_times: list[float]
    sup_norm: float
    vacuous: bool
    ok: bool


def no_conjugate_check(s: Spray, family, t_span: tuple[float, float], h: float,
                       eps: float = 1e-4, zero_tol: float = 1e-8,
                       trivial_tol: float = 1e-6) -> NoConjugateReport:
    """Two distinct zeros of a family field force the whole field to vanish.

    A family whose field has fewer than two zeros passes vacuously; with
    two or more the field must be trivial throughout, otherwise the check
    fails and reports the offending supremum.
    """

    pj = parallel_jacobi_curve(s, family, t_span, h, eps=eps, zero_tol=zero_tol)
    if len(pj.zero_times) < 2:
        return NoConjugateReport(pj.zero_times, pj.sup_norm, vacuous=True, ok=True)
    return NoConjugateReport(pj.zero_times, pj.sup_norm, vacuous=False,
                             ok=pj.sup_norm <= trivial_tol)


@dataclass
class ReparametrizedReport:
    alpha: float
    beta: float
    field_gap: float
    curve: SubsprayGeodesic


def reparametrized(s: Spray, sg: SubsprayGeodesic, scale: float, shift: float,
                   h: float | None = None) -> ReparametrizedReport:
    """Express the transported field over an affinely reparametrized base.

    With the base curve run as c(scale * t + shift), the field block stays
    pointwise identical when the first scalar becomes
    (alpha + beta * shift) / scale and the second is unchanged.
    """

    if scale <= 0.0:
        raise DomainError("scale must be positive")
    if h is None:
        h = sg.traj.h
    m = s.fiber_dim
    x_t0, v_t0 = sg.base.state_at(shift)
    new_alpha = (sg.alpha + sg.beta * shift) / scale
    new_beta = sg.beta
    t_end = (sg.base.t_end - shift) / scale
    rep = geodesic(s, x_t0, scale * v_t0, new_alpha, new_beta, (0.0, t_end), h,
                   tol=np.inf, node_checks=False)

    gap = 0.0
    for k, t in enumerate(rep.traj.times):
        orig = sg.traj.position_at(scale * float(t) + shift)
        gap = max(gap, float(np.max(np.abs(
            rep.traj.positions[k, 2 * m : 3 * m] - orig[2 * m : 3 * m]
        ))))
    return ReparametrizedReport(new_alpha, new_beta, gap, rep)


def completeness_probe(s: Spray, cases, t_max: float, h: float) -> list[dict]:
    """Exit-time agreement between base geodesics and their parallel curves.

    Each case is a mapping with label, x0, v0, alpha, beta.  Both
    integrations run to ``t_max`` or their common obstruction; the probe
    reports whether the two stopping times agree to one step.
    """

    rows = []
    for case in cases:
        x0 = np.asarray(case["x0"], dtype=float)
        v0 = np.asarray(case["v0"], dtype=float)
        binit = JetPoint(s.level + 1, s.dim, np.concatenate([x0, v0]))
        btr = integrate(s, binit, (0.0, t_max), h)
        sg = geodesic(s, x0, v0, float(case["alpha"]), float(case["beta"]),
                      (0.0, t_max), h, tol=np.inf, node_checks=False)
        str_ = sg.traj
        rows.append({
            "label": case.get("label", ""),
            "base_exit": btr.exit_reason,
            "base_time": float(btr.t_end),
            "sub_exit": str_.exit_reason,
            "sub_time": float(str_.t_end),
            "agree": abs(float(btr.t_end) - float(str_.t_end)) <= h + 1e-12,
        })
    return rows


@dataclass
class DimensionReport:
    full_jet_rank: int
    configuration_rank: int
    fixed_parameter_rank: int
    configuration_rank_without_beta: int
    expected: tuple[int, int, int, int]
    parametrization_jacobian: np.ndarray

    @property
    def ok(self) -> bool:
        got = (self.full_jet_rank, self.configuration_rank,
               self.fixed_parameter_rank, self.configuration_rank_without_beta)
        return got == self.expected


def _fd_jacobian(fn, p: np.ndarray, step: float) -> np.ndarray:
    cols = []
    for k in range(p.size):
        dp = np.zeros_like(p)
        dp[k] = step
        cols.append((fn(p + dp) - fn(p - dp)) / (2.0 * step))
    return np.stack(cols, axis=1)


def _rank(mat: np.ndarray, rtol: float) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def dimension_probe(s: Spray, x0, v0, alpha: float, beta: float,
                    step: float = 1e-6, rank_rtol: float = 1e-6) -> DimensionReport:
    """Numerical ranks of the slice parametrizations at one point.

    The full-jet and configuration maps should both have rank 2n + 2 in
    the base fiber dimension n; freezing the scalars drops the rank to 2n,
    and deleting only the beta column loses exactly one direction.
    """

    m = s.fiber_dim
    p0 = np.concatenate([np.asarray(x0, float), np.asarray(v0, float), [alpha, beta]])

    def full_jet(p):
        return delta_coordinates(s, p[:m], p[m : 2 * m], p[2 * m], p[2 * m + 1])

    def config(p):
        return configuration_point(s, p[:m], p[m : 2 * m], p[2 * m], p[2 * m + 1]).coords

    def config_fixed(q):
        return configuration_point(s, q[:m], q[m:], alpha, beta).coords

    j_full = _fd_jacobian(full_jet, p0, step)
    j_conf = _fd_jacobian(config, p0, step)
    j_fix = _fd_jacobian(config_fixed, p0[: 2 * m], step)

    return DimensionReport(
        full_jet_rank=_rank(j_full, rank_rtol),
        configuration_rank=_rank(j_conf, rank_rtol),
        fixed_parameter_rank=_rank(j_fix, rank_rtol),
        configuration_rank_without_beta=_rank(j_conf[:, : 2 * m + 1], rank_rtol),
        expected=(2 * m + 2, 2 * m + 2, 2 * m, 2 * m + 1),
        parametrization_jacobian=j_full,
    )
