"""Parallel-transport geodesics inside the double tangent fiber.

A two-parameter family of distinguished curves lives over every geodesic of
the base spray: the field (a + b t) c'(t) dragged along c.  These curves
are geodesics of the doubly lifted spray whose initial jets fill a slice of
the double tangent fiber parametrized by base position, base velocity and
the two scalars.  This module builds that parametrization, tests membership
of arbitrary jets, propagates and re-verifies the curves, and probes the
global structure (uniqueness, reparametrization, conjugate-point absence,
completeness, dimensions).

The membership constraints have one definition, :func:`_check_jets`, which
evaluates them on a whole stack of jets at once: :func:`membership` runs it
on one jet, and :func:`geodesic` on the jets at all nodes of a propagated
curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentTrajectoryError
from .geodesic import Trajectory, integrate
from .jetspace import EPS_SLASHED, JetPoint
from .spray import Spray, acceleration_jet, complete_lift


def _blocks(xi: np.ndarray, m: int) -> list[np.ndarray]:
    """The width-``m`` blocks of a jet, or the block columns of a stack of jets."""
    return [xi[..., k * m : (k + 1) * m] for k in range(xi.shape[-1] // m)]


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


@dataclass
class _JetChecks:
    """The constraints of a stack of jets, one row per jet.

    ``values`` holds them in :data:`CONSTRAINTS` order, NaN past a row's
    first failure, whose index is in ``failed`` (-1 for an accepted row).
    ``alpha`` and ``beta`` are NaN where they were not recovered.
    """

    values: np.ndarray
    failed: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """The largest constraint past "slashed" per row, NaN if one is NaN."""
        return self.values[:, 1:].max(axis=1)


def _norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(d, d))


def _check_jets(s: Spray, jets: np.ndarray, tol: float) -> _JetChecks:
    """Evaluate :data:`CONSTRAINTS` in order on every row of an ``(N, 8m)`` stack.

    A row stops at its first failure, and only the rows still accepted
    reach the next constraint, so a row meets the coefficients only past
    the cheaper constraints before them: its base acceleration (one
    ``s.acceleration`` call) after "base-velocity", its jolt (the tangent
    half of one call of the complete lift's acceleration, see
    :func:`~sprayjets.spray.acceleration_jet`) after "fiber-velocity".

    Dots and norms are ``np.vecdot`` over ``(rows, m)`` blocks, which takes
    on each row the same dot as ``b @ b`` and ``np.linalg.norm`` (whose
    square root it is), so each row's figures are bitwise those of the
    row checked alone and do not depend on the other rows.
    """

    m = s.fiber_dim
    if not np.all(np.isfinite(jets)):
        raise DomainError("jet coordinates must be finite")
    if jets.shape[1] != 8 * m:
        raise DomainError(f"expected {8 * m} coordinates, got {jets.shape[1]}")
    n = len(jets)
    out = _JetChecks(values=np.full((n, len(CONSTRAINTS)), np.nan), failed=np.full(n, -1),
                     alpha=np.full(n, np.nan), beta=np.full(n, np.nan))
    acc = np.full((n, m), np.nan)
    live = np.arange(n)

    def rows():
        """Blocks, acceleration and scalars of the rows still accepted."""
        return _blocks(jets[live], m), acc[live], out.alpha[live, None], out.beta[live, None]

    def passed(k: int, value: np.ndarray, bad: np.ndarray) -> bool:
        nonlocal live
        out.values[live, k] = value
        out.failed[live[bad]] = k
        live = live[~bad]
        return live.size > 0

    def fits(k: int, d: np.ndarray) -> bool:
        value = _norms(d)
        return passed(k, value, value > tol)

    b, *_ = rows()
    speed = _norms(b[1])
    if not passed(0, speed, speed <= EPS_SLASHED):
        return out
    b, *_ = rows()
    if not fits(1, b[4] - b[1]):
        return out
    b, *_ = rows()
    acc[live] = [s.acceleration(x, v) for x, v in zip(b[0].tolist(), b[1].tolist())]
    if not fits(2, b[5] - acc[live]):
        return out
    b, *_ = rows()
    out.alpha[live] = np.vecdot(b[2], b[1]) / np.vecdot(b[1], b[1])
    if not fits(3, b[2] - out.alpha[live, None] * b[1]):
        return out
    b, a, al, _ = rows()
    out.beta[live] = np.vecdot(b[3] - al * a, b[1]) / np.vecdot(b[1], b[1])
    if not fits(4, b[3] - al * a - out.beta[live, None] * b[1]):
        return out
    b, a, al, be = rows()
    if not fits(5, b[6] - be * b[1] - al * a):
        return out
    b, a, al, be = rows()
    lift = complete_lift(s).acceleration
    jolt = np.array([lift(x + v, v + ai)[m:]
                     for x, v, ai in zip(b[0].tolist(), b[1].tolist(), a.tolist())])
    fits(6, b[7] - al * jolt - 2.0 * be * a)
    return out


def membership(s: Spray, xi, tol: float = 1e-8):
    """Decide whether a jet lies on the parallel-curve slice.

    Constraints are evaluated in a fixed order and the first failure names
    the rejection; the scalars are recovered by projection onto the base
    velocity before the dependent blocks are checked.  Non-finite input is
    a domain error rather than a rejection.  This is :func:`_check_jets`
    on a stack of one jet.
    """

    xi = np.asarray(xi, dtype=float)
    checks = _check_jets(s, xi.reshape(1, -1), tol)
    k = int(checks.failed[0])
    names = CONSTRAINTS if k < 0 else CONSTRAINTS[: k + 1]
    values = dict(zip(names, checks.values[0].tolist()))
    if k >= 0:
        return MembershipRejection(CONSTRAINTS[k], values[CONSTRAINTS[k]], values)
    return MembershipResult(float(checks.alpha[0]), float(checks.beta[0]),
                            float(checks.residual[0]), values)


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
    the jets of all nodes are checked against the slice in one whole-array
    pass of the :func:`membership` constraints, and the recovered scalars
    are kept (the first drifts affinely, the second is constant).  A node
    that fails a constraint, or a deviation above ``tol``, raises
    :class:`InconsistentTrajectoryError`: the trajectory is not silently
    accepted.
    """

    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    lifted2 = complete_lift(complete_lift(s))
    init = JetPoint(s.level + 3, s.dim, delta_coordinates(s, x0, v0, alpha, beta))
    tr = integrate(lifted2, init, t_span, h)
    btr = tr.columns(slice(0, s.fiber_dim), s)

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
        checks = _check_jets(s, np.hstack([tr.positions, tr.velocities]), np.inf)
        rejected = np.flatnonzero(checks.failed >= 0)
        if rejected.size:
            k = rejected[0]
            c = checks.failed[k]
            raise InconsistentTrajectoryError(
                f"node jet at t={tr.times[k]:.6g} fails the {CONSTRAINTS[c]} "
                f"constraint ({checks.values[k, c]:.3e})"
            )
        membership_max = float(np.max(checks.residual))
        if membership_max > tol:
            raise InconsistentTrajectoryError(
                f"node jets leave the parallel slice by {membership_max:.3e}"
            )
        rec_a, rec_b = checks.alpha, checks.beta

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

    orig = sg.traj.states_at(scale * rep.traj.times + shift)[0]
    gap = float(np.max(np.abs(rep.traj.positions[:, 2 * m : 3 * m] - orig[:, 2 * m : 3 * m])))
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
