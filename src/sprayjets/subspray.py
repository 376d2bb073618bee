"""Parallel-transport geodesics inside the double tangent fiber.

A two-parameter family of distinguished curves lives over every geodesic of
the base spray: the field (a + b t) c'(t) dragged along c.  These curves
are geodesics of the doubly lifted spray whose initial jets fill a slice of
the double tangent fiber parametrized by base position, base velocity and
the two scalars.  This module builds that parametrization, tests membership
of arbitrary jets, propagates and re-verifies the curves, and probes the
global structure (reparametrization, conjugate-point absence, completeness,
dimensions).  Uniqueness is checked on the initial jet alone, which fixes
the curve by ODE uniqueness: the scalars are recovered from it two ways and
no curve is integrated.

The membership constraints have one definition, :func:`_check_jets`, which
evaluates them on a whole stack of jets at once: :func:`membership` runs it
on one jet, and :func:`geodesic` on the jets at all nodes of a propagated
curve.  It has one stop rule: the constraints run in order on the whole
stack, and the check ends after the first one that any row fails.

The initial jet has one builder, :func:`delta_coordinates`, on lists, so
``Dual`` entries pass through it and every derivative here is exact: the
rank Jacobian of :func:`dimension_probe` and the family field of
:func:`parallel_jacobi_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InconsistentTrajectoryError, IntegrationBlowupError
from .geodesic import Trajectory, _minima, _stacked, integrate
from .jets import Dual, jet_du, unnest
from .jetspace import EPS_SLASHED, JetPoint
from .spray import Spray, acceleration_jet, complete_lift


def _blocks(xi: np.ndarray, m: int) -> list[np.ndarray]:
    """The width-``m`` blocks of a jet, or the block columns of a stack of jets."""
    return [xi[..., k * m : (k + 1) * m] for k in range(xi.shape[-1] // m)]


def _entries(z) -> list:
    """The entries of ``z`` as a list: ``Dual`` entries kept, the others as floats."""
    return [e if isinstance(e, Dual) else float(e) for e in np.asarray(z).tolist()]


def delta_coordinates(s: Spray, x0, v0, alpha, beta) -> np.ndarray:
    """Full initial jet of the parallel curve, one level above its positions.

    Positions (x, v, alpha v, alpha a + beta v), then their time derivative
    (v, a, beta v + alpha a, alpha a' + 2 beta a), with the acceleration a
    and its time derivative from :func:`~sprayjets.spray.acceleration_jet`.
    With ``Dual`` entries it is an object array carrying exact tangents.
    """

    x, v = _entries(x0), _entries(v0)
    a, jolt = acceleration_jet(s, x, v)
    pos = x + v + [alpha * vi for vi in v] + [alpha * ai + beta * vi for ai, vi in zip(a, v)]
    vel = (v + a + [beta * vi + alpha * ai for vi, ai in zip(v, a)]
           + [alpha * ji + 2.0 * beta * ai for ji, ai in zip(jolt, a)])
    return np.array(pos + vel)


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

    ``values`` holds them in :data:`CONSTRAINTS` order, NaN past column
    ``failed``, the constraint at which the check stopped (-1 if every row
    passed them all); ``rejected`` marks the rows that failed it.
    ``alpha`` and ``beta`` are NaN unless the check reached their recovery.
    """

    values: np.ndarray
    failed: int
    rejected: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        """The largest constraint past "slashed" per row, NaN if one is NaN."""
        return self.values[:, 1:].max(axis=1)

    def stops(self, k: int, value: np.ndarray, bad: np.ndarray) -> bool:
        """Record constraint ``k``; whether some row fails it, which ends the check."""
        self.values[:, k] = value
        if not bad.any():
            return False
        self.failed, self.rejected = k, bad
        return True

    def misfits(self, k: int, d: np.ndarray, tol: float) -> bool:
        """:meth:`stops` at constraint ``k``, the norm of ``d`` past ``tol``."""
        value = _norms(d)
        return self.stops(k, value, value > tol)


def _norms(d: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(d, d))


def _check_jets(s: Spray, jets: np.ndarray, tol: float) -> _JetChecks:
    """Evaluate :data:`CONSTRAINTS` in order on a whole ``(N, 8m)`` stack.

    The check stops after the first constraint that any row fails, so the
    stack meets the coefficients only past the cheaper constraints before
    them: its base accelerations (one ``s.acceleration`` call a row) after
    "base-velocity", its jolts (the tangent half of one call of the complete
    lift's acceleration, see :func:`~sprayjets.spray.acceleration_jet`)
    after "fiber-velocity".

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
    out = _JetChecks(values=np.full((n, len(CONSTRAINTS)), np.nan), failed=-1,
                     rejected=np.zeros(n, dtype=bool), alpha=np.full(n, np.nan),
                     beta=np.full(n, np.nan))
    b = _blocks(jets, m)
    speed = _norms(b[1])
    if out.stops(0, speed, speed <= EPS_SLASHED) or out.misfits(1, b[4] - b[1], tol):
        return out
    x, v = b[0].tolist(), b[1].tolist()
    a = _stacked([s.acceleration(xr, vr) for xr, vr in zip(x, v)], b[5].shape)
    if out.misfits(2, b[5] - a, tol):
        return out
    out.alpha = np.vecdot(b[2], b[1]) / np.vecdot(b[1], b[1])
    al = out.alpha[:, None]
    if out.misfits(3, b[2] - al * b[1], tol):
        return out
    out.beta = np.vecdot(b[3] - al * a, b[1]) / np.vecdot(b[1], b[1])
    be = out.beta[:, None]
    if (out.misfits(4, b[3] - al * a - be * b[1], tol)
            or out.misfits(5, b[6] - be * b[1] - al * a, tol)):
        return out
    lift = complete_lift(s).acceleration
    jolt = _stacked([lift(xr + vr, vr + ar)[m:] for xr, vr, ar in zip(x, v, a.tolist())],
                    b[7].shape)
    out.misfits(6, b[7] - al * jolt - 2.0 * be * a, tol)
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
    k = checks.failed
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

    lifted2 = complete_lift(complete_lift(s))
    init = JetPoint(s.level + 3, s.dim, delta_coordinates(s, x0, v0, alpha, beta))
    return _checked(s, integrate(lifted2, init, t_span, h), alpha, beta, tol, node_checks)


def _checked(s: Spray, tr: Trajectory, alpha: float, beta: float, tol: float,
             node_checks: bool) -> SubsprayGeodesic:
    """The checks of :func:`geodesic` on its doubly lifted run ``tr``."""

    btr = tr.columns(slice(0, s.fiber_dim), s)

    x, v, a = btr.positions, btr.velocities, btr.accelerations
    al = alpha + beta * btr.times[:, None]  # the first scalar drifts affinely
    formula = np.hstack([x, v, al * v, al * a + beta * v])
    deviation = float(np.max(np.abs(tr.positions - formula)))
    if deviation > tol:
        raise InconsistentTrajectoryError(
            f"closed form and reintegration disagree by {deviation:.3e}"
        )

    membership_max = None
    rec_a = rec_b = None
    if node_checks:
        checks = _check_jets(s, np.hstack([tr.positions, tr.velocities]), np.inf)
        c = checks.failed
        if c >= 0:
            k = np.flatnonzero(checks.rejected)[0]
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
    """The sequential recovery of the scalars from one initial jet, and its gap to the joint one."""

    alpha_sequential: float
    beta_sequential: float
    parameter_gap: float


def uniqueness_check(s: Spray, x0, v0, alpha: float, beta: float,
                     t_span: tuple[float, float], h: float) -> UniquenessReport:
    """Recover the scalars from the initial jet two independent ways.

    The sequential recovery is :func:`membership`'s, which projects the
    alpha block first; the joint variant solves one least-squares system
    over both dependent blocks, and ``parameter_gap`` is the larger
    difference of the two.  The initial jet fixes the whole curve by ODE
    uniqueness, so agreeing scalars fix it too and no curve is integrated:
    ``t_span`` and ``h`` are accepted for existing callers and not read.
    A start whose base velocity is not slashed raises :class:`DomainError`.
    """

    m = s.fiber_dim
    xi = delta_coordinates(s, x0, v0, alpha, beta)
    seq = membership(s, xi, tol=np.inf)
    if isinstance(seq, MembershipRejection):
        raise DomainError(f"base velocity is not slashed ({seq.residual:.3e})")
    b = _blocks(xi, m)

    mat = np.zeros((2 * m, 2))
    mat[:m, 0] = b[1]
    mat[m:, 0] = b[5]  # the base acceleration
    mat[m:, 1] = b[1]
    rhs = np.concatenate([b[2], b[3]])
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    a_joint, b_joint = float(sol[0]), float(sol[1])

    gap = max(abs(seq.alpha - a_joint), abs(seq.beta - b_joint))
    return UniquenessReport(seq.alpha, seq.beta, gap)


@dataclass
class ParallelJacobi:
    """Directional derivative through a family of parallel curves."""

    times: np.ndarray
    values: np.ndarray
    sup_norm: float
    zero_times: list[float]


def parallel_jacobi_curve(s: Spray, family, t_span: tuple[float, float], h: float) -> ParallelJacobi:
    """The exact field of ``family(sigma) -> (x0, v0, alpha, beta)`` at sigma = 0.

    ``family`` is called once, at a 0-d object array holding Dual(0, 1), so
    that ndarray arithmetic on sigma gives arrays of ``Dual`` entries.  One
    run of the third lift from the jet and its sigma-derivative gives the
    field as its tangent half and the centre curve as its carrier, bitwise
    the run of :func:`geodesic`.  Its zeros are the minima of its norm that
    :func:`~sprayjets.geodesic._minima` refines by the one-column Newton step
    -<J, J'> / |J'|^2 and whose norm is then at most 1e-6 of the norm's node
    supremum.
    """

    x0, v0, al, be = family(np.array(Dual(0.0, 1.0), dtype=object))
    xi = delta_coordinates(s, x0, v0, al, be).tolist()
    n = 4 * s.fiber_dim
    init = unnest(xi[:n], 1) + unnest(xi[n:], 1)
    lifted3 = complete_lift(complete_lift(complete_lift(s)))
    tr = integrate(lifted3, JetPoint(s.level + 4, s.dim, init), t_span, h)
    vals = tr.positions[:, n:]
    norms = np.linalg.norm(vals, axis=1)
    sup = float(np.max(norms))

    def step_at(t: float) -> float:
        x, v = tr.state_at(t)
        return -(x[n:] @ v[n:]) / (v[n:] @ v[n:])

    # a field constant in time has no strict dip, hence no zeros
    zeros = [t for t in _minima(tr.times, norms, step_at)
             if np.linalg.norm(tr.position_at(t)[n:]) <= 1e-6 * sup]
    return ParallelJacobi(tr.times, vals, sup, zeros)


@dataclass
class NoConjugateReport:
    zero_times: list[float]
    sup_norm: float
    ok: bool


def no_conjugate_check(s: Spray, family, t_span: tuple[float, float], h: float) -> NoConjugateReport:
    """Two distinct zeros of a family field force the whole field to vanish.

    A field with fewer than two zeros (:func:`parallel_jacobi_curve`'s, on
    its own scale) passes vacuously; with two or more it is a conjugate pair
    and fails.  A trivial field has no strict dip, hence no zeros.
    """

    pj = parallel_jacobi_curve(s, family, t_span, h)
    return NoConjugateReport(pj.zero_times, pj.sup_norm, ok=len(pj.zero_times) < 2)


@dataclass
class ReparametrizedReport:
    alpha: float
    beta: float
    field_gap: float
    curve: SubsprayGeodesic


def reparametrized(s: Spray, sg: SubsprayGeodesic, scale: float, shift: float) -> ReparametrizedReport:
    """Express the transported field over an affinely reparametrized base.

    With the base curve run as c(scale * t + shift), the field block stays
    pointwise identical when the first scalar becomes
    (alpha + beta * shift) / scale and the second is unchanged.  The new
    curve runs with ``sg``'s step, and ``scale`` must be positive and finite.
    """

    if not 0.0 < scale < np.inf:
        raise DomainError(f"scale must be positive and finite, got {scale}")
    m = s.fiber_dim
    x_t0, v_t0 = sg.base.state_at(shift)
    new_alpha = (sg.alpha + sg.beta * shift) / scale
    new_beta = sg.beta
    t_end = (sg.base.t_end - shift) / scale
    rep = geodesic(s, x_t0, scale * v_t0, new_alpha, new_beta, (0.0, t_end), sg.traj.h,
                   tol=np.inf, node_checks=False)

    orig = sg.traj.states_at(scale * rep.traj.times + shift)[0]
    gap = float(np.max(np.abs(rep.traj.positions[:, 2 * m : 3 * m] - orig[:, 2 * m : 3 * m])))
    return ReparametrizedReport(new_alpha, new_beta, gap, rep)


def completeness_probe(s: Spray, cases, t_max: float, h: float) -> list[dict]:
    """Exit-time agreement between base geodesics and their parallel curves.

    Each case is a mapping with label, x0, v0, alpha, beta.  Both
    integrations run to ``t_max`` or their common obstruction; the probe
    reports whether the two stopping times agree to one step.  A run that
    blows up in finite time reports the exit ``"blowup"`` at its last
    finite node; a coefficient evaluation that raises inside the chart
    still raises :class:`IntegrationBlowupError`.
    """

    rows = []
    for case in cases:
        x0 = np.asarray(case["x0"], dtype=float)
        v0 = np.asarray(case["v0"], dtype=float)
        binit = JetPoint(s.level + 1, s.dim, np.concatenate([x0, v0]))
        base_exit, base_time = _run_end(lambda: integrate(s, binit, (0.0, t_max), h))
        sub_exit, sub_time = _run_end(lambda: geodesic(
            s, x0, v0, float(case["alpha"]), float(case["beta"]),
            (0.0, t_max), h, tol=np.inf, node_checks=False).traj)
        rows.append({
            "label": case.get("label", ""),
            "base_exit": base_exit,
            "base_time": base_time,
            "sub_exit": sub_exit,
            "sub_time": sub_time,
            "agree": abs(base_time - sub_time) <= h + 1e-12,
        })
    return rows


def _run_end(run) -> tuple[str | None, float]:
    """The exit reason and end time of the trajectory ``run()`` returns.

    A run whose state turns non-finite after its start ends with
    ``"blowup"`` at its last finite node.  A coefficient evaluation that
    raises (the error's ``__cause__``) is a defect, not a blowup, and
    propagates, as does a failure at the start.
    """
    try:
        tr = run()
    except IntegrationBlowupError as exc:
        if exc.t_end is None or exc.__cause__ is not None:
            raise
        return "blowup", exc.t_end
    return tr.exit_reason, tr.t_end


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


def _rank(mat: np.ndarray) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-6 * sv[0]))


def dimension_probe(s: Spray, x0, v0, alpha: float, beta: float) -> DimensionReport:
    """Numerical ranks of the slice parametrizations at one point.

    The full-jet and configuration maps should both have rank 2n + 2 in
    the base fiber dimension n; freezing the scalars drops the rank to 2n,
    and deleting only the beta column loses exactly one direction.  The
    Jacobian of :func:`delta_coordinates` in (x0, v0, alpha, beta) is exact,
    column k from ``Dual`` entries with the k-th unit tangent; the other
    maps take its position rows and a subset of its columns.  The alpha and
    beta columns scale with the speed ``|v0|``, so the ranks are taken with
    them divided by it: column scaling keeps the exact rank, and a slow
    start reads the rank of a fast one.  ``parametrization_jacobian`` is
    the unscaled Jacobian.  A start that is not finite, or whose base
    velocity is not slashed, raises :class:`DomainError`.
    """

    m = s.fiber_dim
    p0 = np.concatenate([np.asarray(x0, float), np.asarray(v0, float), [alpha, beta]]).tolist()
    if not np.isfinite(p0).all():
        raise DomainError(f"dimension probe needs a finite start and scalars, got {p0}")

    def column(k: int) -> list[float]:
        p = [Dual(z, float(i == k)) for i, z in enumerate(p0)]
        xi = delta_coordinates(s, p[:m], p[m : 2 * m], p[2 * m], p[2 * m + 1])
        return [jet_du(z) for z in xi]

    speed = float(np.linalg.norm(p0[m : 2 * m]))
    if speed <= EPS_SLASHED:
        raise DomainError(f"base velocity is not slashed ({speed:.3e})")
    j_full = np.array([column(k) for k in range(len(p0))]).T
    scaled = np.hstack([j_full[:, : 2 * m], j_full[:, 2 * m :] / speed])
    j_conf = scaled[: 4 * m]
    return DimensionReport(
        full_jet_rank=_rank(scaled),
        configuration_rank=_rank(j_conf),
        fixed_parameter_rank=_rank(j_conf[:, : 2 * m]),
        configuration_rank_without_beta=_rank(j_conf[:, : 2 * m + 1]),
        expected=(2 * m + 2, 2 * m + 2, 2 * m, 2 * m + 1),
        parametrization_jacobian=j_full,
    )
