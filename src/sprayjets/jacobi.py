"""Jacobi fields as geodesics of lifted sprays.

A Jacobi field along a level-r geodesic is here exactly a geodesic of the
once-lifted spray whose projection is the base geodesic; no variational
equation is ever special-cased.  Finite-difference variations serve as
independent oracles, and conjugate points are located at minima of
the fiber determinant of a fundamental system of lifted geodesics.

Fields that share their base geodesic run as one trajectory of the lift's
fan (:meth:`Spray.fan`): the state is the carrier followed by each field's
fiber half, the carrier statements run once per evaluation and the tangent
statements once per field.  Each field's columns are bitwise its own run of
the lift, and the fan raises exactly the exception that the lift's kernel
raises first on the fields in turn.  So exceptions and exit reasons are
those of the separate runs.  The run loop inlines a traced fan's
statements at any width, from ``fan(2)`` of a 2-D spray along a level-0
geodesic to its ``fan(4)`` along a level-1 geodesic (see
:func:`~sprayjets.geodesic._run_loop`).

Finite differences are only oracles: :func:`variation_oracle`, the central
difference of the two runs perturbed by ``+eps`` and ``-eps``, and its end
jet :func:`flow_tangent_fd`.  Everything else differentiates exactly.  RK4
commutes with forming the variational equation, and here bit for bit,
since a lifted kernel performs the base's operations on ``Dual`` values: a
run of the lift is the exact derivative of the discrete base run, and
:mod:`sprayjets.subspray` differentiates with ``Dual`` entries.
A step that is not positive and finite raises :class:`DomainError` before
either run starts: a zero step divides by zero, and a NaN one makes every
comparison with a tolerance false, so a check would pass silently.  Only
the oracles' steps are arguments; the detectors' thresholds are
constants, each written beside its one use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidLevelError
from .geodesic import Trajectory, _integrate, _minima, integrate
from .jetspace import JetPoint, _dproject_idx, _kappa_idx, _liouville_rows, kappa
from .spray import Spray, complete_lift


@dataclass
class JacobiField:
    """A field curve one level above its base geodesic.

    ``field`` carries level-(r+1) positions (base posture in the first
    half, fiber components in the second); ``base`` is the projected
    geodesic.
    """

    field: Trajectory
    base: Trajectory

    @property
    def times(self) -> np.ndarray:
        return self.field.times

    @property
    def _m(self) -> int:
        return self.field.positions.shape[1] // 2

    def fiber_nodes(self) -> np.ndarray:
        return self.field.positions[:, self._m :]

    def fiber_rate_nodes(self) -> np.ndarray:
        return self.field.velocities[:, self._m :]


def jacobi_from_initial(s: Spray, init: JetPoint, t_span: tuple[float, float],
                        h: float) -> JacobiField:
    """Propagate a Jacobi field by integrating the lifted spray.

    ``init`` is a slashed jet two levels above the spray: the swapped-in
    ordering packs base position, fiber value, base velocity, fiber rate.
    """

    lifted = complete_lift(s)
    if init.level != lifted.level + 1:
        raise InvalidLevelError(
            f"initial jet must sit at level {lifted.level + 1}, got {init.level}"
        )
    tr = integrate(lifted, init, t_span, h)
    return JacobiField(field=tr, base=tr.columns(np.arange(tr.positions.shape[1] // 2), s))


def variation_oracle(s: Spray, gamma: Trajectory, w, eps: float = 1e-4) -> JacobiField:
    """Central-difference geodesic variation around ``gamma``.

    ``w`` perturbs the full initial phase point of ``gamma``; the field is
    assembled from the symmetric difference of the two perturbed geodesics,
    run with ``gamma``'s step so that their nodes fall on its times, and
    serves as an integrator-independent oracle for :func:`jacobi_from_initial`.
    When a perturbed run ends early the field stops there too, with the
    exit reason ``"truncated"``.
    """

    h = gamma.h
    w = np.asarray(w, dtype=float)
    z0 = np.concatenate([gamma.positions[0], gamma.velocities[0]])
    if w.shape != z0.shape:
        raise InvalidLevelError(f"perturbation shape {w.shape} does not match phase {z0.shape}")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"finite-difference step must be positive and finite, got {eps}")
    span = (gamma.t0, gamma.t_end)
    plus = integrate(s, JetPoint(s.level + 1, s.dim, z0 + eps * w), span, h)
    minus = integrate(s, JetPoint(s.level + 1, s.dim, z0 - eps * w), span, h)
    # the rows both runs have, on gamma's nodes
    n = min(len(plus.times), len(minus.times), len(gamma.times))
    dpos, dvel, dacc = ((getattr(plus, name)[:n] - getattr(minus, name)[:n]) / (2.0 * eps)
                        for name in ("positions", "velocities", "accelerations"))
    field = Trajectory(
        spray=complete_lift(s),
        times=gamma.times[:n],
        positions=np.hstack([gamma.positions[:n], dpos]),
        velocities=np.hstack([gamma.velocities[:n], dvel]),
        accelerations=np.hstack([gamma.accelerations[:n], dacc]),
        h=h,
        exit_reason=None if n == len(gamma.times) else "truncated",
    )
    base = gamma.columns(np.arange(gamma.positions.shape[1]), s)
    return JacobiField(field=field, base=base)


def flow_tangent_fd(s: Spray, p: JetPoint, t: float, h: float,
                    eps_fd: float = 1e-5) -> JetPoint:
    """Conjugated tangent flow by central differences.

    Splits ``kappa(p)`` into a phase point and a perturbation direction and
    returns the end jet of the :func:`variation_oracle` field along the
    direction, over the phase point's geodesic up to ``t``.  The field's
    node layout (position, its difference, velocity, its difference) is the
    differenced flow swapped back by ``kappa``.  This is the
    finite-difference side of the lifted flow identity.  A geodesic or
    field that stops short of ``t`` raises :class:`DomainError`.
    """

    if p.level != s.level + 2:
        raise InvalidLevelError(
            f"tangent flow acts two levels above the spray, got level {p.level}"
        )
    q = kappa(p).coords
    half = q.size // 2
    gamma = integrate(s, JetPoint(p.level - 1, p.dim, q[:half]), (0.0, t), h)
    field = variation_oracle(s, gamma, q[half:], eps_fd).field if gamma.complete else gamma
    if not field.complete:
        raise DomainError(f"tangent flow stopped ({field.exit_reason}) at t={field.t_end:.6g} "
                          f"before {t}")
    return field.final_jet()


# --- conjugate points -----------------------------------------------------


def _fan_run(s: Spray, starts: list[JetPoint], t_span: tuple[float, float],
             h: float) -> Trajectory:
    """One run of ``complete_lift(s)`` from ``starts``, which share a carrier.

    Each start is a lifted initial jet (base position, fiber value, base
    velocity, fiber rate, each ``s.fiber_dim`` entries) whose base half is
    that of ``starts[0]``.  The trajectory's columns are the carrier, then
    each start's fiber half: columns ``[carrier, k]`` are the lifted run
    from ``starts[k]``, bit for bit, and so are the exit reason and any
    exception, since every field shares the carrier's domain exits.  A step
    size :func:`integrate` refuses raises its :class:`DomainError`.

    The evaluator is the lift's fan for ``len(starts)`` tangents, which
    raises what the kernel raises first on the starts in turn.  The run
    reads no kernel; the run loop inlines the fan whenever it is traced.
    """

    lifted, n = complete_lift(s), s.fiber_dim
    coords = [p.coords.tolist() for p in starts]
    x = coords[0][:n] + [z for c in coords for z in c[n:2 * n]]
    v = coords[0][2 * n:3 * n] + [z for c in coords for z in c[3 * n:]]
    return _integrate(lifted, lifted.fan(len(starts)), x, v, t_span, h)


@dataclass
class ConjugateScan:
    """Conjugate times along a geodesic and the determinant samples behind them."""

    times: list[float]
    multiplicities: list[int]
    sample_times: np.ndarray
    sample_dets: np.ndarray
    exit_reason: str | None


def conjugate_search(s: Spray, init: JetPoint, t_max: float, h: float) -> ConjugateScan:
    """Scan for conjugate points along the geodesic through ``init``.

    A fundamental system of Jacobi fields with zero value and coordinate
    basis rates is propagated, and its fiber matrix (fields as columns)
    sampled at every node.  :func:`~sprayjets.geodesic._minima` refines the
    node-local minima of ``|det|`` by Ruhe's successive linear problems:
    linearising M(t + d) u = 0 gives the pencil M(t) u = -d M'(t) u, whose d
    of least modulus is -1 / mu for the eigenvalue mu of M^-1 M' of largest
    modulus (its real part is the step), with M' the fan's fiber rates.  At a
    refined time, singular values below 1e-6 of the largest make a conjugate
    time, and their count its multiplicity.  Minima, unlike sign changes, find
    roots of every multiplicity and those of lifted sprays, whose determinant
    is a square.

    The m fields share the geodesic as their carrier, so they run as one
    trajectory of the lift (:func:`_fan_run`), and each Newton step takes all
    m fibers and their rates from one dense-output evaluation.  Field k is
    bitwise its own :func:`jacobi_from_initial` run, so the scan, or the
    exception, is that of m separate runs.  A negative ``t_max`` scans
    backward in time.
    """

    m = s.fiber_dim
    half = init.coords.size // 2
    x0, v0 = init.coords[:half], init.coords[half:]
    starts = [JetPoint(s.level + 2, s.dim, np.concatenate([x0, np.zeros(m), v0, e]))
              for e in np.eye(m)]
    fan = _fan_run(s, starts, (0.0, t_max), h)
    # column m*(k+1) + i is fiber i of field k; the matrices hold fields as columns
    fibers = fan.positions[:, m:]
    dets = np.linalg.det(fibers.reshape(-1, m, m).transpose(0, 2, 1))

    def matrix(state: np.ndarray) -> np.ndarray:
        return state[m:].reshape(m, m).T

    def step_at(t: float) -> float:
        x, v = fan.state_at(t)
        try:
            mu = np.linalg.eigvals(np.linalg.solve(matrix(x), matrix(v)))
        except np.linalg.LinAlgError:  # M(t) is singular: t is a root
            return 0.0
        return -1.0 / mu[np.argmax(np.abs(mu))].real

    roots, mults = [], []
    # every minimum of |det| that the Newton steps keep is judged by the rank test
    for t in _minima(fan.times, np.abs(dets), step_at):
        sv = np.linalg.svd(matrix(fan.position_at(t)), compute_uv=False)
        deficiency = int(np.sum(sv < 1e-6 * sv[0])) if sv[0] > 0 else m
        if deficiency:
            roots.append(t)
            mults.append(deficiency)

    return ConjugateScan(roots, mults, fan.times.copy(), dets, fan.exit_reason)


# --- conjugate pairs upstairs ---------------------------------------------


@dataclass
class LiftedConjugateReport:
    liouville_deviation: float
    velocity_deviation: float
    end_fiber_norms: tuple[float, float, float, float]
    interior_sup: tuple[float, float]


def lift_conjugate_check(s: Spray, jac: JacobiField, end_tol: float = 1e-6) -> LiftedConjugateReport:
    """Re-verify that a two-ended Jacobi zero lifts to conjugate zero vectors.

    Builds the two witness fields one level up (the Liouville composite and
    the velocity-line variation) and re-integrates each as a geodesic of the
    doubly lifted spray; the end fiber norms and interior suprema are those
    of the runs, which must reach the field's end (or :class:`DomainError`).
    The velocity-line witness needs no finite-difference check: its run is
    bitwise the derivative in ``e`` of the lift's run from
    (``gamma(0)``, ``gamma'(0) + e J(0)``; ``gamma'(0)``, ``gamma''(0) + e J'(0)``),
    so its J block is that variation's exact limit, which
    ``velocity_deviation`` compares with J.  ``s`` may be at any level, and
    ``jac`` must run on its lift (:class:`InvalidLevelError` otherwise).
    """

    if jac.field.spray.level != s.level + 1:
        raise InvalidLevelError(f"a field of a level-{s.level} spray runs at level {s.level + 1}, "
                                f"got one at level {jac.field.spray.level}")
    fib = jac.fiber_nodes()
    norms = np.linalg.norm(fib, axis=1)
    if norms[0] > end_tol or norms[-1] > end_tol:
        raise DomainError("field does not vanish at both ends")
    if float(np.max(norms)) <= 1e-8:
        raise DomainError("field is identically zero")

    lifted2 = complete_lift(complete_lift(s))
    h = jac.field.h

    def witness(cand_pos: np.ndarray, cand_vel: np.ndarray):
        """Deviation, end fiber norms and fiber supremum of the re-integrated witness."""
        tr, dev = _reintegrate(lifted2, cand_pos, cand_vel, jac.times, h)
        if not tr.complete:
            raise DomainError(f"witness run stopped ({tr.exit_reason}) at t={tr.t_end:.6g}")
        norms = np.linalg.norm(tr.positions[:, tr.positions.shape[1] // 2 :], axis=1)
        return dev, (float(norms[0]), float(norms[-1])), float(np.max(norms))

    # Liouville composite of the field curve
    liouville_dev, l_end, l_sup = witness(_liouville_rows(jac.field.positions),
                                          _liouville_rows(jac.field.velocities))

    # variation along the velocity line gamma' + s J
    gpos, gvel, gacc = jac.base.positions, jac.base.velocities, jac.base.accelerations
    jfib, jrate = jac.fiber_nodes(), jac.fiber_rate_nodes()
    zeros = np.zeros_like(gpos)
    velocity_dev, v_end, v_sup = witness(np.hstack([gpos, gvel, zeros, jfib]),
                                         np.hstack([gvel, gacc, zeros, jrate]))

    return LiftedConjugateReport(
        liouville_deviation=liouville_dev,
        velocity_deviation=velocity_dev,
        end_fiber_norms=(l_end[0], l_end[1], v_end[0], v_end[1]),
        interior_sup=(l_sup, v_sup),
    )


# --- derived geodesics ----------------------------------------------------


def _reintegrate(target: Spray, cand_pos: np.ndarray, cand_vel: np.ndarray,
                 times: np.ndarray, h: float) -> tuple[Trajectory, float]:
    """The run of ``target`` from a candidate's first node, and its sup gap to the candidate."""
    init = JetPoint(target.level + 1, target.dim,
                    np.concatenate([cand_pos[0], cand_vel[0]]))
    tr = integrate(target, init, (float(times[0]), float(times[-1])), h)
    n = min(len(tr.times), len(cand_pos))
    return tr, float(np.max(np.abs(tr.positions[:n] - cand_pos[:n])))


def new_from_old_suite(base: Spray, j: Trajectory) -> dict:
    """Derive new geodesics from ``j`` and re-integrate each one.

    ``j`` must be a geodesic of an iterated complete lift of ``base``.
    Every applicable construction (affine time change, fiber combination,
    involution image, both projections, tangent curve, scaled tangent
    curve, Liouville composite) is rebuilt from its own initial jet with
    the same integrator; the sup deviation against the derived curve is
    returned per item.  Constructions that would need a third lift are
    skipped with a reason; that is a cost policy, since nested ``Dual``
    arithmetic has no depth limit and level-3 sprays integrate like any other.
    """

    r = j.spray.level
    if r < 1:
        raise InvalidLevelError("derived-geodesic suite needs a lifted trajectory")
    h = j.h
    times = j.times
    t0, t1 = float(times[0]), float(times[-1])
    out: dict[str, dict] = {}

    def reintegrated(name, target, pos, vel, at=times):
        out[name] = {"status": "ok", "deviation": _reintegrate(target, pos, vel, at, h)[1]}

    def skip(name, reason):
        out[name] = {"status": "skipped", "reason": reason}

    sprays = {0: base}
    for k in range(1, min(r + 1, 2) + 1):
        sprays[k] = complete_lift(sprays[k - 1])
    own = sprays[r]

    # (i) affine time change t -> stretch*t + shift
    stretch, shift = 0.5, t0 + 0.4 * (t1 - t0)
    w_end = (t1 - shift) / stretch
    sign = -1.0 if w_end < 0.0 else 1.0  # a backward run of j gives a backward one here
    sub_times = sign * np.arange(0.0, abs(w_end) + 0.5 * h, h)
    sub_times = sub_times[sign * (sub_times * stretch + shift) <= sign * t1 + 1e-12]
    xs, vs = j.states_at(stretch * sub_times + shift)
    reintegrated("affine_time", own, xs, stretch * vs, sub_times)

    # (ii) fiber combination with a second geodesic over the same projection
    rng = np.random.default_rng(7)
    half = j.positions.shape[1] // 2
    k_pos0 = j.positions[0].copy()
    k_vel0 = j.velocities[0].copy()
    k_pos0[half:] += rng.standard_normal(half)
    k_vel0[half:] += rng.standard_normal(half)
    ktr = integrate(own, JetPoint(r + 1, base.dim, np.concatenate([k_pos0, k_vel0])),
                    (t0, t1), h)
    a, b = 0.7, 1.3
    nn = min(len(j.times), len(ktr.times))
    comb_pos = j.positions[:nn].copy()
    comb_vel = j.velocities[:nn].copy()
    comb_pos[:, half:] = a * j.positions[:nn, half:] + b * ktr.positions[:nn, half:]
    comb_vel[:, half:] = a * j.velocities[:nn, half:] + b * ktr.velocities[:nn, half:]
    reintegrated("fiber_combination", own, comb_pos, comb_vel, j.times[:nn])

    # (iii) involution image
    idx = _kappa_idx(r, base.dim)
    reintegrated("involution", own, j.positions[:, idx], j.velocities[:, idx])

    # (iv) projection one level down
    reintegrated("projection", sprays[r - 1], j.positions[:, :half], j.velocities[:, :half])

    # (v) derivative projection one level down
    if r >= 2:
        didx = _dproject_idx(r, base.dim)
        reintegrated("derivative_projection", sprays[r - 1], j.positions[:, didx],
                     j.velocities[:, didx])
    else:
        skip("derivative_projection", "needs at least two tangent levels")

    # (vi)-(viii) live one level up
    if r + 1 > 2:
        reason = "needs a third lift, which this suite leaves out to bound its cost"
        skip("tangent_curve", reason)
        skip("scaled_tangent_curve", reason)
        skip("liouville_composite", reason)
        return out

    up = sprays[r + 1]

    # (vi) tangent curve j'
    tpos = np.hstack([j.positions, j.velocities])
    tvel = np.hstack([j.velocities, j.accelerations])
    reintegrated("tangent_curve", up, tpos, tvel)

    # (vii) scaled tangent curve t * j'(t)
    tcol = times[:, None]
    spos = np.hstack([j.positions, tcol * j.velocities])
    svel = np.hstack([j.velocities, j.velocities + tcol * j.accelerations])
    reintegrated("scaled_tangent_curve", up, spos, svel)

    # (viii) Liouville composite
    reintegrated("liouville_composite", up, _liouville_rows(j.positions),
                 _liouville_rows(j.velocities))

    return out
