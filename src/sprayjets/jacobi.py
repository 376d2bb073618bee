"""Jacobi fields as geodesics of lifted sprays.

A Jacobi field along a level-r geodesic is here exactly a geodesic of the
once-lifted spray whose projection is the base geodesic; no variational
equation is ever special-cased.  Finite-difference variations serve as
independent oracles, the doubly lifted spray decomposes into the three
coupled fields it transports, and conjugate points are located through the
determinant of a fundamental system of lifted geodesics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidLevelError
from .geodesic import Trajectory, integrate, residual
from .jetspace import JetPoint, _dproject_idx
from .spray import Spray, complete_lift


@dataclass
class JacobiField:
    """A field curve one level above its base geodesic.

    ``field`` carries level-(r+1) positions (base posture in the first
    half, fiber components in the second); ``base`` is the projected
    geodesic.  ``kind`` records how the field was produced.
    """

    field: Trajectory
    base: Trajectory
    kind: str

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

    def fiber_at(self, t: float) -> np.ndarray:
        return self.field.position_at(t)[self._m :]

    def validate(self) -> dict:
        """Own-equation residual and projection consistency."""
        proj_gap = float(
            np.max(np.abs(self.field.positions[:, : self._m] - self.base.positions))
        )
        return {
            "field_residual": residual(self.field.spray, self.field),
            "base_residual": residual(self.base.spray, self.base),
            "projection_gap": proj_gap,
        }


def base_of(tr: Trajectory, parent: Spray) -> Trajectory:
    half = tr.positions.shape[1] // 2
    return tr.columns(np.arange(half), parent)


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
    return JacobiField(field=tr, base=base_of(tr, s), kind="lifted-geodesic")


def variation_oracle(s: Spray, gamma: Trajectory, w, eps: float = 1e-4,
                     h: float | None = None) -> JacobiField:
    """Central-difference geodesic variation around ``gamma``.

    ``w`` perturbs the full initial phase point of ``gamma``; the field is
    assembled from the symmetric difference of the two perturbed geodesics
    and serves as an integrator-independent oracle for
    :func:`jacobi_from_initial`.
    """

    if h is None:
        h = gamma.h
    w = np.asarray(w, dtype=float)
    z0 = np.concatenate([gamma.positions[0], gamma.velocities[0]])
    if w.shape != z0.shape:
        raise InvalidLevelError(f"perturbation shape {w.shape} does not match phase {z0.shape}")
    span = (gamma.t0, gamma.t_end)
    level = s.level + 1
    plus = integrate(s, JetPoint(level, s.dim, z0 + eps * w), span, h)
    minus = integrate(s, JetPoint(level, s.dim, z0 - eps * w), span, h)

    nodes = min(len(gamma.times), len(plus.times), len(minus.times))
    sl = slice(0, nodes)
    dpos = (plus.positions[sl] - minus.positions[sl]) / (2.0 * eps)
    dvel = (plus.velocities[sl] - minus.velocities[sl]) / (2.0 * eps)
    dacc = (plus.accelerations[sl] - minus.accelerations[sl]) / (2.0 * eps)

    lifted = complete_lift(s)
    field = Trajectory(
        spray=lifted,
        times=gamma.times[sl],
        positions=np.hstack([gamma.positions[sl], dpos]),
        velocities=np.hstack([gamma.velocities[sl], dvel]),
        accelerations=np.hstack([gamma.accelerations[sl], dacc]),
        h=h,
        requested=span,
        exit_reason=None if nodes == len(gamma.times) else "truncated",
    )
    base = gamma.columns(np.arange(gamma.positions.shape[1]), s)
    return JacobiField(field=field, base=base, kind="variation-oracle")


@dataclass
class DoubleLiftDecomposition:
    """The three coupled fields inside a doubly lifted geodesic.

    ``carrier`` is the underlying geodesic, ``inner`` and ``outer`` the two
    Jacobi fields it transports.  ``mixed_blocks`` collects the remaining
    block group; its values are chart-dependent and are exposed only for
    inspection, except that when the outer field has identically zero
    fiber the pair (carrier, mixed) is itself a Jacobi field.
    """

    carrier: Trajectory
    inner: Trajectory
    outer: Trajectory
    mixed_blocks: np.ndarray
    mixed_is_chart_invariant: bool
    residuals: dict


def decompose_double_lift(s: Spray, tr: Trajectory, zero_tol: float = 1e-12) -> DoubleLiftDecomposition:
    """Split a trajectory of the doubly lifted spray into its parts."""

    lifted = complete_lift(s)
    quarter = tr.positions.shape[1] // 4
    level2 = s.level + 2
    idx_c = np.arange(quarter)
    idx_inner = np.arange(2 * quarter)
    idx_outer = _dproject_idx(level2, s.dim)

    carrier = tr.columns(idx_c, s)
    inner = tr.columns(idx_inner, lifted)
    outer = tr.columns(idx_outer, lifted)
    mixed = tr.positions[:, 3 * quarter :]

    outer_fiber_sup = float(np.max(np.abs(tr.positions[:, 2 * quarter : 3 * quarter])))
    outer_rate_sup = float(np.max(np.abs(tr.velocities[:, 2 * quarter : 3 * quarter])))
    invariant = outer_fiber_sup <= zero_tol and outer_rate_sup <= zero_tol

    res = {
        "carrier": residual(s, carrier),
        "inner": residual(lifted, inner),
        "outer": residual(lifted, outer),
    }
    if invariant:
        mixed_tr = Trajectory(
            spray=lifted,
            times=tr.times,
            positions=np.hstack([carrier.positions, mixed]),
            velocities=np.hstack([carrier.velocities, tr.velocities[:, 3 * quarter :]]),
            accelerations=np.hstack([carrier.accelerations, tr.accelerations[:, 3 * quarter :]]),
            h=tr.h,
            requested=tr.requested,
            exit_reason=tr.exit_reason,
        )
        res["mixed_as_jacobi"] = residual(lifted, mixed_tr)

    return DoubleLiftDecomposition(
        carrier=carrier,
        inner=inner,
        outer=outer,
        mixed_blocks=mixed,
        mixed_is_chart_invariant=invariant,
        residuals=res,
    )


# --- conjugate points -----------------------------------------------------


@dataclass
class ConjugateScan:
    spray_tag: str
    init: np.ndarray
    t_max: float
    times: list[float]
    multiplicities: list[int]
    sample_times: np.ndarray
    sample_dets: np.ndarray
    exit_reason: str | None

    def report(self, csv_path: str | None = None) -> dict:
        return {
            "spray": self.spray_tag,
            "init": [float(z) for z in self.init],
            "t_max": self.t_max,
            "conjugate_times": [round(t, 12) for t in self.times],
            "det_samples_csv_path": csv_path,
        }


def conjugate_search(s: Spray, init: JetPoint, t_max: float, h: float,
                     det_tol: float = 1e-10, bracket_tol: float = 1e-6,
                     rank_rtol: float = 1e-6) -> ConjugateScan:
    """Scan for conjugate points along the geodesic through ``init``.

    A fundamental system of Jacobi fields with zero value and coordinate
    basis rates is propagated; zeros of its fiber determinant mark the
    conjugate times.  Sign changes between nodes are refined by bisection
    on the dense output; multiplicity is the rank deficiency of the fiber
    matrix at the root.
    """

    m = (1 << s.level) * s.dim
    half = init.coords.size // 2
    x0, v0 = init.coords[:half], init.coords[half:]

    fields = []
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = 1.0
        jinit = JetPoint(s.level + 2, s.dim,
                         np.concatenate([x0, np.zeros(m), v0, ek]))
        fields.append(jacobi_from_initial(s, jinit, (0.0, t_max), h))

    nodes = min(len(f.times) for f in fields)
    times = fields[0].times[:nodes]
    exit_reason = None
    for f in fields:
        if f.field.exit_reason is not None:
            exit_reason = f.field.exit_reason

    fibers = np.stack([f.fiber_nodes()[:nodes] for f in fields], axis=2)  # (nodes, m, m)
    dets = np.linalg.det(fibers)

    def det_at(t: float) -> np.ndarray:
        cols = [f.fiber_at(t) for f in fields]
        return np.stack(cols, axis=1)

    roots: list[float] = []
    mults: list[int] = []
    for i in range(1, nodes - 1):
        a, b = float(times[i]), float(times[i + 1])
        da, db = float(dets[i]), float(dets[i + 1])
        if da == 0.0:
            root = a
        elif da * db < 0.0:
            root = None
            while b - a > bracket_tol:
                mid = 0.5 * (a + b)
                dm = float(np.linalg.det(det_at(mid)))
                if abs(dm) < det_tol:
                    root = mid
                    break
                if da * dm < 0.0:
                    b = mid
                else:
                    a, da = mid, dm
            if root is None:
                root = 0.5 * (a + b)
        else:
            continue
        if roots and abs(root - roots[-1]) < 10.0 * bracket_tol:
            continue
        sv = np.linalg.svd(det_at(root), compute_uv=False)
        deficiency = int(np.sum(sv < rank_rtol * sv[0])) if sv[0] > 0 else m
        roots.append(root)
        mults.append(max(1, deficiency))

    return ConjugateScan(
        spray_tag=s.tag,
        init=init.coords.copy(),
        t_max=t_max,
        times=roots,
        multiplicities=mults,
        sample_times=times.copy(),
        sample_dets=dets.copy(),
        exit_reason=exit_reason,
    )


# --- conjugate pairs upstairs ---------------------------------------------


@dataclass
class LiftedConjugateReport:
    liouville_deviation: float
    velocity_deviation: float
    fd_gap: float
    end_fiber_norms: tuple[float, float, float, float]
    interior_sup: tuple[float, float]


def _liouville_coords(rows: np.ndarray) -> np.ndarray:
    half = rows.shape[1] // 2
    zeros = np.zeros_like(rows[:, :half])
    return np.hstack([rows, zeros, rows[:, half:]])


def lift_conjugate_check(s: Spray, jac: JacobiField, eps_var: float = 1e-4,
                         end_tol: float = 1e-6, zero_tol: float = 1e-8) -> LiftedConjugateReport:
    """Re-verify that a two-ended Jacobi zero lifts to conjugate zero vectors.

    Builds the two witness fields one level up (the Liouville composite and
    the velocity-line variation), re-integrates each as a geodesic of the
    doubly lifted spray, and confirms both vanish fiberwise exactly at the
    ends.  The velocity-line field is also compared against its
    finite-difference variation limit.
    """

    if s.level + 2 > 2:
        raise InvalidLevelError("witness construction needs two lifts; base spray only")
    fib = jac.fiber_nodes()
    norms = np.linalg.norm(fib, axis=1)
    if norms[0] > end_tol or norms[-1] > end_tol:
        raise DomainError("field does not vanish at both ends")
    if float(np.max(norms)) <= zero_tol:
        raise DomainError("field is identically zero")

    lifted2 = complete_lift(complete_lift(s))
    span = (jac.field.t0, jac.field.t_end)
    h = jac.field.h

    # Liouville composite of the field curve
    lpos = _liouville_coords(jac.field.positions)
    lvel = _liouville_coords(jac.field.velocities)
    linit = JetPoint(s.level + 3, s.dim, np.concatenate([lpos[0], lvel[0]]))
    ltr = integrate(lifted2, linit, span, h)
    n1 = min(len(ltr.times), len(lpos))
    liouville_dev = float(np.max(np.abs(ltr.positions[:n1] - lpos[:n1])))
    lfib = lpos[:, lpos.shape[1] // 2 :]
    l_end = (float(np.linalg.norm(lfib[0])), float(np.linalg.norm(lfib[-1])))
    l_sup = float(np.max(np.linalg.norm(lfib, axis=1)))

    # variation along the velocity line gamma' + s J
    gpos, gvel, gacc = jac.base.positions, jac.base.velocities, jac.base.accelerations
    jfib, jrate = jac.fiber_nodes(), jac.fiber_rate_nodes()
    zeros = np.zeros_like(gpos)
    vpos = np.hstack([gpos, gvel, zeros, jfib])
    vvel = np.hstack([gvel, gacc, zeros, jrate])
    vinit = JetPoint(s.level + 3, s.dim, np.concatenate([vpos[0], vvel[0]]))
    vtr = integrate(lifted2, vinit, span, h)
    n2 = min(len(vtr.times), len(vpos))
    velocity_dev = float(np.max(np.abs(vtr.positions[:n2] - vpos[:n2])))
    vfib = np.hstack([zeros, jfib])
    v_end = (float(np.linalg.norm(vfib[0])), float(np.linalg.norm(vfib[-1])))
    v_sup = float(np.max(np.linalg.norm(vfib, axis=1)))

    # finite-difference limit of the same variation
    lifted = complete_lift(s)
    z0 = np.concatenate([gpos[0], gvel[0] + eps_var * jfib[0],
                         gvel[0], gacc[0] + eps_var * jrate[0]])
    z1 = np.concatenate([gpos[0], gvel[0] - eps_var * jfib[0],
                         gvel[0], gacc[0] - eps_var * jrate[0]])
    pl = integrate(lifted, JetPoint(s.level + 2, s.dim, z0), span, h)
    mi = integrate(lifted, JetPoint(s.level + 2, s.dim, z1), span, h)
    n3 = min(len(pl.times), len(mi.times), len(vpos))
    fd_fiber = (pl.positions[:n3] - mi.positions[:n3]) / (2.0 * eps_var)
    fd_gap = float(np.max(np.abs(fd_fiber - np.hstack([zeros, jfib])[:n3])))

    return LiftedConjugateReport(
        liouville_deviation=liouville_dev,
        velocity_deviation=velocity_dev,
        fd_gap=fd_gap,
        end_fiber_norms=(l_end[0], l_end[1], v_end[0], v_end[1]),
        interior_sup=(l_sup, v_sup),
    )


# --- derived geodesics ----------------------------------------------------


def _reintegrate_deviation(target: Spray, cand_pos: np.ndarray, cand_vel: np.ndarray,
                           times: np.ndarray, h: float) -> float:
    init = JetPoint(target.level + 1, target.dim,
                    np.concatenate([cand_pos[0], cand_vel[0]]))
    tr = integrate(target, init, (float(times[0]), float(times[-1])), h)
    n = min(len(tr.times), len(cand_pos))
    return float(np.max(np.abs(tr.positions[:n] - cand_pos[:n])))


def new_from_old_suite(base: Spray, j: Trajectory, shift: float | None = None,
                       stretch: float = 0.5, combo: tuple[float, float] = (0.7, 1.3),
                       seed: int = 7) -> dict:
    """Derive new geodesics from ``j`` and re-integrate each one.

    ``j`` must be a geodesic of an iterated complete lift of ``base``.
    Every applicable construction (affine time change, fiber combination,
    involution image, both projections, tangent curve, scaled tangent
    curve, Liouville composite) is rebuilt from its own initial jet with
    the same integrator; the sup deviation against the derived curve is
    returned per item.  Constructions that would need a third lift are
    skipped with a reason.
    """

    r = j.spray.level
    if r < 1:
        raise InvalidLevelError("derived-geodesic suite needs a lifted trajectory")
    h = j.h
    times = j.times
    t0, t1 = float(times[0]), float(times[-1])
    out: dict[str, dict] = {}

    def record(name, dev):
        out[name] = {"status": "ok", "deviation": float(dev)}

    def skip(name, reason):
        out[name] = {"status": "skipped", "reason": reason}

    sprays = {0: base}
    for k in range(1, min(r + 1, 2) + 1):
        sprays[k] = complete_lift(sprays[k - 1])
    own = sprays[r]

    # (i) affine time change t -> stretch*t + shift
    if shift is None:
        shift = t0 + 0.4 * (t1 - t0)
    w_end = (t1 - shift) / stretch
    sub_times = np.arange(0.0, w_end + 0.5 * h, h)
    sub_times = sub_times[sub_times * stretch + shift <= t1 + 1e-12]
    cand_pos = np.stack([j.position_at(stretch * t + shift) for t in sub_times])
    x0, v0 = j.state_at(shift)
    init = JetPoint(r + 1, base.dim, np.concatenate([x0, stretch * v0]))
    tr = integrate(own, init, (0.0, float(sub_times[-1])), h)
    n = min(len(tr.times), len(cand_pos))
    record("affine_time", np.max(np.abs(tr.positions[:n] - cand_pos[:n])))

    # (ii) fiber combination with a second geodesic over the same projection
    rng = np.random.default_rng(seed)
    half = j.positions.shape[1] // 2
    k_pos0 = j.positions[0].copy()
    k_vel0 = j.velocities[0].copy()
    k_pos0[half:] += rng.standard_normal(half)
    k_vel0[half:] += rng.standard_normal(half)
    ktr = integrate(own, JetPoint(r + 1, base.dim, np.concatenate([k_pos0, k_vel0])),
                    (t0, t1), h)
    a, b = combo
    nn = min(len(j.times), len(ktr.times))
    comb_pos = j.positions[:nn].copy()
    comb_vel = j.velocities[:nn].copy()
    comb_pos[:, half:] = a * j.positions[:nn, half:] + b * ktr.positions[:nn, half:]
    comb_vel[:, half:] = a * j.velocities[:nn, half:] + b * ktr.velocities[:nn, half:]
    record("fiber_combination",
           _reintegrate_deviation(own, comb_pos, comb_vel, j.times[:nn], h))

    # (iii) involution image
    from .jetspace import _kappa_idx

    idx = _kappa_idx(r, base.dim)
    record("involution",
           _reintegrate_deviation(own, j.positions[:, idx], j.velocities[:, idx], times, h))

    # (iv) projection one level down
    if r >= 1:
        record("projection",
               _reintegrate_deviation(sprays[r - 1], j.positions[:, :half],
                                      j.velocities[:, :half], times, h))

    # (v) derivative projection one level down
    if r >= 2:
        didx = _dproject_idx(r, base.dim)
        record("derivative_projection",
               _reintegrate_deviation(sprays[r - 1], j.positions[:, didx],
                                      j.velocities[:, didx], times, h))
    else:
        skip("derivative_projection", "needs at least two tangent levels")

    # (vi)-(viii) live one level up
    if r + 1 > 2:
        reason = "needs a third lift, beyond the jet nesting budget"
        skip("tangent_curve", reason)
        skip("scaled_tangent_curve", reason)
        skip("liouville_composite", reason)
        return out

    up = sprays[r + 1]

    # (vi) tangent curve j'
    tpos = np.hstack([j.positions, j.velocities])
    tvel = np.hstack([j.velocities, j.accelerations])
    record("tangent_curve", _reintegrate_deviation(up, tpos, tvel, times, h))

    # (vii) scaled tangent curve t * j'(t)
    tcol = times[:, None]
    spos = np.hstack([j.positions, tcol * j.velocities])
    svel = np.hstack([j.velocities, j.velocities + tcol * j.accelerations])
    record("scaled_tangent_curve", _reintegrate_deviation(up, spos, svel, times, h))

    # (viii) Liouville composite
    record("liouville_composite",
           _reintegrate_deviation(up, _liouville_coords(j.positions),
                                  _liouville_coords(j.velocities), times, h))

    return out
