"""Fixed-step integration, dense output, exit handling, and the flow map."""

from dataclasses import replace

import numpy as np
import pytest

from sprayjets import (EPS_SLASHED, DomainError, IntegrationBlowupError,
                       InvalidLevelError, JetPoint, Spray, Trajectory,
                       complete_lift, flow, flow_tangent_fd, integrate,
                       make_finsler_example, make_flat, make_sphere,
                       pushforward_spray, residual, shear_chart,
                       write_trajectory_csv)

TILT, OMEGA = 0.3, 3.0


def tilted_circle(t):
    # great circle through the equator point (pi/2, 0) at inclination TILT,
    # traversed with angular speed OMEGA; colatitude stays off the poles
    th = np.arccos(np.sin(TILT) * np.sin(OMEGA * t))
    ph = np.arctan2(np.cos(TILT) * np.sin(OMEGA * t), np.cos(OMEGA * t))
    return np.array([th, ph])


def tilted_init():
    return JetPoint(1, 2, np.array([np.pi / 2, 0.0,
                                    -OMEGA * np.sin(TILT), OMEGA * np.cos(TILT)]))


def test_flat_straight_line():
    s = make_flat(2)
    x0, v0 = np.array([0.1, -0.2]), np.array([0.3, -1.2])
    tr = integrate(s, JetPoint(1, 2, np.concatenate([x0, v0])), (0.0, 0.73), 1e-2)
    assert tr.complete and tr.exit_reason is None
    assert tr.times[-1] == 0.73
    for k, t in enumerate(tr.times):
        np.testing.assert_allclose(tr.positions[k], x0 + t * v0, atol=1e-13)
        np.testing.assert_allclose(tr.velocities[k], v0, atol=1e-14)


def test_equator_closed_form():
    s = make_sphere()
    init = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    tr = integrate(s, init, (0.0, np.pi), 1e-3)
    np.testing.assert_allclose(tr.positions[:, 0], np.pi / 2, atol=1e-10)
    np.testing.assert_allclose(tr.positions[:, 1], tr.times, atol=1e-8)
    np.testing.assert_allclose(tr.velocities[:, 1], 1.0, atol=1e-10)


def test_fourth_order_convergence():
    # the equator is integrated exactly, so order is probed on a tilted
    # circle where all coefficient derivatives are active
    s = make_sphere()
    errs = []
    for h in (4e-2, 2e-2, 1e-2):
        tr = integrate(s, tilted_init(), (0.0, 1.0), h)
        errs.append(np.linalg.norm(tr.positions[-1] - tilted_circle(1.0)))
    for big, small in zip(errs, errs[1:]):
        ratio = big / small
        assert 4.0 <= ratio <= 64.0, f"halving ratio {ratio} not fourth order"


def test_step_halving_agreement():
    s = make_sphere()
    a = integrate(s, tilted_init(), (0.0, 1.0), 1e-3)
    b = integrate(s, tilted_init(), (0.0, 1.0), 5e-4)
    gap = np.linalg.norm(np.concatenate([a.positions[-1] - b.positions[-1],
                                         a.velocities[-1] - b.velocities[-1]]))
    assert gap < 1e-10


def test_dense_output_matches_closed_form():
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-3)
    for t in np.linspace(0.013, 0.987, 41):
        x, v = tr.state_at(t)
        np.testing.assert_allclose(x, tilted_circle(t), atol=1e-10)
    # velocity from the closed form by central differences
    eps = 1e-6
    v_ref = (tilted_circle(0.5 + eps) - tilted_circle(0.5 - eps)) / (2 * eps)
    np.testing.assert_allclose(tr.state_at(0.5)[1], v_ref, atol=1e-8)


def test_residual_flags_corruption():
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-2)
    clean = residual(s, tr)
    assert clean < 1e-3
    pos = tr.positions.copy()
    pos[50, 0] += 1e-3
    assert residual(s, replace(tr, positions=pos)) > 1e-2


def test_domain_exit_truncates():
    disk = make_flat(2, domain=lambda x: float(np.dot(x, x)) < 4.0)
    init = JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0]))
    tr = integrate(disk, init, (0.0, 3.0), 1e-3)
    assert tr.exit_reason == "domain"
    assert not tr.complete
    # unit speed from the origin crosses the radius-2 rim at t = 2
    assert tr.t_end < 2.0
    assert 2.0 - tr.t_end <= 1e-3 + 1e-9


def test_slashed_exit_truncates():
    # constant braking: G = 1/2 gives acceleration -1, so v(t) = 1 - t
    brake = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.5], tag="brake")
    tr = integrate(brake, JetPoint(1, 1, np.array([0.0, 1.0])), (0.0, 2.0), 1e-3)
    assert tr.exit_reason == "slashed"
    assert tr.t_end < 1.0
    assert 1.0 - tr.t_end <= 1e-3 + 1e-9
    assert np.linalg.norm(tr.velocities[-1]) > 1e-10


def test_blowup_raises():
    wild = Spray(level=0, dim=1, coeff_fn=lambda x, v: [-1e150 * v[0]], tag="wild")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationBlowupError):
            integrate(wild, JetPoint(1, 1, np.array([0.0, 1.0])), (0.0, 1.0), 1e-3)


def test_integrate_input_validation():
    s = make_flat(2)
    good = JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        integrate(s, good, (0.0, 1.0), 0.0)
    with pytest.raises(DomainError):
        integrate(s, good, (0.0, 1.0), -1e-3)
    with pytest.raises(InvalidLevelError):
        integrate(s, JetPoint(2, 2, np.arange(8.0) + 1.0), (0.0, 1.0), 1e-3)
    with pytest.raises(DomainError):
        integrate(s, JetPoint(1, 2, np.array([0.0, 0.0, 0.0, 0.0])), (0.0, 1.0), 1e-3)
    disk = make_flat(2, domain=lambda x: float(np.dot(x, x)) < 4.0)
    outside = JetPoint(1, 2, np.array([5.0, 0.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        integrate(disk, outside, (0.0, 1.0), 1e-3)


def test_flow_truncation_raises():
    disk = make_flat(2, domain=lambda x: float(np.dot(x, x)) < 4.0)
    init = JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        flow(disk, init, 3.0, 1e-3)


def test_zero_time_flow_is_identity():
    s = make_sphere()
    init = tilted_init()
    out = flow(s, init, 0.0, 1e-3)
    np.testing.assert_array_equal(out.coords, init.coords)
    tr = integrate(s, init, (0.0, 0.0), 1e-3)
    assert len(tr.times) == 1
    x, v = tr.state_at(0.0)
    np.testing.assert_array_equal(x, init.coords[:2])
    with pytest.raises(DomainError):
        tr.state_at(0.5)


def test_reversed_time_span():
    s = make_flat(2)
    x0, v0 = np.array([0.2, -0.4]), np.array([1.5, 0.7])
    tr = integrate(s, JetPoint(1, 2, np.concatenate([x0, v0])), (0.0, -0.8), 1e-2)
    assert tr.times[-1] == -0.8
    assert tr.times[0] > tr.times[-1]
    x, v = tr.state_at(-0.37)
    np.testing.assert_allclose(x, x0 - 0.37 * v0, atol=1e-12)
    np.testing.assert_allclose(v, v0, atol=1e-13)


def test_flow_forward_then_back():
    s = make_sphere()
    init = tilted_init()
    end = flow(s, init, 1.0, 1e-3)
    back = flow(s, end, -1.0, 1e-3)
    np.testing.assert_allclose(back.coords, init.coords, atol=1e-10)


def test_interpolation_outside_span_rejected():
    s = make_flat(2)
    tr = integrate(s, JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0])), (0.0, 1.0), 1e-2)
    with pytest.raises(DomainError):
        tr.state_at(1.5)
    with pytest.raises(DomainError):
        tr.state_at(-0.1)


def test_jet_accessors():
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 0.5), 1e-3)
    j = tr.jet_at(0.25)
    assert j.level == 1 and j.dim == 2
    x, v = tr.state_at(0.25)
    np.testing.assert_array_equal(j.coords, np.concatenate([x, v]))
    f = tr.final_jet()
    np.testing.assert_array_equal(f.coords,
                                  np.concatenate([tr.positions[-1], tr.velocities[-1]]))


def test_csv_round_trip(tmp_path):
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 0.3), 0.1)
    path = tmp_path / "arc.csv"
    write_trajectory_csv(tr, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# level=0,dim=2,spray=sphere"
    assert lines[1] == "t,x_0,x_1,v_0,v_1"
    assert len(lines) == len(tr.times) + 2
    for k, line in enumerate(lines[2:]):
        vals = [float(z) for z in line.split(",")]
        assert vals[0] == tr.times[k]
        np.testing.assert_array_equal(vals[1:3], tr.positions[k])
        np.testing.assert_array_equal(vals[3:5], tr.velocities[k])


def test_tangent_flow_matches_lifted_flow():
    s = make_sphere()
    p = JetPoint(2, 2, np.array([1.2, 0.4, -0.3, 0.9, 0.5, 0.8, 0.1, -0.2]))
    sc = complete_lift(s)
    for t in (0.1, 0.5):
        lifted = flow(sc, p, t, 1e-3)
        fd = flow_tangent_fd(s, p, t, 1e-3, eps_fd=1e-5)
        gap = np.linalg.norm(lifted.coords - fd.coords)
        assert gap / max(1.0, np.linalg.norm(lifted.coords)) < 1e-8


def test_tangent_flow_level_guard():
    s = make_sphere()
    with pytest.raises(InvalidLevelError):
        flow_tangent_fd(s, tilted_init(), 0.5, 1e-3)


def test_stage_on_pole_is_domain_exit():
    # the 4th stage of step 2 lands on colatitude 0.0 exactly, where the
    # sphere coefficients divide by sin(theta) = 0
    tr = integrate(make_sphere(), JetPoint(1, 2, [0.5, 0.0, -1.0, 0.0]), (0.0, 2.0), 0.25)
    assert tr.exit_reason == "domain"
    assert tr.t_end == 0.25


def test_stage_failure_inside_domain_raises_blowup():
    # no domain, so a division by zero at a stage is a blowup, not an exit
    singular = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.0 * v[0] / x[0]], tag="singular")
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(singular, JetPoint(1, 1, [0.5, -1.0]), (0.0, 2.0), 0.25)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


# --- the array-arithmetic RK4 loop, kept as the reference for integrate ----


def _reference_check_state(s, x, v):
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise IntegrationBlowupError("non-finite state during integration")
    if float(np.linalg.norm(v[: s.dim])) <= EPS_SLASHED:
        return "slashed"
    if not s.in_domain(x):
        return "domain"
    return None


def _reference_integrate(s, init, t_span, h):
    half = init.coords.size // 2
    x = init.coords[:half].copy()
    v = init.coords[half:].copy()
    t0, t1 = float(t_span[0]), float(t_span[1])

    bad = _reference_check_state(s, x, v)
    if bad is not None:
        raise DomainError(f"initial state rejected: {bad}")

    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / h - 1e-12))) if span != 0.0 else 0
    sign = 1.0 if span >= 0.0 else -1.0

    times = [t0]
    xs = [x]
    vs = [v]
    accs = [s.acceleration(x, v)]
    exit_reason = None

    t = t0
    for k in range(nsteps):
        t_next = t1 if k == nsteps - 1 else t0 + sign * (k + 1) * h
        dt = t_next - t
        a1 = accs[-1]
        x2 = x + 0.5 * dt * v
        v2 = v + 0.5 * dt * a1
        a2 = s.acceleration(x2, v2)
        x3 = x + 0.5 * dt * v2
        v3 = v + 0.5 * dt * a2
        a3 = s.acceleration(x3, v3)
        x4 = x + dt * v3
        v4 = v + dt * a3
        a4 = s.acceleration(x4, v4)
        xn = x + dt * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
        vn = v + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0

        reason = _reference_check_state(s, xn, vn)
        if reason is not None:
            exit_reason = reason
            break
        x, v, t = xn, vn, t_next
        times.append(t)
        xs.append(x)
        vs.append(v)
        accs.append(s.acceleration(x, v))

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


def _lifted_sphere(level):
    s = make_sphere()
    for _ in range(level):
        s = complete_lift(s)
    return s


def _lifted_init(level):
    # tilted great circle in the carrier, seeded values in every other block
    rng = np.random.default_rng(level)
    half = (1 << level) * 2
    coords = 0.3 * rng.standard_normal(2 * half)
    coords[:2] = tilted_init().coords[:2]
    coords[half : half + 2] = tilted_init().coords[2:]
    return JetPoint(level + 1, 2, coords)


REFERENCE_CASES = {
    "sphere-L0": (make_sphere(), tilted_init(), 1.0, 1e-2),
    "sphere-L1": (_lifted_sphere(1), _lifted_init(1), 1.0, 2e-2),
    "sphere-L2": (_lifted_sphere(2), _lifted_init(2), 0.5, 5e-2),
    "sphere-L3": (_lifted_sphere(3), _lifted_init(3), 0.3, 0.1),
    "flat": (make_flat(2), JetPoint(1, 2, [0.2, -0.4, 1.5, 0.7]), 0.8, 1e-2),
    "finsler": (make_finsler_example((0.3, -0.2)),
                JetPoint(1, 2, [0.1, 0.2, 0.9, -0.4]), 1.0, 1e-2),
    "pushed-sphere": (pushforward_spray(shear_chart(), make_sphere()),
                      JetPoint(1, 2, [1.2 + 0.4 ** 2, 0.4, 0.3, 1.0]), 0.5, 2e-2),
    "disk-domain-exit": (make_flat(2, domain=lambda x: float(x @ x) < 4.0),
                         JetPoint(1, 2, [0.0, 0.0, 1.0, 0.0]), 3.0, 1e-2),
    "brake-slashed-exit": (Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.5], tag="brake"),
                           JetPoint(1, 1, [0.0, 1.0]), 2.0, 1e-2),
}

EXPECTED_EXIT = {"disk-domain-exit": "domain", "brake-slashed-exit": "slashed"}


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_integrate_matches_reference_loop_bitwise(case, direction):
    s, init, span, h = REFERENCE_CASES[case]
    if direction < 0.0:
        # a reversed run starts from the reversed velocity, so the disk and
        # the brake cases reach their exits in both directions
        half = init.coords.size // 2
        init = JetPoint(init.level, init.dim,
                        np.concatenate([init.coords[:half], -init.coords[half:]]))
    got = integrate(s, init, (0.0, direction * span), h)
    want = _reference_integrate(s, init, (0.0, direction * span), h)
    for name in ("times", "positions", "velocities", "accelerations"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == np.float64
    assert got.exit_reason == want.exit_reason == EXPECTED_EXIT.get(case)
    assert got.requested == want.requested


def _count_accelerations(monkeypatch):
    calls = []
    orig = Spray.acceleration

    def counted(self, x, v):
        calls.append(self.level)
        return orig(self, x, v)

    monkeypatch.setattr(Spray, "acceleration", counted)
    return calls


@pytest.mark.parametrize("level", [0, 2])
def test_acceleration_calls_per_step(monkeypatch, level):
    s, init = _lifted_sphere(level), _lifted_init(level)
    calls = _count_accelerations(monkeypatch)
    tr = integrate(s, init, (0.0, 0.5), 0.1)
    steps = len(tr.times) - 1
    assert tr.complete and steps == 5
    # three stage evaluations per step and one per stored node
    assert len(calls) == 3 * steps + len(tr.times) == 4 * steps + 1
    assert set(calls) == {level}
    calls.clear()
    residual(s, tr)
    assert len(calls) == steps


def test_residual_matches_step_loop():
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-2)
    pos = tr.positions.copy()
    pos[50, 0] += 1e-3
    for case in (tr, replace(tr, positions=pos)):
        worst = 0.0
        for i in range(len(case.times) - 1):
            dt = case.times[i + 1] - case.times[i]
            t2, t3 = 0.25, 0.125
            y0, d0, y1, d1 = (case.positions[i], case.velocities[i],
                              case.positions[i + 1], case.velocities[i + 1])
            x = ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + 0.5) * dt * d0
                 + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * dt * d1)
            v = ((6 * t2 - 6 * 0.5) * y0 / dt + (3 * t2 - 4 * 0.5 + 1) * d0
                 + (-6 * t2 + 6 * 0.5) * y1 / dt + (3 * t2 - 2 * 0.5) * d1)
            curv = (case.velocities[i + 1] - case.velocities[i]) / dt
            worst = max(worst, float(np.linalg.norm(curv - s.acceleration(x, v))))
        assert residual(s, case) == worst
