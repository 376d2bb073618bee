"""Fixed-step integration, dense output, exit handling, and the flow map."""

import ast
import contextlib
import dis
import hashlib
import inspect
import linecache
import math
import re
import sys
import tracemalloc
import traceback
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sprayjets import (EPS_SLASHED, DomainError, IntegrationBlowupError,
                       InvalidLevelError, JetPoint, Spray, Trajectory,
                       complete_lift, flow, flow_tangent_fd, integrate,
                       make_finsler_example, make_flat, make_sphere, pushforward,
                       pushforward_spray, residual, shear_chart)
from sprayjets import geodesic, jacobi, subspray
from sprayjets import spray as spray_mod
from sprayjets.geodesic import _node_exit
from sprayjets.jacobi import _fan_run, conjugate_search
from sprayjets.jets import jet_re, nest, unnest
from test_spray import conformal_sphere, make_round_sphere

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


def test_residual_propagates_nan_node():
    s = make_sphere()
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-2)
    vel = tr.velocities.copy()
    vel[50, 0] = np.nan
    assert math.isnan(residual(s, replace(tr, velocities=vel)))


def test_residual_propagates_nan_acceleration_at_midpoint():
    # unit-speed line with nodes at x = 0, 0.1, ..., 1: only the midpoint
    # x = 0.25 meets the NaN coefficient
    line = integrate(make_flat(1), JetPoint(1, 1, [0.0, 1.0]), (0.0, 1.0), 0.1)
    spiky = Spray(level=0, dim=1, tag="spiky",
                  coeff_fn=lambda x, v: [math.nan if 0.24 < x[0] < 0.26 else 0.0])
    assert math.isnan(residual(spiky, line))


def test_residual_is_nan_where_the_coefficients_fail_at_a_midpoint():
    # one unit step of a line from x = -0.5: the Hermite midpoint is 0.0,
    # where the coefficient divides by zero
    line = integrate(make_flat(1), JetPoint(1, 1, [-0.5, 1.0]), (0.0, 1.0), 1.0)
    inverse = Spray(level=0, dim=1, tag="inverse", coeff_fn=lambda x, v: [0.0 * v[0] / x[0]])
    with pytest.raises(ZeroDivisionError):
        inverse.acceleration([0.0], [1.0])
    assert math.isnan(residual(inverse, line))


def test_residual_is_nan_where_a_midpoint_stack_crosses_the_pole():
    # a unit-speed flat run along the colatitude through the pole: nodes at
    # -0.75, -0.25, 0.25, 0.75, so the second of the three midpoints is the
    # pole 0.0 exactly, where the sphere kernel divides by sin(theta) = 0
    line = integrate(make_flat(2), JetPoint(1, 2, [-0.75, 0.3, 1.0, 0.0]), (0.0, 1.5), 0.5)
    assert line.positions[:, 0].tolist() == [-0.75, -0.25, 0.25, 0.75]
    s = make_sphere()
    assert math.isnan(residual(s, line))
    mid = line.states_at(line.times[:-1] + 0.25)
    with pytest.raises(ZeroDivisionError):
        s.accelerations(*mid)
    # off the pole, the same stack is clean
    shifted = replace(line, positions=line.positions + [0.9, 0.0])
    assert 0.0 <= residual(s, shifted) < math.inf


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
    f = tr.final_jet()
    assert f.level == 1 and f.dim == 2
    np.testing.assert_array_equal(f.coords,
                                  np.concatenate([tr.positions[-1], tr.velocities[-1]]))


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


def _record_accelerations(monkeypatch):
    """Log (level, caller) for every ``Spray.acceleration`` call.

    In ``integrate`` the caller is ``_integrate`` for node 0 and ``loop``
    for a stage or a later node of the generated RK4 run loop.  A loop that
    inlines the kernel calls nothing.
    """
    calls = []
    orig = Spray.acceleration

    def logged(self, x, v):
        calls.append((self.level, sys._getframe(1).f_code.co_name))
        return orig(self, x, v)

    monkeypatch.setattr(Spray, "acceleration", logged)
    return calls


def _callers(calls):
    return [caller for _, caller in calls]


# node 0; step 1 inlined; step 2 inlined, whose last stage raises: no
# evaluation is repeated
FAILED_SECOND_STEP = ["_integrate"]


def test_stage_on_pole_is_domain_exit(monkeypatch):
    # the 4th stage of step 2 lands on colatitude 0.0 exactly, where the
    # sphere coefficients divide by sin(theta) = 0
    s = make_sphere()
    assert s.kernel.__code__.co_filename == "<sphere L0>"
    calls = _record_accelerations(monkeypatch)
    tr = integrate(s, JetPoint(1, 2, [0.5, 0.0, -1.0, 0.0]), (0.0, 2.0), 0.25)
    assert tr.exit_reason == "domain"
    assert tr.t_end == 0.25
    assert _callers(calls) == FAILED_SECOND_STEP


def test_coefficient_failure_at_the_initial_node_raises_blowup():
    # no domain, so 1/x at x = 0 fails before the first step, not as an exit
    singular = Spray(level=0, dim=1, coeff_fn=lambda x, v: [v[0] * v[0] / x[0]],
                     tag="singular-start")
    with pytest.raises(IntegrationBlowupError, match="coefficient evaluation failed") as err:
        integrate(singular, JetPoint(1, 1, [0.0, 1.0]), (0.0, 1.0), 0.1)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_stage_failure_inside_domain_raises_blowup(monkeypatch):
    # no domain, so a division by zero at a stage is a blowup, not an exit
    singular = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.0 * v[0] / x[0]], tag="singular")
    assert singular.kernel.__code__.co_filename == "<singular L0>"
    calls = _record_accelerations(monkeypatch)
    failed = []
    failed_step = geodesic._failed_step
    monkeypatch.setattr(geodesic, "_failed_step", lambda s, stages, exc: failed.append(
        (stages, type(exc))) or failed_step(s, stages, exc))
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(singular, JetPoint(1, 1, [0.5, -1.0]), (0.0, 2.0), 0.25)
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    assert _callers(calls) == FAILED_SECOND_STEP
    # x = 0.5 - t, so step 2's stages sit at 0.125, 0.125 and 0.0: the
    # fourth raises, and the loop hands over the three stage positions
    assert failed == [([[0.125], [0.125], [0.0]], ZeroDivisionError)]
    # the loop inlines the kernel and is in linecache, so the traceback
    # ends on the loop's own copy of the kernel's division
    frames = traceback.extract_tb(err.value.__cause__.__traceback__)
    assert [fr.name for fr in frames] == ["loop"]
    assert frames[-1].filename == "<rk4 loop singular L0>"
    # the product 0.0 * v folded into the division's line, which assigns
    # the division's tape name with the suffix all four copies share and
    # reads the fourth stage's names, so the line tells the stage
    assert frames[-1].line == "t3_e = c0 * v4_0 / x4_0"


def _pole_stage_spray(domain):
    # numpy scalars turn 0/0 into NaN instead of raising; the 4th stage of
    # the first step, from (0.5, 1.0) with h = 0.5, sits at x = 1.0
    return Spray(level=0, dim=1, tag="pole-stage", domain=domain,
                 coeff_fn=lambda x, v: [np.float64(0.0) * v[0] / (np.float64(x[0]) - 1.0)])


# np.float64(x[0]) refuses tracing: node 0, then the three stages of step
# 1, whose node is NaN
NONFINITE_FIRST_STEP = ["_integrate"] + ["loop"] * 3


def test_nonfinite_stage_outside_domain_is_domain_exit(monkeypatch):
    s = _pole_stage_spray(lambda x: x[0] < 0.75)
    calls = _record_accelerations(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"):
        tr = integrate(s, JetPoint(1, 1, [0.5, 1.0]), (0.0, 2.0), 0.5)
    assert tr.exit_reason == "domain"
    assert tr.t_end == 0.0
    assert _callers(calls) == NONFINITE_FIRST_STEP


def test_nonfinite_stage_inside_domain_raises_blowup(monkeypatch):
    s = _pole_stage_spray(lambda x: x[0] < 10.0)
    calls = _record_accelerations(monkeypatch)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(IntegrationBlowupError, match="non-finite"):
        integrate(s, JetPoint(1, 1, [0.5, 1.0]), (0.0, 2.0), 0.5)
    assert _callers(calls) == NONFINITE_FIRST_STEP


def test_nonfinite_stage_position_inside_domain_raises_blowup():
    # the 4th stage position of the first step is inf; only a finite stage
    # position outside the chart makes a non-finite node a domain exit
    wilder = Spray(level=0, dim=1, coeff_fn=lambda x, v: [-1e300 * v[0]], tag="wilder",
                   domain=lambda x: x[0] < 1e300)
    with pytest.raises(IntegrationBlowupError, match="non-finite"):
        integrate(wilder, JetPoint(1, 1, [0.0, 1.0]), (0.0, 1.0), 1e-3)


def test_blowup_error_carries_the_last_finite_node_time():
    s = Spray(level=0, dim=1, coeff_fn=lambda x, v: [-0.5 * v[0] * v[0]], tag="squared-speed")
    init = JetPoint(1, 1, [0.0, 1.0])
    with pytest.raises(IntegrationBlowupError, match="non-finite") as err:
        integrate(s, init, (0.0, 3.0), 0.04)
    t_end = err.value.t_end
    assert integrate(s, init, (0.0, t_end), 0.04).t_end == t_end
    with pytest.raises(IntegrationBlowupError):
        integrate(s, init, (0.0, t_end + 0.04), 0.04)
    # a start that fails is no run: no node is finite
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s, JetPoint(1, 1, [0.0, math.inf]), (0.0, 1.0), 0.04)
    assert err.value.t_end is None


def _calling_only():
    """A patch of ``geodesic._run_loop`` under which every run gets
    ``geodesic._calling(n, s.dim)``, the reference for the inlining loops."""
    return mock.patch.object(geodesic, "_run_loop", lambda s, f, n: geodesic._calling(n, s.dim))


def _failed_step_case(name):
    # runs that end in _failed_step: each spray but the lifted sphere refuses
    # tracing (float() of a traced scalar), so its loop calls f at every
    # stage; the lifted sphere's run goes through the inlining loop, and
    # through the calling loop under _calling_only
    if name == "raise-inside":
        s = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.0 * v[0] / float(x[0])],
                  tag="singular-refused")
        return s, JetPoint(1, 1, [0.5, -1.0]), 0.25, IntegrationBlowupError
    if name == "raise-outside-L1":
        init = JetPoint(2, 2, [0.5, 0.0, 0.1, 0.0, -1.0, 0.0, 0.2, 0.3])
        return complete_lift(make_sphere()), init, 0.25, "domain"
    if name == "nonfinite-outside":
        return _pole_stage_spray(lambda x: x[0] < 0.75), JetPoint(1, 1, [0.5, 1.0]), 0.5, "domain"
    if name == "nonfinite-inside":
        s = _pole_stage_spray(lambda x: x[0] < 10.0)
        return s, JetPoint(1, 1, [0.5, 1.0]), 0.5, IntegrationBlowupError
    s = Spray(level=0, dim=1, coeff_fn=lambda x, v: [-1e300 * float(v[0])], tag="wilder-refused",
              domain=lambda x: x[0] < 1e300)
    return s, JetPoint(1, 1, [0.0, 1.0]), 1e-3, IntegrationBlowupError


@pytest.mark.parametrize("name", ["raise-inside", "raise-outside-L1", "nonfinite-outside",
                                  "nonfinite-inside", "inf-stage"])
def test_failed_step_gets_the_stages_the_loop_evaluated(monkeypatch, name):
    s, init, h, outcome = _failed_step_case(name)
    calls, received = [], []
    orig, failed_step = Spray.acceleration, geodesic._failed_step

    def logged(self, x, v):
        # bitwise images of the positions, so NaN and -0.0 compare exactly
        calls.append((sys._getframe(1).f_code.co_name, np.array(x, dtype=float).tobytes()))
        return orig(self, x, v)

    def receiving(s, stages, exc):
        received.append([np.array(xp, dtype=float).tobytes() for xp in stages])
        return failed_step(s, stages, exc)

    def run():
        calls.clear()
        received.clear()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if outcome == "domain":
                assert integrate(s, init, (0.0, 2.0), h).exit_reason == "domain"
            else:
                with pytest.raises(outcome):
                    integrate(s, init, (0.0, 2.0), h)

    monkeypatch.setattr(Spray, "acceleration", logged)
    monkeypatch.setattr(geodesic, "_failed_step", receiving)
    calling = geodesic._calling(s.fiber_dim, s.dim)
    with _calling_only():
        run()
    # _failed_step evaluates nothing and is handed the step's stage positions:
    # the loop's last evaluation points, bitwise, one to three of them
    assert [caller for caller, _ in calls] == ["_integrate"] + ["loop"] * (len(calls) - 1)
    [stages] = received
    looped = [x for caller, x in calls if caller == "loop"]
    assert 1 <= len(stages) <= 3 and len(looped) % 4 == len(stages) % 4
    assert stages == looped[-len(stages):]
    # the traced L1 spray runs the inlining loop, which calls f for node 0
    # only and hands over the same stage positions, bitwise
    inlined = geodesic._run_loop(s, s.acceleration, s.fiber_dim) is not calling
    assert inlined == (name == "raise-outside-L1")
    run()
    assert [caller for caller, _ in calls] == (["_integrate"] if inlined else
                                                ["_integrate"] + ["loop"] * len(looped))
    assert received == [stages]


@pytest.mark.parametrize("t_span, h", [
    ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf), ((0.0, math.nan), 1e-2),
    ((math.nan, 1.0), 1e-2), ((0.0, math.inf), 1e-2), ((-math.inf, 0.0), 1e-2),
    ((math.inf, math.inf), 1e-2), ((0.0, 1e300), 1e-10),
], ids=["h-nan", "h-inf", "t1-nan", "t0-nan", "t1-inf", "t0-inf", "both-inf", "too-many-steps"])
def test_nonfinite_step_or_span_is_domain_error(t_span, h):
    init = JetPoint(1, 2, [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(DomainError, match="finite"):
        integrate(make_flat(2), init, t_span, h)


# --- the array-arithmetic RK4 loop, kept as the reference for integrate ----


def _reference_check_state(s, x, v):
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
        raise IntegrationBlowupError("non-finite state during integration")
    if float(np.linalg.norm(v[: s.dim])) <= EPS_SLASHED:
        return "slashed"
    if not s.in_domain(x):
        return "domain"
    return None


def _reference_acceleration(s, x, v):
    # the coefficient evaluator itself, never the spray's compiled kernel
    return -2.0 * np.asarray(s.coeff_fn(x, v), dtype=float)


def _reference_times(t_span, h):
    """The node times of a run over ``t_span`` in steps of ``h``."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    nsteps = max(1, int(np.ceil(abs(span) / h - 1e-12))) if span != 0.0 else 0
    sign = 1.0 if span >= 0.0 else -1.0
    return [t0] + [t1 if k == nsteps - 1 else t0 + sign * (k + 1) * h for k in range(nsteps)]


def _reference_step(acc, x, v, a1, dt):
    """One RK4 step from (x, v), whose acceleration is ``a1``, as elementwise array arithmetic."""
    x2 = x + 0.5 * dt * v
    v2 = v + 0.5 * dt * a1
    a2 = acc(x2, v2)
    x3 = x + 0.5 * dt * v2
    v3 = v + 0.5 * dt * a2
    a3 = acc(x3, v3)
    x4 = x + dt * v3
    v4 = v + dt * a3
    a4 = acc(x4, v4)
    xn = x + dt * (v + 2.0 * v2 + 2.0 * v3 + v4) / 6.0
    vn = v + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
    return xn, vn


def _reference_integrate(s, init, t_span, h):
    half = init.coords.size // 2
    x = init.coords[:half].copy()
    v = init.coords[half:].copy()

    bad = _reference_check_state(s, x, v)
    if bad is not None:
        raise DomainError(f"initial state rejected: {bad}")

    ts = _reference_times(t_span, h)
    times = [ts[0]]
    xs = [x]
    vs = [v]
    accs = [_reference_acceleration(s, x, v)]
    exit_reason = None

    for t, t_next in zip(ts, ts[1:]):
        xn, vn = _reference_step(partial(_reference_acceleration, s), x, v, accs[-1], t_next - t)
        reason = _reference_check_state(s, xn, vn)
        if reason is not None:
            exit_reason = reason
            break
        x, v = xn, vn
        times.append(t_next)
        xs.append(x)
        vs.append(v)
        accs.append(_reference_acceleration(s, x, v))

    return Trajectory(
        spray=s,
        times=np.asarray(times),
        positions=np.asarray(xs),
        velocities=np.asarray(vs),
        accelerations=np.asarray(accs),
        h=h,
        exit_reason=exit_reason,
    )


def _dual_reference_integrate(s, init, t_span, h):
    """The run of ``complete_lift(s)`` from ``init``, as the RK4 run of ``s`` on ``Dual`` numbers.

    ``init`` packs (x, dx; v, dv).  :func:`_reference_step` runs on object
    arrays of the pairs x + eps dx and v + eps dv, with ``-2.0 * coeff_fn``
    as the acceleration and no node checks.  Returns times, positions,
    velocities and accelerations, each node laid out as the lift's blocks:
    the value part, then the eps part.
    """

    def acc(x, v):
        return np.array([-2.0 * g for g in s.coeff_fn(list(x), list(v))], dtype=object)

    half = init.coords.size // 2
    x = np.array(nest(init.coords[:half].tolist(), 1), dtype=object)
    v = np.array(nest(init.coords[half:].tolist(), 1), dtype=object)
    ts = _reference_times(t_span, h)
    nodes = [(x, v, acc(x, v))]
    for t, t_next in zip(ts, ts[1:]):
        x, v = _reference_step(acc, x, v, nodes[-1][2], t_next - t)
        nodes.append((x, v, acc(x, v)))
    blocks = [np.array([unnest(node[k], 1) for node in nodes]) for k in range(3)]
    return (np.array(ts), *blocks)


def _lifted_sphere(level):
    s = make_sphere()
    for _ in range(level):
        s = complete_lift(s)
    return s


def _lifted_init(level, carrier=None):
    # tilted great circle (or ``carrier``) in the carrier, seeded values in
    # every other block
    base = tilted_init().coords if carrier is None else np.asarray(carrier, dtype=float)
    dim = base.size // 2
    rng = np.random.default_rng(level)
    half = (1 << level) * dim
    coords = 0.3 * rng.standard_normal(2 * half)
    coords[:dim] = base[:dim]
    coords[half : half + dim] = base[dim:]
    return JetPoint(level + 1, dim, coords)


def _switching_drag(pos, vel):
    # a branch on the primal value refuses tracing at every level
    sign = 1.0 if jet_re(pos[0]) > 0.0 else -1.0
    return [sign * 0.2 * vel[0] * vel[0]]


def _scalar_types(pos, vel):
    # a numpy scalar constant in the arithmetic, and a bare int coefficient
    return [np.float64(0.1) * vel[0] * vel[1], 1]


SWITCHING = Spray(level=0, dim=1, coeff_fn=_switching_drag, tag="switching-drag")
DISK = make_flat(2, domain=lambda x: float(np.dot(x, x)) < 4.0)
# the chart keeps colatitude above 0.3; from this start the geodesic heads
# for the pole and leaves the chart near t = 0.4
EDGE_SPHERE = make_sphere(pole_margin=0.3)
EDGE_START = [0.6, 0.0, -0.8, 0.3]
PUSHED_SPHERE = pushforward_spray(shear_chart(), make_sphere())
PUSHED_START = [1.2 + 0.4 ** 2, 0.4, 0.3, 1.0]
CONFORMAL = conformal_sphere(0)
CONFORMAL_START = [1.2, 0.3, 0.4, 0.9]


REFERENCE_CASES = {
    "sphere-L0": (make_sphere(), tilted_init(), 1.0, 1e-2),
    "sphere-L1": (_lifted_sphere(1), _lifted_init(1), 1.0, 2e-2),
    "sphere-L2": (_lifted_sphere(2), _lifted_init(2), 0.5, 5e-2),
    "sphere-L3": (_lifted_sphere(3), _lifted_init(3), 0.3, 0.1),
    "flat": (make_flat(2), JetPoint(1, 2, [0.2, -0.4, 1.5, 0.7]), 0.8, 1e-2),
    "finsler": (make_finsler_example((0.3, -0.2)),
                JetPoint(1, 2, [0.1, 0.2, 0.9, -0.4]), 1.0, 1e-2),
    "pushed-sphere": (PUSHED_SPHERE, JetPoint(1, 2, PUSHED_START), 0.5, 2e-2),
    "pushed-sphere-L1": (complete_lift(PUSHED_SPHERE), _lifted_init(1, PUSHED_START), 0.5, 2e-2),
    "refused-trace-L0": (SWITCHING, JetPoint(1, 1, [-0.3, 1.0]), 1.0, 1e-2),
    "refused-trace-L1": (complete_lift(SWITCHING), _lifted_init(1, [-0.3, 1.0]), 1.0, 1e-2),
    "scalar-types": (Spray(level=0, dim=2, coeff_fn=_scalar_types, tag="scalar-types"),
                     JetPoint(1, 2, [0.0, 0.0, 1.0, 0.5]), 1.0, 1e-2),
    "disk-domain-exit": (DISK, JetPoint(1, 2, [0.0, 0.0, 1.0, 0.0]), 3.0, 1e-2),
    "disk-domain-exit-L1": (complete_lift(DISK), _lifted_init(1, [0.0, 0.0, 1.0, 0.0]), 3.0, 1e-2),
    "disk-domain-exit-L2": (complete_lift(complete_lift(DISK)),
                            _lifted_init(2, [0.0, 0.0, 1.0, 0.0]), 3.0, 2e-2),
    "sphere-edge-L1": (complete_lift(EDGE_SPHERE), _lifted_init(1, EDGE_START), 1.0, 2e-2),
    "brake-slashed-exit": (Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.5], tag="brake"),
                           JetPoint(1, 1, [0.0, 1.0]), 2.0, 1e-2),
    # every entry is finite but the coordinate sum overflows to inf
    "overflowing-sum": (make_flat(2), JetPoint(1, 2, [1e308, 1e308, 1.0, -0.5]), 1.0, 1e-1),
}

EXPECTED_EXIT = {"disk-domain-exit": "domain", "disk-domain-exit-L1": "domain",
                 "disk-domain-exit-L2": "domain", "sphere-edge-L1": "domain",
                 "brake-slashed-exit": "slashed"}


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


# (spray, its initial jet, span, step): each lift runs from that jet and drawn fibers
LIFT_CASES = {
    "sphere-L0": (make_sphere(), tilted_init(), 1.0, 1e-2),
    "flat-L0": (make_flat(2), JetPoint(1, 2, [0.2, -0.4, 1.5, 0.7]), 1.0, 1e-2),
    # run backward, this drag becomes a push whose speed blows up near t = -0.8
    "finsler-L0": (make_finsler_example((0.3, 1.0)), JetPoint(1, 2, [0.1, 0.2, 0.9, -0.4]),
                   0.5, 1e-2),
    "round-S3-L0": (make_round_sphere(3), JetPoint(1, 3, [1.2, 1.4, 0.3, 0.2, -0.4, 0.9]),
                    1.0, 1e-2),
    "pushed-sphere-L0": (PUSHED_SPHERE, JetPoint(1, 2, PUSHED_START), 0.5, 1e-2),
    "conformal-L0": (CONFORMAL, JetPoint(1, 2, CONFORMAL_START), 1.0, 1e-2),
    "sphere-L1": (_lifted_sphere(1), _lifted_init(1), 0.5, 2e-2),
    "flat-L1": (complete_lift(make_flat(2)), _lifted_init(1, [0.2, -0.4, 1.5, 0.7]), 0.5, 2e-2),
    "finsler-L1": (complete_lift(make_finsler_example((0.3, 1.0))),
                   _lifted_init(1, [0.1, 0.2, 0.9, -0.4]), 0.5, 2e-2),
    "round-S3-L1": (complete_lift(make_round_sphere(3)),
                    _lifted_init(1, [1.2, 1.4, 0.3, 0.2, -0.4, 0.9]), 0.5, 2e-2),
    "pushed-sphere-L1": (complete_lift(PUSHED_SPHERE), _lifted_init(1, PUSHED_START), 0.5, 2e-2),
    "conformal-L1": (complete_lift(CONFORMAL), _lifted_init(1, CONFORMAL_START), 0.5, 2e-2),
    "sphere-L2": (_lifted_sphere(2), _lifted_init(2), 0.2, 5e-2),
    "finsler-L2": (complete_lift(complete_lift(make_finsler_example((0.3, 1.0)))),
                   _lifted_init(2, [0.1, 0.2, 0.9, -0.4]), 0.2, 5e-2),
    "pushed-sphere-L2": (complete_lift(complete_lift(PUSHED_SPHERE)),
                         _lifted_init(2, PUSHED_START), 0.2, 5e-2),
    "conformal-L2": (complete_lift(complete_lift(CONFORMAL)), _lifted_init(2, CONFORMAL_START),
                     0.2, 5e-2),
}


@pytest.mark.parametrize("case", list(LIFT_CASES))
@settings(max_examples=4)
@given(data=st.data())
def test_lift_of_an_rk4_run_is_the_run_of_the_lift(case, data):
    # RK4 commutes with forming the variational equation, here bit for bit:
    # the lift's run from (x, dx; v, dv) is the run of the spray on the Dual
    # coordinates x + eps dx, v + eps dv, value part and eps part
    s, start, span, h = LIFT_CASES[case]
    n = s.fiber_dim
    x, v = start.coords[:n].tolist(), start.coords[n:].tolist()
    fiber = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n))
    direction = data.draw(st.sampled_from([1.0, -1.0]))
    init = JetPoint(s.level + 2, s.dim, x + fiber[:n] + v + fiber[n:])
    got = integrate(complete_lift(s), init, (0.0, direction * span), h)
    want = _dual_reference_integrate(s, init, (0.0, direction * span), h)
    assert got.complete
    for name, nodes in zip(("times", "positions", "velocities", "accelerations"), want):
        assert getattr(got, name).shape == nodes.shape, name
        assert np.max(np.abs(getattr(got, name) - nodes)) == 0.0, name


def test_backward_fan_run_exits_at_the_chart_edge_as_its_fields_do():
    # sphere-edge-L1 reversed, with two more fields on its carrier: run
    # backward, the carrier reaches the pole margin and every run exits there
    s, init, span, h = REFERENCE_CASES["sphere-edge-L1"]
    carrier = EDGE_START[:2] + [-z for z in EDGE_START[2:]]
    rng = np.random.default_rng(5)
    starts = [JetPoint(2, 2, carrier[:2] + rng.standard_normal(2).tolist()
                       + carrier[2:] + rng.standard_normal(2).tolist()) for _ in range(3)]
    fan = _fan_run(EDGE_SPHERE, starts, (0.0, -span), h)
    assert fan.exit_reason == "domain" and -span < fan.t_end < 0.0
    for k, p in enumerate(starts):
        field_k = fan.columns(np.r_[:2, 2 + 2 * k:4 + 2 * k], s)
        for run in (integrate, _reference_integrate):
            own = run(s, p, (0.0, -span), h)
            assert own.exit_reason == "domain"
            for name in ("times", "positions", "velocities", "accelerations"):
                assert getattr(field_k, name).tobytes() == getattr(own, name).tobytes(), name


@pytest.mark.parametrize("case", ["sphere-L0", "sphere-L1", "finsler", "disk-domain-exit",
                                  "disk-domain-exit-L1", "sphere-edge-L1", "brake-slashed-exit",
                                  "overflowing-sum"])
def test_every_step_through_the_handback_is_the_loop(monkeypatch, case):
    # with no floor, every node fails the loop's slashed prefilter, so the
    # loop decides each by _node_exit
    s, init, span, h = REFERENCE_CASES[case]
    calls = _record_accelerations(monkeypatch)
    want = integrate(s, init, (0.0, span), h)
    loop_calls = _callers(calls)
    calls.clear()
    monkeypatch.setattr(geodesic, "_NOT_SLASHED_ABOVE", math.inf)
    checked = []
    node_exit = geodesic._node_exit
    monkeypatch.setattr(geodesic, "_node_exit", lambda *node: checked.append(1) or node_exit(*node))
    got = integrate(s, init, (0.0, span), h)
    # the initial state, then every node the run reached
    assert len(checked) == len(got.times) + (got.exit_reason is not None)
    for name in ("times", "positions", "velocities", "accelerations"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.exit_reason == want.exit_reason == EXPECTED_EXIT.get(case)
    calling = geodesic._calling(s.fiber_dim, s.dim)
    if geodesic._run_loop(s, s.acceleration, s.fiber_dim) is not calling:
        # the stages and nodes run inlined; only node 0 calls f
        assert _callers(calls) == ["_integrate"]
    else:
        # no stage runs twice: the same evaluations, in the same order, three
        # stages and a node per stored step and three stages for an exit
        assert _callers(calls) == loop_calls
        assert loop_calls.count("loop") == (4 * (len(got.times) - 1)
                                            + 3 * (got.exit_reason is not None))


@pytest.mark.parametrize("coords", [
    [math.inf, 0.0, 1.0, 0.0], [0.0, 0.0, math.nan, 1.0], [math.inf, -math.inf, 1.0, 0.0],
    [1e308, 1e308, -math.inf, 0.0], [1e308, 1e308, 1.0, math.nan],
], ids=["inf", "nan", "inf-minus-inf", "overflowing-sum-inf", "overflowing-sum-nan"])
def test_nonfinite_initial_state_raises_blowup(coords):
    for run in (integrate, _reference_integrate):
        with pytest.raises(IntegrationBlowupError, match="non-finite"):
            run(make_flat(2), JetPoint(1, 2, coords), (0.0, 1.0), 0.1)


def test_node_overflowing_to_inf_raises_blowup():
    # the first node is x = 1e308 + 1e308 = inf
    init = JetPoint(1, 2, [1e308, 1e308, 1e308, 0.0])
    for run in (integrate, _reference_integrate):
        with np.errstate(over="ignore"), pytest.raises(IntegrationBlowupError, match="non-finite"):
            run(make_flat(2), init, (0.0, 1.0), 1.0)


@pytest.mark.parametrize("level", [0, 2])
def test_acceleration_calls_per_step(monkeypatch, level):
    s, init = _lifted_sphere(level), _lifted_init(level)
    calls = _record_accelerations(monkeypatch)
    kernel_runs = []
    kernel = s.kernel
    monkeypatch.setitem(vars(s), "kernel", lambda x, v: kernel_runs.append(1) or kernel(x, v))
    tr = integrate(s, init, (0.0, 0.5), 0.1)
    steps = len(tr.times) - 1
    assert tr.complete and steps == 5
    # the wrapped kernel keeps no tape, so no loop inlines it: three stage
    # evaluations per step and one per stored node, each through
    # Spray.acceleration and each running the kernel once; the loop makes
    # all but node 0's
    assert len(calls) == 3 * steps + len(tr.times) == 4 * steps + 1
    assert {lvl for lvl, _ in calls} == {level}
    assert _callers(calls).count("loop") == 4 * steps
    assert len(kernel_runs) == 4 * steps + 1
    calls.clear()
    residual(s, tr)
    assert len(calls) == steps


def test_fused_level0_run_calls_the_evaluator_for_node_0_only(monkeypatch):
    s = make_sphere()
    calls = _record_accelerations(monkeypatch)
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-2)
    assert tr.complete and len(tr.times) == 101
    assert calls == [(0, "_integrate")]


# node 1 of the drag run 0.1*v*v from (0, 1) at h = 0.25, where the trap
# divides by zero; its stages and other nodes give the drag run's values
TRAP_X = 0.24395071134389243

FUSED_SPRAYS = {"sphere": make_sphere(), "flat": make_flat(2),
                "finsler": make_finsler_example((0.3, -0.2)),
                "round-sphere-3": make_round_sphere(3), "conformal": CONFORMAL,
                "trap": Spray(level=0, dim=1, tag="trap",
                              coeff_fn=lambda x, v: [0.1 * v[0] * v[0] + 0.0 / (x[0] - TRAP_X)])}


@st.composite
def _fused_cases(draw):
    """(name, level, coords, span, h), with sphere carriers near a pole."""
    name = draw(st.sampled_from(sorted(FUSED_SPRAYS)))
    level = draw(st.sampled_from((0, 1, 2)))
    dim = FUSED_SPRAYS[name].dim
    half = (1 << level) * dim
    coords = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * half, max_size=2 * half))
    if name in ("sphere", "round-sphere-3", "conformal"):
        # colatitudes within 0.3 of a pole, the longitude anywhere
        for i in range(dim - 1):
            near = draw(st.floats(1e-3, 0.3))
            coords[i] = draw(st.sampled_from([near, math.pi - near]))
    assume(math.hypot(*coords[half:half + dim]) > 0.1)
    span = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5, 4.0))
    return name, level, coords, span, draw(st.sampled_from([0.05, 0.25, 0.5]))


def _outcome(run, *args):
    """What ``run(*args)`` gives: the fields of its result but the spray, each
    array as its bytes, or the type, message and cause of what it raises."""
    try:
        out = run(*args)
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)
    return tuple(v.tobytes() if isinstance(v, np.ndarray) else v
                 for k, v in vars(out).items() if k != "spray")


@settings(max_examples=300)
@given(_fused_cases())
# the 4th stage of step 2 lands on the pole (as in test_stage_on_pole_is_domain_exit)
@example(("sphere", 0, [0.5, 0.0, -1.0, 0.0], 2.0, 0.25))
# the inlined acceleration of node 1 raises (see TRAP_X)
@example(("trap", 0, [0.0, 1.0], 1.0, 0.25))
def test_fused_run_is_the_unfused_run(case):
    name, level, coords, span, h = case
    s = FUSED_SPRAYS[name]
    for _ in range(level):
        s = complete_lift(s)
    init = JetPoint(level + 1, s.dim, coords)
    # every kernel here is traced, so it is inlined
    assert geodesic._run_loop(s, s.acceleration, s.fiber_dim) is not geodesic._calling(
        s.fiber_dim, s.dim)
    inlined = _outcome(integrate, s, init, (0.0, span), h)
    with _calling_only():
        assert inlined == _outcome(integrate, s, init, (0.0, span), h)


FAN_SPRAYS = {"sphere": FUSED_SPRAYS["sphere"], "disk": DISK, "finsler": FUSED_SPRAYS["finsler"],
              "trap": FUSED_SPRAYS["trap"], "round-sphere-3": FUSED_SPRAYS["round-sphere-3"]}


@st.composite
def _fan_cases(draw):
    """(name, carrier, fibers, span, h): ``dim`` starts on one carrier in the
    chart, sphere carriers near a pole."""
    name = draw(st.sampled_from(sorted(FAN_SPRAYS)))
    s = FAN_SPRAYS[name]
    jets = st.lists(st.floats(-2.0, 2.0), min_size=2 * s.dim, max_size=2 * s.dim)
    carrier = draw(jets)
    if name in ("sphere", "round-sphere-3"):
        # colatitudes within 0.3 of a pole, the longitude anywhere
        for i in range(s.dim - 1):
            near = draw(st.floats(1e-3, 0.3))
            carrier[i] = draw(st.sampled_from([near, math.pi - near]))
    assume(s.in_domain(carrier) and math.hypot(*carrier[s.dim:]) > 0.1)
    fibers = draw(st.lists(jets, min_size=s.dim, max_size=s.dim))
    span = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5, 4.0))
    return name, carrier, fibers, span, draw(st.sampled_from([0.05, 0.25, 0.5]))


@settings(max_examples=200)
@given(_fan_cases())
# the carrier's 4th stage of step 2 lands on the pole
@example(("sphere", [0.5, 0.0, -1.0, 0.0], [[0.1, 0.0, 0.2, 0.3], [0.0, 1.0, 0.0, 0.0]], 2.0,
          0.25))
# the carrier's node 1 is TRAP_X, where the fan raises
@example(("trap", [0.0, 1.0], [[0.3, -0.2]], 1.0, 0.25))
def test_fused_fan_run_is_the_unfused_run(case):
    # the scan's fan of dim starts, one per basis rate, run by the inlining
    # loop and by the calling loop
    name, carrier, fibers, span, h = case
    s = FAN_SPRAYS[name]
    dim = s.dim
    starts = [JetPoint(2, dim, carrier[:dim] + f[:dim] + carrier[dim:] + f[dim:]) for f in fibers]
    lifted, n = complete_lift(s), dim + dim * dim
    # every fan here is traced, so it runs inlined
    assert geodesic._run_loop(lifted, lifted.fan(dim), n) is not geodesic._calling(n, dim)
    inlined = _outcome(_fan_run, s, starts, (0.0, span), h)
    with _calling_only():
        assert inlined == _outcome(_fan_run, s, starts, (0.0, span), h)


SCAN_CASES = {
    "sphere": (make_sphere(), tilted_init(), 1.5, 1e-2),
    "disk": (DISK, JetPoint(1, 2, [0.0, 0.0, 1.0, 0.0]), 3.0, 1e-2),
    # backward, the drag pushes and the speed blows up near t = -0.8
    "finsler": (make_finsler_example((0.3, 1.0)), JetPoint(1, 2, [0.1, 0.2, 0.9, -0.4]), -1.0,
                1e-2),
    "round-sphere-3": (make_round_sphere(3),
                       JetPoint(1, 3, [math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0, 1.0]), 3.5, 1e-2),
}


@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_fused_conjugate_scan_is_the_unfused_scan(case):
    s, init, t_max, h = SCAN_CASES[case]
    got = _outcome(conjugate_search, s, init, t_max, h)
    with _calling_only():
        assert got == _outcome(conjugate_search, s, init, t_max, h)
    if case in ("sphere", "round-sphere-3"):
        assert len(got[0]) == 1


def test_level2_kernel_and_a_wide_fan_run_inline(monkeypatch):
    # neither the level nor the width decides: the flat and sphere level-2
    # kernels run inline, and so does the fan(4) of a scan along a level-1
    # geodesic, whose loop is past CPython's one-byte local index
    flat = complete_lift(complete_lift(make_flat(2)))
    loop = geodesic._run_loop(flat, flat.acceleration, 8)
    assert loop is not geodesic._calling(8, 2)
    assert loop.__code__.co_nlocals == 133
    loops = []
    run_loop = geodesic._run_loop
    monkeypatch.setattr(geodesic, "_run_loop",
                        lambda s, f, n: loops.append((s.level, n, run_loop(s, f, n))) or loops[-1][2])
    s, init, span, h = REFERENCE_CASES["sphere-L2"]
    integrate(s, init, (0.0, span), h)
    conjugate_search(_lifted_sphere(1), _lifted_init(1), 0.5, 2e-2)
    sphere = geodesic._inlined_loops[s.kernel]
    assert sphere.__code__.co_nlocals == 160
    [(_, _, wide)] = loops[1:]
    assert loops == [(2, 8, sphere), (2, 20, wide)] and wide is not geodesic._calling(20, 2)
    assert wide.__code__.co_filename.startswith("<rk4 loop lifted(lifted(sphere)) L2 fan m=4>")
    assert wide.__code__.co_nlocals == 361


def test_inlined_fan_loop_calls_no_evaluator():
    s = complete_lift(make_sphere())
    fan = s.fan(2)
    loop = geodesic._run_loop(s, fan, 6)
    assert loop is geodesic._inlined_loops[fan] is geodesic._run_loop(s, fan, 6)
    assert loop.__code__.co_filename.startswith("<rk4 loop lifted(sphere) L1 fan m=2>")
    assert not re.search(r"\bf\(", _loop_source(loop))
    assert re.search(r"\bf\(", _loop_source(geodesic._calling(6, 2)))


def _evaluation_copies(source):
    """The line spans (first, last) of the inlined program copies in a loop's ``source``.

    A copy starts at its comment ``# r recorded, k kept`` and ends at the
    line before the ``except`` of the ``try`` that holds it; lines count
    from 1.
    """
    spans, first = [], None
    for number, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        if re.fullmatch(r"# \d+ recorded, \d+ kept", text):
            first = number
        elif first is not None and text.startswith("except "):
            spans.append((first, number - 1))
            first = None
    return spans


@pytest.mark.parametrize("level, m", [(0, 1), (1, 1), (2, 1), (1, 2)])
def test_inlined_copies_assign_each_shared_name_before_reading_it(level, m):
    # a step's four copies of the program share one set of temporaries, the
    # tape's names with one suffix; that is safe because each copy is
    # straight-line code that assigns every such name before its first
    # read, and no line outside the copies reads one.  Besides those, a copy
    # reads only its stage's positions and velocities and the tape's
    # namespace, and assigns only its stage's accelerations, each once
    s = _lifted_sphere(level)
    program = s.fan(m)
    c = s.fiber_dim // 2
    n = c + m * (s.fiber_dim - c)
    loop = geodesic._run_loop(s, s.acceleration if m == 1 else program, n)
    assert loop is not geodesic._calling(n, s.dim)
    tape = program.tape
    shared = {target + "_e" for target, _, _ in tape.stmts}
    source = _loop_source(loop)
    spans = _evaluation_copies(source)
    assert len(spans) == 4
    statements = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)]
    for (first, last), (k, stage) in zip(spans, [("2", "2"), ("3", "3"), ("4", "4"), ("1", "n")]):
        stage_names = {f"{z}{stage}_{i}" for z in "xv" for i in range(n)}
        outputs = {f"a{k}_{i}" for i in range(n)}
        assigned = set()
        for stmt in sorted((node for node in statements if first < node.lineno <= last),
                           key=lambda node: node.lineno):
            assert isinstance(stmt, ast.Assign)
            [target] = stmt.targets
            assert isinstance(target, ast.Name) and target.id in (shared | outputs) - assigned
            reads = {z.id for z in ast.walk(stmt.value) if isinstance(z, ast.Name)}
            assert reads <= assigned | stage_names | set(tape.namespace), (
                stmt.lineno, reads - assigned - stage_names - set(tape.namespace))
            assigned.add(target.id)
        assert outputs <= assigned and assigned & shared
    for z in ast.walk(ast.parse(source)):
        if isinstance(z, ast.Name) and isinstance(z.ctx, ast.Load) and z.id in shared:
            assert any(first < z.lineno <= last for first, last in spans), (z.lineno, z.id)


# (spray, m, level): the run of fan(m) of the spray's level-th lift, m = 1
# being the kernel's; an id names the level but 1.  The runner's sprays at
# levels 0-1, kernel and fan(2), are among them, and the last five loops
# pass 256 locals, CPython's one-byte local index
LOCALS_CASES = [
    ("sphere", 1, 1), ("sphere", 2, 1), ("finsler", 2, 1), ("round-sphere-3", 1, 1),
    ("round-sphere-3", 3, 1), ("flat-3", 3, 1), ("flat-4", 1, 1), ("flat-4", 4, 1),
    ("pushed-sphere", 1, 1), ("flat", 1, 2), ("finsler", 1, 2), ("finsler", 2, 2),
    ("sphere", 1, 2), ("sphere", 2, 2), ("pushed-sphere", 1, 2), ("flat-1", 1, 3),
    ("flat", 1, 3), ("flat", 3, 2), ("flat-4", 1, 2), ("flat-4", 3, 1),
    ("sphere", 1, 0), ("flat", 1, 0), ("finsler-0-1", 1, 0), ("flat", 1, 1), ("flat", 2, 1),
    ("finsler-0-1", 1, 1), ("finsler-0-1", 2, 1),
    ("sphere", 1, 3), ("finsler-drag", 1, 3), ("round-sphere-3", 1, 2), ("pushed-sphere", 2, 2),
    ("sphere", 4, 2)]
LOCALS_SPRAYS = {"flat-1": make_flat(1), "flat-3": make_flat(3), "flat-4": make_flat(4),
                 "pushed-sphere": PUSHED_SPHERE, "finsler-0-1": make_finsler_example((0.0, 1.0)),
                 "finsler-drag": make_finsler_example((0.3, 1.0)), **FUSED_SPRAYS}


@pytest.mark.parametrize("name, m, level", LOCALS_CASES, ids=[
    f"{name}-{m}" + (f"-L{level}" if level != 1 else "") for name, m, level in LOCALS_CASES])
def test_run_loop_inlines_the_loops_that_fit_max_locals(monkeypatch, name, m, level):
    # every traced kernel or fan(m) runs inlined, at any level and of any
    # width: its loop is built once, at the program's first run, and has
    # the locals of the loop _rk4 builds from the program's tape
    s = LOCALS_SPRAYS[name]
    for _ in range(level):
        s = complete_lift(s)
    c = s.fiber_dim // 2
    program, n = s.fan(m), c + m * (s.fiber_dim - c)
    f = s.acceleration if m == 1 else program
    geodesic._inlined_loops.pop(program, None)
    built, rk4 = [], geodesic._rk4
    monkeypatch.setattr(geodesic, "_rk4", lambda *args: built.append(rk4(*args)) or built[-1])
    loop = geodesic._run_loop(s, f, n)
    assert loop is geodesic._run_loop(s, f, n) is geodesic._inlined_loops[program]
    assert built == [loop] and loop is not geodesic._calling(n, s.dim)
    reference = rk4(n, s.dim, program.tape, "<rk4 loop built>")
    assert loop.__code__.co_nlocals == reference.__code__.co_nlocals


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", ["sphere", "flat", "finsler"])
def test_inlined_copies_hold_no_tuple_assignment(name, level):
    # a copy reads its stage's names and assigns its stage's accelerations
    # one by one, so the loop's only tuple assignment, and its only
    # UNPACK_SEQUENCE, is the unpacking of the start node before the steps
    s = {"sphere": make_sphere(), "flat": make_flat(2),
         "finsler": make_finsler_example((0.0, 1.0))}[name]
    for _ in range(level):
        s = complete_lift(s)
    c = s.fiber_dim // 2
    for m in (1, 2):
        program, n = s.fan(m), c + m * (s.fiber_dim - c)
        loop = geodesic._rk4(n, s.dim, program.tape, "<rk4 loop built>")
        tree = ast.parse(_loop_source(loop))
        spans = _evaluation_copies(_loop_source(loop))
        assert len(spans) == 4
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(first < node.lineno <= last
                                                    for first, last in spans):
                assert [type(t) for t in node.targets] == [ast.Name], node.lineno
        [unpacking] = [node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                       and not isinstance(node.targets[0], ast.Name)]
        assert ast.unparse(unpacking.value) == "unpack(buf)"
        ops = [i.opname for i in dis.get_instructions(loop)]
        assert ops.count("UNPACK_SEQUENCE") == 1


REPEATED = Spray(level=0, dim=2, tag="repeated", coeff_fn=lambda x, v: [v[0] * v[1], v[0] * v[1]])


def _scan_starts(s, carrier, rng):
    """Lifted starts over one ``carrier`` jet of ``s``, one per fiber
    direction, their fiber values and rates drawn from ``rng``."""
    m = s.fiber_dim
    x0, v0 = list(carrier[:m]), list(carrier[m:])
    return [JetPoint(s.level + 2, s.dim, x0 + (0.3 * rng.standard_normal(m)).tolist() + v0
                     + (0.3 * rng.standard_normal(m)).tolist()) for _ in range(m)]


def _inlined_run_cases():
    """(name, spray, evaluator, run): runs whose copies end on constant
    outputs, a repeated output, or a fan's outputs, then runs whose inlined
    loops pass 256 locals, CPython's one-byte local index (the names from
    "sphere-L3" on); ``run()`` is the run."""
    flat, flat1, sphere1 = make_flat(2), complete_lift(make_flat(2)), _lifted_sphere(1)
    s3 = make_round_sphere(3)
    s3_carrier = [1.2, 0.8, 0.3, 0.2, -0.5, 0.7]
    s3_starts = [JetPoint(2, 3, s3_carrier[:3] + [float(i == j) for i in range(3)]
                          + s3_carrier[3:] + [0.0] * 3) for j in range(3)]
    fast = [0.0, 0.0, 1e308, 1e308]
    sphere2, sphere3 = complete_lift(sphere1), _lifted_sphere(3)
    pushed1 = complete_lift(PUSHED_SPHERE)
    drag3 = complete_lift(complete_lift(complete_lift(make_finsler_example((0.3, 1.0)))))
    s3_2 = complete_lift(complete_lift(s3))
    rng = np.random.default_rng(40)
    pushed_starts = _scan_starts(pushed1, _lifted_init(1, PUSHED_START).coords, rng)[:2]
    sphere_starts = _scan_starts(sphere1, _lifted_init(1).coords, rng)
    return [
        # the flat sprays' outputs are constants; from a speed of 1e308 the
        # positions overflow after t = 1.8, a non-finite node
        ("flat-L0", flat, flat.acceleration,
         lambda: integrate(flat, JetPoint(1, 2, fast), (0.0, 3.0), 0.25)),
        ("flat-L1", flat1, flat1.acceleration,
         lambda: integrate(flat1, JetPoint(2, 2, fast[:2] + [0.1, 0.2] + fast[2:] + [1.0, 1.0]),
                           (0.0, 3.0), 0.25)),
        # both outputs are -2 v0 v1, one statement; backward, the speed
        # blows up at t = -0.5
        ("repeated", REPEATED, REPEATED.acceleration,
         lambda: integrate(REPEATED, JetPoint(1, 2, [0.0, 0.0, 1.0, 1.0]), (0.0, -1.0), 0.05)),
        ("repeated-forward", REPEATED, REPEATED.acceleration,
         lambda: integrate(REPEATED, JetPoint(1, 2, [0.0, 0.0, 1.0, 1.0]), (0.0, 1.0), 0.05)),
        # the carrier's 4th stage of step 2 lands on the pole, where the fan raises
        ("sphere-fan", sphere1, sphere1.fan(2),
         lambda: _fan_run(make_sphere(), [JetPoint(2, 2, [0.5, 0.0, 0.1, 0.0, -1.0, 0.0, 0.2, 0.3]),
                                          JetPoint(2, 2, [0.5, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0, 0.0])],
                          (0.0, 2.0), 0.25)),
        ("round-sphere-3-fan", complete_lift(s3), complete_lift(s3).fan(3),
         lambda: _fan_run(s3, s3_starts, (0.0, 2.0), 0.05)),
        ("sphere-L3", sphere3, sphere3.acceleration,
         lambda: integrate(sphere3, _lifted_init(3), (0.0, 0.3), 0.1)),
        # as in sphere-fan, the carrier's 4th stage of step 2 lands on the pole
        ("sphere-L3-pole", sphere3, sphere3.acceleration,
         lambda: integrate(sphere3, _lifted_init(3, [0.5, 0.0, -1.0, 0.0]), (0.0, 2.0), 0.25)),
        ("finsler-drag-L3", drag3, drag3.acceleration,
         lambda: integrate(drag3, _lifted_init(3, [0.1, 0.2, 0.9, -0.4]), (0.0, 0.3), 0.1)),
        ("round-sphere-3-L2", s3_2, s3_2.acceleration,
         lambda: integrate(s3_2, _lifted_init(2, [math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0, 1.0]),
                           (0.0, 0.5), 0.05)),
        ("pushed-sphere-L2-fan", complete_lift(pushed1), complete_lift(pushed1).fan(2),
         lambda: _fan_run(pushed1, pushed_starts, (0.0, 0.5), 0.05)),
        ("sphere-L2-fan", sphere2, sphere2.fan(4),
         lambda: _fan_run(sphere1, sphere_starts, (0.0, 0.5), 0.05)),
    ]


INLINED_RUN_NAMES = [name for name, *_ in _inlined_run_cases()]


@pytest.mark.parametrize("case", range(len(INLINED_RUN_NAMES)), ids=INLINED_RUN_NAMES)
def test_copy_outputs_give_the_calling_loops_results(monkeypatch, case):
    # a constant output is copied at the end of its copy, a repeat
    # from the name its statement assigned; a loop past 256 locals inlines
    # as well.  Results, exit reasons, exceptions and the stage lists
    # handed to _failed_step are bitwise the calling loop's
    name, s, f, run = _inlined_run_cases()[case]
    received, failed_step = [], geodesic._failed_step

    def receiving(s, stages, exc):
        received.append([np.array(xp, dtype=float).tobytes() for xp in stages])
        return failed_step(s, stages, exc)

    monkeypatch.setattr(geodesic, "_failed_step", receiving)
    n = s.fiber_dim if f == s.acceleration else len(f.tape.inputs[0])
    loop = geodesic._run_loop(s, f, n)
    assert loop is not geodesic._calling(n, s.dim)
    assert (loop.__code__.co_nlocals > 256) == (case >= INLINED_RUN_NAMES.index("sphere-L3"))
    copied = {"flat": "a2_0 = c0\n", "repeated": "a2_1 = a2_0\n"}.get(name.partition("-")[0])
    assert copied is None or copied in _loop_source(loop)
    with np.errstate(over="ignore", invalid="ignore"):
        inlined = _outcome(run), list(received)
        received.clear()
        with _calling_only():
            assert (_outcome(run), received) == inlined
    assert bool(inlined[1]) == (name in ("flat-L0", "flat-L1", "repeated", "sphere-fan",
                                         "sphere-L3-pole"))
    if name == "sphere-L3-pole":
        assert inlined[0][-1] == "domain" and len(inlined[1][0]) == 3


def test_refused_trace_gets_the_calling_loop():
    # a kernel or fan whose trace is refused keeps no tape, at any level,
    # and its run gets the calling loop; no inlined loop is built for it
    for s, m in ((SWITCHING, 1), (complete_lift(SWITCHING), 1), (complete_lift(SWITCHING), 2)):
        c = s.fiber_dim // 2
        program, n = s.fan(m), c + m * (s.fiber_dim - c)
        f = s.acceleration if m == 1 else program
        assert getattr(program, "tape", None) is None
        assert geodesic._run_loop(s, f, n) is geodesic._calling(n, s.dim)
        assert program not in geodesic._inlined_loops
    tr = integrate(complete_lift(SWITCHING), _lifted_init(1, [-0.3, 1.0]), (0.0, 0.5), 1e-2)
    assert tr.complete


def test_trap_node_failure_is_a_blowup():
    drag = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.1 * v[0] * v[0]], tag="drag")
    init = JetPoint(1, 1, [0.0, 1.0])
    assert integrate(drag, init, (0.0, 1.0), 0.25).positions[1, 0] == TRAP_X
    trap = FUSED_SPRAYS["trap"]
    lifted = complete_lift(trap)
    # node 1 raises in the inlining loop, and in the calling loop under
    # _calling_only; node 0 is the last stored node
    for s, p in ((trap, init), (lifted, JetPoint(2, 1, [0.0, 0.3, 1.0, -0.2]))):
        assert geodesic._run_loop(s, s.acceleration, s.fiber_dim) is not geodesic._calling(
            s.fiber_dim, s.dim)
        for reference in (False, True):
            with _calling_only() if reference else contextlib.nullcontext():
                with pytest.raises(IntegrationBlowupError) as err:
                    integrate(s, p, (0.0, 1.0), 0.25)
            assert str(err.value) == ("coefficient evaluation failed: ZeroDivisionError("
                                      "'float division by zero')")
            assert type(err.value.__cause__) is ZeroDivisionError
            assert err.value.t_end == 0.0


def test_residual_matches_step_loop():
    # the defect rows have 2 (sphere, Finsler, pushed), 4, 8 and 16 columns
    for case in ("sphere-L0", "sphere-L1", "sphere-L2", "sphere-L3", "finsler", "pushed-sphere"):
        s, init, span, h = REFERENCE_CASES[case]
        tr = integrate(s, init, (0.0, span), h)
        pos = tr.positions.copy()
        pos[len(pos) // 2, 0] += 1e-3
        for run in (tr, replace(tr, positions=pos)):
            worst = 0.0
            for i in range(len(run.times) - 1):
                dt = run.times[i + 1] - run.times[i]
                t2, t3 = 0.25, 0.125
                y0, d0, y1, d1 = (run.positions[i], run.velocities[i],
                                  run.positions[i + 1], run.velocities[i + 1])
                x = ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + 0.5) * dt * d0
                     + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * dt * d1)
                v = ((6 * t2 - 6 * 0.5) * y0 / dt + (3 * t2 - 4 * 0.5 + 1) * d0
                     + (-6 * t2 + 6 * 0.5) * y1 / dt + (3 * t2 - 2 * 0.5) * d1)
                curv = (run.velocities[i + 1] - run.velocities[i]) / dt
                acc = s.acceleration(x.tolist(), v.tolist())
                worst = max(worst, float(np.linalg.norm(curv - acc)))
            assert residual(s, run) == worst, case


# --- the slashed threshold --------------------------------------------------

# components whose squares underflow to zero or to a subnormal
SUBNORMALS = [5e-324, -5e-324, 1e-310, -7.3e-309, 2.2e-308, 0.0, -0.0]
# the slashed threshold, and the norm at which _node_exit stops calling numpy
THRESHOLDS = [EPS_SLASHED, EPS_SLASHED * math.sqrt(1.0 + 1e-6)]
FLATS = {dim: make_flat(dim) for dim in range(1, 5)}


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0.0)
    return x


def _slashed_decision(v, dim):
    # v may carry entries past dim, as the velocity of a lifted state does
    return _node_exit(FLATS[dim], [0.0] * dim, v)


@st.composite
def _near_threshold(draw):
    dim = draw(st.integers(1, 4))
    # None marks a subnormal component
    u = draw(st.lists(st.floats(-1.0, 1.0) | st.none(), min_size=dim, max_size=dim))
    n = float(np.linalg.norm([z for z in u if z is not None] or [0.0]))
    assume(n > 0.0)
    target = _ulps(draw(st.sampled_from(THRESHOLDS)), draw(st.integers(-4, 4)))
    v = [draw(st.sampled_from(SUBNORMALS)) if z is None else z * (target / n) for z in u]
    return dim, v + draw(st.lists(st.floats(-10.0, 10.0), max_size=4))


@settings(max_examples=400)
@given(_near_threshold())
def test_slashed_decision_is_the_numpy_norm(case):
    dim, v = case
    want = "slashed" if np.linalg.norm(v[:dim]) <= EPS_SLASHED else None
    assert _slashed_decision(v, dim) == want


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_slashed_decision_at_the_threshold(dim, ulps):
    # norm EPS_SLASHED exactly, and one ulp either side: sqrt(fl(y*y)) == y,
    # and the squares of the subnormal fill underflow to zero
    y = _ulps(EPS_SLASHED, ulps)
    for k in range(dim):
        for sign in (1.0, -1.0):
            v = [5e-324 * (-1) ** i for i in range(dim)]
            v[k] = sign * y
            assert np.linalg.norm(v) == y
            assert _slashed_decision(v + [1.0], dim) == ("slashed" if ulps <= 0 else None)


# --- the domain contract -----------------------------------------------------


def _disk_calls(run):
    """Each call a radius-2 disk domain gets while ``run(disk)`` runs.

    A call is recorded as (argument, names of the three calling functions,
    innermost last, and the filename of the innermost).
    """
    calls = []

    def disk(x):
        stack = traceback.extract_stack(limit=4)[:-1]
        calls.append((x, tuple(fr.name for fr in stack), stack[-1].filename))
        return float(np.dot(x, x)) < 4.0

    run(disk)
    return calls


def _rim_spray(domain):
    # raises ValueError outside the radius-2 disk; from (1.5, 0) at h = 1
    # the 4th stage of the first step sits at (2.5, 0)
    return Spray(level=0, dim=2, tag="rim", domain=domain,
                 coeff_fn=lambda x, v: [0.0 * math.sqrt(4.0 - x[0] * x[0] - x[1] * x[1])] * 2)


OUTWARD = [0.0, 0.0, 1.0, 0.0]

# each caller of a domain: (run, the calling functions, the innermost's
# filename or None); a loop of another spray of the same tag may hold the
# plain filename, so a loop's filename is matched by its prefix.  A run of a
# traced kernel or fan inlines it (the ids name the loops they ran before);
# UNFUSED_LOOPS names its calling loop, which _calling_only hands it.
DOMAIN_CALLERS = {
    "fused-L0-loop": (lambda d: integrate(make_flat(2, d), JetPoint(1, 2, OUTWARD),
                                          (0.0, 3.0), 0.25),
                      ("_integrate", "loop"), "<rk4 loop flat L0>"),
    "calling-L1-loop": (lambda d: integrate(complete_lift(make_flat(2, d)),
                                            _lifted_init(1, OUTWARD), (0.0, 3.0), 0.25),
                        ("_integrate", "loop"), "<rk4 loop lifted(flat) L1>"),
    "calling-L2-loop": (lambda d: integrate(complete_lift(complete_lift(make_flat(2, d))),
                                            _lifted_init(2, OUTWARD), (0.0, 3.0), 0.25),
                        ("_integrate", "loop"), "<rk4 loop lifted(lifted(flat)) L2>"),
    "fan-run": (lambda d: conjugate_search(make_flat(2, d), JetPoint(1, 2, OUTWARD), 3.0, 0.25),
                ("_fan_run", "_integrate", "loop"), "<rk4 loop lifted(flat) L1 fan m=2>"),
    "start-check": (lambda d: integrate(make_flat(2, d), JetPoint(1, 2, OUTWARD), (0.0, 1.0), 0.25),
                    ("_integrate", "_node_exit", "in_domain"), None),
    "failed-step": (lambda d: integrate(_rim_spray(d), JetPoint(1, 2, [1.5, 0.0, 1.0, 0.0]),
                                        (0.0, 2.0), 1.0),
                    ("_failed_step", "in_domain"), None),
    "coeffs": (lambda d: make_flat(2, d).coeffs(JetPoint(1, 2, [0.5, 0.5, 1.0, 0.0])),
               ("coeffs", "in_domain"), None),
    "pushed-spray": (lambda d: integrate(pushforward_spray(shear_chart(), make_flat(2, d)),
                                         JetPoint(1, 2, OUTWARD), (0.0, 3.0), 0.25),
                     ("loop", "domain", "in_domain"), None),
    "chart-transition": (lambda d: pushforward(replace(shear_chart(), domain=d),
                                               JetPoint(1, 2, [0.5, 0.5, 1.0, 0.0])),
                         ("pushforward",), None),
}


UNFUSED_LOOPS = {"calling-L1-loop": "<rk4 loop n=4 dim=2>", "calling-L2-loop": "<rk4 loop n=8 dim=2>",
                 "fan-run": "<rk4 loop n=6 dim=2>"}


@pytest.mark.parametrize("caller", list(DOMAIN_CALLERS))
def test_every_domain_call_gets_a_list_of_dim_floats(caller):
    run, names, filename = DOMAIN_CALLERS[caller]
    loops = [(contextlib.nullcontext, filename)]
    if caller in UNFUSED_LOOPS:
        loops.append((_calling_only, UNFUSED_LOOPS[caller]))
    for loop, filename in loops:
        with loop():
            calls = _disk_calls(run)
        assert any(got[-len(names):] == names and (filename is None or file.startswith(filename))
                   for _, got, file in calls)
        for x, _, _ in calls:
            assert type(x) is list and len(x) == 2
            assert all(type(z) is float for z in x)


def test_sphere_loop_checks_each_node_on_its_base_list():
    sphere = make_sphere()
    calls = []
    s = replace(sphere, domain=lambda x: calls.append(x) or sphere.domain(x))
    tr = integrate(s, tilted_init(), (0.0, 1.0), 1e-2)
    # once for the start, once for each of the 100 accepted nodes
    assert tr.complete and len(tr.times) == 101
    assert len(calls) == 101
    loop = geodesic._run_loop(s, s.acceleration, 2)
    source = "".join(linecache.getlines(loop.__code__.co_filename))
    assert "domain([xn_0, xn_1])" in source
    assert "in_domain" not in source and "asarray" not in source


# --- whole-array dense output ------------------------------------------------


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", ["sphere-L0", "sphere-L2", "flat"])
def test_states_at_rows_are_state_at(case, direction):
    s, init, span, h = REFERENCE_CASES[case]
    # a span that is not a whole number of steps leaves a short last step
    tr = integrate(s, init, (0.0, direction * 0.93 * span), h)
    ts = tr.times
    lo, hi = sorted((ts[0], ts[-1]))
    times = np.concatenate([ts, (ts[:-1] + ts[1:]) / 2, np.linspace(lo, hi, 37),
                            [lo - 1e-12, hi + 1e-12, lo - 5e-13, hi + 5e-13]])
    xs, vs = tr.states_at(times)
    assert xs.shape == vs.shape == (times.size, tr.positions.shape[1])
    for k, t in enumerate(times):
        x, v = tr.state_at(t)
        assert xs[k].tobytes() == x.tobytes() and vs[k].tobytes() == v.tobytes(), t
    np.testing.assert_array_equal(tr.states_at(ts)[0], tr.positions)
    for bad in (lo - 1e-11, hi + 1e-11, math.nan):
        with pytest.raises(DomainError):
            tr.state_at(bad)
        with pytest.raises(DomainError):
            tr.states_at(np.append(times, bad))


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "reversed"])
@pytest.mark.parametrize("case", ["sphere-L0", "sphere-L2", "flat"])
def test_position_at_is_the_position_of_state_at(case, direction):
    s, init, span, h = REFERENCE_CASES[case]
    for tr in (integrate(s, init, (0.0, direction * 0.93 * span), h),
               integrate(s, init, (0.0, 0.0), h)):
        ts = tr.times
        lo, hi = sorted((ts[0], ts[-1]))
        # nodes, step midpoints, and times within the span slack of either end
        times = np.concatenate([ts, (ts[:-1] + ts[1:]) / 2,
                                [lo - 1e-12, hi + 1e-12, lo - 5e-13, hi + 5e-13]])
        for t in times.tolist():
            assert tr.position_at(t).tobytes() == tr.state_at(t)[0].tobytes(), t
        for bad in (lo - 1e-11, hi + 1e-11, math.nan):
            with pytest.raises(DomainError) as want:
                tr.state_at(bad)
            with pytest.raises(DomainError) as got:
                tr.position_at(bad)
            assert str(got.value) == str(want.value)
        # only the position's Hermite interpolant is evaluated
        with mock.patch.object(geodesic, "_hermite", wraps=geodesic._hermite) as hermite:
            tr.position_at(float(ts[-1]))
        assert hermite.call_count == (len(ts) > 1)


@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "reversed"])
def test_bracket_is_the_clamped_node_count(direction):
    # the dense outputs share _bracket, so pin it to its definition:
    # the step starts at the last node reached, clamped to the first and
    # last steps
    s, init, span, h = REFERENCE_CASES["sphere-L0"]
    tr = integrate(s, init, (0.0, direction * 0.93 * span), h)
    ts = tr.times
    n = len(ts)
    lo, hi = sorted((ts[0], ts[-1]))
    near = [np.nextafter(ts, -math.inf), np.nextafter(ts, math.inf)]
    times = np.concatenate([ts, *near, (ts[:-1] + ts[1:]) / 2, [lo - 1e-12, hi + 1e-12]])
    times = times[(times >= lo - 1e-12) & (times <= hi + 1e-12)]
    reached = (lambda t: np.sum(ts <= t)) if direction > 0 else (lambda t: np.sum(ts >= t))
    expected = [max(0, min(n - 2, int(reached(t)) - 1)) for t in times]
    assert tr._bracket(times).tolist() == expected
    assert [int(tr._bracket(float(t))) for t in times] == expected


def test_states_at_single_node():
    tr = integrate(make_sphere(), tilted_init(), (0.0, 0.0), 1e-2)
    times = [0.0, 1e-12, -1e-12, 5e-13]
    xs, vs = tr.states_at(times)
    for k, t in enumerate(times):
        x, v = tr.state_at(t)
        assert xs[k].tobytes() == x.tobytes() and vs[k].tobytes() == v.tobytes()
    for bad in (0.5, -1e-11):
        with pytest.raises(DomainError):
            tr.state_at(bad)
        with pytest.raises(DomainError):
            tr.states_at([0.0, bad])


# --- the stored nodes --------------------------------------------------------


def _scan_fan(s, init, t_max, h):
    """The one fan run :func:`conjugate_search` makes for its scan."""
    runs = []
    fan_run = jacobi._fan_run

    def recording(*args):
        runs.append(fan_run(*args))
        return runs[-1]

    with mock.patch.object(jacobi, "_fan_run", recording):
        conjugate_search(s, init, t_max, h)
    [fan] = runs
    return fan


def _case_run(case, direction=1.0):
    s, init, span, h = REFERENCE_CASES[case]
    return integrate(s, init, (0.0, direction * span), h)


NODE_ARRAYS = ("times", "positions", "velocities", "accelerations")

# runs through the inlining loop (L0-L1), the calling loop (L2-L3), a fan
# and each way a run ends
PINNED_RUNS = {
    "sphere-L0": lambda: _case_run("sphere-L0"),
    "flat-L0": lambda: _case_run("flat"),
    "finsler-L0": lambda: _case_run("finsler"),
    "sphere-L1": lambda: _case_run("sphere-L1"),
    "sphere-L2": lambda: _case_run("sphere-L2"),
    "sphere-L3": lambda: _case_run("sphere-L3"),
    "scan-fan": lambda: _scan_fan(make_sphere(), tilted_init(), 1.5, 1e-2),
    "pushed-sphere": lambda: _case_run("pushed-sphere"),
    "pole-domain": lambda: integrate(make_sphere(), JetPoint(1, 2, [0.5, 0.0, -1.0, 0.0]),
                                     (0.0, 2.0), 0.25),
    "slashed": lambda: _case_run("brake-slashed-exit"),
    "zero-span": lambda: integrate(make_sphere(), tilted_init(), (0.4, 0.4), 1e-2),
    "backward": lambda: _case_run("sphere-L0", -1.0),
}

# each run's exit reason and the SHA-256 of its node arrays' shapes and
# bytes, as recorded before the nodes were packed into one buffer
PINNED_DIGESTS = {
    "sphere-L0": (None,
        "8a8d939eed6ffc250b383b4f4497957fcf821cf712561846eb0920d2e48a801a"),
    "flat-L0": (None,
        "99d1cc5dd98e53dc5363ccf15feb0a8193ca7259f38a1196565628f0b5981409"),
    "finsler-L0": (None,
        "a94b1eefd24e6d25c189b376082b34e56c20baa1cfd27bfae3e966b9d20aeb8f"),
    "sphere-L1": (None,
        "6513238ca710a3d8e63c8ef7a1ed931a1db435e5522ded24208229fa2fd9d1d2"),
    "sphere-L2": (None,
        "06f214d74eed7d572b01869095824c9a2009c5985b8b2fef86658dca3ff9784e"),
    "sphere-L3": (None,
        "3f2046b9be72c59cb331ed6336a04e60ce1eb913351158e9325e994e47938e36"),
    "scan-fan": (None,
        "7ec8a0b67eb3f2c384c92e5b7da658f9effaebc85b67c8b6494a60f3f7ee456b"),
    "pushed-sphere": (None,
        "b929d26341adadf8895a93f27ab509b0d5dfdfc1f9242bd7b38f373c24211641"),
    "pole-domain": ("domain",
        "f8adc60615a541f8b8fec7fa810e1807dc3566b7d83a1132a035ae156187e8f6"),
    "slashed": ("slashed",
        "5d895ee3a11eb0e1757da8efcefc6928d6467224795f33209b0073ab50ea9455"),
    "zero-span": (None,
        "870555c3df2ea5aa5c2b6aa0dd3684f15456f3c0d6ea7f1d359b9269f645e7ec"),
    "backward": (None,
        "1741ba8a3739b0e4f88cb1451d19cd563f947022842668ce625121b7e31dd626"),
}


def _node_digest(tr):
    digest = hashlib.sha256()
    for name in NODE_ARRAYS:
        array = getattr(tr, name)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_stored_nodes_are_pinned(name):
    tr = PINNED_RUNS[name]()
    assert (tr.exit_reason, _node_digest(tr)) == PINNED_DIGESTS[name]
    for array in map(partial(getattr, tr), NODE_ARRAYS):
        # each array is its own: no view into a buffer the run shares
        assert array.dtype == np.float64
        assert array.flags.c_contiguous and array.flags.writeable and array.flags.owndata


# the squared-speed run blows up in the inlining loop at level 0, the lifted
# trap in the one at level 1; t_end is the time of the last finite node
PINNED_BLOWUPS = {
    "squared-speed": (Spray(level=0, dim=1, coeff_fn=lambda x, v: [-0.5 * v[0] * v[0]],
                            tag="squared-speed"), JetPoint(1, 1, [0.0, 1.0]), 0.04),
    "trap-L1": (complete_lift(FUSED_SPRAYS["trap"]), JetPoint(2, 1, [0.0, 0.3, 1.0, -0.2]), 0.25),
}

PINNED_BLOWUP_ENDS = {"squared-speed": 1.08, "trap-L1": 0.0}


@pytest.mark.parametrize("name", list(PINNED_BLOWUPS))
def test_blowup_end_is_pinned(name):
    s, init, h = PINNED_BLOWUPS[name]
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s, init, (0.0, 3.0), h)
    assert type(err.value) is IntegrationBlowupError
    assert type(err.value.t_end) is float
    assert err.value.t_end == PINNED_BLOWUP_ENDS[name]


def test_allocation_follows_the_nodes_reached():
    # from colatitude 0.5 toward the pole the run leaves the chart after
    # some 500 steps, so a span of 1e12 steps must not cost more memory
    # than a span of 1000
    s, init = make_sphere(), JetPoint(1, 2, [0.5, 0.0, -1.0, 0.0])
    want = integrate(s, init, (0.0, 1.0), 1e-3)  # also builds the run loop
    tracemalloc.start()
    try:
        got = integrate(s, init, (0.0, 1e9), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert got.exit_reason == want.exit_reason == "domain"
    assert 400 < len(got.times) < 1000
    for name in NODE_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _loop_source(loop):
    return "".join(linecache.getlines(loop.__code__.co_filename))


def test_run_loops_pack_each_node_once():
    s = make_sphere()
    integrate(s, tilted_init(), (0.0, 0.1), 1e-2)  # builds the inlining loop
    inlined = geodesic._run_loop(s, s.acceleration, 2)
    calling = geodesic._calling(8, 2)
    assert inlined is not geodesic._calling(2, 2)
    for loop in (inlined, calling):
        source = _loop_source(loop)
        # the times are the only list that grows; each node goes into the
        # buffer by one pack
        assert source.count(".append(") == source.count("times.append(") == 1
        assert len(re.findall(r"\bpack\(", source)) == source.count("buf += pack(") == 1
    assert "asarray" not in inspect.getsource(geodesic._integrate)
    for fn in (geodesic.residual, subspray._check_jets):
        assert "np.array(" not in inspect.getsource(fn), fn.__name__


@pytest.mark.parametrize("shape", [(0, 2), (1, 3), (5, 2), (3, 16)])
def test_stacked_rows_are_the_nested_array(shape):
    rng = np.random.default_rng(shape[0] * 17 + shape[1])
    special = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 3, True]
    flat = [special[k] if k < len(special) else float(z)
            for k, z in enumerate(rng.standard_normal(shape[0] * shape[1]))]
    rows = [flat[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])]
    got = spray_mod._stacked(rows, shape)
    want = np.array(rows, dtype=float).reshape(shape)
    assert got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()
