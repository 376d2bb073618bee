"""Jacobi fields by lifting, the variation oracle, and conjugate points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayjets import (DomainError, IntegrationBlowupError, InvalidLevelError, JetPoint, Spray,
                       complete_lift, flow, flow_tangent_fd, integrate, kappa,
                       make_finsler_example, make_flat, make_round_sphere, make_sphere)
from sprayjets import jacobi, subspray
from sprayjets.geodesic import Trajectory, residual
from sprayjets.jacobi import (JacobiField, _fan_run, conjugate_search, jacobi_from_initial,
                              lift_conjugate_check, new_from_old_suite, variation_oracle)
from sprayjets.jets import jet_re, jlog, jsqrt
from sprayjets.jetspace import _dproject_idx
from sprayjets.samples import random_slashed_jet, sphere_phase
from test_geodesic import _dual_reference_integrate
from test_spray import projective


def equator_field(rate, t_end=np.pi, h=1e-3):
    s = make_sphere()
    init = JetPoint(2, 2, np.array([np.pi / 2, 0.0, 0.0, 0.0,
                                    0.0, 1.0, rate[0], rate[1]]))
    return s, jacobi_from_initial(s, init, (0.0, t_end), h)


def test_equator_sine_field():
    # normal perturbation of the equator: fiber norm is |sin t|
    s, jac = equator_field((1.0, 0.0))
    norms = np.linalg.norm(jac.fiber_nodes(), axis=1)
    np.testing.assert_allclose(norms, np.abs(np.sin(jac.times)), atol=1e-10)
    np.testing.assert_allclose(jac.fiber_nodes()[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(jac.field.position_at(np.pi / 2)[2:], [1.0, 0.0], atol=1e-10)


def test_equator_tangential_field_grows_linearly():
    # rate along the motion itself reparametrizes: fiber is (0, t)
    s, jac = equator_field((0.0, 1.0))
    np.testing.assert_allclose(jac.fiber_nodes()[:, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(jac.fiber_nodes()[:, 1], jac.times, atol=1e-10)


def test_initial_level_guard():
    s = make_sphere()
    with pytest.raises(InvalidLevelError):
        jacobi_from_initial(s, JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0])),
                            (0.0, 1.0), 1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lifted_field_matches_variation_oracle(seed):
    s = make_sphere()
    rng = np.random.default_rng(seed)
    ph = sphere_phase(rng)
    gamma = integrate(s, ph, (0.0, 1.0), 1e-3)
    w = rng.standard_normal(4)
    init = JetPoint(2, 2, np.array([*ph.coords[:2], *w[:2], *ph.coords[2:], *w[2:]]))
    lifted = jacobi_from_initial(s, init, (0.0, 1.0), 1e-3)
    oracle = variation_oracle(s, gamma, w, eps=1e-4)
    gap = np.max(np.abs(lifted.fiber_nodes() - oracle.fiber_nodes()))
    assert gap < 1e-6
    # halving the stencil shrinks the defect quadratically
    wide = variation_oracle(s, gamma, w, eps=2e-4)
    gap_wide = np.max(np.abs(wide.fiber_nodes() - lifted.fiber_nodes()))
    assert 2.0 < gap_wide / gap < 8.0


def test_oracle_rejects_shape_mismatch():
    s = make_sphere()
    gamma = integrate(s, JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0])),
                      (0.0, 1.0), 1e-2)
    with pytest.raises(InvalidLevelError):
        variation_oracle(s, gamma, np.ones(3))


def test_oracle_steps_with_its_geodesic():
    # rows run at another step would carry gamma's times but sample other ones
    s = make_sphere()
    gamma = integrate(s, JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0])),
                      (0.0, 1.0), 1e-2)
    assert variation_oracle(s, gamma, np.ones(4)).field.h == gamma.h
    with pytest.raises(TypeError):
        variation_oracle(s, gamma, np.ones(4), h=5e-3)


def test_conjugate_points_on_sphere():
    s = make_sphere()
    eq = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    scan = conjugate_search(s, eq, 6.5, 1e-3)
    assert scan.exit_reason is None
    assert len(scan.times) == 2
    assert abs(scan.times[0] - np.pi) < 2e-6
    assert abs(scan.times[1] - 2 * np.pi) < 2e-6
    assert scan.multiplicities == [1, 1]
    # determinant changes sign across each root
    assert np.min(scan.sample_dets) < 0 < np.max(scan.sample_dets)


def test_backward_scan_mirrors_the_forward_scan():
    s = make_sphere()
    eq = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    forward = conjugate_search(s, eq, 3.5, 1e-2)
    backward = conjugate_search(s, eq, -3.5, 1e-2)
    assert len(forward.times) == 1 and abs(forward.times[0] - np.pi) < 1e-6
    assert len(backward.times) == 1 and abs(backward.times[0] + np.pi) < 1e-6
    assert backward.multiplicities == forward.multiplicities == [1]


def _equator(n):
    """The great circle of round S^n through (pi/2, ..., pi/2, 0) along the longitude."""
    return JetPoint(1, n, [np.pi / 2] * (n - 1) + [0.0] + [0.0] * (n - 1) + [1.0])


@pytest.mark.parametrize("h", [1e-2, 1e-3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_sphere_has_multiplicity_n_minus_1_at_pi(n, h):
    # det vanishes to order n - 1 at pi, so its sign changes only for even n;
    # S^3 and S^5 once reported nothing
    s = make_round_sphere(n)
    for t_max in (3.5, -3.5):
        scan = conjugate_search(s, _equator(n), t_max, h)
        assert scan.exit_reason is None
        assert len(scan.times) == 1 and abs(scan.times[0] - math.copysign(np.pi, t_max)) < 1e-6
        assert scan.multiplicities == [n - 1]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_root_in_the_last_step_is_found(n):
    # pi lies in the last step of each scan; the last node is a minimum of |det|
    s = make_round_sphere(n)
    for t_max in (np.pi + 1e-3, -np.pi - 1e-3):
        scan = conjugate_search(s, _equator(n), t_max, 1e-2)
        assert abs(scan.sample_times[-2]) < np.pi < abs(scan.sample_times[-1])
        assert len(scan.times) == 1 and abs(scan.times[0] - math.copysign(np.pi, t_max)) < 1e-6
        assert scan.multiplicities == [n - 1]


LIFTED_START = [np.pi / 2, 0.0, 0.1, -0.2, 0.0, 1.0, 0.3, 0.2]


@pytest.mark.parametrize("lifts", [1, 2])
def test_lifted_sphere_has_the_base_conjugate_time(lifts):
    # a lift's fiber matrix is block triangular with the base one twice on its
    # diagonal, so its determinant is a square and never changes sign
    s = complete_lift(make_sphere())
    init = JetPoint(2, 2, LIFTED_START)
    if lifts == 2:
        s = complete_lift(s)
        init = JetPoint(3, 2, LIFTED_START[:4] + [0.05, 0.1, -0.1, 0.2]
                        + LIFTED_START[4:] + [0.1, -0.2, 0.3, 0.1])
    scan = conjugate_search(s, init, 3.5, 1e-2)
    assert scan.exit_reason is None
    assert len(scan.times) == 1 and abs(scan.times[0] - np.pi) < 1e-6
    assert scan.multiplicities[0] >= 1


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_zero_carrier_fiber_multiplies_the_multiplicity_by_2_per_lift(n, level):
    # from a carrier whose fibers are zero, the lifted fiber matrix is block
    # diagonal with 2^level copies of the base one, so each base root counts
    # 2^level times
    x, v = _equator(n).coords[:n].tolist(), _equator(n).coords[n:].tolist()
    zeros = [0.0] * (((1 << level) - 1) * n)
    s = make_round_sphere(n)
    for _ in range(level):
        s = complete_lift(s)
    base = conjugate_search(make_round_sphere(n), _equator(n), 3.5, 2e-2)
    scan = conjugate_search(s, JetPoint(level + 1, n, x + zeros + v + zeros), 3.5, 2e-2)
    assert base.multiplicities == [n - 1]
    assert scan.times == base.times
    assert scan.multiplicities == [(1 << level) * (n - 1)]


def test_sphere_scan_makes_three_newton_evaluations_and_one_rank_evaluation(monkeypatch):
    # one minimum on [0, 3.5]: three pencil steps each take the fibers and
    # their rates from one state_at, and the rank test takes the fibers from
    # one position_at, which is a state_at too
    states, positions = [], []
    state_at, position_at = Trajectory.state_at, Trajectory.position_at
    monkeypatch.setattr(Trajectory, "state_at", lambda tr, t: states.append(t) or state_at(tr, t))
    monkeypatch.setattr(Trajectory, "position_at",
                        lambda tr, t: positions.append(t) or position_at(tr, t))
    eq = JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0]))
    scan = conjugate_search(make_sphere(), eq, 3.5, 1e-2)
    assert len(scan.times) == 1
    assert len(states) == 4 and positions == [scan.times[0]]


def _fast_circle(n, speed):
    start = _equator(n).coords.copy()
    start[-1] = speed
    return JetPoint(1, n, start)


@pytest.mark.parametrize("speed", [10.0, 30.0])
@pytest.mark.parametrize("n", [2, 3])
def test_fast_great_circle_has_its_conjugate_time(n, speed):
    # the rank test needs the time to within about 1e-7 at speed 30; an
    # absolute refinement bracket of 1e-6 once lost this root
    s = make_sphere() if n == 2 else make_round_sphere(n)
    for t_max in (3.5 / speed, -3.5 / speed):
        scan = conjugate_search(s, _fast_circle(n, speed), t_max, 1e-3)
        assert len(scan.times) == 1
        assert abs(scan.times[0] - math.copysign(np.pi / speed, t_max)) < 1e-6
        assert scan.multiplicities == [n - 1]


ORDER_CASES = {
    **{f"S^{n}": (make_sphere() if n == 2 else make_round_sphere(n), _equator(n), 1.0)
       for n in (2, 3, 4, 5)},
    "speed 10": (make_sphere(), _fast_circle(2, 10.0), 10.0),
    "speed 30": (make_sphere(), _fast_circle(2, 30.0), 30.0),
    "lifted sphere": (complete_lift(make_sphere()), JetPoint(2, 2, LIFTED_START), 1.0),
}


@pytest.mark.parametrize("case", list(ORDER_CASES))
def test_conjugate_time_converges_with_the_integrator(case):
    # the pencil steps converge to the root of the discrete run, so the
    # time's error is RK4's: order 4, a factor of 16 per halving of h.  A
    # backward scan mirrors the forward one
    s, init, speed = ORDER_CASES[case]
    errors = []
    for h in (2e-2, 1e-2, 5e-3):
        forward, backward = (conjugate_search(s, init, t_max, h)
                             for t_max in (3.5 / speed, -3.5 / speed))
        assert len(forward.times) == 1
        assert backward.times == [-forward.times[0]]
        assert backward.multiplicities == forward.multiplicities
        errors.append(abs(forward.times[0] - np.pi / speed))
    assert errors[0] > 10.0 * errors[1] > 100.0 * errors[2] > 0.0


@pytest.mark.parametrize("h", [1e-2, 1e-3])
def test_projective_sphere_conjugate_times_are_not_mirrored(h):
    # G + 0.1 |y| y keeps the equator as a trace and moves it at speed
    # 1 / (1 + 0.2 t), so arc length is 5 log(1 + 0.2 t) and the conjugate
    # points at arc length +pi and -pi come at 5 (exp(+-pi / 5) - 1):
    # 4.37228044 forward, -2.33255954 backward.  Backward, the speed blows
    # up at t = -5, where the conjugate points at arc length -k pi accumulate
    s = projective(make_sphere(), 0.1)
    forward = conjugate_search(s, _equator(2), 8.0, h)
    assert len(forward.times) == 1
    assert abs(forward.times[0] - 5.0 * math.expm1(math.pi / 5.0)) <= 1e-9
    assert forward.multiplicities == [1] and forward.exit_reason is None
    backward = conjugate_search(s, _equator(2), -8.0, h)
    assert abs(backward.times[0] - 5.0 * math.expm1(-math.pi / 5.0)) <= 1e-9
    assert abs(backward.times[0] + forward.times[0]) > 1.0
    assert backward.exit_reason == "domain"
    end = backward.sample_times[-1]
    assert abs(end + 5.0) <= 2.0 * h
    steps = np.diff([0.0, *backward.times, end])
    assert np.all(steps < 0.0)
    assert np.all(np.diff(steps[:-1]) > 0.0)


def test_multiplicity_counts_singular_values_below_1e_6_of_the_largest(monkeypatch):
    # a fan whose field k has fiber d_k(t) e_k, d = (t - 1.125, 1, 3e-6, 3e-7):
    # dense output is exact on it, so the first pencil step from the node
    # minimum at t = 1 lands on 1.125 exactly, where the fiber matrix is
    # singular and the next steps are 0.  There the singular values relative
    # to the largest are 3e-6, 3e-7 and 0
    s, t = make_flat(4), np.arange(9) * 0.25
    d = np.stack([t - 1.125] + [np.full_like(t, c) for c in (1.0, 3e-6, 3e-7)], axis=1)
    fibers = np.einsum("nk,kl->nkl", d, np.eye(4)).reshape(len(t), 16)
    rates = np.zeros_like(fibers)
    rates[:, 0] = 1.0
    fan = Trajectory(spray=complete_lift(s), times=t,
                     positions=np.hstack([np.zeros((len(t), 4)), fibers]),
                     velocities=np.hstack([np.zeros((len(t), 4)), rates]),
                     accelerations=np.zeros((len(t), 20)), h=0.25)
    monkeypatch.setattr(jacobi, "_fan_run", lambda *args: fan)
    scan = conjugate_search(s, JetPoint(1, 4, [0.0] * 4 + [1.0, 0.0, 0.0, 0.0]), 2.0, 0.25)
    assert scan.times == [1.125]
    assert scan.multiplicities == [2]


def test_no_conjugate_points_on_flat():
    f = make_flat(2)
    scan = conjugate_search(f, JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.3])),
                            10.0, 1e-2)
    assert scan.times == []
    assert scan.multiplicities == []
    assert scan.exit_reason is None


GENERIC16 = np.array([1.1, 0.6, 0.2, -0.3, 0.4, 0.1, -0.2, 0.5,
                      0.3, 0.9, 0.7, -0.4, 0.2, 0.6, -0.1, 0.3])


def test_double_lift_decomposition_generic():
    # a run of S^cc carries the base geodesic and two Jacobi fields along it:
    # the inner field in the first half, the outer one in the dproject columns
    s = make_sphere()
    lifted = complete_lift(s)
    tr = integrate(complete_lift(lifted), JetPoint(3, 2, GENERIC16), (0.0, 0.5), 1e-3)
    q = 2
    carrier = tr.columns(np.arange(q), s)
    inner = tr.columns(np.arange(2 * q), lifted)
    outer = tr.columns(_dproject_idx(2, q), lifted)
    assert outer.positions.shape[1] == 4
    assert np.max(np.abs(outer.velocities[:, q:])) > 1e-12
    assert residual(s, carrier) < 1e-5
    assert residual(lifted, inner) < 1e-5
    assert residual(lifted, outer) < 1e-5


def test_double_lift_decomposition_zero_outer():
    # zeroing the second-field group makes the leftover pair a Jacobi field
    s = make_sphere()
    scc = complete_lift(complete_lift(s))
    z = GENERIC16.copy()
    z[4:6] = 0.0
    z[12:14] = 0.0
    tr = integrate(scc, JetPoint(3, 2, z), (0.0, 0.5), 1e-3)
    lifted, q = complete_lift(s), 2
    # the outer field's fiber stays exactly zero
    assert not np.any(tr.positions[:, 2 * q:3 * q]) and not np.any(tr.velocities[:, 2 * q:3 * q])
    got = residual(lifted, tr.columns(np.r_[0:q, 3 * q:4 * q], lifted))
    assert got < 1e-5
    # the carrier and mixed columns, assembled block by block, give the same residual
    mixed_tr = Trajectory(
        spray=lifted, times=tr.times,
        positions=np.hstack([tr.positions[:, :q], tr.positions[:, 3 * q:]]),
        velocities=np.hstack([tr.velocities[:, :q], tr.velocities[:, 3 * q:]]),
        accelerations=np.hstack([tr.accelerations[:, :q], tr.accelerations[:, 3 * q:]]),
        h=tr.h, exit_reason=tr.exit_reason)
    want = residual(lifted, mixed_tr)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_lifted_conjugate_witnesses(monkeypatch):
    s, jac = equator_field((1.0, 0.0))
    runs = []
    monkeypatch.setattr(jacobi, "integrate", lambda *args: runs.append(integrate(*args)) or runs[-1])
    rep = lift_conjugate_check(s, jac)
    assert rep.liouville_deviation < 1e-9
    assert rep.velocity_deviation < 1e-12
    assert max(rep.end_fiber_norms) < 1e-10
    assert min(rep.interior_sup) > 0.5
    # the velocity witness is the exact variation limit: its eps blocks,
    # (0, J), are those of the Dual RK4 run of S^c from
    # (x, v + eps J(0); v, a + eps J'(0)), bit for bit
    witness = runs[1]
    start = JetPoint(3, 2, np.concatenate([witness.positions[0], witness.velocities[0]]))
    zeros = np.zeros(2)
    assert start.coords.tobytes() == np.concatenate(
        [jac.base.positions[0], jac.base.velocities[0], zeros, jac.fiber_nodes()[0],
         jac.base.velocities[0], jac.base.accelerations[0], zeros,
         jac.fiber_rate_nodes()[0]]).tobytes()
    _, positions, _, _ = _dual_reference_integrate(complete_lift(s), start,
                                                   (jac.field.t0, jac.field.t_end), jac.field.h)
    assert positions.shape == witness.positions.shape
    assert np.max(np.abs(witness.positions[:, 4:] - positions[:, 4:])) == 0.0


def _fabricated_sine_field(s, h=math.pi / 300, amp=1.0):
    """``amp sin t * e1`` along the unit line through the origin, posing as a Jacobi field of ``s``."""
    t = np.arange(301) * h
    zero, one = np.zeros_like(t), np.ones_like(t)
    line = np.stack([t, zero], axis=1)
    base = Trajectory(spray=s, times=t, positions=line, velocities=np.stack([one, zero], axis=1),
                      accelerations=np.zeros((len(t), 2)), h=h)
    fib = lambda f: amp * np.stack([f(t), zero], axis=1)
    field = Trajectory(spray=complete_lift(s), times=t,
                       positions=np.hstack([base.positions, fib(np.sin)]),
                       velocities=np.hstack([base.velocities, fib(np.cos)]),
                       accelerations=np.hstack([base.accelerations, -fib(np.sin)]),
                       h=h)
    return JacobiField(field=field, base=base)


def test_lifted_witness_ends_are_those_of_the_reintegrated_runs():
    # on a flat chart sin t is no Jacobi field: each witness re-integrates to
    # the fiber t * e1, which ends at pi, not at zero like the candidate
    rep = lift_conjugate_check(make_flat(2), _fabricated_sine_field(make_flat(2)))
    assert rep.end_fiber_norms[0] == rep.end_fiber_norms[2] == 0.0
    assert rep.end_fiber_norms[1] == pytest.approx(math.pi, rel=1e-12)
    assert rep.end_fiber_norms[3] == pytest.approx(math.pi, rel=1e-12)
    assert rep.interior_sup == pytest.approx((math.pi, math.pi), rel=1e-12)


def test_lifted_witness_that_stops_short_raises():
    s = make_flat(2, domain=lambda x: float(x[0]) < 2.0)
    with pytest.raises(DomainError, match="witness run stopped"):
        lift_conjugate_check(s, _fabricated_sine_field(s))


def test_lifted_conjugate_rejects_nonvanishing_field():
    s, jac = equator_field((0.0, 1.0))
    with pytest.raises(DomainError):
        lift_conjugate_check(s, jac)


def test_lifted_conjugate_rejects_zero_field():
    s, jac = equator_field((0.0, 0.0))
    with pytest.raises(DomainError):
        lift_conjugate_check(s, jac)


def test_lifted_conjugate_zero_field_is_up_to_1e_8():
    f = make_flat(2)
    with pytest.raises(DomainError, match="identically zero"):
        lift_conjugate_check(f, _fabricated_sine_field(f, amp=3e-9))
    rep = lift_conjugate_check(f, _fabricated_sine_field(f, amp=3e-8))
    assert rep.interior_sup == pytest.approx((3e-8 * math.pi, 3e-8 * math.pi), rel=1e-9)


def test_lifted_conjugate_level_budget():
    s, jac = equator_field((1.0, 0.0), t_end=0.2, h=1e-2)
    with pytest.raises(InvalidLevelError):
        lift_conjugate_check(complete_lift(s), jac)


def test_derived_geodesics_first_lift():
    s, jac = equator_field((1.0, 0.0))
    out = new_from_old_suite(s, jac.field)
    assert out["derivative_projection"]["status"] == "skipped"
    done = {k: v for k, v in out.items() if v["status"] == "ok"}
    assert set(done) == {"affine_time", "fiber_combination", "involution",
                         "projection", "tangent_curve", "scaled_tangent_curve",
                         "liouville_composite"}
    for k, v in done.items():
        assert v["deviation"] < 1e-10, (k, v)


def test_derived_geodesics_flat_exact():
    f = make_flat(2)
    init = JetPoint(2, 2, np.array([0.0, 0.0, 0.1, 0.2, 1.0, 0.5, 0.3, -0.2]))
    j = integrate(complete_lift(f), init, (0.0, 1.0), 1e-2)
    out = new_from_old_suite(f, j)
    for k, v in out.items():
        if v["status"] == "ok":
            assert v["deviation"] < 1e-12, (k, v)


def test_derived_geodesics_second_lift_skips_upward():
    s = make_sphere()
    scc = complete_lift(complete_lift(s))
    z = GENERIC16.copy()
    z[4:6] = 0.0
    z[12:14] = 0.0
    tr = integrate(scc, JetPoint(3, 2, z), (0.0, 0.5), 1e-3)
    out = new_from_old_suite(s, tr)
    for name in ("tangent_curve", "scaled_tangent_curve", "liouville_composite"):
        assert out[name]["status"] == "skipped"
        assert "third lift" in out[name]["reason"]
    for name in ("affine_time", "fiber_combination", "involution",
                 "projection", "derivative_projection"):
        assert out[name]["status"] == "ok"
        assert out[name]["deviation"] < 1e-10


@pytest.mark.parametrize("lifts", [1, 2])
def test_derived_geodesics_of_a_backward_run(lifts):
    # a run backward in time gives a backward affine time change, not an
    # empty grid of sub-times
    s = make_sphere()
    if lifts == 1:
        init = JetPoint(2, 2, np.array([1.2, 0.4, 0.1, -0.2, 0.3, 1.0, 0.2, 0.1]))
        j = integrate(complete_lift(s), init, (0.0, -1.0), 1e-2)
    else:
        j = subspray.geodesic(s, [1.2, 0.4], [0.3, 1.0], 1.0, 0.5, (0.0, -1.0), 1e-2).traj
    assert j.complete and j.t_end == -1.0
    out = new_from_old_suite(s, j)
    done = {k: v for k, v in out.items() if v["status"] == "ok"}
    applicable = {1: {"affine_time", "fiber_combination", "involution", "projection",
                      "tangent_curve", "scaled_tangent_curve", "liouville_composite"},
                  2: {"affine_time", "fiber_combination", "involution", "projection",
                      "derivative_projection"}}
    assert set(done) == applicable[lifts]
    for k, v in done.items():
        assert v["deviation"] < 1e-8, (k, v)


def test_suite_rejects_base_trajectory():
    s = make_sphere()
    tr = integrate(s, JetPoint(1, 2, np.array([np.pi / 2, 0.0, 0.0, 1.0])),
                   (0.0, 0.5), 1e-2)
    with pytest.raises(InvalidLevelError):
        new_from_old_suite(s, tr)


# --- one fan run for fields over a shared carrier ---------------------------


def reference_conjugate_search(s, init, t_max, h, rank_rtol=1e-6):
    """The scan on m separate lifted runs, with the minimum scan and the pencil step written out."""
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

    def fibers_and_rates_at(t):
        states = [f.field.state_at(t) for f in fields]
        return (np.stack([x[m:] for x, _ in states], axis=1),
                np.stack([v[m:] for _, v in states], axis=1))

    # three steps of Ruhe's method from every minimum of |det|: M(t) u = -d M'(t) u
    # for the d of least modulus, that is -1 / Re mu for the eigenvalue mu of
    # M^-1 M' of largest modulus, and d = 0 where M(t) is singular; a minimum
    # whose iterate leaves its two steps is dropped, the rank test decides the rest
    roots, mults = [], []
    for i in range(1, nodes):
        last = i == nodes - 1
        if not (abs(dets[i]) < abs(dets[i - 1]) and (last or abs(dets[i]) <= abs(dets[i + 1]))):
            continue
        lo, hi = sorted((times[i - 1], times[i if last else i + 1]))
        t = float(times[i])
        for _ in range(3):
            fib, rate = fibers_and_rates_at(t)
            try:
                mu = np.linalg.eigvals(np.linalg.solve(fib, rate))
                t += float(-1.0 / mu[np.argmax(np.abs(mu))].real)
            except np.linalg.LinAlgError:
                pass
            if not lo <= t <= hi:
                break
        else:
            sv = np.linalg.svd(fibers_and_rates_at(t)[0], compute_uv=False)
            deficiency = int(np.sum(sv < rank_rtol * sv[0])) if sv[0] > 0 else m
            if deficiency:
                roots.append(t)
                mults.append(deficiency)
    return roots, mults, times.copy(), dets.copy(), exit_reason


def assert_scan_is_reference(monkeypatch, s, init, t_max, h):
    """The scan equals the reference, and no field runs alone."""
    runs = []
    for name in ("jacobi_from_initial", "integrate"):
        run = getattr(jacobi, name)
        monkeypatch.setattr(jacobi, name, lambda *args, run=run: runs.append(args) or run(*args))
    scan = conjugate_search(s, init, t_max, h)
    monkeypatch.undo()
    assert runs == []
    times, mults, sample_times, sample_dets, exit_reason = reference_conjugate_search(
        s, init, t_max, h)
    assert np.array(scan.times).tobytes() == np.array(times).tobytes()
    assert scan.multiplicities == mults
    assert scan.sample_times.tobytes() == sample_times.tobytes()
    assert scan.sample_dets.tobytes() == sample_dets.tobytes()
    assert scan.exit_reason == exit_reason
    return scan


def _runner_scan_inputs():
    # the conjugate-scan scenarios of sprayjets-run, at its default t_max and h
    return [(make_sphere(), JetPoint(1, 2, [np.pi / 2, 0.0, 0.0, 1.0])),
            (make_flat(2), JetPoint(1, 2, [0.0, 0.0, 1.0, 0.0])),
            (make_finsler_example((0.0, 1.0)), JetPoint(1, 2, [0.0, 0.0, 3.0, 4.0]))]


SPHERE = make_sphere()


def _switching_sphere(pos, vel):
    # the sphere's coefficients behind a branch on the primal colatitude, which refuses tracing
    sign = 1.0 if jet_re(pos[0]) > 0.0 else -1.0
    return [sign * g for g in SPHERE.coeff_fn(pos, vel)]


SWITCHING_SPHERE = Spray(level=0, dim=2, coeff_fn=_switching_sphere, tag="switching-sphere",
                         domain=SPHERE.domain)


@pytest.mark.parametrize("case", ["criterion 7 sphere", "criterion 7 flat",
                                  "runner sphere", "runner flat", "runner finsler",
                                  "level-1 spray", "refused trace"])
def test_fan_scan_is_the_per_field_scan(monkeypatch, case):
    if case == "criterion 7 sphere":
        s, init, t_max, h = make_sphere(), JetPoint(1, 2, [np.pi / 2, 0.0, 0.0, 1.0]), 3.5, 1e-3
    elif case == "criterion 7 flat":
        s, init, t_max, h = make_flat(2), JetPoint(1, 2, [0.0, 0.0, 1.0, 0.3]), 10.0, 1e-3
    elif case.startswith("runner"):
        index = ("runner sphere", "runner flat", "runner finsler").index(case)
        (s, init), t_max, h = _runner_scan_inputs()[index], 4.0, 1e-3
    elif case == "level-1 spray":
        # a level-1 spray: four fields, each a geodesic of the level-2 lift
        s, t_max, h = complete_lift(make_sphere()), 3.5, 1e-2
        init = JetPoint(2, 2, [np.pi / 2, 0.0, 0.1, -0.2, 0.0, 1.0, 0.3, 0.2])
    else:
        # the lift has no fan program, so its kernel evaluates each field
        s, init, t_max, h = SWITCHING_SPHERE, JetPoint(1, 2, [np.pi / 2, 0.0, 0.0, 1.0]), 3.5, 1e-2
        assert complete_lift(s).fan(2) is None
    scan = assert_scan_is_reference(monkeypatch, s, init, t_max, h)
    assert scan.exit_reason is None
    if case in ("criterion 7 sphere", "runner sphere", "refused trace"):
        assert len(scan.times) >= 1


def test_fan_fields_are_their_own_runs():
    s = make_sphere()
    lifted = complete_lift(s)
    rng = np.random.default_rng(5)
    ph = sphere_phase(rng)
    x0, v0 = ph.coords[:2].tolist(), ph.coords[2:].tolist()
    tangents = [(rng.standard_normal(2).tolist(), rng.standard_normal(2).tolist())
                for _ in range(3)]
    starts = [JetPoint(2, 2, x0 + xi + v0 + eta) for xi, eta in tangents]
    fan = _fan_run(s, starts, (0.0, 2.0), 1e-2)
    base = integrate(s, ph, (0.0, 2.0), 1e-2)
    for field in ("positions", "velocities", "accelerations"):
        assert getattr(fan, field)[:, :2].tobytes() == getattr(base, field).tobytes()
    for k, (xi, eta) in enumerate(tangents):
        own = jacobi_from_initial(s, JetPoint(2, 2, x0 + xi + v0 + eta), (0.0, 2.0), 1e-2).field
        field_k = fan.columns(np.r_[:2, 2 + 2 * k:4 + 2 * k], lifted)
        assert field_k.times.tobytes() == own.times.tobytes()
        for field in ("positions", "velocities", "accelerations"):
            assert getattr(field_k, field).tobytes() == getattr(own, field).tobytes()


@pytest.mark.parametrize("case", ["sphere", "round S^3 backward", "level-1 spray"])
def test_scan_fan_columns_are_the_dual_rk4_run(monkeypatch, case):
    # each fan column pair is the RK4 run of the spray on Dual coordinates,
    # so the fiber rates the pencil reads are the exact derivative of the
    # discrete run
    if case == "sphere":
        s, init, t_max, h = make_sphere(), _equator(2), 3.5, 1e-2
    elif case == "round S^3 backward":
        s, init, t_max, h = make_round_sphere(3), _equator(3), -3.5, 5e-2
    else:
        s, init, t_max, h = complete_lift(make_sphere()), JetPoint(2, 2, LIFTED_START), 1.0, 5e-2
    runs = []
    monkeypatch.setattr(jacobi, "_fan_run",
                        lambda *args: runs.append((args, _fan_run(*args))) or runs[-1][1])
    conjugate_search(s, init, t_max, h)
    (_, starts, t_span, _), fan = runs[0]
    m = s.fiber_dim
    for k, start in enumerate(starts):
        cols = np.r_[:m, m * (k + 1):m * (k + 2)]
        times, *nodes = _dual_reference_integrate(s, start, t_span, h)
        assert np.max(np.abs(fan.times - times)) == 0.0
        for name, want in zip(("positions", "velocities", "accelerations"), nodes):
            assert np.max(np.abs(getattr(fan, name)[:, cols] - want)) == 0.0, (k, name)


def test_fan_stage_on_the_pole_falls_back_to_the_same_domain_exit(monkeypatch):
    # the 4th stage of step 2 lands on colatitude 0.0, where the kernel divides by zero
    s = make_sphere()
    init = JetPoint(1, 2, [0.5, 0.0, -1.0, 0.0])
    scan = assert_scan_is_reference(monkeypatch, s, init, 2.0, 0.25)
    assert scan.exit_reason == "domain"
    assert scan.sample_times.tolist() == [0.0, 0.25]


def _sqrt_log(pos, vel):
    # zero coefficients, so the base moves on straight lines; at pos = (0, 0)
    # the lift's tangent of sqrt divides by zero before its primal log fails
    return [0.0 * jsqrt(pos[0]), 0.0 * jlog(pos[1])]


def test_fan_failure_inside_the_domain_raises_the_per_field_error():
    s = Spray(level=0, dim=2, coeff_fn=_sqrt_log, tag="sqrt-log")
    init = JetPoint(1, 2, [1.0, 1.0, -1.0, -1.0])
    # the fan runs the kernel's statements in the kernel's order, so it meets
    # the tangent's division before the carrier's log, as each separate run does
    lifted = complete_lift(s)
    with pytest.raises(ZeroDivisionError):
        lifted.kernel([0.0, 0.0, 0.0, 0.0], [-1.0, -1.0, 1.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        lifted.fan(2)([0.0] * 6, [-1.0, -1.0, 1.0, 0.0, 0.0, 1.0])
    with pytest.raises(IntegrationBlowupError) as want:
        reference_conjugate_search(s, init, 2.0, 0.5)
    with pytest.raises(IntegrationBlowupError) as got:
        conjugate_search(s, init, 2.0, 0.5)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert "ZeroDivisionError" in str(got.value)


SQRT_LOG = Spray(level=0, dim=2, coeff_fn=_sqrt_log, tag="sqrt-log")


@st.composite
def shared_carrier_starts(draw):
    """Starts of one carrier that heads for trouble: a sphere's pole, or sqrt-log's 0."""
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        s, t_span, h = SPHERE, (0.0, 3.0), draw(st.sampled_from([0.05, 0.1, 0.25, 0.5]))
        x = [draw(st.floats(0.02, 0.8)), draw(st.floats(-1.0, 1.0))]
        v = [draw(st.floats(-2.0, -0.2)), draw(st.floats(-1.0, 1.0))]
    else:
        # the straight path from x along v crosses 0 before t = 2
        s, t_span, h = SQRT_LOG, (0.0, 2.5), draw(st.sampled_from([0.1, 0.25, 0.5]))
        x = [draw(st.floats(0.1, 1.0)) for _ in range(2)]
        v = [draw(st.floats(-2.0, -0.5)) for _ in range(2)]
    tangent = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)
    starts = [JetPoint(2, 2, x + draw(tangent) + v + draw(tangent)) for _ in range(m)]
    return s, starts, t_span, h


def _outcome(run):
    try:
        return run(), None
    except (IntegrationBlowupError, DomainError) as exc:
        return None, exc


@given(shared_carrier_starts())
@settings(max_examples=300)
def test_fan_run_is_the_separate_runs(case):
    s, starts, t_span, h = case
    lifted = complete_lift(s)
    want, want_exc = _outcome(lambda: [integrate(lifted, p, t_span, h) for p in starts])
    got, got_exc = _outcome(lambda: _fan_run(s, starts, t_span, h))
    if want_exc is not None or got_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return
    shortest = min(want, key=lambda tr: len(tr.times))
    nodes = len(shortest.times)
    assert got.times.tobytes() == shortest.times.tobytes()
    assert got.exit_reason == shortest.exit_reason
    for k, own in enumerate(want):
        field_k = got.columns(np.r_[:2, 2 + 2 * k:4 + 2 * k], lifted)
        for field in ("positions", "velocities", "accelerations"):
            assert getattr(field_k, field).tobytes() == getattr(own, field)[:nodes].tobytes()


@pytest.mark.parametrize("coords, t_max, h", [
    ([1.0, 0.0, 0.1, 0.2, 0.0, 1.0, 0.3, 0.1], 3.0, 1e-2),  # a start of the wrong length
    ([1.0, 0.0, 0.0, 1.0], 3.0, -1.0),
    ([1.0, 0.0, 0.0, 1.0], 3.0, 0.0),
    ([1.0, 0.0, 0.0, 1.0], math.nan, 0.1),
    ([1.0, 0.0, 0.0, 0.0], 3.0, 0.1),  # slashed
    ([0.0, 0.0, 0.0, 1.0], 3.0, 0.1),  # on the pole
])
def test_rejected_scan_raises_the_per_field_error(coords, t_max, h):
    s = make_sphere()
    init = JetPoint({4: 1, 8: 2}[len(coords)], 2, coords)
    with pytest.raises((InvalidLevelError, DomainError)) as want:
        reference_conjugate_search(s, init, t_max, h)
    with pytest.raises(type(want.value)) as got:
        conjugate_search(s, init, t_max, h)
    assert str(got.value) == str(want.value)


def test_fan_scan_on_round_three_sphere(monkeypatch):
    # three fields in three dimensions along a great circle
    s = make_round_sphere(3)
    init = JetPoint(1, 3, [np.pi / 2, np.pi / 2, 0.0, 0.0, 0.0, 1.0])
    scan = assert_scan_is_reference(monkeypatch, s, init, 3.5, 1e-2)
    assert scan.exit_reason is None
    assert scan.sample_dets.shape == (351,)
    assert scan.multiplicities == [2]


def test_lifted_conjugate_check_runs_only_the_two_witnesses(monkeypatch):
    # criterion 7's sine field: two level-2 runs, and no fan or finite difference
    s = make_sphere()
    sine = jacobi_from_initial(s, JetPoint(2, 2, [np.pi / 2, 0, 0, 0, 0, 1, 1, 0.0]),
                               (0.0, np.pi), 1e-3)
    runs, others = [], []
    monkeypatch.setattr(jacobi, "integrate", lambda sp, *args: runs.append(sp.level) or integrate(sp, *args))
    _log_calls(monkeypatch, jacobi, "_fan_run", others)
    _log_calls(monkeypatch, jacobi, "_integrate", others)
    _log_calls(monkeypatch, jacobi, "_central_difference", others)
    lift_conjugate_check(s, sine, end_tol=1e-5)
    assert runs == [2, 2]
    assert others == []


# --- the one finite-difference stencil --------------------------------------


def _log_calls(monkeypatch, module, name, runs):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: runs.append(args) or real(*args, **kw))


def _fd_entry(name, monkeypatch):
    """``(call, runs, centres)`` for one finite-difference entry point.

    ``call(step)`` runs it at that step; ``runs`` logs the runs it starts,
    of which at most ``centres`` are unperturbed centre runs.
    """
    s, runs = make_sphere(), []
    if name == "variation_oracle":
        gamma = integrate(s, JetPoint(1, 2, [np.pi / 2, 0.0, 0.0, 1.0]), (0.0, 1.0), 1e-2)
        _log_calls(monkeypatch, jacobi, "integrate", runs)
        return lambda e: variation_oracle(s, gamma, np.ones(4), eps=e), runs, 0
    p = JetPoint(2, 2, [np.pi / 2, 0.0, 0.1, 0.2, 0.0, 1.0, 0.3, 0.0])
    _log_calls(monkeypatch, jacobi, "integrate", runs)
    return lambda e: flow_tangent_fd(s, p, 0.5, 1e-2, eps_fd=e), runs, 1


@pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["variation_oracle", "flow_tangent_fd"])
def test_fd_entry_points_reject_a_degenerate_step(entry, step, monkeypatch):
    # unguarded, these steps gave NaN fields or a blowup of the perturbed runs
    call, runs, centres = _fd_entry(entry, monkeypatch)
    with pytest.raises(DomainError, match="finite-difference step"):
        call(step)
    assert len(runs) <= centres
    call(1e-4)  # the log does see the perturbed runs of a valid step
    assert len(runs) > 2 * centres


def three_flow_tangent_fd(s, p, t, h, eps_fd=1e-5):
    """Reference: the conjugated tangent flow from three plain flows and one chord."""
    q = kappa(p)
    half = q.coords.size // 2
    base, direction = q.coords[:half], q.coords[half:]
    center = flow(s, JetPoint(p.level - 1, p.dim, base), t, h)
    plus = flow(s, JetPoint(p.level - 1, p.dim, base + eps_fd * direction), t, h)
    minus = flow(s, JetPoint(p.level - 1, p.dim, base - eps_fd * direction), t, h)
    diff = (plus.coords - minus.coords) / (2.0 * eps_fd)
    return kappa(JetPoint(p.level, p.dim, np.concatenate([center.coords, diff])))


@pytest.mark.parametrize("name", ["sphere", "finsler", "flat", "sphere-L1"])
def test_flow_tangent_fd_is_the_three_flow_stencil(name):
    # the variation oracle's end jet, bit for bit, or the same exception type; on
    # the unit disk, and for the Finsler spray backward, some runs raise
    s = {"sphere": make_sphere(), "finsler": make_finsler_example((0.0, 1.0)),
         "flat": make_flat(2, domain=lambda x: float(np.dot(x, x)) < 1.0),
         "sphere-L1": complete_lift(make_sphere())}[name]

    def outcome(fn, p, t):
        try:
            return fn(s, p, t, 1e-2).coords.tobytes()
        except (DomainError, IntegrationBlowupError) as exc:
            return type(exc)

    outcomes = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        coords = random_slashed_jet(rng, s.level + 2, s.dim).coords.copy()
        if name.startswith("sphere"):
            coords[0] = rng.uniform(1.0, 1.3)  # colatitude clear of the poles
        p = JetPoint(s.level + 2, s.dim, coords)
        for t in (0.5, -0.7):
            outcomes.append(outcome(flow_tangent_fd, p, t))
            assert outcomes[-1] == outcome(three_flow_tangent_fd, p, t)
    assert any(isinstance(o, bytes) for o in outcomes)


def test_tangent_flow_end_leaving_the_chart_raises():
    # kappa(p) = (centre (0, 0) moving along x1, direction (1, 0) in position):
    # the centre stays in x1 < 1 up to t = 0.9, the end started 0.2 ahead leaves
    s = make_flat(2, domain=lambda x: float(x[0]) < 1.0)
    p = JetPoint(2, 2, [0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    q = kappa(p).coords
    gamma = integrate(s, JetPoint(1, 2, q[:4]), (0.0, 0.9), 1e-2)
    assert gamma.complete
    assert variation_oracle(s, gamma, q[4:], eps=0.2).field.exit_reason == "truncated"
    with pytest.raises(DomainError):
        flow_tangent_fd(s, p, 0.9, 1e-2, eps_fd=0.2)
