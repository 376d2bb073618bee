"""Parallel-curve slice: membership, propagation, uniqueness, dimensions."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sprayjets import (EPS_SLASHED, DomainError, InconsistentTrajectoryError,
                       IntegrationBlowupError, InvalidLevelError, JetPoint, Spray,
                       acceleration_jet, complete_lift, integrate, make_finsler_example,
                       make_flat, make_sphere, pushforward, pushforward_spray, shear_chart)
from sprayjets import subspray as sub
from sprayjets.geodesic import Trajectory
from sprayjets.jets import Dual, jet_du, jet_re
from sprayjets.subspray import CONSTRAINTS, MembershipRejection, MembershipResult
from test_geodesic import _dual_reference_integrate
from test_spray import projective

SPHERE_X0, SPHERE_V0 = [1.2, 0.4], [0.3, 1.0]

# spray, base point, base velocity
CURVES = {
    "sphere": (make_sphere(), SPHERE_X0, SPHERE_V0),
    "flat": (make_flat(2), [0.0, 0.0], [1.0, 0.0]),
    "finsler": (make_finsler_example((0.3, -0.2)), [0.1, 0.2], [0.9, -0.4]),
    "pushed": (pushforward_spray(shear_chart(), make_sphere()), [1.6, 0.3], [0.3, 1.0]),
}


def _reference_membership(s, xi, tol):
    """Membership of one jet as it was checked before the whole-array pass."""
    xi = np.asarray(xi, dtype=float)
    m = s.fiber_dim
    b = [xi[k * m : (k + 1) * m] for k in range(8)]
    checks = {}
    speed = float(np.linalg.norm(b[1]))
    checks["slashed"] = speed
    if speed <= EPS_SLASHED:
        return MembershipRejection("slashed", speed, checks)

    def fail_if(name, value):
        checks[name] = value
        return MembershipRejection(name, value, checks) if value > tol else None

    r = fail_if("base-velocity", float(np.linalg.norm(b[4] - b[1])))
    if r:
        return r
    a = np.asarray(s.acceleration(b[0].tolist(), b[1].tolist()), dtype=float)
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
    jolt = np.array(acceleration_jet(s, b[0].tolist(), b[1].tolist())[1])
    r = fail_if("fiber-acceleration", float(np.linalg.norm(b[7] - alpha * jolt - 2.0 * beta * a)))
    if r:
        return r
    return MembershipResult(alpha, beta, max(checks[name] for name in CONSTRAINTS[1:]), checks)


def _reference_node_checks(s, tr):
    """The per-node loop: membership_max, recovered alpha and beta of a lifted run."""
    n = len(tr.times)
    residues, rec_a, rec_b = np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        res = _reference_membership(s, np.concatenate([tr.positions[k], tr.velocities[k]]), np.inf)
        residues[k], rec_a[k], rec_b[k] = res.residual, res.alpha, res.beta
    return float(np.max(residues)), rec_a, rec_b


def test_flat_delta_coordinates_frozen():
    f = make_flat(2)
    # zero acceleration: transport blocks reduce to multiples of v0
    want = np.array([0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0,
                     1.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(sub.delta_coordinates(f, [0, 0], [1, 0], 2.0, 3.0),
                               want, atol=0.0)


def test_membership_accepts_generated_jet():
    s = make_sphere()
    xi = sub.delta_coordinates(s, SPHERE_X0, SPHERE_V0, 1.7, -0.4)
    res = sub.membership(s, xi)
    assert isinstance(res, MembershipResult)
    assert abs(res.alpha - 1.7) < 1e-12
    assert abs(res.beta + 0.4) < 1e-12
    assert res.residual < 1e-12
    assert set(res.constraints) == set(CONSTRAINTS)


def test_membership_flat_exact():
    f = make_flat(2)
    xi = sub.delta_coordinates(f, [0, 1], [2, 0], 1.0, 3.0)
    res = sub.membership(f, xi)
    assert res.alpha == 1.0 and res.beta == 3.0 and res.residual == 0.0


def _broken_jet(name):
    """A sphere slice jet with one block moved so that ``name`` fails first."""
    xi = sub.delta_coordinates(make_sphere(), SPHERE_X0, SPHERE_V0, 1.0, 0.5)
    m = 2
    b = lambda k: slice(k * m, (k + 1) * m)
    v0 = xi[b(1)].copy()
    perp = np.array([-v0[1], v0[0]]) / np.linalg.norm(v0)
    if name == "slashed":
        xi[b(1)] = 0.0
    elif name == "base-velocity":
        xi[b(4)] += 0.3
    elif name == "base-acceleration":
        xi[b(5)] += 0.3
    elif name == "alpha-fit":
        xi[b(2)] += 0.3 * perp
    elif name == "beta-fit":
        xi[b(3)] += 0.3 * perp
    elif name == "fiber-velocity":
        xi[b(6)] += 0.3
    elif name == "fiber-acceleration":
        xi[b(7)] += 0.3
    return xi


@pytest.mark.parametrize("name", CONSTRAINTS)
def test_membership_rejects_each_constraint(name):
    res = sub.membership(make_sphere(), _broken_jet(name))
    assert isinstance(res, MembershipRejection)
    assert res.constraint == name
    assert res.residual > 0.1 or name == "slashed"


def _count_accelerations(monkeypatch):
    """Log the spray level once for every row that ``Spray.accelerations`` evaluates.

    The node checks evaluate their stacks there, whether the stack runs the
    kernel's twin or its rows one by one.
    """
    levels = []
    orig = Spray.accelerations

    def counted(self, x, v):
        levels.extend([self.level] * len(x))
        return orig(self, x, v)

    monkeypatch.setattr(Spray, "accelerations", counted)
    return levels


@pytest.mark.parametrize("name", CONSTRAINTS)
def test_membership_evaluates_no_coefficient_past_the_first_failure(monkeypatch, name):
    s, xi = make_sphere(), _broken_jet(name)
    levels = _count_accelerations(monkeypatch)
    assert sub.membership(s, xi).constraint == name
    k = CONSTRAINTS.index(name)
    # the base acceleration is needed from "base-acceleration" on, the jolt
    # only by "fiber-acceleration"
    assert levels.count(0) == (k >= CONSTRAINTS.index("base-acceleration"))
    assert levels.count(1) == (name == "fiber-acceleration")


def test_stack_skips_the_coefficients_of_rejected_rows(monkeypatch):
    s = make_sphere()
    stack = np.stack([_broken_jet(name) for name in
                      ("fiber-acceleration", "slashed", "base-velocity", "fiber-velocity")])
    levels = _count_accelerations(monkeypatch)
    # one slashed row stops the whole stack before any coefficient
    checks = sub._check_jets(s, stack, 1e-8)
    assert checks.failed == CONSTRAINTS.index("slashed")
    assert checks.rejected.tolist() == [False, True, False, False]
    assert levels == []
    # a stack stopped by "fiber-velocity" takes one base acceleration a row, no jolt
    checks = sub._check_jets(s, stack[[0, 3]], 1e-8)
    assert checks.failed == CONSTRAINTS.index("fiber-velocity")
    assert checks.rejected.tolist() == [False, True]
    assert levels == [0, 0]


def _row_bytes(checks, r, k):
    """Row ``r`` of a stack's checks as bytes, cut where a stop at constraint ``k`` cuts them."""
    values, alpha, beta = checks.values[r].copy(), checks.alpha[r], checks.beta[r]
    if k >= 0:
        values[k + 1:] = np.nan
        alpha = alpha if k >= CONSTRAINTS.index("alpha-fit") else np.nan
        beta = beta if k >= CONSTRAINTS.index("beta-fit") else np.nan
    return values.tobytes(), np.float64(alpha).tobytes(), np.float64(beta).tobytes()


@pytest.mark.parametrize("tol", [1e-8, np.inf])
@pytest.mark.parametrize("first", [*CONSTRAINTS, None])
def test_stack_of_broken_rows_is_each_row_checked_alone(first, tol):
    # rows broken at "first" and at every later constraint, between slice
    # jets: the stack stops at "first" (tol 1e-8), or at "slashed" or not
    # at all (tol inf), and each row's figures up to there are its own
    s = make_sphere()
    k = -1 if first is None else CONSTRAINTS.index(first)
    good = [sub.delta_coordinates(s, SPHERE_X0, SPHERE_V0, al, be)
            for al, be in ((1.0, 0.5), (-0.3, 2.0))]
    stack = np.stack([good[0], *(_broken_jet(name) for name in CONSTRAINTS[k:] if k >= 0), good[1]])
    checks = sub._check_jets(s, stack, tol)
    alone = [sub._check_jets(s, xi[None], tol) for xi in stack]
    stop = min((c.failed for c in alone if c.failed >= 0), default=-1)
    assert checks.failed == stop == (k if tol == 1e-8 or k <= 0 else -1)
    assert checks.rejected.tolist() == [c.failed == stop >= 0 for c in alone]
    n = stop + 1 if stop >= 0 else len(CONSTRAINTS)
    for r, (c, xi) in enumerate(zip(alone, stack)):
        assert _row_bytes(checks, r, stop) == _row_bytes(c, 0, stop)
        # and membership's figures, which run the same check on the row alone
        reached = list(sub.membership(s, xi, tol=tol).constraints.values())
        assert checks.values[r, :n].tolist() == reached[:n]


def test_slashed_finsler_jet_is_rejected_without_evaluation():
    # at zero speed the lifted Finsler coefficients divide by |y| = 0
    s = make_finsler_example((0.3, -0.2))
    xi = sub.delta_coordinates(s, [0.1, 0.2], [0.9, -0.4], 1.0, 0.5)
    xi[2:4] = 0.0
    xi[8:10] = 0.0
    res = sub.membership(s, xi)
    assert isinstance(res, MembershipRejection)
    assert res.constraint == "slashed" and res.residual == 0.0


def test_membership_rejects_double_speed_jet():
    # same curve traversed at double speed: the velocity half no longer
    # differentiates the position half
    s = make_sphere()
    xi = sub.delta_coordinates(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5)
    xi[8:] *= 2.0
    res = sub.membership(s, xi)
    assert isinstance(res, MembershipRejection)
    assert res.constraint == "base-velocity"
    assert res.residual > 0.1


def test_membership_domain_errors():
    s = make_sphere()
    xi = sub.delta_coordinates(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5)
    bad = xi.copy()
    bad[3] = np.nan
    with pytest.raises(DomainError):
        sub.membership(s, bad)
    with pytest.raises(DomainError):
        sub.membership(s, xi[:-1])


@pytest.mark.parametrize("spray", [make_sphere, lambda: make_flat(2),
                                   lambda: make_finsler_example((0.3, 1.0))],
                         ids=["sphere", "flat", "finsler"])
def test_pushed_jet_is_in_the_pushed_slice(spray):
    # P is natural: a chart change maps P onto the P of the pushed spray,
    # with alpha and beta unchanged
    s, t = spray(), shear_chart()
    pushed = pushforward_spray(t, s)
    unit = st.floats(-1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.5, 2.6), unit, unit, unit, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def check(x1, x2, v1, v2, alpha, beta):
        assume(math.hypot(v1, v2) > 0.1)
        xi = sub.delta_coordinates(s, [x1, x2], [v1, v2], alpha, beta)
        q = pushforward(t, JetPoint(3, 2, xi))
        res = sub.membership(pushed, q.coords)
        assert isinstance(res, MembershipResult)
        assert abs(res.alpha - alpha) <= 1e-12 and abs(res.beta - beta) <= 1e-12

    check()


def test_whole_array_check_reports_a_rejected_row():
    s = make_sphere()
    good = sub.delta_coordinates(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5)
    slashed = good.copy()
    slashed[2:4] = 0.0
    checks = sub._check_jets(s, np.stack([good, slashed, good]), np.inf)
    assert checks.failed == 0
    assert checks.rejected.tolist() == [False, True, False]
    speed = sub.membership(s, good, tol=np.inf).constraints["slashed"]
    assert checks.values[:, 0].tolist() == [speed, 0.0, speed]
    assert np.isnan(checks.values[:, 1:]).all()
    assert np.isnan(np.concatenate([checks.alpha, checks.beta, checks.residual])).all()
    # without the slashed row the stack passes, each row its own membership
    checks = sub._check_jets(s, np.stack([good, good]), np.inf)
    assert checks.failed == -1 and not checks.rejected.any()
    res = sub.membership(s, good, tol=np.inf)
    for k in (0, 1):
        assert checks.values[k].tolist() == list(res.constraints.values())
        assert (checks.alpha[k], checks.beta[k], checks.residual[k]) == (res.alpha, res.beta, res.residual)


def test_rejected_node_raises_with_constraint_and_time(monkeypatch):
    # a node whose base velocity block is slashed: reported, not read as a result
    s = make_sphere()

    def slash_node(*args):
        tr = integrate(*args)
        tr.positions[7, 2:4] = 0.0
        return tr

    monkeypatch.setattr(sub, "integrate", slash_node)
    with pytest.raises(InconsistentTrajectoryError, match=r"t=0\.07 fails the slashed"):
        sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 0.2), 1e-2, tol=np.inf)


@pytest.mark.parametrize("span", [(0.0, 0.6), (0.0, -0.6)], ids=["forward", "reversed"])
@pytest.mark.parametrize("name", list(CURVES))
def test_node_checks_are_bitwise_the_per_node_loop(name, span):
    s, x0, v0 = CURVES[name]
    sg = sub.geodesic(s, x0, v0, 1.0, 0.5, span, 1e-2)
    want = _reference_node_checks(s, sg.traj)
    got = (sg.membership_max, sg.recovered_alpha, sg.recovered_beta)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _outcome(res):
    """A membership result as (rejected constraint, constraint values, alpha, beta, residual)."""
    if isinstance(res, MembershipRejection):
        return repr((res.constraint, res.constraints, None, None, res.residual))
    return repr((None, res.constraints, res.alpha, res.beta, res.residual))


@pytest.mark.parametrize("name", list(CURVES))
def test_every_stack_row_is_its_membership(name):
    s, x0, v0 = CURVES[name]
    m = s.fiber_dim
    row = st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.integers(-1, 8 * m - 1),
                    st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.3]))

    @settings(max_examples=25)
    @given(st.lists(row, min_size=1, max_size=6), st.sampled_from([np.inf, 1e-8]))
    def check(rows, tol):
        stack = []
        for alpha, beta, coord, eps in rows:
            xi = sub.delta_coordinates(s, x0, v0, alpha, beta)
            if coord < 0:
                xi[m : 2 * m] = 0.0
            else:
                xi[coord] += eps
            stack.append(xi)
        checks = sub._check_jets(s, np.stack(stack), tol)
        alone = [sub.membership(s, xi, tol=tol) for xi in stack]
        for res, xi in zip(alone, stack):
            assert _outcome(res) == _outcome(_reference_membership(s, xi, tol))
        stops = [CONSTRAINTS.index(res.constraint) for res in alone
                 if isinstance(res, MembershipRejection)]
        if not stops:
            assert checks.failed == -1 and not checks.rejected.any()
            for k, res in enumerate(alone):
                row = MembershipResult(float(checks.alpha[k]), float(checks.beta[k]),
                                       float(checks.residual[k]),
                                       dict(zip(CONSTRAINTS, checks.values[k].tolist())))
                assert _outcome(row) == _outcome(res)
            return
        c = min(stops)
        assert checks.failed == c
        assert checks.rejected.tolist() == [isinstance(res, MembershipRejection)
                                            and res.constraint == CONSTRAINTS[c] for res in alone]
        assert np.isnan(checks.values[:, c + 1 :]).all()
        for k, res in enumerate(alone):
            assert checks.values[k, : c + 1].tolist() == list(res.constraints.values())[: c + 1]

    check()


def test_flat_parallel_curve_closed_form():
    f = make_flat(2)
    sg = sub.geodesic(f, [0.0, 0.0], [1.0, 0.0], 1.0, 1.0, (0.0, 2.0), 1e-2)
    assert sg.reintegration_deviation < 1e-12
    assert sg.membership_max < 1e-12
    # positions blocks along the line x(t) = (t, 0): field is (1 + t) x'
    t = sg.traj.times
    np.testing.assert_allclose(sg.traj.positions[:, 0], t, atol=1e-12)
    np.testing.assert_allclose(sg.traj.positions[:, 4], 1.0 + t, atol=1e-12)
    np.testing.assert_allclose(sg.traj.positions[:, 6], 1.0, atol=1e-12)


def test_sphere_parallel_curve():
    s = make_sphere()
    sg = sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-3)
    assert sg.reintegration_deviation < 1e-10
    assert sg.membership_max < 1e-10
    affine = 1.0 + 0.5 * sg.traj.times[: len(sg.recovered_alpha)]
    np.testing.assert_allclose(sg.recovered_alpha, affine, atol=1e-10)
    np.testing.assert_allclose(sg.recovered_beta, 0.5, atol=1e-10)


def test_geodesic_strictness():
    s = make_sphere()
    with pytest.raises(InconsistentTrajectoryError):
        sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-3, tol=0.0)


def test_node_jets_off_the_slice_by_more_than_tol_raise():
    s = make_sphere()
    run = sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-2, tol=np.inf)
    # the closed form holds closer than the slice, so a tolerance between the
    # two passes the first check and fails the membership check
    assert run.reintegration_deviation < run.membership_max
    tol = 0.5 * (run.reintegration_deviation + run.membership_max)
    with pytest.raises(InconsistentTrajectoryError, match="leave the parallel slice"):
        sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-2, tol=tol)


@pytest.mark.parametrize("spray, x0, v0", [
    (make_sphere(), SPHERE_X0, SPHERE_V0),
    (make_flat(2), [0.0, 0.0], [1.0, 0.0]),
    (make_finsler_example((0.3, -0.2)), [0.1, 0.2], [0.9, -0.4]),
], ids=["sphere", "flat", "finsler"])
def test_base_is_carrier_of_lifted_run(spray, x0, v0):
    # the base geodesic is read off the doubly lifted run, not re-integrated
    sg = sub.geodesic(spray, x0, v0, 1.0, 0.5, (0.0, 0.5), 1e-2)
    ref = integrate(spray, JetPoint(1, 2, np.concatenate([x0, v0])), (0.0, 0.5), 1e-2)
    assert sg.base.spray is spray
    assert sg.base.exit_reason == ref.exit_reason
    for name in ("times", "positions", "velocities", "accelerations"):
        np.testing.assert_array_equal(getattr(sg.base, name), getattr(ref, name), err_msg=name)
    if spray.tag == "flat":
        np.testing.assert_allclose(sg.base.positions[:, 0], sg.base.times, atol=1e-13)


def test_uniqueness_of_recovered_scalars():
    s = make_sphere()
    u = sub.uniqueness_check(s, SPHERE_X0, SPHERE_V0, 1.3, -0.7, (0.0, 0.5), 1e-3)
    assert abs(u.alpha_sequential - 1.3) < 1e-8
    assert abs(u.beta_sequential + 0.7) < 1e-8
    assert u.parameter_gap < 1e-8
    # the curve the recovered scalars start matches its own closed form
    sg = sub.geodesic(s, SPHERE_X0, SPHERE_V0, u.alpha_sequential, u.beta_sequential,
                      (0.0, 0.5), 1e-3, tol=np.inf, node_checks=False)
    assert sg.reintegration_deviation < 1e-8


def test_uniqueness_check_integrates_nothing(monkeypatch):
    # the initial jet fixes the curve, so the check reads no run and ignores
    # its span and step
    def refuse(*args, **kwargs):
        raise AssertionError("uniqueness_check integrated a curve")

    monkeypatch.setattr(sub, "integrate", refuse)
    s = make_sphere()
    reports = [sub.uniqueness_check(s, SPHERE_X0, SPHERE_V0, 1.3, -0.7, t_span, h)
               for t_span, h in (((0.0, 0.5), 1e-3), ((0.0, -2.0), 0.25))]
    first, second = ([float(v).hex() for v in astuple(u)] for u in reports)
    assert first == second


@pytest.mark.parametrize("name", ["sphere", "flat", "finsler"])
def test_uniqueness_scalars_are_the_sequential_projection(name):
    # membership's recovery is bitwise the projection uniqueness_check made itself
    s, x0, v0 = CURVES[name]
    u = sub.uniqueness_check(s, x0, v0, 1.3, -0.7, (0.0, 0.1), 1e-2)
    b = sub._blocks(sub.delta_coordinates(s, x0, v0, 1.3, -0.7), s.fiber_dim)
    a = np.asarray(s.acceleration(b[0].tolist(), b[1].tolist()))
    vv = float(b[1] @ b[1])
    alpha = float(b[2] @ b[1]) / vv
    assert (u.alpha_sequential, u.beta_sequential) == (alpha, float((b[3] - alpha * a) @ b[1]) / vv)


def test_uniqueness_rejects_a_slashed_start():
    with pytest.raises(DomainError, match="slashed"):
        sub.uniqueness_check(make_sphere(), SPHERE_X0, [0.0, 0.0], 1.0, 0.5, (0.0, 0.1), 1e-2)


def test_reparametrized_field_matches():
    s = make_sphere()
    sg = sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-3)
    rep = sub.reparametrized(s, sg, 2.0, 0.2)
    assert abs(rep.alpha - (1.0 + 0.5 * 0.2) / 2.0) < 1e-12
    assert rep.beta == 0.5
    assert rep.field_gap < 1e-10


def test_reparametrized_scalar_map_is_forced():
    # flat line with alpha 0, beta 1: scaling the emitted first scalar by
    # the rate instead of dividing by it breaks the field pointwise
    f = make_flat(2)
    sg = sub.geodesic(f, [0.0, 0.0], [1.0, 0.0], 0.0, 1.0, (0.0, 2.0), 1e-2)
    rep = sub.reparametrized(f, sg, 2.0, 0.4)
    assert rep.alpha == (0.0 + 1.0 * 0.4) / 2.0
    assert rep.field_gap < 1e-12

    x_t0, v_t0 = sg.base.state_at(0.4)
    cand = sub.geodesic(f, x_t0, 2.0 * v_t0, 0.4, 2.0, (0.0, 0.8), 1e-2,
                        tol=np.inf, node_checks=False)
    gap = 0.0
    for k, t in enumerate(cand.traj.times):
        orig = sg.traj.position_at(2.0 * float(t) + 0.4)
        gap = max(gap, float(np.max(np.abs(cand.traj.positions[k, 4:6] - orig[4:6]))))
    assert gap > 1.0


def test_reparametrized_gap_is_the_per_node_loop():
    s = make_sphere()
    sg = sub.geodesic(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5, (0.0, 1.0), 1e-2)
    rep = sub.reparametrized(s, sg, 2.0, 0.2)
    gap = 0.0
    for k, t in enumerate(rep.curve.traj.times):
        orig = sg.traj.position_at(2.0 * float(t) + 0.2)
        gap = max(gap, float(np.max(np.abs(rep.curve.traj.positions[k, 4:6] - orig[4:6]))))
    assert 0.0 < rep.field_gap == gap


def test_reparametrized_rejects_bad_scale():
    # NaN and inf once reached the integrator and raised IntegrationBlowupError there
    f = make_flat(2)
    sg = sub.geodesic(f, [0.0, 0.0], [1.0, 0.0], 1.0, 0.0, (0.0, 1.0), 1e-2)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="scale must be positive and finite"):
            sub.reparametrized(f, sg, scale, 0.0)


def _random_family(seed):
    rng = np.random.default_rng(seed)
    x0 = np.array([rng.uniform(0.7, 2.3), rng.uniform(0.0, 2.0)])
    v0 = rng.standard_normal(2)
    v0 /= np.linalg.norm(v0)
    dx, dv = 0.3 * rng.standard_normal(2), 0.3 * rng.standard_normal(2)
    da, db = 0.3 * rng.standard_normal(), 0.3 * rng.standard_normal()
    al, be = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)

    def fam(sig):
        return x0 + sig * dx, v0 + sig * dv, al + sig * da, be + sig * db

    return fam


@pytest.mark.parametrize("seed", range(10))
def test_no_conjugate_along_random_families(seed):
    s = make_sphere()
    rep = sub.no_conjugate_check(s, _random_family(seed), (0.0, 4.0), 1e-2)
    assert rep.ok
    assert len(rep.zero_times) < 2


def _line_family(eps):
    """The flat line of test_reparametrized_scalar_map_is_forced, beta moving at rate ``eps``.

    Its field is ``eps (0, 0, t v, v)`` with |v| = 1, of norm ``eps sqrt(1 + t^2)``.
    """
    return lambda sig: (np.zeros(2), np.array([1.0, 0.0]), 0.0, 1.0 + eps * sig)


@pytest.mark.parametrize("t_end", [40.0, 400.0])
@pytest.mark.parametrize("eps", [5e-9, 1.0, 1e6])
def test_verdict_does_not_depend_on_the_family_scale(eps, t_end):
    # the field never vanishes; an absolute node rule once found zeros at
    # t = 0 and 1 for eps = 5e-9, and failed t_end = 400 on its supremum
    rep = sub.no_conjugate_check(make_flat(2), _line_family(eps), (0.0, t_end), 1.0)
    assert rep.zero_times == []
    assert rep.sup_norm == pytest.approx(eps * math.hypot(1.0, t_end))
    assert rep.ok


@pytest.mark.parametrize("speed", [1.0, 10.0, 30.0])
@pytest.mark.parametrize("offset, zero", [(3e-7, True), (3e-6, False)])
def test_field_zero_is_a_norm_within_1e_6_of_the_supremum(monkeypatch, offset, zero, speed):
    # the flat line's run with its field replaced by (speed t - 1.125, offset * 1.125, 0, ...):
    # dense output is exact on it, the supremum over the nodes is 1.125 (+ offset),
    # and the norm at the refined minimum is about offset * 1.125.  On a linear
    # field the first Newton step lands on the minimum at 1.125 / speed; an
    # absolute refinement bracket of 1e-6 once lost the zero at speed 30
    real = sub.integrate

    def run(*args):
        tr = real(*args)
        n = tr.positions.shape[1] // 2
        field = np.zeros((len(tr.times), n))
        field[:, 0], field[:, 1] = speed * tr.times - 1.125, offset * 1.125
        rate = np.zeros_like(field)
        rate[:, 0] = speed
        return Trajectory(tr.spray, tr.times, np.hstack([tr.positions[:, :n], field]),
                          np.hstack([tr.velocities[:, :n], rate]),
                          np.hstack([tr.accelerations[:, :n], np.zeros_like(field)]), tr.h)

    monkeypatch.setattr(sub, "integrate", run)
    pj = sub.parallel_jacobi_curve(make_flat(2), _line_family(1.0), (0.0, 2.0 / speed),
                                   0.25 / speed)
    assert pj.sup_norm == pytest.approx(1.125)
    assert len(pj.zero_times) == zero
    if zero:
        assert abs(pj.zero_times[0] - 1.125 / speed) < 1e-6 / speed


@pytest.mark.parametrize("seed", [0, 6])
def test_newton_keeps_minima_far_from_zero_and_the_floor_drops_them(monkeypatch, seed):
    # each family's field norm has four node-local minima, at 1e-4 to 0.16 of
    # the supremum.  The one-column step -<J, J'> / |J'|^2 is Gauss-Newton on
    # |J|^2: it keeps every minimum within its two steps and moves it to where
    # J is nearly orthogonal to J'.  The norm there is above 1e-6 of the
    # supremum, so no zero is reported.  Each minimum costs three Newton
    # evaluations (state_at) and one norm evaluation (position_at)
    runs, kept, states, positions = [], [], [], []
    state_at, position_at = Trajectory.state_at, Trajectory.position_at
    monkeypatch.setattr(Trajectory, "state_at", lambda tr, t: states.append(t) or state_at(tr, t))
    monkeypatch.setattr(Trajectory, "position_at",
                        lambda tr, t: positions.append(t) or position_at(tr, t))
    for module, name, out in ((sub, "integrate", runs), (sub, "_minima", kept)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, out=out: out.append(real(*args)) or out[-1])
    pj = sub.parallel_jacobi_curve(make_sphere(), _random_family(seed), (0.0, 4.0), 1e-2)
    norms = np.linalg.norm(pj.values, axis=1)
    nodes = np.flatnonzero((norms[1:] < norms[:-1]) & (norms[1:] <= np.append(norms[2:], np.inf))) + 1
    assert len(nodes) == 4 and len(kept[0]) == 4
    assert pj.zero_times == [] and len(states) == 12 and positions == kept[0]
    tr, n = runs[0], pj.values.shape[1]
    for i, t in zip(nodes, kept[0]):
        assert pj.times[i - 1] <= t <= pj.times[i + 1]
        x, v = state_at(tr, t)
        assert abs(x[n:] @ v[n:]) < 1e-2 * np.linalg.norm(x[n:]) * np.linalg.norm(v[n:])
        assert np.linalg.norm(x[n:]) > 1e-6 * pj.sup_norm


def test_constant_family_is_trivial_but_passes():
    # a field that is zero everywhere has no strict dip, so no zeros
    s = make_sphere()

    def fam(sig):
        return np.array(SPHERE_X0), np.array(SPHERE_V0), 1.0, 0.5

    rep = sub.no_conjugate_check(s, fam, (0.0, 2.0), 1e-2)
    assert rep.sup_norm == 0.0
    assert rep.ok


def _runs_of_integrate(monkeypatch):
    """A list that collects every run :func:`sub.integrate` makes from now on."""
    runs, real = [], sub.integrate
    monkeypatch.setattr(sub, "integrate", lambda *args: runs.append(real(*args)) or runs[-1])
    return runs


def test_parallel_jacobi_curve_values(monkeypatch):
    s = make_sphere()
    runs = _runs_of_integrate(monkeypatch)
    pj = sub.parallel_jacobi_curve(s, _random_family(3), (0.0, 1.0), 1e-2)
    assert pj.values.shape == (len(pj.times), 8)
    assert pj.sup_norm > 0.0
    assert pj.zero_times == []
    # the run's carrier is the centre curve, whose jet at t = 0 has the family's alpha
    n = pj.values.shape[1]
    start = np.concatenate([runs[0].positions[0, :n], runs[0].velocities[0, :n]])
    assert sub.membership(s, start, tol=np.inf).alpha == pytest.approx(_random_family(3)(0.0)[2])


def _fd_family_field(s, family, eps, t_span=(0.0, 1.0), h=1e-2):
    """Oracle: the central difference of the parallel curves at sigma = +eps and -eps."""
    def positions(sig):
        x0, v0, al, be = family(sig)
        return sub.geodesic(s, x0, v0, al, be, t_span, h, tol=np.inf,
                            node_checks=False).traj.positions
    return (positions(eps) - positions(-eps)) / (2.0 * eps)


def test_family_field_is_the_limit_of_central_differences():
    # the exact field differentiates the discrete runs, so the difference
    # quotient's gap to it falls like eps**2, with no integration error
    s = make_sphere()
    pj = sub.parallel_jacobi_curve(s, _random_family(1), (0.0, 1.0), 1e-2)
    gaps = [float(np.max(np.abs(_fd_family_field(s, _random_family(1), e) - pj.values)))
            for e in (4e-3, 2e-3, 1e-3)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    np.testing.assert_allclose(orders, 2.0, atol=0.1)


def test_ndarray_family_gives_the_field_of_scalar_arithmetic():
    # the benchmark's family is ndarray arithmetic on sigma; written entry by
    # entry on scalars it is the same family, and gives the same field bitwise
    s = make_sphere()
    x0, v0, al, be = np.array([1.1, 0.3]), np.array([0.6, -0.8]), 0.9, 0.2
    dx, dv, da, db = np.array([0.2, -0.1]), np.array([0.05, 0.3]), -0.4, 0.1

    def arrays(sig):
        return x0 + sig * dx, v0 + sig * dv, al + sig * da, be + sig * db

    def scalars(sig):
        return ([float(x0[i]) + sig * float(dx[i]) for i in range(2)],
                [float(v0[i]) + sig * float(dv[i]) for i in range(2)], al + sig * da, be + sig * db)

    want = sub.parallel_jacobi_curve(s, scalars, (0.0, 1.0), 1e-2)
    got = sub.parallel_jacobi_curve(s, arrays, (0.0, 1.0), 1e-2)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.sup_norm > 0.1


def test_parallel_jacobi_curve_is_one_run_whose_carrier_is_the_centre(monkeypatch):
    s, fam = make_sphere(), _random_family(3)
    real = sub.integrate
    runs = _runs_of_integrate(monkeypatch)
    pj = sub.parallel_jacobi_curve(s, fam, (0.0, 1.0), 1e-2)
    assert [tr.spray.level for tr in runs] == [3]
    monkeypatch.setattr(sub, "integrate", real)
    x0, v0, al, be = fam(0.0)
    centre = sub.geodesic(s, x0, v0, al, be, (0.0, 1.0), 1e-2, tol=np.inf, node_checks=False)
    # the first 4m columns of the run, checked as geodesic checks its own run
    n = pj.values.shape[1]
    carrier = sub._checked(s, runs[0].columns(slice(0, n), complete_lift(complete_lift(s))),
                           al, be, np.inf, False)
    for name in ("positions", "velocities", "accelerations"):
        assert getattr(carrier.traj, name).tobytes() == getattr(centre.traj, name).tobytes()
    assert carrier.reintegration_deviation == centre.reintegration_deviation


# spray, base point, base velocity; the Finsler start is slow enough that its
# drag does not blow up within t = -1
FAMILY_CASES = {
    "sphere": CURVES["sphere"],
    "finsler": (make_finsler_example((0.3, 1.0)), [0.1, 0.2], [0.3, -0.2]),
    "pushed-sphere": CURVES["pushed"],
    "flat": CURVES["flat"],
}


def _family_through(x0, v0, d):
    """The family through (x0, v0, 1.1, -0.3) whose sigma-derivative is d = (dx, dv, dalpha, dbeta)."""
    x0, v0, d = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float), np.asarray(d, dtype=float)
    return lambda sig: (x0 + sig * d[0:2], v0 + sig * d[2:4], 1.1 + sig * d[4], -0.3 + sig * d[5])


def _value_and_rate(z):
    """The primal and tangent parts of the entries of ``z``, a Dual or an array of them."""
    z = np.ravel(z)
    return [jet_re(w) for w in z], [jet_du(w) for w in z]


@pytest.mark.parametrize("span", [1.0, -1.0])
@pytest.mark.parametrize("name", list(FAMILY_CASES))
def test_family_field_is_the_dual_rk4_run(monkeypatch, name, span):
    # the field is exactly the sigma-derivative of the discrete run: the RK4
    # run of S^cc on the Dual jet delta_coordinates(family(Dual(0, 1))), whose
    # value part is the centre curve and whose eps part is the field
    s, x0, v0 = FAMILY_CASES[name]
    fam = _family_through(x0, v0, 0.3 * np.random.default_rng(0).standard_normal(6))
    runs = _runs_of_integrate(monkeypatch)
    pj = sub.parallel_jacobi_curve(s, fam, (0.0, span), 1e-2)
    xi = sub.delta_coordinates(s, *fam(np.array(Dual(0.0, 1.0), dtype=object)))
    n = xi.size // 2
    (x, dx), (v, dv) = _value_and_rate(xi[:n]), _value_and_rate(xi[n:])
    times, positions, *_ = _dual_reference_integrate(
        complete_lift(complete_lift(s)), JetPoint(s.level + 4, s.dim, x + dx + v + dv),
        (0.0, span), 1e-2)
    assert pj.values.shape == (len(times), n)
    assert np.max(np.abs(pj.times - times)) == 0.0
    assert np.max(np.abs(runs[0].positions[:, :n] - positions[:, :n])) == 0.0
    assert np.max(np.abs(pj.values - positions[:, n:])) == 0.0


def _closed_form_family_field(s, family, t_span, h):
    """Property 1's family field at sigma = 0, from one run of the lift.

    The P-geodesic through (x0, v0, alpha, beta) is (x, v, A v, A a + beta v)
    with A = alpha + beta t, so the field is
    (J, J', dA v + A J', dA a + A J'' + dbeta v + beta J') with
    dA = dalpha + dbeta t, and J, J', J'' come from the run of the lift from
    (x0, dx0; v0, dv0).
    """
    x0, v0, al, be = family(np.array(Dual(0.0, 1.0), dtype=object))
    (x, dx), (v, dv) = _value_and_rate(x0), _value_and_rate(v0)
    ((al,), (dal,)), ((be,), (dbe,)) = _value_and_rate(al), _value_and_rate(be)
    tr = integrate(complete_lift(s), JetPoint(s.level + 2, s.dim, x + dx + v + dv), t_span, h)
    m = s.fiber_dim
    t = tr.times[:, None]
    vel, jac = tr.velocities[:, :m], tr.positions[:, m:]
    acc, rate, jolt = tr.accelerations[:, :m], tr.velocities[:, m:], tr.accelerations[:, m:]
    a, da = al + be * t, dal + dbe * t
    return np.hstack([jac, rate, da * vel + a * rate, da * acc + a * jolt + dbe * vel + be * rate])


@pytest.mark.parametrize("name", ["sphere", "finsler", "pushed-sphere"])
@settings(max_examples=3)
@given(d=st.lists(st.floats(-1.0, -0.1) | st.floats(0.1, 1.0), min_size=6, max_size=6))
def test_family_field_converges_to_the_closed_form_at_order_4(name, d):
    # J is bitwise the first block of both.  The other three are positions of
    # the P-geodesic run that the closed form takes from the lift's velocities
    # and accelerations, so their gap is RK4's error: a factor of 16 per
    # halving of h.  A shift along a symmetry of the spray (the longitude on
    # the sphere, any dx0 on the Finsler example) has a gap of exactly 0, so
    # every component of d is kept away from 0.  On flat RK4 is exact on the
    # field, which leaves rounding
    s, x0, v0 = FAMILY_CASES[name]
    fam = _family_through(x0, v0, d)
    gaps = []
    for h in (4e-2, 2e-2, 1e-2, 5e-3):
        gap = (sub.parallel_jacobi_curve(s, fam, (0.0, 2.0), h).values
               - _closed_form_family_field(s, fam, (0.0, 2.0), h))
        assert not np.any(gap[:, :s.fiber_dim])
        gaps.append(np.max(np.abs(gap)))
    assert all(coarse >= 12.0 * fine for coarse, fine in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("name", list(CURVES))
def test_dual_entries_keep_the_float_jet_as_primal(name):
    s, x0, v0 = CURVES[name]
    want = sub.delta_coordinates(s, x0, v0, 1.7, -0.4)
    duals = [Dual(z, 1.0) for z in x0]
    got = sub.delta_coordinates(s, duals, v0, Dual(1.7, 0.0), -0.4)
    assert got.dtype == object
    assert np.array([jet_re(z) for z in got]).tobytes() == want.tobytes()


def _fd_jacobian(fn, p, step=1e-6):
    return np.stack([(fn(p + step * u) - fn(p - step * u)) / (2.0 * step)
                     for u in np.eye(p.size)], axis=1)


@pytest.mark.parametrize("name", ["sphere", "flat", "finsler", "pushed"])
def test_exact_jacobian_matches_central_differences(name):
    s, x0, v0 = CURVES[name]
    m = s.fiber_dim
    d = sub.dimension_probe(s, x0, v0, 1.0, 0.5)
    jet = lambda p: sub.delta_coordinates(s, p[:m], p[m:2 * m], p[2 * m], p[2 * m + 1])
    oracle = _fd_jacobian(jet, np.array([*x0, *v0, 1.0, 0.5]))
    assert float(np.max(np.abs(d.parametrization_jacobian - oracle))) <= 1e-8
    assert d.ok


def test_completeness_probe_flat():
    f = make_flat(2)
    rows = sub.completeness_probe(
        f, [{"label": "line", "x0": [0, 0], "v0": [1, 0], "alpha": 1.0, "beta": 0.5}],
        3.0, 1e-2)
    assert rows[0]["base_exit"] is None and rows[0]["sub_exit"] is None
    assert rows[0]["base_time"] == 3.0 and rows[0]["agree"]


def test_completeness_probe_punctured_chart():
    disk = make_flat(2, domain=lambda x: float(np.dot(x, x)) < 4.0)
    rows = sub.completeness_probe(
        disk, [{"label": "radial", "x0": [0, 0], "v0": [1, 0], "alpha": 1.0, "beta": 0.0}],
        3.0, 1e-3)
    row = rows[0]
    assert row["base_exit"] == "domain" and row["sub_exit"] == "domain"
    assert row["agree"]
    # unit speed hits the rim of the radius-2 chart at t = 2
    assert abs(row["base_time"] - 2.0) <= 1e-3 + 1e-12


def test_completeness_probe_meridian_hits_pole_margin():
    s = make_sphere(pole_margin=0.05)
    rows = sub.completeness_probe(
        s, [{"label": "meridian", "x0": [np.pi / 2, 0.0], "v0": [1.0, 0.0],
             "alpha": 1.0, "beta": 0.0}],
        3.0, 1e-3)
    row = rows[0]
    assert row["base_exit"] == "domain" and row["sub_exit"] == "domain"
    assert row["agree"]
    assert abs(row["base_time"] - (np.pi / 2 - 0.05)) <= 1e-3 + 1e-12


def _squared_speed_spray():
    # acceleration v**2: the geodesic from (0, 1) is x = -log(1 - t), which
    # blows up at t = 1
    return Spray(level=0, dim=1, coeff_fn=lambda x, v: [-0.5 * v[0] * v[0]], tag="squared-speed")


def test_completeness_probe_reports_finite_time_blowup():
    s = _squared_speed_spray()
    overshoot = []
    for h in (0.04, 0.02, 0.01):
        rows = sub.completeness_probe(
            s, [{"label": "blowup", "x0": [0.0], "v0": [1.0], "alpha": 1.0, "beta": 0.5}],
            3.0, h)
        row = rows[0]
        assert row["base_exit"] == "blowup" and row["sub_exit"] == "blowup"
        assert row["agree"]
        overshoot.append(row["base_time"] - 1.0)
    # the last finite nodes converge to the blowup time, at order 1 in h
    assert overshoot[0] > 0.0
    for coarse, fine in zip(overshoot, overshoot[1:]):
        assert 1.9 < coarse / fine < 2.1


def test_completeness_probe_blows_up_in_some_directions_only():
    # acceleration (v1**2, 0): x1 blows up at t = 1/v1 when v1 > 0 and
    # stays finite otherwise, whatever v2 is
    s = Spray(level=0, dim=2, coeff_fn=lambda x, v: [-0.5 * v[0] * v[0], 0.0 * v[1]],
              tag="squared-first-speed")
    cases = [{"label": str(v0), "x0": [0.0, 0.0], "v0": v0, "alpha": 1.0, "beta": 0.5}
             for v0 in ([1.0, 1.0], [0.0, 1.0], [-1.0, 1.0])]
    overshoot = []
    for h in (0.04, 0.02, 0.01):
        rows = sub.completeness_probe(s, cases, 2.0, h)
        assert all(row["agree"] for row in rows)
        blown, *finite = rows
        assert blown["base_exit"] == "blowup" and blown["sub_exit"] == "blowup"
        assert blown["base_time"] == blown["sub_time"]
        overshoot.append(blown["base_time"] - 1.0)
        for row in finite:
            assert row["base_exit"] is None and row["sub_exit"] is None
            assert row["base_time"] == row["sub_time"] == 2.0
    # the blowup time converges to 1 as h halves, at order 1 in h
    assert overshoot[0] > 0.0
    for coarse, fine in zip(overshoot, overshoot[1:]):
        assert 1.9 < coarse / fine < 2.1


def test_completeness_probe_raises_a_coefficient_failure():
    # the coefficient divides by x, which reaches 0 at t = 0.5 inside the
    # chart: a defect of the spray, not a finite-time blowup
    singular = Spray(level=0, dim=1, coeff_fn=lambda x, v: [0.0 * v[0] / x[0]], tag="singular")
    with pytest.raises(IntegrationBlowupError, match="coefficient evaluation failed") as err:
        sub.completeness_probe(
            singular, [{"label": "pole", "x0": [0.5], "v0": [-1.0], "alpha": 1.0, "beta": 0.5}],
            2.0, 0.25)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


def test_projective_sphere_leaves_the_chart_backward_in_both_runs():
    # G + 0.1 |y| y speeds a geodesic up without bound backward (at t = -5
    # on the unit-speed equator); both runs leave the chart at the same node
    s = projective(make_sphere(), 0.1)
    rows = sub.completeness_probe(
        s, [{"label": "equator", "x0": [np.pi / 2, 0.0], "v0": [0.0, 1.0], "alpha": 1.3, "beta": -0.7},
            {"label": "tilted", "x0": [1.2, 0.4], "v0": [0.3, 1.0], "alpha": 1.3, "beta": -0.7}],
        -8.0, 1e-2)
    for row, end in zip(rows, (-5.01, -4.79)):
        assert row["base_exit"] == row["sub_exit"] == "domain"
        assert row["base_time"] == row["sub_time"] == pytest.approx(end, abs=1e-12)


def test_dimension_probe_ranks():
    s = make_sphere()
    d = sub.dimension_probe(s, SPHERE_X0, SPHERE_V0, 1.0, 0.5)
    assert d.ok
    assert (d.full_jet_rank, d.configuration_rank,
            d.fixed_parameter_rank, d.configuration_rank_without_beta) == (6, 6, 4, 5)
    assert d.parametrization_jacobian.shape == (16, 6)


def test_dimension_probe_flat():
    f = make_flat(3)
    d = sub.dimension_probe(f, [0.0, 0.0, 0.0], [1.0, 0.2, -0.3], 0.8, 0.1)
    assert d.expected == (8, 8, 6, 7)
    assert d.ok


@pytest.mark.parametrize("speed, ranks",
                         [(3e-7, (8, 8, 6, 7)), (3e-6, (8, 8, 6, 7)), (1.0, (8, 8, 6, 7))])
def test_rank_counts_singular_values_above_1e_6_of_the_largest(speed, ranks):
    # singular values 1, 1.1e-6 and 0.9e-6 of the largest, scaled by the speed: a
    # cut of 1e-5 would count 1 and a cut of 1e-7 would count 3
    assert sub._rank(speed * np.diag([1.0, 1.1e-6, 0.9e-6])) == 2
    assert sub._rank(speed * np.diag([1.0, 1e-6])) == 1
    assert sub._rank(np.zeros((3, 2))) == 0
    # test_dimension_probe_flat's point at that speed: the scalar columns scale
    # with it, to singular values of 0.5-0.95 times the speed relative to the
    # largest; at 3e-7 unscaled columns read (6, 6, 6, 6)
    f = make_flat(3)
    v0 = speed * np.array([1.0, 0.2, -0.3])
    d = sub.dimension_probe(f, [0.0, 0.0, 0.0], v0, 0.8, 0.1)
    assert (d.full_jet_rank, d.configuration_rank,
            d.fixed_parameter_rank, d.configuration_rank_without_beta) == ranks
    assert d.ok
    # the reported Jacobian is unscaled: its alpha column at the first position row is v0
    assert d.parametrization_jacobian[6:9, 6].tolist() == v0.tolist()


def test_dimension_probe_rejects_a_start_that_is_not_slashed():
    with pytest.raises(DomainError, match="not slashed"):
        sub.dimension_probe(make_flat(3), [0.0, 0.0, 0.0], [0.0, 1e-11, 0.0], 0.8, 0.1)


@pytest.mark.parametrize("x0, alpha, beta", [
    ([math.nan, 0.0, 0.0], 0.8, 0.1), ([0.0, 0.0, 0.0], math.inf, 0.1),
    ([0.0, 0.0, 0.0], 0.8, -math.inf), ([0.0, math.inf, 0.0], 0.8, 0.1),
], ids=["nan-x0", "inf-alpha", "inf-beta", "inf-x0"])
def test_dimension_probe_rejects_a_start_that_is_not_finite(x0, alpha, beta):
    # a non-finite entry would reach _rank's SVD, which does not converge
    with pytest.raises(DomainError, match="finite"):
        sub.dimension_probe(make_flat(3), x0, [1.0, 0.2, -0.3], alpha, beta)


# each entry point that takes a start (x0, v0), called on the sphere
START_ENTRY_POINTS = {
    "delta_coordinates": lambda s, x0, v0: sub.delta_coordinates(s, x0, v0, 1.0, 0.5),
    "dimension_probe": lambda s, x0, v0: sub.dimension_probe(s, x0, v0, 1.0, 0.5),
    "geodesic": lambda s, x0, v0: sub.geodesic(s, x0, v0, 1.0, 0.5, (0.0, 1.0), 0.1),
    "uniqueness_check": lambda s, x0, v0: sub.uniqueness_check(s, x0, v0, 1.0, 0.5, (0.0, 1.0), 0.1),
    "parallel_jacobi_curve": lambda s, x0, v0: sub.parallel_jacobi_curve(
        s, lambda sigma: (np.array(x0) + sigma, np.array(v0), 1.0, 0.5), (0.0, 1.0), 0.1),
}


@pytest.mark.parametrize("entry", START_ENTRY_POINTS)
@pytest.mark.parametrize("x0, v0", [([1.2, 0.4, 0.3], [1.0]), ([1.2, 0.4, 0.3], [0.3, 1.0, 0.0]),
                                    ([1.2], [0.3, 1.0])], ids=["3-1", "3-3", "1-2"])
def test_a_start_of_the_wrong_length_is_refused(entry, x0, v0):
    # the sphere's fiber has 2 entries: a start of other lengths was once
    # read misaligned (dimension_probe reported ok) or failed to unpack in
    # generated code
    with pytest.raises(InvalidLevelError, match="takes 2 positions and 2 velocities"):
        START_ENTRY_POINTS[entry](make_sphere(), x0, v0)
