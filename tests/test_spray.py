"""Spray coefficients, lifts of sprays, and chart transport of sprays."""

import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest

from sprayjets import (DomainError, InvalidLevelError, JetPoint, Spray,
                       acceleration_jet, complete_lift, dkappa,
                       homogeneity_check, integrate, make_finsler_example, make_flat,
                       make_riemannian, make_round_sphere, make_sphere, project_spray, pushforward, pushforward_spray,
                       shear_chart)
from sprayjets import geodesic
from sprayjets import spray as spray_mod
from sprayjets.jets import Dual, jcos, jet_du, jet_re, jnorm, jsin, nest, unnest
from sprayjets.samples import random_slashed_jet, sphere_phase


def test_flat_spray_is_zero():
    s = make_flat(3)
    p = JetPoint(1, 3, np.array([1.0, 2.0, 3.0, 0.5, -0.5, 2.0]))
    np.testing.assert_array_equal(s.coeffs(p), np.zeros(3))
    np.testing.assert_array_equal(s.acceleration(p.coords[:3].tolist(), p.coords[3:].tolist()),
                                  np.zeros(3))


def test_sphere_coefficient_value():
    # colatitude pi/3, pure azimuthal unit velocity
    s = make_sphere()
    p = JetPoint(1, 2, np.array([np.pi / 3, 0.0, 0.0, 1.0]))
    g = np.asarray(s.coeffs(p), dtype=float)
    np.testing.assert_allclose(g[0], -np.sqrt(3.0) / 8.0, rtol=1e-14)
    np.testing.assert_allclose(g[1], 0.0, atol=1e-15)


def test_sphere_against_christoffel_formula():
    s = make_sphere()
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = sphere_phase(rng)
        th = p.coords[0]
        v = p.coords[2:]
        want_theta = 0.5 * (-np.sin(th) * np.cos(th)) * v[1] ** 2
        want_phi = 0.5 * 2.0 * (np.cos(th) / np.sin(th)) * v[0] * v[1]
        np.testing.assert_allclose(s.coeffs(p), [want_theta, want_phi],
                                   rtol=1e-12, atol=1e-12)


def test_finsler_example_values():
    s = make_finsler_example((0.0, 1.0))
    p = JetPoint(1, 2, np.array([0.0, 0.0, 3.0, 4.0]))
    np.testing.assert_allclose(s.coeffs(p), [0.0, 20.0], rtol=1e-14)
    s2 = make_finsler_example((1.0, 0.0))
    np.testing.assert_allclose(
        s2.coeffs(JetPoint(1, 2, np.array([0.0, 0.0, 0.0, 2.0]))), [0.0, 0.0],
        atol=1e-15)
    np.testing.assert_allclose(
        s2.coeffs(JetPoint(1, 2, np.array([0.0, 0.0, 2.0, 0.0]))), [4.0, 0.0],
        rtol=1e-14)


def test_coeffs_rejects_unslashed_and_wrong_level():
    s = make_flat(2)
    with pytest.raises(DomainError):
        s.coeffs(JetPoint(1, 2, np.array([1.0, 1.0, 0.0, 0.0])))
    with pytest.raises(InvalidLevelError):
        s.coeffs(JetPoint(2, 2, np.arange(8.0)))


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.3])
def test_homogeneity_of_builtin_sprays(lam):
    rng = np.random.default_rng(int(lam * 10))
    sprays = [make_flat(2), make_sphere(), make_finsler_example((0.3, -0.7))]
    for s in sprays:
        for _ in range(20):
            p = sphere_phase(rng) if s.tag == "sphere" else random_slashed_jet(rng, 1, 2)
            assert homogeneity_check(s, p, lam) <= 1e-12


def projective(s: Spray, c: float) -> Spray:
    """The projective change G + c |y| y of the level-0 spray ``s``.

    P = c |y| is positively 1-homogeneous, so the geodesic traces stay and
    their parametrisation changes (Shen, *Differential Geometry of Spray and
    Finsler Spaces*, 2001).  The new spray is neither reversible nor quadratic.
    """

    def coeff(pos, vel):
        speed = jnorm(vel)
        return [g + c * speed * y for g, y in zip(s.coeff_fn(pos, vel), vel)]

    return Spray(level=0, dim=s.dim, coeff_fn=coeff, tag=f"projective({s.tag},{c})",
                 domain=s.domain)


@pytest.mark.parametrize("lam", [2.0, 0.5])
def test_projective_sphere_is_exactly_2_homogeneous(lam):
    # the scalings by powers of 2 are exact, and so is sqrt on them
    s = projective(make_sphere(), 0.1)
    assert homogeneity_check(s, JetPoint(1, 2, [1.2, 0.4, 0.3, 1.0]), lam) == 0.0


def test_homogeneity_rejects_nonpositive_scale():
    s = make_flat(2)
    p = JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0]))
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            homogeneity_check(s, p, lam)


def test_homogeneity_rejects_a_wrong_level_and_a_slashed_point():
    s = make_flat(2)
    with pytest.raises(InvalidLevelError, match="takes level-1 points"):
        homogeneity_check(s, JetPoint(2, 2, np.ones(8)), 2.0)
    with pytest.raises(DomainError, match="slashed"):
        homogeneity_check(s, JetPoint(1, 2, np.array([1.0, 2.0, 0.0, 0.0])), 2.0)


@pytest.mark.parametrize("coords, match", [
    ([0.0, 0.3, 0.5, 1.0], "outside the spray's chart"),
    ([np.inf, 0.3, 0.5, 1.0], "finite"),
    ([np.nan, 0.3, 0.5, 1.0], "finite"),
    ([1.0, 0.3, np.inf, 1.0], "finite"),
], ids=["pole", "inf-position", "nan-position", "inf-velocity"])
def test_sphere_coefficients_and_homogeneity_refuse_bad_points(coords, match):
    # unchecked, the coefficients divide by zero at the pole, hit a math domain
    # error at an infinite colatitude and give inf and NaN at an infinite
    # velocity; every case is a DomainError, with no numpy warning
    s = make_sphere()
    p = JetPoint(1, 2, np.array(coords))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            s.coeffs(p)
        with pytest.raises(DomainError, match=match):
            homogeneity_check(s, p, 2.0)


def test_homogeneity_keeps_its_value_and_takes_a_tiny_scale():
    s = make_sphere()
    p = JetPoint(1, 2, np.array([1.2, 0.4, 0.5, -1.0]))
    for lam in (2.0, 1e-12):
        pos, vel = p.coords[:2], p.coords[2:]
        scaled = np.asarray(s.coeff_fn(pos, lam * vel), dtype=float)
        ref = lam * lam * np.asarray(s.coeff_fn(pos, vel), dtype=float)
        want = float(np.linalg.norm(scaled - ref) / (1.0 + np.linalg.norm(ref)))
        # lam * vel at 1e-12 is not slashed, yet only p itself is checked
        assert homogeneity_check(s, p, lam) == want


def test_complete_lift_blocks_against_directional_derivative():
    s = make_sphere()
    lifted = complete_lift(s)
    assert lifted.level == 1 and lifted.fiber_dim == 4
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(20):
        base = sphere_phase(rng)
        dy = 0.3 * rng.standard_normal(4)
        p = JetPoint(2, 2, np.concatenate([base.coords[:2], dy[:2],
                                           base.coords[2:], dy[2:]]))
        out = np.asarray(lifted.coeffs(p), dtype=float)
        # primal block repeats the parent coefficients exactly
        np.testing.assert_array_equal(out[:2], np.asarray(s.coeffs(base)))
        up = JetPoint(1, 2, base.coords + eps * dy)
        dn = JetPoint(1, 2, base.coords - eps * dy)
        fd = (np.asarray(s.coeffs(up)) - np.asarray(s.coeffs(dn))) / (2 * eps)
        np.testing.assert_allclose(out[2:], fd, rtol=1e-7, atol=1e-7)


def test_double_lift_block_structure():
    # second-order block: derivative along one direction of the derivative
    # along the other, plus the first derivative of the remainder
    s = make_sphere()
    l2 = complete_lift(complete_lift(s))
    rng = np.random.default_rng(8)
    eps = 1e-4
    for _ in range(5):
        base = sphere_phase(rng)
        a = 0.3 * rng.standard_normal(4)
        b = 0.3 * rng.standard_normal(4)
        c = 0.3 * rng.standard_normal(4)
        z = base.coords
        pos = np.concatenate([z[:2], a[:2], b[:2], c[:2]])
        vel = np.concatenate([z[2:], a[2:], b[2:], c[2:]])
        p = JetPoint(3, 2, np.concatenate([pos, vel]))
        out = np.asarray(l2.coeffs(p), dtype=float)

        def g(w):
            return np.asarray(s.coeffs(JetPoint(1, 2, w)), dtype=float)

        np.testing.assert_array_equal(out[:2], g(z))
        fd_a = (g(z + eps * a) - g(z - eps * a)) / (2 * eps)
        fd_b = (g(z + eps * b) - g(z - eps * b)) / (2 * eps)
        np.testing.assert_allclose(out[2:4], fd_a, atol=2e-5)
        np.testing.assert_allclose(out[4:6], fd_b, atol=2e-5)
        second = (g(z + eps * a + eps * b) - g(z + eps * a - eps * b)
                  - g(z - eps * a + eps * b) + g(z - eps * a - eps * b)) / (4 * eps ** 2)
        fd_c = (g(z + eps * c) - g(z - eps * c)) / (2 * eps)
        np.testing.assert_allclose(out[6:], second + fd_c, atol=2e-4)


def test_projection_recovers_parent_exactly():
    rng = np.random.default_rng(12)
    for s in (make_flat(2), make_sphere(), make_finsler_example((0.2, 0.9))):
        back = project_spray(complete_lift(s))
        for _ in range(50):
            p = sphere_phase(rng) if s.tag == "sphere" else random_slashed_jet(rng, 1, 2)
            a = np.asarray(s.coeffs(p), dtype=float)
            b = np.asarray(back.coeffs(p), dtype=float)
            np.testing.assert_array_equal(a, b)


def test_project_spray_requires_lifted_level():
    with pytest.raises(InvalidLevelError):
        project_spray(make_flat(2))


def test_acceleration_jet_flat_and_sphere():
    s = make_flat(2)
    a, jolt = acceleration_jet(s, [0.0, 0.0], [1.0, 2.0])
    np.testing.assert_array_equal(a, np.zeros(2))
    np.testing.assert_array_equal(jolt, np.zeros(2))

    sph = make_sphere()
    x, v = np.array([1.2, 0.3]), np.array([0.4, 0.9])
    a, jolt = acceleration_jet(sph, x.tolist(), v.tolist())
    a = np.array(a)
    eps = 1e-6

    def acc(t):
        # third derivative oracle: drag the argument along its own motion
        return np.asarray(sph.acceleration((x + t * v).tolist(), (v + t * a).tolist()), dtype=float)

    fd = (acc(eps) - acc(-eps)) / (2 * eps)
    np.testing.assert_allclose(jolt, fd, atol=1e-7)


def _reference_acceleration_jet(s, x, v):
    """The jolt as it was evaluated before: ``coeff_fn`` on Dual pairs."""
    a = np.array(s.acceleration(x.tolist(), v.tolist()))
    dx = [Dual(float(x[i]), float(v[i])) for i in range(len(x))]
    dv = [Dual(float(v[i]), float(a[i])) for i in range(len(v))]
    out = s.coeff_fn(dx, dv)
    return a, -2.0 * np.asarray([jet_du(z) for z in out], dtype=float)


def _branch_on_primal(pos, vel):
    sign = 1.0 if jet_re(pos[0]) > 0.0 else -1.0
    return [sign * vel[0] * vel[0]]


@dataclass(eq=True)
class _Drag:
    """A coefficient object with value equality, hence unhashable."""

    c: float

    def __call__(self, pos, vel):
        return [self.c * vel[0] * vel[0]]


JOLT_SPRAYS = {
    "sphere": make_sphere(),
    "flat": make_flat(2),
    "finsler": make_finsler_example((0.3, -0.2)),
    "pushed": pushforward_spray(shear_chart(), make_sphere()),
    "lifted-sphere": complete_lift(make_sphere()),
    "refused-trace": Spray(level=0, dim=1, coeff_fn=_branch_on_primal, tag="branch"),
    "unhashable": Spray(level=0, dim=1, coeff_fn=_Drag(0.5), tag="drag"),
}


@pytest.mark.parametrize("name", list(JOLT_SPRAYS))
def test_acceleration_jet_is_bitwise_the_dual_evaluation(name):
    s = JOLT_SPRAYS[name]
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.uniform(-2.0, 2.0, s.fiber_dim)
        v = rng.uniform(-2.0, 2.0, s.fiber_dim)
        if name in ("sphere", "lifted-sphere"):
            x[0] = rng.uniform(0.3, np.pi - 0.3)
        elif name == "pushed":
            x[:2] = rng.uniform(1.3, 2.0), rng.uniform(-0.9, 0.9)
        a, jolt = acceleration_jet(s, x.tolist(), v.tolist())
        want_a, want_jolt = _reference_acceleration_jet(s, x, v)
        assert np.array(a).tobytes() == want_a.tobytes()
        assert np.array(jolt).tobytes() == want_jolt.tobytes()
    # the jolt came from the lift's kernel, a traced program unless tracing is refused
    lift = complete_lift(s)
    assert (lift.kernel.__code__.co_filename == f"<{lift.tag} L{lift.level}>") \
        == (name != "refused-trace")


def test_acceleration_jet_traces_the_lift_once(monkeypatch):
    traces = []
    orig = spray_mod.compile_trace

    def counted(fn, n_pos, n_vel, filename):
        traces.append(filename)
        return orig(fn, n_pos, n_vel, filename)

    monkeypatch.setattr(spray_mod, "compile_trace", counted)
    s = make_finsler_example((0.7, -0.1))
    for k in range(3):
        acceleration_jet(s, [0.1, float(k)], [0.9, -0.4])
    assert traces == ["<finsler-example L0>", "<lifted(finsler-example) L1>"]
    lifted = complete_lift(s)
    assert vars(lifted)["kernel"].__code__.co_filename == "<lifted(finsler-example) L1>"
    acceleration_jet(s, [0.3, 0.2], [1.0, 0.5])
    assert len(traces) == 2


def test_riemannian_assembly_uses_christoffels():
    chris = spray_mod.round_sphere_christoffels(2)
    s = make_riemannian(chris, tag="sphere-by-hand")
    sph = make_sphere()
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = sphere_phase(rng)
        np.testing.assert_allclose(s.coeffs(p), sph.coeffs(p), rtol=1e-14)


def test_sphere_domain_guard():
    s = make_sphere()
    assert s.in_domain([1.0, 0.0])
    assert not s.in_domain([0.0, 0.0])
    assert not s.in_domain([np.pi, 0.0])
    with pytest.raises(DomainError):
        s.coeffs(JetPoint(1, 2, np.array([0.0, 0.0, 1.0, 0.0])))


def test_pushforward_spray_flat_through_shear():
    # straight lines map to parabolas; the pushed spray must bend them
    t = shear_chart()
    s = make_flat(2)
    pushed = pushforward_spray(t, s)
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_slashed_jet(rng, 1, 2)
        q = pushforward(t, p)
        x, v = q.coords[:2], q.coords[2:]
        # images of straight lines satisfy d2(x1)/dt2 = 2 (v2)^2, x2 linear
        acc = np.asarray(pushed.acceleration(x.tolist(), v.tolist()), dtype=float)
        np.testing.assert_allclose(acc, [2.0 * v[1] ** 2, 0.0], atol=1e-10)


def test_pushforward_spray_preserves_geodesic_images():
    from sprayjets import integrate

    t = shear_chart()
    s = make_flat(2)
    pushed = pushforward_spray(t, s)
    p = JetPoint(1, 2, np.array([0.2, -0.4, 1.0, 0.7]))
    tr_flat = integrate(s, p, (0.0, 1.0), 1e-2)
    tr_push = integrate(pushed, pushforward(t, p), (0.0, 1.0), 1e-2)
    mapped = np.stack([pushforward(t, JetPoint(1, 2, np.concatenate([x, v]))).coords
                       for x, v in zip(tr_flat.positions, tr_flat.velocities)])
    np.testing.assert_allclose(tr_push.positions, mapped[:, :2], atol=1e-9)
    np.testing.assert_allclose(tr_push.velocities, mapped[:, 2:], atol=1e-9)


def test_lift_tags_and_parents():
    s = make_sphere()
    lifted = complete_lift(s)
    assert "sphere" in lifted.tag
    back = project_spray(lifted)
    assert "sphere" in back.tag


def test_involution_symmetry_of_double_lift():
    # the doubly lifted coefficients are symmetric in the two middle blocks
    s = make_sphere()
    l2 = complete_lift(complete_lift(s))
    rng = np.random.default_rng(14)
    for _ in range(10):
        base = sphere_phase(rng)
        extra = 0.3 * rng.standard_normal(12)
        pos = np.concatenate([base.coords[:2], extra[:2], extra[2:4], extra[4:6]])
        vel = np.concatenate([base.coords[2:], extra[6:8], extra[8:10], extra[10:]])
        p = JetPoint(3, 2, np.concatenate([pos, vel]))
        q = dkappa(p)
        out_p = np.asarray(l2.coeffs(p), dtype=float)
        out_q = np.asarray(l2.coeffs(q), dtype=float)
        swapped = out_q.copy()
        swapped[2:4], swapped[4:6] = out_q[4:6].copy(), out_q[2:4].copy()
        np.testing.assert_allclose(out_p, swapped, atol=1e-12)

# --- round S^n in hyperspherical coordinates ---------------------------------


def _embed(theta):
    """The point of the unit sphere in R^(n+1) with hyperspherical coordinates ``theta``."""
    out, radius = [], 1.0
    for th in theta[:-1]:
        out.append(radius * jcos(th))
        radius = radius * jsin(th)
    return out + [radius * jcos(theta[-1]), radius * jsin(theta[-1])]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_sphere_great_circle(n):
    # A unit-speed geodesic is cos t * P + sin t * U in the embedding, with
    # P the start and U the velocity pushed into R^(n+1).  The start lies on
    # theta_1 = ... = theta_(n-1) = pi/2 with speed 0.8 in the longitude, so
    # the circle keeps prod sin(theta_j) >= 0.8, away from the chart's edge.
    s = make_round_sphere(n)
    tilt = np.random.default_rng(n).standard_normal(n - 1)
    theta = np.array([np.pi / 2] * (n - 1) + [0.3])
    v = np.concatenate([0.6 * tilt / np.linalg.norm(tilt), [0.8]])
    tr = integrate(s, JetPoint(1, n, np.concatenate([theta, v])), (0.0, 2 * np.pi), 1e-3)
    assert tr.exit_reason is None
    start = _embed([Dual(a, b) for a, b in zip(theta, v)])
    p, u = np.array([jet_re(z) for z in start]), np.array([jet_du(z) for z in start])
    curve = np.array([_embed(list(x)) for x in tr.positions])
    circle = np.cos(tr.times)[:, None] * p + np.sin(tr.times)[:, None] * u
    assert np.max(np.abs(curve - circle)) < 1e-9


def test_round_two_sphere_is_the_sphere():
    rng = np.random.default_rng(8)
    round2, sphere = make_round_sphere(2), make_sphere()
    for _ in range(20):
        p = sphere_phase(rng).coords.tolist()
        assert round2.kernel(p[:2], p[2:]) == sphere.kernel(p[:2], p[2:])
        lifted = (p[:2] + p[2:], p[2:] + [0.3, -0.1])
        assert complete_lift(round2).kernel(*lifted) == complete_lift(sphere).kernel(*lifted)
    assert not round2.in_domain([0.0, 1.0]) and round2.in_domain([1.0, 7.0])
    with pytest.raises(InvalidLevelError):
        make_round_sphere(0)


# --- pushed sprays against the Dual path ----------------------------------


def _dual_pushed(t, s: Spray) -> Spray:
    """``pushforward_spray(t, s)`` on the Dual path alone, the reference.

    Both chart jets run nested Duals, the base coefficients come from
    ``coeff_fn``, and the domain pulls the base list back.  The
    coefficient reads a value, so its trace is refused and the kernel
    runs this Dual path too.
    """

    def jets(fn, coords, level):
        return unnest(fn(nest(coords, level)), level)

    def coeff(pos, vel):
        float(pos[0])  # refuses tracing
        coords = list(pos) + list(vel)
        back = jets(t.inverse, coords, s.level + 1)
        n = len(pos)
        bpos, bvel = back[:n], back[n:]
        g = s.coeff_fn(bpos, bvel)
        value = list(back) + list(bvel) + [-2.0 * gi for gi in g]
        pushed = jets(t.forward, value, s.level + 2)
        return [-0.5 * z for z in pushed[3 * n:]]

    def domain(x):
        return s.in_domain(t.inverse(x))

    return Spray(level=s.level, dim=s.dim, coeff_fn=coeff, tag="dual-pushed",
                 domain=None if s.domain is None else domain)


PUSHED_BASES = {
    "sphere": make_sphere(),
    "finsler": make_finsler_example((0.3, -0.2)),
    "lifted-sphere": complete_lift(make_sphere()),
}


@pytest.mark.parametrize("name", list(PUSHED_BASES))
def test_pushed_accelerations_are_bitwise_the_dual_coefficient(name):
    s, t = PUSHED_BASES[name], shear_chart()
    pushed, dual = pushforward_spray(t, s), _dual_pushed(t, s)
    # the reference runs the Dual path: its kernel is no traced program
    assert getattr(dual.kernel, "tape", None) is None
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, s.fiber_dim)
        v = rng.uniform(-2.0, 2.0, s.fiber_dim)
        x[:2] = rng.uniform(1.3, 2.0), rng.uniform(-0.9, 0.9)
        want = -2.0 * np.asarray(dual.coeff_fn(x.tolist(), v.tolist()), dtype=float)
        assert np.array(pushed.acceleration(x.tolist(), v.tolist())).tobytes() == want.tobytes()
        # numpy entries take the Dual path of the chart jets
        assert np.asarray(pushed.coeff_fn(x, v), dtype=float).tobytes() \
            == np.asarray(dual.coeff_fn(x, v), dtype=float).tobytes()
        assert pushed.in_domain(x) == dual.in_domain(x)


PUSHED_STARTS = [[1.2, 0.3, 0.4, 1.1],   # an arc that stays in the chart
                 [1.0, 0.0, 1.0, 0.0]]   # a meridian that reaches the pole


def _assert_pushed_run_is_the_dual_run(t, start):
    s = make_sphere()
    init = pushforward(t, JetPoint(1, 2, np.array(start)))
    dual = _dual_pushed(t, s)
    assert getattr(dual.kernel, "tape", None) is None
    runs = [integrate(sp, init, (0.0, 2.5), 1e-2) for sp in (pushforward_spray(t, s), dual)]
    # the meridian (start[1] == 0.0) leaves the chart at the pole
    assert runs[0].exit_reason == runs[1].exit_reason == (None if start[1] else "domain")
    for field in ("times", "positions", "velocities", "accelerations"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()


@pytest.mark.parametrize("start", PUSHED_STARTS)
def test_pushed_geodesic_is_bitwise_the_dual_run(start):
    _assert_pushed_run_is_the_dual_run(shear_chart(), start)


def test_pushed_geodesic_runs_the_inlining_loop():
    pushed = pushforward_spray(shear_chart(), make_sphere())
    assert pushed.kernel.tape is not None
    loop = geodesic._run_loop(pushed, pushed.acceleration, 2)
    assert loop is not geodesic._calling(2, 2)
    assert loop.__code__.co_filename.startswith(f"<rk4 loop {pushed.tag} L0>")


def _primal(z):
    while isinstance(z, Dual):
        z = z.re
    return z


def _guarded_shear():
    """``shear_chart()`` whose maps compare a primal value: tracing them is refused."""
    t = shear_chart()

    def guarded(fn):
        def checked(x):
            if not -1e150 < _primal(x[1]) < 1e150:
                raise DomainError("shear coordinate out of range")
            return fn(x)
        return checked

    return replace(t, forward=guarded(t.forward), inverse=guarded(t.inverse), name="guarded-shear")


@pytest.mark.parametrize("start", PUSHED_STARTS)
def test_refused_chart_keeps_an_untraced_pushed_kernel(start):
    t = _guarded_shear()
    pushed = pushforward_spray(t, make_sphere())
    assert getattr(pushed.kernel, "tape", None) is None
    assert geodesic._run_loop(pushed, pushed.acceleration, 2) is geodesic._calling(2, 2)
    _assert_pushed_run_is_the_dual_run(t, start)
