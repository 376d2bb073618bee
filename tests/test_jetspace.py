"""Block indexing, involutions, projections, and chart transport."""

import numpy as np
import pytest

from sprayjets import (ChartTransition, DomainError, InvalidLevelError, JetPoint, clift,
                       clift_fn, ddproject, dkappa, dproject, identity_chart,
                       inverse_transition, is_slashed, jet_apply, kappa,
                       liouville, project, pushforward, shear_chart, vlift,
                       vlift_fn)
from sprayjets.jets import jexp, jlog
from sprayjets.samples import random_jet, random_slashed_jet


def test_jetpoint_validation():
    JetPoint(2, 1, np.arange(4.0))
    with pytest.raises(InvalidLevelError):
        JetPoint(2, 1, np.arange(5.0))
    with pytest.raises(InvalidLevelError):
        JetPoint(-1, 1, np.arange(1.0))
    with pytest.raises(InvalidLevelError):
        JetPoint(1, 0, np.arange(2.0))


def test_blocks_by_mask():
    p = JetPoint(2, 2, np.arange(8.0))
    np.testing.assert_array_equal(p.block(0), [0.0, 1.0])
    np.testing.assert_array_equal(p.block(1), [2.0, 3.0])
    np.testing.assert_array_equal(p.block(2), [4.0, 5.0])
    np.testing.assert_array_equal(p.block(3), [6.0, 7.0])
    np.testing.assert_array_equal(p.base_block(), [0.0, 1.0])
    with pytest.raises(ValueError):
        p.block(4)


def test_coords_read_only():
    p = JetPoint(1, 1, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        p.coords[0] = 5.0


def test_involution_level2():
    p = JetPoint(2, 1, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(kappa(p).coords, [1.0, 3.0, 2.0, 4.0])


def test_involution_level3_block_order():
    # swapping the two outermost levels permutes the eight blocks as
    # 1,2,5,6,3,4,7,8 in reading order
    p = JetPoint(3, 1, np.arange(1.0, 9.0))
    np.testing.assert_array_equal(kappa(p).coords,
                                  [1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0])


def test_involution_level1_is_identity():
    p = JetPoint(1, 3, np.arange(6.0))
    np.testing.assert_array_equal(kappa(p).coords, p.coords)


def test_projection_is_first_half():
    p = JetPoint(2, 2, np.arange(8.0))
    q = project(p)
    assert q.level == 1
    np.testing.assert_array_equal(q.coords, np.arange(4.0))
    with pytest.raises(InvalidLevelError):
        project(JetPoint(0, 2, np.arange(2.0)))


def test_dproject_selects_outer_tangent():
    p = JetPoint(2, 1, np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_array_equal(dproject(p).coords, [1.0, 3.0])


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_involution_squares_to_identity(level, dim):
    rng = np.random.default_rng(level * 10 + dim)
    for _ in range(25):
        p = random_jet(rng, level, dim)
        np.testing.assert_array_equal(kappa(kappa(p)).coords, p.coords)


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_projection_involution_identities(level, dim):
    # the permutation identities hold exactly, coordinate by coordinate
    rng = np.random.default_rng(level * 100 + dim)
    for _ in range(25):
        p = random_jet(rng, level, dim)
        np.testing.assert_array_equal(project(dkappa(p)).coords,
                                      kappa(project(p)).coords)
        np.testing.assert_array_equal(dproject(p).coords,
                                      project(kappa(p)).coords)
        np.testing.assert_array_equal(project(dproject(p)).coords,
                                      project(project(p)).coords)
        np.testing.assert_array_equal(project(project(kappa(p))).coords,
                                      project(project(p)).coords)


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_second_tangent_identities(level, dim):
    rng = np.random.default_rng(level * 7 + dim)
    for _ in range(25):
        p = random_jet(rng, level, dim)
        np.testing.assert_array_equal(dproject(project(p)).coords,
                                      project(ddproject(p)).coords)
        np.testing.assert_array_equal(ddproject(kappa(p)).coords,
                                      kappa(ddproject(p)).coords)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_liouville_section_identity(level):
    rng = np.random.default_rng(level)
    for dim in (1, 2, 3):
        for _ in range(10):
            p = random_jet(rng, level, dim)
            e = liouville(p)
            assert e.level == level + 1
            np.testing.assert_array_equal(e.block(1 << level), np.zeros(dim))
            np.testing.assert_array_equal(dproject(kappa(e)).coords, p.coords)


def test_liouville_fiber_blocks():
    p = JetPoint(1, 1, np.array([2.0, 5.0]))
    np.testing.assert_array_equal(liouville(p).coords, [2.0, 5.0, 0.0, 5.0])


def test_is_slashed_threshold():
    assert is_slashed(JetPoint(1, 2, np.array([0.0, 0.0, 1e-9, 0.0])))
    assert not is_slashed(JetPoint(1, 2, np.array([0.0, 0.0, 1e-11, 0.0])))
    assert not is_slashed(JetPoint(2, 1, np.array([1.0, 5.0, 0.0, 5.0])))


def test_dkappa_is_tangent_of_kappa():
    # the tangent map of a block permutation permutes both halves alike
    rng = np.random.default_rng(0)
    for level in (2, 3, 4):
        p = random_jet(rng, level, 2)
        half = p.coords.size // 2
        down = kappa(JetPoint(level - 1, 2, p.coords[:half]))
        up = kappa(JetPoint(level - 1, 2, p.coords[half:]))
        np.testing.assert_array_equal(dkappa(p).coords,
                                      np.concatenate([down.coords, up.coords]))


def test_vertical_and_complete_lift_values():
    def f(c):
        return c[0] * c[1]

    p = np.array([1.0, 2.0, 3.0, 4.0])
    assert vlift(f, 2)(p) == 2.0
    assert clift(f, 2)(p) == 2.0 * 3.0 + 1.0 * 4.0


def test_lift_fn_requires_slashed():
    def f(c):
        return c[0]

    p = JetPoint(1, 2, np.array([1.0, 2.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        vlift_fn(f, p)
    with pytest.raises(DomainError):
        clift_fn(f, p)


@pytest.mark.parametrize("lift", [vlift, clift])
def test_lift_rejects_level_zero_coordinates(lift):
    # used to raise a bare ValueError (negative shift count) from the involution
    with pytest.raises(InvalidLevelError):
        lift(lambda c: c[0], 2)([1.0, 2.0])


def test_clift_matches_directional_derivative():
    import math

    from sprayjets.jets import jsin

    rng = np.random.default_rng(5)

    def f(c):
        return jsin(c[0]) + c[0] * c[1] ** 2

    lifted = clift(f, 2)
    for _ in range(50):
        p = random_slashed_jet(rng, 1, 2)
        x, y = p.coords[:2], p.coords[2:]
        grad = np.array([math.cos(x[0]) + x[1] ** 2, 2.0 * x[0] * x[1]])
        np.testing.assert_allclose(lifted(p.coords), grad @ y, rtol=1e-12)


def test_pushforward_shear_chart_frozen():
    t = shear_chart()
    p = JetPoint(1, 2, np.array([1.0, 1.0, 0.0, 1.0]))
    np.testing.assert_allclose(pushforward(t, p).coords, [2.0, 1.0, 2.0, 1.0],
                               atol=1e-14)


def test_pushforward_level2_hessian_term():
    # second-order blocks pick up the chart curvature
    t = shear_chart()
    p = JetPoint(2, 2, np.array([1.0, 1.0, 0.0, 1.0, 1.0, 2.0, 0.5, 0.5]))
    x, y, big_x, big_y = p.coords[:2], p.coords[2:4], p.coords[4:6], p.coords[6:]
    jac = t.jacobian(x)
    hess = t.hessian(x)
    expect = np.concatenate([
        t.forward(x), jac @ y, jac @ big_x,
        jac @ big_y + np.einsum("ijk,j,k->i", hess, y, big_x),
    ])
    np.testing.assert_allclose(pushforward(t, p).coords, expect, atol=1e-13)


def test_pushforward_commutes_with_involution():
    t = shear_chart()
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_jet(rng, 2, 2)
        left = pushforward(t, kappa(p)).coords
        right = kappa(pushforward(t, p)).coords
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_inverse_transition_round_trip():
    t = shear_chart()
    inv = inverse_transition(t)
    rng = np.random.default_rng(3)
    for level in (1, 2):
        for _ in range(20):
            p = random_jet(rng, level, 2)
            back = pushforward(inv, pushforward(t, p))
            np.testing.assert_allclose(back.coords, p.coords, atol=1e-10)


def exp_chart() -> ChartTransition:
    """Triangular chart (x1, x2) -> (exp(x1), x2 + x1**2); its Jacobian and Hessian vary."""

    def jac(x):
        return np.array([[np.exp(x[0]), 0.0], [2.0 * x[0], 1.0]])

    def hess(x):
        out = np.zeros((2, 2, 2))
        out[0, 0, 0], out[1, 0, 0] = np.exp(x[0]), 2.0
        return out

    return ChartTransition(dim=2, forward=lambda x: [jexp(x[0]), x[1] + x[0] * x[0]],
                           inverse=lambda y: [jlog(y[0]), y[1] - jlog(y[0]) * jlog(y[0])],
                           jacobian=jac, hessian=hess, name="exp")


@pytest.mark.parametrize("chart", [shear_chart, exp_chart])
def test_inverse_transition_derivatives_match_jet_apply(chart):
    # the inverse's analytic derivatives against the tangent blocks of
    # jet_apply on the inverse map: D g from levels 1 and 2, D^2 g from level 2
    t = chart()
    inv = inverse_transition(t)
    rng = np.random.default_rng(5)
    eye = np.eye(2).tolist()
    for _ in range(10):
        y = [float(z) for z in t.forward(rng.uniform(-1.0, 1.0, 2).tolist())]
        lvl1 = np.column_stack([jet_apply(t.inverse, y + e, 1, 2, 2)[2:] for e in eye])
        np.testing.assert_allclose(inv.jacobian(y), lvl1, rtol=1e-12, atol=1e-12)
        hess = np.empty((2, 2, 2))
        for j, a in enumerate(eye):
            for k, b in enumerate(eye):
                out = jet_apply(t.inverse, y + a + b + [0.0, 0.0], 2, 2, 2)
                np.testing.assert_allclose(inv.jacobian(y) @ b, out[4:6], rtol=1e-12, atol=1e-12)
                hess[:, j, k] = out[6:]
        assert np.any(hess != 0.0)
        np.testing.assert_allclose(inv.hessian(y), hess, rtol=1e-12, atol=1e-12)


def test_identity_chart_is_identity():
    t = identity_chart(3)
    p = JetPoint(2, 3, np.random.default_rng(1).standard_normal(12))
    np.testing.assert_allclose(pushforward(t, p).coords, p.coords, atol=1e-15)


def test_jet_apply_respects_level_zero():
    t = shear_chart()
    out = jet_apply(t.forward, np.array([1.0, 1.0]), 0, 2, 2)
    np.testing.assert_allclose(out, [2.0, 1.0])


@pytest.mark.parametrize("coords, level", [([1, 2, 3, 4, 99, 98], 1), ([1, 2, 3], 1),
                                           ([1, 2, 3], 0), ([1], 0), ([1, 2, 3, 4], 2)])
def test_jet_apply_rejects_a_wrong_coordinate_count(coords, level):
    # extra coordinates used to be dropped, missing ones raised IndexError
    with pytest.raises(InvalidLevelError):
        jet_apply(shear_chart().forward, coords, level, 2, 2)


def test_jet_apply_rejects_a_negative_level():
    # used to raise a bare ValueError (negative shift count) from dim_in << level
    with pytest.raises(InvalidLevelError):
        jet_apply(shear_chart().forward, [1.0, 2.0], -1, 2, 2)


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("values", [lambda x: [*x, x[0]], lambda x: x[:1]])
def test_jet_apply_rejects_a_wrong_value_count(values, level):
    # extra values used to be dropped, missing ones raised IndexError
    with pytest.raises(InvalidLevelError):
        jet_apply(values, [1.0] * (2 << level), level, 2, 2)
