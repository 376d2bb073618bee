"""Block indexing, involutions, projections, and chart transport."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayjets import (ChartTransition, DomainError, InvalidLevelError, JetPoint, clift,
                       clift_fn, ddproject, dkappa, dproject, identity_chart,
                       inverse_transition, is_slashed, jet_apply, kappa,
                       liouville, project, pushforward, shear_chart, vlift,
                       vlift_fn)
from sprayjets import jets as jets_mod
from sprayjets import jetspace as jetspace_mod
from sprayjets.jets import jet_re, jexp, jlog, nest, unnest
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


def test_repr_prints_plain_floats():
    p = JetPoint(1, 2, [1, 2, 3, 4])
    assert repr(p) == "JetPoint(level=1, dim=2, blocks=[(1.0, 2.0), (3.0, 4.0)])"


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


def test_lift_fn_values():
    def f(c):
        return c[0] * c[0] * c[1]

    p = JetPoint(1, 2, [1.0, 2.0, 0.5, -1.0])
    assert vlift_fn(f, p) == 2.0
    # the derivative 2 x0 x1 dx0 + x0^2 dx1 along (0.5, -1)
    assert clift_fn(f, p) == 1.0


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


@pytest.mark.parametrize("lift", [vlift, clift])
def test_lift_rejects_a_coordinate_count_off_the_levels(lift):
    # three blocks of two coordinates are no level of a 2-dimensional chart
    with pytest.raises(InvalidLevelError, match="power-of-two"):
        lift(lambda c: c[0], 2)([1.0] * 6)


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


def test_pushforward_rejects_a_dimension_mismatch_and_points_off_its_domain():
    with pytest.raises(InvalidLevelError, match="dimension"):
        pushforward(shear_chart(), JetPoint(1, 3, np.ones(6)))
    upper = replace(shear_chart(), domain=lambda x: x[1] > 0.0)
    inside = JetPoint(1, 2, np.array([0.0, 1.0, 1.0, 0.0]))
    want = pushforward(shear_chart(), inside).coords
    assert pushforward(upper, inside).coords.tolist() == want.tolist()
    with pytest.raises(DomainError, match="transition domain"):
        pushforward(upper, JetPoint(1, 2, np.array([0.0, -1.0, 1.0, 0.0])))


def test_jet_apply_rejects_a_negative_level():
    # used to raise a bare ValueError (negative shift count) from dim_in << level
    with pytest.raises(InvalidLevelError):
        jet_apply(shear_chart().forward, [1.0, 2.0], -1, 2, 2)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
@pytest.mark.parametrize("values", [lambda x: [*x, x[0]], lambda x: x[:1]])
def test_jet_apply_rejects_a_wrong_value_count(values, level):
    # extra values used to be dropped, missing ones raised IndexError
    for _ in range(2):
        with pytest.raises(InvalidLevelError):
            jet_apply(values, [1.0] * (2 << level), level, 2, 2)


# --- jet_apply on floats ----------------------------------------------------
#
# jet_apply has one path, the Dual evaluation; the reference below is that
# evaluation, written out, so any faster float path must match it bitwise.


def _dual_jet_apply(fn, coords, level):
    return unnest(fn(nest(coords, level)), level)


def _outcome(fn, *args):
    """The result bytes, or the type of the exception raised."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _fold(x):
    """(|x1|, x2): a chart that branches on the primal value of its first coordinate."""
    primal = x[0]
    while primal is not jet_re(primal):
        primal = jet_re(primal)
    return [x[0] if primal >= 0.0 else -x[0], x[1]]


@dataclass
class _Scaled:
    """A chart map with value equality, hence unhashable and not weakly keyed."""

    c: float

    def __call__(self, x):
        return [self.c * x[0] * x[1], x[1]]


CHART_MAPS = {
    "shear": shear_chart().forward,
    "shear-inverse": shear_chart().inverse,
    "identity": identity_chart(2).forward,
    "inverse-of-shear": inverse_transition(shear_chart()).forward,
    "exp": exp_chart().forward,
    # the log of a non-positive first coordinate raises ValueError on both paths
    "exp-inverse": exp_chart().inverse,
    # a branch on a primal value, and a map that can be neither hashed nor weakly keyed
    "fold": _fold,
    "scaled": _Scaled(2.0),
}


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("name", list(CHART_MAPS))
def test_float_jet_apply_is_bitwise_the_dual_evaluation(name, level):
    fn = CHART_MAPS[name]

    @settings(max_examples=30)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=2 << level, max_size=2 << level))
    def check(coords):
        want = _outcome(_dual_jet_apply, fn, coords, level)
        assert _outcome(jet_apply, fn, coords, level, 2, 2) == want

    check()


class _Cubic:
    def cube(self, x):
        return [x[0] * x[0] * x[0], x[1] - x[0]]


def test_jet_apply_never_traces(monkeypatch):
    def refused(*args):
        raise AssertionError("jet_apply traced its map")

    monkeypatch.setattr(jets_mod, "compile_trace", refused)
    monkeypatch.setattr(jetspace_mod, "compile_trace", refused, raising=False)

    def cube(x):
        return [x[0] * x[0] * x[0], x[1] - x[0]]

    # obj.cube is a new bound method at each access; _Scaled is unhashable
    obj = _Cubic()
    for fn in (cube, obj.cube, _Scaled(2.0)):
        for level in (0, 1, 2):
            coords = [0.3] * (2 << level)
            want = np.array(_dual_jet_apply(fn, coords, level)).tobytes()
            for entries in (coords, np.array(coords)):
                assert np.array(jet_apply(fn, entries, level, 2, 2)).tobytes() == want
        jet_apply(fn, nest([0.3] * 8, 1), 1, 2, 2)


def test_jet_apply_reads_a_chart_constant_at_every_call():
    # the chart's constants used to be frozen at its first float call
    k = [2.0]
    t = ChartTransition(dim=2, forward=lambda x: [k[0] * x[0], x[1]],
                        inverse=lambda y: [y[0] / k[0], y[1]],
                        jacobian=None, hessian=None, name="scale")
    p = JetPoint(1, 2, np.ones(4))
    assert jet_apply(t.forward, [1.0] * 4, 1, 2, 2) == [2.0, 1.0, 2.0, 1.0]
    assert pushforward(t, p).coords.tolist() == [2.0, 1.0, 2.0, 1.0]
    k[0] = 3.0
    assert jet_apply(t.forward, [1.0] * 4, 1, 2, 2) == [3.0, 1.0, 3.0, 1.0]
    assert pushforward(t, p).coords.tolist() == [3.0, 1.0, 3.0, 1.0]


@pytest.mark.parametrize("chart", [shear_chart, lambda: identity_chart(2), exp_chart])
@pytest.mark.parametrize("level", [1, 2])
def test_pushforward_is_bitwise_the_dual_path_on_numpy_entries(chart, level):
    # pushforward hands jet_apply Python floats; the reference runs Duals of np.float64
    t = chart()
    rng = np.random.default_rng(9)
    for _ in range(20):
        p = random_jet(rng, level, 2)
        want = np.asarray(_dual_jet_apply(t.forward, list(p.coords), level), dtype=float)
        assert pushforward(t, p).coords.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", [0, 1, 2])
def test_pushforward_coordinates_are_jet_apply_read_only(level):
    # the list jet_apply returns becomes the JetPoint's array in one conversion
    t = exp_chart()
    p = random_jet(np.random.default_rng(level), level, 2)
    got = pushforward(t, p).coords
    want = np.asarray(jet_apply(t.forward, p.coords.tolist(), level, 2, 2), dtype=float)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0] = 0.0


def test_pushforward_through_a_pole_raises_zero_division():
    # float arithmetic raises where np.float64 arithmetic gave inf
    t = ChartTransition(dim=2, forward=lambda x: [1.0 / x[0], x[1]],
                        inverse=lambda y: [1.0 / y[0], y[1]],
                        jacobian=None, hessian=None, name="reciprocal")
    with pytest.raises(ZeroDivisionError):
        pushforward(t, JetPoint(1, 2, np.array([0.0, 1.0, 1.0, 0.0])))
