"""Nested function lifts and their commutation identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayjets import (JetPoint, clift, ddproject, dkappa, dproject, jet_apply, kappa, liouville,
                       project, vlift)
from sprayjets.jets import Dual, jcos, jet_du, jet_re, jexp, jsin, nest, unnest
from sprayjets.jetspace import _kappa_idx, _level_of, _take
from sprayjets.samples import random_slashed_jet
from sprayjets.spray import dual_lift


def poly(c):
    return c[0] ** 2 * c[1] + c[1] ** 3


def trig(c):
    return jsin(c[0]) * jcos(c[1])


def mixed(c):
    return jexp(c[0] * 0.3) + c[0] * c[1] ** 2


FUNCTIONS = [poly, trig, mixed]


def analytic_blocks(f, grad, hess, p):
    """Expected values of the four nested lifts at a level-2 point."""
    x, y, big_x, big_y = (p.coords[:2], p.coords[2:4],
                          p.coords[4:6], p.coords[6:])
    return {
        "vv": f(x),
        "cv": grad(x) @ big_x,
        "vc": grad(x) @ y,
        "cc": y @ hess(x) @ big_x + grad(x) @ big_y,
    }


def test_nested_lifts_against_analytic_derivatives():
    def grad(x):
        return np.array([2 * x[0] * x[1], x[0] ** 2 + 3 * x[1] ** 2])

    def hess(x):
        return np.array([[2 * x[1], 2 * x[0]], [2 * x[0], 6 * x[1]]])

    rng = np.random.default_rng(2)
    fvv = vlift(vlift(poly, 2), 2)
    fcv = vlift(clift(poly, 2), 2)
    fvc = clift(vlift(poly, 2), 2)
    fcc = clift(clift(poly, 2), 2)
    for _ in range(50):
        p = random_slashed_jet(rng, 2, 2)
        want = analytic_blocks(poly, grad, hess, p)
        np.testing.assert_allclose(fvv(p.coords), want["vv"], rtol=1e-12)
        np.testing.assert_allclose(fcv(p.coords), want["cv"], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(fvc(p.coords), want["vc"], rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(fcc(p.coords), want["cc"], rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("f", FUNCTIONS)
def test_lift_commutation_under_involution(f):
    # f^{vv} and f^{cc} are involution-invariant; the mixed lifts swap
    rng = np.random.default_rng(hash(f.__name__) % 2**32)
    fvv = vlift(vlift(f, 2), 2)
    fvc = clift(vlift(f, 2), 2)
    fcv = vlift(clift(f, 2), 2)
    fcc = clift(clift(f, 2), 2)
    for _ in range(100):
        p = random_slashed_jet(rng, 2, 2)
        q = kappa(p)
        assert abs(fvv(p.coords) - fvv(q.coords)) <= 1e-12
        assert abs(fvc(p.coords) - fcv(q.coords)) <= 1e-12
        assert abs(fcc(p.coords) - fcc(q.coords)) <= 1e-12


@pytest.mark.parametrize("f", FUNCTIONS)
def test_lift_commutation_one_level_up(f):
    # with a passive level underneath, the conjugating map is the tangent
    # of the involution one level down, not the outermost involution
    rng = np.random.default_rng(1 + hash(f.__name__) % 2**32)
    g = clift(f, 2)
    gvv = vlift(vlift(g, 2), 2)
    gvc = clift(vlift(g, 2), 2)
    gcv = vlift(clift(g, 2), 2)
    gcc = clift(clift(g, 2), 2)
    for _ in range(30):
        p = random_slashed_jet(rng, 3, 2)
        q = dkappa(p)
        assert abs(gvv(p.coords) - gvv(q.coords)) <= 1e-12
        assert abs(gvc(p.coords) - gcv(q.coords)) <= 1e-12
        assert abs(gcc(p.coords) - gcc(q.coords)) <= 1e-12


def test_dual_arithmetic_basics():
    a = Dual(2.0, 3.0)
    b = Dual(5.0, 7.0)
    assert (a * b).re == 10.0 and (a * b).du == 2.0 * 7.0 + 3.0 * 5.0
    assert (a / b).re == 0.4
    np.testing.assert_allclose((a / b).du, (3.0 * 5.0 - 2.0 * 7.0) / 25.0)
    assert (a ** 2).re == 4.0 and (a ** 2).du == 12.0
    c = a.sqrt()
    np.testing.assert_allclose(c.re ** 2, 2.0)
    np.testing.assert_allclose(2.0 * c.re * c.du, 3.0)


def test_dual_repr_and_dual_exponent():
    assert repr(Dual(1.0, 2.0)) == "Dual(1.0, 2.0)"
    with pytest.raises(TypeError):
        Dual(1.0, 1.0) ** Dual(2.0, 0.0)


def test_dual_nesting_second_derivative():
    # two layers recover f'' of a scalar function
    x = Dual(Dual(1.5, 1.0), Dual(1.0, 0.0))
    y = x * x * x
    assert y.re.re == 1.5 ** 3
    np.testing.assert_allclose(y.re.du, 3 * 1.5 ** 2)
    np.testing.assert_allclose(y.du.re, 3 * 1.5 ** 2)
    np.testing.assert_allclose(y.du.du, 6 * 1.5)


def test_jet_apply_two_levels_matches_blockwise_rule():
    def square_map(c):
        return np.array([c[0] ** 2, c[0] * c[1]])

    p = JetPoint(2, 2, np.array([1.0, 2.0, 0.5, -1.0, 2.0, 0.0, 0.3, 0.7]))
    x, y, big_x, big_y = (p.coords[:2], p.coords[2:4],
                          p.coords[4:6], p.coords[6:])
    jac = lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]]])
    hess = np.zeros((2, 2, 2))
    hess[0, 0, 0] = 2.0
    hess[1, 0, 1] = hess[1, 1, 0] = 1.0
    expect = np.concatenate([
        square_map(x), jac(x) @ y, jac(x) @ big_x,
        jac(x) @ big_y + np.einsum("ijk,j,k->i", hess, y, big_x),
    ])
    got = jet_apply(square_map, p.coords, 2, 2, 2)
    np.testing.assert_allclose(got, expect, atol=1e-13)


def test_double_complete_lift_against_finite_differences():
    # independent oracle: difference the once-lifted function along the
    # swapped-in direction instead of using a second dual layer
    rng = np.random.default_rng(9)
    eps = 1e-6
    for f in FUNCTIONS:
        fc = clift(f, 2)
        fcc = clift(clift(f, 2), 2)
        for _ in range(10):
            p = random_slashed_jet(rng, 2, 2)
            q = kappa(p).coords
            base, direction = q[:4], q[4:]
            fd = (fc(base + eps * direction) - fc(base - eps * direction)) / (2 * eps)
            np.testing.assert_allclose(fcc(p.coords), fd, rtol=1e-7, atol=1e-7)

# --- one packing ------------------------------------------------------------
#
# Copies of the three packings that nest and unnest replaced, as they were:
# jet_apply's recursive closures, clift's one-level pack and dual_lift's
# pairs of halves.


def _old_jet_apply(fn, coords, level, dim_in, dim_out):
    def pack(j, mask, bit):
        if bit < 0:
            return coords[mask * dim_in + j]
        return Dual(pack(j, mask, bit - 1), pack(j, mask | (1 << bit), bit - 1))

    vals = fn([pack(j, 0, level - 1) for j in range(dim_in)])
    out = [None] * ((1 << level) * dim_out)

    def unpack(z, j, mask, bit):
        if bit < 0:
            out[mask * dim_out + j] = z
            return
        unpack(jet_re(z), j, mask, bit - 1)
        unpack(jet_du(z), j, mask | (1 << bit), bit - 1)

    for j in range(dim_out):
        unpack(vals[j], j, 0, level - 1)
    return out


def _old_clift(f, dim):
    def fc(coords):
        q = _take(coords, _kappa_idx(_level_of(len(coords), dim), dim))
        half = len(q) // 2
        return jet_du(f([Dual(q[i], q[half + i]) for i in range(half)]))

    return fc


def _old_dual_lift(parent_fn):
    def on_duals(pos, vel):
        half = len(pos) // 2
        out = parent_fn([Dual(pos[i], pos[half + i]) for i in range(half)],
                        [Dual(vel[i], vel[half + i]) for i in range(half)])
        return [jet_re(z) for z in out] + [jet_du(z) for z in out]

    return on_duals


def _mix(c):
    # products of different coordinates, so that mixed components depend on
    # which layer is outermost, down to the last bit
    n = len(c)
    return [jsin(c[i]) * c[(i + 1) % n] + c[i] * c[i] * c[(i + 2) % n] / (2.0 + c[(i + 1) % n] ** 2)
            for i in range(n)]


def _scalar(c):
    acc = 0.0
    for z in _mix(c):
        acc = acc + z
    return acc


def _coeffs(pos, vel):
    return [m * vel[i] * vel[(i + 1) % len(vel)] + jcos(pos[i]) for i, m in enumerate(_mix(pos))]


def _bits(z):
    """A value, nested Duals included, as nested pairs of float bytes."""
    if isinstance(z, Dual):
        return _bits(z.re), _bits(z.du)
    return np.float64(z).tobytes()


def _same(new, old):
    assert type(new) is type(old)
    if isinstance(new, list):
        assert [_bits(z) for z in new] == [_bits(z) for z in old]
    else:
        assert _bits(new) == _bits(old)


@st.composite
def _layouts(draw, min_level):
    """Level, dimension and block-layout coordinates; Dual entries carry a lower lift."""
    level = draw(st.integers(min_level, 4))
    dim = draw(st.integers(1, 3))
    n = dim << level
    x = st.floats(-2.0, 2.0)
    coords = draw(st.lists(x, min_size=n, max_size=n))
    if draw(st.booleans()):
        coords = [Dual(c, d) for c, d in zip(coords, draw(st.lists(x, min_size=n, max_size=n)))]
    return level, dim, coords


@settings(max_examples=150)
@given(_layouts(0))
def test_jet_apply_is_bitwise_the_old_packing(layout):
    level, dim, coords = layout
    assert [_bits(z) for z in unnest(nest(coords, level), level)] == [_bits(z) for z in coords]
    _same(jet_apply(_mix, coords, level, dim, dim), _old_jet_apply(_mix, coords, level, dim, dim))


@settings(max_examples=150)
@given(_layouts(1))
def test_clift_is_bitwise_the_old_packing(layout):
    level, dim, coords = layout
    _same(clift(_scalar, dim)(coords), _old_clift(_scalar, dim)(coords))
    if level >= 2:
        _same(clift(clift(_scalar, dim), dim)(coords),
              _old_clift(_old_clift(_scalar, dim), dim)(coords))


@settings(max_examples=150)
@given(_layouts(1), st.data())
def test_dual_lift_is_bitwise_the_old_packing(layout, data):
    level, _, pos = layout
    vel = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(pos), max_size=len(pos)))
    _same(dual_lift(_coeffs)(pos, vel), _old_dual_lift(_coeffs)(pos, vel))
    if level >= 2:
        _same(dual_lift(dual_lift(_coeffs))(pos, vel),
              _old_dual_lift(_old_dual_lift(_coeffs))(pos, vel))


# name -> (lowest level, pair of maps that must agree exactly)
IDENTITIES = {
    "involution squares": (1, lambda p: (kappa(kappa(p)), p)),
    "projection swap": (2, lambda p: (project(dkappa(p)), kappa(project(p)))),
    "tangent projection": (2, lambda p: (dproject(p), project(kappa(p)))),
    "double projection": (2, lambda p: (project(dproject(p)), project(project(p)))),
    "projection mixing": (3, lambda p: (dproject(project(p)), project(ddproject(p)))),
    "outer involution": (3, lambda p: (ddproject(kappa(p)), kappa(ddproject(p)))),
    "projection collapse": (2, lambda p: (project(project(kappa(p))), project(project(p)))),
    "section retraction": (1, lambda p: (dproject(kappa(liouville(p))), p)),
}


@settings(max_examples=300)
@given(st.sampled_from(sorted(IDENTITIES)), st.data())
def test_block_permutation_identities_hold_exactly(name, data):
    lowest, pair = IDENTITIES[name]
    level = data.draw(st.integers(lowest, 5))
    dim = data.draw(st.integers(1, 4))
    n = dim << level
    coords = data.draw(st.lists(st.floats(allow_nan=False), min_size=n, max_size=n))
    left, right = pair(JetPoint(level, dim, coords))
    assert (left.level, left.dim) == (right.level, right.dim)
    assert left.coords.tobytes() == right.coords.tobytes()
