"""Compiled spray kernels: the traced program against the evaluation it records.

A spray's float acceleration (:attr:`Spray.kernel`) is a program traced
from its coefficient evaluator, at level 0 as well as on the nested
``Dual`` evaluation of a lift and through the chart jets of a pushed spray.
"""

import linecache
import math
import operator
import re
import traceback
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprayjets import (IntegrationBlowupError, JetPoint, Spray, acceleration_jet, complete_lift,
                       conjugate_search, integrate, make_finsler_example, make_flat, make_sphere,
                       pushforward_spray, shear_chart)
from sprayjets import spray as spray_mod
from sprayjets.errors import TraceError
from sprayjets.jets import Sym, _Tape, compile_trace, jet_re, jexp, jlog, jsqrt
from sprayjets.spray import dual_lift


def _arithmetic(pos, vel):
    # Dual - float, float / Dual, a power and exp; no domain, and the only
    # divisor is at least 1
    return [(pos[0] - 1.0) * vel[0] * vel[1],
            2.0 / (1.0 + vel[0] * vel[0]) * pos[1] ** 3 * jexp(pos[0]) * vel[1]]


def _sqrt_log(pos, vel):
    # zero coefficients; at pos = (0, 0) the lift's tangent of sqrt divides
    # by zero before its primal log fails
    return [0.0 * jsqrt(pos[0]), 0.0 * jlog(pos[1])]


SQRT_LOG = Spray(level=0, dim=2, coeff_fn=_sqrt_log, tag="sqrt-log")

BASES = {
    "sphere": make_sphere(),
    "flat": make_flat(2),
    "finsler": make_finsler_example((0.3, -0.2)),
    "pushed": pushforward_spray(shear_chart(), make_sphere()),
    "arithmetic": Spray(level=0, dim=2, coeff_fn=_arithmetic, tag="arithmetic"),
}


def _lift(s, level):
    for _ in range(level):
        s = complete_lift(s)
    return s


def _outcome(fn, pos, vel):
    """The result bytes, or the type of the exception raised."""
    try:
        return np.asarray(fn(pos, vel), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _halves(name, n):
    """Strategies for the two coordinate halves of a point over the base chart."""
    coord = st.floats(-3.0, 3.0)
    # sphere colatitude, and the shear chart's image of it: x1 = theta + x2**2
    first = {"sphere": st.floats(0.3, math.pi - 0.3), "pushed": st.floats(1.3, 2.0)}.get(name, coord)
    second = st.floats(-0.9, 0.9) if name == "pushed" else coord
    rest = st.lists(coord, min_size=n - 2, max_size=n - 2)
    pos = st.builds(lambda a, b, r: [a, b, *r], first, second, rest)
    return pos, st.lists(coord, min_size=n, max_size=n)


def _kernel_name(fn):
    """The name a program was compiled under, less the `` #k`` that
    ``jets.compile_source`` adds when another source already holds it."""
    return re.sub(r" #\d+$", "", fn.__code__.co_filename)


def _interpreted(coeff_fn):
    """The acceleration ``-2 G`` evaluated by ``coeff_fn`` itself."""
    return lambda pos, vel: -2.0 * np.asarray(coeff_fn(pos, vel), dtype=float)


@pytest.mark.parametrize("name, level", [(name, level) for name in BASES for level in range(4)]
                         + [("sphere", 4), ("finsler", 4)])
def test_compiled_lift_is_bitwise_the_dual_path(name, level):
    s = _lift(BASES[name], level)
    # at level 0 the base coefficients, above it dual_lift of the parent's
    reference = _interpreted(s.coeff_fn if level == 0
                             else dual_lift(_lift(BASES[name], level - 1).coeff_fn))
    # traced everywhere, the pushed spray included
    assert _kernel_name(s.kernel) == f"<{s.tag} L{level}>"
    assert s.kernel.tape is not None

    @settings(max_examples=25)
    @given(*_halves(name, s.fiber_dim))
    def check(pos, vel):
        want = _outcome(reference, pos, vel)
        assert _outcome(s.kernel, pos, vel) == want
        assert _outcome(s.acceleration, pos, vel) == want

    check()


def _count_traces(monkeypatch):
    traces = []
    orig = spray_mod.compile_trace

    def counted(fn, n_pos, n_vel, filename):
        program = orig(fn, n_pos, n_vel, filename)
        traces.append((filename, program))
        return program

    monkeypatch.setattr(spray_mod, "compile_trace", counted)
    return traces


def _branch_on_primal(pos, vel):
    sign = 1.0 if jet_re(pos[0]) > 0.0 else -1.0
    return [sign * vel[0] * vel[0]]


def _guarded_division(pos, vel):
    if jet_re(pos[0]) == 0.0:
        return [0.0 * vel[0]]
    return [vel[0] * vel[0] / pos[0]]


@pytest.mark.parametrize("coeff", [_branch_on_primal, _guarded_division])
def test_value_dependent_coefficient_keeps_the_dual_path(monkeypatch, coeff):
    traces = _count_traces(monkeypatch)
    base = Spray(level=0, dim=1, coeff_fn=coeff, tag=coeff.__name__)
    lifted = complete_lift(base)
    # a branch baked in at tracing time would give the wrong sign at -0.7,
    # or divide by zero at 0.0
    for x in (0.7, -0.7, 0.0):
        pos, vel = [x, 0.4], [1.3, -0.2]
        assert _outcome(lifted.kernel, pos, vel) == _outcome(_interpreted(dual_lift(coeff)), pos, vel)
        assert _outcome(base.kernel, pos[:1], vel[:1]) == _outcome(_interpreted(coeff), pos[:1], vel[:1])
    assert traces == [(f"<lifted({coeff.__name__}) L1>", None), (f"<{coeff.__name__} L0>", None)]


@pytest.mark.parametrize("use", [bool, float, int, operator.index,
                                 lambda z: z == 1.0, lambda z: 1.0 == z, lambda z: z != 1.0,
                                 lambda z: z < 1.0, lambda z: z <= 1.0, lambda z: z > 1.0,
                                 lambda z: z >= 1.0])
def test_sym_refuses_value_dependent_operations(use):
    tape = _Tape()
    with pytest.raises(TraceError):
        use(tape.fresh())
    assert tape.refused


def test_lifts_are_memoized_and_traced_once(monkeypatch):
    traces = _count_traces(monkeypatch)
    s = make_sphere()
    assert complete_lift(s) is complete_lift(s)
    # building sprays and lifts traces nothing; the first float evaluation does
    assert traces == []
    init = JetPoint(1, 2, [math.pi / 2, 0.0, 0.0, 1.0])
    for _ in range(2):
        scan = conjugate_search(s, init, 3.5, 1e-2)
        assert len(scan.times) == 1
    assert [name for name, _ in traces] == ["<lifted(sphere) L1>"]
    assert complete_lift(s).kernel is traces[0][1]


@dataclass
class _Drag:
    """A coefficient object with value equality, hence unhashable."""

    c: float

    def __call__(self, pos, vel):
        return [self.c * vel[0] * vel[0]]


def test_unhashable_coefficient_is_lifted_once(monkeypatch):
    # the lift is kept on the spray, so it needs no hash of the coefficient
    traces = _count_traces(monkeypatch)
    s = Spray(level=0, dim=1, coeff_fn=_Drag(0.5), tag="drag")
    lifted = complete_lift(s)
    pos, vel = [0.3, -0.2], [1.5, 0.7]
    for k in range(3):
        assert complete_lift(s) is lifted
        assert _outcome(lifted.kernel, pos, vel) == _outcome(_interpreted(dual_lift(s.coeff_fn)), pos, vel)
        acceleration_jet(s, [0.1 * k], [1.5])
    assert [name for name, _ in traces] == ["<lifted(drag) L1>", "<drag L0>"]


@pytest.mark.parametrize("level", [1, 2])
def test_lifted_stage_on_pole_is_domain_exit(monkeypatch, level):
    # carrier as in test_stage_on_pole_is_domain_exit: the 4th stage of step
    # 2 lands on colatitude 0.0, where sin(theta) = 0 divides
    parent = _lift(make_sphere(), level - 1)
    lifted = complete_lift(parent)
    half = (1 << level) * 2
    coords = np.full(2 * half, 0.1)
    coords[:2] = [0.5, 0.0]
    coords[half:half + 2] = [-1.0, 0.0]
    init = JetPoint(level + 1, 2, coords)
    reference = Spray(level=lifted.level, dim=2, coeff_fn=dual_lift(parent.coeff_fn),
                      tag="dual", domain=lifted.domain)
    # the reference evaluates the Dual path at every stage, untraced
    monkeypatch.setitem(vars(reference), "kernel",
                        lambda pos, vel: _interpreted(reference.coeff_fn)(pos, vel).tolist())
    got = integrate(lifted, init, (0.0, 2.0), 0.25)
    want = integrate(reference, init, (0.0, 2.0), 0.25)
    assert got.exit_reason == want.exit_reason == "domain"
    assert got.t_end == want.t_end == 0.25
    for field in ("times", "positions", "velocities", "accelerations"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    pole = [0.0] * half, [1.0] * half
    with pytest.raises(ZeroDivisionError):
        lifted.kernel(*pole)
    with pytest.raises(ZeroDivisionError):
        reference.kernel(*pole)


def test_traceback_shows_the_failing_generated_statement():
    lifted = _lift(make_sphere(), 2)
    with pytest.raises(ZeroDivisionError) as err:
        lifted.kernel([0.0] * 8, [1.0] * 8)
    frame = traceback.extract_tb(err.value.__traceback__)[-1]
    assert frame.filename == "<lifted(lifted(sphere)) L2>"
    assert "/" in frame.line


def test_constants_reach_the_program_exactly():
    # the sign of zero, inf, nan and int operands survive compilation, and
    # so does the operand order of a reflected subtraction (1 - 1 is +0.0)
    def coeff(pos, vel):
        return [vel[0] * -0.0 + -0.0, pos[0] * math.inf, vel[0] + math.nan, 3 * vel[0] / 2,
                1.0 - pos[0]]

    def padded(*values):
        # the coefficients read only the first coordinate of each block
        return [z for value in values for z in (value, 0.0, 0.0, 0.0, 0.0)]

    base = Spray(level=0, dim=5, coeff_fn=coeff, tag="consts")
    lifted = complete_lift(base)
    for pos, vel in (([-1.0, 2.0], [0.5, 0.25]), ([2.0, -0.0], [1.0, -0.0]),
                     ([1.0, 0.0], [1.0, 0.0])):
        pos, vel = padded(*pos), padded(*vel)
        want = _outcome(_interpreted(dual_lift(coeff)), pos, vel)
        assert _outcome(lifted.kernel, pos, vel) == want
        want = _outcome(_interpreted(coeff), pos[:5], vel[:5])
        assert _outcome(base.kernel, pos[:5], vel[:5]) == want
    # 1.0 * -0.0 + -0.0 is -0.0, and -2.0 times that is +0.0; a -0.0
    # constant that reached the program as +0.0 would give -0.0
    assert math.copysign(1.0, base.kernel(padded(2.0), padded(1.0))[0]) == 1.0
    assert math.copysign(1.0, lifted.kernel(padded(2.0, 0.0), padded(1.0, 0.0))[0]) == 1.0


def _caught_branch(pos, vel):
    # the evaluator catches the TraceError of its branch and takes the other one
    try:
        sign = 1.0 if pos[0] > 0 else -1.0
    except TypeError:
        sign = 1.0
    return [sign * vel[0] * vel[0]]


def test_a_caught_refusal_is_still_refused():
    assert compile_trace(_caught_branch, 1, 1, "<caught-branch>") is None
    s = Spray(level=0, dim=1, coeff_fn=_caught_branch, tag="caught-branch")
    assert not hasattr(s.kernel, "tape")
    # -2 times -(2.0 * 2.0); a trace of the caught branch would give -8.0
    assert s.kernel([-0.3], [2.0]) == [8.0]


def test_a_non_scalar_output_is_not_traced():
    assert compile_trace(lambda pos, vel: [pos[0], (vel[0], vel[0])], 1, 1, "<pair>") is None


def test_sym_repr_and_non_scalar_operands():
    tape = _Tape()
    z = tape.fresh()
    assert repr(z) == "Sym(t0)"
    with pytest.raises(TypeError):
        z + "x"
    assert tape.stmts == []


def test_sym_defers_numpy_scalars_to_the_tape():
    tape = _Tape()
    assert isinstance(np.float64(2.0) * tape.fresh(), Sym)
    assert tape.stmts == [("t1", "*", ("c0", "t0"))]
    assert type(tape.namespace["c0"]) is np.float64


def _numpy_constant(pos, vel):
    # a numpy scalar constant: the traced program computes numpy scalars
    return [0.0 * (1.0 / pos[0]) + np.float64(0.0) * vel[0]]


def test_kernel_returns_python_floats():
    s = Spray(level=0, dim=1, coeff_fn=_numpy_constant, tag="numpy-constant")
    assert s.kernel.__code__.co_filename == "<numpy-constant L0>"
    out = s.kernel([-1.0], [1.0])
    assert [type(a) for a in out] == [float]
    # float lists in, the kernel's list out: the integrator's evaluations
    assert s.acceleration([-1.0], [1.0]) == out
    assert type(s.acceleration([-1.0], [1.0])) is list
    assert _outcome(s.kernel, [-1.0], [1.0]) == _outcome(_interpreted(_numpy_constant), [-1.0], [1.0])
    with pytest.raises(ZeroDivisionError):
        s.kernel([0.0], [1.0])


def test_numpy_constant_leaves_the_state_python_floats():
    # x runs -1.0, -0.5, and the 4th stage of step 2 lands on x = 0.0.  On
    # Python floats 1.0 / x raises there; had a numpy scalar from the first
    # step's accelerations reached the state, it would give inf instead and
    # the run would end on a NaN node, with no ZeroDivisionError behind it
    s = Spray(level=0, dim=1, coeff_fn=_numpy_constant, tag="numpy-constant")
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s, JetPoint(1, 1, [-1.0, 1.0]), (0.0, 2.0), 0.5)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


# --- the lean program: repeats dropped, locals reused ------------------------


def _source(program):
    return linecache.getlines(program.__code__.co_filename)


def test_repeated_division_by_zero_still_raises():
    def fn(pos, vel):
        return [pos[0] / vel[0] + pos[0] / vel[0]]

    program = compile_trace(fn, 1, 1, "<repeated-division>")
    assert _source(program)[0] == "# 3 recorded, 2 kept\n"
    for vel in ([7.0], [0.0]):
        assert _outcome(program, [3.0], vel) == _outcome(fn, [3.0], vel)
    assert _outcome(program, [3.0], [0.0]) is ZeroDivisionError


def _odd_outputs(pos, vel):
    # vel[2] is never read, so its local is free from the start
    p = pos[0] * vel[0]
    q = pos[0] * vel[0]
    r = (p + vel[1]) * (q - pos[1]) / (p - vel[1])
    # inputs read before, an input only returned, a constant, a repeat, a temporary
    return [pos[0], -0.0, q, r, pos[1], vel[1], pos[2], math.inf]


def test_outputs_that_are_inputs_constants_or_repeats():
    program = compile_trace(_odd_outputs, 3, 3, "<odd-outputs>")
    assert _source(program)[0] == "# 7 recorded, 6 kept\n"
    for pos, vel in (([1.5, -2.0, 0.5], [0.25, 3.0, 9.0]), ([-0.0, 1.0, -0.0], [2.0, 0.5, 1.0]),
                     ([2.0, 0.5, 7.0], [4.0, 3.0, 0.0])):
        assert _outcome(program, pos, vel) == _outcome(_odd_outputs, pos, vel)
    # the -0.0 constant keeps its sign
    assert math.copysign(1.0, program([1.0, 1.0, 1.0], [1.0, 2.0, 1.0])[1]) == -1.0


def test_repeated_numpy_constant_returns_python_floats():
    c = np.float64(0.5)

    def fn(pos, vel):
        return [c * pos[0], c * pos[0] + vel[0], pos[0]]

    program = compile_trace(fn, 1, 1, "<numpy-repeat>")
    assert _source(program)[0] == "# 3 recorded, 2 kept\n"
    out = program([3.0], [1.0])
    assert [type(z) for z in out] == [float, float, float]
    assert _outcome(program, [3.0], [1.0]) == _outcome(fn, [3.0], [1.0])


@pytest.mark.parametrize("level, recorded, kept", [(1, 53, 50), (2, 162, 150), (3, 498, 458)])
def test_sphere_programs_evaluate_each_operand_once(level, recorded, kept):
    kernel = _lift(make_sphere(), level).kernel
    source = _source(kernel)
    assert source[0] == f"# {recorded} recorded, {kept} kept\n"
    # the def, two unpacking lines, one line per kept statement, the return
    assert len(source) == 1 + 3 + kept + 1
    # sin and cos of the colatitude, once each at every level
    text = "".join(source)
    assert text.count("sin(") == text.count("cos(") == 1


def test_sphere_level3_program_reuses_its_locals():
    # one local per recorded temporary would be 532
    assert _lift(make_sphere(), 3).kernel.__code__.co_nlocals <= 70


# --- the fan program: one carrier, m tangents -------------------------------


@pytest.mark.parametrize("name, level, m", [(name, level, m) for name in ("sphere", "finsler", "pushed")
                                            for level in (1, 2) for m in range(1, 5)]
                         + [("sqrt-log", 1, m) for m in range(1, 5)])
def test_fan_copies_are_the_kernel_on_each_tangent(name, level, m):
    s = _lift(SQRT_LOG if name == "sqrt-log" else BASES[name], level)
    n = s.fiber_dim // 2
    fan = s.fan(m)
    assert fan is s.fan(m)
    pos, vel = _halves(name, s.fiber_dim)
    coord = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
    # the zero carrier sits on the sphere's pole, the Finsler spray's zero
    # speed and sqrt-log's 0, where every kernel raises
    carrier = st.one_of(st.just(([0.0] * n, [0.0] * n)),
                        st.tuples(pos.map(lambda p: p[:n]), vel.map(lambda v: v[:n])))

    @settings(max_examples=20)
    @given(carrier, st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
    def check(carrier, tangents):
        x, v = carrier
        try:
            want = [np.asarray(s.kernel(x + xi, v + eta), dtype=float).tobytes()
                    for xi, eta in tangents]
        except Exception as exc:
            # the exception of the first tangent whose kernel raises
            want = exc
        try:
            out = fan(x + [z for xi, _ in tangents for z in xi],
                      v + [z for _, eta in tangents for z in eta])
        except Exception as exc:
            assert type(exc) is type(want)
            assert str(exc) == str(want)
            return
        assert isinstance(want, list)
        assert len(out) == (m + 1) * n
        for k, w in enumerate(want):
            assert np.asarray(out[:n] + out[(k + 1) * n:(k + 2) * n], dtype=float).tobytes() == w

    check()


def test_fan_shares_the_carrier_statements():
    lifted = _lift(make_sphere(), 1)
    # the level-1 tape: 21 carrier-only statements and 32 tangent statements
    assert _source(lifted.fan(1))[0] == "# 53 recorded, 50 kept\n"
    assert _source(lifted.fan(2))[0] == "# 85 recorded, 82 kept\n"
    assert lifted.fan(2).__code__.co_filename == "<lifted(sphere) L1 fan m=2>"


def _mixing(pos, vel):
    return [pos[1] * vel[0], vel[1] * vel[1]]


def _mixing_refused(pos, vel):
    # float() of a traced scalar refuses tracing
    return [float(pos[1]) * vel[0], vel[1] * vel[1]]


def test_fan_refuses_a_carrier_that_reads_a_tangent():
    # a level-1 spray whose first output, the carrier half, reads pos[1]
    s = Spray(level=1, dim=1, coeff_fn=_mixing, tag="mixing")
    assert s.kernel.tape is not None
    assert s.fan(2) is None
    # an untraced kernel keeps no tape
    refused = Spray(level=1, dim=1, coeff_fn=_mixing_refused, tag="mixing-refused")
    assert getattr(refused.kernel, "tape", None) is None
    assert refused.fan(2) is None
