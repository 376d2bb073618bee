"""Compiled spray kernels: the traced program against the evaluation it records.

A spray's float acceleration (:attr:`Spray.kernel`) is a program traced
from its coefficient evaluator, at level 0 as well as on the nested
``Dual`` evaluation of a lift and through the chart jets of a pushed spray.
"""

import ast
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
                       conjugate_search, integrate, make_finsler_example, make_flat,
                       make_sphere, project_spray, pushforward_spray, shear_chart)
from sprayjets import geodesic
from sprayjets import spray as spray_mod
from sprayjets.errors import TraceError
from sprayjets.jets import _Tape, compile_trace, jdot, jet_re, jexp, jlog, jsin, jsqrt
from sprayjets.spray import dual_lift
from test_geodesic import FUSED_SPRAYS, TRAP_X, _evaluation_copies
from test_spray import make_round_sphere


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
    # the scan runs the lift's fan, a trace of its own; the kernel is not traced
    assert [name for name, _ in traces] == ["<lifted(sphere) L1 fan m=2>"]
    assert complete_lift(s).fan(2) is traces[0][1]


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


def _assert_refused(fn, points):
    """``fn`` is not compiled, its tape is refused, and the kernel evaluates it itself.

    The tape binds only Python floats, so a numpy scalar constant, or an
    int too large for a float, refuses the trace; the kernel of a level-0
    spray of ``fn`` then gives the interpreted evaluation's result, or its
    first exception, at each (pos, vel) of ``points``.
    """
    n_pos, n_vel = (len(z) for z in points[0])
    assert compile_trace(fn, n_pos, n_vel, f"<{fn.__name__}>") is None
    tape = _Tape()
    with pytest.raises(TraceError):
        fn([tape.fresh() for _ in range(n_pos)], [tape.fresh() for _ in range(n_vel)])
    assert tape.refused
    s = Spray(level=0, dim=n_pos, coeff_fn=fn, tag=fn.__name__)
    assert not hasattr(s.kernel, "tape")
    for pos, vel in points:
        assert _outcome(s.kernel, pos, vel) == _outcome(_interpreted(fn), pos, vel)
    return s


def _int_constants(pos, vel):
    # 2**1023 + 1 rounds to 2**1023 as a float, as Python converts it
    return [3 * pos[0] - (2 ** 1023 + 1) * vel[0], pos[0] / 2]


def test_int_constants_bind_as_their_float():
    program = compile_trace(_int_constants, 1, 1, "<int-constants>")
    consts = [c for c in program.tape.namespace.values() if not callable(c)]
    assert consts == [3.0, 2.0 ** 1023, 2.0] and all(type(c) is float for c in consts)
    for pos, vel in (([1.5], [1e-300]), ([-0.0], [2.0]), ([1e308], [-1.0])):
        assert _outcome(program, pos, vel) == _outcome(_int_constants, pos, vel)


def _numpy_times_input(pos, vel):
    return [np.float64(2.0) * pos[0]]


def test_sym_defers_numpy_scalars_to_the_tape():
    # the numpy scalar defers to the Sym's reflected product, and the tape
    # refuses it instead of binding it
    tape = _Tape()
    with pytest.raises(TraceError):
        np.float64(2.0) * tape.fresh()
    assert tape.refused and tape.stmts == []
    _assert_refused(_numpy_times_input, [([3.0], [1.0]), ([-0.0], [1.0])])


def _numpy_constant(pos, vel):
    # a numpy scalar constant: a traced program would compute numpy scalars
    return [0.0 * (1.0 / pos[0]) + np.float64(0.0) * vel[0]]


def test_kernel_returns_python_floats():
    s = _assert_refused(_numpy_constant, [([-1.0], [1.0]), ([0.0], [1.0])])
    out = s.kernel([-1.0], [1.0])
    assert [type(a) for a in out] == [float]
    # float lists in, the kernel's list out: the integrator's evaluations
    assert s.acceleration([-1.0], [1.0]) == out
    assert type(s.acceleration([-1.0], [1.0])) is list
    with pytest.raises(ZeroDivisionError):
        s.kernel([0.0], [1.0])


# the library sprays the benchmark and the runner integrate
LIBRARY_SPRAYS = {
    "sphere": make_sphere(),
    "flat": make_flat(2),
    "finsler": make_finsler_example((0.0, 1.0)),
    "pushed": pushforward_spray(shear_chart(), make_sphere()),
    "round-sphere-3": make_round_sphere(3),
    "projected": project_spray(complete_lift(make_sphere())),
}


@pytest.mark.parametrize("name, level", [(name, level) for name in LIBRARY_SPRAYS
                                         for level in range(4)])
def test_library_sprays_keep_to_the_dialect(name, level):
    # each is traced, kernel and fan alike, binds Python floats only and has
    # a stack twin: a dialect rule that refused one would send its runs to
    # the interpreted evaluation without failing anything else
    s = _lift(LIBRARY_SPRAYS[name], level)
    for program in (s.kernel, s.fan(2)):
        consts = [c for c in program.tape.namespace.values() if not callable(c)]
        assert consts and all(type(c) is float for c in consts)
    assert s._stack is not None


def test_numpy_constant_leaves_the_state_python_floats():
    # x runs -1.0, -0.5, and the 4th stage of step 2 lands on x = 0.0.  On
    # Python floats 1.0 / x raises there; had a numpy scalar from the first
    # step's accelerations reached the state, it would give inf instead and
    # the run would end on a NaN node, with no ZeroDivisionError behind it
    s = Spray(level=0, dim=1, coeff_fn=_numpy_constant, tag="numpy-constant")
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s, JetPoint(1, 1, [-1.0, 1.0]), (0.0, 2.0), 0.5)
    assert isinstance(err.value.__cause__, ZeroDivisionError)


# --- the lean program: repeats dropped, temporaries folded, tape names kept ---


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
    # vel[2] is never read
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


def _repeated_numpy_constant(pos, vel):
    c = np.float64(0.5)
    return [c * pos[0], c * pos[0] + vel[0], pos[0]]


def test_repeated_numpy_constant_returns_python_floats():
    s = _assert_refused(_repeated_numpy_constant, [([3.0], [1.0]), ([-2.5], [0.0])])
    assert [type(z) for z in s.kernel([3.0], [1.0])] == [float, float, float]


# the lines that run the kept statements of the sphere kernel at each level
SPHERE_LINES = {1: 15, 2: 35, 3: 75}


def _operations(source):
    """The operators and calls in ``source``: one per kept statement it runs."""
    return sum(isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call))
               for node in ast.walk(ast.parse("".join(source))))


@pytest.mark.parametrize("level, recorded, kept", [(1, 53, 50), (2, 162, 150), (3, 498, 458)])
def test_sphere_programs_evaluate_each_operand_once(level, recorded, kept):
    kernel = _lift(make_sphere(), level).kernel
    source = _source(kernel)
    assert source[0] == f"# {recorded} recorded, {kept} kept\n"
    # the def, two unpacking lines, the kept statements folded into fewer
    # lines, the return; each kept statement runs once, none is added
    assert len(source) == 1 + 3 + SPHERE_LINES[level] + 1
    assert _operations(source) == kept
    # sin and cos of the colatitude, once each at every level
    text = "".join(source)
    assert text.count("sin(") == text.count("cos(") == 1


def _assigned(source):
    """The names that ``source`` assigns, once per assignment."""
    return [node.id for node in ast.walk(ast.parse("".join(source)))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


@pytest.mark.parametrize("level, nlocals", [(0, 11), (1, 25), (2, 53), (3, 109)])
def test_sphere_programs_assign_each_tape_name_once(level, nlocals):
    s = _lift(make_sphere(), level)
    kernel = s.kernel
    tape = kernel.tape
    inputs = tape.inputs[0] + tape.inputs[1]
    source = _source(kernel)
    # pos, vel, the inputs and one local per line between the unpacking and the return
    assert kernel.__code__.co_nlocals == 2 + len(inputs) + len(source) - 5 == nlocals
    programs = [kernel] + ([s.fan(2)] if level else [])
    for program in programs:
        names = _assigned(_source(program))
        assert len(names) == len(set(names))
    if level == 0:
        # the inlined run loop: a copy of the kernel's assignments per
        # evaluation, but the unpacking of the inputs, which the copy reads
        # as its stage's names; the outputs' lines assign the stage's
        # accelerations a{k}_# and the rest the kernel's names suffixed _e,
        # each name assigned once per copy
        loop = geodesic._run_loop(s, s.acceleration, s.fiber_dim)
        loop_source = _source(loop)
        outputs = set(tape.outputs)
        temporaries = sorted(f"{z}_e" for z in _assigned(source)
                             if z not in inputs and z not in outputs)
        assert len(temporaries) == len(source) - 5 - len(outputs)
        copies = [name for name in _assigned(loop_source) if name.endswith("_e")]
        assert sorted(copies) == sorted(4 * temporaries)
        spans = _evaluation_copies("".join(loop_source))
        assert len(spans) == 4
        for (first, last), k in zip(spans, "2341"):
            copy = [line.strip() + "\n" for line in loop_source[first:last]]
            assert sorted(_assigned(copy)) == sorted(temporaries + [f"a{k}_0", f"a{k}_1"])


def test_programs_of_one_name_keep_their_own_source():
    # two sprays of one tag: the second source is registered under "#2"
    # beside the first, and each traceback shows the line of its own program
    divides = Spray(level=0, dim=1, coeff_fn=lambda x, v: [v[0] * v[0] / x[0]], tag="t")
    roots = Spray(level=0, dim=1, coeff_fn=lambda x, v: [v[0] * jsqrt(x[0])], tag="t")
    for s, x, error, filename, line in (
            (divides, 0.0, ZeroDivisionError, "<t L0>", "t3 = t1 * t1 / t0"),
            (roots, -1.0, ValueError, "<t L0> #2", "t2 = sqrt(t0)")):
        assert s.kernel.__code__.co_filename == filename
        assert f"    {line}\n" in linecache.getlines(filename)
        with pytest.raises(error) as err:
            s.kernel([x], [1.0])
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert (frame.filename, frame.line) == (filename, line)


def _result(fn, *args):
    """The result bytes, or the type and message of the exception raised."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _nested_differences(pos, vel):
    # v299 - (v298 - (... - (v0 - x))): each right operand is the previous difference
    acc = pos[0]
    for v in vel:
        acc = v - acc
    return [acc]


@pytest.mark.parametrize("fn, n_pos, n_vel", [(lambda pos, vel: [jdot(pos, vel)], 3000, 3000),
                                              (_nested_differences, 1, 300)])
def test_long_single_reader_chains_compile(fn, n_pos, n_vel):
    # folded whole, the 3000-term dot product would overflow the compiler's
    # recursion and the 300-deep difference the parser's nested parentheses
    program = compile_trace(fn, n_pos, n_vel, "<chain>")
    rng = np.random.default_rng(3)
    for _ in range(3):
        pos, vel = rng.normal(size=n_pos).tolist(), rng.normal(size=n_vel).tolist()
        assert _result(program, pos, vel) == _result(fn, pos, vel)


def _product_then_division(pos, vel):
    # the product's one reader is the second division, which runs after the
    # sqrt; the first division's one reader runs after both
    p = pos[0] * vel[0]
    q = vel[0] / pos[0]
    return [jsqrt(pos[1]), p / vel[1] + q]


def test_folded_product_keeps_the_first_exception():
    program = compile_trace(_product_then_division, 2, 2, "<product-then-division>")
    # the product is folded into the division; the divisions and the sqrt keep their lines
    # each line assigns its statement's tape name
    assert "".join(_source(program)[4:8]) == ("    t5 = t2 / t0\n"
                                              "    t6 = sqrt(t1)\n"
                                              "    t7 = t0 * t2 / t3\n"
                                              "    t8 = t7 + t5\n")
    for x in (0.0, 2.0):
        for pos, vel in (([x, -1.0], [3.0, 0.0]), ([x, 1.0], [3.0, 0.0]),
                         ([x, -1.0], [3.0, 4.0]), ([x, 1.0], [3.0, 4.0])):
            assert _result(program, pos, vel) == _result(_product_then_division, pos, vel)
    assert _result(program, [0.0, -1.0], [3.0, 0.0])[0] is ZeroDivisionError
    assert _result(program, [2.0, -1.0], [3.0, 0.0])[0] is ValueError
    assert _result(program, [2.0, 1.0], [3.0, 0.0])[0] is ZeroDivisionError


def _numpy_overflow(pos, vel):
    # the numpy product overflows before the sqrt fails; a program that
    # folded it into the last line would run it after the sqrt
    p = np.float64(1e300) * pos[0]
    return [jsqrt(vel[0]), p * pos[0]]


def _huge_int(pos, vel):
    # a float times an int too large for a float raises OverflowError
    p = 10 ** 400 * pos[0]
    return [jsqrt(vel[0]), p * pos[0]]


@pytest.mark.parametrize("fn, first", [(_numpy_overflow, FloatingPointError),
                                       (_huge_int, OverflowError)])
def test_constants_that_can_raise_fold_nothing(fn, first):
    # nothing is folded because nothing is compiled: the kernel runs the
    # evaluation itself and raises its first exception
    points = [([1e10], [-1.0]), ([1e10], [4.0]), ([2.0], [-1.0]), ([2.0], [4.0])]
    with np.errstate(all="raise"):
        s = _assert_refused(fn, points)
        assert _outcome(s.kernel, [1e10], [-1.0]) is first


# an int constant other than 0 could grow without bound in the int
# arithmetic done while tracing, and inf would hide most values behind inf
# and nan; the inputs still draw inf and nan
_DAG_CONSTANTS = (0.0, -0.0, 0, 1.0, -2.5)
_DAG_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
            "neg": operator.neg, "sin": jsin, "sqrt": jsqrt}


@st.composite
def _dags(draw):
    """(h, nodes, outputs): an expression DAG on 2h positions and 2h velocities.

    The values are the positions, the velocities, ``_DAG_CONSTANTS`` and
    each node in turn; a node is an op of ``_DAG_OPS`` and the indices of
    the values it reads.  The second half of the outputs is some values
    and every node that no node reads, so that each node reaches an
    output; the first half, as long, is carrier-only: it reads only the
    first h of each input, so a fan's copy 0 holds it for every tangent.
    """
    h = draw(st.integers(1, 2))
    carrier = [*range(h), *range(2 * h, 3 * h),
               *range(4 * h, 4 * h + len(_DAG_CONSTANTS))]
    size, nodes = 4 * h + len(_DAG_CONSTANTS), []
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(sorted(_DAG_OPS)))
        # the newest value half the time, so that chains of single readers form
        pick = st.one_of(st.just(size - 1), st.integers(0, size - 1))
        args = tuple(draw(pick) for _ in range(2 if op in "+-*/" else 1))
        if all(a in carrier for a in args):
            carrier.append(size)
        nodes.append((op, args))
        size += 1
    read = {a for _, args in nodes for a in args}
    tangent = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    tangent += [i for i in range(size - len(nodes), size) if i not in read]
    n = len(tangent)
    return h, nodes, draw(st.lists(st.sampled_from(carrier), min_size=n, max_size=n)) + tangent


def _dag_fn(nodes, outputs):
    def fn(pos, vel):
        values = [*pos, *vel, *_DAG_CONSTANTS]
        for op, args in nodes:
            values.append(_DAG_OPS[op](*(values[a] for a in args)))
        return [values[a] for a in outputs]

    return fn


_DAG_VALUE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.inf, math.nan]),
                       st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(_dags(), st.data())
def test_random_dag_programs_are_the_plain_evaluation(dag, data):
    h, nodes, outputs = dag
    fn = _dag_fn(nodes, outputs)
    half = st.lists(_DAG_VALUE, min_size=h, max_size=h)
    program = compile_trace(fn, 2 * h, 2 * h, "<dag>")
    if program is None:
        # an operation on constants alone failed while tracing, and fails everywhere
        pos, vel = data.draw(half) * 2, data.draw(half) * 2
        assert isinstance(_result(fn, pos, vel), tuple)
        return
    x, v = data.draw(half), data.draw(half)
    tangents = data.draw(st.lists(st.tuples(half, half), min_size=3, max_size=3))
    for xi, eta in tangents:
        assert _result(program, x + xi, v + eta) == _result(fn, x + xi, v + eta)

    def negated(pos, vel):
        return [-2.0 * g for g in fn(pos, vel)]

    for m in range(1, 4):
        fan = Spray(level=1, dim=h, coeff_fn=fn, tag="dag").fan(m)
        want = []
        for xi, eta in tangents[:m]:
            want.append(_result(negated, x + xi, v + eta))
            if isinstance(want[-1], tuple):
                # the exception of the first tangent whose evaluation raises
                want = want[-1]
                break
        got = _result(fan, x + [z for xi, _ in tangents[:m] for z in xi],
                      v + [z for _, eta in tangents[:m] for z in eta])
        if isinstance(want, tuple):
            assert got == want
            continue
        assert isinstance(got, bytes)
        k = len(outputs) // 2
        out = np.frombuffer(got, dtype=float)
        for j, w in enumerate(want):
            assert np.concatenate([out[:k], out[(j + 1) * k:(j + 2) * k]]).tobytes() == w


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
    # the level-1 tape: 53 statements, 21 of them carrier-only; the second
    # copy's carrier statements repeat the first's and are dropped
    assert _source(lifted.fan(1))[0] == "# 53 recorded, 50 kept\n"
    assert _source(lifted.fan(2))[0] == "# 106 recorded, 82 kept\n"
    assert lifted.fan(2).__code__.co_filename == "<lifted(sphere) L1 fan m=2>"


# kept statements of the fan for m = 1, 2, 3 and 6 at lift levels 1 and 2
FAN_KEPT = {
    ("sphere", 1): (50, 82, 114, 210), ("sphere", 2): (150, 250, 350, 650),
    ("finsler", 1): (29, 47, 65, 119), ("finsler", 2): (85, 140, 195, 360),
    ("round S^3", 1): (131, 218, 305, 566), ("round S^3", 2): (405, 679, 953, 1775),
    ("pushed", 1): (100, 163, 226, 415), ("pushed", 2): (286, 472, 658, 1216),
}
FAN_BASES = {"sphere": make_sphere(), "finsler": make_finsler_example((0.3, 1.0)),
             "round S^3": make_round_sphere(3),
             "pushed": pushforward_spray(shear_chart(), make_sphere())}


@pytest.mark.parametrize("name, level", sorted(FAN_KEPT))
def test_fan_kept_statements_grow_linearly_in_m(name, level):
    # the carrier runs once whatever m is: a constant made afresh by each
    # copy would defeat the dropping of the carrier repeats and break this
    s = _lift(FAN_BASES[name], level)
    kept = {}
    for m in range(1, 7):
        kept[m] = int(re.fullmatch(r"# (\d+) recorded, (\d+) kept\n", _source(s.fan(m))[0])[2])
    assert [kept[m] for m in (1, 2, 3, 6)] == list(FAN_KEPT[name, level])
    for m in range(1, 7):
        assert kept[m] == kept[1] + (m - 1) * (kept[2] - kept[1])


def _mixing(pos, vel):
    return [pos[1] * vel[0], vel[1] * vel[1]]


def _mixing_refused(pos, vel):
    # float() of a traced scalar refuses tracing
    return [float(pos[1]) * vel[0], vel[1] * vel[1]]


def test_kernel_is_the_one_tangent_fan():
    for s in (make_sphere(), _lift(make_sphere(), 2), complete_lift(SQRT_LOG),
              Spray(level=1, dim=1, coeff_fn=_mixing_refused, tag="mixing-refused")):
        assert s.kernel is s.fan(1)


def test_fan_of_a_carrier_that_reads_a_tangent_is_the_kernel_in_turn():
    # a level-1 spray whose first output, the carrier half, reads pos[1]:
    # the fan is copy 0's whole output, then each later copy's second half
    x, v = [0.7], [-1.3]
    tangents = [([0.2], [1.5]), ([-3.0], [0.25]), ([4.5], [2.0])]
    for coeff in (_mixing, _mixing_refused):
        s = Spray(level=1, dim=1, coeff_fn=coeff, tag=coeff.__name__)
        fan = s.fan(3)
        # an untraced fan keeps no tape
        assert hasattr(fan, "tape") == hasattr(s.kernel, "tape") == (coeff is _mixing)
        want = [s.kernel(x + xi, v + eta) for xi, eta in tangents]
        for (xi, eta), w in zip(tangents, want):
            assert np.asarray(w).tobytes() == _interpreted(coeff)(x + xi, v + eta).tobytes()
        out = fan(x + [xi[0] for xi, _ in tangents], v + [eta[0] for _, eta in tangents])
        assert np.asarray(out).tobytes() == np.asarray(want[0] + want[1][1:] + want[2][1:]).tobytes()


def _tangent_log_refused(pos, vel):
    # float() refuses tracing; the carrier's division fails at pos[0] = 0,
    # the tangent's log where pos[1] <= 0
    return [vel[0] * vel[0] / float(pos[0]), jlog(pos[1]) * vel[1]]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_refused_fan_is_the_interpreted_kernel_on_each_tangent(m):
    s = Spray(level=1, dim=1, coeff_fn=_tangent_log_refused, tag="tangent-log-refused")
    fan = s.fan(m)
    assert not hasattr(fan, "tape") and not hasattr(s.kernel, "tape")
    interpreted = _interpreted(s.coeff_fn)
    for x, v, tangents in (
            ([0.5], [1.5], [([2.0], [-1.0]), ([0.25], [3.0]), ([7.0], [0.5])]),
            # the second tangent's log fails first
            ([0.5], [1.5], [([2.0], [-1.0]), ([-1.0], [3.0]), ([0.0], [0.5])]),
            # the carrier's division fails on every tangent, before the first log
            ([0.0], [1.5], [([-2.0], [-1.0]), ([1.0], [3.0]), ([1.0], [0.5])])):
        want = []
        for xi, eta in tangents[:m]:
            want.append(_result(interpreted, x + xi, v + eta))
            if isinstance(want[-1], tuple):
                break
        got = _result(fan, x + [xi[0] for xi, _ in tangents[:m]],
                      v + [eta[0] for _, eta in tangents[:m]])
        if isinstance(want[-1], tuple):
            # the exception of the first tangent whose kernel raises
            assert got == want[-1]
            continue
        out = np.frombuffer(got, dtype=float)
        for k, w in enumerate(want):
            assert np.concatenate([out[:1], out[k + 1:k + 2]]).tobytes() == w


# --- the stack twin: the kernel over the columns of a stack -----------------


def _rows(s):
    """The kernel called on each row of two arrays in turn, as one array."""
    return lambda x, v: [s.kernel(xr, vr) for xr, vr in zip(x.tolist(), v.tolist())]


_POLAR = ("sphere", "round-sphere-3", "conformal")


@st.composite
def _stacks(draw):
    """(name, level, x, v): 2 to 6 rows of a lift of a ``FUSED_SPRAYS`` spray.

    Colatitudes lie within 0.3 of a pole or on the pole 0.0, where the
    kernels divide by zero, and a trap row may sit on ``TRAP_X``; an entry
    of 1e200 makes products overflow to inf, which Python floats reach
    without raising.
    """
    name = draw(st.sampled_from(sorted(FUSED_SPRAYS)))
    level = draw(st.sampled_from((0, 1, 2)))
    dim = FUSED_SPRAYS[name].dim
    n, rows = (1 << level) * dim, draw(st.integers(2, 6))
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e200]))
    half = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=rows, max_size=rows)
    x, v = np.array(draw(half)), np.array(draw(half))
    for r in range(rows):
        if name in _POLAR:
            for i in range(dim - 1):
                near = draw(st.one_of(st.floats(1e-3, 0.3), st.just(0.0)))
                x[r, i] = draw(st.sampled_from([near, math.pi - near]))
        elif name == "trap" and draw(st.booleans()):
            x[r, 0] = TRAP_X
    return name, level, x, v


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_stack_is_the_kernel_on_each_row(case):
    name, level, x, v = case
    s = _lift(FUSED_SPRAYS[name], level)
    assert s._stack is not None
    # the same bytes, or the type and message of the first failing row's exception
    assert _result(s.accelerations, x, v) == _result(_rows(s), x, v)


def _sqrt_then_division(pos, vel):
    # the square root runs before the division: at x = -1 the stack's first
    # failing statement, at x = 0.5 the division fails
    return [jsqrt(pos[0]) * vel[0] + vel[0] / (pos[0] - 0.5)]


@pytest.mark.parametrize("column, first", [([0.5, -1.0], ZeroDivisionError),
                                           ([2.0, -1.0, 0.5], ValueError)])
def test_stack_raises_what_the_first_failing_row_raises(column, first):
    # the twin meets the later row's square root first, and the rows then
    # raise the first failing row's exception, from its kernel line
    s = Spray(level=0, dim=1, coeff_fn=_sqrt_then_division, tag="sqrt-division")
    x, v = np.array(column)[:, None], np.ones((len(column), 1))
    assert s._stack is not None
    with pytest.raises(first) as got:
        s.accelerations(x, v)
    row = next(r for r, z in enumerate(column) if z in (0.5, -1.0))
    with pytest.raises(first) as want:
        s.kernel([column[row]], [1.0])
    assert str(got.value) == str(want.value)
    assert got.value.__context__ is None
    assert traceback.extract_tb(got.tb)[-1][:3] == traceback.extract_tb(want.tb)[-1][:3]
    # the sphere kernel divides by sin(theta) on the pole in a later row
    sphere = make_sphere()
    x = np.array([[1.0, 0.0], [0.0, 0.3], [2.0, 0.1]])
    v = np.array([[0.3, 1.0], [1.0, 0.0], [0.2, 0.5]])
    assert _result(sphere.accelerations, x, v) == _result(_rows(sphere), x, v)
    assert _result(sphere.accelerations, x, v)[0] is ZeroDivisionError


def _count_calls(monkeypatch):
    """Log every ``Spray.acceleration`` call, the per-row path of a stack."""
    calls = []
    orig = Spray.acceleration
    monkeypatch.setattr(Spray, "acceleration", lambda self, x, v: calls.append(1) or orig(self, x, v))
    return calls


def _cubic_power(pos, vel):
    return [pos[0] ** 3 * vel[0] * vel[0]]


def _branching(pos, vel):
    return [vel[0] * vel[0] if pos[0] > 0.0 else -vel[0] * vel[0]]


def _infinite_constant(pos, vel):
    # inf / 0.0 raises in Python, but flags nothing in IEEE arithmetic
    return [math.inf / pos[0]]


@pytest.mark.parametrize("coeff, calls", [(_cubic_power, 4), (_branching, 4), (_infinite_constant, 2)])
def test_kernel_without_a_twin_runs_the_rows(monkeypatch, coeff, calls):
    # a recorded ** or a constant that is not finite has no twin; a branch
    # on a value refuses tracing
    s = Spray(level=0, dim=1, coeff_fn=coeff, tag=coeff.__name__)
    assert s._stack is None
    x = np.array([[-1.5], [0.0], [0.7], [2.0]])
    v = np.array([[0.3], [-1.0], [2.5], [1e200]])
    made = _count_calls(monkeypatch)
    got = _result(s.accelerations, x, v)
    assert len(made) == calls
    assert got == _result(_rows(s), x, v)


def test_one_row_and_non_finite_stacks_run_the_rows(monkeypatch):
    s = make_sphere()
    x = np.array([[1.0, 0.0], [1.2, 0.3], [2.0, 0.1]])
    v = np.array([[0.3, 1.0], [1.0, 0.0], [0.2, 0.5]])
    calls = _count_calls(monkeypatch)
    assert _result(s.accelerations, x, v) == _result(_rows(s), x, v)
    assert calls == []
    assert _result(s.accelerations, x[:1], v[:1]) == _result(_rows(s), x[:1], v[:1])
    assert len(calls) == 1
    # the sum of the entries overflows: the rows decide, each finite
    for bad in (math.nan, math.inf, 1.7e308):
        calls.clear()
        v[1, 0] = v[2, 0] = bad
        assert _result(s.accelerations, x, v) == _result(_rows(s), x, v)
        assert len(calls) == 3
    assert s.accelerations(np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2)


def test_twin_runs_math_calls_entry_by_entry():
    """No stack twin calls a numpy transcendental or a power.

    On a host with AVX-512, numpy's ``np.sin``, ``np.cos``, ``np.exp`` and
    ``np.log`` run SIMD (SVML-style) loops whose results can differ from the
    C library's ``math`` functions in the last bit, so a twin that called
    them would not be bitwise the scalar kernel.  Every math call of a twin
    goes through Python's :mod:`math`, one entry at a time, and a tape that
    records ``**`` gets no twin.
    """
    sprays = [_lift(spray, level) for spray in [*FUSED_SPRAYS.values(), *BASES.values()]
              for level in range(3)]
    twins = [s._stack for s in sprays if s._stack is not None]
    assert len(twins) >= 3 * len(FUSED_SPRAYS)
    # enough entries that a SIMD loop would differ from math in some of them
    z = np.linspace(0.01, 20.0, 2001)
    for twin in twins:
        source = "".join(linecache.getlines(twin.__code__.co_filename))
        assert source.startswith("# ") and "def stack(pos, vel, out):" in source
        assert re.search(r"np\.|numpy|power|\*\*", source) is None, source
        for name in ("sqrt", "sin", "cos", "exp", "log"):
            got = twin.__globals__[name](z)
            assert got.tobytes() == np.array([getattr(math, name)(e) for e in z.tolist()]).tobytes()
    assert BASES["arithmetic"]._stack is None  # pos[1] ** 3


_STACK_VALUE = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e300]), st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(_dags(), st.data())
def test_random_dag_stacks_are_the_rows(dag, data):
    h, nodes, outputs = dag
    fn = _dag_fn(nodes, outputs)
    # a level-0 spray on 2h coordinates needs 2h outputs
    fn = (lambda f, k: lambda pos, vel: (f(pos, vel) * k)[:k])(fn, 2 * h)
    s = Spray(level=0, dim=2 * h, coeff_fn=fn, tag="dag")
    rows = data.draw(st.integers(2, 5))
    half = st.lists(st.lists(_STACK_VALUE, min_size=2 * h, max_size=2 * h),
                    min_size=rows, max_size=rows)
    x, v = np.array(data.draw(half)), np.array(data.draw(half))
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, rows - 1)), 0] = data.draw(st.sampled_from([math.inf, math.nan]))
    assert _result(s.accelerations, x, v) == _result(_rows(s), x, v)
