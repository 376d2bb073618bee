"""Fixed-step geodesic integration with dense output.

The integrator is classical RK4 on the first-order system (x' = v,
v' = -2 G(x, v)).  Fixed steps keep runs reproducible and make the
discrete flow commute with fiberwise differentiation, which the lifted
flow identity checks rely on.  Dense output is cubic Hermite per step.

The run is straight-line code generated from one template (:func:`_rk4`):
a loop whose steps each hold the three stage evaluations and the stage
and update arithmetic on Python floats, one statement per element, then
the node checks, and store each node as one packed row of doubles (its
positions, velocities and acceleration) in a byte buffer, from which
:func:`_integrate` copies the trajectory's arrays.  The state stays in
locals from step to step.  The evaluator is :meth:`Spray.acceleration`
on float lists for a plain run, which runs the spray's kernel, and the
lift's fan (:meth:`Spray.fan`) for a run of :mod:`sprayjets.jacobi` on the
state of several lifted fields over one carrier.  A run whose evaluator's
program is traced (the kernel, or the fan itself), at any lift level and
of any width, uses the inlining loop.  It is built once per program, and
each stage, and the new node, runs an inlined copy of the program's
statements, so its steps make no call; a copy reads the stage's positions
and velocities by their own names and assigns the acceleration's, so it
builds and unpacks no tuple either.  A run whose evaluator is not traced
(its trace was refused) uses the calling loop, built once per state
length, which calls the evaluator at each stage and at each new node.

The loop checks each node in plain Python floats, by prefilters: the sum
of its entries is finite, the Python sum of squares of its base velocity
lies clearly above ``EPS_SLASHED**2``, and the chart domain, when the
spray has one, holds the list of its ``dim`` base position floats.  A
node that fails a prefilter meets the exact tests in the loop (the
entrywise or numpy test runs only near the threshold or on an
overflowing sum), which end the run or let it go on.
The loop runs the whole span in one call and returns how the run ended.
A step that fails, by an evaluation that raises or a node that is not
finite, hands :func:`_failed_step` the stage positions it evaluated at,
which decides the run's end from them and evaluates nothing.  The
residual evaluates all step midpoints as one stack and then takes all the
defect norms in one ``np.vecdot``.  Zeros along a run are found by
:func:`_minima`, which refines each node-local minimum of a size by the
caller's Newton step.

The generated code carries the order invariant.  Each element is
computed by the same IEEE double operations, in the same order and
association, as the numpy expressions ``x + 0.5*dt*v`` and
``x + dt*(k1 + 2.0*k2 + 2.0*k3 + k4)/6.0``.  That order is not a detail:
the carrier columns of a lifted run (the leading ``dim`` positions and
velocities) must equal the run of the base spray bit for bit, because the
primal part of jet arithmetic repeats the float computation and
``subspray.geodesic`` takes its base geodesic from the lifted run.
The generator may not reorder, merge or regroup any of these operations.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from .errors import DomainError, IntegrationBlowupError, InvalidLevelError
from .jets import _Tape, compile_source, kept_lines
from .jetspace import EPS_SLASHED, JetPoint
from .spray import Spray

EXIT_SLASHED = "slashed"
EXIT_DOMAIN = "domain"

# A time this close outside a trajectory's span still counts as inside it.
_SPAN_SLACK = 1e-12


@dataclass
class Trajectory:
    """Sampled geodesic with node states and per-step Hermite interpolation.

    Positions live at the spray's level, velocities alongside; a position
    paired with its velocity is a slashed point one level up.  Node
    accelerations are stored to interpolate velocities.  ``exit_reason``
    is None for a run that covered the requested span, otherwise one of
    ``"slashed"`` or ``"domain"``; a finite-difference field of
    :func:`~sprayjets.jacobi.variation_oracle` that stops short of its
    geodesic's span carries ``"truncated"``.
    """

    spray: Spray
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    h: float
    exit_reason: str | None = field(default=None)

    @property
    def complete(self) -> bool:
        return self.exit_reason is None

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _bracket(self, t):
        """Index i of the step [times[i], times[i + 1]] holding ``t``.

        ``t`` is a float or an array of floats; both :meth:`state_at` and
        :meth:`states_at` take their span check and step index from here.
        A time outside the span (by more than _SPAN_SLACK) raises
        :class:`DomainError`.  A single-node trajectory gives index 0.
        """
        ts = self.times
        n = len(ts)
        forward = ts[-1] >= ts[0]
        if n == 1:
            inside = np.abs(t - ts[0]) <= _SPAN_SLACK
        else:
            lo, hi = (ts[0], ts[-1]) if forward else (ts[-1], ts[0])
            inside = (lo - _SPAN_SLACK <= t) & (t <= hi + _SPAN_SLACK)
        if not inside.all():
            bad = t if np.ndim(t) == 0 else t[np.argmin(inside)]
            if n == 1:
                raise DomainError(f"time {bad} outside single-node trajectory")
            raise DomainError(f"time {bad} outside trajectory span [{ts[0]}, {ts[-1]}]")
        if n == 1:
            return np.zeros(np.shape(t), dtype=np.intp)
        # Searching the interior nodes only gives an index in [0, n - 2]: a
        # time at or past the last node (or within the slack before the
        # first) falls in the end step without a clamp.
        if forward:
            return np.searchsorted(ts[1:-1], t, side="right")
        return n - 2 - np.searchsorted(ts[-2:0:-1], t, side="left")

    def state_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        x, step = self._position_step(t)
        if step is None:
            return x, self.velocities[0]
        i, tau, dt = step
        v = _hermite(self.velocities[i], self.accelerations[i],
                     self.velocities[i + 1], self.accelerations[i + 1], tau, dt)
        return x, v

    def states_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`state_at` at every time in ``times``, as two row arrays.

        Row k equals ``state_at(times[k])`` bit for bit; a time outside the
        span raises :class:`DomainError`.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        i = self._bracket(t)
        if len(self.times) == 1:
            return self.positions[i], self.velocities[i]
        ts = self.times
        dt = (ts[i + 1] - ts[i])[:, None]
        tau = (t[:, None] - ts[i][:, None]) / dt
        x = _hermite(self.positions[i], self.velocities[i],
                     self.positions[i + 1], self.velocities[i + 1], tau, dt)
        v = _hermite(self.velocities[i], self.accelerations[i],
                     self.velocities[i + 1], self.accelerations[i + 1], tau, dt)
        return x, v

    def position_at(self, t: float) -> np.ndarray:
        """The position of :meth:`state_at` at ``t``, bit for bit, without its velocity."""
        return self._position_step(t)[0]

    def _position_step(self, t: float):
        """The position at ``t``, and (i, tau, dt): its step, where it lies in the
        step and the step's length, or None on a single-node trajectory."""
        i = self._bracket(t)
        if len(self.times) == 1:
            return self.positions[0], None
        dt = self.times[i + 1] - self.times[i]
        tau = (t - self.times[i]) / dt
        x = _hermite(self.positions[i], self.velocities[i],
                     self.positions[i + 1], self.velocities[i + 1], tau, dt)
        return x, (i, tau, dt)

    def final_jet(self) -> JetPoint:
        return JetPoint(self.spray.level + 1, self.spray.dim,
                        np.concatenate([self.positions[-1], self.velocities[-1]]))

    def columns(self, idx, spray: Spray) -> Trajectory:
        """The curve formed by the coordinate columns ``idx``, under ``spray``."""
        return Trajectory(
            spray=spray,
            times=self.times,
            positions=self.positions[:, idx],
            velocities=self.velocities[:, idx],
            accelerations=self.accelerations[:, idx],
            h=self.h,
            exit_reason=self.exit_reason,
        )


def _hermite(y0, d0, y1, d1, tau, dt):
    t2, t3 = tau * tau, tau * tau * tau
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + tau) * dt * d0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * dt * d1)


# Above this bound a sum of squares over a velocity is far from
# EPS_SLASHED**2: the terms are non-negative, so the Python sum and BLAS's
# ``ddot`` differ by a few ulps, and the margin of 1e-6 covers that many
# times over.  At or below it the exact numpy test decides.
_NOT_SLASHED_ABOVE = EPS_SLASHED**2 * (1.0 + 1e-6)


def _node_exit(s: Spray, x: list, v: list) -> str | None:
    """Exit reason of the finite node (x, v), or None if the run goes on.

    The slashed test is ``np.linalg.norm(v[:dim]) <= EPS_SLASHED`` bit for
    bit, but numpy runs only near the threshold (see _NOT_SLASHED_ABOVE).
    """
    vd = v[: s.dim]
    sq = 0.0
    for z in vd:
        sq += z * z
    if sq <= _NOT_SLASHED_ABOVE:
        vd = np.array(vd)
        if math.sqrt(vd.dot(vd)) <= EPS_SLASHED:  # np.linalg.norm(vd), bit for bit
            return EXIT_SLASHED
    if not s.in_domain(x):
        return EXIT_DOMAIN
    return None


def _finite(x: list, v: list) -> bool:
    # a finite sum has finite terms; a sum that overflows is checked entrywise
    return math.isfinite(sum(x) + sum(v)) or all(map(math.isfinite, x + v))


def _rk4(n: int, dim: int, tape: _Tape | None = None,
         filename: str | None = None) -> Callable:
    """The RK4 run loop for ``n`` positions, ``dim`` of them the base's.

    It is ``loop(f, failed, node_exit, domain, floor, times, buf, nsteps,
    t1, sign, h)``, which runs the ``nsteps`` steps of :func:`_integrate`
    from the one node in ``times`` and ``buf``, keeping the state in
    locals, and returns the run's exit reason.  ``buf`` is a ``bytearray``
    of stored nodes, each one row packed by :func:`_node_row`.  ``f(x, v)``
    is the acceleration as a list.  From the node (x, v) with acceleration
    a1, stage k is ``xk = x + c*d``, ``vk = v + c*a`` with (c, d, a) =
    (0.5*dt, v, a1), (0.5*dt, v2, a2), (dt, v3, a3), and ak is ``f`` there;
    the update is ``x + dt*(v + 2.0*v2 + 2.0*v3 + v4)/6.0`` and likewise
    for v.  Each step is those statements, then the node checks'
    prefilters: the sum of the node's entries is finite, the sum of
    squares of its leading ``dim`` velocities lies above ``floor``, and
    ``domain`` (unless None) holds the list of its ``dim`` base positions.
    A node (xn, vn) that fails one meets the exact checks, on lists built
    only there: the loop returns ``failed([x2, x3, x4], None)`` when the
    node is not finite (:func:`_finite`), then ``node_exit(xn, vn)`` when
    it is not None, and otherwise goes on.  A node that goes on is
    evaluated, ``an = f(xn, vn)``; then its time is appended to ``times``
    and the row (xn, vn, an) to ``buf``, and no other list is kept for it.
    An evaluation that raises ``ArithmeticError`` or ``ValueError``
    returns ``failed(stages, exc)``, ``stages`` being ``[x2]``,
    ``[x2, x3]``, ``[x2, x3, x4]`` or ``[xn]``: the step's positions
    evaluated so far.  ``failed`` returns an exit reason or raises.  The
    loop returns None past the last step.

    ``tape`` is the recording a traced kernel or fan keeps
    (:func:`~sprayjets.jets.compile_trace`).  With it, each stage
    evaluation and the node's acceleration run their own copy of the
    program's lines (:func:`~sprayjets.jets.kept_lines`: its kept
    statements, folded as in the program) instead of calling ``f``, and a
    copy that raises ends the run as a call that raises would.  The copies
    perform the program's operations on the same values, so every result
    is bitwise that of the loop calling the program.  A copy reads the
    program's inputs as the stage's ``xk_#`` and ``vk_#`` (``xn_#`` and
    ``vn_#`` for the node) and its output lines assign ``ak_#`` (``a1_#``)
    directly, so no line packs or unpacks a tuple.  The four copies share
    one set of temporaries, the program's other names with the suffix
    ``_e``: each copy is straight-line code that assigns every name before
    reading it.  So the loop has the calling loop's locals plus one copy's
    temporaries, not four times those.  The line a traceback shows reads
    its stage's names.  The loop's source is registered under
    ``filename``.
    """

    def each(template: str) -> list[str]:
        return [template.replace("#", str(i)) for i in range(n)]

    def row(template: str) -> str:
        return ", ".join(each(template))

    def evaluate(k: str, x: str, v: str) -> list[str]:
        # the lines that set a{k}_# to the acceleration at (x_#, v_#)
        if tape is None:
            return [f"{row(f'a{k}_#')}, = f([{row(x)}], [{row(v)}])"]
        return kept_lines(tape, (each(x), each(v)), "_e", each(f"a{k}_#"))[0]

    def indent(depth: int, lines: list[str]) -> list[str]:
        return [" " * depth + line for line in lines]

    def guarded(lines: list[str], stages: str) -> list[str]:
        # ``lines`` evaluate at the last of ``stages``; if they raise, the loop ends
        return ["try:", *indent(4, lines), "except (ArithmeticError, ValueError) as exc:",
                f"    return failed([{stages}], exc)"]

    body = ["c = 0.5 * dt"]
    stages = []
    for k, c, d, a in (("2", "c", "v", "a1"), ("3", "c", "v2", "a2"), ("4", "dt", "v3", "a3")):
        body += each(f"x{k}_# = x_# + {c} * {d}_#")
        body += each(f"v{k}_# = v_# + {c} * {a}_#")
        stages.append(f"[{row(f'x{k}_#')}]")
        body += guarded(evaluate(k, f"x{k}_#", f"v{k}_#"), ", ".join(stages))
    body += each("xn_# = x_# + dt * (v_# + 2.0 * v2_# + 2.0 * v3_# + v4_#) / 6.0")
    body += each("vn_# = v_# + dt * (a1_# + 2.0 * a2_# + 2.0 * a3_# + a4_#) / 6.0")
    squares = " + ".join(f"vn_{i} * vn_{i}" for i in range(dim))
    base = ", ".join(each("xn_#")[:dim])
    lines = ["def loop(f, failed, node_exit, domain, floor, times, buf, nsteps, t1, sign, h):",
             f"    {row('x_#')}, {row('v_#')}, {row('a1_#')}, = unpack(buf)",
             "    t = t0 = times[0]",
             "    for k in range(nsteps):",
             "        t_next = t1 if k == nsteps - 1 else t0 + sign * (k + 1) * h",
             "        dt = t_next - t",
             *indent(8, body),
             f"        if (not isfinite({row('xn_#').replace(',', ' +')} + "
             f"{row('vn_#').replace(',', ' +')}) or {squares} <= floor",
             f"                or domain is not None and not domain([{base}])):",
             f"            xn = [{row('xn_#')}]",
             f"            vn = [{row('vn_#')}]",
             "            if not finite(xn, vn):",
             f"                return failed([{', '.join(stages)}], None)",
             "            reason = node_exit(xn, vn)",
             "            if reason is not None:",
             "                return reason",
             *indent(8, guarded(evaluate("1", "xn_#", "vn_#"), f"[{row('xn_#')}]")),
             "        times.append(t_next)",
             f"        buf += pack({row('xn_#')}, {row('vn_#')}, {row('a1_#')})",
             *indent(8, each("x_# = xn_#") + each("v_# = vn_#")),
             "        t = t_next",
             "    return None"]
    node = _node_row(n)
    namespace = {"isfinite": math.isfinite, "finite": _finite, "pack": node.pack,
                 "unpack": node.unpack}
    if tape is None:
        filename = f"<rk4 loop n={n} dim={dim}>"
    else:
        namespace.update(tape.namespace)
    return compile_source("\n".join(lines) + "\n", filename, namespace, "loop")


@cache
def _node_row(n: int) -> struct.Struct:
    """The packing of one stored node of ``n`` positions: x, then v, then a, as doubles."""
    return struct.Struct(f"{3 * n}d")


@cache
def _calling(n: int, dim: int) -> Callable:
    """The :func:`_rk4` loop calling its evaluator, built once per shape."""
    return _rk4(n, dim)


# The inlined run loop of each traced kernel or fan, dropped with the program.
_inlined_loops: WeakKeyDictionary = WeakKeyDictionary()


def _run_loop(s: Spray, f: Callable, n: int) -> Callable:
    """The :func:`_rk4` loop for a run of ``s`` stepping with ``f`` on ``n`` positions.

    The run's program is the kernel when ``f`` is ``s.acceleration``,
    otherwise ``f`` itself, the lift's fan of a run of :mod:`sprayjets.jacobi`
    (:meth:`Spray.fan`), whose run reads no :attr:`Spray.kernel`.  A traced
    program (one that keeps a tape) is inlined, at any level and of any
    width: its loop is built at the program's first run and named after it.
    A run whose program is not traced gets the calling loop.  Past
    CPython's one-byte local index a loop's loads and stores of locals pay
    ``EXTENDED_ARG``, but so do those of a wide calling loop, and every
    inlined loop measured was no slower than its calling loop (ROADMAP.md,
    "Measured and not pursued").
    """
    program = s.kernel if f == s.acceleration else f
    tape = getattr(program, "tape", None)
    if tape is None:
        return _calling(n, s.dim)
    loop = _inlined_loops.get(program)
    if loop is None:
        name = "<rk4 loop " + program.__code__.co_filename[1:]
        loop = _inlined_loops[program] = _rk4(n, s.dim, tape, name)
    return loop


def _failed_step(s: Spray, stages: list, exc: Exception | None) -> str:
    """How a run ends whose step raised ``exc``, or reached a non-finite node if it is None.

    ``stages`` are the positions the step evaluated at, in order, ``exc``
    raised at the last.  An evaluation that raises outside the chart ends
    the run with ``"domain"``, and so does a non-finite node when one of
    the step's finite stage positions lies outside the chart; anything
    else raises :class:`IntegrationBlowupError`.
    """

    if exc is not None:
        if not s.in_domain(stages[-1]):
            return EXIT_DOMAIN
        raise IntegrationBlowupError(f"coefficient evaluation failed: {exc!r}") from exc
    # a NaN stage position is not outside: a NaN made inside the chart is a blowup
    if any(all(map(math.isfinite, xp)) and not s.in_domain(xp) for xp in stages):
        return EXIT_DOMAIN
    raise IntegrationBlowupError("non-finite state during integration")


def integrate(s: Spray, init: JetPoint, t_span: tuple[float, float], h: float) -> Trajectory:
    """Integrate the geodesic with initial jet ``init`` over ``t_span``.

    The trajectory is truncated with an exit reason if the state leaves
    the slashed bundle or the chart domain.  A coefficient evaluation that
    fails at an RK4 stage outside the domain also ends the run at the last
    node with ``"domain"``, and so does a non-finite node when one of its
    step's finite stage positions lies outside the domain.  Other
    non-finite values, and coefficient failures inside the domain, raise
    :class:`IntegrationBlowupError`, whose ``t_end`` is the time of the
    last finite node (None when the start fails).  A step size or span that is not
    finite raises :class:`DomainError`.
    """

    if init.level != s.level + 1:
        raise InvalidLevelError(
            f"initial jet must sit one level above the spray ({s.level + 1}), got {init.level}"
        )
    half = init.coords.size // 2
    return _integrate(s, s.acceleration, init.coords[:half].tolist(), init.coords[half:].tolist(),
                      t_span, h)


def _integrate(s: Spray, f: Callable, x: list, v: list, t_span: tuple[float, float],
               h: float) -> Trajectory:
    """The run of :func:`integrate` from the float lists (x, v), stepping with ``f``.

    ``f(x, v)`` returns the acceleration as a list of ``len(x)`` floats;
    the node checks read only ``x[:s.dim]`` and ``v[:s.dim]`` (and the
    finiteness of every entry), so a state may carry more than one spray's
    worth of columns after its carrier.  A step size that is not positive
    and finite raises :class:`DomainError`.  The steps run in one call of
    the run's :func:`_run_loop`, which decides each node by
    :func:`_node_exit` and each failed step by :func:`_failed_step`, and
    returns the exit reason.
    """

    if not 0.0 < h < math.inf:
        raise DomainError(f"step size must be positive and finite, got {h}")
    t0, t1 = float(t_span[0]), float(t_span[1])

    if not _finite(x, v):
        raise IntegrationBlowupError("non-finite state during integration")
    bad = _node_exit(s, x, v)
    if bad is not None:
        raise DomainError(f"initial state rejected: {bad}")

    span = t1 - t0
    ratio = abs(span) / h
    if not math.isfinite(ratio):
        raise DomainError(f"time span ({t0}, {t1}) is not finite in steps of {h}")
    nsteps = max(1, math.ceil(ratio - 1e-12)) if span != 0.0 else 0
    sign = 1.0 if span >= 0.0 else -1.0

    try:
        a = f(x, v)
    except (ArithmeticError, ValueError) as exc:
        _failed_step(s, [x], exc)  # the start is in the chart, so this raises
    n = len(x)
    times = [t0]
    buf = bytearray(_node_row(n).pack(*x, *v, *a))
    try:
        exit_reason = _run_loop(s, f, n)(
            f, partial(_failed_step, s), partial(_node_exit, s), s.domain, _NOT_SLASHED_ABOVE,
            times, buf, nsteps, t1, sign, h)
    except IntegrationBlowupError as exc:
        exc.t_end = times[-1]
        raise

    # one row (x, v, a) per stored node; each block is copied, so no array is a view of buf
    nodes = np.frombuffer(buf).reshape(len(times), 3 * n)
    return Trajectory(
        spray=s,
        times=np.array(times),
        positions=nodes[:, :n].copy(),
        velocities=nodes[:, n : 2 * n].copy(),
        accelerations=nodes[:, 2 * n :].copy(),
        h=h,
        exit_reason=exit_reason,
    )


def flow(s: Spray, p: JetPoint, t: float, h: float) -> JetPoint:
    """Geodesic flow: the phase point reached from ``p`` after time ``t``."""
    tr = integrate(s, p, (0.0, t), h)
    if not tr.complete:
        raise DomainError(
            f"flow left the bundle ({tr.exit_reason}) at t={tr.t_end:.6g} before {t}"
        )
    return tr.final_jet()


def residual(s: Spray, tr: Trajectory) -> float:
    """A-posteriori defect of the geodesic equation along a trajectory.

    At each step midpoint the Hermite reconstruction provides position,
    velocity, and curvature from node data alone; the defect compares the
    curvature against the spray acceleration there, evaluated on the whole
    stack of midpoints by one :meth:`~sprayjets.spray.Spray.accelerations`
    call.  A NaN defect at any step makes the result NaN, and so does a
    midpoint where the coefficient evaluation fails (the NaN that numpy
    arithmetic would give).
    """

    p0, p1 = tr.positions[:-1], tr.positions[1:]
    v0, v1 = tr.velocities[:-1], tr.velocities[1:]
    dt = np.diff(tr.times)[:, None]
    xm = _hermite(p0, v0, p1, v1, 0.5, dt)
    vm = _hermite_d1(p0, v0, p1, v1, 0.5, dt)
    curv = (v1 - v0) / dt
    try:
        acc = s.accelerations(xm, vm)
    except (ArithmeticError, ValueError):
        return math.nan
    d = curv - acc
    norms = np.sqrt(np.vecdot(d, d))  # np.linalg.norm of each row, bit for bit
    # numpy's max propagates a NaN norm; Python's max() would skip it and
    # report a broken run as clean
    return float(norms.max(initial=0.0))


def _hermite_d1(y0, d0, y1, d1, tau, dt):
    t2 = tau * tau
    return ((6 * t2 - 6 * tau) * y0 / dt + (3 * t2 - 4 * tau + 1) * d0
            + (-6 * t2 + 6 * tau) * y1 / dt + (3 * t2 - 2 * tau) * d1)


def _minima(times: np.ndarray, sizes: np.ndarray,
            step_at: Callable[[float], float]) -> list[float]:
    """Node-local minima of a non-negative size, refined by Newton steps.

    Node i >= 1 is a minimum when ``sizes[i]`` is below node i - 1's and at
    most node i + 1's (the last node: below its predecessor).  From its time,
    three steps ``t += step_at(t)`` refine it; ``step_at`` is the caller's
    Newton step toward the zero that the size measures, which converges to
    the integrator's accuracy.  A minimum whose iterate leaves its two steps,
    ``times[i - 1]`` to ``times[i + 1]`` in either time order, is dropped;
    the caller judges each refined time it gets back.
    """
    after = np.append(sizes, np.inf)[2:]
    found = []
    for i in np.flatnonzero((sizes[1:] < sizes[:-1]) & (sizes[1:] <= after)) + 1:
        lo, hi = sorted((times[i - 1], times[min(i + 1, len(times) - 1)]))
        t = float(times[i])
        for _ in range(3):
            t += float(step_at(t))
            if not lo <= t <= hi:  # also a NaN step
                break
        else:
            found.append(t)
    return found
