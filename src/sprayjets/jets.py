"""Dual numbers that nest, their packing of block layouts, a tracer, and scalar helpers.

Every coefficient evaluator in this package is written against plain
arithmetic and the ``j*`` helpers below, so the same code runs on floats,
on ``Dual`` values, and on ``Dual`` values whose components are again
``Dual``.  Nesting two layers propagates mixed second directional
derivatives, which is all the lift machinery needs.

Jets are stored in a block layout: 2**r blocks of n coordinates, block b
(an r-bit mask) differentiated at every tangent level whose bit is set.
:func:`nest` packs such coordinates into n nested ``Dual`` values and
:func:`unnest` lays results out again; nothing else knows the convention:
block bit k is ``Dual`` layer k, counted from the innermost, so the top
bit (the outermost tangent level) is the outermost layer.  A complete lift
packs one level per lift around what its entries carry, so in a lift of a
lift the outer lift's layer sits inside the inner one's.

``Dual`` is the semantics of jet arithmetic; nothing else defines it.
:func:`compile_trace` runs an evaluator once on ``Sym`` scalars, which
have a name but no value, and records every float operation and math call
that the nested ``Dual`` arithmetic performs, in order and with its exact
operands.  The recording becomes one function of straight-line float
code, emitted in two passes: a statement that repeats an earlier one
(same operator, same operands, same order) is dropped and its readers
read the earlier result; then a temporary that cannot raise and has one
reader is written into that reader's expression, not on a line of its
own.  Every other statement keeps a line, which assigns the statement's
tape name.  No operation is added.
On float inputs the function performs the same IEEE operations on the
same operands as the ``Dual`` evaluation, less the repeats, whose results
it already holds, so every component of its result, primal, tangent and
mixed, is bitwise equal by construction.  Parentheses keep the recorded
association, and only operations that cannot raise are moved: those that
can (division, powers, math calls) run in the recorded order, each on its
own line, so the function raises the exception the evaluation raises
first and its traceback shows that line.  Control flow that depends on a
value cannot be recorded: a ``Sym`` raises
:class:`~sprayjets.errors.TraceError` when it is compared, tested for
truth or converted to a number, and the evaluator is then not compiled.
The code has one dialect, Python floats: the tape binds each constant as
one (an int as the float Python converts it to) and refuses the trace on
any other constant, such as a numpy scalar or an int too large for a float.

The program keeps its recording, from which the RK4 run loop of
:mod:`sprayjets.geodesic` inlines copies of a kernel and
:func:`compile_stack` builds the kernel's stack twin, which runs the
statements once over columns of a whole stack of inputs; all three emit
their statements through :func:`kept_lines`.  The program and the twin
unpack their arguments into the tape's input names and return or store
the outputs; a copy reads the loop's own names for the inputs and assigns
the loop's names for the outputs, so it adds only its temporaries to the
loop's locals and builds no tuple.  An evaluation that runs the same
evaluator on several inputs sharing a carrier records the carrier's
statements once per run, and dropping the repeats leaves them once: this
is how :meth:`~sprayjets.spray.Spray.fan` gets vector forward mode.
"""

from __future__ import annotations

import linecache
import math
from collections import Counter
from functools import cached_property
from itertools import chain
from numbers import Number

import numpy as np

from .errors import TraceError

_NUMERIC = (float, int)  # float first: the common case, checked without an MRO walk


class Dual:
    """Truncated Taylor pair ``re + eps * du``; components may be Dual."""

    __slots__ = ("re", "du")

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual({self.re!r}, {self.du!r})"

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re + o.re, self.du + o.du)
        return Dual(self.re + o, self.du)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re - o.re, self.du - o.du)
        return Dual(self.re - o, self.du)

    def __rsub__(self, o):
        return Dual(o - self.re, -self.du)

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re * o.re, self.re * o.du + self.du * o.re)
        return Dual(self.re * o, self.du * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.re / o.re
            return Dual(q, (self.du - q * o.du) / o.re)
        return Dual(self.re / o, self.du / o)

    def __rtruediv__(self, o):
        q = o / self.re
        return Dual(q, -q * self.du / self.re)

    def __pow__(self, k):
        if not isinstance(k, _NUMERIC):
            return NotImplemented
        if k == 2:
            return self * self
        return Dual(self.re ** k, (k * self.re ** (k - 1)) * self.du)

    def sqrt(self):
        r = jsqrt(self.re)
        return Dual(r, self.du / (2.0 * r))

    def sin(self):
        return Dual(jsin(self.re), jcos(self.re) * self.du)

    def cos(self):
        return Dual(jcos(self.re), -jsin(self.re) * self.du)

    def exp(self):
        e = jexp(self.re)
        return Dual(e, e * self.du)

    def log(self):
        return Dual(jlog(self.re), self.du / self.re)


def jsqrt(z):
    return math.sqrt(z) if isinstance(z, _NUMERIC) else z.sqrt()


def jsin(z):
    return math.sin(z) if isinstance(z, _NUMERIC) else z.sin()


def jcos(z):
    return math.cos(z) if isinstance(z, _NUMERIC) else z.cos()


def jexp(z):
    return math.exp(z) if isinstance(z, _NUMERIC) else z.exp()


def jlog(z):
    return math.log(z) if isinstance(z, _NUMERIC) else z.log()


def jet_re(z):
    """Primal component; floats pass through."""
    return z.re if isinstance(z, Dual) else z


def jet_du(z):
    """Tangent component; floats have none."""
    return z.du if isinstance(z, Dual) else 0.0


def nest(coords, level: int) -> list:
    """Block-layout ``coords`` as nested Duals, ``level`` layers outside any they carry."""
    if level == 0:
        return list(coords)
    half = len(coords) // 2
    return [Dual(re, du) for re, du in zip(nest(coords[:half], level - 1),
                                           nest(coords[half:], level - 1))]


def unnest(values, level: int) -> list:
    """The block layout of the outer ``level`` layers of ``values``; floats have zero tangents."""
    if level == 0:
        return list(values)
    return (unnest([jet_re(z) for z in values], level - 1)
            + unnest([jet_du(z) for z in values], level - 1))


def jdot(a, b):
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc = acc + a[i] * b[i]
    return acc


def jnorm(a):
    return jsqrt(jdot(a, a))


# --- tracing ----------------------------------------------------------------

_MATH = ("sqrt", "sin", "cos", "exp", "log")


class _Tape:
    """Statements recorded from ``Sym`` arithmetic, and the names they use.

    Each statement is ``(target, op, operands)``: ``op`` is a binary
    operator, ``"-"`` on one operand for negation, or a name from
    ``_MATH``; operands are names of ``Sym`` values or bound constants.
    """

    def __init__(self):
        self.stmts: list[tuple[str, str, tuple[str, ...]]] = []
        self.namespace = {name: getattr(math, name) for name in _MATH}
        self._consts: dict[int, tuple[str, object]] = {}
        self._count = 0
        self.refused = False
        # the names of the inputs and outputs, set once the evaluation is recorded
        self.inputs: tuple[list[str], list[str]] = ([], [])
        self.outputs: list[str] = []

    @cached_property
    def folded(self):
        """``(kept, lines, outputs)``: the count of statements :func:`_drop_repeats`
        keeps, their lines (:func:`_fold`) and the names of the outputs among
        them; worked out once, when the first program is emitted."""
        kept, out = _drop_repeats(self.stmts, self.outputs)
        return len(kept), _fold(kept, set(out)), out

    def fresh(self, op: str | None = None, *operands: str) -> "Sym":
        name = f"t{self._count}"
        self._count += 1
        if op is not None:
            self.stmts.append((name, op, operands))
        return Sym(self, name)

    def operand(self, z) -> str | None:
        """The name of ``z`` in the generated code; None if it is no scalar.

        A constant is bound as a Python float, an int as the float Python
        converts it to; any other number refuses the trace (``TraceError``).
        """
        if isinstance(z, Sym):
            return z.name
        if not isinstance(z, Number):
            return None
        # Constants are bound by identity, never written as literals, so -0.0,
        # inf and nan reach the program exactly; kept here, each keeps its id.
        bound = self._consts.get(id(z))
        if bound is None:
            try:
                value = z if type(z) is float else float(z) if isinstance(z, int) else None
            except OverflowError:  # an int too large for a float
                value = None
            if value is None:
                self.refused = True
                raise TraceError(f"the constant {z!r} is no Python float")
            bound = self._consts[id(z)] = f"c{len(self._consts)}", z
            self.namespace[bound[0]] = value
        return bound[0]

    def binary(self, a, op: str, b):
        x, y = self.operand(a), self.operand(b)
        if x is None or y is None:
            return NotImplemented
        return self.fresh(op, x, y)


class Sym:
    """A traced scalar: a name on a tape, with no value.

    Arithmetic appends one statement to the tape and returns a new
    ``Sym``.  Anything that needs the value raises ``TraceError``.
    """

    __slots__ = ("tape", "name")
    # numpy scalars defer to the reflected methods below instead of
    # wrapping a Sym in an object array, so the tape sees them and refuses.
    __array_ufunc__ = None

    def __init__(self, tape: _Tape, name: str):
        self.tape = tape
        self.name = name

    def __repr__(self):
        return f"Sym({self.name})"

    def __add__(self, o):
        return self.tape.binary(self, "+", o)

    def __radd__(self, o):
        return self.tape.binary(o, "+", self)

    def __sub__(self, o):
        return self.tape.binary(self, "-", o)

    def __rsub__(self, o):
        return self.tape.binary(o, "-", self)

    def __mul__(self, o):
        return self.tape.binary(self, "*", o)

    def __rmul__(self, o):
        return self.tape.binary(o, "*", self)

    def __truediv__(self, o):
        return self.tape.binary(self, "/", o)

    def __rtruediv__(self, o):
        return self.tape.binary(o, "/", self)

    def __pow__(self, o):
        return self.tape.binary(self, "**", o)

    def __neg__(self):
        return self.tape.fresh("-", self.name)

    def sqrt(self):
        return self.tape.fresh("sqrt", self.name)

    def sin(self):
        return self.tape.fresh("sin", self.name)

    def cos(self):
        return self.tape.fresh("cos", self.name)

    def exp(self):
        return self.tape.fresh("exp", self.name)

    def log(self):
        return self.tape.fresh("log", self.name)

    def _refuse(self, *args):
        # Flagged on the tape as well, in case the evaluator catches the error.
        self.tape.refused = True
        raise TraceError("a traced scalar has no value to branch on or convert")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __float__ = __int__ = __index__ = _refuse


def _drop_repeats(stmts, outputs):
    """``stmts`` without those that repeat an earlier statement, and ``outputs``.

    A statement repeats an earlier one when it applies the same operator to
    the same operand names in the same order, after the substitutions made
    so far; its readers, ``outputs`` included, read the earlier target
    instead.  Same operation, same operands: same bits, same exception.
    """
    first: dict[tuple, str] = {}
    alias: dict[str, str] = {}
    kept = []
    for target, op, operands in stmts:
        operands = tuple(alias.get(a, a) for a in operands)
        earlier = first.setdefault((op, operands), target)
        if earlier == target:
            kept.append((target, op, operands))
        else:
            alias[target] = earlier
    return kept, [alias.get(z, z) for z in outputs]


# How tightly Python binds a binary operator's expression; unary minus
# binds tighter than any but **, and a name or a call tightest.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 4}
_NEG, _ATOM = 3, 5

_QUIET = ("+", "-", "*")  # the operators that cannot raise on float operands

# The deepest a line nests folded statements: far inside the parser's
# limit of nested parentheses and the compiler's recursion limit.
_MAX_DEPTH = 32


def _expression(op: str, parts):
    """The template of ``op`` on ``parts``, each a (template, binding) pair, and its binding.

    Operands are parenthesised so that Python groups the expression as
    the tape recorded it: a left operand that binds less tightly than the
    operator, a right one that binds no more tightly (so every base and
    exponent of ``**`` that is not a name), and an operand of unary minus
    that is not a name.
    """
    if len(parts) == 2:
        (left, lb), (right, rb) = parts
        binds = _BINDS[op]
        left = left if lb >= binds else f"({left})"
        right = right if rb > binds else f"({right})"
        return f"{left} {op} {right}", binds
    (arg, binds), = parts
    if op == "-":
        return (f"-{arg}" if binds == _ATOM else f"-({arg})"), _NEG
    return f"{op}({arg})", _ATOM


def _fold(stmts, outputs):
    """``stmts`` as lines ``(target, template, reads)``, quiet temporaries folded into their reader.

    A statement is folded when its op is binary ``+ - *`` or unary minus,
    which cannot raise on floats, its target is read by exactly one operand of one statement and
    is no output, and it nests fewer than ``_MAX_DEPTH`` statements.  Its
    expression then stands in its reader's line in place of its name, so
    it runs later than recorded, but on the same values, and a raising
    statement, which always keeps a line, still runs in tape order.  Each
    line is ``target = template.format(*reads)``, ``reads`` naming the
    values the line reads, from left to right.
    """
    readers = Counter(a for _, _, operands in stmts for a in operands)
    held = {}  # folded target -> template, reads, binding, depth
    lines = []
    for target, op, operands in stmts:
        parts = [held.pop(a, ("{}", (a,), _ATOM, 0)) for a in operands]
        template, binds = _expression(op, [(t, b) for t, _, b, _ in parts])
        reads = tuple(r for _, rs, _, _ in parts for r in rs)
        depth = 1 + max(d for *_, d in parts)
        if op in _QUIET and readers[target] == 1 and target not in outputs and depth < _MAX_DEPTH:
            held[target] = template, reads, binds, depth
        else:
            lines.append((target, template, reads))
    return lines


def compile_trace(fn, n_pos: int, n_vel: int, filename: str):
    """Straight-line float code recorded from one evaluation of ``fn(pos, vel)``.

    ``fn`` runs once on ``n_pos`` and ``n_vel`` symbolic scalars and must
    return a sequence of scalars.  The result is a function of two float
    sequences of those lengths that returns the same list ``fn`` would,
    bit for bit, and computes Python floats only (:meth:`_Tape.operand`).
    Returns None when the evaluation cannot be recorded: it needed a value
    or met a constant that is no Python float, such as a numpy scalar
    (``TraceError``), or failed in any other way; the caller then keeps
    evaluating ``fn`` itself and meets the same failure if it was real.

    Between recording and code generation, statements that repeat an
    earlier one are dropped (:func:`_drop_repeats`) and quiet temporaries
    are folded into their one reader (:func:`_fold`); no operation is
    added, and none that can raise is moved.  Each line assigns the tape
    name of its statement.  The source is registered with
    :mod:`linecache` under ``filename``, each operation that can raise on
    a line of its own, so tracebacks show the failing statement; its first
    line gives the recorded and kept statement counts.  The function keeps
    its recording as its ``tape`` attribute.
    """

    tape = _Tape()
    pos = [tape.fresh() for _ in range(n_pos)]
    vel = [tape.fresh() for _ in range(n_vel)]
    try:
        out = [tape.operand(z) for z in fn(pos, vel)]
    except Exception:
        return None
    if tape.refused or None in out:
        return None
    tape.inputs = [z.name for z in pos], [z.name for z in vel]
    tape.outputs = out
    (note, *body), out = kept_lines(tape, tape.inputs)
    lines = [note, "def program(pos, vel):", *(f"    {line}" for line in _unpack(tape) + body),
             f"    return [{', '.join(out)}]"]
    # a copy: exec adds its own names to the namespace it runs in
    program = compile_source("\n".join(lines) + "\n", filename, dict(tape.namespace), "program")
    program.tape = tape
    return program


def kept_lines(tape: _Tape, inputs, suffix="", outputs=None):
    """Source lines that run the kept statements of ``tape`` on ``inputs``, and the output names.

    The first line is a comment with the recorded and kept statement
    counts; the rest run the statements that :func:`_drop_repeats` keeps,
    folded by :func:`_fold`, one line each.  ``inputs`` are two lists of
    names that stand for the tape's inputs wherever a line reads one; no
    line unpacks them.  ``outputs``, when given, are the names that receive
    the tape's outputs: the line of an output's statement assigns that name
    instead of the statement's tape name, and an output that no line
    assigns first (a constant, an input, or a repeat of an earlier output)
    is copied into its name by a line at the end.  Every other line assigns
    its statement's tape name with ``suffix``, which keeps the copy's names
    apart from those of the function it runs in; there the copy adds one
    local per such line.  Copies of one suffix share those locals: each
    assigns every such name before it reads it.  The names returned
    hold the tape's outputs in order.
    """

    kept, folded, out = tape.folded
    names = dict(zip(chain(*tape.inputs), chain(*inputs)))
    copies = []
    if outputs is not None:
        assigned = {target for target, _, _ in folded}
        for z, name in zip(out, outputs):
            if z in assigned and z not in names:
                names[z] = name
            else:
                copies.append((name, z))

    def local(z):
        return z if z in tape.namespace else names.get(z, z + suffix)

    lines = [f"# {len(tape.stmts)} recorded, {kept} kept"]
    lines += [f"{local(target)} = {template.format(*map(local, reads))}"
              for target, template, reads in folded]
    if outputs is None:
        return lines, [local(z) for z in out]
    return lines + [f"{name} = {local(z)}" for name, z in copies], list(outputs)


def _unpack(tape: _Tape) -> list[str]:
    """The two lines that bind the tape's input names from the arguments ``pos`` and ``vel``."""
    return [f"{''.join(z + ', ' for z in names)}= {src}"
            for names, src in zip(tape.inputs, ("pos", "vel"))]


def compile_stack(tape: _Tape, filename: str):
    """The program of ``tape`` over a stack of inputs, or None where it could differ from the rows.

    The result, ``stack(pos, vel, out)``, takes the inputs as two float64
    arrays of columns, of shapes (n_pos, N) and (n_vel, N), and fills the
    (N, k) array ``out``, row r with the recorded program's result on
    column r.  The lines are those of :func:`kept_lines`, each recorded
    ``+ - * /`` and unary minus one float64 ufunc over the columns, which
    IEEE arithmetic makes exactly the scalar operation; each
    ``sqrt sin cos exp log`` runs entry by entry through Python's
    :mod:`math`, since numpy's SIMD transcendentals need not round as the
    C library does.  From finite entries and constants an operation leaves
    the finite numbers only with an IEEE flag (overflow, division by zero,
    invalid), and a Python float operation raises only on a division by
    zero, which flags too.  So a run on finite columns under
    ``np.errstate(all="raise")`` that raises nothing gives every row's
    result bit for bit; on any exception the caller runs the rows.

    None when the tape records ``**``, whose Python float exceptions no
    ufunc flag stands for, or binds a constant that is not finite.  Every
    constant is a Python float already, so the twin binds the tape's.
    """

    consts = [c for c in tape.namespace.values() if not callable(c)]
    if any(op == "**" for _, op, _ in tape.stmts) or not all(map(math.isfinite, consts)):
        return None
    namespace = {**tape.namespace, **{name: _entrywise(getattr(math, name)) for name in _MATH}}
    (note, *body), out = kept_lines(tape, tape.inputs)
    lines = [note, "def stack(pos, vel, out):", *(f"    {line}" for line in _unpack(tape) + body),
             *(f"    out[:, {k}] = {z}" for k, z in enumerate(out)), "    return out"]
    return compile_source("\n".join(lines) + "\n", filename, namespace, "stack")


def _entrywise(f):
    """``f`` on each entry of a float64 array, in order, as a float64 array."""

    def column(a):
        return np.fromiter(map(f, a.tolist()), float, len(a))

    return column


def compile_source(source: str, filename: str, namespace: dict, fn_name: str):
    """The function ``fn_name`` that generated ``source`` defines in ``namespace``.

    The source is registered with :mod:`linecache` under ``filename``, or
    ``filename #k`` if another source already holds that name, so
    tracebacks show the generated lines.
    """

    text = source.splitlines(True)
    name, k = filename, 1
    while name in linecache.cache and linecache.cache[name][2] != text:
        k += 1
        name = f"{filename} #{k}"
    linecache.cache[name] = (len(source), None, text, name)
    exec(compile(source, name, "exec"), namespace)
    return namespace[fn_name]
