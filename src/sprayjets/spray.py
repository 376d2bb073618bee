"""Sprays and their lifts.

A spray at level r assigns to every slashed level-(r+1) point the
level-(r+2) point (x, y, y, -2 G(x, y)); the quadratic coefficients G are
what distinguishes one spray from another.  Coefficient evaluators take
the two coordinate halves of the level-(r+1) point as indexable sequences
of generic scalars and must stay polymorphic over Dual entries: the
complete lift is literally the same evaluator run on Dual pairs, and a
second lift runs it on Duals of Duals, packed as :mod:`sprayjets.jets`
states.  Each spray keeps its lift (:attr:`Spray.lift`).

That ``Dual`` evaluation is the semantics of a lift, and ``coeff_fn``
always runs it.  Float accelerations run instead each spray's
:attr:`Spray.kernel`: the straight-line program that
:func:`~sprayjets.jets.compile_trace` records from ``-2 * coeff_fn`` at the
spray's first float evaluation.  Level-0, lifted, projected and pushed
sprays have one, since tracing runs straight through nested ``Dual``
arithmetic and ``jet_apply``.  The program is a recording of the same
operations on the same operands, with repeated statements dropped and
each operation that cannot raise and has one reader folded into that
reader's expression; operations that can raise keep their own lines in
tape order.  So its results are bitwise equal by construction, and it
raises the exception the ``Dual`` evaluation raises first.  An evaluator
whose control flow depends on a value (a branch on ``jet_re(...)``, a
comparison) refuses tracing, and its kernel evaluates ``coeff_fn``
itself.  The kernel is the one-tangent case of :meth:`Spray.fan`, which
records ``-2 * coeff_fn`` on one carrier and several tangents in turn; on
a complete lift the later copies' carrier statements repeat the first's
and are dropped, so Jacobi fields along one geodesic run as one state
whose carrier is evaluated once.

Every float acceleration runs compiled statements, so outside the
kernels of refused evaluators no acceleration runs ``Dual`` arithmetic
on floats; chart actions on jets (``jet_apply``, ``pushforward``) always
do.  The time derivative of the acceleration
(:func:`acceleration_jet`) is read off the complete lift's kernel rather
than evaluated on ``Dual`` pairs.  Most run through a call of the
kernel or fan; an RK4 run loop (:mod:`sprayjets.geodesic`) that stays
within its local limit, at any level, runs inlined copies of a traced
kernel's or fan's statements instead, with the same results.  On ``Dual``
entries :func:`acceleration_jet` runs ``coeff_fn`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidLevelError
from .jetspace import JetPoint, is_slashed
from .jets import compile_trace, jcos, jnorm, jsin, nest, unnest


@dataclass(frozen=True)
class Spray:
    """Second-order geometry on the level-``level`` bundle.

    ``coeff_fn(pos, vel)`` returns the quadratic coefficients as a sequence
    of ``2**level * dim`` scalars.  ``domain``, when set, restricts the
    base chart: it receives a list of a position's ``dim`` leading floats.
    """

    level: int
    dim: int
    coeff_fn: Callable
    tag: str
    domain: Callable | None = None

    @property
    def fiber_dim(self) -> int:
        return (1 << self.level) * self.dim

    def coeffs(self, p: JetPoint) -> np.ndarray:
        if p.level != self.level + 1:
            raise InvalidLevelError(
                f"spray at level {self.level} takes level-{self.level + 1} points, got {p.level}"
            )
        if not np.isfinite(p.coords).all():
            raise DomainError("spray coefficients need finite coordinates")
        if not is_slashed(p):
            raise DomainError("spray coefficients need a slashed point")
        if not self.in_domain(p.coords.tolist()):
            raise DomainError("point lies outside the spray's chart domain")
        half = p.coords.size // 2
        return np.asarray(self.coeff_fn(p.coords[:half], p.coords[half:]), dtype=float)

    def acceleration(self, x: list[float], v: list[float]) -> list[float]:
        """The acceleration -2 G(x, v) at two lists of floats, run by :attr:`kernel`."""
        return self.kernel(x, v)

    @cached_property
    def kernel(self) -> Callable:
        """The acceleration as a function of two float lists, returning floats: ``fan(1)``.

        Equals ``-2.0 * np.asarray(coeff_fn(x, v))`` bit for bit.  Kept on
        the spray, so every caller of a memoized :attr:`lift` shares it; a
        traced kernel keeps its recording as its ``tape``, from which the
        RK4 run loop of :mod:`sprayjets.geodesic` generates its own code, so
        a loop that inlines it never calls it.
        """
        return self.fan(1)

    def fan(self, m: int) -> Callable:
        """The acceleration for one carrier and ``m`` tangents, built once per ``m``.

        It takes ``pos`` and ``vel`` laid out as (carrier, tangent 0, ...,
        tangent m - 1), the carrier being the first half of each input, and
        evaluates ``-2 * coeff_fn`` on (carrier, tangent k) for each k in
        turn, keeping the whole result of copy 0 and the second half of each
        later one.  That evaluation is traced by
        :func:`~sprayjets.jets.compile_trace` at the first use; on a complete
        lift copy k > 0 repeats copy 0's carrier statements, which the trace
        drops, so the carrier runs once and the tangent statements once per
        copy (vector forward mode).  When tracing is refused, the evaluation
        itself runs on the floats and returns ``float`` of each entry.  Either
        way copy k of the result is bitwise ``kernel(carrier, tangent k)``,
        and the fan raises exactly what those calls, made in turn, raise
        first.
        """
        fans = self._fans
        if m not in fans:
            coeff_fn, n = self.coeff_fn, self.fiber_dim
            c, w = n // 2, n - n // 2

            def copies(pos, vel):
                out = []
                for k in range(m):
                    tangent = slice(c + k * w, c + (k + 1) * w)
                    a = [-2.0 * g for g in coeff_fn([*pos[:c], *pos[tangent]],
                                                    [*vel[:c], *vel[tangent]])]
                    out += a if k == 0 else a[len(a) // 2:]
                return out

            name = f"<{self.tag} L{self.level}{'' if m == 1 else f' fan m={m}'}>"
            program = compile_trace(copies, c + m * w, c + m * w, name)
            if program is None:
                def program(pos, vel):
                    return [float(g) for g in copies(pos, vel)]
            fans[m] = program
        return fans[m]

    @cached_property
    def _fans(self) -> dict:
        return {}

    def in_domain(self, x: list[float]) -> bool:
        """Whether the float list ``x`` lies in the chart: ``domain`` of its ``dim`` leading floats."""
        return self.domain is None or bool(self.domain(x[: self.dim]))

    @cached_property
    def lift(self) -> "Spray":
        """The complete lift, :func:`dual_lift` of ``coeff_fn``, built once per spray."""
        return Spray(
            level=self.level + 1,
            dim=self.dim,
            coeff_fn=dual_lift(self.coeff_fn),
            tag=f"lifted({self.tag})",
            domain=self.domain,
        )


def homogeneity_check(s: Spray, p: JetPoint, lam: float) -> float:
    """Relative defect of positive 2-homogeneity in the fiber.

    ``p`` meets the checks of :meth:`Spray.coeffs`; the scaled side calls
    ``coeff_fn`` directly, so a small ``lam`` is not refused as unslashed.
    """
    if not 0.0 < lam < np.inf:
        raise DomainError(f"homogeneity scaling must be positive and finite, got {lam}")
    ref = lam * lam * s.coeffs(p)
    half = p.coords.size // 2
    scaled = np.asarray(s.coeff_fn(p.coords[:half], lam * p.coords[half:]), dtype=float)
    return float(np.linalg.norm(scaled - ref) / (1.0 + np.linalg.norm(ref)))


def dual_lift(parent_fn: Callable) -> Callable:
    """The lifted evaluator of ``parent_fn``, run on Dual pairs.

    Position and velocity get one :func:`~sprayjets.jets.nest` level each;
    the parent coefficients on those pairs give the vertical part as the
    primal component and the derivative part as the tangent component,
    which :func:`~sprayjets.jets.unnest` lays out at the lifted level.
    """

    def on_duals(pos, vel):
        return unnest(parent_fn(nest(pos, 1), nest(vel, 1)), 1)

    return on_duals


def complete_lift(s: Spray) -> Spray:
    """The lifted spray one level up, memoized on ``s`` as :attr:`Spray.lift`."""
    return s.lift


def project_spray(s: Spray) -> Spray:
    """The spray one level down: evaluate at zeroed outer fiber, doubled base.

    Applied to a complete lift this recovers the parent coefficients
    exactly, because the primal component of jet arithmetic repeats the
    float computation step for step.
    """

    if s.level < 1:
        raise InvalidLevelError("a base-level spray has no projection")
    parent_fn = s.coeff_fn

    def projected(pos, vel):
        n = len(pos)
        big_pos = list(pos) + [0.0] * n
        big_vel = list(vel) + list(vel)
        return parent_fn(big_pos, big_vel)[:n]

    return Spray(
        level=s.level - 1,
        dim=s.dim,
        coeff_fn=projected,
        tag=f"projected({s.tag})",
        domain=s.domain,
    )


def acceleration_jet(s: Spray, x: list, v: list) -> tuple[list, list]:
    """Acceleration and its time derivative along the geodesic through (x, v), as lists.

    The jolt is the tangent half of the complete lift's acceleration at
    (x, v; v, a): the parent coefficients on the pairs Dual(x, v),
    Dual(v, a).  Float lists run the kernels of ``s`` and of its lift; if an
    entry is a ``Dual``, both ``coeff_fn`` run instead, with exact tangents
    and primal components bitwise the float results.
    """
    lift = complete_lift(s)
    if all(type(z) is float for z in x + v):
        a = s.acceleration(x, v)
        return a, lift.acceleration(x + v, v + a)[len(x):]
    a = [-2.0 * g for g in s.coeff_fn(x, v)]
    return a, [-2.0 * g for g in lift.coeff_fn(x + v, v + a)][len(x):]


# --- builders -------------------------------------------------------------


@dataclass(frozen=True)
class ChristoffelField:
    """Symmetric connection coefficients on an n-dimensional chart.

    ``fn(x)`` returns an n x n x n nested structure Gamma[i][j][k],
    symmetric in (j, k), with entries generic over Dual scalars.
    """

    dim: int
    fn: Callable


def make_flat(dim: int, domain: Callable | None = None) -> Spray:
    zero = [0.0] * dim

    def coeff(pos, vel):
        return list(zero)

    return Spray(level=0, dim=dim, coeff_fn=coeff, tag="flat", domain=domain)


def make_riemannian(chris: ChristoffelField, tag: str = "riemannian",
                    domain: Callable | None = None) -> Spray:
    n = chris.dim

    def coeff(pos, vel):
        gamma = chris.fn(pos)
        out = []
        for i in range(n):
            gi = gamma[i]
            acc = 0.0
            for j in range(n):
                gij = gi[j]
                vj = vel[j]
                for k in range(n):
                    g = gij[k]
                    if isinstance(g, float) and g == 0.0:
                        continue
                    acc = acc + g * vj * vel[k]
            out.append(0.5 * acc)
        return out

    return Spray(level=0, dim=n, coeff_fn=coeff, tag=tag, domain=domain)


def make_sphere(pole_margin: float = 1e-8) -> Spray:
    lo, hi = pole_margin, np.pi - pole_margin

    def domain(x):
        return lo < float(x[0]) < hi

    return make_riemannian(round_sphere_christoffels(2), tag="sphere", domain=domain)


def round_sphere_christoffels(n: int) -> ChristoffelField:
    """Round unit ``S^n`` in hyperspherical coordinates (theta_1, ..., theta_n).

    The metric is diagonal, g_kk = prod_{j<k} sin(theta_j)**2, so the only
    nonzero symbols are Gamma^k_jk = Gamma^k_kj = cot(theta_j) for j < k
    and Gamma^j_kk = -sin(theta_j) cos(theta_j) prod_{j<l<k} sin(theta_l)**2
    for j < k.  At n = 2 they are the symbols of :func:`make_sphere` in
    colatitude/longitude coordinates.
    """

    if n < 1:
        raise InvalidLevelError(f"sphere dimension must be positive, got {n}")

    def fn(pos):
        s = [jsin(pos[j]) for j in range(n - 1)]
        c = [jcos(pos[j]) for j in range(n - 1)]
        cot = [c[j] / s[j] for j in range(n - 1)]
        gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        for j in range(n - 1):
            w = -s[j] * c[j]
            for k in range(j + 1, n):
                gamma[k][j][k] = gamma[k][k][j] = cot[j]
                gamma[j][k][k] = w
                if k < n - 1:
                    w = w * s[k] * s[k]
        return gamma

    return ChristoffelField(dim=n, fn=fn)


def make_round_sphere(n: int, pole_margin: float = 1e-8) -> Spray:
    """Geodesic spray of round unit ``S^n`` in hyperspherical coordinates.

    The chart keeps theta_1, ..., theta_{n-1} inside (0, pi), ``pole_margin``
    away from the ends; theta_n is the longitude.
    """

    lo, hi = pole_margin, np.pi - pole_margin

    def domain(x):
        return all(lo < float(z) < hi for z in x[: n - 1])

    return make_riemannian(round_sphere_christoffels(n), tag=f"round-sphere-{n}", domain=domain)


def make_finsler_example(c: Sequence[float]) -> Spray:
    """Direction-dependent drag coefficients G_i = c_i |y| y_i.

    Positively 2-homogeneous but not quadratic in the fiber, smooth away
    from the zero section only.
    """

    cs = [float(ci) for ci in c]
    n = len(cs)

    def coeff(pos, vel):
        speed = jnorm(vel)
        return [cs[i] * speed * vel[i] for i in range(n)]

    return Spray(level=0, dim=n, coeff_fn=coeff, tag="finsler-example")


# --- chart action ---------------------------------------------------------


def pushforward_spray(t, s: Spray) -> Spray:
    """The same spray expressed in the chart on the far side of ``t``.

    Phase points are pulled back, the defining jet is computed there, and
    the result is pushed forward with one more tangent level.  The
    evaluator stays generic over Dual coordinates so pushed sprays can be
    lifted like any other.

    Its kernel is traced like any other: tracing runs both chart jets and
    ``coeff_fn`` of ``s`` on symbolic entries, so the program calls
    neither ``jet_apply`` nor ``coeff_fn``.  Its lifts are traced as usual.
    """

    from .jetspace import jet_apply

    phase_level = s.level + 1
    value_level = s.level + 2

    def coeff(pos, vel):
        coords = list(pos) + list(vel)
        back = jet_apply(t.inverse, coords, phase_level, s.dim, s.dim)
        n = len(pos)
        bpos, bvel = back[:n], back[n:]
        acc = [-2.0 * g for g in s.coeff_fn(bpos, bvel)]
        pushed = jet_apply(t.forward, back + bvel + acc, value_level, s.dim, s.dim)
        return [-0.5 * z for z in pushed[3 * n :]]

    def domain(x):
        return s.in_domain(t.inverse(x))

    return Spray(
        level=s.level,
        dim=s.dim,
        coeff_fn=coeff,
        tag=f"pushed({s.tag},{t.name})",
        domain=None if s.domain is None else domain,
    )
