"""First-order dual numbers that nest, plus generic scalar math helpers.

Every coefficient evaluator in this package is written against plain
arithmetic and the ``j*`` helpers below, so the same code runs on floats,
on ``Dual`` values, and on ``Dual`` values whose components are again
``Dual``.  Nesting two layers propagates mixed second directional
derivatives, which is all the lift machinery needs.
"""

from __future__ import annotations

import math

_NUMERIC = (int, float)


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
    return z.sqrt() if isinstance(z, Dual) else math.sqrt(z)


def jsin(z):
    return z.sin() if isinstance(z, Dual) else math.sin(z)


def jcos(z):
    return z.cos() if isinstance(z, Dual) else math.cos(z)


def jexp(z):
    return z.exp() if isinstance(z, Dual) else math.exp(z)


def jlog(z):
    return z.log() if isinstance(z, Dual) else math.log(z)


def jet_re(z):
    """Primal component; floats pass through."""
    return z.re if isinstance(z, Dual) else z


def jet_du(z):
    """Tangent component; floats have none."""
    return z.du if isinstance(z, Dual) else 0.0


def jet_components(z):
    if isinstance(z, Dual):
        return z.re, z.du
    return z, 0.0


def jdot(a, b):
    acc = a[0] * b[0]
    for i in range(1, len(a)):
        acc = acc + a[i] * b[i]
    return acc


def jnorm(a):
    return jsqrt(jdot(a, a))
