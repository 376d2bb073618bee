"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same Python code runs at speeds up to twice apart,
in phases that last from a fraction of a second to tens of seconds (on
the 2-vCPU Xeon guest the benchmark was defined on).  The benchmark times
this kernel between tasks and divides each task's latency by the kernel
time around it, so the phase cancels; multiplying by ``NOMINAL_S`` turns
the ratio back into seconds at the host's unloaded speed.

The kernel mirrors the program's mix of work without calling it: RK4 on
the sphere's geodesic equations, with the coefficients evaluated on
nested dual numbers and the state in small numpy arrays.  It is frozen:
changing it, its step count or ``NOMINAL_S`` changes every timing the
benchmark reports.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The kernel's time on an unloaded core of the 2-vCPU Xeon guest (the
# fastest phase seen there); reported timings are seconds at this speed.
NOMINAL_S = 1.7e-3
STEPS = 20
H = 1e-2


class _Dual:
    __slots__ = ("re", "du")

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.re + o.re, self.du + o.du)
        return _Dual(self.re + o, self.du)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.re * o.re, self.re * o.du + self.du * o.re)
        return _Dual(self.re * o, self.du * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            q = self.re / o.re
            return _Dual(q, (self.du + -1.0 * q * o.du) / o.re)
        return _Dual(self.re / o, self.du / o)


def _sin(x):
    return _Dual(_sin(x.re), _cos(x.re) * x.du) if isinstance(x, _Dual) else math.sin(x)


def _cos(x):
    return _Dual(_cos(x.re), -1.0 * _sin(x.re) * x.du) if isinstance(x, _Dual) else math.cos(x)


def _rhs(y: np.ndarray) -> np.ndarray:
    theta = _Dual(_Dual(y[0], y[4]), _Dual(y[2], y[6]))
    vtheta = _Dual(_Dual(y[2], y[6]), _Dual(0.1, 0.0))
    vphi = _Dual(_Dual(y[3], y[7]), _Dual(0.0, 0.1))
    s, c = _sin(theta), _cos(theta)
    a0 = s * c * vphi * vphi
    a1 = -2.0 * (c / s) * vtheta * vphi
    out = np.empty(8)
    out[:4] = y[4:]
    out[4], out[5], out[6], out[7] = a0.re.re, a1.re.re, a0.re.du, a1.re.du
    return out


def kernel() -> np.ndarray:
    """The fixed unit of work: ``STEPS`` RK4 steps of a lifted sphere geodesic."""
    y = np.array([1.2, 0.3, 0.1, 0.2, 0.5, 0.7, 0.1, 0.3])
    for _ in range(STEPS):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * H * k1)
        k3 = _rhs(y + 0.5 * H * k2)
        k4 = _rhs(y + H * k3)
        y = y + (H / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def timed() -> float:
    """Seconds one kernel call takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the unloaded speed, given kernel times just before and after."""
    return seconds * 2.0 * NOMINAL_S / (before + after)
