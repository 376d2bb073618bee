"""Seeded sample generators for tests and demos."""

from __future__ import annotations

import numpy as np

from .jetspace import JetPoint


def random_slashed_jet(rng: np.random.Generator, level: int, dim: int) -> JetPoint:
    """Random jet whose top-level block has norm at least 0.1.

    The slash block is rescaled rather than redrawn so a single draw
    always succeeds and stays reproducible.
    """

    coords = rng.standard_normal((1 << level) * dim)
    half = coords.size // 2
    top = coords[half : half + dim]
    speed = float(np.linalg.norm(top))
    if speed < 0.1:
        coords[half : half + dim] = top * (0.1 / speed if speed > 0 else 0.0)
        if speed == 0.0:
            coords[half] = 0.1
    return JetPoint(level, dim, coords)


def sphere_phase(rng: np.random.Generator) -> JetPoint:
    """Unit-speed phase point on the sphere chart, away from both poles.

    The colatitude stays inside [0.6, pi - 0.6] so that short
    integrations never approach the chart boundary.
    """

    theta = 0.6 + (np.pi - 1.2) * rng.uniform()
    phi = rng.uniform(-2.0, 2.0)
    v = rng.standard_normal(2)
    v *= 1.0 / np.linalg.norm(v)
    return JetPoint(1, 2, np.array([theta, phi, v[0], v[1]]))
