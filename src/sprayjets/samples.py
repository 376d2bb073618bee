"""Seeded sample generators for tests and demos."""

from __future__ import annotations

import numpy as np

from .jetspace import JetPoint


def random_jet(rng: np.random.Generator, level: int, dim: int,
               scale: float = 1.0) -> JetPoint:
    coords = scale * rng.standard_normal((1 << level) * dim)
    return JetPoint(level, dim, coords)


def random_slashed_jet(rng: np.random.Generator, level: int, dim: int,
                       scale: float = 1.0, min_speed: float = 0.1) -> JetPoint:
    """Random jet whose top-level block is bounded away from zero.

    The slash block is rescaled rather than redrawn so a single draw
    always succeeds and stays reproducible.
    """

    coords = scale * rng.standard_normal((1 << level) * dim)
    half = coords.size // 2
    top = coords[half : half + dim]
    speed = float(np.linalg.norm(top))
    if speed < min_speed:
        coords[half : half + dim] = top * (min_speed / speed if speed > 0 else 0.0)
        if speed == 0.0:
            coords[half] = min_speed
    return JetPoint(level, dim, coords)


def sphere_phase(rng: np.random.Generator, margin: float = 0.6,
                 speed: float = 1.0) -> JetPoint:
    """Slashed phase point on the sphere chart, away from both poles.

    The colatitude stays inside [margin, pi - margin] so that short
    integrations never approach the chart boundary.
    """

    theta = margin + (np.pi - 2.0 * margin) * rng.uniform()
    phi = rng.uniform(-2.0, 2.0)
    v = rng.standard_normal(2)
    v *= speed / np.linalg.norm(v)
    return JetPoint(1, 2, np.array([theta, phi, v[0], v[1]]))
