"""Coordinate operations on iterated tangent bundles.

A point of the r-fold tangent bundle over an n-dimensional chart is stored
as 2**r blocks of n coordinates.  Block b (an r-bit mask) is the coordinate
group obtained by differentiating at every tangent level whose bit is set
in b; the highest bit is the outermost level.  Block 0 is the underlying
chart point.

In this layout the canonical involution, the two bundle projections, their
tangent maps, and the Liouville lift are index permutations, selections, or
zero paddings, so the structural identities between them hold exactly in
floating point.  Function lifts (vertical and complete) are evaluated with
the scalar jet arithmetic from :mod:`sprayjets.jets`, and chart transitions
act on jet coordinates through the same arithmetic, one nesting level per
tangent level, packed by :func:`~sprayjets.jets.nest` and unpacked by
:func:`~sprayjets.jets.unnest` (whose module states the layer order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidLevelError
from .jets import nest, unnest

# Points whose descent block is shorter than this are treated as lying on
# the removed zero section.
EPS_SLASHED = 1e-10


@dataclass(frozen=True)
class JetPoint:
    """Immutable point of the level-``level`` iterated tangent bundle.

    ``coords`` is the flat block layout described in the module docstring:
    length ``2**level * dim``, block b occupying ``coords[b*dim:(b+1)*dim]``.
    """

    level: int
    dim: int
    coords: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise InvalidLevelError(f"negative level {self.level}")
        if self.dim < 1:
            raise InvalidLevelError(f"dimension must be positive, got {self.dim}")
        c = np.array(self.coords, dtype=float).reshape(-1)
        if c.size != (1 << self.level) * self.dim:
            raise InvalidLevelError(
                f"level {self.level} over dimension {self.dim} needs "
                f"{(1 << self.level) * self.dim} coordinates, got {c.size}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def nblocks(self) -> int:
        return 1 << self.level

    def block(self, mask: int) -> np.ndarray:
        if not 0 <= mask < self.nblocks:
            raise InvalidLevelError(f"block mask {mask} out of range at level {self.level}")
        return self.coords[mask * self.dim : (mask + 1) * self.dim]

    def blocks(self) -> list[np.ndarray]:
        return [self.block(b) for b in range(self.nblocks)]

    def base_block(self) -> np.ndarray:
        return self.coords[: self.dim]

    def __repr__(self):
        inner = ", ".join(str(tuple(b.tolist())) for b in self.blocks())
        return f"JetPoint(level={self.level}, dim={self.dim}, blocks=[{inner}])"


# --- index tables ---------------------------------------------------------
#
# Each table maps output coordinate slots to input slots, so applying an
# operation is a single fancy-indexing step and compositions stay exact.


def _swap_top_bits(mask: int, level: int) -> int:
    a, b = level - 1, level - 2
    ba, bb = (mask >> a) & 1, (mask >> b) & 1
    mask &= ~((1 << a) | (1 << b))
    return mask | (bb << a) | (ba << b)


@lru_cache(maxsize=None)
def _kappa_idx(level: int, dim: int) -> np.ndarray:
    if level == 1:
        return np.arange(2 * dim)
    idx = np.empty((1 << level) * dim, dtype=np.intp)
    for m in range(1 << level):
        s = _swap_top_bits(m, level)
        idx[m * dim : (m + 1) * dim] = np.arange(s * dim, (s + 1) * dim)
    return idx


@lru_cache(maxsize=None)
def _dproject_idx(level: int, dim: int) -> np.ndarray:
    # project after kappa: keep blocks whose second-highest bit is clear
    half = (1 << (level - 1)) * dim
    return _kappa_idx(level, dim)[:half]


def _tangent_idx(idx: np.ndarray, in_size: int) -> np.ndarray:
    # tangent map of a linear selection acts blockwise on both halves
    return np.concatenate([idx, idx + in_size])


@lru_cache(maxsize=None)
def _dkappa_idx(level: int, dim: int) -> np.ndarray:
    return _tangent_idx(_kappa_idx(level - 1, dim), (1 << (level - 1)) * dim)


@lru_cache(maxsize=None)
def _ddproject_idx(level: int, dim: int) -> np.ndarray:
    return _tangent_idx(_dproject_idx(level - 1, dim), (1 << (level - 1)) * dim)


def _take(coords, idx):
    if isinstance(coords, np.ndarray) and coords.dtype != object:
        return coords[idx]
    return [coords[i] for i in idx]


def _require_level(p: JetPoint, least: int, op: str):
    if p.level < least:
        raise InvalidLevelError(f"{op} needs level >= {least}, got {p.level}")


# --- structural maps ------------------------------------------------------


def kappa(p: JetPoint) -> JetPoint:
    """Canonical involution: swap the two outermost tangent levels."""
    _require_level(p, 1, "kappa")
    return JetPoint(p.level, p.dim, _take(p.coords, _kappa_idx(p.level, p.dim)))


def project(p: JetPoint) -> JetPoint:
    """Bundle projection dropping the outermost tangent level."""
    _require_level(p, 1, "project")
    return JetPoint(p.level - 1, p.dim, p.coords[: p.coords.size // 2])


def dproject(p: JetPoint) -> JetPoint:
    """Tangent map of the next-to-outermost projection; equals project(kappa(p))."""
    _require_level(p, 2, "dproject")
    return JetPoint(p.level - 1, p.dim, _take(p.coords, _dproject_idx(p.level, p.dim)))


def dkappa(p: JetPoint) -> JetPoint:
    """Tangent map of the involution one level down."""
    _require_level(p, 2, "dkappa")
    return JetPoint(p.level, p.dim, _take(p.coords, _dkappa_idx(p.level, p.dim)))


def ddproject(p: JetPoint) -> JetPoint:
    """Second tangent map of the projection two levels down."""
    _require_level(p, 3, "ddproject")
    return JetPoint(p.level - 1, p.dim, _take(p.coords, _ddproject_idx(p.level, p.dim)))


def liouville(p: JetPoint) -> JetPoint:
    """Liouville lift: the fiber scaling direction at ``p``, one level up.

    In blocks: the lower half of the result repeats ``p`` and the upper
    half is zero except that the fiber of ``p`` reappears over itself.
    """
    _require_level(p, 1, "liouville")
    return JetPoint(p.level + 1, p.dim, _liouville_rows(p.coords))


def _liouville_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`liouville` of each row of ``rows``, or of one flat coordinate array."""
    half = rows.shape[-1] // 2
    return np.concatenate([rows, np.zeros_like(rows[..., :half]), rows[..., half:]], axis=-1)


def is_slashed(p: JetPoint) -> bool:
    """True when ``p`` stays clear of the removed zero section.

    The test descends through the derivative projections down to the first
    tangent level, which in block terms inspects the block with only the
    top bit set.
    """
    _require_level(p, 1, "is_slashed")
    b = 1 << (p.level - 1)
    return float(np.linalg.norm(p.block(b))) > EPS_SLASHED


# --- function lifts -------------------------------------------------------
#
# A scalar field at level r is a callable on the flat coordinate layout of
# a level-r point.  Lift combinators return callables one level up and stay
# generic over Dual-valued coordinates, so they can be stacked.


def _level_of(size: int, dim: int) -> int:
    q, level = size // dim, 0
    while q > 1:
        q >>= 1
        level += 1
    if (1 << level) * dim != size:
        raise InvalidLevelError(f"coordinate count {size} is not a power-of-two multiple of {dim}")
    return level


def _swapped(coords, dim: int):
    """``coords`` under the canonical involution; level-0 coordinates have no lift."""
    level = _level_of(len(coords), dim)
    if level < 1:
        raise InvalidLevelError(f"function lifts need level >= 1, got {len(coords)} coordinates "
                                f"over dimension {dim}")
    return _take(coords, _kappa_idx(level, dim))


def vlift(f: Callable, dim: int) -> Callable:
    """Vertical lift: evaluate ``f`` on the swapped-out base of a jet."""

    def fv(coords):
        q = _swapped(coords, dim)
        return f(q[: len(q) // 2])

    return fv


def clift(f: Callable, dim: int) -> Callable:
    """Complete lift: differentiate ``f`` along the swapped-in direction.

    The tangent half of ``f`` on the one-level :func:`~sprayjets.jets.nest`
    of the swapped coordinates.  One jet layer is spent per lift; stacking
    two clifts therefore needs (and is the reason for) nested Duals.
    """

    def fc(coords):
        return unnest([f(nest(_swapped(coords, dim), 1))], 1)[1]

    return fc


# --- chart transitions ----------------------------------------------------


@dataclass(frozen=True)
class ChartTransition:
    """Smooth invertible chart change on the base manifold.

    ``forward`` and ``inverse`` must accept sequences of generic scalars
    (floats or Duals) and return sequences of the same length; ``jacobian``
    and ``hessian`` are analytic derivatives used only as test oracles.
    ``domain``, as a spray's, receives a list of the base block's floats.
    """

    dim: int
    forward: Callable
    inverse: Callable
    jacobian: Callable
    hessian: Callable
    name: str = "chart"
    domain: Callable | None = None


def jet_apply(fn: Callable, coords, level: int, dim_in: int, dim_out: int):
    """Apply the ``level``-fold tangent functor of ``fn`` to flat coordinates.

    ``fn`` is evaluated once on the :func:`~sprayjets.jets.nest` of the
    ``2**level * dim_in`` coordinates, and its ``dim_out`` values are
    unpacked by :func:`~sprayjets.jets.unnest` into the same block layout.
    A negative level, or any other coordinate or value count, raises
    ``InvalidLevelError``.

    That ``Dual`` evaluation is the only path, for float, numpy and
    ``Dual`` coordinates alike, so a map reads its constants at every
    call.
    """
    if level < 0:
        raise InvalidLevelError(f"negative level {level}")
    if len(coords) != dim_in << level:
        raise InvalidLevelError(f"level {level} needs {dim_in << level} coordinates, got {len(coords)}")
    vals = fn(nest(coords, level))
    if len(vals) != dim_out:
        raise InvalidLevelError(f"expected {dim_out} values, got {len(vals)}")
    return unnest(vals, level)


def pushforward(t: ChartTransition, p: JetPoint) -> JetPoint:
    """Act on a jet with the iterated tangent functor of ``t.forward``."""
    if t.dim != p.dim:
        raise InvalidLevelError(f"transition dimension {t.dim} != point dimension {p.dim}")
    if t.domain is not None and not t.domain(p.base_block().tolist()):
        raise DomainError("base block outside the transition domain")
    return JetPoint(p.level, p.dim, jet_apply(t.forward, p.coords.tolist(), p.level, p.dim, p.dim))


def shear_chart() -> ChartTransition:
    """Polynomial plane chart change (x1, x2) -> (x1 + x2**2, x2)."""

    def fwd(x):
        return [x[0] + x[1] * x[1], x[1]]

    def inv(x):
        return [x[0] - x[1] * x[1], x[1]]

    def jac(x):
        return np.array([[1.0, 2.0 * float(x[1])], [0.0, 1.0]])

    hess = np.zeros((2, 2, 2))
    hess[0, 1, 1] = 2.0
    return ChartTransition(
        dim=2,
        forward=fwd,
        inverse=inv,
        jacobian=jac,
        hessian=lambda x: hess,
        name="shear",
    )
