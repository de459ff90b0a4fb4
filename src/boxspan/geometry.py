"""Exact-semantics geometric primitives: points, axis-parallel boxes, obstacle environments.

All predicates compare stored coordinates exactly, obstacle disjointness as
closed sets included: a float difference has the sign of the exact one, so
that test is exact at every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Point3:
    """A location in 3-space with finite coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"coordinates must be finite, got {(self.x, self.y, self.z)}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def coord(self, axis: int) -> float:
        return (self.x, self.y, self.z)[axis]


@dataclass(frozen=True, slots=True)
class AxisBox:
    """Axis-parallel box [lo, hi]; degenerate extents are allowed.

    Obstacles additionally require strictly positive extent on every axis,
    which is enforced by :func:`validate_environment`, not here: derived
    boxes of two points may be flat or even a single point.
    """

    lo: Point3
    hi: Point3

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y or self.lo.z > self.hi.z:
            raise ValueError(f"box corners out of order: lo={self.lo}, hi={self.hi}")

    def contains_interior(self, pt: Point3) -> bool:
        """Open containment: lo < pt < hi componentwise."""
        return (self.lo.x < pt.x < self.hi.x
                and self.lo.y < pt.y < self.hi.y
                and self.lo.z < pt.z < self.hi.z)

    def sides(self) -> tuple[float, float, float]:
        return (self.hi.x - self.lo.x, self.hi.y - self.lo.y, self.hi.z - self.lo.z)


@dataclass(frozen=True)
class Environment:
    """A validated instance: disjoint box obstacles plus a point set.

    Construction normalizes the fields to tuples but does not validate;
    call :func:`validate_environment` to check the instance invariants.
    Read-only coordinate arrays, packed on first use and kept out of ==, hash
    and repr: point_coords (n x 3), obstacle_lo and obstacle_hi (m x 3).
    """

    obstacles: tuple[AxisBox, ...]
    points: tuple[Point3, ...]

    def __init__(self, obstacles: Iterable[AxisBox] = (), points: Iterable[Point3] = ()):
        object.__setattr__(self, "obstacles", tuple(obstacles))
        object.__setattr__(self, "points", tuple(points))

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def point_coords(self) -> np.ndarray:
        return _read_only(points_array(self.points))

    @cached_property
    def obstacle_lo(self) -> np.ndarray:
        return _read_only(points_array([box.lo for box in self.obstacles]))

    @cached_property
    def obstacle_hi(self) -> np.ndarray:
        return _read_only(points_array([box.hi for box in self.obstacles]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_environment(env: Environment) -> list[str]:
    """Report all violated instance invariants; an empty list means valid.

    Checks, messages in this order: strictly positive obstacle extents;
    obstacles pairwise disjoint as closed sets (the largest axis gap, the
    separation, is > 0), so they may not even touch; no point strictly
    inside an obstacle; points pairwise distinct (0.0 equals -0.0).
    """
    P, lo, hi = env.point_coords, env.obstacle_lo, env.obstacle_hi
    with np.errstate(over="ignore"):  # a difference past the float range is an infinity
        extent = hi - lo
        gap = np.maximum(lo[None] - hi[:, None], lo[:, None] - hi[None]).max(axis=2)
    inside = ((lo < P[:, None]) & (P[:, None] < hi)).all(axis=2)
    # Equal rows (-0.0 equals 0.0) are adjacent in a stable sort, in index
    # order, so each run of them starts at its first occurrence.
    order = np.lexsort(P.T)
    starts = np.ones(len(P), dtype=bool)
    starts[1:] = (P[order[1:]] != P[order[:-1]]).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[starts][np.cumsum(starts) - 1]
    repeats = np.flatnonzero(first != np.arange(len(P)))
    return ([f"obstacle {i} has non-positive extent on axis {axis}"
             for i, axis in np.argwhere(extent <= 0.0).tolist()]
            + [f"obstacles {i} and {j} touch or overlap (separation {gap[i, j] + 0.0:.3g})"
               for i, j in np.argwhere(np.triu(gap <= 0.0, k=1)).tolist()]
            + [f"point {k} lies strictly inside obstacle {i}"
               for k, i in np.argwhere(inside).tolist()]
            + [f"points {first[k]} and {k} coincide" for k in repeats.tolist()])


def project_out(o: Point3, env: Environment) -> tuple[Point3, Point3, Point3, Point3, Point3, Point3]:
    """Axis-parallel exits of o to the boundary of the obstacle containing it.

    Returns the six points (x+, x-, y+, y-, z+, z-).  When o is interior to
    an obstacle (at most one, by disjointness) each exit is the intersection
    of the axis ray from o with that obstacle's boundary; otherwise all six
    equal o.
    """
    for box in env.obstacles:
        if box.contains_interior(o):
            return (
                Point3(box.hi.x, o.y, o.z),
                Point3(box.lo.x, o.y, o.z),
                Point3(o.x, box.hi.y, o.z),
                Point3(o.x, box.lo.y, o.z),
                Point3(o.x, o.y, box.hi.z),
                Point3(o.x, o.y, box.lo.z),
            )
    return (o, o, o, o, o, o)


def points_array(points: Sequence[Point3]) -> np.ndarray:
    """Pack points into an (n, 3) float array for vectorized work."""
    return np.array([(p.x, p.y, p.z) for p in points], dtype=float).reshape(-1, 3)
