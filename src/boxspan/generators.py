"""Deterministic, seeded instance generators.

Randomness comes from numpy's PCG64 generator (``numpy.random.default_rng``),
so identical configurations reproduce identical instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AxisBox, Environment, Point3, validate_environment


class CrowdedRegionError(RuntimeError):
    """Raised when rejection sampling cannot place the requested obstacles or points."""


@dataclass(frozen=True)
class GenConfig:
    """Configuration for random instances."""

    seed: int
    n: int
    m: int = 0
    extent: float = 1.0
    gap: float = 0.02
    min_side: float = 0.04
    max_side: float = 0.2
    placement: str = "free"  # "free" | "mixed"

    def validate(self) -> None:
        for name in ("extent", "gap", "min_side", "max_side"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.gap <= 0:
            raise ValueError("gap must be positive")
        if self.extent <= 0:
            raise ValueError("extent must be positive")
        if not 0 < self.min_side <= self.max_side:
            raise ValueError("need 0 < min_side <= max_side")
        if self.placement not in ("free", "mixed"):
            raise ValueError(f"unknown placement mode {self.placement!r}")


def random_instance(cfg: GenConfig) -> Environment:
    """Uniform random instance: m separated boxes, n distinct free points.

    Rejection sampling keeps obstacles at least ``gap`` apart and points
    outside all obstacle interiors; in "mixed" placement some points snap
    onto obstacle faces.  Raises :class:`CrowdedRegionError` when the region
    is too crowded.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.extent

    obstacles: list[AxisBox] = []
    # Corners of the placed boxes; a candidate is kept when its largest axis
    # gap to each of them is at least cfg.gap.
    placed_lo = np.empty((cfg.m, 3))
    placed_hi = np.empty((cfg.m, 3))
    tries = 0
    max_tries = 300 * max(cfg.m, 1)
    while len(obstacles) < cfg.m:
        if tries > max_tries:
            raise CrowdedRegionError(
                f"could not place {cfg.m} obstacles with gap {cfg.gap}: region too crowded")
        tries += 1
        sides = rng.uniform(cfg.min_side * scale, cfg.max_side * scale, size=3)
        lo = rng.uniform(0.0, scale - sides)
        hi = lo + sides
        k = len(obstacles)
        gaps = np.maximum(placed_lo[:k] - hi, lo - placed_hi[:k]).max(axis=1)
        if (gaps >= cfg.gap).all():
            placed_lo[k], placed_hi[k] = lo, hi
            obstacles.append(AxisBox(Point3(*lo), Point3(*hi)))

    points: list[Point3] = []
    seen: set[tuple[float, float, float]] = set()
    tries = 0
    max_tries = 500 * cfg.n
    while len(points) < cfg.n:
        if tries > max_tries:
            raise CrowdedRegionError("could not place points: region too crowded")
        tries += 1
        if cfg.placement == "mixed" and obstacles and rng.random() < 0.3:
            box = obstacles[int(rng.integers(len(obstacles)))]
            face = int(rng.integers(6))
            axis, side = divmod(face, 2)
            coords = [float(rng.uniform(box.lo.coord(a), box.hi.coord(a))) for a in range(3)]
            coords[axis] = box.hi.coord(axis) if side == 0 else box.lo.coord(axis)
            pt = Point3(*coords)
        else:
            pt = Point3(*rng.uniform(0.0, scale, size=3))
        if any(box.contains_interior(pt) for box in obstacles):
            continue
        if pt.as_tuple() in seen:
            continue
        seen.add(pt.as_tuple())
        points.append(pt)

    env = Environment(obstacles, points)
    violations = validate_environment(env)
    if violations:
        raise RuntimeError(f"generator produced an invalid instance: {violations}")
    return env


def slab_instance(n: int, eps: float, s: float, delta: float) -> Environment:
    """Adversarial family: collinear points separated by thin wide slabs.

    n points sit on the x-axis with total spread 0.9 * eps; between each
    consecutive pair sits a slab of x-thickness delta whose y and z sides
    have length s, centered on the axis.  Any route between two points must
    climb to a slab face and back, so all pairwise geodesic distances fall
    in [s, s + eps], and dropping any edge from the complete graph forces a
    two-leg detour of length at least 2s.
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    if eps <= 0 or delta <= 0:
        raise ValueError("eps and delta must be positive")
    if s <= 2 - eps**2 / 2:
        raise ValueError("s must exceed 2 - eps^2/2 for the ratio argument")
    spread = 0.9 * eps
    step = spread / (n - 1)
    if delta >= step:
        raise ValueError(
            f"slab thickness {delta} does not fit between points spaced {step:.3g} apart")
    points = [Point3(i * step, 0.0, 0.0) for i in range(n)]
    obstacles = []
    half = s / 2.0
    for i in range(n - 1):
        mid = (points[i].x + points[i + 1].x) / 2.0
        obstacles.append(AxisBox(Point3(mid - delta / 2.0, -half, -half),
                                 Point3(mid + delta / 2.0, half, half)))
    env = Environment(obstacles, points)
    violations = validate_environment(env)
    if violations:
        raise RuntimeError(f"slab construction produced an invalid instance: {violations}")
    return env
