import re

import numpy as np
import pytest

from boxspan.geodesic import GeodesicSolver
from boxspan.generators import CrowdedRegionError, GenConfig, random_instance, slab_instance
from boxspan.geometry import AxisBox, Point3, separation, validate_environment


def test_same_seed_reproduces_identical_instance():
    cfg = GenConfig(seed=99, n=25, m=6)
    assert random_instance(cfg) == random_instance(cfg)


def test_different_seeds_differ():
    a = random_instance(GenConfig(seed=1, n=10, m=2))
    b = random_instance(GenConfig(seed=2, n=10, m=2))
    assert a != b


@pytest.mark.parametrize("n,m", [(10, 0), (50, 10), (20, 5)])
def test_random_instances_validate(n, m):
    env = random_instance(GenConfig(seed=7, n=n, m=m, gap=0.01))
    assert validate_environment(env) == []
    assert env.n == n and len(env.obstacles) == m


def test_mixed_placement_snaps_points_to_faces():
    env = random_instance(GenConfig(seed=4, n=30, m=5, placement="mixed"))
    assert validate_environment(env) == []
    on_face = 0
    for p in env.points:
        for box in env.obstacles:
            if box.contains(p) and not box.contains_interior(p):
                on_face += 1
                break
    assert on_face > 0


def reference_obstacles(cfg):
    """The obstacle loop of random_instance, testing each candidate against
    each placed box with geometry.separation."""
    rng = np.random.default_rng(cfg.seed)
    scale = cfg.extent
    obstacles = []
    tries = 0
    max_tries = 300 * max(cfg.m, 1)
    while len(obstacles) < cfg.m:
        if tries > max_tries:
            raise CrowdedRegionError(
                f"could not place {cfg.m} obstacles with gap {cfg.gap}: region too crowded")
        tries += 1
        sides = rng.uniform(cfg.min_side * scale, cfg.max_side * scale, size=3)
        lo = rng.uniform(0.0, scale - sides)
        box = AxisBox(Point3(*lo), Point3(*(lo + sides)))
        if all(separation(box, other) >= cfg.gap for other in obstacles):
            obstacles.append(box)
    return tuple(obstacles)


def test_obstacle_placement_matches_separation_loop():
    """Same boxes, or the same crowded-region message, as the per-box loop."""
    crowded = 0
    for seed in range(20):
        for cfg in (GenConfig(seed=seed, n=10, m=30, placement="mixed"),
                    GenConfig(seed=seed, n=10, m=60, gap=0.01),
                    GenConfig(seed=seed, n=10, m=10, gap=0.3)):
            try:
                expected = reference_obstacles(cfg)
            except CrowdedRegionError as exc:
                crowded += 1
                with pytest.raises(CrowdedRegionError, match=re.escape(str(exc))):
                    random_instance(cfg)
            else:
                assert random_instance(cfg).obstacles == expected, cfg
    assert 0 < crowded < 60


def test_crowded_region_fails():
    with pytest.raises(RuntimeError, match="crowded"):
        random_instance(GenConfig(seed=0, n=2, m=400, gap=0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, n=0).validate()
    with pytest.raises(ValueError):
        GenConfig(seed=0, n=5, gap=0.0).validate()
    with pytest.raises(ValueError):
        GenConfig(seed=0, n=5, placement="grid").validate()
    for name in ("extent", "gap", "min_side", "max_side"):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GenConfig(seed=0, n=5, **{name: value}).validate()


def test_slab_instance_geometry():
    n, eps, s, delta = 10, 0.1, 2.1, 1e-3
    env = slab_instance(n, eps, s, delta)
    assert validate_environment(env) == []
    assert len(env.obstacles) == n - 1
    xs = [p.x for p in env.points]
    assert max(xs) - min(xs) < eps
    assert all(p.y == 0 and p.z == 0 for p in env.points)
    for box in env.obstacles:
        assert box.hi.x - box.lo.x == pytest.approx(delta)
        assert box.hi.y - box.lo.y == pytest.approx(s)
        assert box.hi.z - box.lo.z == pytest.approx(s)
        # mass center on the x-axis
        assert box.lo.y + box.hi.y == pytest.approx(0)
        assert box.lo.z + box.hi.z == pytest.approx(0)


def test_slab_instance_distance_bracket():
    n, eps, s, delta = 5, 0.1, 2.1, 1e-3
    env = slab_instance(n, eps, s, delta)
    solver = GeodesicSolver(env)
    for i in range(n):
        for j in range(i + 1, n):
            sigma = solver.distance(env.points[i], env.points[j])
            assert s - 1e-9 <= sigma <= s + eps + 4 * delta + 1e-9


def test_slab_instance_rejects_thick_slabs():
    with pytest.raises(ValueError, match="does not fit"):
        slab_instance(10, eps=0.1, s=2.1, delta=0.05)


def test_slab_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        slab_instance(1, 0.1, 2.1, 1e-3)
    with pytest.raises(ValueError):
        slab_instance(5, -0.1, 2.1, 1e-3)
    with pytest.raises(ValueError):
        slab_instance(5, 0.1, 1.9, 1e-3)
