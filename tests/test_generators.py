import math
import re

import numpy as np
import pytest

from boxspan import generators
from boxspan.geodesic import GeodesicSolver
from boxspan.generators import CrowdedRegionError, GenConfig, random_instance, slab_instance
from boxspan.geometry import AxisBox, Point3, validate_environment
from test_geometry import box_contains, separation


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
            if box_contains(box, p) and not box.contains_interior(p):
                on_face += 1
                break
    assert on_face > 0


def reference_obstacles(cfg, rng=None):
    """The obstacle loop of random_instance, testing each candidate against
    each placed box with the tests' separation.  It draws from ``rng`` when
    given, else from a fresh generator of the seed."""
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
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


def reference_points(cfg, rng, obstacles):
    """The point loop of random_instance as it drew one candidate per try,
    with a ``Point3`` and an interior test per candidate."""
    scale = cfg.extent
    points = []
    seen = set()
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
    return tuple(points)


MAZE = dict(m=80, placement="mixed", min_side=0.05, max_side=0.3, gap=0.01)
# At extent 2**-1074 every coordinate draw is 0 or 5e-324, so the point set
# has at most 8 distinct points and most tries repeat one: n >= 9 is crowded.
TINY = 2.0 ** -1074


def point_configs():
    for seed in range(8):
        yield GenConfig(seed=seed, n=1)
        yield GenConfig(seed=seed, n=1, m=3, placement="mixed")
        yield GenConfig(seed=seed, n=300)
        yield GenConfig(seed=seed, n=64, m=8)
        yield GenConfig(seed=seed, n=40, m=20, placement="mixed")
        for placement in ("free", "mixed"):
            for n in (5, 8, 9, 12):
                yield GenConfig(seed=seed, n=n, extent=TINY, placement=placement)
    for seed in range(2):
        yield GenConfig(seed=seed, n=64, **MAZE)


def instance_and_draws(cfg, monkeypatch):
    """random_instance(cfg), or the CrowdedRegionError it raises, and the
    state of its generator afterwards."""
    made = []
    real = np.random.default_rng
    with monkeypatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
        try:
            got = random_instance(cfg)
        except CrowdedRegionError as exc:
            got = exc
    return got, made[0].bit_generator.state


def test_points_match_reference_loop(monkeypatch):
    """Same points, or the same crowded-region message after the same number
    of tries, as the loop that drew one candidate per try: the generator's
    state after the call is the reference's."""
    crowded = 0
    for cfg in point_configs():
        rng = np.random.default_rng(cfg.seed)
        obstacles = reference_obstacles(cfg, rng)
        got, state = instance_and_draws(cfg, monkeypatch)
        try:
            expected = reference_points(cfg, rng, obstacles)
        except CrowdedRegionError as exc:
            crowded += 1
            assert isinstance(got, CrowdedRegionError) and str(got) == str(exc), cfg
        else:
            assert got.obstacles == obstacles and got.points == expected, cfg
        assert state == rng.bit_generator.state, cfg
    assert crowded == 8 * 2 * 2  # n = 9 and n = 12 at the tiny extent


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_small_draw_blocks_give_the_same_instances(monkeypatch, block):
    """Blocks of any size draw the stream that one block draws."""
    configs = [GenConfig(seed=seed, n=n, extent=extent)
               for seed in range(3) for n, extent in ((1, 1.0), (50, 1.0), (8, TINY), (9, TINY))]
    configs += [GenConfig(seed=0, n=30, m=4), GenConfig(seed=1, n=30, m=4, placement="mixed")]
    expected = [instance_and_draws(cfg, monkeypatch) for cfg in configs]
    monkeypatch.setattr(generators, "_DRAW_BLOCK", block)
    for cfg, (want, want_state) in zip(configs, expected):
        got, state = instance_and_draws(cfg, monkeypatch)
        if isinstance(want, CrowdedRegionError):
            assert isinstance(got, CrowdedRegionError) and str(got) == str(want), cfg
        else:
            assert got == want, cfg
        assert state == want_state, cfg


@pytest.mark.parametrize("cfg", [GenConfig(seed=2, n=60, m=6),
                                 GenConfig(seed=2, n=60, m=6, placement="mixed"),
                                 GenConfig(seed=2, n=64, **MAZE)],
                         ids=["free", "mixed", "maze"])
def test_generated_coordinates_are_python_floats(cfg):
    """Points and obstacle corners hold floats, as load_instance gives them,
    not numpy scalars."""
    env = random_instance(cfg)
    corners = [c for b in env.obstacles for c in (b.lo, b.hi)]
    assert all(type(v) is float for p in env.points + tuple(corners) for v in p.as_tuple())


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
    for name, args in (("eps", (float("nan"), 2.1, 1e-3)), ("eps", (math.inf, 2.1, 1e-3)),
                       ("s", (0.1, math.inf, 1e-3)), ("s", (0.1, float("nan"), 1e-3)),
                       ("delta", (0.1, 2.1, float("nan"))), ("delta", (0.1, 2.1, -math.inf))):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            slab_instance(5, *args)
