import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxspan import geodesic
from boxspan.geodesic import (GeodesicSolver, GridTooLargeError, _grid_links,
                              geodesic_distance, oracle_fine_grid_distance)
from boxspan.generators import GenConfig, random_instance
from boxspan.geometry import (AxisBox, Environment, Point3, l1_distance, points_array,
                              validate_environment)

UNIT_CUBE = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))


# -- independent reference implementation ------------------------------------
#
# Plain-python grid construction and heap Dijkstra, shared with nothing in the
# package: the reference for every solver fast path.

def _segment_blocked(a, b, box):
    axis = next(i for i in range(3) if a[i] != b[i])
    lo, hi = min(a[axis], b[axis]), max(a[axis], b[axis])
    for other in range(3):
        if other == axis:
            continue
        if not (box.lo.coord(other) < a[other] < box.hi.coord(other)):
            return False
    return lo < box.hi.coord(axis) and hi > box.lo.coord(axis)


def brute_sigma(env, p, q):
    """Heap Dijkstra over the full grid of all obstacle faces plus p and q."""
    cuts = []
    for axis in range(3):
        vals = {p.coord(axis), q.coord(axis)}
        for box in env.obstacles:
            vals.add(box.lo.coord(axis))
            vals.add(box.hi.coord(axis))
        cuts.append(sorted(vals))
    nodes = [triple for triple in itertools.product(*cuts)
             if not any(b.contains_interior(Point3(*triple)) for b in env.obstacles)]
    index = {t: i for i, t in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for t in nodes:
        for axis in range(3):
            pos = cuts[axis].index(t[axis])
            if pos + 1 < len(cuts[axis]):
                u = list(t)
                u[axis] = cuts[axis][pos + 1]
                u = tuple(u)
                if u in index and not any(_segment_blocked(t, u, b) for b in env.obstacles):
                    w = u[axis] - t[axis]
                    adj[index[t]].append((index[u], w))
                    adj[index[u]].append((index[t], w))
    src, dst = index[p.as_tuple()], index[q.as_tuple()]
    dist = [math.inf] * len(nodes)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == dst:
            break
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist[dst]


# -- solver grids -------------------------------------------------------------

def test_track_graph_cuts_and_nodes_match_hand_enumeration():
    # the cuts of the grid for (-1, .5, .5) -> (2, .5, .5) around the unit cube
    cuts = (np.array([-1, 0, 1, 2.0]), np.array([0, 0.5, 1]), np.array([0, 0.5, 1]))
    valid, links = _grid_links(cuts, np.zeros((1, 3)), np.ones((1, 3)))
    # no cut is strictly inside the cube on any axis, so every node is valid
    assert valid.size == 36 and int(valid.sum()) == 36
    # links crossing the open interior are absent; hand-check the x-row at
    # y = 0.5, z = 0.5 (indices 1, 1): segments -1..0 and 1..2 exist, 0..1 not
    assert list(links[0][:, 1, 1]) == [True, False, True]
    # the same row on the bottom face z = 0 is free to cross
    assert list(links[0][:, 1, 0]) == [True, True, True]


def test_track_graph_node_cap(monkeypatch):
    # the pair's box meets the cube, so the query needs a 36-node Dijkstra grid
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    monkeypatch.setattr(geodesic, "NODE_CAP", 10)
    with pytest.raises(GridTooLargeError):
        GeodesicSolver(env).distance(*env.points)


# -- pairwise distances -------------------------------------------------------

def test_geodesic_distance_free_space():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 2, 3)])
    assert geodesic_distance(env, *env.points) == 6.0


def test_geodesic_distance_detour_and_symmetry():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    p, q = env.points
    assert geodesic_distance(env, p, q) == pytest.approx(3.0, abs=1e-12)
    assert geodesic_distance(env, q, p) == pytest.approx(3.0, abs=1e-12)


def test_geodesic_distance_surface_travel():
    # opposite faces of the cube: the route runs along the surface, never inside
    env = Environment([UNIT_CUBE], [Point3(0, 0.5, 0.5), Point3(1, 0.5, 0.5)])
    assert geodesic_distance(env, *env.points) == pytest.approx(2.0, abs=1e-12)


def test_geodesic_distance_rejects_interior_query():
    env = Environment([UNIT_CUBE], [Point3(-1, 0, 0)])
    with pytest.raises(ValueError):
        geodesic_distance(env, Point3(0.5, 0.5, 0.5), Point3(-1, 0, 0))


def _random_env(rng, n, m, max_side=0.4):
    obstacles = []
    while len(obstacles) < m:
        side = rng.uniform(0.1, max_side, 3)
        lo = rng.uniform(0, 1 - side)
        box = AxisBox(Point3(*lo), Point3(*(lo + side)))
        if not validate_environment(Environment(obstacles + [box], [])):
            obstacles.append(box)
    points = []
    while len(points) < n:
        pt = Point3(*rng.uniform(-0.2, 1.2, 3))
        if not any(b.contains_interior(pt) for b in obstacles):
            points.append(pt)
    return Environment(obstacles, points)


def test_solver_matches_brute_reference():
    """Every fast path of the solver agrees with the plain-python reference."""
    rng = np.random.default_rng(5)
    for trial in range(12):
        env = _random_env(rng, n=6, m=int(rng.integers(1, 4)))
        solver = GeodesicSolver(env)
        for i in range(env.n):
            for j in range(i + 1, env.n):
                expected = brute_sigma(env, env.points[i], env.points[j])
                got = solver.distance(env.points[i], env.points[j])
                assert got == pytest.approx(expected, abs=1e-9), (trial, i, j)


def test_solver_blocked_box_still_exact():
    # a slab wider than the pair's box forces the second Dijkstra phase
    slab = AxisBox(Point3(0.4, -5, -5), Point3(0.6, 5, 5))
    env = Environment([slab], [Point3(0, 0, 0), Point3(1, 0, 0)])
    solver = GeodesicSolver(env)
    assert solver.distance(*env.points) == pytest.approx(11.0, abs=1e-9)
    assert brute_sigma(env, *env.points) == pytest.approx(11.0, abs=1e-9)


def test_distances_from_matches_pairwise():
    rng = np.random.default_rng(11)
    env = _random_env(rng, n=8, m=2)
    solver = GeodesicSolver(env)
    source = env.points[0]
    batch = solver.distances_from(source, list(env.points))
    for k, p in enumerate(env.points):
        assert batch[k] == pytest.approx(solver.distance(source, p), abs=1e-12)


def _certificate_instances():
    """Random boxes with points around them; seeded instances with a third
    of the points snapped onto obstacle faces; and points of a lattice whose
    planes cut the unit cube at its faces and inside, so that many pairs lie
    on faces, edges and corners or are blocked by the cube alone."""
    rng = np.random.default_rng(23)
    for _ in range(8):
        yield _random_env(rng, n=9, m=int(rng.integers(1, 5)))
    for seed in range(4):
        yield random_instance(GenConfig(seed=seed, n=16, m=8, placement="mixed"))
    lattice = [Point3(*c) for c in itertools.product((-0.5, 0, 0.25, 0.75, 1, 1.5), repeat=3)
               if not UNIT_CUBE.contains_interior(Point3(*c))]
    pick = np.sort(np.random.default_rng(0).choice(len(lattice), size=70, replace=False))
    yield Environment([UNIT_CUBE], [lattice[i] for i in pick])


@pytest.fixture(scope="module")
def staircase_vs_grid():
    """(staircase says clear, grid-only test says clear, overlapping count)
    for every pair whose box meets an obstacle."""
    out = []
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for i in range(env.n - 1):
            s, targets = pts[i], pts[i + 1:]
            clear = solver._staircase_clear(s, targets)
            for t, fast in zip(targets, clear):
                over = solver._overlapping(np.minimum(s, t), np.maximum(s, t))
                if len(over):
                    out.append((bool(fast), solver._monotone_clear(s, t, over), len(over)))
    return out


def test_staircase_never_clears_a_pair_the_grid_blocks(staircase_vs_grid):
    assert not [r for r in staircase_vs_grid if r[0] and not r[1]]
    # both answers occur, so the comparison is not vacuous
    assert {fast for fast, _, _ in staircase_vs_grid} == {True, False}
    assert {grid for _, grid, _ in staircase_vs_grid} == {True, False}


def test_staircase_is_exact_when_one_obstacle_meets_the_box(staircase_vs_grid):
    """One-box lemma: a single box blocks every monotone path iff no
    three-leg staircase avoids it, so both tests agree both ways."""
    one = [(fast, grid) for fast, grid, k in staircase_vs_grid if k == 1]
    assert all(fast == grid for fast, grid in one)
    assert {grid for _, grid in one} == {True, False}


def test_single_obstacle_pairs_skip_the_monotone_grid(monkeypatch):
    """With one obstacle meeting the pair's box, a staircase "not clear" goes
    straight to Dijkstra, and the distances still match the reference."""
    monotone_clear = GeodesicSolver._monotone_clear

    def multi_obstacle_only(self, s, t, over):
        assert len(over) > 1, "monotone grid built for a single-obstacle pair"
        return monotone_clear(self, s, t, over)

    monkeypatch.setattr(GeodesicSolver, "_monotone_clear", multi_obstacle_only)
    blocked = 0
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for i, j in itertools.combinations(range(env.n), 2):
            s, t = pts[i], pts[j]
            if len(solver._overlapping(np.minimum(s, t), np.maximum(s, t))) != 1:
                continue
            got = solver.distance(env.points[i], env.points[j])
            if not solver._staircase_clear(s, t[None, :])[0]:
                blocked += 1
                assert got == pytest.approx(brute_sigma(env, env.points[i], env.points[j]),
                                            abs=1e-9)
    assert blocked > 0


def test_distances_from_is_bitwise_pairwise():
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        for source in env.points[:3]:
            fresh = GeodesicSolver(env)
            expected = [fresh.distance(source, p) for p in env.points]
            assert np.array_equal(solver.distances_from(source, env.points), expected)


def test_lower_bound_and_triangle_inequality():
    rng = np.random.default_rng(3)
    env = _random_env(rng, n=7, m=3)
    solver = GeodesicSolver(env)
    pts = env.points
    for i, j in itertools.combinations(range(env.n), 2):
        assert solver.distance(pts[i], pts[j]) >= l1_distance(pts[i], pts[j]) - 1e-12
    for i, j, k in itertools.permutations(range(4), 3):
        assert (solver.distance(pts[i], pts[j])
                <= solver.distance(pts[i], pts[k]) + solver.distance(pts[k], pts[j]) + 1e-9)


# -- lattice oracle -----------------------------------------------------------

def test_oracle_free_space_exact():
    env = Environment([], [Point3(0, 0, 0), Point3(0.7, 0.3, 0.9)])
    assert oracle_fine_grid_distance(env, *env.points, resolution=1 / 8) == pytest.approx(
        1.9, abs=1e-12)


def test_oracle_identity():
    env = Environment([], [Point3(0.2, 0.2, 0.2)])
    p = env.points[0]
    assert oracle_fine_grid_distance(env, p, p, resolution=1 / 4) == 0.0


def test_oracle_monotone_and_brackets_engine():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    p, q = env.points
    engine = geodesic_distance(env, p, q)
    values = [oracle_fine_grid_distance(env, p, q, r) for r in (1 / 8, 1 / 16, 1 / 32)]
    assert values[0] >= values[1] >= values[2] >= engine - 1e-9
    assert abs(engine - values[2]) <= 6 / 32
    assert values[2] == pytest.approx(3.0, abs=1e-12)


def test_oracle_monotone_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(3):
        env = _random_env(rng, n=4, m=2, max_side=0.3)
        solver = GeodesicSolver(env)
        for i, j in itertools.combinations(range(env.n), 2):
            p, q = env.points[i], env.points[j]
            vals = [oracle_fine_grid_distance(env, p, q, r) for r in (1 / 8, 1 / 16, 1 / 32)]
            assert vals[0] >= vals[1] - 1e-12
            assert vals[1] >= vals[2] - 1e-12
            assert vals[2] >= solver.distance(p, q) - 1e-9


def test_oracle_rejects_bad_resolution_and_cap(monkeypatch):
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    with pytest.raises(ValueError):
        oracle_fine_grid_distance(env, *env.points, resolution=0.0)
    monkeypatch.setattr(geodesic, "NODE_CAP", 10)
    with pytest.raises(GridTooLargeError):
        oracle_fine_grid_distance(env, *env.points, resolution=1 / 64)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_solver_free_space_is_l1(seed):
    rng = np.random.default_rng(seed)
    env = Environment([], [Point3(*rng.uniform(-5, 5, 3)) for _ in range(3)])
    solver = GeodesicSolver(env)
    for i, j in itertools.combinations(range(3), 2):
        p, q = env.points[i], env.points[j]
        assert solver.distance(p, q) == l1_distance(p, q)
