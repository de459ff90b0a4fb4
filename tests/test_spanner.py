import itertools

import numpy as np
import pytest

from boxspan.cspd import CONES, ConeId, CspdPair, build_cspd
from boxspan.geodesic import GeodesicSolver, geodesic_distance, oracle_fine_grid_distance
from boxspan.geometry import (AxisBox, Environment, Point3, bounding_box, l1_distance)
from boxspan.generators import GenConfig, random_instance
from boxspan.spanner import SpannerGraph, build_spanner, candidate_points, select_center

UNIT_CUBE = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))


def test_single_point_yields_empty_graph():
    g = build_spanner(Environment([], [Point3(0, 0, 0)]))
    assert g.n == 1 and g.edges == {}


def test_two_points_yield_direct_edge():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    g = build_spanner(env)
    assert g.edge_list() == [(0, 1, pytest.approx(3.0, abs=1e-12))]


def test_empty_environment_rejected():
    with pytest.raises(ValueError):
        build_spanner(Environment([], []))


def test_candidate_points_free_apex():
    pair = CspdPair(ConeId(1, 1), (0,), (1,), Point3(5, 5, 5))
    env = Environment([UNIT_CUBE], [Point3(-1, 0, 0), Point3(6, 6, 6)])
    assert candidate_points(pair, env) == (Point3(5, 5, 5),) * 6


def test_candidate_points_interior_apex():
    pair = CspdPair(ConeId(1, 1), (0,), (1,), Point3(0.5, 0.5, 0.5))
    env = Environment([UNIT_CUBE], [Point3(-1, 0, 0), Point3(6, 6, 6)])
    assert candidate_points(pair, env) == (
        Point3(1, 0.5, 0.5), Point3(0, 0.5, 0.5), Point3(0.5, 1, 0.5),
        Point3(0.5, 0, 0.5), Point3(0.5, 0.5, 1), Point3(0.5, 0.5, 0))


def test_candidate_points_apex_on_face():
    pair = CspdPair(ConeId(1, 1), (0,), (1,), Point3(0, 0.5, 0.5))
    env = Environment([UNIT_CUBE], [Point3(-1, 0, 0), Point3(6, 6, 6)])
    assert candidate_points(pair, env) == (Point3(0, 0.5, 0.5),) * 6


def test_select_center_tie_breaks_to_smallest_index():
    env = Environment([], [Point3(1, 0, 0), Point3(-1, 0, 0)])
    pair = CspdPair(ConeId(1, 1), (1,), (0,), Point3(0, 0, 0))
    assert select_center(pair, env, Point3(0, 0, 0)) == 0


def test_select_center_free_space_is_l1_nearest():
    env = Environment([], [Point3(0.4, 0, 0), Point3(3, 0, 0), Point3(-2, 1, 1)])
    pair = CspdPair(ConeId(1, 1), (2,), (0, 1), Point3(0, 0, 0))
    assert select_center(pair, env, Point3(0, 0, 0)) == 0


def test_select_center_obstacle_flips_winner():
    """A member nearer in plain L1 can lose once an obstacle blocks it."""
    wall = AxisBox(Point3(0.1, -1, -1), Point3(0.2, 1, 1))
    env = Environment([wall], [Point3(0.3, 0, 0), Point3(-0.5, 0, 0)])
    candidate = Point3(0, 0, 0)
    pair = CspdPair(ConeId(1, 1), (1,), (0,), candidate)
    sigma = [geodesic_distance(env, candidate, p) for p in env.points]
    assert l1_distance(candidate, env.points[0]) < l1_distance(candidate, env.points[1])
    assert sigma[1] < sigma[0]
    assert select_center(pair, env, candidate) == int(np.argmin(sigma))


@pytest.fixture(scope="module")
def small_instance():
    env = random_instance(GenConfig(seed=21, n=40, m=6))
    solver = GeodesicSolver(env)
    return env, solver, build_spanner(env, solver)


def test_no_self_loops_or_duplicates(small_instance):
    env, _, g = small_instance
    for (i, j) in g.edges:
        assert 0 <= i < j < env.n


def test_edge_weights_are_geodesic(small_instance):
    """Weights match an independent recomputation, and a sample matches the
    fine-grid lattice oracle within its discretization error."""
    env, _, g = small_instance
    fresh = GeodesicSolver(env)
    for (i, j), w in g.edges.items():
        assert w == pytest.approx(fresh.distance(env.points[i], env.points[j]), abs=1e-9)
        assert w >= l1_distance(env.points[i], env.points[j]) - 1e-12
    for (i, j) in list(g.edges)[:5]:
        oracle = oracle_fine_grid_distance(env, env.points[i], env.points[j], 1 / 32)
        assert g.edges[(i, j)] <= oracle + 1e-9
        assert abs(g.edges[(i, j)] - oracle) <= 6 / 32


def test_edge_budget(small_instance):
    _, _, g = small_instance
    size_sum = sum(g.stats["size_sums"].values())
    assert g.edge_count <= 6 * size_sum


def test_some_candidate_lies_in_every_cross_pair_box(small_instance):
    """For each decomposition pair, each cross pair (a, b) has at least one
    of the six apex exits inside the closed box of a and b."""
    env, _, _ = small_instance
    for cone in CONES:
        for pair in build_cspd(env.points, cone).pairs:
            exits = candidate_points(pair, env)
            for i in pair.a:
                for j in pair.b:
                    box = bounding_box(env.points[i], env.points[j])
                    assert any(box.contains(c) for c in exits), (cone, i, j)


def test_build_is_deterministic(small_instance):
    env, _, g = small_instance
    again = build_spanner(env, GeodesicSolver(env))
    assert again.edges == g.edges


def reference_build(env, solver):
    """Every pair through candidate_points, select_center and the solver,
    one pair at a time, adding each edge as it is emitted."""
    graph = SpannerGraph(n=env.n)
    graph.stats = {"pair_counts": {}, "size_sums": {}, "apex_interior": 0,
                   "apex_free": 0, "emissions": 0}
    if env.n < 2:
        return graph
    for cone in CONES:
        decomposition = build_cspd(env.points, cone)
        graph.stats["pair_counts"][cone.code()] = len(decomposition.pairs)
        graph.stats["size_sums"][cone.code()] = decomposition.size_sum
        for pair in decomposition.pairs:
            members = sorted(set(pair.a) | set(pair.b))
            candidates = candidate_points(pair, env)
            if candidates[0] == pair.apex:
                graph.stats["apex_free"] += 1
            else:
                graph.stats["apex_interior"] += 1
            seen = set()
            for cand in candidates:
                if cand.as_tuple() in seen:
                    continue
                seen.add(cand.as_tuple())
                center = select_center(pair, env, cand, solver)
                others = [q for q in members if q != center]
                weights = solver.distances_from(env.points[center],
                                                [env.points[q] for q in others])
                graph.stats["emissions"] += len(others)
                for q, weight in zip(others, weights.tolist()):
                    graph.add_edge(center, q, weight)
    return graph


# A checkerboard: an apex at an odd corner has up to six nearest members.
LATTICE = [Point3(*c) for c in itertools.product((0.0, 1.0, 2.0, 3.0, 4.0), repeat=3)
           if sum(c) % 2 == 0]


@pytest.mark.parametrize("env", [
    random_instance(GenConfig(seed=31, n=120, m=0)),
    random_instance(GenConfig(seed=32, n=60, m=8, placement="mixed")),
    random_instance(GenConfig(seed=33, n=60, m=10, max_side=0.3)),
    Environment([], LATTICE),
    Environment([AxisBox(Point3(1.0, 1.0, 1.0), Point3(2.0, 2.0, 3.0))], LATTICE),
    random_instance(GenConfig(seed=34, n=1, m=2)),
    random_instance(GenConfig(seed=35, n=2, m=2)),
    random_instance(GenConfig(seed=36, n=3, m=3, max_side=0.3)),
], ids=["open", "mixed", "interior-apexes", "lattice", "lattice-cube", "n1", "n2", "n3"])
def test_build_matches_per_pair_reference(env):
    """Edges in insertion order and stats match the per-pair
    loop, and the solver is left with the same cache, filled in the same
    order, so it answered the same queries.  The lattices make many members
    tie for nearest to an apex."""
    solver, reference_solver = GeodesicSolver(env), GeodesicSolver(env)
    got = build_spanner(env, solver)
    expected = reference_build(env, reference_solver)
    assert list(got.edges.items()) == list(expected.edges.items())
    assert got.stats == expected.stats
    assert list(solver._cache.items()) == list(reference_solver._cache.items())


def test_add_edge_rejects_self_loop():
    g = SpannerGraph(n=3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 1.0)


def test_dedup_keeps_first_emission():
    g = SpannerGraph(n=3)
    g.add_edge(2, 0, 5.0)
    g.add_edge(0, 2, 7.0)
    assert g.edges == {(0, 2): 5.0}
