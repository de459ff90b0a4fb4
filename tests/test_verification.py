import itertools
import math

import numpy as np
import pytest

from boxspan import verification
from boxspan.geodesic import GeodesicSolver
from boxspan.geometry import (AxisBox, Environment, Point3, bounding_box, l1_distance,
                              l2_distance)
from boxspan.generators import GenConfig, random_instance, slab_instance
from boxspan.spanner import SpannerGraph, build_spanner
from boxspan.verification import (STRETCH_BOUND_L1, VIA_DETOUR_FACTOR, check_via_detour,
                                  check_via_triples, graph_distances, norm_conversion_check,
                                  scaling_sweep, spanning_ratio, via_triples)


def _graph(n, edges):
    return SpannerGraph(n=n, edges={(i, j): w for i, j, w in edges})


def test_graph_distances_single_edge():
    d = graph_distances(_graph(2, [(0, 1, 2.5)]), 0)
    assert d[0] == 0 and d[1] == 2.5


def test_graph_distances_triangle_shortcut():
    d = graph_distances(_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 3.0)]), 0)
    assert d[2] == 2.0


def test_graph_distances_disconnected_is_infinite():
    d = graph_distances(_graph(3, [(0, 1, 1.0)]), 0)
    assert math.isinf(d[2])


def test_graph_distances_range_check():
    with pytest.raises(IndexError):
        graph_distances(_graph(2, []), 5)


def test_spanning_ratio_of_complete_geodesic_graph_is_one():
    env = random_instance(GenConfig(seed=3, n=12, m=2))
    solver = GeodesicSolver(env)
    g = SpannerGraph(n=env.n)
    for i in range(env.n):
        for j in range(i + 1, env.n):
            g.edges[(i, j)] = solver.distance(env.points[i], env.points[j])
    report = spanning_ratio(env, g, solver=solver)
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_spanning_ratio_of_built_spanner(tmp_path):
    env = random_instance(GenConfig(seed=8, n=30, m=4))
    solver = GeodesicSolver(env)
    g = build_spanner(env, solver)
    report = spanning_ratio(env, g, solver=solver)
    ratios = {}
    for i in range(env.n - 1):
        sigma = solver.distances_from(env.points[i], env.points[i + 1:])
        for k, r in enumerate(graph_distances(g, i)[i + 1:] / sigma):
            ratios[(i, i + 1 + k)] = float(r)
    assert report.within_bound()
    assert report.max_ratio >= 1.0
    assert report.argmax in ratios
    assert ratios[report.argmax] == report.max_ratio
    # graph distances never undercut the geodesic metric
    for (i, j), ratio in ratios.items():
        assert ratio >= 1.0 - 1e-9
    # edges of the graph realize ratio 1 exactly
    for (i, j) in g.edges:
        assert ratios[(i, j)] == pytest.approx(1.0, abs=1e-9)
    assert report.l2_ratio_analytic == pytest.approx(math.sqrt(3) * report.max_ratio)


def test_spanning_ratio_checks_vertex_count():
    env = random_instance(GenConfig(seed=1, n=5, m=0))
    with pytest.raises(ValueError):
        spanning_ratio(env, SpannerGraph(n=4))


def test_via_detour_free_space_is_tight_at_one():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    p, q = env.points
    lhs, rhs, holds = check_via_detour(env, p, q, Point3(0.3, 0.8, 0.1))
    assert holds
    # inside the box with no obstacles the two legs add up to the direct trip
    assert lhs == pytest.approx(3.0, abs=1e-12)
    assert rhs == pytest.approx(4 * 3.0, abs=1e-12)


def test_via_detour_identity_endpoint():
    env = Environment([], [Point3(0, 0, 0), Point3(2, 1, 0)])
    p, q = env.points
    lhs, rhs, holds = check_via_detour(env, p, q, p)
    assert holds and lhs == pytest.approx(3.0, abs=1e-12)


def test_via_detour_rejects_outside_box():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    with pytest.raises(ValueError):
        check_via_detour(env, env.points[0], env.points[1], Point3(2, 0, 0))


def test_via_detour_holds_amid_obstacles():
    env = random_instance(GenConfig(seed=77, n=14, m=6))
    solver = GeodesicSolver(env)
    triples = via_triples(env, 60, np.random.default_rng(77))
    assert len(triples) == 60
    assert all(p != q for p, q, _ in triples)
    # raises unless each o is in the box of p and q and outside every obstacle
    passes, worst = check_via_triples(env, triples, solver)
    assert passes == 60
    assert worst <= VIA_DETOUR_FACTOR


def reference_via_triples(env, count, rng):
    """The sampler's loop on Point3 and AxisBox objects, as a reference."""
    n = env.n
    if n < 2:
        return []
    triples = []
    for _ in range(count):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        p, q = env.points[i], env.points[j]
        box = bounding_box(p, q)
        o = p
        for _ in range(64):
            u = rng.random(3)
            cand = Point3(
                min(max(p.x + u[0] * (q.x - p.x), box.lo.x), box.hi.x),
                min(max(p.y + u[1] * (q.y - p.y), box.lo.y), box.hi.y),
                min(max(p.z + u[2] * (q.z - p.z), box.lo.z), box.hi.z),
            )
            if not any(b.contains_interior(cand) for b in env.obstacles):
                o = cand
                break
        triples.append((p, q, o))
    return triples


def _reprs(triples):
    return [[repr(float(c)) for pt in triple for c in pt.as_tuple()] for triple in triples]


@pytest.mark.parametrize("env", [
    random_instance(GenConfig(seed=21, n=30, m=8, placement="mixed", max_side=0.3)),
    random_instance(GenConfig(seed=22, n=64, m=8)),
    random_instance(GenConfig(seed=23, n=10, m=0)),
    random_instance(GenConfig(seed=24, n=1, m=2)),
    # draws between two points of one face lie on that face, outside the cube
    Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                [Point3(0, 0.2, 0.2), Point3(0, 0.8, 0.8), Point3(1, 0.2, 0.8),
                 Point3(1, 0.8, 0.2)]),
    # every draw between two opposite faces falls inside the cube: o = p
    Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                [Point3(0, 0.5, 0.5), Point3(1, 0.5, 0.5)]),
], ids=["mixed", "scatter", "open", "one-point", "face-points", "all-draws-blocked"])
def test_via_triples_match_reference_draws(env):
    for seed in range(4):
        got = via_triples(env, 200, np.random.default_rng(seed))
        expected = reference_via_triples(env, 200, np.random.default_rng(seed))
        assert _reprs(got) == _reprs(expected)
    if env.n == 2 and env.obstacles:
        assert all(o == p for p, _, o in got)


def test_norm_conversion_check():
    env = random_instance(GenConfig(seed=5, n=20, m=0))
    assert norm_conversion_check(env)


def _norm_sandwich_loop(env):
    """Plain-python reference: the pairwise loop over the scalar distances."""
    for p, q in itertools.combinations(env.points, 2):
        l1, l2 = l1_distance(p, q), l2_distance(p, q)
        if not (l1 / math.sqrt(3.0) <= l2 + 1e-9 and l2 <= l1 + 1e-9):
            return False
    return True


@pytest.mark.parametrize("line", ["axis", "diagonal"])
def test_norm_conversion_check_on_a_line(line):
    # On an axis line l2 == l1 exactly (the upper bound is tight); on the
    # main diagonal l2 == l1 / sqrt(3) up to rounding (the lower bound is).
    ts = (-7.5, -1.0, 0.0, 0.125, 2.0, 3e3)
    if line == "axis":
        env = Environment([], [Point3(t, 0.25, -3.0) for t in ts])
        assert all(l2_distance(p, q) == l1_distance(p, q)
                   for p, q in itertools.combinations(env.points, 2))
    else:
        env = Environment([], [Point3(t, t, t) for t in ts])
    assert _norm_sandwich_loop(env)
    assert norm_conversion_check(env)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e9, 1e12])
def test_norm_conversion_check_margin_is_relative(scale, monkeypatch):
    """On a diagonal line the sandwich holds at every scale, and a ratio one
    part in 1e9 below sqrt(3) makes it fail at every scale."""
    ts = (-7.5, -1.0, 0.0, 0.125, 2.0, 3e3)
    env = Environment([], [Point3(t * scale, t * scale, t * scale) for t in ts])
    assert norm_conversion_check(env)
    monkeypatch.setattr(verification, "NORM_RATIO", verification.NORM_RATIO * (1 - 1e-9))
    assert not norm_conversion_check(env)


def test_missing_edge_on_slab_instance_doubles_the_trip():
    """Dropping any edge of the complete graph forces a two-leg detour."""
    eps, s = 0.1, 2.1
    env = slab_instance(6, eps, s, 1e-3)
    solver = GeodesicSolver(env)
    full = SpannerGraph(n=env.n)
    for i in range(env.n):
        for j in range(i + 1, env.n):
            full.edges[(i, j)] = solver.distance(env.points[i], env.points[j])
    victim = (0, env.n - 1)
    pruned = SpannerGraph(n=env.n)
    for (i, j), w in full.edges.items():
        if (i, j) != victim:
            pruned.edges[(i, j)] = w
    d = graph_distances(pruned, victim[0])[victim[1]]
    sigma = full.edges[victim]
    assert d >= 2 * s - 1e-9
    assert d / sigma > 2 - eps


def test_scaling_sweep_smoke():
    rows = scaling_sweep([8, 16], trials=2, seed=42, m=2)
    assert [r.n for r in rows] == [8, 16]
    for row in rows:
        assert row.max_stretch <= STRETCH_BOUND_L1 + 1e-6
        assert len(row.runs) == 2
        for run in row.runs:
            assert run["edges"] <= 6 * run["size_sum"]


def test_scaling_sweep_rejects_empty_sizes():
    with pytest.raises(ValueError):
        scaling_sweep([], trials=1, seed=0)


def test_scaling_sweep_rejects_a_size_below_one_by_value():
    # checked before any seeding, so the message names the size, not numpy's
    with pytest.raises(ValueError, match="sizes must be at least 1, got -3"):
        scaling_sweep([8, -3], trials=1, seed=0)
