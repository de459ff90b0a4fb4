import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from boxspan import geodesic, verification
from boxspan.geodesic import GeodesicSolver
from boxspan.geometry import (EPS_GEOM, AxisBox, Environment, Point3, bounding_box,
                              l1_distance, l2_distance, points_array)
from boxspan.generators import GenConfig, random_instance, slab_instance
from boxspan.spanner import SpannerGraph, build_spanner
from boxspan.verification import (STRETCH_BOUND_L1, STRETCH_SLACK, VIA_DETOUR_FACTOR,
                                  StretchReport, check_via_detour, check_via_triples,
                                  graph_distances, norm_conversion_check, scaling_sweep,
                                  spanning_ratio, via_triples)
from test_spanner import _faces_instance


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


def reference_spanning_ratio(env, g, solver):
    """The stretch scan with one distances_from call per row, as a reference."""
    dist_graph = dijkstra(verification._graph_csr(g), directed=False)
    P = points_array(env.points)
    best, arg, understated = 0.0, None, None
    for i in range(g.n - 1):
        sigma = solver.distances_from(P[i], P[i + 1:])
        ratios = dist_graph[i, i + 1:] / sigma
        j_rel = int(np.argmax(ratios))
        if ratios[j_rel] > best:
            best = float(ratios[j_rel])
            arg = (i, i + 1 + j_rel)
        if understated is None:
            below = np.nonzero(ratios < 1 - STRETCH_SLACK)[0]
            if len(below):
                understated = (i, i + 1 + int(below[0]))
    return StretchReport(max_ratio=best, argmax=arg, understated=understated)


def _built(env):
    return env, build_spanner(env, GeodesicSolver(env))


def _understated(env):
    env, g = _built(env)
    victim = sorted(g.edges)[len(g.edges) // 2]
    g.edges[victim] *= 0.5
    return env, g


def _disconnected(env):
    """A path over the first half of the points, the rest isolated."""
    solver = GeodesicSolver(env)
    half = env.n // 2
    return env, SpannerGraph(n=env.n, edges={
        (i, i + 1): solver.distance(env.points[i], env.points[i + 1]) for i in range(half)})


_MAZE = GenConfig(seed=0, n=32, m=40, placement="mixed", min_side=0.05, max_side=0.3,
                  gap=0.01)


@pytest.mark.parametrize("case, block", [
    (lambda: _built(random_instance(GenConfig(seed=11, n=64, m=8))), None),
    (lambda: _built(random_instance(_MAZE)), None),
    (lambda: _built(_faces_instance()), None),
    (lambda: _built(random_instance(GenConfig(seed=4, n=300, m=0))), 200),
    (lambda: _disconnected(random_instance(GenConfig(seed=5, n=40, m=6, max_side=0.3))), 100),
    (lambda: _understated(random_instance(GenConfig(seed=12, n=64, m=8))), 300),
], ids=["scatter", "maze", "faces", "open-split", "disconnected", "understated"])
def test_spanning_ratio_matches_the_per_row_scan(case, block, monkeypatch):
    """The scan by blocks of rows gives the per-row scan's report, compared
    with ==, and leaves the same cache in the same order.  It asks sigma
    once per block, never once per row, unless a row fills a block alone."""
    env, g = case()
    if block is not None:
        monkeypatch.setattr(verification, "_STRETCH_BLOCK", block)
    solver, reference_solver = GeodesicSolver(env), GeodesicSolver(env)
    calls = []
    distances_from = solver.distances_from
    solver.distances_from = lambda S, T: calls.append(len(T)) or distances_from(S, T)
    got = spanning_ratio(env, g, solver)
    expected = reference_spanning_ratio(env, g, reference_solver)
    assert got == expected
    assert list(solver._cache.items()) == list(reference_solver._cache.items())
    assert sum(calls) == env.n * (env.n - 1) // 2
    assert max(calls) <= max(verification._STRETCH_BLOCK, env.n - 1)
    assert len(calls) == 1 if block is None else 1 < len(calls) < env.n - 1


def test_spanning_ratio_scan_covers_the_edge_cases():
    """The cases above exercise what they are named for."""
    env, g = _disconnected(random_instance(GenConfig(seed=5, n=40, m=6, max_side=0.3)))
    assert math.isinf(spanning_ratio(env, g).max_ratio)
    env, g = _understated(random_instance(GenConfig(seed=12, n=64, m=8)))
    assert spanning_ratio(env, g).understated is not None
    env = random_instance(_MAZE)
    states = GeodesicSolver(env).classify(*np.broadcast_arrays(
        *(points_array(env.points)[k] for k in np.triu_indices(env.n, 1))))
    assert (states == geodesic.GRID_STAGE).sum() > 100


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


def reference_via_detour(env, p, q, o, solver):
    """check_via_detour with its checks on Point3 and AxisBox, as a reference."""
    if not (min(p.x, q.x) <= o.x <= max(p.x, q.x)
            and min(p.y, q.y) <= o.y <= max(p.y, q.y)
            and min(p.z, q.z) <= o.z <= max(p.z, q.z)):
        raise ValueError("via point must lie in the closed box of p and q")
    for pt in (p, q, o):
        for box in env.obstacles:
            if box.contains_interior(pt):
                raise ValueError("query points must lie outside obstacle interiors")
    lhs = solver.distance(p, o) + solver.distance(o, q)
    rhs = VIA_DETOUR_FACTOR * solver.distance(p, q)
    return lhs, rhs, lhs <= rhs + EPS_GEOM


def _via_loop(env, triples, check):
    """(passes, worst) of check called triple by triple on a fresh solver,
    or the ValueError message it raises; and the cache it leaves."""
    solver, passes, worst = GeodesicSolver(env), 0, 0.0
    try:
        for p, q, o in triples:
            lhs, rhs, holds = check(env, p, q, o, solver)
            worst = max(worst, VIA_DETOUR_FACTOR * lhs / rhs)
            passes += holds
    except ValueError as exc:
        return str(exc), None
    return (passes, worst), list(solver._cache.items())


# Two boxes whose faces lie on the planes of a lattice: points of the
# lattice sit on their faces, edges and corners, and via points drawn from
# the same planes sit on the boundary of the box of p and q.
_VIA_PLANES = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_VIA_ENV = Environment(
    [AxisBox(Point3(0.0, 0.0, 0.0), Point3(1.0, 1.0, 1.0)),
     AxisBox(Point3(1.5, 0.0, 0.5), Point3(2.0, 2.0, 1.0))],
    [Point3(*c) for c in itertools.product(_VIA_PLANES, repeat=3)
     if not (0 < c[0] < 1 and 0 < c[1] < 1 and 0 < c[2] < 1)
     and not (1.5 < c[0] < 2 and 0 < c[1] < 2 and 0.5 < c[2] < 1)])


def _via_pairs():
    """Index pairs of _VIA_ENV: those the grid stage settles, and those
    whose box holds the unit cube's center."""
    pts = points_array(_VIA_ENV.points)
    i, j = np.triu_indices(len(pts), 1)
    grid = GeodesicSolver(_VIA_ENV).classify(pts[i], pts[j]) == geodesic.GRID_STAGE
    around = ((np.minimum(pts[i], pts[j]) < 0.5) & (np.maximum(pts[i], pts[j]) > 0.5)).all(axis=1)
    return [list(zip(i[mask].tolist(), j[mask].tolist())) for mask in (grid, around)]


_GRID_PAIRS, _AROUND_CENTER = _via_pairs()


@st.composite
def _via_triple(draw, kind):
    """A triple (p, q, o) of the given kind: "valid"; "outside", with o
    outside the box of p and q on one axis; "inside", with o at the center
    of the unit cube.  Half the valid pairs need the grid stage."""
    if kind == "inside":
        i, j = draw(st.sampled_from(_AROUND_CENTER))
    else:
        index = st.integers(0, _VIA_ENV.n - 1)
        i, j = draw(st.sampled_from(_GRID_PAIRS) | st.tuples(index, index).filter(
            lambda ij: ij[0] != ij[1]))
    p, q = _VIA_ENV.points[i], _VIA_ENV.points[j]
    if draw(st.booleans()):
        p, q = q, p
    if kind == "inside":
        return p, q, Point3(0.5, 0.5, 0.5)
    coords = []
    for a, b in zip(p.as_tuple(), q.as_tuple()):
        lo, hi = min(a, b), max(a, b)
        coords.append(draw(st.sampled_from([c for c in _VIA_PLANES if lo <= c <= hi])
                           | st.floats(lo, hi)))
    if kind == "outside":
        axis = draw(st.integers(0, 2))
        lo, hi = sorted((p.coord(axis), q.coord(axis)))
        beyond = [c for c in _VIA_PLANES if not lo <= c <= hi]
        assume(beyond)
        coords[axis] = draw(st.sampled_from(beyond))
    o = Point3(*coords)
    assume(kind == "outside" or not any(box.contains_interior(o) for box in _VIA_ENV.obstacles))
    return p, q, o


@settings(max_examples=80, deadline=None)
@given(st.lists(_via_triple("valid"), max_size=12),
       st.lists(st.sampled_from(["outside", "inside"]).flatmap(_via_triple), max_size=2),
       st.data())
def test_check_via_triples_matches_a_loop_of_checks(triples, bad, data):
    """check_via_triples gives the (passes, worst) of checking the triples
    one at a time, and leaves the same cache; with a triple whose via point
    falls outside the box of p and q or inside an obstacle, it raises the
    ValueError the loop raises at the first such triple."""
    for triple in bad:
        triples.insert(data.draw(st.integers(0, len(triples))), triple)
    expected, cache = _via_loop(_VIA_ENV, triples, reference_via_detour)
    assert _via_loop(_VIA_ENV, triples, check_via_detour) == (expected, cache)
    solver = GeodesicSolver(_VIA_ENV)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(expected)):
            check_via_triples(_VIA_ENV, triples, solver)
    else:
        assert check_via_triples(_VIA_ENV, triples, solver) == expected
        assert list(solver._cache.items()) == cache


def test_check_via_triples_validates_without_point_tests(monkeypatch):
    """The via checks make three distance calls per sample and no
    per-point obstacle test."""
    env = random_instance(GenConfig(seed=77, n=14, m=6))
    triples = via_triples(env, 50, np.random.default_rng(7))
    calls = []
    distance = GeodesicSolver.distance
    monkeypatch.setattr(GeodesicSolver, "distance",
                        lambda self, p, q: calls.append(1) or distance(self, p, q))
    monkeypatch.setattr(AxisBox, "contains_interior", None)
    assert check_via_triples(env, triples, GeodesicSolver(env))[0] == 50
    assert len(calls) == 3 * 50


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


def reference_norm_conversion_check(env):
    """norm_conversion_check as it ran, one row of pairs per numpy call."""
    pts = points_array(env.points)
    for i in range(len(pts) - 1):
        diff = np.abs(pts[i + 1:] - pts[i])
        l1 = diff.sum(axis=1)
        l2 = np.sqrt((diff * diff).sum(axis=1))
        if not np.all((l1 / verification.NORM_RATIO <= l2 * (1 + 1e-12))
                      & (l2 <= l1 * (1 + 1e-12))):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(cloud=st.lists(st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 3),
                      min_size=0, max_size=40),
       t=st.floats(1e-3, 1e3), s=st.floats(1e-3, 1e3),
       tilt=st.tuples(*[st.integers(-30, 30).map(lambda k: k * 1e-9)] * 2),
       where=st.sampled_from(["first", "middle", "last"]),
       margin=st.sampled_from([0.0, 1e-12, 2e-12]),
       block=st.sampled_from([1, 5, 64, verification._STRETCH_BLOCK]))
def test_norm_check_blocks_match_per_row_loop(cloud, t, s, tilt, where, margin, block):
    """A random cloud and one pair on or near the main diagonal, at the
    bound (margin 0), at the 1e-12 margin, where rounding decides, or just
    past it: the block check gives the per-row loop's verdict.  The tilt
    makes the pair's coordinate differences unequal, so the order of the
    sums can matter."""
    points = [Point3(*c) for c in dict.fromkeys(cloud)]
    pair = [Point3(t, t, t), Point3(-s, -s * (1 + tilt[0]), -s * (1 + tilt[1]))]
    at = {"first": 0, "middle": len(points) // 2, "last": len(points)}[where]
    points = points[:at] + pair + points[at:]
    assume(len(set(points)) == len(points))
    env = Environment([], points)
    with pytest.MonkeyPatch.context() as mp:
        # l1 / NORM_RATIO on a diagonal pair is l2 * (1 + margin), up to rounding
        mp.setattr(verification, "NORM_RATIO", math.sqrt(3.0) / (1 + margin))
        mp.setattr(verification, "_STRETCH_BLOCK", block)
        expected = reference_norm_conversion_check(env)
        assert norm_conversion_check(env) == expected
    if margin == 2e-12 and tilt == (0.0, 0.0):
        assert not expected


def test_norm_check_matches_per_row_loop_at_the_margin(monkeypatch):
    """Pairs within a few ulps of the lower bound's margin, where rounding
    decides the verdict either way: each gives the per-row loop's verdict."""
    monkeypatch.setattr(verification, "NORM_RATIO", math.sqrt(3.0) / (1 + 1e-12))
    rng = np.random.default_rng(7)
    verdicts = []
    for t, s, tx, ty in zip(*rng.uniform(1e-3, 1e3, (2, 400)), *rng.uniform(-1e-8, 1e-8, (2, 400))):
        env = Environment([], [Point3(t, t, t), Point3(-s, -s * (1 + tx), -s * (1 + ty))])
        verdicts.append(reference_norm_conversion_check(env))
        assert norm_conversion_check(env) == verdicts[-1]
    assert 50 < sum(verdicts) < 350


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
