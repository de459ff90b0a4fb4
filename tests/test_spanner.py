import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from boxspan import files, spanner
from boxspan.cspd import CONES, ConeId, Cspd, CspdPair, build_cspd
from boxspan.geodesic import GeodesicSolver, oracle_fine_grid_distance
from boxspan.geometry import AxisBox, Environment, Point3, points_array
from boxspan.generators import GenConfig, random_instance
from boxspan.spanner import (SpannerGraph, _nearest_members, build_spanner, candidate_points,
                             select_center)
from test_geometry import bounding_box, box_contains, l1_distance

UNIT_CUBE = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))


def dict_graph(n, edges):
    """A graph on n points holding the given {(i, j): w} edges in its dict
    store, as reading .edges makes one."""
    g = SpannerGraph(n)
    g.edges.update(edges)
    return g


def test_single_point_yields_empty_graph():
    g = build_spanner(Environment([], [Point3(0, 0, 0)]))
    assert g.n == 1 and g.edges == {}


def test_two_points_yield_direct_edge():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    g = build_spanner(env)
    assert sorted(g.edges.items()) == [((0, 1), pytest.approx(3.0, abs=1e-12))]


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
    assert select_center(pair, env, Point3(0, 0, 0), GeodesicSolver(env)) == 0


def test_select_center_free_space_is_l1_nearest():
    env = Environment([], [Point3(0.4, 0, 0), Point3(3, 0, 0), Point3(-2, 1, 1)])
    pair = CspdPair(ConeId(1, 1), (2,), (0, 1), Point3(0, 0, 0))
    assert select_center(pair, env, Point3(0, 0, 0), GeodesicSolver(env)) == 0


def test_select_center_obstacle_flips_winner():
    """A member nearer in plain L1 can lose once an obstacle blocks it."""
    wall = AxisBox(Point3(0.1, -1, -1), Point3(0.2, 1, 1))
    env = Environment([wall], [Point3(0.3, 0, 0), Point3(-0.5, 0, 0)])
    candidate = Point3(0, 0, 0)
    pair = CspdPair(ConeId(1, 1), (1,), (0,), candidate)
    sigma = [GeodesicSolver(env).distance(candidate, p) for p in env.points]
    assert l1_distance(candidate, env.points[0]) < l1_distance(candidate, env.points[1])
    assert sigma[1] < sigma[0]
    assert select_center(pair, env, candidate, GeodesicSolver(env)) == int(np.argmin(sigma))


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
                    assert any(box_contains(box, c) for c in exits), (cone, i, j)


def test_build_is_deterministic(small_instance):
    env, _, g = small_instance
    again = build_spanner(env, GeodesicSolver(env))
    assert again.edges == g.edges


def full_scan_center(pair, env, candidate, solver):
    """select_center without the L1 bound: the solver is asked for every
    member, and the first argmin wins."""
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, env.point_coords[members])
    return members[int(dists.argmin())]


def reference_build(env, solver, select=select_center):
    """Every pair through candidate_points, select (select_center unless
    given) and the solver, one pair at a time, adding each edge as it is
    emitted."""
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
                center = select(pair, env, cand, solver)
                others = [q for q in members if q != center]
                weights = solver.distances_from(env.points[center],
                                                [env.points[q] for q in others])
                graph.stats["emissions"] += len(others)
                for q, weight in zip(others, weights.tolist()):
                    graph.edges.setdefault((min(center, q), max(center, q)), weight)
    return graph


# A checkerboard: an apex at an odd corner has up to six nearest members.
LATTICE = [Point3(*c) for c in itertools.product((0.0, 1.0, 2.0, 3.0, 4.0), repeat=3)
           if sum(c) % 2 == 0]


def _faces_instance(seed=2):
    """Points of a lattice whose planes carry the faces of two boxes: many
    lie on obstacle faces, edges and corners, many apexes are interior to
    the larger box, and many of their exits are data points.  The seed
    picks the 48 points."""
    boxes = [AxisBox(Point3(1.0, 1.0, 1.0), Point3(4.0, 4.0, 4.0)),
             AxisBox(Point3(0.0, 4.5, 0.0), Point3(5.0, 5.0, 2.0))]
    lattice = [Point3(*c) for c in itertools.product(np.arange(6.0).tolist(), repeat=3)
               if not any(box.contains_interior(Point3(*c)) for box in boxes)]
    pick = np.sort(np.random.default_rng(seed).choice(len(lattice), size=48, replace=False))
    return Environment(boxes, [lattice[i] for i in pick])


def test_faces_instance_puts_points_and_exits_on_obstacles():
    env = _faces_instance()
    corners = {(x, y, z) for box in env.obstacles for x in (box.lo.x, box.hi.x)
               for y in (box.lo.y, box.hi.y) for z in (box.lo.z, box.hi.z)}
    on_boundary = [p for p in env.points
                   if any(box_contains(box, p) for box in env.obstacles)]
    assert len(on_boundary) >= 10
    assert corners & {p.as_tuple() for p in env.points}
    points = {p.as_tuple() for p in env.points}
    exits_at_points = [e for cone in CONES for pair in build_cspd(env.points, cone).pairs
                       for e in set(candidate_points(pair, env))
                       if e != pair.apex and e.as_tuple() in points]
    assert exits_at_points


INPUTS = {
    "open": random_instance(GenConfig(seed=31, n=120, m=0)),
    "mixed": random_instance(GenConfig(seed=32, n=60, m=8, placement="mixed")),
    "interior-apexes": random_instance(GenConfig(seed=33, n=60, m=10, max_side=0.3)),
    "lattice": Environment([], LATTICE),
    "lattice-cube": Environment([AxisBox(Point3(1.0, 1.0, 1.0), Point3(2.0, 2.0, 3.0))],
                                LATTICE),
    "n1": random_instance(GenConfig(seed=34, n=1, m=2)),
    "n2": random_instance(GenConfig(seed=35, n=2, m=2)),
    "n3": random_instance(GenConfig(seed=36, n=3, m=3, max_side=0.3)),
    "faces": _faces_instance(),
    "maze": random_instance(GenConfig(seed=0, n=32, m=40, placement="mixed", min_side=0.05,
                                      max_side=0.3, gap=0.01)),
}


def _inputs(*names):
    return pytest.mark.parametrize("env", [INPUTS[name] for name in names], ids=names)


@_inputs(*INPUTS)
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


@_inputs("maze", "faces", "mixed", "lattice-cube")
def test_select_center_is_the_first_argmin_of_sigma(env):
    """For every (pair, distinct exit), select_center picks the smallest
    index among the members at the least sigma, as a fresh solver computes
    sigma for all members, while its own solver, shared as the builder's
    is, runs the grid stage for fewer members."""
    solver, full_runs = GeodesicSolver(env), 0
    for cone in CONES:
        for pair in build_cspd(env.points, cone).pairs:
            members = sorted(pair.a + pair.b)
            for cand in dict.fromkeys(candidate_points(pair, env)):
                fresh = GeodesicSolver(env)
                sigma = fresh.distances_from(cand, env.point_coords[members]).tolist()
                full_runs += fresh.grid_stage_runs
                expected = min(i for i, d in zip(members, sigma) if d == min(sigma))
                assert select_center(pair, env, cand, solver) == expected
    assert solver.grid_stage_runs < full_runs or not full_runs


class _OrientedSolver(GeodesicSolver):
    """The engine with one ulp added to the grid stage's value whenever s
    comes after t in coordinate order, so that every cached value shows the
    orientation it was first asked in."""

    def _sigma(self, S, T):
        d = super()._sigma(S, T)
        after = [s > t for s, t in zip(S.tolist(), T.tolist())]
        return np.where(after, np.nextafter(d, np.inf), d)


@pytest.mark.parametrize("seed", range(6))
def test_bounded_selection_keeps_edges_under_planted_orientation(seed):
    """Under a solver whose values depend on orientation, the builder, which
    asks only the grid-stage members the L1 bound leaves open except at
    exits on data points, gives the edges, weights included, of the
    per-pair build that asks every member."""
    env = _faces_instance(seed)
    got = build_spanner(env, _OrientedSolver(env))
    expected = reference_build(env, _OrientedSolver(env), select=full_scan_center)
    assert list(got.edges.items()) == list(expected.edges.items())


@_inputs("mixed", "faces")
def test_grid_stage_selections_move_some_centers(env):
    """On these inputs select_center, asked per (pair, distinct exit) as the
    per-pair loop asks it, picks for some exit a member other than the first
    L1-nearest one, so the builder's re-made weight rows run (and
    test_build_matches_per_pair_reference checks them)."""
    solver = GeodesicSolver(env)
    moved = 0
    for cone in CONES:
        for pair in build_cspd(env.points, cone).pairs:
            for cand in dict.fromkeys(candidate_points(pair, env)):
                nearest = min(sorted(pair.a + pair.b),
                              key=lambda i: (l1_distance(cand, env.points[i]), i))
                moved += select_center(pair, env, cand, solver) != nearest
    assert moved


@_inputs("faces", "maze", "mixed", "lattice-cube")
def test_builder_takes_no_per_pair_path(env, monkeypatch):
    """The builder finds exits, centers and weights on arrays for every
    pair: it calls none of candidate_points, select_center or project_out
    and builds no CspdPair, on inputs with interior apexes, grid-stage
    selections and points on obstacle faces."""
    def per_pair(*args, **kwargs):
        raise AssertionError("the builder took the per-pair path")

    for name in ("candidate_points", "select_center", "project_out"):
        monkeypatch.setattr(spanner, name, per_pair)
    monkeypatch.setattr(Cspd, "pairs", property(per_pair))
    build_spanner(env)


def test_nearest_members_matches_per_segment_reference():
    """Segments of LATTICE members in shuffled order, each with an apex at
    an odd corner, where up to six members tie for nearest, or at a random
    point: per segment, the smallest member at the least distance."""
    rng = np.random.default_rng(7)
    P = points_array(LATTICE)
    odd = [c for c in itertools.product(range(5), repeat=3) if sum(c) % 2]
    segments = []
    for k in range(60):
        size = len(P) if k % 4 == 0 else int(rng.integers(1, 12))
        members = rng.choice(len(P), size=size, replace=False)
        apex = np.array(odd[k % len(odd)], dtype=float) if k % 3 else rng.uniform(0, 4, 3)
        segments.append((members, np.abs(P[members] - apex).sum(axis=1)))
    expected, tied = [], 0
    for members, dist in segments:
        least = min(dist.tolist())
        at_least = [m for m, d in zip(members.tolist(), dist.tolist()) if d == least]
        expected.append(min(at_least))
        tied += len(at_least) > 1
    assert tied >= 10
    got = _nearest_members(np.concatenate([d for _, d in segments]),
                           np.concatenate([m for m, _ in segments]),
                           np.array([len(m) for m, _ in segments]))
    assert got.tolist() == expected


def _scaled_point(p, k):
    """p with every coordinate scaled by 2**k, which is exact."""
    return Point3(*(math.ldexp(c, k) for c in p.as_tuple()))


def _scaled(env, k):
    """env with every coordinate scaled by 2**k."""
    return Environment([AxisBox(_scaled_point(box.lo, k), _scaled_point(box.hi, k))
                        for box in env.obstacles],
                       [_scaled_point(p, k) for p in env.points])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maze_build_scales_exactly(seed):
    """Maze instances, where many pairs reach the grid stage, built at 2**k
    give the same edges in the same order, each weight exactly the unscaled
    one times 2**k: the grid stage's pruning slack is relative."""
    env = random_instance(GenConfig(seed=seed, n=32, m=40, placement="mixed", min_side=0.05,
                                    max_side=0.3, gap=0.01))
    unscaled = build_spanner(env)
    for k in (-300, -60, -40, 0, 40, 300):
        edges = build_spanner(_scaled(env, k)).edges
        assert list(edges) == list(unscaled.edges), k
        assert list(edges.values()) == [math.ldexp(w, k) for w in unscaled.edges.values()], k


@pytest.mark.parametrize("cfg,count,expected", [
    (GenConfig(seed=5, n=40, m=5, placement="mixed"), 414,
     "a0591ed19285d40d0afe7ffc3b741b75c25b03fc5bd74f586e97cca2c293776a"),
    (GenConfig(seed=6, n=50, m=0), 665,
     "d5ca3e9549a73c95a9f402cc619bd91113ccdd6efd551ad133b2a46c3de34d9f"),
])
def test_built_edges_are_pinned(cfg, count, expected):
    """The dict that edges makes of the builder's columns is the one the
    builder made when it kept a dict: the same items in the same order."""
    g = build_spanner(random_instance(cfg))
    assert g.edge_count == count
    assert hashlib.sha256(repr(list(g.edges.items())).encode()).hexdigest() == expected


def test_built_graph_keeps_read_only_columns():
    """Until edges is read, the builder's (i, j, w) arrays are the store:
    edge_columns returns them, uncopied and read-only, with the dtypes of
    the format, and the dict edges makes holds the same edges in order."""
    g = build_spanner(random_instance(GenConfig(seed=5, n=30, m=3)))
    i, j, w = g.edge_columns()
    assert g.edge_columns()[0] is i
    assert (i.dtype, j.dtype, w.dtype) == (np.int64, np.int64, np.float64)
    assert not any(column.flags.writeable for column in (i, j, w))
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert g.edge_count == len(i) and (i < j).all()
    assert list(g.edges.items()) == list(zip(zip(i.tolist(), j.tolist()), w.tolist()))


def test_graph_mutated_through_edges_shows_the_mutation(tmp_path):
    """Reading edges makes the dict the store: a deletion and an insertion
    through it reach edge_count, edge_columns and the saved file."""
    g = build_spanner(random_instance(GenConfig(seed=5, n=30, m=3)))
    removed = list(g.edges)[len(g.edges) // 2]
    added = next((a, b) for a in range(g.n) for b in range(a + 1, g.n) if (a, b) not in g.edges)
    count = g.edge_count
    del g.edges[removed]
    g.edges[added] = 7.5
    expected = dict(g.edges)
    assert g.edge_count == count
    i, j, w = g.edge_columns()
    assert list(zip(zip(i.tolist(), j.tolist()), w.tolist())) == list(expected.items())
    path = str(tmp_path / "graph.json")
    files.save_graph(path, g)
    with open(path) as fh:
        saved = {(a, b): weight for a, b, weight in json.load(fh)["edges"]}
    assert saved == expected and removed not in saved and saved[added] == 7.5
    assert files.load_graph(path).edges == dict(sorted(expected.items()))
    empty = SpannerGraph(4)
    assert empty.edge_count == 0 and [len(c) for c in empty.edge_columns()] == [0, 0, 0]
    empty.edges[(1, 2)] = 0.5
    assert empty.edge_count == 1 and empty.edge_columns()[2].tolist() == [0.5]
