"""Spanner construction: cone decompositions, apex exit points, center selection.

For each cone and each decomposition pair, the apex is projected out of any
obstacle containing it (six axis exits); for each distinct exit point the
member with the smallest geodesic distance to it becomes a center, and the
center is connected to every other member with geodesic edge weights.  Edges
are deduplicated over all cones; the first emission of each edge sets its
weight and its place in the edge order.  Pairs whose member box no obstacle
meets are settled on numpy arrays, all of a cone at once.  The queries of
the others are made and classified on arrays as well, a cone at a time; the
geodesic solver then resolves them in the order a loop over the pairs would
ask them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cspd import CONES, Cspd, CspdPair, build_cspd
from .geodesic import BOX_FREE, GRID_STAGE, GeodesicSolver
from .geometry import Environment, Point3, points_array, project_out


@dataclass
class SpannerGraph:
    """Weighted graph on point indices; edge weight = L1 geodesic distance."""

    n: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.edges[(i, j)]) for (i, j) in sorted(self.edges)]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_edge(self, i: int, j: int, weight: float) -> None:
        if i == j:
            raise ValueError("self-loops are not allowed")
        key = (i, j) if i < j else (j, i)
        if key not in self.edges:
            self.edges[key] = weight


def candidate_points(pair: CspdPair, env: Environment) -> tuple[Point3, ...]:
    """The six axis exit points of the pair's apex (all equal the apex when
    it is not interior to any obstacle)."""
    return project_out(pair.apex, env)


def select_center(pair: CspdPair, env: Environment, candidate: Point3,
                  solver: GeodesicSolver | None = None,
                  states: np.ndarray | None = None) -> int:
    """Member of A u B geodesically nearest to the candidate point.

    Ties break to the smallest point index.  states, when given, is the
    solver's classification of (candidate, member) for the members in index
    order, computed earlier (see :meth:`GeodesicSolver.classify`).
    """
    if solver is None:
        solver = GeodesicSolver(env)
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, [env.points[i] for i in members], states=states)
    return members[int(dists.argmin())]


def build_spanner(env: Environment, solver: GeodesicSolver | None = None) -> SpannerGraph:
    """Build the full spanner over all four cones.

    Edge budget: at most 6 * (|A| + |B|) edges are emitted per pair before
    deduplication, so the edge count is at most six times the total pair
    size over the four cones.

    Box-free pairs, whose closed member box meets no obstacle interior, are
    settled on arrays (see :func:`_box_free_emissions`).  Every other pair
    goes through :func:`candidate_points`, and its queries are made and
    classified on arrays, then resolved by the solver in pair order (see
    :func:`_obstructed_emissions`).  The emissions of a cone are sorted by
    (pair, exit, member), the order a loop over the pairs would make them
    in; over the cones in order, the first emission of each edge is kept.

    The result is exactly that of the per-pair loop which, for each
    (pair, distinct exit), calls :func:`select_center` and then one
    :meth:`GeodesicSolver.distances_from` for the center's edge weights:
    the same edges in insertion order, the same stats, the same grid-stage
    calls, and the same solver cache, entry for entry and in insertion
    order.  :func:`_obstructed_emissions` gives the argument.
    """
    n = env.n
    if n < 1:
        raise ValueError("need at least one point")
    graph = SpannerGraph(n=n)
    graph.stats = {
        "pair_counts": {},
        "size_sums": {},
        "apex_interior": 0,
        "apex_free": 0,
        "emissions": 0,
    }
    if n < 2:
        return graph
    if solver is None:
        solver = GeodesicSolver(env)
    P = points_array(env.points)
    keys, edge_weights = [], []
    for cone in CONES:
        decomposition = build_cspd(env.points, cone)
        code = cone.code()
        graph.stats["pair_counts"][code] = len(decomposition)
        graph.stats["size_sums"][code] = decomposition.size_sum
        if not len(decomposition):
            continue
        starts = decomposition.offsets[:-1]
        box = P[decomposition.members]
        free = ~solver.meets_obstacles(np.minimum.reduceat(box, starts),
                                       np.maximum.reduceat(box, starts))
        graph.stats["apex_free"] += int(free.sum())
        rows = [_box_free_emissions(P, decomposition, free),
                _obstructed_emissions(env, P, decomposition, np.nonzero(~free)[0], solver,
                                      graph.stats)]
        pair_ids, cand_ids, centers, targets, weights = map(np.concatenate, zip(*rows))
        order = np.lexsort((targets, cand_ids, pair_ids))
        graph.stats["emissions"] += len(order)
        keys.append((np.minimum(centers, targets) * n + np.maximum(centers, targets))[order])
        edge_weights.append(weights[order])
    key, weight = np.concatenate(keys), np.concatenate(edge_weights)
    first = np.sort(np.unique(key, return_index=True)[1])
    i, j = np.divmod(key[first], n)
    graph.edges = dict(zip(zip(i.tolist(), j.tolist()), weight[first].tolist()))
    return graph


def _obstructed_emissions(env: Environment, P: np.ndarray, decomposition: Cspd,
                          pair_ids: np.ndarray, solver: GeodesicSolver, stats: dict):
    """(pair, exit, center, member, weight) rows of the given pairs, and
    their apex counts added to stats.

    Each pair goes through :func:`candidate_points`, and each distinct exit
    of it makes one query.  The rows of all queries are made at once, per
    query its selection rows (exit, member), members in index order, then
    its weight rows (center, member) for the other members, and one
    :meth:`GeodesicSolver.classify` call classifies them all.  The center
    is provisional: the first L1-nearest member (:func:`_nearest_members`).

    The solver then resolves the rows in order.  A query with a grid-stage
    selection row goes through :func:`select_center`; if that picks another
    center, the query's weight rows are made and classified again.  The rows
    between two such selections, box-free rows left out, go to one
    :meth:`GeodesicSolver.distances_from` call with a source row per target.

    This is exactly what the per-pair loop of :func:`build_spanner` does:

    - classify is pure and symmetric in the pair, so classifying early and
      in bulk changes no state and no answer;
    - when no selection row is grid stage, every selection distance is L1
      (box-free and staircase-clear pairs are), so :func:`select_center`
      would pick the provisional center;
    - the solver is asked the same rows, in the same order and orientation,
      so the values, the grid-stage calls and the cache entries, in
      insertion order, are the loop's.  A box-free row writes no cache
      entry, so leaving it out changes nothing either.
    """
    queries = []  # (pair id, pair, exit id, exit) per distinct exit
    for pair_id in pair_ids.tolist():
        pair = decomposition.pair(pair_id)
        candidates = candidate_points(pair, env)
        stats["apex_free" if candidates[0] == pair.apex else "apex_interior"] += 1
        seen: set[tuple[float, float, float]] = set()
        for cand_id, cand in enumerate(candidates):
            if cand.as_tuple() not in seen:
                seen.add(cand.as_tuple())
                queries.append((pair_id, pair, cand_id, cand))
    if not queries:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty, empty, np.zeros(0)
    n, count = len(P), len(queries)
    query_pairs = np.array([q[0] for q in queries])
    # Sources index the points and then the exits, exit q at n + q.
    Q = np.concatenate([P, points_array([q[3] for q in queries])])

    # Selection rows: per query, its pair's members in index order.
    starts = decomposition.offsets[query_pairs]
    sizes = decomposition.offsets[query_pairs + 1] - starts
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(count), sizes)
    members = decomposition.members[np.arange(len(owner)) + np.repeat(starts - first, sizes)]
    members = members[np.lexsort((members, owner))]
    centers = _nearest_members(np.abs(P[members] - Q[n + owner]).sum(axis=1), members, sizes)

    # Query q owns rows block[q] to block[q + 1]: selection rows, then weight rows.
    block = np.concatenate([[0], np.cumsum(2 * sizes - 1)])
    row_query = np.repeat(np.arange(count), 2 * sizes - 1)
    selection = np.arange(block[-1]) - block[row_query] < sizes[row_query]
    other = members != centers[owner]
    sources, targets = np.empty((2, block[-1]), dtype=members.dtype)
    sources[selection], targets[selection] = n + owner, members
    sources[~selection], targets[~selection] = centers[owner][other], members[other]
    states = solver.classify(Q[sources], P[targets])
    grid = np.maximum.reduceat(states[selection], first) == GRID_STAGE
    weights = np.abs(P[targets] - Q[sources]).sum(axis=1)

    def resolve(lo: int, hi: int) -> None:
        """Rows lo to hi, box-free rows left out, in one distances_from call."""
        ask = lo + np.nonzero(states[lo:hi] != BOX_FREE)[0]
        if len(ask):
            weights[ask] = solver.distances_from(Q[sources[ask]], P[targets[ask]],
                                                 states=states[ask])

    done = 0
    for q in np.nonzero(grid)[0].tolist():
        resolve(done, block[q])
        _, pair, _, cand = queries[q]
        picked = slice(block[q], block[q] + sizes[q])
        center = select_center(pair, env, cand, solver, states[picked])
        if center != centers[q]:
            remade = slice(picked.stop, block[q + 1])
            rest = targets[picked][targets[picked] != center]
            sources[remade], targets[remade] = center, rest
            states[remade] = solver.classify(P[center], P[rest])
            weights[remade] = np.abs(P[rest] - P[center]).sum(axis=1)
        done = picked.stop
    resolve(done, block[-1])
    emitted = ~selection
    return (query_pairs[row_query[emitted]],
            np.array([q[2] for q in queries])[row_query[emitted]],
            sources[emitted], targets[emitted], weights[emitted])


def _nearest_members(dist: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment of the rows, sizes[k] rows each and none empty, the
    smallest member among the rows at the segment's least dist."""
    starts = np.cumsum(sizes) - sizes
    least = np.repeat(np.minimum.reduceat(dist, starts), sizes)
    return np.minimum.reduceat(np.where(dist == least, members, np.iinfo(members.dtype).max),
                               starts)


def _box_free_emissions(P: np.ndarray, decomposition: Cspd, free: np.ndarray):
    """(pair, exit, center, member, weight) rows of the pairs marked free.

    The apex of a pair lies in its closed member box (between its sides), so
    when no obstacle interior meets that box the apex is interior to none and
    its six exits all equal it: exit 0 alone emits.  Every target box of the
    center query and of the edge queries lies in the member box as well, so
    each distance is plain L1, and the float expression here is the one
    :meth:`GeodesicSolver.distances_from` evaluates for such targets, which
    it neither caches nor sends to :meth:`GeodesicSolver.distance`.  The
    center is the first L1-nearest member in index order, as
    :func:`select_center` picks it.
    """
    sizes = decomposition.len_a + decomposition.len_b
    pair_of = np.repeat(np.arange(len(decomposition)), sizes)
    take = free[pair_of]
    pair_ids, members, sizes = pair_of[take], decomposition.members[take], sizes[free]
    to_apex = np.abs(P[members] - decomposition.apex[pair_ids]).sum(axis=1)
    centers = np.repeat(_nearest_members(to_apex, members, sizes), sizes)
    other = members != centers
    pair_ids, centers, members = pair_ids[other], centers[other], members[other]
    weights = np.abs(P[members] - P[centers]).sum(axis=1)
    return pair_ids, np.zeros_like(pair_ids), centers, members, weights
