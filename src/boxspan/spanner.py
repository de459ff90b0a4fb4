"""Spanner construction: cone decompositions, apex exit points, center selection.

For each cone and each decomposition pair, the apex is projected out of any
obstacle containing it (six axis exits); for each distinct exit point the
member with the smallest geodesic distance to it becomes a center, and the
center is connected to every other member with geodesic edge weights.  Edges
are deduplicated over all cones; the first emission of each edge sets its
weight and its place in the edge order.  Every pair takes the same path: the
exits, queries and classifications of all pairs of a cone are made at once
on arrays, and the geodesic solver then resolves the queries in the order a
loop over the pairs would ask them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .cspd import CONES, Cspd, CspdPair, build_cspd
from .geodesic import BOX_FREE, GRID_STAGE, GeodesicSolver
from .geometry import Environment, Point3, project_out


@dataclass
class SpannerGraph:
    """Weighted graph on point indices; edge weight = L1 geodesic distance."""

    n: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as (i, j, weight) arrays, in insertion order."""
        m = len(self.edges)
        ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64, count=2 * m)
        return ends[0::2], ends[1::2], np.fromiter(self.edges.values(), dtype=float, count=m)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def candidate_points(pair: CspdPair, env: Environment) -> tuple[Point3, ...]:
    """The six axis exit points of the pair's apex (all equal the apex when
    it is not interior to any obstacle)."""
    return project_out(pair.apex, env)


def select_center(pair: CspdPair, env: Environment, candidate: Point3,
                  solver: GeodesicSolver | None = None) -> int:
    """Member of A u B geodesically nearest to the candidate point.

    Ties break to the smallest point index.
    """
    if solver is None:
        solver = GeodesicSolver(env)
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, env.point_coords[members])
    return members[int(dists.argmin())]


def build_spanner(env: Environment, solver: GeodesicSolver | None = None) -> SpannerGraph:
    """Build the full spanner over all four cones.

    Edge budget: at most 6 * (|A| + |B|) edges are emitted per pair before
    deduplication, so the edge count is at most six times the total pair
    size over the four cones.

    All pairs of a cone go through :func:`_emissions` at once, whose rows
    come in (pair, exit, member) order, the order a loop over the pairs
    would emit them in; over the cones in order, the first emission of each
    edge is kept.

    The result is exactly that of the per-pair loop which, for each
    (pair, distinct exit of :func:`candidate_points`), calls
    :func:`select_center` and then one :meth:`GeodesicSolver.distances_from`
    for the center's edge weights: the same edges in insertion order, the
    same stats, the same grid-stage calls, and the same solver cache, entry
    for entry and in insertion order.  :func:`_emissions` gives the argument.
    """
    n = env.n
    if n < 1:
        raise ValueError("need at least one point")
    graph = SpannerGraph(n=n)
    graph.stats = {"pair_counts": {}, "size_sums": {}, "apex_interior": 0, "apex_free": 0,
                   "emissions": 0}
    if n < 2:
        return graph
    if solver is None:
        solver = GeodesicSolver(env)
    P = env.point_coords
    keys, edge_weights = [], []
    for cone in CONES:
        decomposition = build_cspd(P, cone)
        code = cone.code()
        graph.stats["pair_counts"][code] = len(decomposition)
        graph.stats["size_sums"][code] = decomposition.size_sum
        if not len(decomposition):
            continue
        centers, targets, weights = _emissions(P, decomposition, solver, graph.stats)
        keys.append(np.minimum(centers, targets) * n + np.maximum(centers, targets))
        edge_weights.append(weights)
    key, weight = np.concatenate(keys), np.concatenate(edge_weights)
    first = np.sort(np.unique(key, return_index=True)[1])
    i, j = np.divmod(key[first], n)
    graph.edges = dict(zip(zip(i.tolist(), j.tolist()), weight[first].tolist()))
    return graph


def _emissions(P: np.ndarray, decomposition: Cspd, solver: GeodesicSolver, stats: dict):
    """(center, member, weight) rows of all pairs of a decomposition, in
    (pair, exit, member) order, with their apex and emission counts added
    to stats.

    Exits: an apex interior to an obstacle, the first one holding it as in
    :func:`project_out` (by disjointness the only one), has six exits, its
    projections onto that obstacle's faces in the x+, x-, y+, y-, z+, z-
    order.  They are pairwise distinct: each moves one coordinate from
    strictly inside the obstacle onto a face.  Any other apex is its own
    single exit, since its six exits coincide.

    Each exit makes one query.  The rows of all queries are made at once,
    per query its selection rows (exit, member), members in index order,
    then its weight rows (center, member) for the other members, and one
    :meth:`GeodesicSolver.classify` call classifies them all.  The center
    is provisional: the first L1-nearest member (:func:`_nearest_members`).

    The solver then resolves the rows in order, box-free rows left out, as
    many rows per :meth:`GeodesicSolver.distances_from` call as possible
    with a source row per target.  At a query with a grid-stage selection
    row the run ends after its selection rows, and :func:`_nearest_members`
    picks the center from their distances; if that is another member, the
    query's weight rows are made and classified again.

    This is exactly what the per-pair loop of :func:`build_spanner` does:

    - classify is pure and symmetric in the pair, so classifying early and
      in bulk changes no state and no answer;
    - when no selection row is grid stage, every selection distance is L1
      (box-free and staircase-clear pairs are), so :func:`select_center`
      would pick the provisional center; otherwise its distances are the
      ones the solver gives here, and its argmin, ties to the smallest
      index, is the :func:`_nearest_members` pick;
    - the solver is asked the same rows, in the same order and orientation,
      so the values, the grid-stage calls and the cache entries, in
      insertion order, are the loop's.  A box-free row writes no cache
      entry, so leaving it out changes nothing either;
    - a pair whose closed member box meets no obstacle interior has its
      apex in that box (between its sides), so the apex is interior to no
      obstacle.  Every row of the pair has its box inside the member box
      and classifies box-free, so the solver never sees it, and its weight
      is the float expression distances_from evaluates for such rows.
    """
    n, apex, obs_lo, obs_hi = len(P), decomposition.apex, solver.obs_lo, solver.obs_hi
    inside = ((obs_lo < apex[:, None]) & (apex[:, None] < obs_hi)).all(axis=2)
    box = np.logical_and.accumulate(~inside, axis=1).sum(axis=1)  # first holder, or m
    interior = box < len(obs_lo)
    stats["apex_interior"] += int(interior.sum())
    stats["apex_free"] += len(apex) - int(interior.sum())
    exit_counts = np.where(interior, 6, 1)

    # Query q asks exit q, side[q] of its pair's exits in x+, x-, ..., z- order.
    count = int(exit_counts.sum())
    query_pairs = np.repeat(np.arange(len(apex)), exit_counts)
    side = np.arange(count) - np.repeat(np.cumsum(exit_counts) - exit_counts, exit_counts)
    exits = apex[query_pairs]
    moved = np.nonzero(interior[query_pairs])[0]
    holder, axis = box[query_pairs[moved]], side[moved] // 2
    exits[moved, axis] = np.where(side[moved] % 2, obs_lo[holder, axis], obs_hi[holder, axis])
    # Sources index the points and then the exits, exit q at n + q.
    Q = np.concatenate([P, exits])

    # Selection rows: per query, its pair's members in index order.
    starts = decomposition.offsets[query_pairs]
    sizes = decomposition.offsets[query_pairs + 1] - starts
    first = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(count), sizes)
    members = decomposition.members[np.arange(len(owner)) + np.repeat(starts - first, sizes)]
    members = np.sort(owner * n + members) % n  # (query, member) order, one integer sort
    centers = _nearest_members(np.abs(P[members] - exits[owner]).sum(axis=1), members, sizes)

    # Query q owns rows block[q] to block[q + 1]: selection rows, then weight rows.
    block = np.concatenate([[0], np.cumsum(2 * sizes - 1)])
    row_query = np.repeat(np.arange(count), 2 * sizes - 1)
    selection = np.arange(block[-1]) - block[row_query] < sizes[row_query]
    other = members != centers[owner]
    sources, targets = np.empty((2, block[-1]), dtype=members.dtype)
    sources[selection], targets[selection] = n + owner, members
    sources[~selection], targets[~selection] = centers[owner][other], members[other]
    S, T = Q[sources], P[targets]
    states = solver.classify(S, T)
    weights = np.abs(T - S).sum(axis=1)

    def resolve(lo: int, hi: int) -> None:
        """Rows lo to hi, box-free rows left out, in one distances_from call."""
        ask = lo + np.nonzero(states[lo:hi] != BOX_FREE)[0]
        if len(ask):
            weights[ask] = solver.distances_from(S[ask], T[ask], states=states[ask])

    done = 0
    grid = np.maximum.reduceat(states[selection], first) == GRID_STAGE
    for q in np.nonzero(grid)[0].tolist():
        picked = slice(block[q], block[q] + sizes[q])
        resolve(done, picked.stop)
        center = _nearest_members(weights[picked], targets[picked], sizes[q:q + 1])[0]
        if center != centers[q]:
            remade = slice(picked.stop, block[q + 1])
            rest = targets[picked][targets[picked] != center]
            sources[remade], targets[remade] = center, rest
            S[remade], T[remade] = P[center], P[rest]
            states[remade] = solver.classify(S[remade], T[remade])
            weights[remade] = np.abs(T[remade] - S[remade]).sum(axis=1)
        done = picked.stop
    resolve(done, block[-1])
    emitted = ~selection
    stats["emissions"] += int(emitted.sum())
    return sources[emitted], targets[emitted], weights[emitted]


def _nearest_members(dist: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment of the rows, sizes[k] rows each and none empty, the
    smallest member among the rows at the segment's least dist."""
    starts = np.cumsum(sizes) - sizes
    least = np.repeat(np.minimum.reduceat(dist, starts), sizes)
    return np.minimum.reduceat(np.where(dist == least, members, np.iinfo(members.dtype).max),
                               starts)
