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

from itertools import chain

import numpy as np

from .cspd import CONES, Cspd, CspdPair, _ranges, build_cspd
from .geodesic import GeodesicSolver, _l1
from .geometry import Environment, Point3, project_out


class SpannerGraph:
    """Weighted graph on point indices; edge weight = L1 geodesic distance.

    A graph is made with its edges as three read-only columns, int64 i and
    j and float64 weight, in insertion order: :func:`build_spanner` and
    :func:`~boxspan.files.load_graph` pass ``columns=(i, j, w)``, and
    ``SpannerGraph(n)`` has no edges.  Reading :attr:`edges` builds the dict
    (i, j) -> weight once, in insertion order, and makes it the store, so
    every later reader sees a mutation made through it.
    """

    def __init__(self, n: int, stats: dict | None = None, *,
                 columns: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> None:
        self.n = n
        self.stats = {} if stats is None else stats
        if columns is None:
            columns = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        for column in columns:
            column.flags.writeable = False
        self._edges, self._columns = None, columns

    @property
    def edges(self) -> dict[tuple[int, int], float]:
        """The edges as a dict (i, j) -> weight, in insertion order."""
        if self._edges is None:
            i, j, w = self._columns
            self._edges, self._columns = dict(zip(zip(i.tolist(), j.tolist()), w.tolist())), None
        return self._edges

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges as (i, j, weight) arrays, in insertion order: the column
        store itself, or arrays made from the dict store."""
        if self._columns is not None:
            return self._columns
        m = len(self._edges)
        ends = np.fromiter(chain.from_iterable(self._edges), dtype=np.int64, count=2 * m)
        return ends[0::2], ends[1::2], np.fromiter(self._edges.values(), dtype=float, count=m)

    @property
    def edge_count(self) -> int:
        return len(self._edges) if self._columns is None else len(self._columns[0])


def candidate_points(pair: CspdPair, env: Environment) -> tuple[Point3, ...]:
    """The six axis exit points of the pair's apex (all equal the apex when
    it is not interior to any obstacle)."""
    return project_out(pair.apex, env)


def select_center(pair: CspdPair, env: Environment, candidate: Point3,
                  solver: GeodesicSolver) -> int:
    """Member of A u B geodesically nearest to the candidate point.

    Ties break to the smallest point index.  The solver is asked only for
    the grid-stage members whose L1 can still beat the best distance found
    (:func:`_nearest_center`), or for every grid-stage member when the
    candidate is a data point.  That picks the member a scan of all members
    picks, and leaves the solver's later answers as that scan would:

    - sigma >= L1 (:func:`~boxspan.geodesic._l1`) to the bit in either
      orientation, so for a cached value too.  So a member whose (L1,
      index) is not below the best (sigma, index) found cannot be the first
      argmin, and neither can any member after it in (L1, index) order.
    - A skipped member leaves no cache entry.  Selection distances never
      become edge weights; a missing entry changes a later answer only
      through the orientation asked first, which fixes a pair's last bits
      (see :class:`GeodesicSolver`).  A later query asks (member, candidate)
      the other way round only with the candidate as its target, and every
      target is a data point.  Candidates at data points are scanned in
      full, so their entries are the full scan's.
    """
    members = np.array(sorted(set(pair.a) | set(pair.b)))
    T = env.point_coords[members]
    S = np.broadcast_to(np.array(candidate.as_tuple()), T.shape)
    return _nearest_center(solver, S, T, members, _l1(S, T),
                           solver.classify(S, T), env.point_coords)


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
    stats = {"pair_counts": {}, "size_sums": {}, "apex_interior": 0, "apex_free": 0,
             "emissions": 0}
    if n < 2:
        return SpannerGraph(n, stats=stats)
    if solver is None:
        solver = GeodesicSolver(env)
    P = env.point_coords
    keys, edge_weights = [], []
    for cone in CONES:
        decomposition = build_cspd(P, cone)
        code = cone.code()
        stats["pair_counts"][code] = len(decomposition)
        stats["size_sums"][code] = decomposition.size_sum
        if not len(decomposition):
            continue
        centers, targets, weights = _emissions(P, decomposition, solver, stats)
        keys.append(np.minimum(centers, targets) * n + np.maximum(centers, targets))
        edge_weights.append(weights)
    key, weight = np.concatenate(keys), np.concatenate(edge_weights)
    first = np.sort(np.unique(key, return_index=True)[1])
    i, j = np.divmod(key[first], n)
    return SpannerGraph(n, stats=stats, columns=(i, j, weight[first]))


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

    Each exit makes one query, and the queries' rows are made at once in two
    arrays, each classified by one :meth:`GeodesicSolver.classify` call:
    the selection rows (exit, member), per query its pair's members in index
    order, and the weight rows (center, member), per query its other
    members, query q owning weight rows rows[q] to rows[q + 1].  The center
    is provisional: the first L1-nearest member (:func:`_nearest_members`).

    The solver then resolves the weight rows in order, a whole range per
    :meth:`GeodesicSolver.distances_from` call with a source row per
    target.  At a query with a grid-stage selection row the range ends
    before the query's weight rows, and :func:`_nearest_center` picks the
    center, asking the solver only for the grid-stage members whose L1 can
    still beat the best distance found, or for all of them when the exit is
    a data point; if the center is another member, the query's weight rows
    are made and classified again.  Selection rows never reach the solver
    otherwise.

    This is exactly what the per-pair loop of :func:`build_spanner` does:

    - classify is pure and symmetric in the pair, so classifying early and
      in bulk changes no state and no answer;
    - when no selection row is grid stage, every selection distance is L1
      (every pair outside the grid stage is), so :func:`select_center`
      would pick the provisional center without asking the solver;
      otherwise it calls :func:`_nearest_center` on the same rows, which
      asks the solver what it asks here;
    - the solver is asked the same rows, in the same order and orientation,
      so the values, the grid-stage calls and the cache entries, in
      insertion order, are the loop's;
    - the center is the first argmin of the geodesic distance over all
      members, ties to the smallest index, whatever the bound skips:
      sigma >= L1 to the bit, and a skipped row writes no cache entry that
      a later query could read in the other orientation, since such a query
      would have the exit as its target, a data point (the argument is
      :func:`select_center`'s);
    - a pair whose closed member box meets no obstacle interior has its
      apex in that box (between its sides), so the apex is interior to no
      obstacle.  Every row of the pair has its box inside the member box,
      which meets no obstacle, so the row is not grid stage: distances_from
      answers it with L1 and runs no grid stage for it.
    """
    n, apex, obs_lo, obs_hi = len(P), decomposition.apex, solver.obs_lo, solver.obs_hi
    inside = ((obs_lo < apex[:, None]) & (apex[:, None] < obs_hi)).all(axis=2)
    box = np.logical_and.accumulate(~inside, axis=1).sum(axis=1)  # first holder, or m
    interior = box < len(obs_lo)
    stats["apex_interior"] += int(interior.sum())
    stats["apex_free"] += len(apex) - int(interior.sum())

    # Query q asks exit q, side[q] of its pair's exits in x+, x-, ..., z- order.
    query_pairs, side = _ranges(np.zeros_like(box), np.where(interior, 6, 1))
    exits = apex[query_pairs]
    moved = np.nonzero(interior[query_pairs])[0]
    holder, axis = box[query_pairs[moved]], side[moved] // 2
    exits[moved, axis] = np.where(side[moved] % 2, obs_lo[holder, axis], obs_hi[holder, axis])

    # Selection rows (exit, member): per query, its pair's members in index order.
    owner, at = _ranges(decomposition.offsets[query_pairs], decomposition.offsets[query_pairs + 1])
    members = np.sort(owner * n + decomposition.members[at]) % n  # (query, member) order
    sizes = np.diff(decomposition.offsets)[query_pairs]
    first = np.cumsum(sizes) - sizes
    E, M = exits[owner], P[members]
    l1 = _l1(E, M)
    picks = solver.classify(E, M)
    centers = _nearest_members(l1, members, sizes)

    # Weight rows (center, member): query q owns rows[q] to rows[q + 1].
    other = members != centers[owner]
    sources, targets = centers[owner[other]], members[other]
    rows = np.concatenate([[0], np.cumsum(sizes - 1)])
    S, T = P[sources], P[targets]
    grid = solver.classify(S, T)
    weights = np.empty(len(targets))

    def resolve(lo: int, hi: int) -> None:
        """Weight rows lo to hi, in one distances_from call."""
        weights[lo:hi] = solver.distances_from(S[lo:hi], T[lo:hi], grid=grid[lo:hi])

    done = 0
    for q in np.flatnonzero(np.logical_or.reduceat(picks, first)).tolist():
        resolve(done, rows[q])
        done = rows[q]
        picked = slice(first[q], first[q] + sizes[q])
        center = _nearest_center(solver, E[picked], M[picked], members[picked], l1[picked],
                                 picks[picked], P)
        if center != centers[q]:
            remade = slice(rows[q], rows[q + 1])
            rest = members[picked][members[picked] != center]
            sources[remade], targets[remade] = center, rest
            S[remade], T[remade] = P[center], P[rest]
            grid[remade] = solver.classify(S[remade], T[remade])
    resolve(done, len(targets))
    stats["emissions"] += len(targets)
    return sources, targets, weights


def _nearest_center(solver: GeodesicSolver, S: np.ndarray, T: np.ndarray, members: np.ndarray,
                    l1: np.ndarray, grid: np.ndarray, points: np.ndarray) -> int:
    """The smallest member at the least geodesic distance among the rows
    (S[k], T[k]) of one query, S[k] its exit and T[k] member members[k],
    with l1 their L1 distances and grid their classification.

    Only a grid-stage row can lie above its L1, so the best (distance,
    member) of the other rows is their least (L1, member).  The grid-stage
    rows are then asked one at a time, in (L1, member) order, and the scan
    stops at the first row whose (L1, member) is not below the best found:
    its distance is at least its L1, and so is every later row's.  Every
    grid-stage row is asked when the exit is one of the rows of points.
    """
    best = min(zip(l1[~grid].tolist(), members[~grid].tolist()), default=(np.inf, -1))
    rows = np.flatnonzero(grid)
    scan_all = bool((points == S[0]).all(axis=1).any())
    for k in rows[np.lexsort((members[rows], l1[rows]))].tolist():
        member = int(members[k])
        if not scan_all and (float(l1[k]), member) >= best:
            break
        d = solver.distances_from(S[k:k + 1], T[k:k + 1], grid=grid[k:k + 1])[0]
        best = min(best, (float(d), member))
    return best[1]


def _nearest_members(dist: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment of the rows, sizes[k] rows each and none empty, the
    smallest member among the rows at the segment's least dist."""
    starts = np.cumsum(sizes) - sizes
    least = np.repeat(np.minimum.reduceat(dist, starts), sizes)
    return np.minimum.reduceat(np.where(dist == least, members, np.iinfo(members.dtype).max),
                               starts)
