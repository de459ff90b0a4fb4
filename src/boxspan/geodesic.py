"""L1 geodesic distances amid box obstacles.

Each query is answered on a small grid of its own: the grid induced by the
face coordinates of some obstacles plus the coordinates of the two query
points.  Some shortest obstacle-avoiding rectilinear path is always confined
to such a grid once it carries the faces of every obstacle that path touches
(segments of any path can be slid onto face planes or terminal planes without
growing its length); :class:`GeodesicSolver` picks those obstacles
conservatively, and the independent fine-grid lattice oracle cross-checks it.

Obstacles block only their open interiors: paths may run along faces and
edges of obstacles.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .geometry import Environment, Point3, points_array

# Largest grid or lattice, in nodes, that a query may build; read at call time.
NODE_CAP = 20_000_000

# A three-leg staircase from s to t moves the axes one at a time.  After the
# axes in a set S have moved it stands at the corner whose coordinate on axis
# a is t's when bit a of the mask S is set and s's otherwise.  The twelve legs
# S -> S | {a} are the edges of that cube of corners, and each of the 3!
# axis orders is a path of three legs from corner 0 to corner 7.
_CORNER_FROM_TARGET = np.array([[mask >> a & 1 for mask in range(8)] for a in range(3)],
                               dtype=bool)
_LEGS = [(mask ^ 1 << a, mask) for mask in range(8) for a in range(3) if mask >> a & 1]
_LEG_START, _LEG_END = (np.array(ends) for ends in zip(*_LEGS))
_ORDERS = np.array([[_LEGS.index((0, 1 << a)),
                     _LEGS.index((1 << a, 1 << a | 1 << b)),
                     _LEGS.index((1 << a | 1 << b, 7))]
                    for a, b in permutations(range(3), 2)])


# Chunks of a classification.  The box test of a chunk makes temporaries of
# (pairs x obstacles x 3) elements, at most _BOX_TEST_CHUNK of them; the
# staircase broadcast of a chunk of _STAIRCASE_CHUNK pairs makes temporaries
# of (pairs x obstacles x 36) elements.
_BOX_TEST_CHUNK = 1 << 18
_STAIRCASE_CHUNK = 64

# How GeodesicSolver.classify says a pair is settled: no obstacle interior
# meets its closed box; a three-leg staircase is free; the grid stage decides.
BOX_FREE, STAIRCASE_CLEAR, GRID_STAGE = 0, 1, 2


def _pair_key(a: tuple, b: tuple) -> tuple:
    """Cache key of the unordered pair of coordinate tuples a != b."""
    return (a, b) if a < b else (b, a)


class GridTooLargeError(RuntimeError):
    """Raised when a grid would exceed :data:`NODE_CAP` nodes."""


def _some_box(mx: np.ndarray, my: np.ndarray, mz: np.ndarray) -> np.ndarray:
    """Cells (i, j, k) with mx[o, i], my[o, j] and mz[o, k] all set for some
    row o: the cells of the grid that lie in some obstacle's index box.

    One product over the obstacle rows; its float32 counts stay exact below
    2**24 obstacles.
    """
    k, nx, ny, nz = len(mx), mx.shape[1], my.shape[1], mz.shape[1]
    xy = (mx[:, :, None] & my[:, None, :]).reshape(k, nx * ny).T.astype(np.float32)
    return (xy @ mz.astype(np.float32) > 0).reshape(nx, ny, nz)


def _grid_links(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
                obs_lo: np.ndarray, obs_hi: np.ndarray) -> list[np.ndarray]:
    """Per-axis link arrays for a tensor grid.

    A link between consecutive grid neighbors exists iff the open segment
    between them misses every obstacle's open interior: the two fixed
    coordinates strictly inside, the moving range strictly overlapping.  A
    link with an end strictly inside an obstacle overlaps it on all three
    axes, so both ends of every link lie outside all obstacle interiors.
    """
    n_nodes = len(cuts[0]) * len(cuts[1]) * len(cuts[2])
    if n_nodes > NODE_CAP:
        raise GridTooLargeError(f"grid needs {n_nodes} nodes, cap is {NODE_CAP}")
    # (obstacles x cuts) masks: the cut lies strictly inside the obstacle's
    # interval; the segment from this cut to the next overlaps it.
    lo, hi = obs_lo.T[:, :, None], obs_hi.T[:, :, None]
    inside = [(c > lo[axis]) & (c < hi[axis]) for axis, c in enumerate(cuts)]
    return [~_some_box(*inside[:axis], (c[:-1] < hi[axis]) & (c[1:] > lo[axis]),
                       *inside[axis + 1:])
            for axis, c in enumerate(cuts)]


def _grid_csr(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
              links: list[np.ndarray]) -> csr_matrix:
    """The grid graph: one edge per link, from its lower node (numbered in C
    order) to the next node along the link's axis, weighted by its length."""
    return _grid_graph(cuts, links, both_ways=False)


def _grid_graph(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
                links: list[np.ndarray], both_ways: bool) -> csr_matrix:
    """The graph of :func:`_grid_csr`; with both_ways, also each edge back,
    so that the graph is symmetric.  Its pattern is :func:`_grid_pattern`'s;
    each slot's weight is the length of its step."""
    shape = tuple(len(c) for c in cuts)
    slot, indptr, indices = _grid_pattern(shape, links, both_ways)
    k = 6 if both_ways else 3
    up = k - 3
    steps = [np.diff(c) for c in cuts]
    weight = np.zeros(shape + (k,))
    weight[:, :, :-1, up] = steps[2]
    weight[:, :-1, :, up + 1] = steps[1][:, None]
    weight[:-1, :, :, up + 2] = steps[0][:, None, None]
    if both_ways:
        weight[1:, :, :, 0] = steps[0][:, None, None]
        weight[:, 1:, :, 1] = steps[1][:, None]
        weight[:, :, 1:, 2] = steps[2]
    n_nodes = len(indptr) - 1
    return csr_matrix((weight.reshape(-1)[slot], indices, indptr), shape=(n_nodes, n_nodes))


def _grid_pattern(shape: tuple[int, int, int], links: list[np.ndarray],
                  both_ways: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR pattern of :func:`_grid_graph` on a grid of the given shape,
    as (slot, indptr, indices): slot holds, per stored edge, its position in
    the (nodes x directions) slot array described below.

    The CSR arrays are made directly.  A node u's neighbors along the links
    are u - ny*nz, u - nz, u - 1, u + 1, u + nz and u + ny*nz, in increasing
    order (two of them tie only on an axis with one cut, which has no
    links).  So with one slot per direction in that order, the nonzero
    slots taken in C order are each row's edges with sorted columns, and
    indptr is the cumulative count of a node's slots.
    """
    nx, ny, nz = shape
    n_nodes = nx * ny * nz
    k = 6 if both_ways else 3
    # Slots (-x, -y, -z) when both_ways, then (+z, +y, +x).
    mask = np.zeros(shape + (k,), dtype=bool)
    up = k - 3
    mask[:, :, :-1, up] = links[2]
    mask[:, :-1, :, up + 1] = links[1]
    mask[:-1, :, :, up + 2] = links[0]
    if both_ways:
        mask[1:, :, :, 0] = links[0]
        mask[:, 1:, :, 1] = links[1]
        mask[:, :, 1:, 2] = links[2]
    index = np.int32 if k * n_nodes < 2 ** 31 else np.int64
    offsets = np.array([-ny * nz, -nz, -1, 1, nz, ny * nz], dtype=index)[3 - up:]
    slot = np.flatnonzero(mask)
    node = slot // k
    indptr = np.zeros(n_nodes + 1, dtype=index)
    np.cumsum(np.bincount(node, minlength=n_nodes), out=indptr[1:])
    return slot, indptr, node.astype(index) + offsets[slot % k]


class GeodesicSolver:
    """Pairwise, batched and one-to-many L1 geodesic queries over one environment.

    :meth:`distance` answers one pair, :meth:`pair_distances` a batch of pairs
    and :meth:`distances_from` one source against many targets.  Each is a
    classification followed by a resolution (:meth:`distance` on a cache
    miss is a batch of one).  :meth:`classify` runs steps 1 and 2 below as
    numpy broadcasts over many pairs at a time and gives each pair a state:
    box-free, staircase-clear or grid stage.  :meth:`_settle` then resolves
    the pairs in order: it reads and writes the cache, and only
    the grid-stage pairs it finds no answer for take the per-pair path, the
    grid stage :meth:`_sigma` (steps 3 and 4).

    The classification may run early and in bulk: it is a pure function of
    the coordinates and the obstacles, symmetric in the pair, and it reads
    and writes no cache.  So a caller may compute it ahead of the queries,
    as the builder does, and pass it to :meth:`distances_from`; the values,
    the grid-stage calls and the cache, entry for entry and in insertion
    order, stay those of classifying call by call.

    Query strategy, cheapest first:

    1. no obstacle interior meets the closed box of the pair: distance is L1;
    2. one of the six three-leg staircases of the pair is free (one numpy
       broadcast, see :meth:`_staircase_clear`): distance is L1;
    3. several obstacles meet that box and a monotone staircase through it
       exists (a reachability search on the grid cut by the box-overlapping
       obstacles, see :func:`_monotone_clear`): distance is L1.  With one,
       step 2 is exact (the one-box lemma in :meth:`_staircase_clear`), so
       this step is skipped;
    4. Dijkstra on that same grid, then, if the resulting upper bound cannot
       rule out every other obstacle, a second run on the grid cut by all
       obstacles whose cheapest through-detour is within the bound.  The
       pruning is conservative: an optimal path touching an obstacle
       certifies a through-detour no longer than the optimum, so every
       obstacle an optimal path can touch keeps its cut planes.

    Results are cached per unordered pair of coordinate tuples, so the
    orientation asked first fixes the value for both.  :meth:`distance` and
    :meth:`pair_distances` cache every pair of distinct points they answer;
    :meth:`distances_from` caches only targets whose box meets an obstacle,
    so that the all-pairs stretch scan does not fill the cache with plain L1
    answers.  ``verify`` warms the cache with one :meth:`pair_distances` call
    over all via-point pairs, after which each via check reads its three
    distances from the cache.  Above L1 (step 4) the value depends on that
    orientation in the last bits: Dijkstra sums the steps of a path in
    travel order, so sigma(p, q) and sigma(q, p) can differ by an ulp, and
    two solvers that meet a pair in opposite orientations, such as the
    builder's and the verifier's, can disagree that much.
    """

    def __init__(self, env: Environment):
        self.obs_lo, self.obs_hi = env.obstacle_lo, env.obstacle_hi
        self._cache: dict[tuple, float] = {}

    def distance(self, p: Point3, q: Point3) -> float:
        a, b = p.as_tuple(), q.as_tuple()
        hit = self._cache.get(_pair_key(a, b))
        if hit is not None:
            return hit
        return float(self.pair_distances(np.array([a]), np.array([b]))[0])

    def pair_distances(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Geodesic distances of the pairs (S[k], T[k]), rows of (k, 3) arrays.

        Returns, and leaves in the cache, exactly what asking the pairs one
        at a time in input order would: the same values to the bit, the same
        cache entries, the orientation asked first fixing a repeated pair, and
        0.0 with no cache entry for equal endpoints.  One :meth:`classify`
        call covers all pairs; only the pairs it leaves to the grid stage go
        through :meth:`_sigma`.
        """
        S = np.asarray(S, dtype=float).reshape(-1, 3)
        T = np.asarray(T, dtype=float).reshape(-1, 3)
        out = np.abs(S - T).sum(axis=1)
        ask = np.nonzero((S != T).any(axis=1))[0]
        if len(ask):
            self._settle(S, T, out, ask, self.classify(S[ask], T[ask]))
        return out

    def distances_from(self, source: Point3 | np.ndarray,
                       targets: Sequence[Point3] | np.ndarray,
                       states: np.ndarray | None = None) -> np.ndarray:
        """Geodesic distances from one source, or one source row per target,
        to many targets.

        Source and targets are points or rows of coordinates.  states, when
        given, is :meth:`classify` of (source, targets), computed earlier.
        Box-free targets are answered with L1 and not cached, so a scan over
        all pairs does not fill the cache; the others are settled and cached
        as :meth:`pair_distances` settles them.

        One call with a source row per target returns, and leaves in the
        cache, what one call per row in the same order would: :meth:`_settle`
        resolves the rows in order either way, with each row's own source,
        and the keys, the L1 and the classification of a row do not depend
        on the other rows.  The builder asks its queries this way, many
        (pair, exit) queries per call, and so does the stretch scan, a block
        of rows of pairs per call.
        """
        s = np.array(source.as_tuple()) if isinstance(source, Point3) else np.asarray(source)
        pts = targets if isinstance(targets, np.ndarray) else points_array(targets)
        if s.ndim == 2 and len(s) != len(pts):
            raise ValueError(f"{len(s)} source rows for {len(pts)} targets")
        S = np.broadcast_to(s, pts.shape)
        out = np.abs(pts - S).sum(axis=1)
        if states is None:
            states = self.classify(S, pts)
        elif len(states) != len(pts):
            raise ValueError(f"{len(states)} states for {len(pts)} targets")
        ask = np.nonzero(states != BOX_FREE)[0]
        if len(ask):
            self._settle(S, pts, out, ask, states[ask])
        return out

    def classify(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """How each pair (S[k], T[k]) is settled: :data:`BOX_FREE`,
        :data:`STAIRCASE_CLEAR` or :data:`GRID_STAGE`, as an int8 array.

        S is one source row for all pairs, broadcast on entry, or one row per
        pair.  The box test runs on all pairs and the staircase broadcast on
        the box-meeting ones, each in chunks that bound its memory.  The
        state is a pure function of the coordinates and the obstacles,
        symmetric in (S, T): both tests compare only coordinates and their
        minima and maxima, and the six staircases from t to s are those from
        s to t walked backwards.  It reads and writes no cache, so classifying early, in
        bulk, changes no answer.
        """
        T = np.asarray(T, dtype=float).reshape(-1, 3)
        states = np.full(len(T), BOX_FREE, dtype=np.int8)
        if len(self.obs_lo) == 0 or len(T) == 0:
            return states
        S = np.broadcast_to(np.asarray(S, dtype=float), T.shape)
        meets = np.flatnonzero(self.meets_obstacles(np.minimum(S, T), np.maximum(S, T)))
        states[meets] = GRID_STAGE
        for start in range(0, len(meets), _STAIRCASE_CHUNK):
            rows = meets[start:start + _STAIRCASE_CHUNK]
            clear = self._staircase_clear(S[rows], T[rows])
            states[rows[clear]] = STAIRCASE_CLEAR
        return states

    def meets_obstacles(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Per closed box [blo[k], bhi[k]], whether some obstacle's open
        interior meets it; where none does, every geodesic between two points
        of the box is plain L1.  For a point, blo = bhi, it says whether the
        point lies strictly inside an obstacle.

        The boxes are tested in chunks whose temporaries hold at most
        _BOX_TEST_CHUNK (boxes x obstacles x 3) elements.
        """
        out = np.zeros(len(blo), dtype=bool)
        step = max(1, _BOX_TEST_CHUNK // (3 * max(len(self.obs_lo), 1)))
        for start in range(0, len(blo), step):
            lo, hi = blo[start:start + step], bhi[start:start + step]
            out[start:start + step] = ((self.obs_lo[:, None, :] < hi[None, :, :])
                                       & (self.obs_hi[:, None, :] > lo[None, :, :])
                                       ).all(axis=2).any(axis=0)
        return out

    # -- internals ---------------------------------------------------------

    def _overlapping(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Obstacles whose open interior meets the closed box [blo, bhi]."""
        mask = ((self.obs_lo < bhi) & (self.obs_hi > blo)).all(axis=1)
        return np.nonzero(mask)[0]

    def _settle(self, S: np.ndarray, T: np.ndarray, out: np.ndarray, ask: np.ndarray,
                states: np.ndarray) -> None:
        """Answer and cache the pairs ask of (S, T), in order.

        S holds one source row per pair, out holds each pair's L1 on entry,
        and states is :meth:`classify` of the asked pairs.  A box-free or
        staircase-clear pair is L1 in both orientations, so it is cached as
        L1 even when cached already: the value is the same.  Any other pair
        keeps its cached value or goes through the grid stage :meth:`_sigma`,
        in this orientation.

        The pairs are taken _STAIRCASE_CHUNK at a time, which bounds the
        memory of the Python rows made for the keys; a chunk's keys are made
        in one pass.  Each run of L1 pairs between two grid-stage pairs is
        written with one ``dict.update``, which writes its keys in the run's
        order, as one assignment per pair would, and every grid-stage pair
        is resolved after the run before it is written and before the run
        after it.  So the values and the cache, entry for entry and in
        insertion order, are those of resolving the pairs one at a time.
        """
        cache = self._cache
        # The keys share one tuple per distinct point.
        shared: dict[tuple, tuple] = {}
        for start in range(0, len(ask), _STAIRCASE_CHUNK):
            rows = ask[start:start + _STAIRCASE_CHUNK]
            keys = list(map(_pair_key,
                            [shared.setdefault(a, a) for a in map(tuple, S[rows].tolist())],
                            [shared.setdefault(b, b) for b in map(tuple, T[rows].tolist())]))
            l1 = out[rows].tolist()
            done = 0
            for g in np.flatnonzero(states[start:start + _STAIRCASE_CHUNK] == GRID_STAGE).tolist():
                cache.update(zip(keys[done:g], l1[done:g]))
                i, done = rows[g], g + 1
                d = cache.get(keys[g])
                if d is None:
                    d = cache[keys[g]] = self._sigma(S[i], T[i])
                out[i] = d
            cache.update(zip(keys[done:], l1[done:]))

    def _sigma(self, s: np.ndarray, t: np.ndarray) -> float:
        """Grid stage (steps 3 and 4) of one pair that :meth:`_settle` left
        open: its box meets an obstacle and all six staircases are blocked.

        The second grid keeps every obstacle whose computed through-detour
        is at most d1 * (1 + 1e-12).  In exact arithmetic the test would be
        detour <= D1, the exact length of d1's grid path, which keeps every
        obstacle an optimal path touches.  With u = 2**-53: d1 is a
        left-fold sum of the k steps of that path, each a rounded difference
        of two cut coordinates, so d1 >= D1 * (1 - k*u) to first order
        (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4); a
        detour sums six rounded nonnegative terms at most three additions
        deep, so it is within 4u of its exact value.  A detour <= D1 thus
        passes while (k + 4)u <= 1e-12, for paths of up to 9,000 grid steps.
        The slack is relative, and scaling by a power of two commutes with
        every rounding short of overflow and underflow, so the kept set, and
        with it the second grid, is the same at every such scale.

        The value is max(d2, l1) even where d1 < d2: the second grid can sum
        the same path in another order, 1-2 ulps above d1.  Returning
        min(d1, d2) would move those edge weights in the last bit, as
        canonicalizing the pair's orientation would; STRETCH_SLACK and
        VIA_SLACK cover 2 ulps.
        """
        l1 = float(np.abs(s - t).sum())
        over = self._overlapping(np.minimum(s, t), np.maximum(s, t))
        cuts, links, ends = self._grid(s, t, over)
        # With a single overlapping obstacle, the blocked staircases are exact
        # by the one-box lemma (see _staircase_clear): no monotone path exists.
        if len(over) > 1 and _monotone_clear(links, ends):
            return l1
        d1 = _grid_distance(cuts, links, ends)
        detours = self._min_detours(s, t)
        keep = np.nonzero(detours <= d1 * (1 + 1e-12))[0]
        if not np.setdiff1d(keep, over, assume_unique=False).size:
            return max(d1, l1)
        d2 = _grid_distance(*self._grid(s, t, keep))
        if not np.isfinite(d2):
            raise RuntimeError("geodesic query found no route; free space "
                               "amid disjoint bounded boxes is connected")
        return max(d2, l1)

    def _min_detours(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Per obstacle, the least L1 length of any s->t route touching it."""
        u = np.minimum(s, t)
        v = np.maximum(s, t)
        pen = 2.0 * np.maximum(0.0, np.maximum(u - self.obs_hi, self.obs_lo - v))
        return (v - u).sum() + pen.sum(axis=1)

    def _staircase_clear(self, s: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Per target, whether a three-leg staircase from s to it is free.

        s is one source row for all targets or one source row per target.

        The six staircases move the axes one at a time, in each of the 3!
        orders.  A leg is one axis-parallel segment; like a grid link, it is
        blocked iff some obstacle's open interior meets it, that is, its
        fixed coordinates lie strictly inside the obstacle and its moving
        range overlaps the obstacle's open interval.  All twelve distinct
        legs of all targets are tested against all obstacles in one
        broadcast.

        Exactness: a free staircase is a feasible path of length exactly L1,
        and no path is shorter, so "clear" proves sigma = L1.  "Not clear"
        is exact when one obstacle meets the pair's box (the lemma below);
        with several it proves nothing, and callers fall back to the grid
        test.

        One-box lemma, why the fallback is rare: between two free points, a
        single open box blocks every monotone path iff it strictly spans the
        pair's box on at least two axes; otherwise one of the six staircases
        avoids it.  If it spans x and y, s and t lie outside it, so its z
        range lies within the pair's and every monotone path crosses its
        middle z level inside it.  Otherwise some axis i has s_i outside the
        box's open interval and another axis j has t_j outside it: each of
        two unspanned axes has an endpoint coordinate outside, and when both
        belong to the same endpoint, the other endpoint is free, so it has
        one outside on the third axis.  Moving j first and i last keeps s_i
        fixed on the first two legs and t_j on the last two, so that
        staircase misses the box.  So the monotone grid runs only for pairs
        whose box meets several obstacles.
        """
        # Axis first, so that both reductions run over leading axes:
        # corners (3, 8, k), legs (3, 12, k), hits (3, obstacles, 12, k).
        corners = np.where(_CORNER_FROM_TARGET[:, :, None], pts.T[:, None, :],
                           s.reshape(-1, 3).T[:, None, :])
        a, b = corners[:, _LEG_START], corners[:, _LEG_END]
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        hit = ((self.obs_lo.T[:, :, None, None] < hi)
               & (self.obs_hi.T[:, :, None, None] > lo)).all(axis=0).any(axis=0)
        return (~hit)[_ORDERS].all(axis=1).any(axis=0)

    def _grid(self, s: np.ndarray, t: np.ndarray, cut_set: np.ndarray) -> tuple:
        """The grid cut by the faces of the given obstacles plus s and t, as
        (cuts, links, ends).  Links are tested against every obstacle, so each
        grid path is feasible; ends[axis] holds the indices of s and t on that axis."""
        cuts = tuple(np.unique(np.concatenate([[s[axis], t[axis]],
                                               self.obs_lo[cut_set, axis],
                                               self.obs_hi[cut_set, axis]]))
                     for axis in range(3))
        links = _grid_links(cuts, self.obs_lo, self.obs_hi)
        ends = np.array([np.searchsorted(c, (s[axis], t[axis])) for axis, c in enumerate(cuts)])
        return cuts, links, ends


def _grid_distance(cuts: tuple[np.ndarray, np.ndarray, np.ndarray], links: list[np.ndarray],
                   ends: np.ndarray) -> float:
    """Dijkstra distance from s to t on a grid of :meth:`GeodesicSolver._grid`:
    an upper bound on the geodesic distance, exact once the grid carries the
    faces of every obstacle an optimal path touches.

    The search runs directed on the symmetric graph, which spares scipy the
    transpose an undirected search makes on every call.  The value is that
    of an undirected search on the one-way graph, to the bit: the weights
    are at least 0 and rounding is monotone, so every left-fold sum along a
    path is at least that of its prefix, and Dijkstra's value at a node is
    the least left-fold sum over the paths to it, whatever order it relaxes
    the edges in.  Both searches see the same paths.
    """
    source, target = np.ravel_multi_index(ends, tuple(len(c) for c in cuts))
    dist = dijkstra(_grid_graph(cuts, links, both_ways=True), directed=True, indices=int(source))
    return float(dist[target])


def _monotone_clear(links: list[np.ndarray], ends: np.ndarray) -> bool:
    """Whether a monotone staircase from s to t avoids all obstacle interiors,
    on the links of the grid :meth:`GeodesicSolver._grid` cuts by the faces of
    the obstacles that overlap the pair's box.

    The test is a breadth-first search on the sub-grid between s and t, each
    axis reversed where s > t, so that every link points away from s.  The
    search reads no weights, so the graph is only :func:`_grid_pattern`'s
    links, with no step lengths.  It is
    exact because any monotone avoiding path stays in the pair's closed box
    and can be slid onto the planes of s, t and the overlapping obstacles'
    faces clipped to that box, and:

    - the sub-grid holds exactly those cut values;
    - no obstacle outside the overlapping ones has an open interior that
      meets the pair's closed box, so inside it the links, tested against
      every obstacle, are those of the overlapping obstacles alone.
    """
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    flip = tuple(slice(None, None, -1 if i > j else 1) for i, j in ends)
    sub = [links[axis][tuple(slice(lo[a], hi[a] + (a != axis)) for a in range(3))][flip]
           for axis in range(3)]
    _, indptr, indices = _grid_pattern(tuple(hi - lo + 1), sub, both_ways=False)
    n_nodes = len(indptr) - 1
    graph = csr_matrix((np.ones(len(indices)), indices, indptr),
                       shape=(n_nodes, n_nodes))
    return n_nodes - 1 in breadth_first_order(graph, 0, directed=True,
                                              return_predecessors=False)


def oracle_fine_grid_distance(env: Environment, p: Point3, q: Point3,
                              resolution: float) -> float:
    """Validation oracle: shortest-path distance over a uniform lattice.

    The lattice consists of all integer multiples of ``resolution`` covering
    the instance bounding box padded by the largest obstacle extent, plus the
    coordinate planes of p and q so both are lattice nodes.  Nodes inside
    obstacle interiors are dropped and 6-neighbor links crossing an interior
    are dropped, so every lattice path is feasible and the result is always
    an upper bound on the true geodesic distance; halving the resolution
    refines the lattice, so the bound is non-increasing.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    corners: list[tuple[float, float, float]] = [p.as_tuple(), q.as_tuple()]
    corners += [pt.as_tuple() for pt in env.points]
    for box in env.obstacles:
        corners.append(box.lo.as_tuple())
        corners.append(box.hi.as_tuple())
    arr = np.array(corners)
    pad = max((max(box.sides()) for box in env.obstacles), default=0.0)
    lo_bound = arr.min(axis=0) - pad
    hi_bound = arr.max(axis=0) + pad

    axis_values = []
    for axis in range(3):
        k0 = int(np.ceil(lo_bound[axis] / resolution))
        k1 = int(np.floor(hi_bound[axis] / resolution))
        vals = np.arange(k0, k1 + 1, dtype=float) * resolution
        vals = np.unique(np.concatenate([vals, [p.coord(axis), q.coord(axis)]]))
        axis_values.append(vals)
    vx, vy, vz = axis_values
    n_nodes = len(vx) * len(vy) * len(vz)
    if n_nodes > NODE_CAP:
        raise GridTooLargeError(f"lattice needs {n_nodes} nodes, cap is {NODE_CAP}")

    open_node = np.ones((len(vx), len(vy), len(vz)), dtype=bool)
    for box in env.obstacles:
        mx = (vx > box.lo.x) & (vx < box.hi.x)
        my = (vy > box.lo.y) & (vy < box.hi.y)
        mz = (vz > box.lo.z) & (vz < box.hi.z)
        open_node[np.ix_(mx, my, mz)] = False

    def link_open(axis: int) -> np.ndarray:
        vals = axis_values[axis]
        shape = [len(vx), len(vy), len(vz)]
        shape[axis] -= 1
        ok = np.ones(shape, dtype=bool)
        for box in env.obstacles:
            lo_t = (box.lo.x, box.lo.y, box.lo.z)
            hi_t = (box.hi.x, box.hi.y, box.hi.z)
            crossing = (vals[:-1] < hi_t[axis]) & (vals[1:] > lo_t[axis])
            masks = []
            for other in range(3):
                if other == axis:
                    masks.append(crossing)
                else:
                    ov = axis_values[other]
                    masks.append((ov > lo_t[other]) & (ov < hi_t[other]))
            ok[np.ix_(*masks)] = False
        head = [slice(None)] * 3
        head[axis] = slice(None, -1)
        tail = [slice(None)] * 3
        tail[axis] = slice(1, None)
        return ok & open_node[tuple(head)] & open_node[tuple(tail)]

    links = [link_open(axis) for axis in range(3)]
    graph = _grid_csr((vx, vy, vz), links)
    ny, nz = len(vy), len(vz)

    def node_id(pt: Point3) -> int:
        idx = [int(np.searchsorted(axis_values[axis], pt.coord(axis))) for axis in range(3)]
        return (idx[0] * ny + idx[1]) * nz + idx[2]

    dist = dijkstra(graph, directed=False, indices=node_id(p))
    d = float(dist[node_id(q)])
    if not np.isfinite(d):
        raise RuntimeError("oracle lattice found no route; increase padding or resolution")
    return d
