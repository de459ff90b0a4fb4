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
from scipy.sparse.csgraph import dijkstra

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
# (obstacles x 3 x boxes) elements, at most _BOX_TEST_CHUNK of them; the
# staircase test of a chunk of _STAIRCASE_CHUNK pairs hands the box test
# twelve legs per pair.
_BOX_TEST_CHUNK = 1 << 18
_STAIRCASE_CHUNK = 64


def _l1(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """L1 distances of the rows S and T, (k, 3) arrays or single rows, with
    |dx|, |dy| and |dz| added in that order, column by column: the bits of
    np.abs(S - T).sum(axis=-1), which sums a row of three as ((a + b) + c),
    with |a - b| = |b - a| = max - min exactly.  The package's one L1 of
    coordinate rows; the grid stage returns it or max(d, it), so sigma >= it
    to the bit."""
    out = np.abs(S[..., 0] - T[..., 0])
    out += np.abs(S[..., 1] - T[..., 1])
    out += np.abs(S[..., 2] - T[..., 2])
    return out


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


def _grid_graph(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
                links: list[np.ndarray]) -> csr_matrix:
    """The grid graph: per link, one edge each way between its two nodes
    (numbered in C order), weighted by the link's length.

    The CSR arrays are made directly.  A node u's neighbors along the links
    are u - ny*nz, u - nz, u - 1, u + 1, u + nz and u + ny*nz, in increasing
    order (two of them tie only on an axis with one cut, which has no
    links).  So with one slot per direction in that order, the slots that
    hold a link, taken in C order, are each row's edges with sorted columns:
    indices is the neighbor array at those slots, data the weight array at
    those slots, and indptr the cumulative count of a node's link slots.
    """
    nx, ny, nz = shape = tuple(len(c) for c in cuts)
    n_nodes = nx * ny * nz
    # Slots (-x, -y, -z, +z, +y, +x).
    mask = np.zeros(shape + (6,), dtype=bool)
    weight = np.zeros(shape + (6,))
    mask[1:, :, :, 0] = mask[:-1, :, :, 5] = links[0]
    mask[:, 1:, :, 1] = mask[:, :-1, :, 4] = links[1]
    mask[:, :, 1:, 2] = mask[:, :, :-1, 3] = links[2]
    weight[1:, :, :, 0] = weight[:-1, :, :, 5] = np.diff(cuts[0])[:, None, None]
    weight[:, 1:, :, 1] = weight[:, :-1, :, 4] = np.diff(cuts[1])[:, None]
    weight[:, :, 1:, 2] = weight[:, :, :-1, 3] = np.diff(cuts[2])
    index = np.int32 if 6 * n_nodes < 2 ** 31 else np.int64
    offsets = np.array([-ny * nz, -nz, -1, 1, nz, ny * nz], dtype=index)
    indptr = np.zeros(n_nodes + 1, dtype=index)
    np.cumsum(mask.reshape(n_nodes, 6).sum(axis=1, dtype=index), out=indptr[1:])
    slot = mask.reshape(-1)
    neighbor = np.arange(n_nodes, dtype=index)[:, None] + offsets
    return csr_matrix((weight.reshape(-1)[slot], neighbor.reshape(-1)[slot], indptr),
                      shape=(n_nodes, n_nodes))


class GeodesicSolver:
    """Pairwise, batched and one-to-many L1 geodesic queries over one environment.

    :meth:`distance` answers one pair, :meth:`pair_distances` a batch of pairs
    and :meth:`distances_from` one source against many targets.  Each is a
    classification followed by a resolution (:meth:`distance` on a cache
    miss is a batch of one).  :meth:`classify` runs steps 1 and 2 below as
    numpy broadcasts over many pairs at a time and marks the pairs that
    neither settles: the grid-stage pairs.  :meth:`_settle` then resolves
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
    2. one of the six three-leg staircases of the pair is free (its legs
       through the box test, see :meth:`_staircase_clear`): distance is L1;
    3. several obstacles meet that box and a monotone staircase through it
       exists (a sweep of the link masks of the grid cut by the
       box-overlapping obstacles, see :func:`_monotone_clear`; no graph is
       built): distance is L1.  With one, step 2 is exact (the one-box
       lemma in :meth:`_staircase_clear`), so this step is skipped;
    4. Dijkstra on the symmetric graph of that same grid, then, if the
       resulting upper bound cannot rule out every other obstacle, a second
       run on the grid cut by all obstacles whose cheapest through-detour is
       within the bound.  The pruning is conservative: an optimal path
       touching an obstacle certifies a through-detour no longer than the
       optimum, so every obstacle an optimal path can touch keeps its cut
       planes.

    Results are cached per unordered pair of coordinate tuples, so the
    orientation asked first fixes the value for both.  :meth:`distance` and
    :meth:`pair_distances` cache every pair of distinct points they answer;
    :meth:`distances_from` caches only its grid-stage answers, the only ones
    it reads back: a pair that steps 1 or 2 settle is L1 in both
    orientations and classifies the same each time, and :meth:`_settle`
    looks the cache up only for grid-stage pairs.  So a build or a stretch
    scan on a fresh solver leaves one entry per grid-stage run, and only
    :meth:`distance` reads an L1 entry.  ``verify`` warms the cache with one
    :meth:`pair_distances` call over all via-point pairs, after which each
    via check reads its three distances from the cache.  Above L1 (step 4)
    the value depends on that orientation in the last bits: Dijkstra sums
    the steps of a path in travel order, so sigma(p, q) and sigma(q, p) can
    differ by an ulp, and two solvers that meet a pair in opposite
    orientations, such as the builder's and the verifier's, can disagree
    that much.

    ``grid_stage_runs`` counts the pairs this solver has sent through the
    grid stage, cache misses only.
    """

    def __init__(self, env: Environment):
        self.obs_lo, self.obs_hi = env.obstacle_lo, env.obstacle_hi
        self._cache: dict[tuple, float] = {}
        self.grid_stage_runs = 0

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
        if len(S) != len(T):
            raise ValueError(f"{len(S)} source rows for {len(T)} targets")
        out = _l1(S, T)
        ask = np.nonzero((S != T).any(axis=1))[0]
        if len(ask):
            self._settle(S, T, out, ask, self.classify(S[ask], T[ask]))
        return out

    def distances_from(self, source: Point3 | np.ndarray,
                       targets: Sequence[Point3] | np.ndarray,
                       grid: np.ndarray | None = None) -> np.ndarray:
        """Geodesic distances from one source, or one source row per target,
        to many targets.

        Source and targets are points or rows of coordinates.  grid, when
        given, is :meth:`classify` of (source, targets), computed earlier.
        Grid-stage targets are settled and cached as :meth:`pair_distances`
        settles them; the others are answered with L1 and not cached.

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
        out = _l1(S, pts)
        if grid is None:
            grid = self.classify(S, pts)
        elif len(grid) != len(pts):
            raise ValueError(f"{len(grid)} grid flags for {len(pts)} targets")
        ask = np.flatnonzero(grid)
        if len(ask):
            self._settle(S, pts, out, ask, grid[ask])
        return out

    def classify(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Whether each pair (S[k], T[k]) needs the grid stage, as a bool
        array: its closed box meets an obstacle interior (step 1) and all six
        three-leg staircases are blocked (step 2).  Every other pair is L1.

        S is one source row for all pairs, broadcast on entry, or one row per
        pair.  The box test runs on all pairs and the staircase broadcast on
        the box-meeting ones, each in chunks that bound its memory.  The
        mask is a pure function of the coordinates and the obstacles,
        symmetric in (S, T): both tests compare only coordinates and their
        minima and maxima, and the six staircases from t to s are those from
        s to t walked backwards.  It reads and writes no cache, so classifying early, in
        bulk, changes no answer.
        """
        T = np.asarray(T, dtype=float).reshape(-1, 3)
        grid = np.zeros(len(T), dtype=bool)
        if len(self.obs_lo) == 0 or len(T) == 0:
            return grid
        S = np.broadcast_to(np.asarray(S, dtype=float), T.shape)
        meets = np.flatnonzero(self.meets_obstacles(np.minimum(S, T), np.maximum(S, T)))
        for start in range(0, len(meets), _STAIRCASE_CHUNK):
            rows = meets[start:start + _STAIRCASE_CHUNK]
            grid[rows] = ~self._staircase_clear(S[rows], T[rows])
        return grid

    def meets_obstacles(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Per closed box [blo[k], bhi[k]], whether some obstacle's open
        interior meets it; where none does, every geodesic between two points
        of the box is plain L1.  For a point, blo = bhi, it says whether the
        point lies strictly inside an obstacle.

        blo and bhi are (k, 3) rows in any layout; each chunk is copied axis
        first, (3, k), so its temporaries, at most _BOX_TEST_CHUNK (obstacles
        x 3 x boxes) elements, reduce over the axis of length 3.
        """
        out = np.zeros(len(blo), dtype=bool)
        obs_lo, obs_hi = self.obs_lo[:, :, None], self.obs_hi[:, :, None]
        step = max(1, _BOX_TEST_CHUNK // (3 * max(len(obs_lo), 1)))
        for start in range(0, len(blo), step):
            lo, hi = (np.ascontiguousarray(b[start:start + step].T) for b in (blo, bhi))
            out[start:start + step] = ((obs_lo < hi) & (obs_hi > lo)).all(axis=1).any(axis=0)
        return out

    # -- internals ---------------------------------------------------------

    def _overlapping(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Obstacles whose open interior meets the closed box [blo, bhi]."""
        mask = ((self.obs_lo < bhi) & (self.obs_hi > blo)).all(axis=1)
        return np.nonzero(mask)[0]

    def _settle(self, S: np.ndarray, T: np.ndarray, out: np.ndarray, ask: np.ndarray,
                grid: np.ndarray) -> None:
        """Answer and cache the pairs ask of (S, T), in order.

        S holds one source row per pair, out holds each pair's L1 on entry,
        and grid is :meth:`classify` of the asked pairs.  A pair outside the
        grid stage is L1 in both orientations, so it is cached as L1 even
        when cached already: the value is the same.  A grid-stage pair keeps
        its cached value or goes through :meth:`_sigma`, in this orientation.

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
            for g in np.flatnonzero(grid[start:start + _STAIRCASE_CHUNK]).tolist():
                cache.update(zip(keys[done:g], l1[done:g]))
                i, done = rows[g], g + 1
                d = cache.get(keys[g])
                if d is None:
                    d = cache[keys[g]] = self._sigma(S[i], T[i])
                    self.grid_stage_runs += 1
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
        l1 = float(_l1(s, t))
        over = self._overlapping(np.minimum(s, t), np.maximum(s, t))
        cuts, links, ends = self._grid(s, t, over)
        # With a single overlapping obstacle, the blocked staircases are exact
        # by the one-box lemma (see _staircase_clear): no monotone path exists.
        if len(over) > 1 and _monotone_clear(links, ends):
            return l1
        d1 = _grid_distance(cuts, links, ends)
        detours = self._min_detours(s, t)
        kept = detours <= d1 * (1 + 1e-12)
        if np.count_nonzero(kept) == np.count_nonzero(kept[over]):
            return max(d1, l1)  # every kept obstacle already cuts the first grid
        d2 = _grid_distance(*self._grid(s, t, np.flatnonzero(kept)))
        if not np.isfinite(d2):
            raise RuntimeError("geodesic query found no route; free space "
                               "amid disjoint bounded boxes is connected")
        return max(d2, l1)

    def _min_detours(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Per obstacle, the least L1 length of any s->t route touching it."""
        u, v = np.minimum(s, t), np.maximum(s, t)
        pen = 2.0 * np.maximum(0.0, np.maximum(u - self.obs_hi, self.obs_lo - v))
        return _l1(s, t) + pen.sum(axis=1)

    def _staircase_clear(self, s: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Per target, whether a three-leg staircase from s to it is free.

        s is one source row for all targets or one source row per target.

        The six staircases move the axes one at a time, in each of the 3!
        orders.  A leg is one axis-parallel segment; like a grid link, it is
        blocked iff some obstacle's open interior meets it, that is, its
        fixed coordinates lie strictly inside the obstacle and its moving
        range overlaps the obstacle's open interval.  All twelve distinct
        legs of all targets go through :meth:`meets_obstacles` at once, as
        degenerate boxes.

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
        corners = np.where(_CORNER_FROM_TARGET[:, :, None], pts.T[:, None, :],
                           s.reshape(-1, 3).T[:, None, :])
        a, b = corners[:, _LEG_START], corners[:, _LEG_END]
        hit = self.meets_obstacles(np.minimum(a, b).reshape(3, -1).T,
                                   np.maximum(a, b).reshape(3, -1).T).reshape(len(_LEGS), -1)
        return (~hit)[_ORDERS].all(axis=1).any(axis=0)

    def _grid(self, s: np.ndarray, t: np.ndarray, cut_set: np.ndarray) -> tuple:
        """The grid cut by the faces of the given obstacles plus s and t, as
        (cuts, links, ends).  Links are tested against every obstacle, so each
        grid path is feasible; ends[axis] holds the indices of s and t on that axis.

        One sort of the stacked cut values, all three axes at once, gives each
        axis its distinct values in order, the first of each run of equal
        ones; where -0.0 and 0.0 meet, either may stay, and no step, link or
        end index tells them apart."""
        values = np.sort(np.concatenate([[s, t], self.obs_lo[cut_set], self.obs_hi[cut_set]]),
                         axis=0)
        fresh = np.ones(values.shape, dtype=bool)
        fresh[1:] = values[1:] != values[:-1]
        cuts = tuple(values[fresh[:, axis], axis] for axis in range(3))
        links = _grid_links(cuts, self.obs_lo, self.obs_hi)
        ends = np.array([np.searchsorted(c, (s[axis], t[axis])) for axis, c in enumerate(cuts)])
        return cuts, links, ends


def _grid_distance(cuts: tuple[np.ndarray, np.ndarray, np.ndarray], links: list[np.ndarray],
                   ends: np.ndarray) -> float:
    """Dijkstra distance from s to t on a grid of :meth:`GeodesicSolver._grid`:
    an upper bound on the geodesic distance, exact once the grid carries the
    faces of every obstacle an optimal path touches.

    The search runs directed on the symmetric graph of :func:`_grid_graph`,
    which spares scipy the transpose an undirected search makes on every
    call.  The value is that of an undirected search on a graph with one edge
    per link, to the bit: the weights are at least 0 and rounding is
    monotone, so every left-fold sum along a path is at least that of its
    prefix, and Dijkstra's value at a node is the least left-fold sum over
    the paths to it, whatever order it relaxes the edges in.  Both searches
    see the same paths.  The lattice oracle searches its lattice here too.
    """
    source, target = np.ravel_multi_index(ends, tuple(len(c) for c in cuts))
    dist = dijkstra(_grid_graph(cuts, links), directed=True, indices=int(source))
    return float(dist[target])


def _monotone_clear(links: list[np.ndarray], ends: np.ndarray) -> bool:
    """Whether a monotone staircase from s to t avoids all obstacle interiors,
    on the links of the grid :meth:`GeodesicSolver._grid` cuts by the faces of
    the obstacles that overlap the pair's box.

    The test runs on the sub-grid between s and t, each axis reversed where
    s > t, so that every link points away from s, and it reads only the link
    masks.  Per axis, the nodes of a line are numbered by runs of
    consecutive links, from 1 and never decreasing along the line, so that
    two nodes of a line share a run number iff the links between them are
    all present (the numbers fit int32, as the grid is under NODE_CAP
    nodes).  From the s corner, a sweep along an axis reaches every node
    that some reached node of its run lies at or before: there the running
    maximum of the reached nodes' run numbers equals the node's own.  The
    sweeps go round the three axes until t is reached or a full round adds
    no node.  That fixed point is exactly the set of nodes a path moving
    away from s on every axis reaches.  The test is exact
    because any monotone avoiding path stays in the pair's closed box and
    can be slid onto the planes of s, t and the overlapping obstacles' faces
    clipped to that box, and:

    - the sub-grid holds exactly those cut values;
    - no obstacle outside the overlapping ones has an open interior that
      meets the pair's closed box, so inside it the links, tested against
      every obstacle, are those of the overlapping obstacles alone.
    """
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    flip = tuple(slice(None, None, -1 if i > j else 1) for i, j in ends)
    sub = [links[axis][tuple(slice(lo[a], hi[a] + (a != axis)) for a in range(3))][flip]
           for axis in range(3)]
    shape = tuple(hi - lo + 1)
    runs = []
    for axis, link in enumerate(sub):
        run = np.ones(shape, dtype=np.int32)
        run[(slice(None),) * axis + (slice(1, None),)] = ~link
        runs.append(np.cumsum(run, axis=axis, out=run))
    reach = np.zeros(shape, dtype=bool)
    reach[0, 0, 0] = True
    count = 1
    while True:
        for axis, run in enumerate(runs):
            reach = np.maximum.accumulate(np.where(reach, run, 0), axis=axis) == run
            if reach[-1, -1, -1]:
                return True
        grown = np.count_nonzero(reach)
        if grown == count:
            return False
        count = grown


def oracle_fine_grid_distance(env: Environment, p: Point3, q: Point3,
                              resolution: float) -> float:
    """Validation oracle: shortest-path distance over a uniform lattice.

    The lattice consists of all integer multiples of ``resolution`` covering
    the instance bounding box padded by the largest obstacle extent, plus the
    coordinate planes of p and q so both are lattice nodes.  Nodes inside
    obstacle interiors are dropped and 6-neighbor links crossing an interior
    are dropped, so every lattice path is feasible and the result is always
    an upper bound on the true geodesic distance; halving the resolution
    refines the lattice, so the bound is non-increasing.  The lattice, its
    nodes and its links are the oracle's own; the search is the engine's
    :func:`_grid_distance`.
    """
    if not 0 < resolution < np.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
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
    ends = np.array([np.searchsorted(vals, (p.coord(axis), q.coord(axis)))
                     for axis, vals in enumerate(axis_values)])
    d = _grid_distance((vx, vy, vz), links, ends)
    if not np.isfinite(d):
        raise RuntimeError("oracle lattice found no route; increase padding or resolution")
    return d
