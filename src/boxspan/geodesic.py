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


class GridTooLargeError(RuntimeError):
    """Raised when a grid would exceed :data:`NODE_CAP` nodes."""


def _grid_links(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
                obs_lo: np.ndarray, obs_hi: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Node validity and per-axis link arrays for a tensor grid.

    A node is valid unless strictly inside some obstacle.  A link between
    consecutive grid neighbors exists iff both endpoints are valid and the
    open segment between them misses every obstacle's open interior: the two
    fixed coordinates strictly inside, the moving range strictly overlapping.
    """
    cx, cy, cz = cuts
    shape = (len(cx), len(cy), len(cz))
    n_nodes = shape[0] * shape[1] * shape[2]
    if n_nodes > NODE_CAP:
        raise GridTooLargeError(f"grid needs {n_nodes} nodes, cap is {NODE_CAP}")

    # Index ranges of cut values strictly inside an obstacle's open interval.
    def strict(c: np.ndarray, lo_v: float, hi_v: float) -> slice:
        return slice(np.searchsorted(c, lo_v, side="right"),
                     np.searchsorted(c, hi_v, side="left"))

    inside = np.zeros(shape, dtype=bool)
    for k in range(len(obs_lo)):
        inside[strict(cx, obs_lo[k, 0], obs_hi[k, 0]),
               strict(cy, obs_lo[k, 1], obs_hi[k, 1]),
               strict(cz, obs_lo[k, 2], obs_hi[k, 2])] = True
    valid = ~inside

    links: list[np.ndarray] = []
    all_cuts = (cx, cy, cz)
    for axis in range(3):
        c = all_cuts[axis]
        blocked = np.zeros([len(v) - 1 if a == axis else len(v)
                            for a, v in enumerate(all_cuts)], dtype=bool)
        for k in range(len(obs_lo)):
            # segment c[i]..c[i+1] overlaps (lo, hi) iff c[i] < hi and c[i+1] > lo
            i0 = max(np.searchsorted(c, obs_lo[k, axis], side="right") - 1, 0)
            i1 = np.searchsorted(c, obs_hi[k, axis], side="left")
            region: list[slice] = [slice(None)] * 3
            region[axis] = slice(i0, i1)
            for other in range(3):
                if other == axis:
                    continue
                region[other] = strict(all_cuts[other], obs_lo[k, other], obs_hi[k, other])
            blocked[tuple(region)] = True
        head: list[slice] = [slice(None)] * 3
        head[axis] = slice(None, -1)
        tail: list[slice] = [slice(None)] * 3
        tail[axis] = slice(1, None)
        links.append(valid[tuple(head)] & valid[tuple(tail)] & ~blocked)
    return valid, links


def _grid_csr(cuts: tuple[np.ndarray, np.ndarray, np.ndarray],
              links: list[np.ndarray]) -> csr_matrix:
    cx, cy, cz = cuts
    ny, nz = len(cy), len(cz)
    n_nodes = len(cx) * ny * nz

    def node_id(i, j, k):
        return (i * ny + j) * nz + k

    rows, cols, weights = [], [], []
    steps = (np.diff(cx), np.diff(cy), np.diff(cz))
    for axis in range(3):
        i, j, k = np.nonzero(links[axis])
        if len(i) == 0:
            continue
        u = node_id(i, j, k)
        if axis == 0:
            v = node_id(i + 1, j, k)
            w = steps[0][i]
        elif axis == 1:
            v = node_id(i, j + 1, k)
            w = steps[1][j]
        else:
            v = node_id(i, j, k + 1)
            w = steps[2][k]
        rows.append(u)
        cols.append(v)
        weights.append(w)
    if rows:
        data = np.concatenate(weights)
        graph = csr_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                           shape=(n_nodes, n_nodes))
    else:
        graph = csr_matrix((n_nodes, n_nodes))
    return graph


class GeodesicSolver:
    """Pairwise and one-to-many L1 geodesic queries over one environment.

    Query strategy, cheapest first:

    1. no obstacle interior meets the closed box of the pair: distance is L1;
    2. one of the six three-leg staircases of the pair is free (one numpy
       broadcast, see :meth:`_staircase_clear`): distance is L1;
    3. several obstacles meet that box and a monotone staircase through it
       exists (grid DP): distance is L1.  With one, step 2 is exact (the
       one-box lemma in :meth:`_staircase_clear`), so this step is skipped;
    4. Dijkstra on the grid cut by the box-overlapping obstacles, then, if the
       resulting upper bound cannot rule out every other obstacle, a second
       run cut by all obstacles whose cheapest through-detour is within the
       bound.  The pruning is conservative: an optimal path touching an
       obstacle certifies a through-detour no longer than the optimum, so
       every obstacle an optimal path can touch keeps its cut planes.

    Results are cached per unordered pair, so the orientation asked first
    fixes the value for both.  Above L1 (step 4) the value depends on that
    orientation in the last bits: Dijkstra sums the steps of a path in
    travel order, so sigma(p, q) and sigma(q, p) can differ by an ulp, and
    two solvers that meet a pair in opposite orientations, such as the
    builder's and the verifier's, can disagree that much.
    """

    def __init__(self, env: Environment):
        self.obs_lo = points_array([box.lo for box in env.obstacles])
        self.obs_hi = points_array([box.hi for box in env.obstacles])
        self._point_ids = {p: i for i, p in enumerate(env.points)}
        self._cache: dict[tuple, float] = {}

    def _key(self, p: Point3, q: Point3):
        a = self._point_ids.get(p, p.as_tuple())
        b = self._point_ids.get(q, q.as_tuple())
        ka = (0, a) if isinstance(a, int) else (1, a)
        kb = (0, b) if isinstance(b, int) else (1, b)
        return (ka, kb) if ka <= kb else (kb, ka)

    def distance(self, p: Point3, q: Point3) -> float:
        if p == q:
            return 0.0
        key = self._key(p, q)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        s = np.array(p.as_tuple())
        t = np.array(q.as_tuple())
        d = self._sigma(s, t)
        self._cache[key] = d
        return d

    def distances_from(self, source: Point3, targets: Sequence[Point3]) -> np.ndarray:
        """Geodesic distances from one source to many targets.

        Targets whose box meets an obstacle are first put to one
        :meth:`_staircase_clear` broadcast; only those it cannot settle go
        through :meth:`distance`.  Either way their answers are cached, as
        :meth:`distance` caches them.
        """
        m = len(self.obs_lo)
        s = np.array(source.as_tuple())
        pts = points_array(targets)
        out = np.abs(pts - s).sum(axis=1)
        if m == 0 or len(targets) == 0:
            return out
        ask = np.nonzero(self.meets_obstacles(np.minimum(pts, s), np.maximum(pts, s)))[0]
        if len(ask) == 0:
            return out
        clear = self._staircase_clear(s, pts[ask])
        for i, settled in zip(ask.tolist(), clear.tolist()):
            if settled:
                self._cache[self._key(source, targets[i])] = float(out[i])
            else:
                out[i] = self.distance(source, targets[i])
        return out

    def meets_obstacles(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Per closed box [blo[k], bhi[k]], whether some obstacle's open
        interior meets it; where none does, every geodesic between two points
        of the box is plain L1."""
        return ((self.obs_lo[:, None, :] < bhi[None, :, :])
                & (self.obs_hi[:, None, :] > blo[None, :, :])).all(axis=2).any(axis=0)

    # -- internals ---------------------------------------------------------

    def _overlapping(self, blo: np.ndarray, bhi: np.ndarray) -> np.ndarray:
        """Obstacles whose open interior meets the closed box [blo, bhi]."""
        mask = ((self.obs_lo < bhi) & (self.obs_hi > blo)).all(axis=1)
        return np.nonzero(mask)[0]

    def _sigma(self, s: np.ndarray, t: np.ndarray) -> float:
        l1 = float(np.abs(s - t).sum())
        blo = np.minimum(s, t)
        bhi = np.maximum(s, t)
        over = self._overlapping(blo, bhi)
        if len(over) == 0:
            return l1
        # With a single overlapping obstacle, "not clear" is exact by the
        # one-box lemma (see _staircase_clear): no monotone path exists.
        if (self._staircase_clear(s, t[None, :])[0]
                or len(over) > 1 and self._monotone_clear(s, t, over)):
            return l1
        d1 = self._grid_sigma(s, t, over)
        detours = self._min_detours(s, t)
        keep = np.nonzero(detours <= d1 + 1e-12)[0]
        if not np.setdiff1d(keep, over, assume_unique=False).size:
            return max(d1, l1)
        d2 = self._grid_sigma(s, t, keep)
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
                           s[:, None, None])
        a, b = corners[:, _LEG_START], corners[:, _LEG_END]
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        hit = ((self.obs_lo.T[:, :, None, None] < hi)
               & (self.obs_hi.T[:, :, None, None] > lo)).all(axis=0).any(axis=0)
        return (~hit)[_ORDERS].all(axis=1).any(axis=0)

    def _monotone_clear(self, s: np.ndarray, t: np.ndarray, over: np.ndarray) -> bool:
        """Whether a monotone staircase from s to t avoids all obstacle interiors.

        Works on the grid cut by the overlapping obstacles' faces clipped to
        the box of s and t; any monotone avoiding path can be slid onto it.
        """
        flip = s > t
        sgn = np.where(flip, -1.0, 1.0)
        a = s * sgn
        b = t * sgn
        lo = np.where(flip, -self.obs_hi[over], self.obs_lo[over])
        hi = np.where(flip, -self.obs_lo[over], self.obs_hi[over])
        cuts = []
        for axis in range(3):
            vals = np.concatenate([[a[axis], b[axis]],
                                   np.clip(lo[:, axis], a[axis], b[axis]),
                                   np.clip(hi[:, axis], a[axis], b[axis])])
            cuts.append(np.unique(vals))
        valid, links = _grid_links(tuple(cuts), lo, hi)
        reach = np.zeros(valid.shape, dtype=bool)
        if not valid[0, 0, 0]:
            return False
        reach[0, 0, 0] = True
        while True:
            grew = reach.copy()
            grew[1:, :, :] |= reach[:-1, :, :] & links[0]
            grew[:, 1:, :] |= reach[:, :-1, :] & links[1]
            grew[:, :, 1:] |= reach[:, :, :-1] & links[2]
            if grew[-1, -1, -1]:
                return True
            if np.array_equal(grew, reach):
                return False
            reach = grew

    def _grid_sigma(self, s: np.ndarray, t: np.ndarray, cut_set: np.ndarray) -> float:
        """Dijkstra distance on the grid cut by the given obstacles plus s, t.

        Links are tested against every obstacle, so the result is always the
        length of a genuinely feasible path (an upper bound on the geodesic
        distance; exact once cut_set covers all obstacles an optimal path
        touches).
        """
        cuts = []
        for axis in range(3):
            vals = np.concatenate([[s[axis], t[axis]],
                                   self.obs_lo[cut_set, axis],
                                   self.obs_hi[cut_set, axis]])
            cuts.append(np.unique(vals))
        cuts = tuple(cuts)
        _, links = _grid_links(cuts, self.obs_lo, self.obs_hi)
        graph = _grid_csr(cuts, links)
        ny, nz = len(cuts[1]), len(cuts[2])

        def node_id(pt: np.ndarray) -> int:
            idx = [int(np.searchsorted(cuts[axis], pt[axis])) for axis in range(3)]
            return (idx[0] * ny + idx[1]) * nz + idx[2]

        dist = dijkstra(graph, directed=False, indices=node_id(s))
        return float(dist[node_id(t)])


def geodesic_distance(env: Environment, p: Point3, q: Point3) -> float:
    """L1 geodesic distance between two points outside obstacle interiors."""
    for box in env.obstacles:
        if box.contains_interior(p) or box.contains_interior(q):
            raise ValueError("query points must lie outside obstacle interiors")
    return GeodesicSolver(env).distance(p, q)


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
