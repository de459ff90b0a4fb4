"""Cone-separated pair decompositions over the four octant cones above the xy-plane.

Each canonical cone is an octant with a sign for x and for y and positive z.
Direction ties are broken combinatorially, never numerically: on a tied
coordinate, the point that is smaller in the lexicographic (z, y, x, index)
order counts as the lower end.  This makes the eight signed octants an exact
partition of all ordered point pairs, which the decomposition's uniqueness
guarantee requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import Point3, points_array


@dataclass(frozen=True, slots=True)
class ConeId:
    """Sign pattern of one canonical cone: sx, sy in {+1, -1}, z always +."""

    sx: int
    sy: int

    def __post_init__(self) -> None:
        if self.sx not in (-1, 1) or self.sy not in (-1, 1):
            raise ValueError(f"cone signs must be +1 or -1, got ({self.sx}, {self.sy})")

    def code(self) -> str:
        return ("x+" if self.sx > 0 else "x-") + ("y+" if self.sy > 0 else "y-")


CONES: tuple[ConeId, ...] = (ConeId(1, 1), ConeId(1, -1), ConeId(-1, 1), ConeId(-1, -1))


@dataclass(frozen=True)
class CspdPair:
    """One pair (A, B) of a decomposition, with the apex separating them.

    For every a in A and b in B, b lies in the pair's cone translated to a;
    the apex dominates every a and is dominated by every b, componentwise in
    the cone's signs (closed comparisons).
    """

    cone: ConeId
    a: tuple[int, ...]
    b: tuple[int, ...]
    apex: Point3


@dataclass(frozen=True, eq=False)
class Cspd:
    """The pairs of one cone's decomposition, stored as flat arrays.

    Pair k has apex ``apex[k]``, side A ``members[o : o + len_a[k]]`` and
    side B the ``len_b[k]`` members after it, where ``o = offsets[k]``; each
    side lists its point indices in (z, y, x, index) order.  ``pairs`` builds
    the :class:`CspdPair` objects on first access.
    """

    cone: ConeId
    apex: np.ndarray
    len_a: np.ndarray
    len_b: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.apex)

    @property
    def size_sum(self) -> int:
        return len(self.members)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each pair's members, plus the total at the end."""
        return np.concatenate([[0], np.cumsum(self.len_a + self.len_b)])

    @cached_property
    def pairs(self) -> tuple[CspdPair, ...]:
        offsets, members = self.offsets.tolist(), self.members.tolist()
        return tuple(CspdPair(self.cone, tuple(members[lo:lo + a]), tuple(members[lo + a:hi]),
                              Point3(*apex))
                     for lo, hi, a, apex in zip(offsets, offsets[1:], self.len_a.tolist(),
                                                self.apex.tolist()))


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenating the ranges [start[k], stop[k]): the k each element came
    from, and the position it stands for."""
    size = stop - start
    owner = np.repeat(np.arange(len(start)), size)
    return owner, np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - start, size)


def _segments(owner: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop of each owner's run in a sorted owner array."""
    size = np.bincount(owner, minlength=count)
    stop = np.cumsum(size)
    return stop - size, stop


def _median_trees(start: np.ndarray, stop: np.ndarray,
                  far: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Nodes of the median-split trees over the ranges [start, stop), in preorder.

    A node [lo, hi) splits at lo + (hi - lo) // 2.  Nodes with fewer than two
    members are dropped.  When ``far`` is given (``far[i]``: how many of the
    positions before i lie on the far side of the owning x split), nodes
    lying wholly on one side are dropped too, with their subtrees, since no
    pair crosses them.  Returns (root range index, lo, hi) per node.
    Preorder is (lo ascending, hi descending): an ancestor starts no later
    and ends later than its descendants, and disjoint nodes are ordered by
    position.
    """
    root = np.arange(len(start))
    levels = []
    while len(root):
        keep = stop - start >= 2
        if far is not None:
            count = far[stop] - far[start]
            keep &= (count > 0) & (count < stop - start)
        root, start, stop = root[keep], start[keep], stop[keep]
        levels.append((root, start, stop))
        mid = start + (stop - start) // 2
        root = np.concatenate([root, root])
        start, stop = np.concatenate([start, mid]), np.concatenate([mid, stop])
    root, start, stop = (np.concatenate(v) for v in zip(*levels))
    span = int(stop.max(initial=0)) + 1
    order = np.argsort(start * span + (span - stop), kind="stable")
    return root[order], start[order], stop[order]


def build_cspd(points: Sequence[Point3] | np.ndarray, cone: ConeId) -> Cspd:
    """Decompose all cone-related ordered pairs via three nested median splits.

    Level 1 splits by a median plane on the signed x-axis, level 2 on the
    signed y-axis, level 3 on the z-axis; a pair is emitted at every level-3
    node where both sides are nonempty, with the three split values as its
    apex.  Every ordered pair (p, q) with q in the cone at p is covered by
    exactly one emitted pair (at the unique split node separating it on each
    level), and every point belongs to O(log^3 n) pairs.

    Medians are lower medians in the per-axis total orders; each split value
    is the coordinate of the first element of the upper part, so the output
    is deterministic.  Pairs come in (x-node, y-node, z-node) preorder.

    The trees are built level-synchronously on integer ranks: a node is a
    range of positions in an array sorted by the node's axis, so a split is
    a slice.  The x-tree cuts the signed x order.  The y-trees of all
    x-nodes split one array holding each x-node's points in signed y order,
    and the z-trees of all crossing sets (the points of a y-node on the same
    side of both splits) split one array holding each set in z order.

    Each integer sort, here and in :func:`_median_trees`, is one stable
    argsort on a combined key, the permutation np.lexsort gives on its
    parts; the stable kind is the one save_graph runs too.  A key stays
    below about (n log^2 n)^2, which passes the int64 bound only at millions
    of points, far more than the dense n x n stretch scan can hold.
    """
    n = len(points)
    if n < 2:
        raise ValueError("decomposition needs at least 2 points")
    P = points if isinstance(points, np.ndarray) else points_array(points)
    order = np.lexsort((np.arange(n), P[:, 0], P[:, 1], P[:, 2]))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    if (P[order[1:]] == P[order[:-1]]).all(axis=1).any():
        raise ValueError("points must be pairwise distinct")

    # Signed per-axis total orders: a precedes b iff the direction bit from a
    # to b equals the cone's sign, so the rank tiebreak flips with the sign.
    # The z order is the (z, y, x, index) order itself.
    x_order = np.lexsort((cone.sx * rank, cone.sx * P[:, 0]))
    y_order = np.lexsort((cone.sy * rank, cone.sy * P[:, 1]))
    rx = np.empty(n, dtype=np.intp)
    rx[x_order] = np.arange(n)
    ry = np.empty(n, dtype=np.intp)
    ry[y_order] = np.arange(n)

    # x-nodes: ranges of x ranks; the pivot is the rank at the split.
    _, x_lo, x_hi = _median_trees(np.array([0]), np.array([n]))
    x_pivot = x_lo + (x_hi - x_lo) // 2
    x_split = P[x_order[x_pivot], 0]

    # Y: each x-node's points in y order, x-nodes in preorder.
    owner, pos = _ranges(x_lo, x_hi)
    ys = x_order[pos]
    sort = np.argsort(owner * n + ry[ys], kind="stable")
    ys, owner = ys[sort], owner[sort]
    far = np.concatenate([[0], np.cumsum(rx[ys] >= x_pivot[owner])])
    x_of_y, y_lo, y_hi = _median_trees(*_segments(owner, len(x_lo)), far)
    y_at = ys[y_lo + (y_hi - y_lo) // 2]
    y_pivot, y_split = ry[y_at], P[y_at, 1]

    # U: each y-node's crossing set in z order, y-nodes in preorder.
    owner, pos = _ranges(y_lo, y_hi)
    us = ys[pos]
    x_far = rx[us] >= x_pivot[x_of_y[owner]]
    keep = x_far == (ry[us] >= y_pivot[owner])
    us, owner, x_far = us[keep], owner[keep], x_far[keep]
    sort = np.argsort(owner * n + rank[us], kind="stable")
    us, owner, x_far = us[sort], owner[sort], x_far[sort]
    far = np.concatenate([[0], np.cumsum(x_far)])
    y_of_z, z_lo, z_hi = _median_trees(*_segments(owner, len(y_lo)), far)

    # A z-node emits its near points below the split against its far points
    # from the split on, when both are nonempty.
    z_mid = z_lo + (z_hi - z_lo) // 2
    len_a = (z_mid - z_lo) - (far[z_mid] - far[z_lo])
    len_b = far[z_hi] - far[z_mid]
    emit = (len_a > 0) & (len_b > 0)
    y_of_z, z_lo, z_mid, z_hi = y_of_z[emit], z_lo[emit], z_mid[emit], z_hi[emit]
    apex = np.column_stack([x_split[x_of_y[y_of_z]], y_split[y_of_z], P[us[z_mid], 2]])
    owner, pos = _ranges(z_lo, z_hi)
    members = us[pos[x_far[pos] == (pos >= z_mid[owner])]]
    return Cspd(cone, apex, len_a[emit], len_b[emit], members)


def certify_cspd(points: Sequence[Point3] | np.ndarray, cone: ConeId, cspd: Cspd) -> list[str]:
    """Brute-force certification of a decomposition; empty list means certified.

    Checks, over all O(n^2) ordered pairs, that every cone-related pair is
    covered by exactly one emitted pair and no unrelated pair is covered
    (uniqueness), that every cross pair of every emitted pair is cone-related
    (the separation condition), and that each apex sits between its sides
    componentwise in the cone's signs.  Each pair's violations come in pair
    order (empty side, shared members, cross pairs A-major, apex against A,
    B against apex), then the coverage errors in row order.

    q is in the cone at p when, on each axis, p's coordinate is smaller than
    q's in the cone's sign, ties going to the point first in the (z, y, x,
    index) order.  The test runs on whole n x n arrays, O(n^2) memory, and
    shares no code with the median splits of :func:`build_cspd`.
    """
    P = points if isinstance(points, np.ndarray) else points_array(points)
    n = len(P)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), P[:, 0], P[:, 1], P[:, 2]))] = np.arange(n)
    # key[axis, i] < key[axis, j]: i precedes j on that axis in the cone's sign
    key = np.empty((3, n), dtype=np.intp)
    for axis, s in enumerate((cone.sx, cone.sy)):
        key[axis, np.lexsort((rank, P[:, axis]))] = s * np.arange(n)
    key[2] = rank
    related = np.logical_and.reduce(key[:, :, None] < key[:, None, :])

    start, stop = cspd.offsets[:-1], cspd.offsets[1:]
    mid = start + cspd.len_a
    a_pair, a_pos = _ranges(start, mid)
    b_pair, b_pos = _ranges(mid, stop)
    a, b = cspd.members[a_pos], cspd.members[b_pos]
    row, at = _ranges(mid[a_pair], stop[a_pair])  # each A member against its B
    i, j, cross_pair = a[row], cspd.members[at], a_pair[row]
    covered = np.bincount(i * n + j, minlength=n * n).reshape(n, n)
    np.fill_diagonal(covered, 0)
    cover_i, cover_j = np.nonzero(covered != related)

    sign = np.array([cone.sx, cone.sy, 1])
    empty = np.flatnonzero((cspd.len_a == 0) | (cspd.len_b == 0))
    shared = np.unique(np.intersect1d(a_pair * n + a, b_pair * n + b) // n)
    apart = np.flatnonzero(~related[i, j])
    above = np.flatnonzero((sign * (cspd.apex[a_pair] - P[a]) < 0).any(axis=1))
    below = np.flatnonzero((sign * (P[b] - cspd.apex[b_pair]) < 0).any(axis=1))
    kinds = [  # per kind of violation, in report order: its pairs, message and fields
        (empty, "pair {}: empty side"),
        (shared, "pair {}: sides not disjoint"),
        (cross_pair[apart], "pair {}: cross pair ({},{}) not cone-related", i[apart], j[apart]),
        (a_pair[above], "pair {}: apex does not dominate point {}", a[above]),
        (b_pair[below], "pair {}: point {} does not dominate apex", b[below]),
    ]
    messages = [text.format(*v) for pair, text, *fields in kinds
                for v in zip(pair.tolist(), *(f.tolist() for f in fields))]
    # a stable sort on the pair keeps each pair's kinds, and each kind's
    # members, in the order listed
    order = np.argsort(np.concatenate([k[0] for k in kinds]), kind="stable")
    return [messages[t] for t in order.tolist()] + [
        f"ordered pair ({p},{q}) covered {c} times, expected {e}" for p, q, c, e in
        zip(cover_i.tolist(), cover_j.tolist(), covered[cover_i, cover_j].tolist(),
            related[cover_i, cover_j].astype(int).tolist())]
