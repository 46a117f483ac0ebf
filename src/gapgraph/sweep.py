"""Gap-constraint edge construction.

Candidate obstacle pairs come from eight passes, one per plane symmetry
(geometry.SYMMETRIES), each run on the obstacles as int64 columns.  A pass
orders the obstacles as anchors by (x1, y1, id) and pairs each obstacle o
with anchors whose shadow region (the trapezoid left of the anchor, above
its bottom line, below a 45-degree diagonal from its top-left corner) holds
o's bottom side.  Anchor a "fits" o when

    a.x1 >= o.x2,   a.y1 <= o.y1,   a.x1 + a.y2 >= o.x2 + o.y1.

With first(o) the first anchor that fits o and second(o) the next one, a
pass emits:

- the primary pair (first(o), o), at most one per obstacle (<= n a pass);
- the ghost pair (second(o), o), unless the pair has no passage or
  first(o)'s obstacle meets the open interior of its minimum pathway;
- tie recovery: when first(o)'s x1 group holds more than one anchor, o pairs
  with every anchor of that group that fits it, and likewise for
  second(o)'s group when the ghost pair was emitted.

This is exactly the output of a left-to-right sweep in which each anchor
deletes the active obstacles in its shadow and deleted ones linger once as
ghosts (tests/sweep_reference.py keeps that sweep as the reference).  "The
first anchor at position >= K that fits o" is a three-sided query, answered
for every obstacle at once by a static merge-sort tree over the anchor order
(_FitTree): O(n log n) memory per pass, freed before the next one, and
O(log n) numpy passes per batch of queries.  A pass runs a batch for
first(o), one for second(o), and one per round of tie recovery, so its cost
follows the pairs it emits.

A candidate pair survives as an edge only if it has a passage (capacity >
0) and no third obstacle intersects the open interior of its minimum
pathway: the corridor between the pair, extended along the passage axis far
enough for a maximum-size robot to enter and leave completely.
ObstacleCounter answers that test for a block of pathways at once, without
the partition's grid: it counts the obstacles each open rectangle meets,
by inclusion-exclusion over four merge-sort trees that share _FitTree's
stable split (_cascade).  The index's batch placement check
(FeasibilityIndex.feasible_many) uses the same counter.  Pairs that overlap
or touch have no gap; their contact lies inside both obstacles, which the
partition walls off anyway, so they are dropped.  Boundary contact does not
kill an edge (open robot, closed obstacles), so exactly aligned worlds can
keep overlapping corridor seals whose abstract center segments cross; the
partition is indifferent to that.

A pair's capacity, gap rectangle and minimum pathway have one formula,
pathways, over int64 columns of many pairs: the ghost check, the clearance
test and gap_edges (the only producer of GapEdges) use it.  The oracle
keeps its own scalar pathway.

The stages hand on int64 columns, never one object per pair: sorted
(m, 2) candidate rows, then one GapEdges record for the kept edges.

Coordinates are half-units of at most 2**61 in magnitude (geometry.
COORD_LIMIT doubled), so x1 + y2 and every pathway end stay below 2**63.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .geometry import SYMMETRIES, Obstacle, Symmetry
from .partition import sorted_unique

#: Candidates whose pathways relevance_filter computes at once.
_FILTER_BLOCK = 4096


@dataclass(frozen=True, slots=True, eq=False)
class GapEdges:
    """The passable gaps between obstacle pairs, as int64 columns; every
    column but the pairs follows from the two obstacles (see gap_edges)."""

    pairs: np.ndarray  # (m, 2) obstacle ids i < j
    capacity: np.ndarray  # (m,) largest passable square side, always > 0
    rect: np.ndarray  # (4, m) gap rectangles x1, y1, x2, y2, sealed in the partition

    def __len__(self) -> int:
        return len(self.pairs)


def pathways(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gap geometry of int64 rect rows a, b of shape (4, m) (x1, y1, x2,
    y2): the larger axis gap s (a passage of that capacity when > 0), then
    the gap rectangles and the minimum pathways as (4, m) rect rows,
    meaningful only where s > 0.

    Per axis a gap rectangle spans the projections' overlap when they meet,
    else the gap between them.  A minimum pathway is the area a robot of
    side s sweeps while fully traversing the gap; a tie between the axis
    gaps treats the y gap as the bottleneck (horizontal passage)."""
    lo = np.maximum(a[:2], b[:2])
    hi = np.minimum(a[2:], b[2:])
    (lx, ly), (hx, hy) = lo, hi
    gx, gy = lo - hi
    s = np.maximum(gx, gy)
    h = gy >= gx  # the y gap is the bottleneck; the robot crosses horizontally
    pathway = np.where(h, [lx - s, hy, hx + s, ly], [hx, ly - s, lx, hy + s])
    return s, np.concatenate([np.minimum(lo, hi), np.maximum(lo, hi)]), pathway


def gap_edges(pairs: np.ndarray, rects: np.ndarray) -> GapEdges:
    """The gap edges of the int64 (m, 2) rows `pairs`, i < j, over the
    obstacles' (4, n) rect rows (columns); ValueError naming the first pair
    that has no passage."""
    i, j = pairs.T
    s, rect, _ = pathways(rects[:, i], rects[:, j])
    shut = np.flatnonzero(s <= 0)
    if shut.size:
        a, b = pairs[shut[0]].tolist()
        raise ValueError(f"obstacles {a} and {b}: no passage")
    return GapEdges(pairs, s, rect)


def _cascade(
    rank: np.ndarray, pad: int, size: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """The stable split of a static merge-sort tree over `size` padded
    positions, the structure fractional cascading walks (de Berg et al.,
    *Computational Geometry*, ch. 5): (level, order, lefts) from the root
    level down to level 0.

    Level l splits the positions into nodes of 2**l, and `order` lists each
    node's positions sorted by (rank, position); padding has rank `pad` and
    sorts last.  For levels >= 1, `lefts` counts, over the level's order,
    the entries that came from the left child (None at level 0).  A node
    starting at `base` holds exactly half of its entries from its left
    child, so of its first c entries lefts[base + c] - base // 2 came from
    there: a child's c follows from its parent's in one lookup.  Positions,
    ranks and counts are int32, which halves the memory walks stream
    through.
    """
    depth = (size - 1).bit_length()
    padded = np.full(size, pad, dtype=np.int32)
    padded[: len(rank)] = rank
    # The root holds every position by (rank, position); each level splits
    # its nodes stably into their two children for the next.
    order = np.argsort(padded, kind="stable").astype(np.int32)
    index = np.arange(size, dtype=np.int32)
    for level in range(depth, 0, -1):
        node = order >> level
        half = 1 << (level - 1)
        from_left = order & half == 0
        lefts = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(from_left, out=lefts[1:])
        yield level, order, lefts
        left_rank = lefts[:-1] - node * half
        dest = np.where(from_left, (node << level) + left_rank, index + half - left_rank)
        child = np.empty_like(order)
        child[dest] = order
        order = child
    yield 0, order, None


class _FitTree:
    """Static merge-sort tree over the anchor order for the three-sided
    query "first position >= k with y1 rank <= y and (x1 + y2) rank >= t".

    The cascade (_cascade) orders each node's entries by y1 rank.  Beside
    that order a level keeps the running maximum of the (x1 + y2) ranks
    within each node (pmax), so a node holding c entries of y1 rank <= y
    has a hit when pmax at its c-th entry reaches t.  Padding has (x1 + y2)
    rank -1, so it never hits.
    """

    def __init__(self, yrank: np.ndarray, srank: np.ndarray, ny: int):
        n = len(yrank)
        self.size = size = 1 << (n - 1).bit_length()
        self.depth = (size - 1).bit_length()
        self.ys = np.sort(yrank)
        sr = np.full(size, -1, dtype=np.int32)
        sr[:n] = srank
        self.pmax: dict[int, np.ndarray] = {}
        self.lefts: dict[int, np.ndarray] = {}  # levels >= 1
        for level, order, lefts in _cascade(yrank, ny, size):
            nodes = sr[order].reshape(-1, 1 << level)  # one row per node
            self.pmax[level] = np.maximum.accumulate(nodes, axis=1).ravel()
            if lefts is not None:
                self.lefts[level] = lefts

    def first(self, k: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Per query, the first hit at position >= k, or size when none.

        The suffix [k, size) is leaf k plus the right sibling of every node
        where the root-to-leaf path to k turns left.  One walk down that
        path finds the deepest of them with a hit, the first in position
        order; a second walk follows its leftmost children with a hit."""
        size, pmax, lefts = self.size, self.pmax, self.lefts
        live = k < size
        k = np.minimum(k, size - 1).astype(np.int32)
        t = t.astype(np.int32)
        # Entries of y1 rank <= y in the root, then in the path's node.
        c = np.searchsorted(self.ys, y, side="right").astype(np.int32)
        found = np.full(len(k), -1, dtype=np.int32)  # level of the sibling with a hit
        found_c = c  # and its c
        for level in range(self.depth, 0, -1):
            half = 1 << (level - 1)
            base = k & -(1 << level)  # start of the path's node
            cl = lefts[level][base + c] - (base >> 1)
            cr = c - cl
            turn = k & half == 0  # left, so the right sibling is in the suffix
            hit = turn & (cr > 0) & (pmax[level - 1][base + (half - 1) + cr] >= t)
            found = np.where(hit, level - 1, found)
            found_c = np.where(hit, cr, found_c)
            c = np.where(turn, cl, cr)
        at = np.where(live & (c > 0) & (pmax[0][k] >= t), k, size)

        q = np.flatnonzero(live & (at == size) & (found >= 0))
        q = q[np.argsort(-found[q], kind="stable")]
        levels = found[q]
        node = (k[q] >> levels + 1 << 1) + 1
        c, t = found_c[q], t[q]
        # Sorted by level, the nodes still above `level` are a prefix.
        for level in range(self.depth - 1, 0, -1):
            m = np.searchsorted(-levels, -level, side="right")
            base = node[:m] << level
            cl = lefts[level][base + c[:m]] - (base >> 1)
            left = (cl > 0) & (pmax[level - 1][base + cl - 1] >= t[:m])
            node[:m] = 2 * node[:m] + 1 - left
            c[:m] = np.where(left, cl, c[:m] - cl)
        at[q] = node
        return at


class ObstacleCounter:
    """Counts, for many open rectangles at once, the closed obstacles of the
    int64 (4, n) rect rows that each one meets.

    An open rectangle q misses a closed obstacle o exactly when o lies
    wholly left of it (o.x2 <= q.x1), right of it (o.x1 >= q.x2), below it
    (o.y2 <= q.y1) or above it (o.y1 >= q.y2).  When obstacles and
    rectangles all have positive widths and heights, left and right exclude
    each other, and so do below and above, so q meets

        n - L - R - B - A + LB + LA + RB + RA

    obstacles.  L, R, B and A take one searchsorted each.  A corner term is
    a 2-D dominance count: LB counts the obstacles that are both among the
    first L by x2 and among the first B by y2.  One cascade (_cascade) per
    corner takes the obstacles by x2 (L) or by x1 descending (R) as its
    positions and ranks them by y2 (B) or by y1 descending (A), so a corner
    term is the number of entries at positions < k of rank < c, with the
    side counts as (k, c).  One walk from the root towards leaf k adds up
    the left children it passes, one gather per level.  The four cascades
    are the four quarters of one over 4 * size positions, so a single walk
    serves all four corners.
    """

    def __init__(self, rects: np.ndarray):
        x1, y1, x2, y2 = rects
        assert (x1 < x2).all() and (y1 < y2).all(), "obstacle of zero width or height"
        self.n = n = len(x1)
        self.size = size = 1 << n.bit_length()  # > n: leaf k = n exists
        self.depth = (size - 1).bit_length()
        self._sides = np.sort(x2), np.sort(x1), np.sort(y2), np.sort(y1)

        def place(key: np.ndarray) -> np.ndarray:
            at = np.empty(n, dtype=np.int32)
            at[np.argsort(key, kind="stable")] = np.arange(n, dtype=np.int32)
            return at

        below, above = place(y2), place(-y1)
        by_x2, by_x1 = np.argsort(x2, kind="stable"), np.argsort(-x1, kind="stable")
        rank = np.full(4 * size, n, dtype=np.int32)
        corners = ((by_x2, below), (by_x2, above), (by_x1, below), (by_x1, above))
        for j, (by, ranks) in enumerate(corners):
            rank[j * size : j * size + n] = ranks[by]
        # The two levels above `depth` only join the quarters.
        self.lefts = {
            level: lefts
            for level, _, lefts in _cascade(rank, n, 4 * size)
            if 0 < level <= self.depth
        }

    def meets(self, rects: np.ndarray) -> np.ndarray:
        """Per open rectangle of the int64 (4, m) rect rows, the number of
        obstacles it meets."""
        a1, b1, a2, b2 = rects
        assert (a1 < a2).all() and (b1 < b2).all(), "rectangle of zero width or height"
        n, size = self.n, self.size
        x2, x1, y2, y1 = self._sides
        left = np.searchsorted(x2, a1, "right")
        right = n - np.searchsorted(x1, a2, "left")
        below = np.searchsorted(y2, b1, "right")
        above = n - np.searchsorted(y1, b2, "left")
        k = np.concatenate([left, left + size, right + 2 * size, right + 3 * size])
        c = np.concatenate([below, above, below, above])
        corner = np.zeros_like(k)
        for level in range(self.depth, 0, -1):
            base = k & -(1 << level)  # start of the node on the path to leaf k
            cl = self.lefts[level][base + c] - (base >> 1)
            turn = (k >> (level - 1)) & 1  # right: the left child precedes k
            corner += turn * cl
            c = np.where(turn, c - cl, cl)
        corners = corner.reshape(4, -1).sum(axis=0)
        return n - left - right - below - above + corners


def _sweep_pass(
    ids: np.ndarray, rects: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One symmetry pass over int64 ids and (4, n) rect rows: (anchor
    ids, obstacle ids) of the primary pairs in emission order (by first(o)'s
    position, then by o's (y1, id)), then those of the ghost and
    tie-recovery pairs, possibly repeated.  See the module docstring."""
    order = np.lexsort((ids, rects[1], rects[0]))
    ids, rects = ids[order], rects[:, order]
    x1, y1, x2, y2 = rects
    ys = sorted_unique(y1)
    yrank = np.searchsorted(ys, y1)
    reach = x1 + y2
    reaches = sorted_unique(reach)
    tree = _FitTree(yrank, np.searchsorted(reaches, reach), len(ys))
    n = len(ids)
    # Per obstacle: the first anchor with x1 >= its x2, and the (x1 + y2)
    # rank an anchor needs to reach x2 + y1.
    start = np.searchsorted(x1, x2)
    need = np.searchsorted(reaches, x2 + y1)

    def fits_after(k: np.ndarray, o: np.ndarray) -> np.ndarray:
        """Per obstacle position o, the first anchor position >= k that fits
        it, or >= n when none does."""
        return tree.first(np.maximum(k, start[o]), yrank[o], need[o])

    o = np.arange(n)
    first = fits_after(np.zeros_like(o), o)
    o, first = o[first < n], first[first < n]
    emit = np.lexsort((ids[o], y1[o], first))
    primary = ids[first[emit]], ids[o[emit]]

    second = fits_after(first + 1, o)
    g = second < n
    o2, first2, second = o[g], first[g], second[g]
    s, _, (px1, py1, px2, py2) = pathways(rects[:, second], rects[:, o2])
    bx1, by1, bx2, by2 = rects[:, first2]
    blocked = (bx1 < px2) & (bx2 > px1) & (by1 < py2) & (by2 > py1)
    ghost = (s > 0) & ~blocked
    o2, second = o2[ghost], second[ghost]

    anchors, others = [second], [o2]
    # Tie recovery walks on through the claiming anchor's x1 group.  The
    # group ascends by y1, so its anchors with y1 <= o.y1 end at `end`.
    group_y = np.cumsum(np.diff(x1, prepend=x1[0]) != 0) * len(ys) + yrank
    at = np.concatenate([first, second])
    o = np.concatenate([o, o2])
    end = np.searchsorted(group_y, group_y[at] - yrank[at] + yrank[o], side="right")
    more = at + 1 < end
    while more.any():
        at = fits_after(at[more] + 1, o[more])
        o, end = o[more], end[more]
        fit = at < end
        anchors.append(at[fit])
        others.append(o[fit])
        more = fit & (at + 1 < end)
    return (
        *primary,
        ids[np.concatenate(anchors)],
        ids[np.concatenate(others)],
    )


def columns(obstacles: list[Obstacle]) -> tuple[np.ndarray, np.ndarray]:
    """The obstacles' int64 ids and their (4, n) rect rows x1, y1, x2, y2."""
    cols = np.array(
        [(o.id, o.x1, o.y1, o.x2, o.y2) for o in obstacles], dtype=np.int64
    ).reshape(-1, 5)
    return cols[:, 0], np.ascontiguousarray(cols[:, 1:].T)


def _transform(sym: Symmetry, rects: np.ndarray) -> np.ndarray:
    """Symmetry.rect over (4, n) int64 rect rows."""
    ax, ay = sym.point(rects[0], rects[1])
    bx, by = sym.point(rects[2], rects[3])
    return np.array(
        [np.minimum(ax, bx), np.minimum(ay, by), np.maximum(ax, bx), np.maximum(ay, by)]
    )


def build_candidates(obstacles: list[Obstacle]) -> np.ndarray:
    """Sorted, deduplicated candidate pairs (i < j) from all eight symmetry
    passes, as int64 (m, 2) rows: <= 8n primary pairs plus ghost and tie
    recoveries."""
    if not obstacles:
        return np.empty((0, 2), dtype=np.int64)
    ids, rects = columns(obstacles)
    m = int(ids.max()) + 1
    keys = []
    for sym in SYMMETRIES:
        pass_pairs = _sweep_pass(ids, _transform(sym, rects))
        for a, b in (pass_pairs[:2], pass_pairs[2:]):
            keys.append(np.minimum(a, b) * m + np.maximum(a, b))
    return np.column_stack(np.divmod(sorted_unique(np.concatenate(keys)), m))


def relevance_filter(candidates: np.ndarray, rects: np.ndarray) -> GapEdges:
    """Gap edges, in candidate order, of the int64 (m, 2) candidate pairs
    that have a passage and whose open pathway interior is obstacle-free,
    over the obstacles' (4, n) rect rows.

    Gaps and pathways are computed as int64 columns, _FILTER_BLOCK
    candidates at a time; one ObstacleCounter.meets call per block counts
    the obstacles that meet each passable pathway.  A pair's own obstacles
    never reach into its pathway's open interior, so a pathway is clear
    exactly when its count is 0.  Nothing is allocated per grid cell: the
    counter takes O(n log n) to build and O(log n) numpy passes per block.
    """
    counter = ObstacleCounter(rects)
    kept = [np.empty(0, dtype=np.int64)]
    # A block at a time: the columns and rows of every candidate at once
    # were the largest allocation of a lattice world's build.
    for start in range(0, len(candidates), _FILTER_BLOCK):
        block = candidates[start : start + _FILTER_BLOCK]
        s, _, pathway = pathways(rects[:, block[:, 0]], rects[:, block[:, 1]])
        passable = np.flatnonzero(s > 0)
        clear = counter.meets(pathway[:, passable]) == 0
        kept.append(start + passable[clear])
    return gap_edges(candidates[np.concatenate(kept)], rects)
