"""Gap-constraint edge construction.

Candidate obstacle pairs come from a left-to-right sweep that matches each
obstacle against earlier ones whose bottom side lies in its shadow region
(the trapezoid left of the obstacle, above its bottom line, below a
45-degree diagonal from its top-left corner); matched obstacles retire from
the active set.  Eight symmetry passes cover the whole plane and emit at
most n pairs each.

A candidate pair survives as an edge only if it has a passage (capacity >
0) and no third obstacle intersects the open interior of its minimum
pathway: the corridor between the pair, extended along the passage axis far
enough for a maximum-size robot to enter and leave completely.  That test
is the one the placement check uses: an open rectangle meets an obstacle
exactly when one of the doubled grid's cells under it is a wall
(partition.wall_cells, DoubledGrid.box).  Pairs that overlap or touch have
no gap; their contact lies inside both obstacles, which the partition walls
off anyway, so they are dropped.  Boundary contact does not kill an edge
(open robot, closed obstacles), so exactly aligned worlds can keep
overlapping corridor seals whose abstract center segments cross; the
partition is indifferent to that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .geometry import SYMMETRIES, Obstacle, Rect, capacity, gaps, thin_edge_rect
from .partition import build_grid, wall_cells


@dataclass(frozen=True, slots=True)
class GapEdge:
    """A passable gap between obstacles i < j; every field but the ids
    follows from the two obstacles (see make_gap_edge).

    capacity: largest passable square side, always > 0.
    edge_rect: normalized gap rectangle, sealed in the partition.
    pathway: region that must be clear for the edge to be relevant.
    """

    i: int
    j: int
    capacity: int
    edge_rect: Rect
    pathway: Rect


def minimum_pathway(a: Obstacle, b: Obstacle) -> Rect | None:
    """Swept area of a maximum-size robot fully traversing the gap.

    None when the pair has no passage.  A tie between the axis gaps treats
    the y gap as the bottleneck (horizontal passage).
    """
    gx, gy = gaps(a, b)
    s = max(gx, gy)
    if s <= 0:
        return None
    if gy >= gx:  # y gap is the bottleneck; robot crosses horizontally
        return Rect(
            max(a.x1, b.x1) - s,
            min(a.y2, b.y2),
            min(a.x2, b.x2) + s,
            max(a.y1, b.y1),
        )
    return Rect(
        min(a.x2, b.x2),
        max(a.y1, b.y1) - s,
        max(a.x1, b.x1),
        min(a.y2, b.y2) + s,
    )


def make_gap_edge(a: Obstacle, b: Obstacle) -> GapEdge:
    """The gap edge of a pair; ValueError when the pair has no passage."""
    if a.id > b.id:
        a, b = b, a
    pathway = minimum_pathway(a, b)
    if pathway is None:
        raise ValueError(f"obstacles {a.id} and {b.id}: no passage")
    return GapEdge(a.id, b.id, capacity(a, b), thin_edge_rect(a, b), pathway)


def shadow_contains(anchor: Obstacle, other: Obstacle) -> bool:
    """Whether other's bottom side lies entirely in anchor's shadow region."""
    return (
        other.x2 <= anchor.x1
        and other.y1 >= anchor.y1
        and other.y1 <= anchor.y2 + (anchor.x1 - other.x2)
    )


_INF = float("inf")


class _MinTree:
    """Segment tree over leaf slots holding a value per slot (inf = empty);
    reports and clears every slot >= lo whose value is <= bound."""

    def __init__(self, n: int):
        size = 1
        while size < max(1, n):
            size *= 2
        self.size = size
        self.vals = [_INF] * (2 * size)

    def set(self, i: int, value: float) -> None:
        vals = self.vals
        i += self.size
        vals[i] = value
        i >>= 1
        while i:
            vals[i] = min(vals[2 * i], vals[2 * i + 1])
            i >>= 1

    def pop_leq(self, lo: int, bound: int) -> list[int]:
        """All slots >= lo with value <= bound, ascending; cleared on report."""
        vals = self.vals
        out: list[int] = []
        stack = [(1, 0, self.size)]
        while stack:
            node, nl, nr = stack.pop()
            if nr <= lo or vals[node] > bound:
                continue
            if node >= self.size:
                out.append(node - self.size)
                continue
            mid = (nl + nr) // 2
            # push right first so the left child is handled first (ascending)
            stack.append((2 * node + 1, mid, nr))
            stack.append((2 * node, nl, mid))
        for slot in out:
            self.set(slot, _INF)
        return out


def _blocks(blocker: Obstacle, pathway: Rect | None) -> bool:
    """Whether the blocker meets the open interior of the pathway (boundary
    contact is not blocking, matching the relevance semantics)."""
    if pathway is None:
        return True  # capacity-0 pairs never need recovering
    return (
        blocker.x1 < pathway.x2
        and blocker.x2 > pathway.x1
        and blocker.y1 < pathway.y2
        and blocker.y2 > pathway.y1
    )


def _sweep_pass_full(
    obstacles: list[Obstacle],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """One sweep pass: obstacles ascending by (x1, y1, id); each anchor pairs
    with and deletes every active obstacle whose bottom side lies in its
    shadow region, scanning upward in (y1, id) order.

    Actives are staged: an obstacle stays "young" until the sweep passes its
    right side (before that, x2 <= anchor.x1 cannot hold), then joins the
    query tree keyed by y1-rank with value y1 + x2.  The shadow test for a
    mature obstacle is exactly y1 >= anchor.y1 and y1 + x2 <= anchor.y2 +
    anchor.x1, so one range pop per anchor yields all matches in O(log n)
    each.  Every emitted pair deletes an active entry: a pass emits <= n
    pairs and runs in O(n log n).

    Deleting a matched entry assumes the matcher blocks the entry's pathway
    to every later anchor, which fails in two degenerate ways: anchors tied
    on x1 only touch each other's pathways, and an exactly-aligned matcher
    can graze a later pathway's boundary.  Both are recovered outside the
    primary emission budget: entries matched within an x1 group are
    re-offered to the group's other anchors, and deleted entries linger once
    as ghosts that the next matching anchor may claim unless the recorded
    deleter genuinely blocks that pair.  Recovered pairs are returned
    separately; each ghost is claimed at most once, so they also number at
    most n per pass.
    """
    order = sorted(obstacles, key=lambda o: (o.x1, o.y1, o.id))
    by_rank = sorted(order, key=lambda o: (o.y1, o.id))
    rank = {o.id: k for k, o in enumerate(by_rank)}
    keys = [(o.y1, o.id) for o in by_rank]
    by_x2 = sorted(order, key=lambda o: (o.x2, o.id))
    tree = _MinTree(len(order))
    ghosts = _MinTree(len(order))
    deleter: dict[int, Obstacle] = {}
    promote_at = 0
    pairs: list[tuple[int, int]] = []
    extras: list[tuple[int, int]] = []
    g = 0
    while g < len(order):
        h = g
        while h < len(order) and order[h].x1 == order[g].x1:
            h += 1
        group = order[g:h]
        while promote_at < len(by_x2) and by_x2[promote_at].x2 <= group[0].x1:
            o = by_x2[promote_at]
            # Anything with x2 <= x1 here was anchored strictly earlier.
            tree.set(rank[o.id], o.y1 + o.x2)
            promote_at += 1
        claimed: list[Obstacle] = []
        for anchor in group:
            lo = bisect_left(keys, (anchor.y1, -1))
            bound = anchor.y2 + anchor.x1
            # Ghosts first, so entries this anchor deletes below are not
            # immediately reclaimed by their own deleter.
            for slot in ghosts.pop_leq(lo, bound):
                o = by_rank[slot]
                if not _blocks(deleter[o.id], minimum_pathway(anchor, o)):
                    extras.append((anchor.id, o.id))
                    claimed.append(o)
            for slot in tree.pop_leq(lo, bound):
                o = by_rank[slot]
                pairs.append((anchor.id, o.id))
                claimed.append(o)
                deleter[o.id] = anchor
                ghosts.set(slot, o.y1 + o.x2)
        if len(group) > 1 and claimed:
            for o in claimed:
                for anchor in group:
                    if shadow_contains(anchor, o):
                        extras.append((anchor.id, o.id))
        g = h
    return pairs, extras


def shadow_sweep_pass(obstacles: list[Obstacle]) -> list[tuple[int, int]]:
    """Primary emissions of one sweep pass (at most one per deleted entry,
    so at most n in total)."""
    return _sweep_pass_full(obstacles)[0]


def build_candidates(obstacles: list[Obstacle]) -> list[tuple[int, int]]:
    """Deduplicated candidate pairs from all eight symmetry passes (<= 8n
    primary emissions, plus the rare tie-group recoveries)."""
    seen: set[tuple[int, int]] = set()
    for sym in SYMMETRIES:
        transformed = []
        for o in obstacles:
            r = sym.rect(o.rect)
            transformed.append(Obstacle(o.id, r.x1, r.y1, r.x2, r.y2))
        pairs, extras = _sweep_pass_full(transformed)
        for a, b in pairs:
            seen.add((a, b) if a < b else (b, a))
        for a, b in extras:
            seen.add((a, b) if a < b else (b, a))
    return sorted(seen)


def relevance_filter(
    candidates: list[tuple[int, int]], obstacles: list[Obstacle]
) -> list[GapEdge]:
    """Gap edges, in candidate order, of the candidate pairs that have a
    passage and whose open pathway interior is obstacle-free.

    Clearance is read off the doubled grid's wall cells, the test the
    index's placement check uses: every obstacle side is a grid line and a
    pair's own obstacles lie outside its pathway's open interior, so a
    pathway is clear exactly when no cell it meets (DoubledGrid.box) is a
    wall.  The cost is Theta(grid cells), like build_partition: the wall
    mask, then the blocks under the pathways, which on general-position
    worlds (perfbench sparse_world, n = 500-3000) add up to about 17 times
    the grid's cell count.
    """
    grid = build_grid(obstacles)
    walls = wall_cells(grid, obstacles)
    edges = [
        make_gap_edge(obstacles[i], obstacles[j])
        for i, j in candidates
        if capacity(obstacles[i], obstacles[j]) > 0
    ]
    return [e for e in edges if not walls[grid.box(e.pathway)].any()]


def build_gap_edges(obstacles: list[Obstacle]) -> list[GapEdge]:
    """Full pipeline: sweep candidates, then relevance filtering."""
    return relevance_filter(build_candidates(obstacles), obstacles)
