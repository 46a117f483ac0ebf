"""The pure-Python shadow sweep, kept as the reference that gapgraph.sweep's
numpy pass must reproduce pair for pair.

A pass orders the obstacles by (x1, y1, id) as anchors; each anchor pairs
with and deletes every active obstacle whose bottom side lies in its shadow
region (shadow_contains), using a segment tree over y1 ranks.  Deleted
entries linger once as ghosts, and pairs matched inside a tied x1 group are
re-offered to the group's other anchors; see _sweep_pass_full.
"""

from __future__ import annotations

from bisect import bisect_left

from gapgraph.geometry import SYMMETRIES, Obstacle, Rect
from gapgraph.sweep import minimum_pathway


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
    pairs.

    Deleting a matched entry assumes the matcher blocks the entry's pathway
    to every later anchor, which fails in two degenerate ways: anchors tied
    on x1 only touch each other's pathways, and an exactly-aligned matcher
    can graze a later pathway's boundary.  Both are recovered outside the
    primary emission budget: entries matched within an x1 group are
    re-offered to the group's other anchors, and deleted entries linger once
    as ghosts that the next matching anchor may claim unless the recorded
    deleter genuinely blocks that pair.  Recovered pairs are returned
    separately; each ghost is claimed at most once.
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


def reference_sweep_pass(obstacles: list[Obstacle]) -> list[tuple[int, int]]:
    """Primary emissions of one reference pass, in emission order."""
    return _sweep_pass_full(obstacles)[0]


def reference_candidates(obstacles: list[Obstacle]) -> list[tuple[int, int]]:
    """Deduplicated, sorted candidate pairs from all eight reference passes."""
    seen: set[tuple[int, int]] = set()
    for sym in SYMMETRIES:
        transformed = [Obstacle(o.id, *sym.rect(o.rect)) for o in obstacles]
        pairs, extras = _sweep_pass_full(transformed)
        for a, b in pairs + extras:
            seen.add((a, b) if a < b else (b, a))
    return sorted(seen)
