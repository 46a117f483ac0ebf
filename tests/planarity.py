"""Test-side planarity check: gap edges drawn in the plane, and exact
segment predicates.

The program never draws an edge; acceptance 04 and the sweep tests use
these helpers to assert that strictly clear gap edges embed without
crossings.
"""

from __future__ import annotations

from gapgraph.geometry import Obstacle, Rect, gaps
from gapgraph.oracle import minimum_pathway
from gapgraph.sweep import GapEdges


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def segments_properly_cross(
    p: tuple[int, int],
    q: tuple[int, int],
    r: tuple[int, int],
    s: tuple[int, int],
) -> bool:
    """Exact test for a transversal crossing at an interior point of both
    segments; touching endpoints and collinear overlap do not count."""
    d1 = _orient(*r, *s, *p)
    d2 = _orient(*r, *s, *q)
    d3 = _orient(*p, *q, *r)
    d4 = _orient(*p, *q, *s)
    return d1 * d2 < 0 and d3 * d4 < 0


def segment_meets_rect(p: tuple[int, int], q: tuple[int, int], r: Rect) -> bool:
    """Exact closed intersection test between segment pq and rectangle r."""
    if (
        max(p[0], q[0]) < r.x1
        or min(p[0], q[0]) > r.x2
        or max(p[1], q[1]) < r.y1
        or min(p[1], q[1]) > r.y2
    ):
        return False
    for x, y in (p, q):
        if r.x1 <= x <= r.x2 and r.y1 <= y <= r.y2:
            return True
    corners = ((r.x1, r.y1), (r.x2, r.y1), (r.x2, r.y2), (r.x1, r.y2))
    for k in range(4):
        c1, c2 = corners[k], corners[(k + 1) % 4]
        d1 = _orient(*p, *q, *c1)
        d2 = _orient(*p, *q, *c2)
        d3 = _orient(*c1, *c2, *p)
        d4 = _orient(*c1, *c2, *q)
        if d1 * d2 <= 0 and d3 * d4 <= 0:
            return True
    return False


def is_diagonal(a: Obstacle, b: Obstacle) -> bool:
    """Whether the pair is separated on both axes (no shared projection)."""
    gx, gy = gaps(a, b)
    return gx > 0 and gy > 0


def strictly_clear(i: int, j: int, obstacles: list[Obstacle]) -> bool:
    """Whether no third obstacle even touches the closed pathway of edge
    (i, j).

    Surviving edges with merely-touching third obstacles sit exactly on the
    boundary of the non-crossing argument (whose pathway is inclusive of
    its edge points); the planarity statement below is asserted for the
    strictly clear ones.
    """
    p = minimum_pathway(obstacles[i], obstacles[j])
    for o in obstacles:
        if o.id in (i, j):
            continue
        if o.x1 <= p.x2 and o.x2 >= p.x1 and o.y1 <= p.y2 and o.y2 >= p.y1:
            return False
    return True


def edge_drawing(i: int, j: int, r: Rect, obstacles: list[Obstacle]):
    """Geometric realization of edge (i, j), gap rectangle r, for the
    non-crossing check.

    An edge whose pair shares a projection occupies its whole gap rectangle
    (the corridor between the pair); a diagonal edge is the
    corner-to-corner segment across its gap rectangle, oriented by which
    obstacle sits lower.
    """
    a, b = obstacles[i], obstacles[j]
    if not is_diagonal(a, b):
        return ("rect", r)
    left, right = (a, b) if a.x2 <= b.x1 else (b, a)
    if left.y2 <= right.y1:
        return ("seg", ((r.x1, r.y1), (r.x2, r.y2)))
    return ("seg", ((r.x1, r.y2), (r.x2, r.y1)))


def drawings_cross(a, b) -> bool:
    """Whether two edge drawings collide: rectangles by closed overlap,
    segments by proper transversal crossing, mixed by closed contact."""
    (ka, va), (kb, vb) = a, b
    if ka == "rect" and kb == "rect":
        return (
            va.x1 <= vb.x2
            and va.x2 >= vb.x1
            and va.y1 <= vb.y2
            and va.y2 >= vb.y1
        )
    if ka == "seg" and kb == "seg":
        return segments_properly_cross(*va, *vb)
    seg = va if ka == "seg" else vb
    rect = vb if kb == "rect" else va
    return segment_meets_rect(*seg, rect)


def non_crossing_violations(
    obstacles: list[Obstacle], edges: GapEdges
) -> list[tuple[int, int, int, int]]:
    """Pairs of strictly clear edges (four distinct obstacles) whose
    drawings collide.  Expected empty: the surviving constraint graph
    embeds without crossings."""
    checked = [
        ((i, j), edge_drawing(i, j, Rect(*r), obstacles))
        for (i, j), r in zip(edges.pairs.tolist(), edges.rect.T.tolist())
        if strictly_clear(i, j, obstacles)
    ]
    out = []
    for x in range(len(checked)):
        ex, dx = checked[x]
        for y in range(x + 1, len(checked)):
            ey, dy = checked[y]
            if set(ex) & set(ey):
                continue
            if drawings_cross(dx, dy):
                out.append((*ex, *ey))
    return out
