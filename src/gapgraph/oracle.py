"""Exact brute-force references used by the acceptance and property tests.

Feasibility goes through obstacle expansion: grow every obstacle by d/2,
then the robot is a point and the free space is the complement of the open
expanded rectangles (open robot, closed obstacles: boundary contact stays
free).  A doubled compressed grid over the expanded coordinates represents
that arrangement exactly, so a 4-connected component check has no
discretization error.  This path shares nothing with the gap-edge pipeline.

The relevant-edge enumerator is the O(n^3) definition: a pair's constraint
counts iff no third obstacle meets the open interior of its minimum
pathway.  minimum_pathway is the reference's own scalar definition of that
corridor, on Python ints; the pipeline derives its pathways as int64
columns (sweep.pathways), so the two edge enumerations share no code.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from scipy import ndimage

from .engine import Verdict
from .geometry import Obstacle, Rect, gaps

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)


def _cell(coords: list[int], v: int) -> int:
    i = bisect_left(coords, v)
    if i == len(coords):
        return 2 * len(coords) - 2
    if coords[i] == v:
        return 2 * i
    if i == 0:
        return 0
    return 2 * i - 1


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


def oracle_feasible(
    obstacles: list[Obstacle],
    s: tuple[int, int],
    t: tuple[int, int],
    d: int,
    extra_x: tuple[int, ...] = (),
    extra_y: tuple[int, ...] = (),
) -> Verdict:
    """Ground-truth verdict for a half-unit query (d positive and even).

    extra_x/extra_y inject unused grid coordinates; verdicts must not
    depend on them (refinement invariance).
    """
    if d <= 0 or d % 2:
        raise ValueError("robot side must be a positive even half-unit count")
    if not obstacles:
        return Verdict.FEASIBLE
    h = d // 2
    xs_set: set[int] = set(extra_x)
    ys_set: set[int] = set(extra_y)
    for o in obstacles:
        xs_set.update((o.x1 - h, o.x2 + h))
        ys_set.update((o.y1 - h, o.y2 + h))
    xs = sorted({min(xs_set) - 2, *xs_set, max(xs_set) + 2})
    ys = sorted({min(ys_set) - 2, *ys_set, max(ys_set) + 2})
    xi = {v: k for k, v in enumerate(xs)}
    yi = {v: k for k, v in enumerate(ys)}

    covered = np.zeros((2 * len(xs) - 1, 2 * len(ys) - 1), dtype=bool)
    for o in obstacles:
        # Open expanded rectangle: strictly interior cells only.
        covered[
            2 * xi[o.x1 - h] + 1 : 2 * xi[o.x2 + h],
            2 * yi[o.y1 - h] + 1 : 2 * yi[o.y2 + h],
        ] = True

    cs = (_cell(xs, s[0]), _cell(ys, s[1]))
    ct = (_cell(xs, t[0]), _cell(ys, t[1]))
    if covered[cs]:
        return Verdict.INVALID_START
    if covered[ct]:
        return Verdict.INVALID_GOAL
    labels, _ = ndimage.label(~covered, structure=_CROSS)
    return Verdict.FEASIBLE if labels[cs] == labels[ct] else Verdict.INFEASIBLE


def oracle_relevant_edges(obstacles: list[Obstacle]) -> set[tuple[int, int]]:
    """All passable pairs whose open pathway interior meets no third
    obstacle (boundary contact does not block)."""
    out: set[tuple[int, int]] = set()
    n = len(obstacles)
    for i in range(n):
        a = obstacles[i]
        for j in range(i + 1, n):
            b = obstacles[j]
            p = minimum_pathway(a, b)
            if p is None:
                continue
            blocked = False
            for k in range(n):
                if k == i or k == j:
                    continue
                o = obstacles[k]
                if (
                    o.x1 < p.x2
                    and o.x2 > p.x1
                    and o.y1 < p.y2
                    and o.y2 > p.y1
                ):
                    blocked = True
                    break
            if not blocked:
                out.add((a.id, b.id) if a.id < b.id else (b.id, a.id))
    return out
