"""Reference verdicts computed apart from the gap-graph pipeline.

For one robot side d, every obstacle grows by d/2 and the robot becomes a
point.  A point is a valid placement iff it lies outside every open grown
rectangle (open robot, closed obstacles), and two valid placements are
connected iff they share a 4-connected component of the free cells of a
doubled compressed grid over the grown coordinates (even cells are
coordinate lines, odd cells the open intervals between them).  The grid is
labelled once per d and then answers any number of queries with that d.

Everything runs in half-units (external coordinates doubled), so d/2 is an
integer.  Nothing here imports gapgraph.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

#: One character per verdict, as the benchmark stores verdict strings.
FEASIBLE, INFEASIBLE, INVALID_START, INVALID_GOAL = "F", "I", "S", "G"
CODE = {
    "FEASIBLE": FEASIBLE,
    "INFEASIBLE": INFEASIBLE,
    "INVALID_START": INVALID_START,
    "INVALID_GOAL": INVALID_GOAL,
}


def _cells(coords: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Doubled-grid cell index of each value in v (clamped to the sentinels)."""
    i = np.searchsorted(coords, v, side="left")
    on_line = (i < len(coords)) & (coords[np.minimum(i, len(coords) - 1)] == v)
    cell = np.where(on_line, 2 * i, 2 * i - 1)
    return np.clip(cell, 0, 2 * len(coords) - 2)


class SizeReference:
    """Free-space labelling for one robot side d (external units)."""

    def __init__(self, rects: np.ndarray, d: int):
        h = d  # d/2 in half-units
        x1, y1 = 2 * rects[:, 0] - h, 2 * rects[:, 1] - h
        x2, y2 = 2 * rects[:, 2] + h, 2 * rects[:, 3] + h
        xs = np.unique(np.concatenate((x1, x2)))
        ys = np.unique(np.concatenate((y1, y2)))
        self.xs = np.concatenate(([xs[0] - 2], xs, [xs[-1] + 2]))
        self.ys = np.concatenate(([ys[0] - 2], ys, [ys[-1] + 2]))
        covered = np.zeros((2 * len(self.xs) - 1, 2 * len(self.ys) - 1), dtype=bool)
        i1 = np.searchsorted(self.xs, x1)
        i2 = np.searchsorted(self.xs, x2)
        j1 = np.searchsorted(self.ys, y1)
        j2 = np.searchsorted(self.ys, y2)
        # Open grown rectangle: only the cells strictly inside its lines.
        for a, b, c, e in zip(
            (2 * i1 + 1).tolist(), (2 * i2).tolist(), (2 * j1 + 1).tolist(), (2 * j2).tolist()
        ):
            covered[a:b, c:e] = True
        self.covered = covered
        self.labels = ndimage.label(~covered, structure=CROSS)[0]

    def cells(self, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cells of external-unit points."""
        return _cells(self.xs, 2 * px), _cells(self.ys, 2 * py)

    def free(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        cx, cy = self.cells(px, py)
        return ~self.covered[cx, cy]

    def component(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Free-space component of each point; 0 for an invalid placement."""
        cx, cy = self.cells(px, py)
        return self.labels[cx, cy]


def reference_verdicts(rects: np.ndarray, queries: np.ndarray) -> str:
    """One verdict character per query row (sx, sy, tx, ty, d), all in
    external units; the grid is labelled once per distinct d."""
    out = np.empty(len(queries), dtype="<U1")
    for d in np.unique(queries[:, 4]).tolist():
        rows = np.flatnonzero(queries[:, 4] == d)
        q = queries[rows]
        ref = SizeReference(rects, d)
        cs = ref.component(q[:, 0], q[:, 1])
        ct = ref.component(q[:, 2], q[:, 3])
        out[rows] = np.where(
            cs == 0,
            INVALID_START,
            np.where(ct == 0, INVALID_GOAL, np.where(cs == ct, FEASIBLE, INFEASIBLE)),
        )
    return "".join(out.tolist())


def brute_force_free(rects: np.ndarray, px: np.ndarray, py: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Placement test by a scan over every obstacle: the open square of side
    d centred at p misses every closed rectangle.  Half-unit comparisons."""
    out = np.empty(len(px), dtype=bool)
    x1, y1 = 2 * rects[:, 0], 2 * rects[:, 1]
    x2, y2 = 2 * rects[:, 2], 2 * rects[:, 3]
    for k in range(len(px)):
        X, Y, h = 2 * int(px[k]), 2 * int(py[k]), int(d[k])
        hit = (x1 - h < X) & (X < x2 + h) & (y1 - h < Y) & (Y < y2 + h)
        out[k] = not hit.any()
    return out
