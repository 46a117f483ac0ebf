"""The dense partition: the reference for partition.build_partition and
partition.seal_links.

It paints every obstacle and gap rectangle into a bool grid, labels the
free cells 4-connectedly with scipy.ndimage.label, and reads the links off
every pair of 4-adjacent cells of the labelled grid, 64 grid rows at a
time.  It costs one pass over all cells for each step, so use it on small
worlds and the benchmark's seed-1 worlds only.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from gapgraph.partition import (
    WALL_CELL,
    DoubledGrid,
    RegionPartition,
    node_capacities,
    sorted_unique,
)
from gapgraph.sweep import GapEdges

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)

_LINK_BLOCK_ROWS = 64  # grid rows seal_links compares per numpy pass


def build_partition(rects: np.ndarray, edges: GapEdges, grid: DoubledGrid) -> RegionPartition:
    """partition.build_partition by painting and labelling every cell:
    regions numbered by ndimage.label, then sealed edge rectangles (the
    higher edge index owns a cell where they overlap), then walls over
    both.  The column runs are read off the labelled grid."""
    walls, seals = grid.closed(rects), grid.closed(edges.rect)
    free = np.ones(grid.shape, dtype=bool)
    for x0, y0, x1, y1 in np.hstack((walls, seals)).T.tolist():
        free[x0:x1, y0:y1] = False
    labels, count = ndimage.label(free, structure=_CROSS, output=np.int32)
    del free
    labels -= 1  # scipy numbers regions from 1 and leaves 0 elsewhere
    for k, (x0, y0, x1, y1) in enumerate(seals.T.tolist(), start=count):
        labels[x0:x1, y0:y1] = k
    for x0, y0, x1, y1 in walls.T.tolist():
        labels[x0:x1, y0:y1] = WALL_CELL
    flat = labels.ravel()
    new = np.ones(flat.size, dtype=bool)
    new[1:] = flat[1:] != flat[:-1]
    new[:: grid.shape[1]] = True  # every column starts a run
    starts = np.flatnonzero(new)
    return RegionPartition(grid, labels, int(count), starts, flat[starts])


def seal_links(part: RegionPartition, edges: GapEdges) -> np.ndarray:
    """The links of partition.seal_links, read off every 4-adjacent pair of
    cells in part.labels rather than off the runs."""
    rc = part.region_count
    labels = part.labels
    nodes = rc + len(edges)
    keys = [np.empty(0, dtype=np.int64)]
    for r0 in range(0, labels.shape[0], _LINK_BLOCK_ROWS):
        rows = labels[r0 : r0 + _LINK_BLOCK_ROWS]
        below = labels[r0 + 1 : r0 + _LINK_BLOCK_ROWS + 1]
        for a, b in ((rows[: len(below)], below), (rows[:, :-1], rows[:, 1:])):
            touch = (a != b) & (a != WALL_CELL) & (b != WALL_CELL)
            u, v = a[touch], b[touch]
            key = np.minimum(u, v).astype(np.int64) * nodes + np.maximum(u, v)
            keys.append(sorted_unique(key))
    a, b = np.divmod(sorted_unique(np.concatenate(keys)), nodes)
    touching = np.flatnonzero(b < rc)
    if touching.size:
        k = touching[0]
        raise ValueError(f"regions {a[k]} and {b[k]} touch")

    ra, rb = edges.rect[:, np.maximum(a - rc, 0)], edges.rect[:, b - rc]  # b is a seal
    ox = np.minimum(ra[2], rb[2]) - np.maximum(ra[0], rb[0])
    oy = np.minimum(ra[3], rb[3]) - np.maximum(ra[1], rb[1])
    keep = (a < rc) | (ox != 0) | (oy != 0)
    a, b = a[keep], b[keep]
    caps = node_capacities(rc, edges)
    return np.column_stack((a, b, np.minimum(caps[a], caps[b])))
