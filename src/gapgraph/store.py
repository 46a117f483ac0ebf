"""Versioned plain-text serialization of a FeasibilityIndex.

Format v4 holds only what cannot be rebuilt cheaply: the candidate count,
the obstacles (`x1 y1 x2 y2`, the id is the line's position), the gap edges
as obstacle pairs (`i j`), the run-length encoded cell labels (each cell's
union-graph node id, or -1 for walls), the region count and the union-graph
links.  Loading rebuilds each edge from its pair and the grid from the
obstacles and edges, the same functions the build uses; it rejects a pair
that is out of order or out of range or has no passage, and a label that
names no node.  It replays the links into a fresh persistent DSU, so a
reloaded index answers every query exactly like the original.  The text is
deterministic for a given index.  Files of earlier versions are rejected.
"""

from __future__ import annotations

import numpy as np

from .engine import FeasibilityIndex
from .geometry import Obstacle
from .partition import WALL_CELL, RegionPartition, build_grid
from .sweep import make_gap_edge

FORMAT_TAG = "gapgraph-index"
FORMAT_VERSION = 4


def _rle(array: np.ndarray) -> list[int]:
    flat = np.asarray(array).ravel()
    if flat.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [flat.size]))
    out: list[int] = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        out.extend((e - s, int(flat[s])))
    return out


def _unrle(values: list[int], shape: tuple[int, int], nodes: int) -> np.ndarray:
    """Cell labels from (count, label) runs; each label must name one of
    `nodes` union-graph nodes or be WALL_CELL."""
    labels = np.array(values[1::2], dtype=np.int32)
    if labels.size and (labels.min() < WALL_CELL or labels.max() >= nodes):
        raise ValueError(f"cell label outside [{WALL_CELL}, {nodes})")
    return np.repeat(labels, values[0::2]).reshape(shape)


def save_index(index: FeasibilityIndex, path: str) -> None:
    part = index.partition
    lines: list[str] = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"candidates {index.candidate_count}")
    lines.append(f"obstacles {len(index.obstacles)}")
    for o in index.obstacles:
        lines.append(f"{o.x1} {o.y1} {o.x2} {o.y2}")
    lines.append(f"edges {len(index.edges)}")
    for e in index.edges:
        lines.append(f"{e.i} {e.j}")
    lines.append("labels " + " ".join(str(v) for v in _rle(part.labels)))
    lines.append(f"regions {part.region_count}")
    lines.append(f"links {len(index.links)}")
    for a, b, cap in index.links:
        lines.append(f"{a} {b} {cap}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str) -> FeasibilityIndex:
    """Raises ValueError for anything but a complete, consistent v4 file."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [f"{FORMAT_TAG} {FORMAT_VERSION}"]:
        raise ValueError(f"not a {FORMAT_TAG} v{FORMAT_VERSION} file")
    try:
        return _parse(iter(lines[1:]))
    except (StopIteration, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt {FORMAT_TAG} file ({exc!r})") from None


def _parse(rows) -> FeasibilityIndex:
    def take() -> list[int]:
        return [int(v) for v in next(rows).split()]

    def count() -> int:
        return int(next(rows).split()[1])

    candidate_count = count()

    n = count()
    obstacles = []
    for k in range(n):
        x1, y1, x2, y2 = take()
        obstacles.append(Obstacle(k, x1, y1, x2, y2))

    edges = []
    for _ in range(count()):
        i, j = take()
        if not 0 <= i < j < n:
            raise ValueError(f"edge ({i}, {j}) outside 0 <= i < j < {n}")
        edges.append(make_gap_edge(obstacles[i], obstacles[j]))

    grid = build_grid(obstacles, edges)
    runs = [int(v) for v in next(rows).split()[1:]]
    region_count = count()
    labels = _unrle(runs, grid.shape, region_count + len(edges))
    part = RegionPartition(grid, labels, region_count)

    links = [tuple(take()) for _ in range(count())]

    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=candidate_count,
        partition=part,
        links=links,
    )
