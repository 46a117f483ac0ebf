"""Versioned plain-text serialization of a FeasibilityIndex.

Format v2 holds the candidate count, obstacles, gap edges, grid
coordinates, the run-length encoded cell labels, the region count and the
union-graph links.  Loading re-runs no geometry: it replays the links into
a fresh persistent DSU, so a reloaded index answers every query exactly
like the original.  The text is deterministic for a given index.
"""

from __future__ import annotations

import numpy as np

from .engine import FeasibilityIndex
from .geometry import Obstacle, Rect
from .partition import DoubledGrid, RegionPartition
from .sweep import GapEdge

FORMAT_TAG = "gapgraph-index"
FORMAT_VERSION = 2


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


def _unrle(values: list[int], shape: tuple[int, int]) -> np.ndarray:
    counts = values[0::2]
    vals = values[1::2]
    flat = np.repeat(np.array(vals, dtype=np.int32), counts)
    return flat.reshape(shape)


def save_index(index: FeasibilityIndex, path: str) -> None:
    part = index.partition
    lines: list[str] = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"candidates {index.candidate_count}")
    lines.append(f"obstacles {len(index.obstacles)}")
    for o in index.obstacles:
        lines.append(f"{o.id} {o.x1} {o.y1} {o.x2} {o.y2}")
    lines.append(f"edges {len(index.edges)}")
    for e in index.edges:
        p = e.pathway
        pw = f"{p.x1} {p.y1} {p.x2} {p.y2}" if p is not None else "- - - -"
        r = e.edge_rect
        lines.append(
            f"{e.i} {e.j} {e.capacity} {e.kind} "
            f"{r.x1} {r.y1} {r.x2} {r.y2} {pw}"
        )
    lines.append("gridx " + " ".join(str(v) for v in part.grid.xs))
    lines.append("gridy " + " ".join(str(v) for v in part.grid.ys))
    lines.append("labels " + " ".join(str(v) for v in _rle(part.labels)))
    lines.append(f"regions {part.region_count}")
    lines.append(f"links {len(index.links)}")
    for a, b, cap in index.links:
        lines.append(f"{a} {b} {cap}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_index(path: str) -> FeasibilityIndex:
    """Raises ValueError for anything but a complete v2 file."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [f"{FORMAT_TAG} {FORMAT_VERSION}"]:
        raise ValueError(f"not a {FORMAT_TAG} v{FORMAT_VERSION} file")
    try:
        return _parse(iter(lines[1:]))
    except (StopIteration, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt {FORMAT_TAG} file ({exc!r})") from None


def _parse(rows) -> FeasibilityIndex:
    def take() -> list[str]:
        return next(rows).split()

    candidate_count = int(take()[1])

    n = int(take()[1])
    obstacles = []
    for _ in range(n):
        oid, x1, y1, x2, y2 = (int(v) for v in take())
        obstacles.append(Obstacle(oid, x1, y1, x2, y2))

    m = int(take()[1])
    edges = []
    for _ in range(m):
        parts = take()
        i, j, cap = int(parts[0]), int(parts[1]), int(parts[2])
        rect = Rect(*(int(v) for v in parts[4:8]))
        pathway = None if parts[8] == "-" else Rect(*(int(v) for v in parts[8:12]))
        edges.append(GapEdge(i, j, cap, rect, pathway, parts[3]))

    xs = [int(v) for v in take()[1:]]
    ys = [int(v) for v in take()[1:]]
    grid = DoubledGrid(xs, ys)
    labels = _unrle([int(v) for v in take()[1:]], grid.shape)
    part = RegionPartition(grid, labels, int(take()[1]))

    nlinks = int(take()[1])
    links = [tuple(int(v) for v in take()) for _ in range(nlinks)]

    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=candidate_count,
        partition=part,
        links=links,
    )
