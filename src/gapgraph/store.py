"""Versioned plain-text serialization of a FeasibilityIndex.

Format v4 holds only what cannot be rebuilt cheaply: the candidate count,
the obstacles (`x1 y1 x2 y2`, the id is the line's position), the gap edges
as obstacle pairs (`i j`), the run-length encoded cell labels (each cell's
union-graph node id, or -1 for walls), the region count and the union-graph
links.  Loading rebuilds the edges from their pairs (sweep.gap_edges) and
the grid from the obstacles, the same functions the build uses; it rejects
a misnamed section, a negative count, a line of the wrong width, a
coordinate beyond 2 * COORD_LIMIT half-units (before numpy's int64
arithmetic could wrap), a pair that is out of order or out of range or has
no passage, a label that names no node, a link the index could not have
made (_check_links), and any line after the links.
It replays the links into a fresh persistent DSU, so a reloaded index
answers every query exactly like the original.  The text is
deterministic for a given index.  Files of earlier versions are rejected.
"""

from __future__ import annotations

import numpy as np

from .engine import FeasibilityIndex
from .geometry import COORD_LIMIT, Obstacle
from .partition import WALL_CELL, RegionPartition, build_grid, node_capacities
from .sweep import gap_edges

FORMAT_TAG = "gapgraph-index"
FORMAT_VERSION = 4


def _rle(array: np.ndarray) -> list[int]:
    """(count, value) runs of a non-empty array in row-major order, flat."""
    flat = np.asarray(array).ravel()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(flat)) + 1))
    counts = np.diff(starts, append=flat.size)
    return np.column_stack((counts, flat[starts])).ravel().tolist()


def _unrle(values: list[int], shape: tuple[int, int], nodes: int) -> np.ndarray:
    """Cell labels from (count, label) runs; each label must name one of
    `nodes` union-graph nodes or be WALL_CELL.  The counts are checked
    before anything is expanded."""
    counts = values[0::2]
    if min(counts, default=1) < 1 or sum(counts) != shape[0] * shape[1]:
        raise ValueError(f"label runs do not cover the {shape[0]}x{shape[1]} grid")
    labels = np.array(values[1::2], dtype=np.int32)
    if labels.size and (labels.min() < WALL_CELL or labels.max() >= nodes):
        raise ValueError(f"cell label outside [{WALL_CELL}, {nodes})")
    return np.repeat(labels, values[0::2]).reshape(shape)


def save_index(index: FeasibilityIndex, path: str) -> None:
    part = index.partition
    lines: list[str] = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"candidates {index.candidate_count}")
    lines.append(f"obstacles {len(index.obstacles)}")
    lines += [f"{o.x1} {o.y1} {o.x2} {o.y2}" for o in index.obstacles]
    lines.append(f"edges {len(index.edges)}")
    lines += [f"{i} {j}" for i, j in index.edges.pairs.tolist()]
    lines.append("labels " + " ".join(str(v) for v in _rle(part.labels)))
    lines.append(f"regions {part.region_count}")
    lines.append(f"links {len(index.links)}")
    lines += [f"{a} {b} {cap}" for a, b, cap in index.links.tolist()]
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


def _check_links(links: np.ndarray, region_count: int, caps: np.ndarray) -> None:
    """ValueError naming the first link that partition.seal_links cannot
    make; whether its two nodes own touching cells is not checked."""
    a, b, cap = links.T
    ok = (0 <= a) & (a < b) & (b < len(caps)) & (b >= region_count)
    ok[ok] = cap[ok] == np.minimum(caps[a[ok]], caps[b[ok]])
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"link {links[bad[0]].tolist()} is not one the index makes")


def _parse(rows) -> FeasibilityIndex:
    def section(name: str) -> list[str]:
        key, *rest = next(rows).split(maxsplit=1)
        if key != name:
            raise ValueError(f"expected a {name!r} line, got {key!r}")
        return rest[0].split() if rest else []

    def count(name: str) -> int:
        (value,) = section(name)
        n = int(value)
        if n < 0:
            raise ValueError(f"negative {name} count {n}")
        return n

    def table(name: str, width: int) -> np.ndarray:
        """The lines a `name` count announces, as int64 (count, width) rows;
        reshaping to the count, not to (-1, width), fails any other width."""
        k = count(name)
        lines = [[int(v) for v in next(rows).split()] for _ in range(k)]
        return np.array(lines, dtype=np.int64).reshape(k, width)

    candidate_count = count("candidates")

    corners = table("obstacles", 4)
    limit = 2 * COORD_LIMIT
    outside = np.flatnonzero(((corners < -limit) | (corners > limit)).any(axis=1))
    if outside.size:
        raise ValueError(f"obstacle {outside[0]}: coordinate outside [-2**61, 2**61]")
    obstacles = [Obstacle(k, *c) for k, c in enumerate(corners.tolist())]
    rects = np.ascontiguousarray(corners.T)

    n = len(obstacles)
    pairs = table("edges", 2)
    i, j = pairs.T
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        raise ValueError(f"edge {pairs[bad[0]].tolist()} outside 0 <= i < j < {n}")
    edges = gap_edges(pairs, rects)

    grid = build_grid(rects)
    runs = [int(v) for v in section("labels")]
    region_count = count("regions")
    labels = _unrle(runs, grid.shape, region_count + len(edges))
    part = RegionPartition(grid, labels, region_count)

    links = table("links", 3)
    _check_links(links, region_count, node_capacities(region_count, edges))
    if next(rows, None) is not None:
        raise ValueError("trailing lines after the links")

    return FeasibilityIndex(
        obstacles=obstacles,
        edges=edges,
        candidate_count=candidate_count,
        partition=part,
        links=links,
    )
