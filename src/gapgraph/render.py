"""SVG debug rendering: obstacles, hatched gap rectangles, colored regions.

Coordinates are drawn in half-units with the y axis flipped so the world
reads the usual way up.  Output is deterministic for a given index.
"""

from __future__ import annotations

import colorsys

from .engine import FeasibilityIndex

_MARGIN = 4


def _region_color(region_id: int) -> str:
    hue = (region_id * 0.6180339887) % 1.0  # golden-ratio hue steps
    r, g, b = colorsys.hls_to_rgb(hue, 0.82, 0.65)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _region_runs(index: FeasibilityIndex):
    """Positive-area per-row runs of same-region cells: (region, x1, y1, x2, y2)."""
    part = index.partition
    xs, ys = part.grid.xs, part.grid.ys
    labels = part.labels
    nx, ny = labels.shape
    for iy in range(1, ny, 2):  # interval rows only; lines have no area
        ylo, yhi = ys[(iy - 1) // 2], ys[(iy + 1) // 2]
        ix = 1
        while ix < nx:
            reg = int(labels[ix, iy])
            if not 0 <= reg < part.region_count:
                ix += 2
                continue
            start = ix
            while ix + 2 < nx and labels[ix + 2, iy] == reg:
                ix += 2
            yield reg, xs[(start - 1) // 2], ylo, xs[(ix + 1) // 2], yhi
            ix += 2


def render_svg(
    index: FeasibilityIndex,
    show_regions: bool = True,
    show_edges: bool = True,
    show_pathways: bool = False,
) -> str:
    grid = index.partition.grid
    x0, x1 = grid.xs[0] - _MARGIN, grid.xs[-1] + _MARGIN
    y0, y1 = grid.ys[0] - _MARGIN, grid.ys[-1] + _MARGIN

    def pt(x: int, y: int) -> tuple[int, int]:
        return x - x0, y1 - y  # flip y so +y is up

    def rect_attrs(rx1: int, ry1: int, rx2: int, ry2: int) -> str:
        px, py = pt(rx1, ry2)
        w = max(rx2 - rx1, 1)
        h = max(ry2 - ry1, 1)
        return f'x="{px}" y="{py}" width="{w}" height="{h}"'

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {x1 - x0} {y1 - y0}">',
        "<defs>",
        '<pattern id="hatch" width="4" height="4" patternUnits="userSpaceOnUse">',
        '<path d="M0,4 L4,0" stroke="#8a5a00" stroke-width="0.8"/>',
        "</pattern>",
        "</defs>",
        f'<rect x="0" y="0" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="white" stroke="#444" stroke-width="0.5"/>',
    ]
    if show_regions:
        for reg, rx1, ry1, rx2, ry2 in _region_runs(index):
            out.append(
                f'<rect {rect_attrs(rx1, ry1, rx2, ry2)} '
                f'fill="{_region_color(reg)}" stroke="none"/>'
            )
    for o in index.obstacles:
        out.append(
            f'<rect {rect_attrs(o.x1, o.y1, o.x2, o.y2)} '
            'fill="#6b7280" stroke="#1f2937" stroke-width="0.4"/>'
        )
    if show_edges:
        for e in index.edges:
            r = e.edge_rect
            out.append(
                f'<rect {rect_attrs(r.x1, r.y1, r.x2, r.y2)} '
                'fill="url(#hatch)" stroke="#8a5a00" stroke-width="0.3"/>'
            )
    if show_pathways:
        for e in index.edges:
            if e.pathway is None:
                continue
            p = e.pathway
            out.append(
                f'<rect {rect_attrs(p.x1, p.y1, p.x2, p.y2)} fill="none" '
                'stroke="#b91c1c" stroke-width="0.4" stroke-dasharray="2,2"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
