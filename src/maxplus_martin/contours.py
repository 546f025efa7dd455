"""Level sets of scalar fields on a planar box, plus CSV and SVG emitters.

Marching squares with linear interpolation on cell edges.  Ambiguous
saddle cells are split by the cell-center average.  Segments are chained
into polylines in a deterministic order so repeated runs produce
byte-identical artifacts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, EmptyContour
from .lq import MAX_GRID_POINTS

Bbox = tuple[float, float, float, float]
SVG_WIDTH = 640  # pixels; the height follows the box's aspect ratio


def _axes(bbox: Bbox, resolution: int):
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    if not (xmin < xmax and ymin < ymax):
        raise DimensionMismatch("bounding box must have positive extent")
    if resolution < 16:
        raise DimensionMismatch("resolution must be at least 16 cells per axis")
    if (resolution + 1) ** 2 > MAX_GRID_POINTS:
        raise DimensionMismatch(
            f"contour grid of {resolution + 1}^2 points exceeds "
            f"{MAX_GRID_POINTS}; lower the resolution"
        )
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    return xs, ys


def sample_field(h, bbox: Bbox, resolution: int):
    """Node values of h on the (resolution+1)^2 lattice of the box."""
    xs, ys = _axes(bbox, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=-1)
    vals = np.asarray(h(pts), dtype=float).reshape(len(xs), len(ys))
    return xs, ys, vals


# corner k of a cell is node (i + DI[k], j + DJ[k]); edge k joins corners k, k + 1
DI = np.array([0, 1, 1, 0, 0])
DJ = np.array([0, 0, 1, 1, 0])


def marching_squares(values, xs, ys, level) -> list[np.ndarray]:
    """Polylines of the level set of node values on the xs x ys lattice."""
    values = np.asarray(values, dtype=float)
    inside = values > level
    # each cell's inside corners: the level crosses the cells with 1 to 3
    ins = inside.astype(int)
    count = ins[:-1, :-1] + ins[1:, :-1] + ins[1:, 1:] + ins[:-1, 1:]
    ci, cj = np.nonzero(count % 4)  # row-major, as (i, j) nested loops
    crossed = np.diff(inside[ci + DI[:, None], cj + DJ[:, None]], axis=0)  # (4, cells)
    cell, e = np.nonzero(crossed.T)  # cell by cell, edges in order
    ai, aj = ci[cell] + DI[e], cj[cell] + DJ[e]
    bi, bj = ci[cell] + DI[e + 1], cj[cell] + DJ[e + 1]
    va, vb = values[ai, aj], values[bi, bj]
    t = (level - va) / (vb - va)
    px = xs[ai] + t * (xs[bi] - xs[ai])
    py = ys[aj] + t * (ys[bj] - ys[aj])
    points = list(zip(px.tolist(), py.tolist()))
    segments = []
    k = 0
    for i, j, m in zip(ci.tolist(), cj.tolist(), crossed.sum(axis=0).tolist()):
        p, k = points[k : k + m], k + m
        if m == 2:
            segments.append(p)
        # saddle: the center average decides which opposite corners connect
        elif (values[i : i + 2, j : j + 2].mean() > level) == inside[i, j]:
            segments += [(p[0], p[1]), (p[2], p[3])]
        else:
            segments += [(p[3], p[0]), (p[1], p[2])]
    return _chain(segments)


def _chain(segments) -> list[np.ndarray]:
    """Join segments sharing endpoints into polylines, insertion ordered."""
    ends = [p for segment in segments for p in segment]
    # end 2s and end 2s + 1 are segment s's; each is rounded once
    keys = [(round(x, 9), round(y, 9)) for x, y in ends]
    by_end: dict = {}
    for end, key in enumerate(keys):
        by_end.setdefault(key, []).append(end // 2)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        back, front = [2 * start + 1], [2 * start]
        for line in (back, front):  # grow from the second end, then the first
            while True:
                tip = keys[line[-1]]
                nxt = next((s for s in by_end[tip] if not used[s]), None)
                if nxt is None:
                    break
                used[nxt] = True
                line.append(2 * nxt + 1 if keys[2 * nxt] == tip else 2 * nxt)
        polylines.append(np.asarray([ends[i] for i in front[::-1] + back], dtype=float))
    return polylines


def horosphere_contour(h, level, bbox: Bbox, resolution: int = 256) -> list[np.ndarray]:
    """Level set of h on the box; raises EmptyContour when it misses."""
    xs, ys, vals = sample_field(h, bbox, resolution)
    polylines = marching_squares(vals, xs, ys, float(level))
    if not polylines:
        raise EmptyContour(f"level {level} does not intersect the sampled box")
    return polylines


def polylines_to_csv(levelsets) -> str:
    """Columns level,x,y under a header; a blank line ends each polyline.

    levelsets is a sequence of (level, polylines) pairs, as for the SVG.
    """
    rows = ["level,x,y"]
    for level, polylines in levelsets:
        for line in polylines:
            rows.extend(f"{level:.12g},{p[0]:.12g},{p[1]:.12g}" for p in line)
            rows.append("")
    while not rows[-1]:
        rows.pop()
    return "\n".join(rows) + "\n"


def polylines_to_svg(levelsets, bbox: Bbox) -> str:
    """Standalone SVG, one path per polyline; y flipped to point upward.

    levelsets is a sequence of (level, polylines) pairs; paths carry their
    level in a data attribute so figures stay inspectable.
    """
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    width = xmax - xmin
    height = ymax - ymin
    stroke = 0.004 * max(width, height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'height="{math.ceil(SVG_WIDTH * height / width)}" '
        f'viewBox="{xmin:.9g} {-ymax:.9g} {width:.9g} {height:.9g}">',
        f'<rect x="{xmin:.9g}" y="{-ymax:.9g}" width="{width:.9g}" '
        f'height="{height:.9g}" fill="white" stroke="black" '
        f'stroke-width="{stroke / 2:.9g}"/>',
    ]
    for level, polylines in levelsets:
        for line in polylines:
            coords = " L ".join(f"{p[0]:.9g} {-p[1]:.9g}" for p in line)
            parts.append(
                f'<path d="M {coords}" fill="none" stroke="black" '
                f'stroke-width="{stroke:.9g}" data-level="{level:.9g}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
