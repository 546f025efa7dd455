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


def _interp(pa, pb, va, vb, level):
    t = (level - va) / (vb - va)
    return (pa[0] + t * (pb[0] - pa[0]), pa[1] + t * (pb[1] - pa[1]))


def marching_squares(values, xs, ys, level) -> list[np.ndarray]:
    """Polylines of the level set of node values on the xs x ys lattice."""
    values = np.asarray(values, dtype=float)
    inside = values > level
    # each cell's inside corners: the level crosses the cells with 1 to 3
    ins = inside.astype(int)
    count = ins[:-1, :-1] + ins[1:, :-1] + ins[1:, 1:] + ins[:-1, 1:]
    segments = []
    for i, j in zip(*np.nonzero(count % 4)):  # row-major, as (i, j) nested loops
        corners = (
            ((xs[i], ys[j]), values[i, j], inside[i, j]),
            ((xs[i + 1], ys[j]), values[i + 1, j], inside[i + 1, j]),
            ((xs[i + 1], ys[j + 1]), values[i + 1, j + 1], inside[i + 1, j + 1]),
            ((xs[i], ys[j + 1]), values[i, j + 1], inside[i, j + 1]),
        )
        crossings = []
        for e in range(4):
            (pa, va, ia) = corners[e]
            (pb, vb, ib) = corners[(e + 1) % 4]
            if ia != ib:
                crossings.append((e, _interp(pa, pb, va, vb, level)))
        if len(crossings) == 2:
            segments.append((crossings[0][1], crossings[1][1]))
        else:
            # saddle: four crossings in edge order 0,1,2,3; the center
            # average decides which opposite corners stay connected
            pts = {e: p for e, p in crossings}
            center_inside = values[i : i + 2, j : j + 2].mean() > level
            first_inside = corners[0][2]
            if center_inside == first_inside:
                segments.append((pts[0], pts[1]))
                segments.append((pts[2], pts[3]))
            else:
                segments.append((pts[3], pts[0]))
                segments.append((pts[1], pts[2]))
    return _chain(segments)


def _key(p):
    return (round(p[0], 9), round(p[1], 9))


def _chain(segments) -> list[np.ndarray]:
    """Join segments sharing endpoints into polylines, insertion ordered."""
    by_end: dict = {}
    for idx, (a, b) in enumerate(segments):
        by_end.setdefault(_key(a), []).append(idx)
        by_end.setdefault(_key(b), []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for grow_front in (False, True):
            while True:
                tip = _key(chain[0] if grow_front else chain[-1])
                nxt = None
                for idx in by_end.get(tip, ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                sa, sb = segments[nxt]
                point = sb if _key(sa) == tip else sa
                if grow_front:
                    chain.insert(0, point)
                else:
                    chain.append(point)
        polylines.append(np.asarray(chain, dtype=float))
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


def polylines_to_svg(levelsets, bbox: Bbox, size: int = 640) -> str:
    """Standalone SVG, one path per polyline; y flipped to point upward.

    levelsets is a sequence of (level, polylines) pairs; paths carry their
    level in a data attribute so figures stay inspectable.
    """
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    width = xmax - xmin
    height = ymax - ymin
    stroke = 0.004 * max(width, height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{math.ceil(size * height / width)}" '
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
