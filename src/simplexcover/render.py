"""Minimal standalone SVG renderer for planar scenes.

One scene is a point set plus any number of styled simplex outlines
(triangles in the plane).  Output is a self-contained SVG string with an
auto-fit viewBox carrying a 5% margin; the y axis is flipped so larger y
is drawn higher, matching mathematical convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import InputFormatError
from .geometry import PointSet, Simplex

_SVG_WIDTH = 640


@dataclass(frozen=True)
class SimplexStyle:
    stroke: str = "#d62728"
    fill: str = "none"
    stroke_width: float = 0.01
    label: Optional[str] = None


def _fmt(x: float) -> str:
    s = f"{x:.6g}"
    return "0" if s == "-0" else s


def _floats(rows: Sequence[Sequence], what: str) -> List[Tuple[float, ...]]:
    """``rows`` as floats; an input error names ``what`` when a value is
    not a finite float (an exact one past the float range, or an infinity)."""
    try:
        out = [tuple(map(float, r)) for r in rows]
    except OverflowError:
        out = [(math.inf,)]
    if not all(math.isfinite(v) for r in out for v in r):
        raise InputFormatError(f"cannot render: {what} is not a finite float")
    return out


def render_scene_2d(
    x: PointSet,
    simplices: Sequence[Tuple[Simplex, SimplexStyle]] = (),
    path: Optional[str] = None,
    point_color: str = "#1f77b4",
) -> str:
    """Render dots for x and a stroked polygon per simplex; returns the SVG.

    When ``path`` is given the SVG is also written there.
    """
    if x.dim != 2:
        raise InputFormatError(f"rendering needs d = 2 input, got d = {x.dim}")
    for s, _ in simplices:
        if s.dim != 2:
            raise InputFormatError("all rendered simplices must be planar")

    points = _floats(x.points, "a point coordinate")
    corners = [_floats(s.vertices, "a simplex coordinate") for s, _ in simplices]
    xs = [p[0] for p in points] + [v[0] for vs in corners for v in vs]
    ys = [p[1] for p in points] + [v[1] for vs in corners for v in vs]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    margin = 0.05 * span
    xmin -= margin
    xmax += margin
    ymin -= margin
    ymax += margin

    # Flip y by emitting -y and shifting the viewBox accordingly.
    vb = (xmin, -ymax, xmax - xmin, ymax - ymin)
    if not all(map(math.isfinite, (span, *vb, _SVG_WIDTH * vb[3] / vb[2]))):
        raise InputFormatError("cannot render: the scene's span is not a finite float")
    height = round(_SVG_WIDTH * vb[3] / vb[2])
    radius = 0.012 * span
    stroke_scale = span

    lines: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{height}" viewBox="{_fmt(vb[0])} {_fmt(vb[1])} '
        f'{_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    for vs, (_, style) in zip(corners, simplices):
        pts = " ".join(f"{_fmt(v[0])},{_fmt(-v[1])}" for v in vs)
        label = f"><title>{style.label}</title></polygon>" if style.label else "/>"
        lines.append(
            f'<polygon points="{pts}" fill="{style.fill}" '
            f'stroke="{style.stroke}" '
            f'stroke-width="{_fmt(style.stroke_width * stroke_scale)}"{label}'
        )
    for p in points:
        lines.append(
            f'<circle cx="{_fmt(p[0])}" cy="{_fmt(-p[1])}" '
            f'r="{_fmt(radius)}" fill="{point_color}"/>'
        )
    lines.append("</svg>")
    svg = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return svg
