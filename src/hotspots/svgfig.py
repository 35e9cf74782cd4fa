"""Deterministic SVG rendering of domains, exclusion regions, critical points,
and nodal lines.

Convention: the domain is filled gray and the exclusion region is painted
white on top, so the gray band left over is exactly the region where critical
points are allowed.  Interior critical points draw as red dots, boundary
extrema as blue dots.  Output is plain SVG 1.1 with no external references;
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

GRAY = "#c8c8c8"
NODAL = "#1a7a32"
MESH = "#9a9a9a"

MARGIN_FRACTION = 0.05


def _fmt(v: float) -> str:
    return f"{v:.8g}"


def _points_attr(points) -> str:
    return " ".join(f"{_fmt(float(x))},{_fmt(-float(y))}" for x, y in points)


def render_svg(
    polygon,
    region_boundary,
    critical_points,
    boundary_extrema,
    out_path,
    nodal_segments=None,
    mesh_edges=None,
) -> None:
    """Write the Figure-1-style plot. All inputs are plain sequences of
    [x, y] pairs (nodal_segments/mesh_edges: pairs of endpoints)."""
    xs = [float(p[0]) for p in polygon]
    ys = [float(p[1]) for p in polygon]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    w = xmax - xmin
    h = ymax - ymin
    m = MARGIN_FRACTION * max(w, h)
    view = f"{_fmt(xmin - m)} {_fmt(-ymax - m)} {_fmt(w + 2 * m)} {_fmt(h + 2 * m)}"
    stroke = 0.004 * max(w, h)
    dot = 0.012 * max(w, h)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" '
        f'width="640" height="{_fmt(640 * (h + 2 * m) / (w + 2 * m))}">',
        f'<polygon points="{_points_attr(polygon)}" fill="{GRAY}" stroke="none"/>',
        f'<polygon points="{_points_attr(region_boundary)}" fill="#ffffff" stroke="none"/>',
    ]
    for segments, color, width in ((mesh_edges, MESH, 0.25), (nodal_segments, NODAL, 0.8)):
        for a, b in segments if segments is not None else ():
            lines.append(
                f'<line x1="{_fmt(float(a[0]))}" y1="{_fmt(-float(a[1]))}" '
                f'x2="{_fmt(float(b[0]))}" y2="{_fmt(-float(b[1]))}" '
                f'stroke="{color}" stroke-width="{_fmt(width * stroke)}"/>'
            )
    lines.append(
        f'<polygon points="{_points_attr(polygon)}" fill="none" '
        f'stroke="#000000" stroke-width="{_fmt(stroke)}"/>'
    )
    for dots, color in ((boundary_extrema, "#1f4fd8"), (critical_points, "#d81f1f")):
        for x, y in dots:
            lines.append(
                f'<circle cx="{_fmt(float(x))}" cy="{_fmt(-float(y))}" r="{_fmt(dot)}" '
                f'fill="{color}"/>'
            )
    lines.append("</svg>")
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
