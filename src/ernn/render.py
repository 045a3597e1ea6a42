"""Deterministic SVG pictures of layouts, for eyeballing placements.

Renders stripes (tinted by gadget family), data lines, the three sample
verticals, constraint points, and probes. Exact coordinates are carried as
Fractions until the last moment and formatted with fixed precision, so the
same layout always yields byte-identical SVG.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .geometry import Direction, OrientedLine
from .layout import Layout, realize

_FAMILY_COLOR = {
    "canonical": "#4878b0",
    "copy": "#4ca64c",
    "inversion": "#c05050",
    "lower bound": "#b89b30",
}


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _clip_polygon(
    poly: List[Tuple[Fraction, Fraction]], a: Fraction, b: Fraction, c: Fraction
) -> List[Tuple[Fraction, Fraction]]:
    """Keep the part of poly with a*x + b*y <= c (Sutherland-Hodgman step)."""
    out: List[Tuple[Fraction, Fraction]] = []
    excess = [a * x + b * y - c for x, y in poly]
    n = len(poly)
    for i in range(n):
        p, ep = poly[i], excess[i]
        q, eq = poly[(i + 1) % n], excess[(i + 1) % n]
        if ep <= 0:
            out.append(p)
        if (ep <= 0) != (eq <= 0):
            # interpolate crossing of segment pq with the line a x + b y = c
            t = ep / (ep - eq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _between(
    poly: List[Tuple[Fraction, Fraction]], n: Direction, lo: Fraction, hi: Fraction
) -> List[Tuple[Fraction, Fraction]]:
    """Keep the part of poly with lo <= n . p <= hi."""
    return _clip_polygon(_clip_polygon(poly, n.n1, n.n2, hi), -n.n1, -n.n2, -lo)


def _clip_line(
    line: OrientedLine, box: List[Tuple[Fraction, Fraction]]
) -> List[Tuple[Fraction, Fraction]]:
    """Endpoints of the line segment inside the box, or empty.

    Clipping the box to both sides of the line leaves that segment, its ends
    ordered along the line's direction (-n2, n1); a lone corner is empty.
    """
    n = line.normal
    on = sorted(
        set(_between(box, n, line.offset, line.offset)),
        key=lambda p: n.n1 * p[1] - n.n2 * p[0],
    )
    return [on[0], on[-1]] if len(on) >= 2 else []


def render_svg(layout: Layout, scale: float = 0.05) -> str:
    realization = realize(layout)

    xs: List[Fraction] = []
    ys: List[Fraction] = []
    for p, _labels in realization.points:
        xs.append(p.x1)
        ys.append(p.x2)
    for _v, p in layout.probes:
        xs.append(p.x1)
        ys.append(p.x2)
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    pad_x = (xmax - xmin) / 20 + 20
    pad_y = (ymax - ymin) / 20 + 20
    xmin -= pad_x
    xmax += pad_x
    ymin -= pad_y
    ymax += pad_y

    width = float(xmax - xmin)
    height = float(ymax - ymin)

    def px(x: Fraction) -> str:
        return _fmt(float(x - xmin))

    def py(y: Fraction) -> str:
        return _fmt(float(ymax - y))  # SVG y points down

    out: List[str] = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width * scale)}" height="{_fmt(height * scale)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    out.append(f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>')

    box = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    for pg in layout.placements:
        pl = pg.placement
        poly = _between(box, pl.normal, *pl.stripe())
        if not poly:
            continue
        color = _FAMILY_COLOR[pg.part]
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in poly)
        out.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.12" stroke="none"/>')
        for entry in pl.template.data_entries:
            seg = _clip_line(pl.line_at(entry.offset), box)
            if seg:
                (x1, y1), (x2, y2) = seg
                out.append(
                    f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
                    f'stroke="{color}" stroke-width="1" stroke-opacity="0.5"/>'
                )

    for v in layout.verticals:
        out.append(
            f'<line x1="{px(v)}" y1="{py(ymax)}" x2="{px(v)}" y2="{py(ymin)}" '
            'stroke="#555555" stroke-width="2" stroke-dasharray="12 8"/>'
        )

    for p, _labels in realization.points:
        out.append(f'<circle cx="{px(p.x1)}" cy="{py(p.x2)}" r="4" fill="#202020"/>')
    for cp in layout.constraint_points:
        out.append(
            f'<circle cx="{px(cp.point.x1)}" cy="{py(cp.point.x2)}" r="9" '
            'fill="none" stroke="#d04040" stroke-width="2"/>'
        )
    for var, p in layout.probes:
        out.append(
            f'<g stroke="#7030a0" stroke-width="2">'
            f'<line x1="{px(p.x1 - 8)}" y1="{py(p.x2 - 8)}" x2="{px(p.x1 + 8)}" y2="{py(p.x2 + 8)}"/>'
            f'<line x1="{px(p.x1 - 8)}" y1="{py(p.x2 + 8)}" x2="{px(p.x1 + 8)}" y2="{py(p.x2 - 8)}"/>'
            "</g>"
        )
        out.append(
            f'<text x="{px(p.x1 + 12)}" y="{py(p.x2 - 12)}" font-size="28" '
            f'font-family="sans-serif" fill="#7030a0">{var}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
