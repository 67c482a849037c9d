"""SVG rendering of systems: 2D state/effect panels, fixed-coordinate
slices of higher-dimensional effect bodies, and wireframes for 3D slices.

Coordinates are converted to floats here only; nothing rendered feeds back
into the exact computations.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .geometry import Halfspace, Polytope, hrep_to_vrep, positive_cone, EmptyIntersectionError
from .linalg import QVec, as_integers
from .systems import GptSystem

_PANEL = 260
_PAD = 30


def _f(x) -> float:
    return float(Fraction(x))


def _order_polygon(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(points) <= 2:
        return points
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _fit(points, panel_origin):
    xs = [p[0] for p in points] + [0.0]
    ys = [p[1] for p in points] + [0.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    scale = (_PANEL - 2 * _PAD) / span
    ox, oy = panel_origin

    def to_px(p):
        x = ox + _PAD + (p[0] - lo_x) * scale
        y = oy + _PANEL - _PAD - (p[1] - lo_y) * scale
        return x, y

    return to_px


def slice_polytope(p: Polytope, value: Fraction) -> list[QVec]:
    """Vertices of the polytope cut at last coordinate = value, with the
    fixed coordinate dropped."""
    dim = p.dim
    axis = [0] * dim
    axis[-1] = 1
    constraints = list(p.facets)
    constraints.append(Halfspace(axis, value))
    constraints.append(Halfspace([-a for a in axis], -value))
    try:
        cut = hrep_to_vrep(constraints)
    except EmptyIntersectionError:
        return []
    return [QVec(v[:-1]) for v in cut.vertices]


def polytope_edges(vertices: list[QVec], facets: list[Halfspace]) -> list[tuple[int, int]]:
    """Vertex index pairs forming edges: a pair is an edge iff some facet is
    tight on both and no third vertex is tight on every facet they share."""
    masks = []
    for v in vertices:
        xi, s = as_integers(v)
        masks.append(sum(1 << k for k, h in enumerate(facets)
                         if sum(map(mul, h.inormal, xi)) == h.ioffset * s))
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            common = masks[i] & masks[j]
            if common and not any(m & common == common for k, m in enumerate(masks)
                                  if k != i and k != j):
                edges.append((i, j))
    return edges


def _iso(v) -> tuple[float, float]:
    x, y, z = (_f(c) for c in v)
    c30, s30 = math.cos(math.pi / 6), math.sin(math.pi / 6)
    return (x - y) * c30, (x + y) * s30 - z


def _polygon_svg(points_px, fill, stroke, label, lx, ly):
    if not points_px:
        return f'<text x="{lx}" y="{ly}" font-size="12">{label} (empty)</text>'
    if len(points_px) == 1:
        (x, y) = points_px[0]
        return (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{stroke}"/>'
                f'<text x="{lx}" y="{ly}" font-size="12">{label}</text>')
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points_px)
    shape = (f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="2"/>'
             if len(points_px) == 2 else
             f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>')
    return shape + f'<text x="{lx}" y="{ly}" font-size="12">{label}</text>'


def _wireframe_svg(vertices, facets, panel_origin, label):
    proj = [_iso(v) for v in vertices]
    to_px = _fit(proj, panel_origin)
    px = [to_px(p) for p in proj]
    edges = polytope_edges(list(vertices), list(facets))
    parts = []
    for i, j in edges:
        (x1, y1), (x2, y2) = px[i], px[j]
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="#334" stroke-width="1.2"/>'
        )
    ox, oy = panel_origin
    parts.append(f'<text x="{ox + _PAD}" y="{oy + 18}" font-size="12">{label}</text>')
    return "".join(parts)


def _annotate(points, px_points, float_view):
    if not float_view:
        return ""
    out = []
    for v, (x, y) in zip(points, px_points):
        txt = "(" + ", ".join(f"{_f(c):.3g}" for c in v) + ")"
        out.append(f'<text x="{x + 3:.2f}" y="{y - 3:.2f}" font-size="8" fill="#666">{txt}</text>')
    return "".join(out)


def render_system(sys: GptSystem, slice_at: Fraction = Fraction(1, 2),
                  show_cones: bool = False, float_view: bool = False) -> str:
    """Render a system to a standalone SVG string.

    2D systems draw the state segment and effect polygon in one frame
    (optionally with the state dual-cone boundary rays); 3D systems draw
    the state polygon and a fixed-coordinate slice of the effect body;
    4D systems draw isometric wireframes of the state body and the sliced
    effect body.
    """
    dim = sys.dim
    parts = []
    width = 2 * _PANEL
    if dim == 2:
        width = _PANEL
        pts_e = [(_f(v[0]), _f(v[1])) for v in sys.effects.polytope.vertices]
        pts_s = [(_f(v[0]), _f(v[1])) for v in sys.states.polytope.vertices]
        to_px = _fit(pts_e + pts_s, (0, 0))
        eff_px = _order_polygon([to_px(p) for p in pts_e])
        st_px = [to_px(p) for p in sorted(pts_s)]
        parts.append(_polygon_svg(eff_px, "#cdd6f4", "#445", "effects", _PAD, 16))
        parts.append(_polygon_svg(st_px, "none", "#a33", "states", _PAD, 30))
        if show_cones:
            from .geometry import dual_cone
            for ray in dual_cone(positive_cone(sys.states.polytope)).rays:
                x0, y0 = to_px((0.0, 0.0))
                rx, ry = _f(ray[0]), _f(ray[1])
                n = math.hypot(rx, ry) or 1.0
                x1, y1 = to_px((2.2 * rx / n, 2.2 * ry / n))
                parts.append(
                    f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                    f'stroke="#888" stroke-dasharray="4 3"/>'
                )
        parts.append(_annotate(sys.effects.polytope.vertices, eff_px, float_view))
    elif dim == 3:
        st = [(_f(v[0]), _f(v[1])) for v in sys.states.polytope.vertices]
        to_px = _fit(st, (0, 0))
        st_px = _order_polygon([to_px(p) for p in st])
        parts.append(_polygon_svg(st_px, "#f4d6cd", "#a33", "states (unit plane)", _PAD, 16))
        cut = slice_polytope(sys.effects.polytope, slice_at)
        pts = [(_f(v[0]), _f(v[1])) for v in cut]
        to_px2 = _fit(pts, (_PANEL, 0))
        eff_px = _order_polygon([to_px2(p) for p in pts])
        parts.append(_polygon_svg(eff_px, "#cdd6f4", "#445",
                                  f"effects @ last={slice_at}", _PANEL + _PAD, 16))
        parts.append(_annotate(cut, eff_px, float_view))
    else:
        states3 = [QVec(v[:-1]) for v in sys.states.polytope.vertices]
        st_body = Polytope(states3)
        parts.append(_wireframe_svg(st_body.vertices, st_body.facets, (0, 0),
                                    "states (unit slice)"))
        cut = slice_polytope(sys.effects.polytope, slice_at)
        if cut:
            body = Polytope(cut)
            parts.append(_wireframe_svg(body.vertices, body.facets, (_PANEL, 0),
                                        f"effects @ last={slice_at}"))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_PANEL}" '
        f'viewBox="0 0 {width} {_PANEL}">'
        f'<rect width="{width}" height="{_PANEL}" fill="white"/>' + "".join(parts) + "</svg>"
    )
