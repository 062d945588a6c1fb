"""Deterministic SVG rendering of spines, tangles, and curve diagrams.

The drawing convention follows the shadow model: punctures sit on a
horizontal line, reference arcs hang below it as half-ellipses, and curve
diagrams alternate above/below the line through their crossing sequence.
Output bytes depend only on the input, so renders diff cleanly.
"""

from __future__ import annotations

from .curves import ArcSystem, Curve
from .trisection import Spine

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def _puncture_positions(n: int, x0: int, spacing: int) -> list[int]:
    return [x0 + spacing * k for k in range(n)]


def _draw_punctures(lines, xs, y, label=True):
    for k, x in enumerate(xs):
        lines.append(f'<circle cx="{x}" cy="{y}" r="3" fill="black"/>')
        if label:
            lines.append(f'<text x="{x - 4}" y="{y + 18}" font-size="11" '
                         f'font-family="monospace">{k}</text>')


def _draw_arc_system(lines, arcs: ArcSystem, xs, y, color):
    """Reference chords as lower half-ellipses; the routing word is printed
    rather than drawn (it acts on the whole picture)."""
    depth = {}
    for a, b in sorted(arcs.reference, key=lambda p: p[1] - p[0]):
        level = 1 + max((depth.get(k, 0) for k in range(a, b + 1)), default=0)
        for k in range(a, b + 1):
            depth[k] = level
        xa, xb = xs[a], xs[b]
        bulge = 14 * level
        lines.append(f'<path d="M {xa} {y} C {xa} {y + bulge}, '
                     f'{xb} {y + bulge}, {xb} {y}" stroke="{color}" '
                     f'fill="none" stroke-width="1.8"/>')
    if arcs.word:
        from .curves import format_word
        lines.append(f'<text x="{xs[0]}" y="{y - 26}" font-size="11" '
                     f'font-family="monospace" fill="{color}">'
                     f'routing {format_word(arcs.word)}</text>')


def _draw_curve(lines, c: Curve, xs, y, color):
    """The normal-form diagram: crossings on the segment gaps, arcs bowing
    into the upper or lower face with nesting by rank."""
    d = c.diagram
    n = c.n
    span = xs[1] - xs[0] if len(xs) > 1 else 40
    points = []
    for seg, rank in zip(d.word, d.ranks):
        count = d.seg_counts()[seg]
        left = xs[seg - 1] if seg > 0 else xs[0] - span
        right = xs[seg] if seg < n else xs[-1] + span
        frac = (rank + 1) / (count + 1)
        points.append(left + (right - left) * frac)
    m = len(points)
    for k in range(m):
        x1, x2 = points[k], points[(k + 1) % m]
        side = d.arc_side(k)
        bulge = (18 + 6 * k % 12) * (1 if side else -1)
        lines.append(f'<path d="M {x1:.1f} {y} C {x1:.1f} {y + bulge}, '
                     f'{x2:.1f} {y + bulge}, {x2:.1f} {y}" stroke="{color}" '
                     f'fill="none" stroke-width="1.5"/>')


def render_spine(s: Spine) -> str:
    """Three tangle panels side by side."""
    spacing = 36
    panel = spacing * (s.n + 1) + 40
    height = 170
    width = panel * 3
    lines = _svg_header(width, height)
    labels = ("tangle 12", "tangle 23", "tangle 31")
    for k, (t, label) in enumerate(zip(s.tangles, labels)):
        x0 = k * panel + 30
        xs = _puncture_positions(s.n, x0, spacing)
        y = 80
        lines.append(f'<text x="{x0}" y="28" font-size="13" '
                     f'font-family="monospace">{label}</text>')
        lines.append(f'<line x1="{xs[0] - 18}" y1="{y}" x2="{xs[-1] + 18}" '
                     f'y2="{y}" stroke="#bbbbbb" stroke-width="1"/>')
        _draw_punctures(lines, xs, y)
        _draw_arc_system(lines, t.arcs, xs, y, _COLORS[k % len(_COLORS)])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_curves(curves: list[Curve]) -> str:
    """Curve diagrams over one copy of the punctured line."""
    if not curves:
        raise ValueError("nothing to render")
    n = curves[0].n
    spacing = 36
    width = spacing * (n + 1) + 60
    height = 200
    lines = _svg_header(width, height)
    xs = _puncture_positions(n, 40, spacing)
    y = height // 2
    lines.append(f'<line x1="{xs[0] - 20}" y1="{y}" x2="{xs[-1] + 20}" '
                 f'y2="{y}" stroke="#bbbbbb" stroke-width="1"/>')
    _draw_punctures(lines, xs, y)
    for k, c in enumerate(curves):
        _draw_curve(lines, c, xs, y, _COLORS[k % len(_COLORS)])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
