"""Deterministic SVG figures: weight-space decompositions and the
bi-objective outcome plot.

Exact rationals are converted to floats only here, at the last moment
before formatting; nothing rendered ever feeds back into a decision.
Output bytes are a pure function of the input (fixed palette, fixed
coordinate formatting), so figures can be diffed across runs.  Every
text element is written by ``_label``, which escapes ``&``, ``<`` and
``>``, so any id survives as the text of its label; every point list is
written by ``_points``, and each label's marker comes from one table,
``_MARKERS``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .classify import Classification, Label
from .outcomes import OutcomeSet
from .weightspace import WeightCell, cell_interval

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#9c755f",
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# &, < and > as XML character data escapes them.
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _label(x, y, size: int, text: str) -> str:
    return (
        f'<text x="{x}" y="{y}" font-size="{size}" font-family="sans-serif">'
        f"{text.translate(_ESCAPE)}</text>"
    )


def _points(placed: Iterable[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in placed)


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def svg_weight_space(cells: Sequence[WeightCell], p: int) -> str:
    """The projected weight-space decomposition.

    p = 3 draws the projected simplex triangle with one polygon,
    segment or dot per cell; p = 2 draws the unit interval in the first
    weight as a segmented bar.
    """
    if p == 3:
        return _svg_simplex_triangle(cells)
    if p == 2:
        return _svg_interval_bar(cells)
    raise ValueError(f"no weight-space figure for p = {p}")


def _svg_simplex_triangle(cells: Sequence[WeightCell]) -> str:
    size, margin = 420, 50
    scale = size - 2 * margin

    def place(l1: Fraction, l2: Fraction) -> tuple[float, float]:
        return margin + float(l1) * scale, size - margin - float(l2) * scale

    body = ['<rect width="100%" height="100%" fill="white"/>']
    corners = [place(Fraction(0), Fraction(0)), place(Fraction(1), Fraction(0)), place(Fraction(0), Fraction(1))]
    body.append(
        f'<polygon points="{_points(corners)}" fill="#f5f5f5" stroke="#444" '
        'stroke-width="1"/>'
    )
    for idx, cell in enumerate(cells):
        verts = cell.projected_vertices or ()
        color = _PALETTE[idx % len(_PALETTE)]
        placed = [place(*v) for v in verts]
        if len(placed) >= 3:
            body.append(
                f'<polygon points="{_points(placed)}" fill="{color}" '
                f'fill-opacity="0.55" stroke="{color}" stroke-width="1.5"/>'
            )
        elif len(placed) == 2:
            (x1, y1), (x2, y2) = placed
            body.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="3"/>'
            )
        elif len(placed) == 1:
            x, y = placed[0]
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}"/>')
        if placed:
            cx = sum(x for x, _ in placed) / len(placed)
            cy = sum(y for _, y in placed) / len(placed)
            anchor_shift = 10 if len(placed) < 3 else 0
            body.append(
                _label(
                    _fmt(cx + anchor_shift), _fmt(cy - anchor_shift / 2), 13, cell.point_id
                )
            )
    axis_y = size - margin
    body.append(_label(size - margin + 8, axis_y + 4, 13, "w1"))
    body.append(_label(margin - 10, margin - 8, 13, "w2"))
    for tick in (Fraction(1, 2), Fraction(1)):
        x, _ = place(tick, Fraction(0))
        body.append(_label(_fmt(x - 8), axis_y + 16, 11, f"{float(tick):g}"))
        _, y = place(Fraction(0), tick)
        body.append(_label(margin - 28, _fmt(y + 4), 11, f"{float(tick):g}"))
    return _svg(size, size, body)


def _svg_interval_bar(cells: Sequence[WeightCell]) -> str:
    width, height, margin = 460, 120, 40
    scale = width - 2 * margin
    body = ['<rect width="100%" height="100%" fill="white"/>']
    y0, bar_height = 40, 30
    for idx, cell in enumerate(cells):
        interval = cell_interval(cell)
        if interval is None:
            continue
        lo, hi = interval
        x = margin + float(lo) * scale
        w = max((float(hi) - float(lo)) * scale, 1.0)
        color = _PALETTE[idx % len(_PALETTE)]
        body.append(
            f'<rect x="{_fmt(x)}" y="{y0}" width="{_fmt(w)}" height="{bar_height}" '
            f'fill="{color}" fill-opacity="0.65" stroke="{color}"/>'
        )
        body.append(_label(_fmt(x + w / 2 - 8), y0 - 6, 12, cell.point_id))
    for tick, label in ((0.0, "0"), (0.5, "0.5"), (1.0, "1")):
        x = margin + tick * scale
        body.append(
            f'<line x1="{_fmt(x)}" y1="{y0 + bar_height}" x2="{_fmt(x)}" '
            f'y2="{y0 + bar_height + 6}" stroke="#444"/>'
        )
        body.append(_label(_fmt(x - 6), y0 + bar_height + 20, 11, label))
    body.append(_label(width - margin + 6, y0 + bar_height + 4, 13, "w1"))
    return _svg(width, height, body)


# One marker per label, centred on (x, y); l, r, t and b are x - 4,
# x + 4, y - 4 and y + 4.
_MARKERS = {
    Label.EXTREME_SUPPORTED: '<circle cx="{x}" cy="{y}" r="5" fill="#1f5fa8"/>',
    Label.SUPPORTED: '<rect x="{l}" y="{t}" width="8" height="8" fill="#b03060"/>',
    Label.WEAKLY_SUPPORTED_ONLY: (
        '<circle cx="{x}" cy="{y}" r="5" fill="none" stroke="#b03060" stroke-width="2"/>'
    ),
    Label.UNSUPPORTED: (
        '<path d="M {l} {t} L {r} {b} M {l} {b} L {r} {t}" stroke="#222" stroke-width="2"/>'
    ),
    Label.DOMINATED: '<path d="M {x} {t} L {r} {y} L {x} {b} L {l} {y} Z" fill="#222"/>',
}


def svg_objective_space(
    outcome_set: OutcomeSet, classifications: Iterable[Classification]
) -> str:
    """Bi-objective outcome plot with one marker style per label:
    filled circles for extreme supported points, filled squares for
    supported points on open edges, crosses for unsupported points and
    small diamonds for dominated ones.  The staircase of extreme points
    is joined by the frontier polyline.  A point with no record among
    classifications is dominated.

    Markers are placed from the lattice rows: (v - lo) / span over the
    lattice is the exact ratio over the coordinates, and int true
    division rounds it to the float ``float(Fraction(...))`` gives, so
    no point is built."""
    if outcome_set.p != 2:
        raise ValueError("objective-space figure requires exactly two objectives")
    size, margin = 420, 50
    rows = outcome_set.lattice
    xs = [row[0] for row in rows]
    ys = [row[1] for row in rows]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = hi_x - lo_x or 1
    span_y = hi_y - lo_y or 1
    scale = size - 2 * margin

    def place(row) -> tuple[float, float]:
        x = margin + (row[0] - lo_x) / span_x * scale
        y = size - margin - (row[1] - lo_y) / span_y * scale
        return x, y

    labels = {c.point_id: c.label for c in classifications}
    points = [
        (pid, row, labels.get(pid, Label.DOMINATED))
        for pid, row in zip(outcome_set.ids, rows)
    ]
    body = ['<rect width="100%" height="100%" fill="white"/>']
    extremes = sorted(row for _, row, label in points if label == Label.EXTREME_SUPPORTED)
    if len(extremes) >= 2:
        body.append(
            f'<polyline points="{_points(map(place, extremes))}" fill="none" '
            'stroke="#888" stroke-width="1.5"/>'
        )
    for pid, row, label in points:
        x, y = place(row)
        marker = _MARKERS[label].format(
            x=_fmt(x), y=_fmt(y),
            l=_fmt(x - 4), r=_fmt(x + 4), t=_fmt(y - 4), b=_fmt(y + 4),
        )
        body += (marker, _label(_fmt(x + 7), _fmt(y - 7), 11, pid))
    ly = margin
    for name in ("extreme supported", "supported", "unsupported", "dominated"):
        body.append(_label(size - margin - 130, ly, 11, name))
        ly += 16
    return _svg(size, size, body)
