"""Deterministic exporters: matrix CSV, score report CSV, scatter SVG, DOT.

Equal inputs always produce byte-identical output. CSVs use RFC-4180
style quoting, UTF-8, and LF line endings; decimal separators are
periods. Zero matrix cells print as empty strings so the grid keeps the
sparse look of the source diagrams.
"""

from __future__ import annotations

import csv
import io
from decimal import ROUND_HALF_UP, Decimal
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from keyfactors.matrix import RelationshipMatrix, competition_rank, sums
from keyfactors.model import FactorCategory

if TYPE_CHECKING:
    from keyfactors.analysis import AnalysisConfig, FactorScore

# Scatter canvas: a square of _CANVAS px with a _MARGIN px border around the plot area.
_CANVAS = 800
_MARGIN = 60
_MARKER_SIZE = 5.0
_FONT_SIZE = 11


def x_pixel(passive_norm: float) -> float:
    return _MARGIN + passive_norm / 100.0 * (_CANVAS - 2 * _MARGIN)


def y_pixel(active_norm: float) -> float:
    # y axis inverted: normalized origin sits at the bottom-left
    return _CANVAS - _MARGIN - active_norm / 100.0 * (_CANVAS - 2 * _MARGIN)


def export_matrix_csv(matrix: RelationshipMatrix) -> str:
    """Matrix grid with trailing active sum/rank columns and passive rows.

    The sums and their competition ranks are derived from the matrix.
    Grid cells are integers or empty and never need quoting, so each grid
    row is its quoted label followed by comma runs between the nonzero
    cells: the work is O(factors + edges), and the n² empty cells are
    written by string repetition. The header and the passive rows go
    through csv.writer.
    """
    table = sums(matrix)
    active_ranks = competition_rank(table.active)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    labels = [factor.label for factor in matrix.factors]
    writer.writerow([""] + labels + ["active_sum", "active_rank"])
    # The terminator must be "\n" and sliced off: a writer whose terminator
    # is "" does not quote a label holding "\n" (Python 3.11).
    quoted: list[str] = []
    csv.writer(SimpleNamespace(write=quoted.append), lineterminator="\n").writerows(
        [label] for label in labels
    )
    n = matrix.size
    end = ((-1, -1), 0)  # after the last edge: a row no factor has
    edges = iter(matrix.edges.items())
    (r, c), count = next(edges, end)
    for i in range(n):
        row = [quoted[i][:-1]]
        written = 0  # grid cells of this row written so far
        while r == i:
            row.append(f"{',' * (c - written + 1)}{count}")
            written = c + 1
            (r, c), count = next(edges, end)
        row.append(f"{',' * (n - written)},{table.active[i]},{active_ranks[i]}\n")
        # One write per row: a write per cell run raised the matrix command's
        # peak RSS by 1.9 MiB at 1,456 factors (Python 3.11).
        buffer.write("".join(row))
    if n:
        writer.writerow(["passive_sum"] + list(table.passive) + ["", ""])
        writer.writerow(["passive_rank"] + list(competition_rank(table.passive)) + ["", ""])
    return buffer.getvalue()


REPORT_COLUMNS = [
    "id",
    "category",
    "name",
    "active_sum",
    "active_norm",
    "active_rank",
    "passive_sum",
    "passive_norm",
    "passive_rank",
    "region",
    "key",
]


def format_display(value: float) -> str:
    """One-decimal text form of a value, rounded half away from zero as printed reports are."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def export_report_csv(scores: Sequence[FactorScore]) -> str:
    """One row per factor in id order, norms printed with one decimal."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for score in sorted(scores, key=lambda s: s.factor.id):
        writer.writerow(
            [
                score.factor.id,
                score.factor.category.value,
                score.factor.display_name,
                score.active_sum,
                format_display(score.active_norm),
                score.active_rank,
                score.passive_sum,
                format_display(score.passive_norm),
                score.passive_rank,
                score.region.value,
                "true" if score.key else "false",
            ]
        )
    return buffer.getvalue()


# Keyed by Region value, so that this module needs no analysis import at run time.
_MARKER_STYLE = {
    "dominant": ("triangle", "#d62728"),
    "dynamic": ("circle", "#1f77b4"),
    "reactive": ("square", "#2ca02c"),
    "isolated": ("diamond", "#7f7f7f"),
}


def render_scatter_svg(scores: Sequence[FactorScore], cfg: AnalysisConfig) -> str:
    """Active-passive scatter: passive on x, active on y, both 0-100.

    Draws the two region boundary rays implied by the configured ratios,
    then one marker per factor (shape and fill keyed by region, labeled
    with the factor id) in ascending id order.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect x="{_fmt(x_pixel(0))}" y="{_fmt(y_pixel(100))}" '
        f'width="{_fmt(x_pixel(100) - x_pixel(0))}" '
        f'height="{_fmt(y_pixel(0) - y_pixel(100))}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    tick_len = 5
    for value in range(0, 101, 10):
        x = x_pixel(value)
        y = y_pixel(value)
        x0, y0 = x_pixel(0), y_pixel(0)
        parts.append(
            f'<line class="tick" x1="{_fmt(x)}" y1="{_fmt(y0)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y0 + tick_len)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + tick_len + _FONT_SIZE + 2)}" '
            f'font-size="{_FONT_SIZE}" text-anchor="middle">{value}</text>'
        )
        parts.append(
            f'<line class="tick" x1="{_fmt(x0 - tick_len)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(x0)}" y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - tick_len - 3)}" y="{_fmt(y + _FONT_SIZE / 3)}" '
            f'font-size="{_FONT_SIZE}" text-anchor="end">{value}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x_pixel(0) + x_pixel(100)) / 2)}" '
        f'y="{_fmt(_CANVAS - 8)}" font-size="{_FONT_SIZE + 2}" '
        'text-anchor="middle">passive sum (normalized)</text>'
    )
    mid_y = (y_pixel(0) + y_pixel(100)) / 2
    parts.append(
        f'<text x="{_FONT_SIZE + 2}" y="{_fmt(mid_y)}" '
        f'font-size="{_FONT_SIZE + 2}" text-anchor="middle" '
        f'transform="rotate(-90 {_FONT_SIZE + 2} {_fmt(mid_y)})">active sum (normalized)</text>'
    )

    for slope in (float(cfg.dominant_ratio), float(cfg.reactive_ratio)):
        px, py = _ray_end(slope)
        parts.append(
            f'<line class="boundary" x1="{_fmt(x_pixel(0))}" y1="{_fmt(y_pixel(0))}" '
            f'x2="{_fmt(x_pixel(px))}" y2="{_fmt(y_pixel(py))}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
        )

    for score in sorted(scores, key=lambda s: s.factor.id):
        x = x_pixel(score.passive_norm)
        y = y_pixel(score.active_norm)
        shape, fill = _MARKER_STYLE[score.region.value]
        parts.append(f'<g class="marker" data-factor="{score.factor.id}">')
        parts.append(_marker_element(shape, fill, x, y, _MARKER_SIZE))
        parts.append(
            f'<text x="{_fmt(x + _MARKER_SIZE + 2)}" y="{_fmt(y - _MARKER_SIZE - 2)}" '
            f'font-size="{_FONT_SIZE}">{score.factor.id}</text>'
        )
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ray_end(slope: float) -> tuple[float, float]:
    # Intersection of active = slope * passive with the border of [0,100]^2.
    if slope >= 1.0:
        return 100.0 / slope, 100.0
    return 100.0, 100.0 * slope


def _marker_element(shape: str, fill: str, x: float, y: float, size: float) -> str:
    if shape == "circle":
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(size)}" fill="{fill}"/>'
    if shape == "square":
        return (
            f'<rect x="{_fmt(x - size)}" y="{_fmt(y - size)}" '
            f'width="{_fmt(2 * size)}" height="{_fmt(2 * size)}" fill="{fill}"/>'
        )
    if shape == "triangle":
        points = f"{_fmt(x)},{_fmt(y - size)} {_fmt(x - size)},{_fmt(y + size)} {_fmt(x + size)},{_fmt(y + size)}"
    else:  # diamond
        points = f"{_fmt(x)},{_fmt(y - size)} {_fmt(x + size)},{_fmt(y)} {_fmt(x)},{_fmt(y + size)} {_fmt(x - size)},{_fmt(y)}"
    return f'<polygon points="{points}" fill="{fill}"/>'


def _fmt(value: float) -> str:
    return f"{value:.2f}"


_DOT_SHAPES = {
    FactorCategory.COMPONENT: "box",
    FactorCategory.FUNCTION: "ellipse",
    FactorCategory.CONTROL_FACTOR: "hexagon",
    FactorCategory.NOISE_FACTOR: "diamond",
    FactorCategory.ACTION: "trapezium",
    FactorCategory.EFFECT: "parallelogram",
    FactorCategory.HARM: "doubleoctagon",
}


def export_dot(matrix: RelationshipMatrix) -> str:
    """Directed graph of the merged failure network in DOT syntax.

    One node per factor (shape keyed by category), one edge per nonzero
    cell with the count as label and a proportional pen width; nodes and
    edges are emitted in id order.
    """
    lines = ["digraph failure_network {"]
    for factor in matrix.factors:
        label = _dot_escape(f"{factor.id}: {factor.display_name}")
        lines.append(f'  f{factor.id} [label="{label}", shape={_DOT_SHAPES[factor.category]}];')
    for (r, c), value in matrix.edges.items():
        lines.append(f'  f{r + 1} -> f{c + 1} [label="{value}", penwidth={float(value):.1f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
