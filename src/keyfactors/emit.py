"""Deterministic exporters: matrix CSV, score report CSV, scatter SVG, DOT.

Equal inputs always produce byte-identical output. CSVs are UTF-8 with
LF line endings, and both quote by one RFC 4180 rule: a text cell is put
in double quotes, each quote doubled, exactly when it holds a comma, a
quote, CR or LF. Every other cell is an integer, empty or a fixed word.
Decimal separators are periods. Zero matrix cells print as empty strings
so the grid keeps the sparse look of the source diagrams. The report prints each norm from its
integer sum and axis maximum, rounded half up exactly; no float is printed.
"""

from __future__ import annotations

from itertools import starmap
from operator import itemgetter
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


def _quoted(text: str) -> str:
    """A text cell: in double quotes, each quote doubled, exactly when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def export_matrix_csv(matrix: RelationshipMatrix) -> str:
    """Matrix grid with trailing active sum/rank columns and passive rows.

    The sums and their competition ranks are derived from the matrix.
    Grid cells are integers or empty and never need quoting, so each grid
    row is its quoted label followed by comma runs between the nonzero
    cells: the work is O(factors + edges), and the n² empty cells are
    written by string repetition.
    """
    table = sums(matrix)
    active_ranks = competition_rank(table.active)
    labels = [_quoted(factor.label) for factor in matrix.factors]
    rows = [",".join(["", *labels, "active_sum", "active_rank"]) + "\n"]
    n = matrix.size
    end = ((-1, -1), 0)  # after the last edge: a row no factor has
    edges = iter(matrix.edges.items())
    (r, c), count = next(edges, end)
    for i in range(n):
        row = [labels[i]]
        written = 0  # grid cells of this row written so far
        while r == i:
            row.append(f"{',' * (c - written + 1)}{count}")
            written = c + 1
            (r, c), count = next(edges, end)
        row.append(f"{',' * (n - written)},{table.active[i]},{active_ranks[i]}\n")
        # One string per row: writing each cell run on its own raised the matrix
        # command's peak RSS by 1.9 MiB at 1,456 factors (Python 3.11).
        rows.append("".join(row))
    if n:
        rows.append(f"passive_sum,{','.join(map(str, table.passive))},,\n")
        rows.append(f"passive_rank,{','.join(map(str, competition_rank(table.passive)))},,\n")
    return "".join(rows)


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


def _norm_texts(axis_sums: tuple[int, ...], norms: tuple[float, ...]) -> list[str]:
    """One axis's norms 100 * s / m as tenths t = (2000 * s + m) // (2 * m), rounded half up with integers only.

    m is the largest sum given (an all-zero axis prints 0.0); scores without the axis's top factor are refused.
    """
    m = max(axis_sums)
    if m and norms[axis_sums.index(m)] != 100.0 * m / m:
        raise ValueError("the scores lack their axis's top factor; export the whole table")
    return [f"{t // 10}.{t % 10}" for t in [(2000 * s + m) // (2 * m or 1) for s in axis_sums]]


_CATEGORY_TEXT = {category: category.value for category in FactorCategory}
_REPORT_ROW = ",".join(["{}"] * len(REPORT_COLUMNS)) + "\n"


def export_report_csv(scores: Sequence[FactorScore]) -> str:
    """One row per factor in id order, norms printed with one decimal; rows are formatted from whole columns."""
    text = _REPORT_ROW.format(*REPORT_COLUMNS)
    if scores:
        factors, active, passive, active_norm, passive_norm, active_rank, passive_rank, regions, keys = zip(*scores)
        categories, names, _, ids = zip(*factors)
        region_text = {region: region.value for region in set(regions)}
        rows = zip(
            ids, map(_CATEGORY_TEXT.__getitem__, categories), map(_quoted, names),  # only a name can need quoting
            active, _norm_texts(active, active_norm), active_rank,
            passive, _norm_texts(passive, passive_norm), passive_rank,
            map(region_text.__getitem__, regions), map(("false", "true").__getitem__, keys),
        )
        text += "".join(starmap(_REPORT_ROW.format, sorted(rows, key=itemgetter(0))))
    return text


# One marker element per Region value (keyed by value, so that this module
# needs no analysis import at run time), filled from the centre x y, the box
# edges l r t b, the half-size s and the width d.
_MARKERS = {
    "dominant": '<polygon points="{x:.2f},{t:.2f} {l:.2f},{b:.2f} {r:.2f},{b:.2f}" fill="#d62728"/>',
    "dynamic": '<circle cx="{x:.2f}" cy="{y:.2f}" r="{s:.2f}" fill="#1f77b4"/>',
    "reactive": '<rect x="{l:.2f}" y="{t:.2f}" width="{d:.2f}" height="{d:.2f}" fill="#2ca02c"/>',
    "isolated": '<polygon points="{x:.2f},{t:.2f} {r:.2f},{y:.2f} {x:.2f},{b:.2f} {l:.2f},{y:.2f}" fill="#7f7f7f"/>',
}


def render_scatter_svg(scores: Sequence[FactorScore], cfg: AnalysisConfig) -> str:
    """Active-passive scatter: passive on x, active on y, both 0-100.

    Draws the two region boundary rays implied by the configured ratios,
    then one marker per factor (the element of its region in _MARKERS,
    labeled with the factor id) in ascending id order.
    """
    left, right, top, bottom = x_pixel(0), x_pixel(100), y_pixel(100), y_pixel(0)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" height="{bottom - top:.2f}" '
        'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    tick_len = 5
    for value in range(0, 101, 10):
        x = x_pixel(value)
        y = y_pixel(value)
        parts += (
            f'<line class="tick" x1="{x:.2f}" y1="{bottom:.2f}" '
            f'x2="{x:.2f}" y2="{bottom + tick_len:.2f}" stroke="#333333" stroke-width="1"/>',
            f'<text x="{x:.2f}" y="{bottom + tick_len + _FONT_SIZE + 2:.2f}" '
            f'font-size="{_FONT_SIZE}" text-anchor="middle">{value}</text>',
            f'<line class="tick" x1="{left - tick_len:.2f}" y1="{y:.2f}" '
            f'x2="{left:.2f}" y2="{y:.2f}" stroke="#333333" stroke-width="1"/>',
            f'<text x="{left - tick_len - 3:.2f}" y="{y + _FONT_SIZE / 3:.2f}" '
            f'font-size="{_FONT_SIZE}" text-anchor="end">{value}</text>',
        )
    mid_y = (bottom + top) / 2
    parts += (
        f'<text x="{(left + right) / 2:.2f}" y="{_CANVAS - 8:.2f}" font-size="{_FONT_SIZE + 2}" '
        'text-anchor="middle">passive sum (normalized)</text>',
        f'<text x="{_FONT_SIZE + 2}" y="{mid_y:.2f}" font-size="{_FONT_SIZE + 2}" text-anchor="middle" '
        f'transform="rotate(-90 {_FONT_SIZE + 2} {mid_y:.2f})">active sum (normalized)</text>',
    )

    for slope in (float(cfg.dominant_ratio), float(cfg.reactive_ratio)):
        # Intersection of active = slope * passive with the border of [0,100]^2.
        px, py = (100.0 / slope, 100.0) if slope >= 1.0 else (100.0, 100.0 * slope)
        parts.append(
            f'<line class="boundary" x1="{left:.2f}" y1="{bottom:.2f}" '
            f'x2="{x_pixel(px):.2f}" y2="{y_pixel(py):.2f}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="6,4"/>'
        )

    s = _MARKER_SIZE
    for score in sorted(scores, key=lambda score: score.factor.id):
        x = x_pixel(score.passive_norm)
        y = y_pixel(score.active_norm)
        parts += (
            f'<g class="marker" data-factor="{score.factor.id}">',
            _MARKERS[score.region.value].format(x=x, y=y, l=x - s, r=x + s, t=y - s, b=y + s, s=s, d=2 * s),
            f'<text x="{x + s + 2:.2f}" y="{y - s - 2:.2f}" font-size="{_FONT_SIZE}">{score.factor.id}</text>',
            "</g>",
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    # Merged networks hold few distinct counts: each pen width is formatted once.
    pen_widths = {value: f"{float(value):.1f}" for value in set(matrix.edges.values())}
    for (r, c), value in matrix.edges.items():
        lines.append(f'  f{r + 1} -> f{c + 1} [label="{value}", penwidth={pen_widths[value]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r")
