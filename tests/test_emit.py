import csv
import io
import re
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from corpus import chain_sets, csv_row
from keyfactors.analysis import AnalysisConfig, analyze
from keyfactors.emit import (
    export_dot,
    export_matrix_csv,
    REPORT_COLUMNS,
    export_report_csv,
    render_scatter_svg,
    x_pixel,
    y_pixel,
)
from keyfactors.matrix import RelationshipMatrix, SumsTable, build_matrix, competition_rank, sums
from keyfactors.model import ChainSet, Factor, FactorCategory, FailureChain
from keyfactors.sums_table import parse_sums_table

C = FactorCategory

ABH = FailureChain("a", "c", ((C.COMPONENT, "A"), (C.EFFECT, "B"), (C.HARM, "H")))


def matrix_csv_for(chain_set):
    m = build_matrix(chain_set)
    return m, sums(m), export_matrix_csv(m)


def read_matrix_csv(text):
    """Test-only reader: recover counts and sums from the matrix export."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    labels = header[1 : header.index("active_sum")]
    n = len(labels)
    counts = [[int(cell or 0) for cell in row[1 : 1 + n]] for row in rows[1 : 1 + n]]
    active = [int(row[1 + n]) for row in rows[1 : 1 + n]]
    passive = [int(cell) for cell in rows[1 + n][1 : 1 + n]] if len(rows) > 1 + n else []
    return labels, counts, active, passive


def test_matrix_csv_single_chain_layout():
    _, _, text = matrix_csv_for(ChainSet((ABH,)))
    labels, counts, active, passive = read_matrix_csv(text)
    assert labels == ["component:A", "effect:B", "harm:H"]
    assert counts == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert active == [1, 1, 0]
    assert passive == [0, 1, 1]
    assert sum(row.count(0) for row in counts) == 7  # zeros print as empty cells
    assert ",,1," in text


def test_matrix_csv_empty_matrix_is_header_only():
    _, _, text = matrix_csv_for(ChainSet())
    assert text == ",active_sum,active_rank\n"


def test_matrix_csv_quotes_awkward_names():
    chain = FailureChain(
        "a", "c", ((C.COMPONENT, 'force, F "N"'), (C.HARM, "burn")),
    )
    _, _, text = matrix_csv_for(ChainSet((chain,)))
    labels, counts, _, _ = read_matrix_csv(text)
    assert labels[0] == 'component:force, F "N"'
    assert counts[0][1] == 1


@given(chain_sets())
@example(ChainSet())
def test_matrix_csv_round_trips_counts_and_sums(chain_set):
    m, table, text = matrix_csv_for(chain_set)
    labels, counts, active, passive = read_matrix_csv(text)
    assert labels == [f.label for f in m.factors]
    assert counts == [[m.edges.get((r, c), 0) for c in range(m.size)] for r in range(m.size)]
    assert active == list(table.active)
    if m.factors:
        assert passive == list(table.passive)


def reference_matrix_csv(matrix):
    """Oracle: every cell, empty or not, formatted by csv.writer."""
    table = sums(matrix)
    active_ranks = competition_rank(table.active)
    passive_ranks = competition_rank(table.passive)
    labels = [factor.label for factor in matrix.factors]
    rows = [[""] + labels + ["active_sum", "active_rank"]]
    for i, factor in enumerate(matrix.factors):
        cells = [""] * matrix.size
        for (r, c), value in matrix.edges.items():
            if r == i:
                cells[c] = value
        rows.append([factor.label] + cells + [table.active[i], active_ranks[i]])
    if matrix.factors:
        rows.append(["passive_sum"] + list(table.passive) + ["", ""])
        rows.append(["passive_rank"] + list(passive_ranks) + ["", ""])
    return "".join(map(csv_row, rows))


label_texts = st.text(
    alphabet=st.sampled_from([",", '"', "\n", "\r", " ", "\t", "a", "Z", "ä", "日", "\u00a0"]), max_size=8
)


@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    categories = draw(st.lists(st.sampled_from(C), min_size=n, max_size=n))
    names = draw(st.lists(label_texts, min_size=n, max_size=n))
    factors = tuple(
        Factor(category, name, name, i) for i, (category, name) in enumerate(zip(categories, names), start=1)
    )
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)) if n else st.nothing()
    edges = draw(st.dictionaries(cells, st.integers(min_value=1, max_value=10**6), max_size=n * n))
    return RelationshipMatrix(factors, edges)


def _factors(*names):
    return tuple(Factor(C.COMPONENT, name, name, i) for i, name in enumerate(names, start=1))


@given(sparse_matrices())
@example(RelationshipMatrix((), {}))
@example(RelationshipMatrix(_factors("x"), {}))
@example(RelationshipMatrix(_factors(" only, \"one\"\n"), {(0, 0): 7}))
@example(RelationshipMatrix(_factors("a", "b\r", "c"), {(0, 0): 1, (0, 2): 12, (2, 0): 3, (2, 2): 5}))
def test_matrix_csv_is_byte_identical_to_the_per_cell_writer(m):
    assert export_matrix_csv(m) == reference_matrix_csv(m)


def test_report_csv_contains_case_study_row():
    factors = (
        Factor(C.COMPONENT, "hair dryer", "hair dryer", 1),
        Factor(C.CONTROL_FACTOR, "increasing temperature Q [J]", "increasing temperature q [j]", 2),
        Factor(C.ACTION, "user touches accessible live parts", "user touches accessible live parts", 3),
        Factor(C.HARM, "electrical shock", "electrical shock", 4),
    )
    table = SumsTable(factors, (14, 22, 23, 0), (9, 20, 23, 24))
    scores = analyze(table)
    text = export_report_csv(scores)
    rows = list(csv.DictReader(io.StringIO(text)))
    row = rows[0]
    assert (row["active_sum"], row["active_norm"]) == ("14", "60.9")
    assert (row["passive_sum"], row["passive_norm"]) == ("9", "37.5")
    assert row["region"] == "dynamic"


def test_report_csv_empty_and_row_count():
    assert export_report_csv(()) == (
        "id,category,name,active_sum,active_norm,active_rank,"
        "passive_sum,passive_norm,passive_rank,region,key\n"
    )
    scores = analyze(ChainSet((ABH,)))
    rows = list(csv.DictReader(io.StringIO(export_report_csv(scores))))
    assert len(rows) == len(scores)
    assert [row["id"] for row in rows] == ["1", "2", "3"]


def reference_display(value):
    """Oracle: a float norm's one-decimal text, rounded half up through Decimal(repr(float))."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def reference_report_csv(scores):
    """Oracle: the report written one row at a time, its norms rounded from the floats."""
    rows = [REPORT_COLUMNS]
    for score in sorted(scores, key=lambda s: s.factor.id):
        rows.append(
            [
                score.factor.id,
                score.factor.category.value,
                score.factor.display_name,
                score.active_sum,
                reference_display(score.active_norm),
                score.active_rank,
                score.passive_sum,
                reference_display(score.passive_norm),
                score.passive_rank,
                score.region.value,
                "true" if score.key else "false",
            ]
        )
    return "".join(map(csv_row, rows))


CONFIGS = [AnalysisConfig(), AnalysisConfig(Decimal("1.5"), Decimal("0.8"), Decimal("100")), AnalysisConfig(4, 0.25, 0)]


@st.composite
def sums_tables(draw):
    """Tables of 0-40 factors in any id order: peaks up to 10**9, all-zero axes, ties, awkward names."""
    n = draw(st.integers(min_value=0, max_value=40))
    names = draw(st.lists(label_texts, min_size=n, max_size=n))
    ids = draw(st.permutations(range(1, n + 1)))
    columns = []
    for _ in range(2):
        peak = draw(st.sampled_from([0, 1, 7, 400, 10**9]) | st.integers(min_value=0, max_value=10**9))
        pool = st.sampled_from([0, peak, peak // 2, peak // 3]) | st.integers(min_value=0, max_value=peak)
        columns.append(tuple(draw(st.lists(pool, min_size=n, max_size=n))))
    categories = draw(st.lists(st.sampled_from(C), min_size=n, max_size=n))
    factors = tuple(Factor(category, name, name, i) for category, name, i in zip(categories, names, ids))
    return SumsTable(factors, *columns)


@given(sums_tables(), st.sampled_from(CONFIGS))
@example(SumsTable((), (), ()), AnalysisConfig())
@example(SumsTable(_factors("a", "b"), (0, 0), (0, 0)), AnalysisConfig())
@example(SumsTable(_factors('x, "y"\r\n', "ä日"), (49, 400), (1, 80)), AnalysisConfig())
# The quoting cases: an empty name (written as nothing, not ""), a lone quote, a lone CR (quoted on every Python).
@example(SumsTable(_factors("", '"', "a\rb"), (3, 0, 1), (0, 2, 2)), AnalysisConfig())
def test_report_csv_is_byte_identical_to_the_per_row_writer(table, cfg):
    scores = analyze(table, cfg)
    assert export_report_csv(scores) == reference_report_csv(scores)


@given(chain_sets())
@example(ChainSet())
def test_a_report_reads_back_as_its_own_sums_table(chain_set):
    # The report's id, category, name and sum columns are a sums table; the reader strips padding from every cell.
    table, warnings = parse_sums_table(export_report_csv(analyze(chain_set)))
    expected = sums(chain_set)
    stripped = tuple(factor._replace(display_name=factor.display_name.strip()) for factor in expected.factors)
    assert warnings == []
    assert table == expected._replace(factors=stripped)


def test_report_csv_refuses_scores_without_an_axis_top_factor():
    scores = analyze(SumsTable(_factors("a", "b", "c"), (8, 3, 0), (1, 6, 2)))
    # a holds the active top and b the passive top; c is in neither.
    for subset in (scores[1:], (scores[0], scores[2]), scores[2:]):
        with pytest.raises(ValueError, match="top factor"):
            export_report_csv(subset)
    whole = export_report_csv(scores)
    assert whole.splitlines()[:3] == export_report_csv(scores[:2]).splitlines()
    assert export_report_csv(scores[::-1]) == whole


@st.composite
def sums_and_peaks(draw):
    peak = draw(st.integers(min_value=1, max_value=10**12))
    return draw(st.integers(min_value=0, max_value=peak)), peak


@given(sums_and_peaks())
@example((1, 8))  # 12.5: exactly a tenth
@example((1, 80))  # 1.25: a tie, rounds up
@example((49, 400))  # 12.25: a tie, where rounding half to even would give 12.2
@example((0, 1))
@example((1200, 1200))
def test_format_display_matches_rational_half_up_rounding(sum_and_peak):
    s, peak = sum_and_peak
    # Tenths of 100 * s / peak, rounded half up: floor(1000 * s / peak + 1/2).
    tenths = int(Fraction(1000 * s, peak) + Fraction(1, 2))
    expected = f"{tenths // 10}.{tenths % 10}"
    # The report's norm text: s on each axis of one factor, the peak on each axis of the other.
    report = export_report_csv(analyze(SumsTable(_factors("s", "m"), (s, peak), (s, peak))))
    rows = list(csv.DictReader(io.StringIO(report)))
    assert (rows[0]["active_norm"], rows[0]["passive_norm"]) == (expected, expected)
    assert (rows[1]["active_norm"], rows[1]["passive_norm"]) == ("100.0", "100.0")


def test_scatter_svg_marker_positions_and_counts():
    factors = (
        Factor(C.ACTION, "user touches accessible live parts", "user touches accessible live parts", 1),
        Factor(C.HARM, "electrical shock", "electrical shock", 2),
    )
    table = SumsTable(factors, (23, 0), (23, 24))
    scores = analyze(table)
    svg = render_scatter_svg(scores, AnalysisConfig())
    assert svg.count('class="marker"') == 2
    assert svg.count('class="boundary"') == 2
    x = x_pixel(100 * 23 / 24)  # factor 1 passive norm, printed as 95.8
    y = y_pixel(100.0)
    assert f'cx="{x:.2f}" cy="{y:.2f}"' in svg


def test_scatter_svg_draws_each_region_marker_exactly():
    factors = tuple(Factor(C.COMPONENT, name, name, i) for i, name in enumerate("abcd", start=1))
    scores = analyze(SumsTable(factors, (4, 2, 0, 0), (0, 2, 4, 0)))
    assert [score.region.value for score in scores] == ["dominant", "dynamic", "reactive", "isolated"]
    svg = render_scatter_svg(scores, AnalysisConfig())
    assert re.findall(r'<g class="marker".*?</g>', svg, re.S) == [
        '<g class="marker" data-factor="1">\n'
        '<polygon points="60.00,55.00 55.00,65.00 65.00,65.00" fill="#d62728"/>\n'
        '<text x="67.00" y="53.00" font-size="11">1</text>\n</g>',
        '<g class="marker" data-factor="2">\n'
        '<circle cx="400.00" cy="400.00" r="5.00" fill="#1f77b4"/>\n'
        '<text x="407.00" y="393.00" font-size="11">2</text>\n</g>',
        '<g class="marker" data-factor="3">\n'
        '<rect x="735.00" y="735.00" width="10.00" height="10.00" fill="#2ca02c"/>\n'
        '<text x="747.00" y="733.00" font-size="11">3</text>\n</g>',
        '<g class="marker" data-factor="4">\n'
        '<polygon points="60.00,735.00 65.00,740.00 60.00,745.00 55.00,740.00" fill="#7f7f7f"/>\n'
        '<text x="67.00" y="733.00" font-size="11">4</text>\n</g>',
    ]


def test_scatter_svg_boundary_rays_follow_config():
    svg = render_scatter_svg((), AnalysisConfig(dominant_ratio=2.0, reactive_ratio=0.5))
    # dominant ray leaves the square at passive 50, reactive at active 50
    assert f'x2="{x_pixel(50):.2f}" y2="{y_pixel(100):.2f}"' in svg
    assert f'x2="{x_pixel(100):.2f}" y2="{y_pixel(50):.2f}"' in svg


def test_scatter_svg_empty_scores_is_axes_only():
    svg = render_scatter_svg((), AnalysisConfig())
    assert 'class="marker"' not in svg
    assert svg.count('class="boundary"') == 2


def test_scatter_svg_is_deterministic():
    scores = analyze(ChainSet((ABH,)))
    assert render_scatter_svg(scores, AnalysisConfig()) == render_scatter_svg(scores, AnalysisConfig())


def test_dot_single_chain():
    text = export_dot(build_matrix(ChainSet((ABH,))))
    assert text.count("[label=") == 5  # 3 nodes + 2 edges
    assert 'f1 [label="1: A", shape=box];' in text
    assert 'f1 -> f2 [label="1", penwidth=1.0];' in text
    assert 'f2 -> f3 [label="1", penwidth=1.0];' in text


def test_dot_edge_label_carries_the_count():
    link = ((C.COMPONENT, "grille"), (C.FUNCTION, "preventing access"))
    chains = ChainSet(
        tuple(
            FailureChain("a", "c", (*link, (C.ACTION, f"act {i}"), (C.HARM, "shock")))
            for i in range(3)
        )
    )
    text = export_dot(build_matrix(chains))
    assert 'f1 -> f2 [label="3", penwidth=3.0];' in text


def test_dot_empty_matrix_has_empty_body():
    assert export_dot(build_matrix(ChainSet())) == "digraph failure_network {\n}\n"


def test_dot_escapes_quotes_in_names():
    chain = FailureChain("a", "c", ((C.COMPONENT, 'the "thing"'), (C.HARM, "burn")))
    text = export_dot(build_matrix(ChainSet((chain,))))
    assert 'label="1: the \\"thing\\""' in text


@given(chain_sets())
@example(ChainSet())
def test_all_emitters_are_deterministic(chain_set):
    m = build_matrix(chain_set)
    scores = analyze(chain_set)
    assert export_matrix_csv(m) == export_matrix_csv(m)
    assert export_report_csv(scores) == export_report_csv(scores)
    assert export_dot(m) == export_dot(m)
    assert render_scatter_svg(scores, AnalysisConfig()) == render_scatter_svg(scores, AnalysisConfig())
