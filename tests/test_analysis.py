from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from corpus import chain_sets
from keyfactors.analysis import (
    AnalysisConfig,
    Region,
    analyze,
    classify,
    competition_rank,
)
from keyfactors.emit import export_report_csv
from keyfactors.matrix import SumsTable
from keyfactors.model import ChainSet, Factor, FactorCategory, FailureChain

C = FactorCategory
DEFAULTS = AnalysisConfig()


def sums_table(active, passive):
    factors = tuple(
        Factor(C.COMPONENT, f"f{i}", f"f{i}", i) for i in range(1, len(active) + 1)
    )
    return SumsTable(factors, tuple(active), tuple(passive))


def printed_norms(scores):
    """The (active_norm, passive_norm) texts of each report row."""
    return [tuple(line.split(",")[4:8:3]) for line in export_report_csv(scores).splitlines()[1:]]


def test_normalize_is_scaled_by_axis_maximum():
    scores = analyze(sums_table([22, 23, 0], [8, 24, 0]))
    _, second, _ = scores
    assert printed_norms(scores)[0] == ("95.7", "33.3")
    assert second.active_norm == 100.0
    assert second.passive_norm == 100.0


def test_normalize_zero_axis_is_all_zero():
    scores = analyze(sums_table([0, 0], [3, 1]))
    assert [s.active_norm for s in scores] == [0.0, 0.0]
    assert [s.passive_norm for s in scores] == [100.0, 100.0 / 3]


def test_display_rounding_is_half_away_from_zero():
    # 12.25, 95.652..., 75.0 and 100.0 on the active axis (peak 400) and the passive axis (peak 23).
    assert printed_norms(analyze(sums_table([49, 400, 300], [4, 22, 23]))) == [
        ("12.3", "17.4"),  # 12.25: bankers' rounding would give 12.2
        ("100.0", "95.7"),
        ("75.0", "100.0"),
    ]


def test_competition_rank_shares_smallest_rank_on_ties():
    assert competition_rank([12, 12, 11]) == (1, 1, 3)
    assert competition_rank([5, 5, 5]) == (1, 1, 1)
    assert competition_rank([]) == ()


def test_competition_rank_matches_table_tie_groups():
    values = [10, 1, 6, 1, 1, 7, 1, 6, 2, 10, 4, 14, 8, 11, 10, 2, 2, 2, 5, 1, 7, 3,
              22, 15, 1, 5, 12, 8, 1, 1, 10, 9, 3, 9, 4, 7, 23, 12, 1, 1, 6, 5, 9, 0, 0, 0]
    ranks = competition_rank(values)
    assert ranks[values.index(23)] == 1
    ones = [rank for value, rank in zip(values, ranks) if value == 1]
    assert len(ones) == 10 and set(ones) == {34}
    zeros = [rank for value, rank in zip(values, ranks) if value == 0]
    assert len(zeros) == 3 and set(zeros) == {44}
    twelves = [rank for value, rank in zip(values, ranks) if value == 12]
    assert set(twelves) == {5}
    assert ranks[values.index(11)] == 7


@given(st.lists(st.integers(min_value=0, max_value=50)), st.integers(min_value=1, max_value=9))
def test_competition_rank_is_scale_invariant(values, k):
    assert competition_rank(values) == competition_rank([k * v for v in values])


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1))
def test_competition_rank_matches_counting_definition(values):
    ranks = competition_rank(values)
    for value, rank in zip(values, ranks):
        assert rank == 1 + sum(1 for other in values if other > value)
    assert all(1 <= rank <= len(values) for rank in ranks)


def test_classify_named_regions():
    # factor 13 in the case study: sums 8 and 3 against axis maxima 23 and 24
    assert classify(8, 3, 23, 24, DEFAULTS) is Region.DOMINANT
    # factor 23: sums 22 and 20
    assert classify(22, 20, 23, 24, DEFAULTS) is Region.DYNAMIC
    assert classify(0, 0, 23, 24, DEFAULTS) is Region.ISOLATED
    assert classify(9, 0, 23, 24, DEFAULTS) is Region.DOMINANT
    assert classify(0, 9, 23, 24, DEFAULTS) is Region.REACTIVE


def test_classify_boundaries_are_inclusive():
    assert classify(50, 25, 100, 100, DEFAULTS) is Region.DOMINANT  # ratio exactly 2.0
    assert classify(25, 50, 100, 100, DEFAULTS) is Region.REACTIVE  # ratio exactly 0.5
    assert classify(499, 250, 1000, 1000, DEFAULTS) is Region.DYNAMIC


def test_classify_rejects_out_of_range_input():
    with pytest.raises(ValueError):
        classify(24, 0, 23, 24, DEFAULTS)
    with pytest.raises(ValueError):
        classify(0, -1, 23, 24, DEFAULTS)


@given(
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_classify_depends_only_on_the_ratio(a, p, j, k):
    # Scaling an axis's sums and maximum together keeps its normalized values;
    # scaling both sums together keeps their ratio.
    assert classify(a, p, 100, 100, DEFAULTS) is classify(a * j, p * k, 100 * j, 100 * k, DEFAULTS)
    assert classify(a, p, 100, 100, DEFAULTS) is classify(a * j, p * j, 100 * j, 100 * j, DEFAULTS)
    assume(a * k <= 100 and p * k <= 100)
    assert classify(a, p, 100, 100, DEFAULTS) is classify(a * k, p * k, 100, 100, DEFAULTS)


def test_region_and_key_decisions_are_exact_at_boundaries():
    # Active 5 of 6 and passive 5 of 18: normalized ratio exactly 3, which
    # the float quotient 83.33.../27.77... misses by one unit in the last place.
    scores = analyze(sums_table([5, 6], [5, 18]), AnalysisConfig(dominant_ratio=3, reactive_ratio=0.25))
    assert scores[0].region is Region.DOMINANT
    # Active 5 of 6 alone: normalized sum exactly 250/3, whose float is below it.
    scores = analyze(sums_table([5, 6], [0, 1]), AnalysisConfig(key_threshold=Fraction(250, 3)))
    assert scores[0].key


def _oracle(active_sum, passive_sum, active_max, passive_max, dominant, reactive, key):
    """Region and key flag from rational normalized values, straight from the definitions."""
    an = Fraction(100 * active_sum, active_max) if active_max else Fraction(0)
    pn = Fraction(100 * passive_sum, passive_max) if passive_max else Fraction(0)
    if an == 0 and pn == 0:
        region = Region.ISOLATED
    elif pn == 0 or an / pn >= dominant:
        region = Region.DOMINANT
    elif an == 0 or an / pn <= reactive:
        region = Region.REACTIVE
    else:
        region = Region.DYNAMIC
    return region, an + pn >= key


@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=2, max_size=12),
    st.data(),
)
def test_decisions_match_rational_oracle_at_boundary_points(pairs, data):
    # The thresholds are drawn from the factors' own exact ratios and
    # normalized sums, so some factors sit exactly on each boundary.
    active, passive = (list(axis) for axis in zip(*pairs))
    active_max, passive_max = max(active), max(passive)
    ratios = sorted({Fraction(a * passive_max, p * active_max) for a, p in pairs if a and p})
    assume(len(ratios) >= 2)
    low, high = sorted(data.draw(st.lists(st.sampled_from(ratios), min_size=2, max_size=2, unique=True)))
    magnitudes = [
        Fraction(100 * a, active_max or 1) + Fraction(100 * p, passive_max or 1) for a, p in pairs
    ]
    key = data.draw(st.sampled_from(magnitudes))
    cfg = AnalysisConfig(dominant_ratio=high, reactive_ratio=low, key_threshold=key)
    for score in analyze(sums_table(active, passive), cfg):
        expected = _oracle(score.active_sum, score.passive_sum, active_max, passive_max, high, low, key)
        assert (score.region, score.key) == expected
        assert classify(score.active_sum, score.passive_sum, active_max, passive_max, cfg) is score.region


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(dominant_ratio=0.5, reactive_ratio=0.5)
    with pytest.raises(ValueError):
        AnalysisConfig(reactive_ratio=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(key_threshold=201)


@pytest.mark.parametrize("field", ["dominant_ratio", "reactive_ratio", "key_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_thresholds(field, value):
    with pytest.raises(ValueError, match="finite"):
        AnalysisConfig(**{field: value})


def test_key_selection_threshold():
    table = sums_table([0, 1, 23], [24, 1, 20])
    scores = analyze(table)
    by_id = {s.factor.id: s for s in scores}
    assert by_id[1].key  # combined norm 100
    assert not by_id[2].key  # combined norm near 8.5
    assert [s.key for s in scores] == [True, False, True]
    assert all(s.key for s in analyze(table, AnalysisConfig(key_threshold=0)))
    assert not any(s.key for s in analyze(table, AnalysisConfig(key_threshold=200)))


def test_key_uses_full_precision_not_display_values():
    # factor 25 in the case study: 1/23 and 1/24 combine to about 8.5
    scores = analyze(sums_table([1, 23], [1, 24]))
    assert scores[0].active_norm + scores[0].passive_norm == pytest.approx(8.514, abs=0.001)
    assert not scores[0].key


def test_analyze_single_chain():
    chain = FailureChain("a", "c", ((C.COMPONENT, "A"), (C.EFFECT, "B"), (C.HARM, "H")))
    scores = analyze(ChainSet((chain,)))
    by_name = {s.factor.display_name: s for s in scores}
    assert (by_name["A"].active_norm, by_name["A"].passive_norm) == (100.0, 0.0)
    assert (by_name["B"].active_norm, by_name["B"].passive_norm) == (100.0, 100.0)
    assert (by_name["H"].active_norm, by_name["H"].passive_norm) == (0.0, 100.0)
    assert by_name["A"].region is Region.DOMINANT
    assert by_name["B"].region is Region.DYNAMIC
    assert by_name["H"].region is Region.REACTIVE


def test_analyze_empty_chain_set():
    assert analyze(ChainSet()) == ()


def test_analyze_ranks_come_from_exact_sums():
    scores = analyze(sums_table([1000001, 1000000], [0, 0]))
    assert (scores[0].active_rank, scores[1].active_rank) == (1, 2)


@given(chain_sets())
@example(ChainSet())
def test_every_factor_gets_exactly_one_region_and_valid_ranks(chain_set):
    scores = analyze(chain_set)
    n = len(scores)
    for score in scores:
        assert isinstance(score.region, Region)
        assert 1 <= score.active_rank <= n
        assert 1 <= score.passive_rank <= n
        assert 0.0 <= score.active_norm <= 100.0
        assert 0.0 <= score.passive_norm <= 100.0
