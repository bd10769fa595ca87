import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from corpus import chain_sets
from keyfactors.analysis import (
    AnalysisConfig,
    Region,
    analyze,
    classify,
    competition_rank,
    display_round,
    format_display,
    normalize_sums,
    select_key_factors,
)
from keyfactors.matrix import SumsTable
from keyfactors.model import ChainSet, Factor, FactorCategory, FailureChain

C = FactorCategory


def sums_table(active, passive):
    factors = tuple(
        Factor(C.COMPONENT, f"f{i}", f"f{i}", i) for i in range(1, len(active) + 1)
    )
    return SumsTable(factors, tuple(active), tuple(passive))


def test_normalize_is_scaled_by_axis_maximum():
    active_norm, passive_norm = normalize_sums(sums_table([22, 23, 0], [8, 24, 0]))
    assert format_display(active_norm[0]) == "95.7"
    assert active_norm[1] == 100.0
    assert format_display(passive_norm[0]) == "33.3"
    assert passive_norm[1] == 100.0


def test_normalize_zero_axis_is_all_zero():
    active_norm, passive_norm = normalize_sums(sums_table([0, 0], [3, 1]))
    assert active_norm == (0.0, 0.0)
    assert passive_norm == (100.0, 100.0 / 3)


def test_display_rounding_is_half_away_from_zero():
    assert display_round(12.25, 1) == 12.3  # bankers' rounding would give 12.2
    assert display_round(95.65217391304348, 1) == 95.7
    assert format_display(75.0, 1) == "75.0"
    assert format_display(13.04, 0) == "13"


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
    assert classify(100 * 8 / 23, 100 * 3 / 24) is Region.DOMINANT
    # factor 23: sums 22 and 20
    assert classify(100 * 22 / 23, 100 * 20 / 24) is Region.DYNAMIC
    assert classify(0.0, 0.0) is Region.ISOLATED
    assert classify(40.0, 0.0) is Region.DOMINANT
    assert classify(0.0, 40.0) is Region.REACTIVE


def test_classify_boundaries_are_inclusive():
    assert classify(50.0, 25.0) is Region.DOMINANT  # ratio exactly 2.0
    assert classify(25.0, 50.0) is Region.REACTIVE  # ratio exactly 0.5
    assert classify(49.9, 25.0) is Region.DYNAMIC


def test_classify_rejects_out_of_range_input():
    with pytest.raises(ValueError):
        classify(101.0, 0.0)
    with pytest.raises(ValueError):
        classify(0.0, -0.1)


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=0.01, max_value=1.0),
)
def test_classify_depends_only_on_the_ratio(a, p, scale):
    assume(a * scale > 0 and p * scale > 0)
    assert classify(a, p) is classify(a * scale, p * scale)


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(dominant_ratio=0.5, reactive_ratio=0.5)
    with pytest.raises(ValueError):
        AnalysisConfig(reactive_ratio=-1)
    with pytest.raises(ValueError):
        AnalysisConfig(key_threshold=201)
    with pytest.raises(ValueError):
        AnalysisConfig(display_decimals=-1)


@pytest.mark.parametrize("field", ["dominant_ratio", "reactive_ratio", "key_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_thresholds(field, value):
    with pytest.raises(ValueError, match="finite"):
        AnalysisConfig(**{field: value})


def test_key_selection_threshold():
    scores = analyze(sums_table([0, 1, 23], [24, 1, 20]))
    by_id = {s.factor.id: s for s in scores}
    assert by_id[1].key  # combined norm 100
    assert not by_id[2].key  # combined norm near 8.5
    assert select_key_factors(scores) == (True, False, True)
    everything = select_key_factors(scores, AnalysisConfig(key_threshold=0))
    assert all(everything)
    nothing = select_key_factors(scores, AnalysisConfig(key_threshold=200))
    assert not any(nothing)


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
def test_every_factor_gets_exactly_one_region_and_valid_ranks(chain_set):
    scores = analyze(chain_set)
    n = len(scores)
    for score in scores:
        assert isinstance(score.region, Region)
        assert 1 <= score.active_rank <= n
        assert 1 <= score.passive_rank <= n
        assert 0.0 <= score.active_norm <= 100.0
        assert 0.0 <= score.passive_norm <= 100.0
