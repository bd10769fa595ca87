"""Scores, rankings, and region classification for factor sums.

Active and passive sums are normalized to [0, 100] per axis, ranked with
descending competition ranking (ties share the smallest applicable
rank), and classified into regions by the ratio of the normalized
values. Key factors are those whose combined normalized magnitude
clears a configurable threshold. Region and key decisions are made on
the integer sums, each axis's maximum and the thresholds' exact values,
by integer cross-multiplication, once per distinct (active, passive)
pair; the float normalized values serve the scatter plot only, and the
report prints its norms from the integer sums.

AnalysisConfig and FactorScore are NamedTuples, so they compare equal to
plain tuples holding the same fields.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

from keyfactors.matrix import SumsTable, competition_rank, sums
from keyfactors.model import ChainSet, Factor

if TYPE_CHECKING:
    from decimal import Decimal


class Region(Enum):
    DOMINANT = "dominant"
    DYNAMIC = "dynamic"
    REACTIVE = "reactive"
    ISOLATED = "isolated"

    __hash__ = object.__hash__  # as FactorCategory's: runs in C, where Enum.__hash__ is a Python call


class AnalysisConfig(
    NamedTuple("AnalysisConfig", [("dominant_ratio", float), ("reactive_ratio", float), ("key_threshold", float)])
):
    """Thresholds for classification and key selection.

    dominant_ratio / reactive_ratio bound the normalized active:passive
    ratio; key_threshold applies to active_norm + passive_norm. A
    threshold may be any finite number with ``as_integer_ratio()`` (int,
    float, Decimal, Fraction), and decisions use its exact value: give
    Decimal("0.1"), not the float 0.1, to mean one tenth.
    """

    # No __slots__: each config keeps _exact, the (numerator, denominator)
    # of each threshold with denominator > 0, outside the compared fields.
    def __new__(
        cls,
        dominant_ratio: float | Decimal = 2.0,
        reactive_ratio: float | Decimal = 0.5,
        key_threshold: float | Decimal = 75.0,
    ) -> AnalysisConfig:
        thresholds = (dominant_ratio, reactive_ratio, key_threshold)
        if not all(map(math.isfinite, thresholds)):
            raise ValueError("ratios and key_threshold must be finite")
        if dominant_ratio <= 0 or reactive_ratio <= 0:
            raise ValueError("ratios must be positive")
        if reactive_ratio >= dominant_ratio:
            raise ValueError("reactive_ratio must be below dominant_ratio")
        if not 0 <= key_threshold <= 200:
            raise ValueError("key_threshold must lie in [0, 200]")
        cfg = super().__new__(cls, *thresholds)
        cfg._exact = tuple(t.as_integer_ratio() for t in thresholds)
        return cfg

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both run __new__


class FactorScore(NamedTuple):
    """All per-factor analysis results for one factor."""

    factor: Factor
    active_sum: int
    passive_sum: int
    active_norm: float
    passive_norm: float
    active_rank: int
    passive_rank: int
    region: Region
    key: bool


def _normalize(values: Sequence[int], peak: int) -> tuple[float, ...]:
    # Scale an axis to [0, 100] by its maximum ``peak``; a zero axis stays 0.
    return tuple(100.0 * value / peak for value in values) if peak else (0.0,) * len(values)


def classify(active_sum: int, passive_sum: int, active_max: int, passive_max: int, cfg: AnalysisConfig) -> Region:
    """Assign the region for one factor from its sums and each axis's maximum.

    The normalized ratio (active_sum / active_max) / (passive_sum /
    passive_max) is compared with the configured ratios by integer
    cross-multiplication, so a factor on a boundary lands on it; both
    boundaries are inclusive.
    """
    if not (0 <= active_sum <= active_max and 0 <= passive_sum <= passive_max):
        raise ValueError("sums must lie in [0, axis maximum]")
    if active_sum == 0 and passive_sum == 0:
        return Region.ISOLATED
    if passive_sum == 0:
        return Region.DOMINANT
    if active_sum == 0:
        return Region.REACTIVE
    (dn, dd), (rn, rd), _ = cfg._exact
    # ratio = left / right with both positive.
    left = active_sum * passive_max
    right = passive_sum * active_max
    if left * dd >= right * dn:
        return Region.DOMINANT
    if left * rd <= right * rn:
        return Region.REACTIVE
    return Region.DYNAMIC


def _is_key(active_sum: int, passive_sum: int, active_max: int, passive_max: int, cfg: AnalysisConfig) -> bool:
    # 100 * active_sum / active_max + 100 * passive_sum / passive_max >= kn / kd,
    # multiplied out; an all-zero axis has only zero sums, so its maximum may read 1.
    kn, kd = cfg._exact[2]
    active_max = active_max or 1
    passive_max = passive_max or 1
    return 100 * kd * (active_sum * passive_max + passive_sum * active_max) >= kn * active_max * passive_max


def analyze(data: ChainSet | SumsTable, cfg: AnalysisConfig | None = None) -> tuple[FactorScore, ...]:
    """Run the full scoring pipeline on chains or on a precomputed table.

    Accepting a SumsTable lets the downstream stages run on published
    aggregate tables when the underlying chains are unavailable.
    """
    cfg = cfg or AnalysisConfig()
    factors, active, passive = sums(data) if isinstance(data, ChainSet) else data
    active_max, passive_max = max(active, default=0), max(passive, default=0)
    # Sums count occurrences, so many factors share a pair, and both decisions
    # depend on the pair alone once the maxima and cfg are fixed.
    pairs = tuple(zip(active, passive))
    regions = {pair: classify(*pair, active_max, passive_max, cfg) for pair in dict.fromkeys(pairs)}
    keys = {pair: _is_key(*pair, active_max, passive_max, cfg) for pair in regions}
    columns = (
        _normalize(active, active_max), _normalize(passive, passive_max),
        competition_rank(active), competition_rank(passive),
        map(regions.__getitem__, pairs), map(keys.__getitem__, pairs),
    )
    return tuple(map(tuple.__new__, repeat(FactorScore), zip(factors, active, passive, *columns)))
