"""Scores, rankings, and region classification for factor sums.

Active and passive sums are normalized to [0, 100] per axis, ranked with
descending competition ranking (ties share the smallest applicable
rank), and classified into regions by the ratio of the normalized
values. Key factors are those whose combined normalized magnitude
clears a configurable threshold. All decisions are made on exact
values; rounding affects display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Sequence

from keyfactors.matrix import SumsTable, build_matrix, sums
from keyfactors.model import ChainSet, Factor


class Region(Enum):
    DOMINANT = "dominant"
    DYNAMIC = "dynamic"
    REACTIVE = "reactive"
    ISOLATED = "isolated"


@dataclass(frozen=True)
class AnalysisConfig:
    """Thresholds and rounding rules for classification and key selection.

    dominant_ratio / reactive_ratio bound the normalized active:passive
    ratio; key_threshold applies to active_norm + passive_norm.
    """

    dominant_ratio: float = 2.0
    reactive_ratio: float = 0.5
    key_threshold: float = 75.0
    display_decimals: int = 1

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.dominant_ratio, self.reactive_ratio, self.key_threshold))):
            raise ValueError("ratios and key_threshold must be finite")
        if self.dominant_ratio <= 0 or self.reactive_ratio <= 0:
            raise ValueError("ratios must be positive")
        if self.reactive_ratio >= self.dominant_ratio:
            raise ValueError("reactive_ratio must be below dominant_ratio")
        if not 0 <= self.key_threshold <= 200:
            raise ValueError("key_threshold must lie in [0, 200]")
        if self.display_decimals < 0:
            raise ValueError("display_decimals must be >= 0")


@dataclass(frozen=True)
class FactorScore:
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


def normalize_sums(table: SumsTable) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Scale each axis to [0, 100] by its own maximum; a zero axis stays 0."""
    return _normalize(table.active), _normalize(table.passive)


def _normalize(values: Sequence[int]) -> tuple[float, ...]:
    peak = max(values, default=0)
    if peak == 0:
        return tuple(0.0 for _ in values)
    return tuple(100.0 * value / peak for value in values)


def competition_rank(values: Sequence[int]) -> tuple[int, ...]:
    """Descending "1224" ranking: rank = 1 + number of strictly greater values."""
    ordered = sorted(values, reverse=True)
    first_position: dict[int, int] = {}
    for position, value in enumerate(ordered, start=1):
        if value not in first_position:
            first_position[value] = position
    return tuple(first_position[value] for value in values)


def classify(active_norm: float, passive_norm: float, cfg: AnalysisConfig | None = None) -> Region:
    """Assign the region for one factor's normalized coordinates."""
    cfg = cfg or AnalysisConfig()
    if not (0 <= active_norm <= 100 and 0 <= passive_norm <= 100):
        raise ValueError("normalized values must lie in [0, 100]")
    if active_norm == 0 and passive_norm == 0:
        return Region.ISOLATED
    if passive_norm == 0:
        return Region.DOMINANT
    if active_norm == 0:
        return Region.REACTIVE
    ratio = active_norm / passive_norm
    if ratio >= cfg.dominant_ratio:
        return Region.DOMINANT
    if ratio <= cfg.reactive_ratio:
        return Region.REACTIVE
    return Region.DYNAMIC


def _is_key(active_norm: float, passive_norm: float, cfg: AnalysisConfig) -> bool:
    return active_norm + passive_norm >= cfg.key_threshold


def select_key_factors(scores: Sequence[FactorScore], cfg: AnalysisConfig | None = None) -> tuple[bool, ...]:
    """Key flags for already-normalized scores (combined-magnitude rule)."""
    cfg = cfg or AnalysisConfig()
    return tuple(_is_key(s.active_norm, s.passive_norm, cfg) for s in scores)


def analyze(data: ChainSet | SumsTable, cfg: AnalysisConfig | None = None) -> tuple[FactorScore, ...]:
    """Run the full scoring pipeline on chains or on a precomputed table.

    Accepting a SumsTable lets the downstream stages run on published
    aggregate tables when the underlying chains are unavailable.
    """
    cfg = cfg or AnalysisConfig()
    table = sums(build_matrix(data)) if isinstance(data, ChainSet) else data
    active_norm, passive_norm = normalize_sums(table)
    active_rank = competition_rank(table.active)
    passive_rank = competition_rank(table.passive)
    return tuple(
        FactorScore(
            factor=factor,
            active_sum=table.active[i],
            passive_sum=table.passive[i],
            active_norm=active_norm[i],
            passive_norm=passive_norm[i],
            active_rank=active_rank[i],
            passive_rank=passive_rank[i],
            region=classify(active_norm[i], passive_norm[i], cfg),
            key=_is_key(active_norm[i], passive_norm[i], cfg),
        )
        for i, factor in enumerate(table.factors)
    )


def display_round(value: float, decimals: int = 1) -> float:
    """Round half away from zero, as the printed report values are."""
    return float(_quantize(value, decimals))


def format_display(value: float, decimals: int = 1) -> str:
    """Fixed-decimals text form of a value, half-away-from-zero rounded."""
    return str(_quantize(value, decimals))


def _quantize(value: float, decimals: int) -> Decimal:
    exponent = Decimal(1).scaleb(-decimals)
    return Decimal(repr(float(value))).quantize(exponent, rounding=ROUND_HALF_UP)
