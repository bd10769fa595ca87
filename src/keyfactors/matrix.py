"""Aggregation of chain sets into the influence-factor relationship matrix.

Cell (r, c) counts how often factor r immediately precedes factor c
across all chains; repeated observations add up, which is the weighting
of relationships by frequency. Row sums are active sums (how often a
factor influenced others), column sums are passive sums (how often it
was influenced).

Merged failure networks are almost all zeros, so the matrix stores only
its nonzero cells (edges). Building, summing, merging and walking it cost
O(edges), not O(factors²). The dense CSV export still writes factors² cells,
but as comma runs between the nonzero cells, in O(factors + edges) steps.

RelationshipMatrix and SumsTable are NamedTuples, so they compare equal
to plain tuples holding the same fields.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from keyfactors.model import (
    CATEGORY_ORDER,
    ChainSet,
    ChainValidationError,
    Factor,
    Identity,
    normalize_name,
    step_identities,
    validate_chain,
)


class RelationshipMatrix(NamedTuple("RelationshipMatrix", [("factors", tuple[Factor, ...]), ("edges", Mapping)])):
    """Sparse transition counts over an ordered factor list.

    ``edges`` maps 0-based (row, column) factor indices to positive
    counts; every cell it omits is zero. The matrix keeps the edges as a
    read-only mapping in row-major order, so iterating it walks the
    nonzero cells row by row.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[Factor, ...], edges: Mapping[tuple[int, int], int]) -> RelationshipMatrix:
        n = len(factors)
        for (r, c), count in edges.items():
            if not (0 <= r < n and 0 <= c < n) or count <= 0:
                raise ValueError(f"edge ({r}, {c}) = {count}: index out of range or count not positive")
        # One integer sort key per cell sorts much faster than (row, col) tuples.
        ordered = sorted(edges.items(), key=lambda item: item[0][0] * n + item[0][1])
        return super().__new__(cls, factors, MappingProxyType(dict(ordered)))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both run __new__

    @property
    def size(self) -> int:
        return len(self.factors)

    def total(self) -> int:
        return sum(self.edges.values())


class SumsTable(
    NamedTuple("SumsTable", [("factors", tuple[Factor, ...]), ("active", tuple[int, ...]), ("passive", tuple[int, ...])])
):
    """Active and passive sums per factor, in the order of ``factors``; len() counts factors."""

    __slots__ = ()

    def __new__(cls, factors: tuple[Factor, ...], active: tuple[int, ...], passive: tuple[int, ...]) -> SumsTable:
        if not (len(factors) == len(active) == len(passive)):
            raise ValueError("factors, active and passive must have equal length")
        return super().__new__(cls, factors, active, passive)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both run __new__

    def __len__(self) -> int:
        return len(self.factors)

    def total_active(self) -> int:
        return sum(self.active)

    def total_passive(self) -> int:
        return sum(self.passive)


def _ordered_factors(display: dict[Identity, str]) -> tuple[Factor, ...]:
    # Presentation order: category group first, then first appearance.
    # ``display`` is in first-appearance order and the sort is stable.
    idents = sorted(display, key=lambda ident: CATEGORY_ORDER[ident[0]])
    return tuple(
        Factor(category=ident[0], display_name=display[ident], canonical_key=ident[1], id=i)
        for i, ident in enumerate(idents, start=1)
    )


def build_matrix(chains: ChainSet) -> RelationshipMatrix:
    """Fold a chain set into the relationship matrix.

    Each step's identity comes from step_identities, which also checks
    the chain invariants; validate_chain runs only on the chains that
    check rejects, to say why. Rejects the whole input (no partial
    matrix) if any chain is invalid, raising ChainValidationError with
    every offending chain's violations.
    """
    # Paths hold first-appearance numbers rather than identities, so each
    # chain's identities are freed as soon as they have been looked up.
    seen: dict[Identity, int] = {}
    names: list[str] = []
    paths = []
    invalid = []
    for index, chain in enumerate(chains):
        idents = step_identities(chain)
        if idents is None:
            invalid.append((index, validate_chain(chain)))
            continue
        try:
            path = list(map(seen.__getitem__, idents))
        except KeyError:
            # The chain brings a new identity: number it and keep its name.
            path = []
            for ident, (_, name) in zip(idents, chain.steps):
                number = seen.setdefault(ident, len(seen))
                if number == len(names):
                    names.append(name)
                path.append(number)
        paths.append(path)
    if invalid:
        raise ChainValidationError(invalid)

    factors = _ordered_factors(dict(zip(seen, names)))
    index_of = [0] * len(factors)
    for factor in factors:
        index_of[seen[factor.identity]] = factor.id - 1

    edges: Counter[tuple[int, int]] = Counter()
    for path in paths:
        rows = [index_of[i] for i in path]
        edges.update(zip(rows, rows[1:]))
    return RelationshipMatrix(factors, edges)


def merge(a: RelationshipMatrix, b: RelationshipMatrix) -> RelationshipMatrix:
    """Combine two matrices: factor union by identity, counts added cell-wise.

    Ordering is reapplied with a's factors appearing before b's novel
    ones inside each category; display names keep the first-seen spelling.
    """
    display: dict[Identity, str] = {}
    for factor in a.factors + b.factors:
        display.setdefault(factor.identity, factor.display_name)
    factors = _ordered_factors(display)
    index_of = {factor.identity: factor.id - 1 for factor in factors}

    edges: Counter[tuple[int, int]] = Counter()
    for source in (a, b):
        new = [index_of[factor.identity] for factor in source.factors]
        edges.update({(new[r], new[c]): count for (r, c), count in source.edges.items()})
    return RelationshipMatrix(factors, edges)


def sums(matrix: RelationshipMatrix) -> SumsTable:
    """Row and column sums of the matrix: the active and passive sums."""
    active = [0] * matrix.size
    passive = [0] * matrix.size
    for (r, c), count in matrix.edges.items():
        active[r] += count
        passive[c] += count
    return SumsTable(matrix.factors, tuple(active), tuple(passive))


def competition_rank(values: Sequence[int]) -> tuple[int, ...]:
    """Descending "1224" ranking: rank = 1 + number of strictly greater values."""
    ordered = sorted(values, reverse=True)
    first_position: dict[int, int] = {}
    for position, value in enumerate(ordered, start=1):
        if value not in first_position:
            first_position[value] = position
    return tuple(first_position[value] for value in values)


def brute_force_sums(chains: ChainSet) -> SumsTable:
    """Independent oracle: count transition endpoints directly, no matrix.

    Must equal sums(build_matrix(chains)) for every valid chain set. Only
    the factor order is shared with build_matrix (_ordered_factors).
    """
    active: Counter[Identity] = Counter()
    passive: Counter[Identity] = Counter()
    display: dict[Identity, str] = {}
    for chain in chains:
        idents = [(category, normalize_name(name)) for category, name in chain.steps]
        for ident, (_, name) in zip(idents, chain.steps):
            display.setdefault(ident, name)
        for source, target in zip(idents, idents[1:]):
            active[source] += 1
            passive[target] += 1
    factors = _ordered_factors(display)
    return SumsTable(
        factors,
        tuple(active[factor.identity] for factor in factors),
        tuple(passive[factor.identity] for factor in factors),
    )
