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

A chain set is numbered once, all its chains end to end: build_matrix
looks each distinct raw step (category, name) up in the identity table
once, maps every step to its factor's index with C-level maps, and checks
the chains on those numbers. sums counts a chain set's sums from the same
numbers without building the matrix. Neither runs Python code per chain
or per step, only per distinct raw step and per factor.

RelationshipMatrix and SumsTable are NamedTuples, so they compare equal
to plain tuples holding the same fields.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from keyfactors import model
from keyfactors.model import (
    CATEGORY_ORDER,
    ChainSet,
    ChainValidationError,
    EmptyNameError,
    Factor,
    FactorCategory,
    Identity,
    normalize_name,
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


def _ordered_factors(display: dict[Identity, str]) -> tuple[Factor, ...]:
    # Presentation order: category group first, then first appearance.
    # ``display`` is in first-appearance order and the sort is stable.
    idents = sorted(display, key=lambda ident: CATEGORY_ORDER[ident[0]])
    columns = map(itemgetter(0), idents), map(display.__getitem__, idents), map(itemgetter(1), idents)
    return tuple(map(Factor._make, zip(*columns, itertools.count(1))))


def _invalid(chains: ChainSet) -> ChainValidationError:
    # The error path only: validate_chain explains each chain the set check rejected.
    return ChainValidationError(
        [(index, violations) for index, chain in enumerate(chains) if (violations := validate_chain(chain))]
    )


def _number(chains: ChainSet) -> tuple[tuple[Factor, ...], list[int]]:
    """The factors of a chain set and every step's 0-based factor index, all chains end to end.

    Each distinct raw step (category, name) is looked up in the identity
    table once, whatever the number of chains or steps; the rest runs in
    C-level maps and counts. The whole set is checked at once, on the
    numbers, by model._all_valid once no name is found blank. Raises
    ChainValidationError, with every offending chain's violations, if the
    set is invalid.
    """
    step_lists = list(map(attrgetter("steps"), chains))
    steps = list(itertools.chain.from_iterable(step_lists))
    index = dict.fromkeys(steps)
    display: dict[Identity, str] = {}
    try:
        # Read through the module, so a replaced table (tests swap it) is the one used.
        for step in index:
            index[step] = identity = model._IDENTITIES[step]
            display.setdefault(identity, step[1])
    except EmptyNameError:
        raise _invalid(chains) from None
    factors = _ordered_factors(display)
    position = dict(zip(map(itemgetter(0, 2), factors), itertools.count()))  # identity: index
    for step, identity in index.items():
        index[step] = position[identity]
    rows = list(map(index.__getitem__, steps))
    if not model._all_valid(step_lists, steps, rows):
        raise _invalid(chains)
    return factors, rows


def _not_harm(factors: tuple[Factor, ...]) -> Callable[[int], bool]:
    # Presentation order puts the harms last, so a row is a harm exactly
    # when it is at least the number of factors that are not harms.
    return sum(factor.category is not FactorCategory.HARM for factor in factors).__gt__


def build_matrix(chains: ChainSet) -> RelationshipMatrix:
    """Fold a chain set into the relationship matrix.

    Every step is numbered and the whole set checked in one pass
    (_number), which looks each distinct raw step up once; validate_chain
    runs only if that check fails, to say why. Rejects the whole input
    (no partial matrix) if any chain is invalid, raising
    ChainValidationError with every offending chain's violations.
    """
    factors, rows = _number(chains)
    # Every step that is not a harm is followed by the next step of its
    # chain; a pair that starts at a harm spans two chains.
    edges = Counter(itertools.compress(zip(rows, rows[1:]), map(_not_harm(factors), rows)))
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


def sums(data: RelationshipMatrix | ChainSet) -> SumsTable:
    """Row and column sums of the matrix: the active and passive sums.

    A chain set is checked as build_matrix checks it, and its sums are
    counted from its steps without building the matrix: a factor's active
    sum is the number of its steps (0 for a harm), its passive sum the
    number of its steps that follow a step that is not a harm (the steps
    that do not open a chain).
    """
    if isinstance(data, ChainSet):
        factors, rows = _number(data)
        not_harm = _not_harm(factors)
        active = Counter(filter(not_harm, rows))
        passive = Counter(itertools.compress(rows[1:], map(not_harm, rows)))
        every = range(len(factors))
        return SumsTable(factors, tuple(map(active.__getitem__, every)), tuple(map(passive.__getitem__, every)))
    active = [0] * data.size
    passive = [0] * data.size
    for (r, c), count in data.edges.items():
        active[r] += count
        passive[c] += count
    return SumsTable(data.factors, tuple(active), tuple(passive))


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
