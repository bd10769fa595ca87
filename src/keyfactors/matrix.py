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

parse_sums_table reads a published sums table, the CSV that stands in for
chains whose corpus is not public, into a SumsTable.

RelationshipMatrix and SumsTable are NamedTuples, so they compare equal
to plain tuples holding the same fields.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections import Counter
from operator import attrgetter, itemgetter
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from keyfactors import model
from keyfactors.model import (
    CATEGORY_ORDER,
    _UNWRITABLE,
    ChainSet,
    ChainValidationError,
    EmptyNameError,
    Factor,
    FactorCategory,
    Identity,
    normalize_name,
    validate_chain,
)

SUMS_COLUMNS = ["id", "category", "name", "active_sum", "passive_sum"]


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


def parse_sums_table(text: str) -> tuple[SumsTable, list[str]]:
    """Read a sums table, a CSV with the SUMS_COLUMNS in any order; the table and its warnings.

    Raises ValueError, naming the line where there is one, for a table that
    cannot be read, such as one whose header names a column twice or a name
    holding a control character the chain format cannot write. A row of
    empty cells, such as the ``,,,,`` a spreadsheet writes below its data, is
    skipped with a warning; a harm with a nonzero active sum, and totals
    that differ, get one each. Line numbers count the text's lines.
    """
    reader = csv.reader(io.StringIO(text))

    def read() -> Iterator[list[str]]:
        # The csv module's own errors, such as a cell over csv.field_size_limit(), become ValueErrors too.
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None

    rows = read()
    header = [cell.strip() for cell in next(filter(None, rows), [])]
    missing = [c for c in SUMS_COLUMNS if c not in header]
    if missing:
        hint = ""
        if set(SUMS_COLUMNS) <= {part.strip() for part in ",".join(header).split(";")}:
            hint = " (the file looks semicolon-delimited; sums tables must be comma-separated)"
        raise ValueError(f"missing columns: {', '.join(missing)}{hint}")
    for column in SUMS_COLUMNS:
        if header.count(column) > 1:
            raise ValueError(f"line {reader.line_num}: column {column!r} appears twice")
    pick = itemgetter(*map(header.index, SUMS_COLUMNS))
    unwritable = re.compile(_UNWRITABLE).search
    warnings: list[str] = []
    factors: list[Factor] = []
    active: list[int] = []
    passive: list[int] = []
    seen_ids: set[int] = set()
    seen_identities: set[Identity] = set()
    for cells in rows:
        where = f"line {reader.line_num}"
        if not any(map(str.strip, cells)):
            if cells:
                warnings.append(f"{where}: warning: empty row skipped")
            continue
        if len(cells) != len(header):
            raise ValueError(f"{where}: {len(cells)} cells, but the header has {len(header)}")
        id_text, category_text, name, active_text, passive_text = pick(cells)
        factor_id, active_sum, passive_sum = (
            _whole_number(where, column, cell)
            for column, cell in (("id", id_text), ("active_sum", active_text), ("passive_sum", passive_text))
        )
        if factor_id == 0:
            raise ValueError(f"{where}: id must be positive")
        control = unwritable(name)
        if control:
            raise ValueError(f"{where}: name holds control character U+{ord(control[0]):04X}")
        try:
            category = FactorCategory.parse(category_text)
            key = normalize_name(name)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if factor_id in seen_ids:
            raise ValueError(f"{where}: duplicate id {factor_id}")
        if (category, key) in seen_identities:
            raise ValueError(f"{where}: duplicate factor {name!r}")
        seen_ids.add(factor_id)
        seen_identities.add((category, key))
        if category is FactorCategory.HARM and active_sum:
            warnings.append(
                f"{where}: warning: harm {name.strip()!r} has active sum {active_sum}; a harm ends every chain"
            )
        factors.append(Factor(category, name.strip(), key, factor_id))
        active.append(active_sum)
        passive.append(passive_sum)
    if sum(active) != sum(passive):
        warnings.append(f"warning: total active sum {sum(active)} != total passive sum {sum(passive)}")
    return SumsTable(tuple(factors), tuple(active), tuple(passive)), warnings


def _whole_number(where: str, column: str, text: str) -> int:
    """A cell in ASCII digits, blanks around it stripped; int() alone would take 1_2 or other scripts' digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{where}: {column} {text!r} is not a whole number")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ValueError(f"{where}: {column} has {len(text)} digits, too many to read") from None


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
