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
chains whose corpus is not public, into a SumsTable. The csv module reads
each row once, and each check then runs over a whole column in C-level
passes, with no Python step per row. A refused table is refused for its
first failing row and the first check that row fails, as a row-by-row
reader would: each check after a failure looks only at the rows before it.

RelationshipMatrix and SumsTable are NamedTuples, so they compare equal
to plain tuples holding the same fields.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections import Counter
from operator import and_, attrgetter, gt, is_, itemgetter, ne, not_
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

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
    holding a control character the chain format cannot write. The header is
    the first row with a cell not blank. A row of empty cells, such as the
    ``,,,,`` a spreadsheet writes below its data, is skipped with a warning; a
    harm with a nonzero active sum, and totals that differ, get one each. Line
    numbers count the text's lines, each ended by LF, CRLF or a lone CR.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    refusal = None
    try:
        rows.extend(reader)
    except csv.Error as exc:  # such as a cell over csv.field_size_limit(); the rows before it are kept
        refusal = f"line {reader.line_num}: {exc}"
    filled = list(map(bool, map(str.strip, map("".join, rows))))
    if (start := _first(filled)) is None and refusal:
        raise ValueError(refusal)
    header = [] if start is None else [cell.strip() for cell in rows[start]]
    missing = [c for c in SUMS_COLUMNS if c not in header]
    if missing:
        hint = ""
        if set(SUMS_COLUMNS) <= {part.strip() for part in ",".join(header).split(";")}:
            hint = " (the file looks semicolon-delimited; sums tables must be comma-separated)"
        raise ValueError(f"missing columns: {', '.join(missing)}{hint}")
    for column in SUMS_COLUMNS:
        if header.count(column) > 1:
            raise ValueError(f"line {_lines(text, rows)[start]}: column {column!r} appears twice")
    places = list(itertools.compress(range(start + 1, len(rows)), filled[start + 1 :]))  # of the data rows
    data = list(map(rows.__getitem__, places))
    # The data rows before ``end`` pass every check so far; ``why`` says why row ``end`` fails, or the csv module did.
    end, why = len(data), refusal
    if (at := _first(map(len(header).__ne__, map(len, data)))) is not None:
        end, why = at, f"{len(data[at])} cells, but the header has {len(header)}"
    columns = list(zip(*data[:end])) or [()] * len(header)
    for column in ("id", "active_sum", "passive_sum"):
        digits = "".join(cells := columns[header.index(column)][:end])
        if not (digits.isascii() and digits.isdigit() and all(cells)):  # int() alone takes 1_2 or other digits
            cells = list(map(str.strip, cells))
            whole = map(and_, map(str.isascii, cells), map(str.isdigit, cells))
            if (at := _first(map(not_, whole))) is not None:
                end, why = at, f"{column} {cells[at]!r} is not a whole number"
        values: list[int] = []
        try:
            values.extend(map(int, cells[:end]))
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            end, why = len(values), f"{column} has {len(cells[len(values)])} digits, too many to read"
        columns[header.index(column)] = values
    ids, categories, names, actives, passives = map(columns.__getitem__, map(header.index, SUMS_COLUMNS))
    if 0 in ids[:end]:
        end, why = ids.index(0), "id must be positive"
    if not "".join(names[:end]).isprintable():  # a printable text holds no control character
        unwritable = re.compile(_UNWRITABLE).search
        if (at := _first(map(unwritable, names[:end]))) is not None:
            end, why = at, f"name holds control character U+{ord(unwritable(names[at])[0]):04X}"
    parsed = {cell: _parsed(FactorCategory.parse, cell) for cell in set(categories[:end])}
    kinds = list(map(parsed.__getitem__, categories[:end]))
    if (at := _first(map(isinstance, kinds, itertools.repeat(str)))) is not None:
        end, why = at, kinds[at]
    keys = list(map(str.casefold, map(" ".join, map(str.split, names[:end]))))  # normalize_name, column-wise
    if "" in keys:
        end, why = keys.index(""), _parsed(normalize_name, names[keys.index("")])
    if (at := _first_repeat(ids[:end])) is not None:
        end, why = at, f"duplicate id {ids[at]}"
    if (at := _first_repeat(zip(kinds[:end], keys))) is not None:
        end, why = at, f"duplicate factor {names[at]!r}"
    if why:
        raise ValueError(why if end == len(data) else f"line {_lines(text, rows)[places[end]]}: {why}")
    # The warnings by row, in line order: rows of blank cells (an empty line has none) and harms with an active sum.
    empty = map(gt, map(bool, rows), filled)
    notes = dict.fromkeys(itertools.compress(itertools.count(), empty), "empty row skipped")
    harms = map(and_, map(is_, kinds, itertools.repeat(FactorCategory.HARM)), map(bool, actives))
    for i in itertools.compress(itertools.count(), harms):
        notes[places[i]] = f"harm {names[i].strip()!r} has active sum {actives[i]}; a harm ends every chain"
    lines = _lines(text, rows) if notes else ()
    warnings = [f"line {lines[i]}: warning: {notes[i]}" for i in sorted(notes)]
    if sum(actives) != sum(passives):
        warnings.append(f"warning: total active sum {sum(actives)} != total passive sum {sum(passives)}")
    # The columns hold what Factor and SumsTable would store, so both are built without their __new__.
    factors = tuple(map(tuple.__new__, itertools.repeat(Factor), zip(kinds, map(str.strip, names), keys, ids)))
    return tuple.__new__(SumsTable, (factors, tuple(actives), tuple(passives))), warnings


def _first(flags: Iterable[object]) -> int | None:
    """The position of the first true flag, or None."""
    return next(itertools.compress(itertools.count(), flags), None)


def _first_repeat(values: Iterable[Hashable]) -> int | None:
    """The first position whose value an earlier position holds, or None."""
    return _first(map(ne, map({}.setdefault, values, itertools.count()), itertools.count()))


def _parsed(parse: Callable[[str], object], cell: str) -> object:
    """What parse makes of cell, or the message of the ValueError it raises."""
    try:
        return parse(cell)
    except ValueError as exc:
        return str(exc)


def _lines(text: str, rows: list[list[str]]) -> Sequence[int]:
    """The line each of the rows read from text ends on: row i is on line i + 1 unless a record spans lines."""
    if "\r" not in text and len(rows) == text.count("\n") + (not text.endswith("\n")):
        return range(1, len(rows) + 1)
    reader = csv.reader(io.StringIO(text, newline=""))
    return [reader.line_num for _ in itertools.islice(reader, len(rows))]


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
