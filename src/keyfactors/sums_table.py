"""Reader for a published sums table, the CSV that stands in for chains whose corpus is not public.

parse_sums_table reads such a table into a SumsTable. The csv module reads
each row once, and each check then runs over a whole column in C-level
passes, with no Python step per row. A refused table is refused for its
first failing row and the first check that row fails, as a row-by-row
reader would: each check after a failure looks only at the rows before it.

Only ``--from-sums`` runs this reader, so it lives apart from the matrix
layer: a command that builds a matrix loads neither it nor csv.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from operator import and_, gt, is_, ne, not_
from typing import Callable, Hashable, Iterable

from keyfactors.matrix import SumsTable
from keyfactors.model import _UNWRITABLE, Factor, FactorCategory, normalize_name

SUMS_COLUMNS = ["id", "category", "name", "active_sum", "passive_sum"]


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


def _lines(text: str, rows: list[list[str]]) -> list[int]:
    """The line each of the rows read from text ends on, as the csv reader counts them."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return [reader.line_num for _ in itertools.islice(reader, len(rows))]
