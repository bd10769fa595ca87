"""Importer for safety-alert records.

Reads a JSON array of flat alert records and produces one skeleton
chain document per (alert, risk) pair. A skeleton carries the alert and
case headers, the alert description as comment lines, and the terminal
harm step; the analyst fills in the preceding steps. Field names in the
record file are remappable because export schemas vary.

One rule, _accept, says which records are usable, and only it builds
AlertRecords. It reads each field for all records at once and checks it
in C-level passes, reads each distinct risk value once, and builds the
records from those columns, with no Python step per record. A file it
refuses is checked again by the same rule one record at a time, from the
first, so the error names the first unusable record and says what is
wrong with it. import_rapex likewise lists every (alert, risk) pair at
once, keeps each pair's first occurrence, and writes each distinct
pair's duplicate warning text once.
"""

from __future__ import annotations

import itertools
import json
import re
from operator import itemgetter, ne
from types import NoneType
from typing import Iterable, NamedTuple

from keyfactors.diagnostics import Diagnostic, Severity, _escape_name
from keyfactors.model import _UNWRITABLE, DEFAULT_FIELDS

UNSPECIFIED_CASE = "unspecified"
_UNWRITABLE_RE = re.compile(_UNWRITABLE)


class MalformedRecordError(ValueError):
    """A single alert record cannot be used; carries its 1-based index."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"record {index}: {message}")


class AlertRecord(
    NamedTuple(
        "AlertRecord", [("alert_number", str), ("product", str), ("risk_types", tuple[str, ...]), ("description", str)]
    )
):
    """One safety alert: a product failure report with zero or more risks."""

    __slots__ = ()

    def __new__(
        cls, alert_number: str, product: str = "", risk_types: Iterable[str] = (), description: str = ""
    ) -> AlertRecord:
        if not alert_number.strip():
            raise ValueError("alert_number must be nonempty")
        return super().__new__(cls, alert_number.strip(), product, tuple(risk_types), description)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both run __new__


def parse_alert_records(text: str, fields: dict[str, str] | None = None) -> list[AlertRecord]:
    """Decode a JSON array of flat records into AlertRecords.

    Raises ValueError for a file that is not a JSON array and
    MalformedRecordError for an unusable record.
    """
    field_map = dict(DEFAULT_FIELDS)
    if fields:
        field_map.update(fields)
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nested array
        raise ValueError(f"alert file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError("alert file must be a JSON array of flat records")
    try:
        return _accept(data, field_map)
    except MalformedRecordError as exc:
        refusal = exc
    # The same rule, applied to one record at a time, names the first unusable record.
    for index, raw in enumerate(data, start=1):
        _accept([raw], field_map, index)
    raise refusal  # unreachable while the rule refuses a file only for one of its records


# The type a decoded risk value is converted to for a key of the risk table: a
# list becomes a tuple and None the type NoneType. A str or a number converts
# to itself; an object, or a list holding one or a list, gives no key.
_RISK_KEY_TYPES = {list: tuple, NoneType: type}


def _accept(data: list, field_map: dict[str, str], index: int = 0) -> list[AlertRecord]:
    """The records of data, or MalformedRecordError(index, why) at the first check that fails.

    The checks, in order: every record is an object; every alert field is
    a string with text that spans no lines; every product and description
    field is a string, null or absent (null reads as absent); each distinct
    risk value passes _parse_risks; and all the text encodes as UTF-8.
    Each runs as a C-level pass over a whole column, _parse_risks runs once
    per distinct risk value, and no Python step runs per record.
    """
    if not {*map(type, data)} <= {dict}:
        raise MalformedRecordError(index, "record is not an object")
    alerts, products, risk_values, descriptions = (
        list(map(dict.get, data, itertools.repeat(field_map[role]), itertools.repeat(default)))
        for role, default in (("alert", None), ("product", ""), ("risk", None), ("description", ""))
    )
    if not {*map(type, alerts)} <= {str} or not all(stripped := list(map(str.strip, alerts))):
        raise MalformedRecordError(index, f"missing or empty field {field_map['alert']!r}")
    joined = "".join(alerts)
    if "\n" in joined or "\r" in joined:
        raise MalformedRecordError(index, "alert number cannot span lines")
    for role, column in (("product", products), ("description", descriptions)):
        kinds = {*map(type, column)}
        if not kinds <= {str, NoneType}:
            raise MalformedRecordError(index, f"field {field_map[role]!r} must be a string")
        if NoneType in kinds:
            column[:] = map({None: ""}.get, column, column)
    types = list(map(type, risk_values))
    keys = list(map(type.__call__, map(_RISK_KEY_TYPES.get, types, types), risk_values))
    try:
        distinct = dict(zip(keys, risk_values))
    except TypeError:  # a value that gives no key: read each value on its own
        keys = range(len(risk_values))
        distinct = dict(enumerate(risk_values))
    table = {key: _parse_risks(value, index) for key, value in distinct.items()}
    # JSON escapes can spell lone surrogates, which no output file can hold. An ASCII text holds none,
    # and joining only the others keeps a file of long descriptions from being copied twice.
    texts = itertools.chain(alerts, products, descriptions, *table.values())
    try:
        "".join(itertools.filterfalse(str.isascii, texts)).encode()
    except UnicodeEncodeError as exc:
        raise MalformedRecordError(index, f"text cannot be encoded as UTF-8: {exc.reason}") from None
    # The columns hold what AlertRecord.__new__ would store, so the records are built without it.
    columns = zip(stripped, products, map(table.__getitem__, keys), descriptions)
    return list(map(tuple.__new__, itertools.repeat(AlertRecord), columns))


def _parse_risks(value: object, index: int) -> tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        items = value.split(",")
    elif isinstance(value, list):
        items = []
        for item in value:
            if not isinstance(item, str):
                raise MalformedRecordError(index, "risk entries must be strings")
            items.append(item)
    else:
        raise MalformedRecordError(index, "risk field must be a string or a list of strings")
    risks = []
    for item in items:
        risk = item.strip()
        if not risk:
            continue
        if "\n" in risk or "\r" in risk:
            raise MalformedRecordError(index, "risk text cannot span lines")
        # The risk becomes the harm step's name, which cannot hold such a character.
        control = _UNWRITABLE_RE.search(risk)
        if control:
            raise MalformedRecordError(index, f"risk text holds control character U+{ord(control[0]):04X}")
        risks.append(risk)
    return tuple(risks)


def import_rapex(records: list[AlertRecord]) -> tuple[list[tuple[str, str]], list[Diagnostic]]:
    """Produce one (file name, document) skeleton per (alert, risk) pair.

    A record without risk types yields a single 'unspecified' skeleton
    with no harm step, flagged by a warning comment inside the document.
    Duplicate (alert, risk) pairs are dropped with a warning diagnostic
    whose line number is the 1-based record index.
    """
    # Every (alert, case) pair of every record, in record order, and the
    # 1-based index of its record; a record without risks has one pair.
    pairs = [(record.alert_number, risk) for record in records for risk in record.risk_types or (UNSPECIFIED_CASE,)]
    counts = map(max, map(len, map(itemgetter(2), records)), itertools.repeat(1))
    lines = list(itertools.chain.from_iterable(map(itertools.repeat, itertools.count(1), counts)))
    # Each pair's first occurrence makes its file; every later one is a duplicate.
    first = dict(zip(reversed(pairs), reversed(range(len(pairs)))))
    used_names: set[str] = set()
    files = []
    for position in sorted(first.values()):
        alert, case = pairs[position]
        record = records[lines[position] - 1]
        skeleton = _skeleton(record, case if record.risk_types else None)  # a record without risks has no harm
        files.append((_unique_file_name(alert, case, used_names), skeleton))
    later = list(map(ne, map(first.__getitem__, pairs), itertools.count()))
    texts = {pair: f"duplicate alert/risk pair ({pair[0]!r}, {pair[1]!r}); skipped" for pair in first}
    columns = zip(
        itertools.repeat(Severity.WARNING),
        itertools.compress(lines, later),
        itertools.repeat(1),
        map(texts.__getitem__, itertools.compress(pairs, later)),
    )
    return files, list(map(tuple.__new__, itertools.repeat(Diagnostic), columns))


def _skeleton(record: AlertRecord, risk: str | None) -> str:
    case = risk if risk is not None else UNSPECIFIED_CASE
    lines = [f"alert: {record.alert_number}", f"case: {case}"]
    if record.product.strip():
        lines.append(f"# product: {' '.join(record.product.split())}")
    description = [ln.strip() for ln in record.description.splitlines() if ln.strip()]
    if description:
        lines.append("# description:")
        lines.extend(f"#   {ln}" for ln in description)
    if risk is None:
        lines.append("# WARNING: alert lists no risk type; add the terminal harm step")
    else:
        lines.append("# insert the causing steps here, one per line, before the harm")
        lines.append(f'harm "{_escape_name(risk)}"')
    return "\n".join(lines) + "\n"


def _unique_file_name(alert: str, case: str, used: set[str]) -> str:
    # used holds the names casefolded: on a case-insensitive file system A1__Burn and A1__burn are one file.
    base = f"{_sanitize(alert)}__{_sanitize(case)}"
    name = f"{base}.chains"
    suffix = 2
    while name.casefold() in used:
        name = f"{base}-{suffix}.chains"
        suffix += 1
    used.add(name.casefold())
    return name


def _sanitize(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)
