"""Importer for safety-alert records.

Reads a JSON array of flat alert records and produces one skeleton
chain document per (alert, risk) pair. A skeleton carries the alert and
case headers, the alert description as comment lines, and the terminal
harm step; the analyst fills in the preceding steps. Field names in the
record file are remappable because export schemas vary.

parse_alert_records reads the records in one pass, in file order, and
checks each in full before the next, so a refused file is named by its
first unusable record and that record's first failing check. Each
distinct risk value is read once. import_rapex likewise walks the
records once, keeping each (alert, risk) pair's first occurrence. It
quotes names by model's rule and warns in Diagnostics, loading no parser.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple

from keyfactors.model import _UNWRITABLE, DEFAULT_FIELDS, Diagnostic, Severity, _escape_name

UNSPECIFIED_CASE = "unspecified"


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
    MalformedRecordError for the first unusable record, at the first check
    it fails. The checks, in order: the record is an object; its alert
    field is a string with text that spans no lines; its product and
    description fields are each a string, null or absent (null reads as
    absent); its risk value passes _parse_risks; and all its text encodes
    as UTF-8 (_parse_risks checks the risks', once per distinct value).
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
    alert_field, product_field, risk_field, description_field = (
        field_map[role] for role in ("alert", "product", "risk", "description")
    )
    risk_table: dict[object, tuple[str, ...]] = {}  # each usable risk value, a list keyed as a tuple, read once
    records = []
    for index, raw in enumerate(data, start=1):
        if type(raw) is not dict:
            raise MalformedRecordError(index, "record is not an object")
        alert = raw.get(alert_field)
        if type(alert) is not str or not (alert_number := alert.strip()):
            raise MalformedRecordError(index, f"missing or empty field {alert_field!r}")
        if "\n" in alert or "\r" in alert:
            raise MalformedRecordError(index, "alert number cannot span lines")
        product = raw.get(product_field, "")
        if type(product) is not str:
            if product is not None:
                raise MalformedRecordError(index, f"field {product_field!r} must be a string")
            product = ""
        description = raw.get(description_field, "")
        if type(description) is not str:
            if description is not None:
                raise MalformedRecordError(index, f"field {description_field!r} must be a string")
            description = ""
        value = raw.get(risk_field)
        key = tuple(value) if type(value) is list else value
        try:
            risks = risk_table.get(key)
        except TypeError:  # an object, or a list holding one or a list: no key, and _parse_risks refuses it
            risks = None
        if risks is None:
            risks = risk_table[key] = _parse_risks(value, index)
        _check_utf8(f"{alert}{product}{description}", index)
        # The fields are what AlertRecord.__new__ would store, so the record is built without it.
        records.append(tuple.__new__(AlertRecord, (alert_number, product, risks, description)))
    return records


def _parse_risks(value: object, index: int) -> tuple[str, ...]:
    """The risks a record's risk value lists, or MalformedRecordError(index, why)."""
    if value is None:
        return ()
    if isinstance(value, str):
        items = value.split(",")
    elif isinstance(value, list):
        if not {*map(type, value)} <= {str}:
            raise MalformedRecordError(index, "risk entries must be strings")
        items = value
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
        control = re.search(_UNWRITABLE, risk)
        if control:
            raise MalformedRecordError(index, f"risk text holds control character U+{ord(control[0]):04X}")
        risks.append(risk)
    _check_utf8("".join(risks), index)
    return tuple(risks)


def _check_utf8(text: str, index: int) -> None:
    # JSON escapes can spell lone surrogates, which no output file can hold.
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise MalformedRecordError(index, f"text cannot be encoded as UTF-8: {exc.reason}") from None


def import_rapex(records: list[AlertRecord]) -> tuple[list[tuple[str, str]], list[Diagnostic]]:
    """Produce one (file name, document) skeleton per (alert, risk) pair.

    A record without risk types yields a single 'unspecified' skeleton
    with no harm step, flagged by a warning comment inside the document.
    Duplicate (alert, risk) pairs are dropped with a warning diagnostic
    whose line number is the 1-based record index.
    """
    files = []
    warnings = []
    duplicate_texts: dict[tuple[str, str], str] = {}  # each pair seen, to the warning a later occurrence gets
    used_names: set[str] = set()
    for index, record in enumerate(records, start=1):
        for case in record.risk_types or (UNSPECIFIED_CASE,):
            pair = (record.alert_number, case)
            if pair in duplicate_texts:
                warnings.append(Diagnostic(Severity.WARNING, index, 1, duplicate_texts[pair]))
                continue
            duplicate_texts[pair] = f"duplicate alert/risk pair ({record.alert_number!r}, {case!r}); skipped"
            files.append((_unique_file_name(record.alert_number, case, used_names), _skeleton(record, case)))
    return files, warnings


def _skeleton(record: AlertRecord, case: str) -> str:
    lines = [f"alert: {record.alert_number}", f"case: {case}"]
    if record.product.strip():
        lines.append(f"# product: {' '.join(record.product.split())}")
    description = [ln.strip() for ln in record.description.splitlines() if ln.strip()]
    if description:
        lines.append("# description:")
        lines.extend(f"#   {ln}" for ln in description)
    if record.risk_types:
        lines.append("# insert the causing steps here, one per line, before the harm")
        lines.append(f'harm "{_escape_name(case)}"')
    else:
        lines.append("# WARNING: alert lists no risk type; add the terminal harm step")
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
