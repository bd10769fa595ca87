"""Importer for safety-alert records.

Reads a JSON array of flat alert records and produces one skeleton
chain document per (alert, risk) pair. A skeleton carries the alert and
case headers, the alert description as comment lines, and the terminal
harm step; the analyst fills in the preceding steps. Field names in the
record file are remappable because export schemas vary.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, NamedTuple

from keyfactors.dsl import _UNWRITABLE_RE, Diagnostic, Severity, _escape_name
from keyfactors.model import DEFAULT_FIELDS

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

    records: list[AlertRecord] = []
    for index, raw in enumerate(data, start=1):
        if not isinstance(raw, dict):
            raise MalformedRecordError(index, "record is not an object")
        alert = raw.get(field_map["alert"])
        if not isinstance(alert, str) or not alert.strip():
            raise MalformedRecordError(
                index, f"missing or empty field {field_map['alert']!r}"
            )
        if "\n" in alert or "\r" in alert:
            raise MalformedRecordError(index, "alert number cannot span lines")
        record = AlertRecord(
            alert_number=alert,
            product=str(raw.get(field_map["product"], "") or ""),
            risk_types=_parse_risks(raw.get(field_map["risk"]), index),
            description=str(raw.get(field_map["description"], "") or ""),
        )
        # JSON escapes can spell lone surrogates, which no output file can hold.
        try:
            "".join((record.alert_number, record.product, *record.risk_types, record.description)).encode()
        except UnicodeEncodeError as exc:
            raise MalformedRecordError(index, f"text cannot be encoded as UTF-8: {exc.reason}") from None
        records.append(record)
    return records


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
    files: list[tuple[str, str]] = []
    warnings: list[Diagnostic] = []
    seen_pairs: set[tuple[str, str]] = set()
    used_names: set[str] = set()

    for index, record in enumerate(records, start=1):
        cases: tuple[str | None, ...] = record.risk_types or (None,)
        for risk in cases:
            case = risk if risk is not None else UNSPECIFIED_CASE
            pair = (record.alert_number, case)
            if pair in seen_pairs:
                warnings.append(
                    Diagnostic(
                        Severity.WARNING,
                        index,
                        1,
                        f"duplicate alert/risk pair ({record.alert_number!r}, {case!r}); skipped",
                    )
                )
                continue
            seen_pairs.add(pair)
            name = _unique_file_name(record.alert_number, case, used_names)
            files.append((name, _skeleton(record, risk)))
    return files, warnings


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
