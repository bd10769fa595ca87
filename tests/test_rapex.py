import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyfactors.dsl import Severity, parse_document
from keyfactors.rapex import (
    AlertRecord,
    MalformedRecordError,
    _parse_risks,
    import_rapex,
    parse_alert_records,
)


def test_three_risks_become_three_skeletons():
    record = AlertRecord(
        "A12/02261/23",
        product="hair dryer",
        risk_types=("burn", "electric shock", "fire"),
        description="Overheats during use.",
    )
    files, warnings = import_rapex([record])
    assert warnings == []
    assert len(files) == 3
    names = [name for name, _ in files]
    assert names == [
        "A12_02261_23__burn.chains",
        "A12_02261_23__electric_shock.chains",
        "A12_02261_23__fire.chains",
    ]
    for (name, document), risk in zip(files, ("burn", "electric shock", "fire")):
        assert "alert: A12/02261/23" in document
        assert f"case: {risk}" in document
        assert f'harm "{risk}"' in document
        assert "# product: hair dryer" in document
        assert "Overheats during use." in document


def test_skeleton_harm_line_parses_back_to_the_same_risk():
    files, _ = import_rapex([AlertRecord("A1", risk_types=('tricky "quoted" risk',))])
    _, document = files[0]
    # incomplete by design: the only error should be the missing prefix steps
    chain_set, diagnostics = parse_document(document)
    assert len(chain_set) == 0
    assert all("TooShort" in d.message for d in diagnostics)


def test_empty_risk_list_yields_unspecified_skeleton():
    files, warnings = import_rapex([AlertRecord("A2", description="no risks yet")])
    assert warnings == []
    assert len(files) == 1
    name, document = files[0]
    assert name == "A2__unspecified.chains"
    assert "case: unspecified" in document
    assert not any(line.startswith("harm ") for line in document.splitlines())
    assert "# WARNING:" in document


def test_duplicate_alert_risk_pair_is_deduplicated_with_warning():
    records = [
        AlertRecord("A3", risk_types=("burn",)),
        AlertRecord("A3", risk_types=("burn",)),
        AlertRecord("A4", risk_types=("burn", "fire", "cut")),
        AlertRecord("A4", risk_types=("fire", "smoke", "burn")),
        AlertRecord("A5"),
        AlertRecord("A5", description="listed again"),
        AlertRecord("A3", risk_types=("cut", "burn")),
    ]
    files, warnings = import_rapex(records)
    assert [name for name, _ in files] == [
        "A3__burn.chains",
        "A4__burn.chains",
        "A4__fire.chains",
        "A4__cut.chains",
        "A4__smoke.chains",
        "A5__unspecified.chains",
        "A3__cut.chains",
    ]
    # Each warning is at its record's 1-based index, not its pair's, in record and then risk order.
    assert warnings == [
        (Severity.WARNING, 2, 1, "duplicate alert/risk pair ('A3', 'burn'); skipped"),
        (Severity.WARNING, 4, 1, "duplicate alert/risk pair ('A4', 'fire'); skipped"),
        (Severity.WARNING, 4, 1, "duplicate alert/risk pair ('A4', 'burn'); skipped"),
        (Severity.WARNING, 6, 1, "duplicate alert/risk pair ('A5', 'unspecified'); skipped"),
        (Severity.WARNING, 7, 1, "duplicate alert/risk pair ('A3', 'burn'); skipped"),
    ]
    assert "listed again" not in files[5][1]  # the first record of a pair makes its file


def test_file_names_never_collide():
    records = [AlertRecord("A/4", risk_types=("x",)), AlertRecord("A_4", risk_types=("x",))]
    files, _ = import_rapex(records)
    assert len({name for name, _ in files}) == 2


def test_file_names_differ_in_more_than_case():
    # On a case-insensitive file system A1__Burn.chains and A1__burn.chains are one file.
    files, _ = import_rapex([AlertRecord("A1", risk_types=("Burn", "burn")), AlertRecord("a1", risk_types=("BURN",))])
    assert [name for name, _ in files] == ["A1__Burn.chains", "A1__burn-2.chains", "a1__BURN-3.chains"]


def test_parse_alert_records_default_fields():
    text = json.dumps(
        [{"alertNumber": "A5", "product": "p", "risk": "burn, fire", "description": "d"}]
    )
    (record,) = parse_alert_records(text)
    assert record.alert_number == "A5"
    assert record.risk_types == ("burn", "fire")


def test_parse_alert_records_custom_field_names():
    text = json.dumps([{"ref": "A6", "risks": ["cut"]}])
    (record,) = parse_alert_records(text, {"alert": "ref", "risk": "risks"})
    assert record.alert_number == "A6"
    assert record.risk_types == ("cut",)


def test_parse_alert_records_rejects_non_array():
    with pytest.raises(ValueError):
        parse_alert_records('{"alertNumber": "A7"}')
    with pytest.raises(ValueError):
        parse_alert_records("not json")


@pytest.mark.parametrize(
    "record",
    [
        {"product": "p"},
        {"alertNumber": ""},
        {"alertNumber": "A8", "risk": 7},
        {"alertNumber": "A8", "risk": [1]},
        {"alertNumber": "a\nb"},
    ],
)
def test_parse_alert_records_flags_malformed_records(record):
    with pytest.raises(MalformedRecordError) as exc_info:
        parse_alert_records(json.dumps([{"alertNumber": "ok"}, record]))
    assert exc_info.value.index == 2


@pytest.mark.parametrize("field", ["alertNumber", "product", "risk", "description"])
def test_parse_alert_records_rejects_lone_surrogates(field):
    record = {"alertNumber": "A1", "risk": "burn", field: "burn\ud800"}
    with pytest.raises(MalformedRecordError, match="UTF-8") as exc_info:
        parse_alert_records(json.dumps([{"alertNumber": "ok"}, record]))
    assert exc_info.value.index == 2


@pytest.mark.parametrize("risk", ["bu\u0001rn", "sh\u0085ock", "fire, bu\u007frn"])
def test_parse_alert_records_refuses_a_risk_with_a_control_character(risk):
    # The risk becomes the skeleton's harm name, which the parser would reject.
    record = {"alertNumber": "A1", "risk": risk}
    with pytest.raises(MalformedRecordError, match="risk text holds control character U\\+00") as exc_info:
        parse_alert_records(json.dumps([{"alertNumber": "ok", "risk": "burn\tmark"}, record]))
    assert exc_info.value.index == 2


def test_alert_record_requires_nonempty_number():
    with pytest.raises(ValueError):
        AlertRecord("   ")


MISSING_ALERT = "missing or empty field 'alertNumber'"
RISK_NOT_TEXT = "risk field must be a string or a list of strings"
NOT_UTF8 = "text cannot be encoded as UTF-8: surrogates not allowed"

# Texts a usable record may hold: blanks, commas, a tab and non-ASCII letters.
TEXT_CHARS = "Ab1/ ,\t-äß漢"
alert_texts = st.text(alphabet=TEXT_CHARS, min_size=1, max_size=8).filter(str.strip)
risk_texts = st.text(alphabet=TEXT_CHARS.replace(",", ""), max_size=8)


@st.composite
def usable_records(draw):
    record = {"alertNumber": draw(alert_texts)}
    risk = draw(st.one_of(st.none(), st.lists(risk_texts, max_size=3), st.lists(risk_texts, max_size=3).map(",".join)))
    for field, value in (("risk", risk), ("product", draw(st.text(max_size=8))), ("description", draw(st.text()))):
        if draw(st.booleans()):
            record[field] = value
    return record


# One change each to a usable record, and the error it must raise; None
# marks a change the reader accepts (null reads as an absent field).
MUTATIONS = {
    "no alert": (lambda record: {k: v for k, v in record.items() if k != "alertNumber"}, MISSING_ALERT),
    "blank alert": (lambda record: {**record, "alertNumber": " \t"}, MISSING_ALERT),
    "alert not a string": (lambda record: {**record, "alertNumber": 5}, MISSING_ALERT),
    "alert spans lines": (lambda record: {**record, "alertNumber": "a\nb"}, "alert number cannot span lines"),
    "alert ends in CR": (lambda record: {**record, "alertNumber": "a\r"}, "alert number cannot span lines"),
    "risk a number": (lambda record: {**record, "risk": 7}, RISK_NOT_TEXT),
    "risk entry a number": (lambda record: {**record, "risk": [1]}, "risk entries must be strings"),
    "risk an object": (lambda record: {**record, "risk": {"burn": 1}}, RISK_NOT_TEXT),
    "risk entry a list": (lambda record: {**record, "risk": [["burn"]]}, "risk entries must be strings"),
    "risk true": (lambda record: {**record, "risk": True}, RISK_NOT_TEXT),
    "risk spans lines": (lambda record: {**record, "risk": "burn\nfire"}, "risk text cannot span lines"),
    "control character in a risk": (
        lambda record: {**record, "risk": "bu\u0001rn, fire"},
        "risk text holds control character U+0001",
    ),
    "control character in a risk entry": (
        lambda record: {**record, "risk": ["sh\u0085ock"]},
        "risk text holds control character U+0085",
    ),
    "lone surrogate in the alert": (lambda record: {**record, "alertNumber": "A\ud800"}, NOT_UTF8),
    "lone surrogate in the product": (lambda record: {**record, "product": "p\udfff"}, NOT_UTF8),
    "lone surrogate in a risk": (lambda record: {**record, "risk": ["burn\ud800"]}, NOT_UTF8),
    "lone surrogate in the description": (lambda record: {**record, "description": "\ud800"}, NOT_UTF8),
    "product a number": (lambda record: {**record, "product": 7}, "field 'product' must be a string"),
    "product an object": (lambda record: {**record, "product": {"name": "dryer"}}, "field 'product' must be a string"),
    "product false": (lambda record: {**record, "product": False}, "field 'product' must be a string"),
    "product null": (lambda record: {**record, "product": None}, None),
    "description a number": (lambda record: {**record, "description": 2.5}, "field 'description' must be a string"),
    "description a list": (
        lambda record: {**record, "description": ["hot", "very"]},
        "field 'description' must be a string",
    ),
    "description null": (lambda record: {**record, "description": None}, None),
    "record a string": (lambda record: "A1", "record is not an object"),
    "record a list": (lambda record: [record], "record is not an object"),
}


def _reference(records):
    """The records built one at a time through the public constructor."""
    return [
        AlertRecord(
            record["alertNumber"],
            product=record.get("product") or "",
            risk_types=_parse_risks(record.get("risk"), 0),
            description=record.get("description") or "",
        )
        for record in records
    ]


@settings(max_examples=300)
@given(
    st.lists(usable_records(), max_size=6),
    st.one_of(st.none(), st.sampled_from(sorted(MUTATIONS))),
    st.integers(min_value=0),
    st.one_of(st.none(), st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(min_value=0))),
)
def test_the_first_unusable_record_is_named_and_a_usable_file_is_read_exactly(records, mutation, position, later):
    refusals = []  # (record number, message) of each change the reader must refuse, in record order
    if mutation is not None:
        records = records or [{"alertNumber": "A1"}]
        position %= len(records)
        changes = [(position, mutation)]
        # A second change at a later record: the error still names the earlier one, if it refuses it.
        if later is not None and position + 1 < len(records):
            later_mutation, offset = later
            changes.append((position + 1 + offset % (len(records) - position - 1), later_mutation))
        for at, name in changes:
            change, message = MUTATIONS[name]
            records[at] = change(records[at])
            if message is not None:
                refusals.append((at + 1, message))
    text = json.dumps(records)
    if not refusals:
        assert parse_alert_records(text) == _reference(records)
    else:
        index, message = refusals[0]
        with pytest.raises(MalformedRecordError) as exc_info:
            parse_alert_records(text)
        assert exc_info.value.index == index
        assert str(exc_info.value) == f"record {index}: {message}"


def test_null_product_and_description_are_read_whole_as_absent():
    text = json.dumps([{"alertNumber": "A1", "product": None, "risk": "burn", "description": None}] * 3)
    assert parse_alert_records(text) == [AlertRecord("A1", risk_types=("burn",))] * 3
