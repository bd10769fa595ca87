import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyfactors import rapex
from keyfactors.dsl import Severity, parse_document
from keyfactors.model import DEFAULT_FIELDS
from keyfactors.rapex import (
    AlertRecord,
    MalformedRecordError,
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
    ]
    files, warnings = import_rapex(records)
    assert len(files) == 1
    assert len(warnings) == 1
    assert warnings[0].severity is Severity.WARNING
    assert warnings[0].line == 2  # the second record


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


# One change each that makes a record unusable, or that the per-record reader
# repairs (a product or description that is not a string).
MUTATIONS = {
    "no alert": lambda record: {k: v for k, v in record.items() if k != "alertNumber"},
    "blank alert": lambda record: {**record, "alertNumber": " \t"},
    "alert not a string": lambda record: {**record, "alertNumber": 5},
    "alert spans lines": lambda record: {**record, "alertNumber": "a\nb"},
    "alert ends in CR": lambda record: {**record, "alertNumber": "a\r"},
    "risk a number": lambda record: {**record, "risk": 7},
    "risk entry a number": lambda record: {**record, "risk": [1]},
    "risk an object": lambda record: {**record, "risk": {"burn": 1}},
    "risk entry a list": lambda record: {**record, "risk": [["burn"]]},
    "risk true": lambda record: {**record, "risk": True},
    "risk spans lines": lambda record: {**record, "risk": "burn\nfire"},
    "control character in a risk": lambda record: {**record, "risk": "bu\u0001rn, fire"},
    "control character in a risk entry": lambda record: {**record, "risk": ["sh\u0085ock"]},
    "lone surrogate in the alert": lambda record: {**record, "alertNumber": "A\ud800"},
    "lone surrogate in the product": lambda record: {**record, "product": "p\udfff"},
    "lone surrogate in a risk": lambda record: {**record, "risk": ["burn\ud800"]},
    "lone surrogate in the description": lambda record: {**record, "description": "\ud800"},
    "product a number": lambda record: {**record, "product": 7},
    "product null": lambda record: {**record, "product": None},
    "description a number": lambda record: {**record, "description": 2.5},
    "record a string": lambda record: "A1",
    "record a list": lambda record: [record],
}


def _outcome(text):
    try:
        return parse_alert_records(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(
    st.lists(usable_records(), max_size=6),
    st.one_of(st.none(), st.sampled_from(sorted(MUTATIONS))),
    st.integers(min_value=0),
)
def test_the_whole_file_and_the_per_record_reader_agree(records, mutation, position):
    if mutation is not None:
        records = records or [{"alertNumber": "A1"}]
        position %= len(records)
        records[position] = MUTATIONS[mutation](records[position])
    text = json.dumps(records)
    whole = _outcome(text)
    with mock.patch.object(rapex, "_accept", return_value=None):
        assert _outcome(text) == whole
    if mutation is None:
        assert rapex._accept(json.loads(text), dict(DEFAULT_FIELDS)) == whole
