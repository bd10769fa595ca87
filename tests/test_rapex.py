import json

import pytest

from keyfactors.dsl import Severity, parse_document
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
