import math
from decimal import Decimal

import pytest

from keyfactors.analysis import AnalysisConfig, FactorScore, Region
from keyfactors.matrix import RelationshipMatrix, SumsTable
from keyfactors.model import ChainSet, Factor, FactorCategory, FailureChain
from keyfactors.rapex import AlertRecord

C = FactorCategory

PLUG = Factor(C.COMPONENT, "Plug", "plug", 1)
BURN = Factor(C.HARM, "burn", "burn", 2)
STEPS = ((C.COMPONENT, "Plug"), (C.HARM, "burn"))
CHAIN = FailureChain("A1", "burn", STEPS)


def _chain_set(chains):
    assert list(chains) == [CHAIN]
    assert ChainSet() == () and len(ChainSet()) == 0


def _matrix(matrix):
    # Edges are kept read-only in row-major order; the mapping has no hash.
    assert list(matrix.edges) == [(0, 1), (1, 0)]
    with pytest.raises(TypeError):
        matrix.edges[(0, 0)] = 1
    with pytest.raises(TypeError):
        hash(matrix)


def _config(cfg):
    assert repr(cfg) == "AnalysisConfig(dominant_ratio=3, reactive_ratio=Decimal('0.1'), key_threshold=50.0)"
    assert repr(AnalysisConfig()) == "AnalysisConfig(dominant_ratio=2.0, reactive_ratio=0.5, key_threshold=75.0)"
    assert AnalysisConfig(2, 0.5, 75) == AnalysisConfig() == (2.0, 0.5, 75.0)
    assert cfg._replace(key_threshold=60)._exact[2] == (60, 1)


def _alert(record):
    assert AlertRecord("A2") == ("A2", "", (), "")


# (type, keyword arguments, the fields they give where those differ,
# argument changes the constructor refuses, len(), further checks)
VALUE_TYPES = [
    (Factor, dict(category=C.COMPONENT, display_name="Plug", canonical_key="plug", id=1), {}, [], None, None),
    (
        FailureChain,
        dict(source_alert=" A1 ", case_label="\tburn ", steps=list(STEPS)),
        dict(source_alert="A1", case_label="burn", steps=STEPS),
        [],
        2,
        None,
    ),
    (ChainSet, dict(chains=[CHAIN]), dict(chains=(CHAIN,)), [], 1, _chain_set),
    (
        RelationshipMatrix,
        dict(factors=(PLUG, BURN), edges={(1, 0): 2, (0, 1): 1}),
        {},
        [dict(edges={(0, 2): 1}), dict(edges={(-1, 0): 1}), dict(edges={(0, 1): 0})],
        None,
        _matrix,
    ),
    (SumsTable, dict(factors=(PLUG, BURN), active=(1, 0), passive=(0, 1)), {}, [dict(active=(1,))], 2, None),
    (
        AnalysisConfig,
        dict(dominant_ratio=3, reactive_ratio=Decimal("0.1"), key_threshold=50.0),
        {},
        [
            dict(dominant_ratio=math.inf),
            dict(reactive_ratio=0),
            dict(reactive_ratio=3),
            dict(key_threshold=-1),
            dict(key_threshold=Decimal("200.1")),
        ],
        None,
        _config,
    ),
    (
        FactorScore,
        dict(
            factor=PLUG,
            active_sum=1,
            passive_sum=0,
            active_norm=100.0,
            passive_norm=0.0,
            active_rank=1,
            passive_rank=2,
            region=Region.DOMINANT,
            key=True,
        ),
        {},
        [],
        None,
        None,
    ),
    (
        AlertRecord,
        dict(alert_number=" A1 ", product="dryer", risk_types=["burn"], description="hot"),
        dict(alert_number="A1", risk_types=("burn",)),
        [dict(alert_number=" \t")],
        None,
        _alert,
    ),
]


@pytest.mark.parametrize(
    ("cls", "kwargs", "normalized", "refused", "length", "check"),
    VALUE_TYPES,
    ids=[case[0].__name__ for case in VALUE_TYPES],
)
def test_value_type_contract(cls, kwargs, normalized, refused, length, check):
    value = cls(**kwargs)
    assert cls(*kwargs.values()) == value
    for name, field in {**kwargs, **normalized}.items():
        assert getattr(value, name) == field
        with pytest.raises(AttributeError):
            setattr(value, name, field)
    if cls is not RelationshipMatrix:
        assert hash(cls(*kwargs.values())) == hash(value)
    if cls is not ChainSet:
        assert value._replace() == value
    for change in refused:
        with pytest.raises(ValueError):
            cls(**{**kwargs, **change})
        with pytest.raises(ValueError):
            value._replace(**change)
    if length is not None:
        assert len(value) == length
    if check is not None:
        check(value)
