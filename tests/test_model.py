import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from corpus import failure_chains
from keyfactors import model
from keyfactors.model import (
    EMPTY_NAME,
    HARM_NOT_TERMINAL,
    MISSING_HARM,
    SELF_TRANSITION,
    TOO_SHORT,
    EmptyNameError,
    Factor,
    FactorCategory,
    FailureChain,
    normalize_name,
    validate_chain,
)

C = FactorCategory


def chain(*steps):
    return FailureChain("A1", "case", tuple(steps))


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("  Heating   Element ", "heating element"),
        ("power I [A]", "power i [a]"),
        ("plug", "plug"),
        ("A\tB\nC", "a b c"),
    ],
)
def test_normalize_name(raw, expected):
    assert normalize_name(raw) == expected


@pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
def test_normalize_name_rejects_empty(raw):
    with pytest.raises(EmptyNameError):
        normalize_name(raw)


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_normalize_name_idempotent(raw):
    once = normalize_name(raw)
    assert normalize_name(once) == once
    assert once == once.strip()
    assert "  " not in once


def test_validate_accepts_well_formed_chain():
    good = chain((C.COMPONENT, "plug"), (C.EFFECT, "electric arc"), (C.HARM, "burn"))
    assert validate_chain(good) == []


def test_validate_reports_harm_not_terminal():
    bad = chain((C.COMPONENT, "plug"), (C.HARM, "burn"), (C.ACTION, "user pulls"))
    violations = validate_chain(bad)
    assert [v.rule for v in violations] == [HARM_NOT_TERMINAL]
    assert violations[0].step == 2


def test_validate_reports_too_short_for_lone_harm():
    violations = validate_chain(chain((C.HARM, "burn")))
    rules = [v.rule for v in violations]
    assert TOO_SHORT in rules
    assert HARM_NOT_TERMINAL not in rules  # the harm is in terminal position


def test_validate_reports_missing_harm():
    violations = validate_chain(chain((C.COMPONENT, "plug"), (C.ACTION, "user pulls")))
    assert [v.rule for v in violations] == [MISSING_HARM]
    assert violations[0].step == 2


def test_validate_reports_self_transition_case_insensitively():
    bad = chain((C.COMPONENT, "Plug"), (C.COMPONENT, "  plug "), (C.HARM, "burn"))
    violations = validate_chain(bad)
    assert [v.rule for v in violations] == [SELF_TRANSITION]
    assert violations[0].step == 2


def test_same_name_different_category_is_not_a_self_transition():
    ok = chain((C.COMPONENT, "insulation"), (C.FUNCTION, "insulation"), (C.HARM, "burn"))
    assert validate_chain(ok) == []


def test_validate_reports_empty_step_name():
    violations = validate_chain(chain((C.COMPONENT, "  "), (C.HARM, "burn")))
    assert [v.rule for v in violations] == [EMPTY_NAME]


def test_violations_come_in_step_order():
    bad = chain((C.HARM, "x"), (C.COMPONENT, " "), (C.HARM, "y"), (C.ACTION, "z"))
    steps = [v.step for v in validate_chain(bad)]
    assert steps == sorted(steps)


TOO_SHORT_TEXT = "chain has {} step(s); at least one step must precede the terminal harm"


@pytest.mark.parametrize(
    "steps, expected",
    [
        ((), [(TOO_SHORT, 1, TOO_SHORT_TEXT.format(0))]),
        (((C.HARM, "burn"),), [(TOO_SHORT, 1, TOO_SHORT_TEXT.format(1))]),
        (
            ((C.COMPONENT, "  "), (C.HARM, "burn")),
            [(EMPTY_NAME, 1, "step 1 name '  ' is empty after normalization")],
        ),
        (
            ((C.COMPONENT, "plug"), (C.HARM, "burn"), (C.ACTION, "user pulls")),
            [(HARM_NOT_TERMINAL, 2, "harm 'burn' at step 2 is not the final step")],
        ),
        (
            ((C.COMPONENT, "plug"), (C.ACTION, "user pulls")),
            [(MISSING_HARM, 2, "final step must be a harm, got category 'action'")],
        ),
        (
            ((C.COMPONENT, "Plug"), (C.COMPONENT, "  plug "), (C.HARM, "burn")),
            [(SELF_TRANSITION, 2, "step 2 repeats the preceding factor '  plug '")],
        ),
        # A blank name has no identity, so the equal steps around it are not adjacent.
        (
            ((C.COMPONENT, "plug"), (C.COMPONENT, " "), (C.COMPONENT, "plug"), (C.HARM, "burn")),
            [(EMPTY_NAME, 2, "step 2 name ' ' is empty after normalization")],
        ),
        (
            ((C.HARM, "x"), (C.COMPONENT, " "), (C.HARM, "y"), (C.ACTION, "z")),
            [
                (HARM_NOT_TERMINAL, 1, "harm 'x' at step 1 is not the final step"),
                (EMPTY_NAME, 2, "step 2 name ' ' is empty after normalization"),
                (HARM_NOT_TERMINAL, 3, "harm 'y' at step 3 is not the final step"),
            ],
        ),
        (
            ((C.HARM, "burn"), (C.HARM, "Burn")),
            [
                (HARM_NOT_TERMINAL, 1, "harm 'burn' at step 1 is not the final step"),
                (SELF_TRANSITION, 2, "step 2 repeats the preceding factor 'Burn'"),
            ],
        ),
        (((C.COMPONENT, "insulation"), (C.FUNCTION, "insulation"), (C.HARM, "burn")), []),
    ],
    ids=[
        "no-steps", "lone-harm", "blank-first", "harm-2-of-3", "no-harm", "respelled-repeat",
        "blank-between-equal", "harm-blank-harm-action", "two-equal-harms", "name-in-two-categories",
    ],
)
def test_validate_chain_reports_exactly(steps, expected):
    assert validate_chain(chain(*steps)) == expected


def test_factor_identity_is_category_plus_key():
    a = Factor(C.COMPONENT, "Plug", "plug", 1)
    b = Factor(C.COMPONENT, "plug", "plug", 2)
    c = Factor(C.FUNCTION, "plug", "plug", 3)
    assert a.identity == b.identity
    assert a.identity != c.identity


def test_category_hashes_by_identity():
    assert all(hash(c) == object.__hash__(c) for c in C)


def test_chain_strips_header_fields_and_is_immutable():
    ch = FailureChain("  A1 ", " burn\t", ((C.COMPONENT, "plug"), (C.HARM, "burn")))
    assert ch.source_alert == "A1"
    assert ch.case_label == "burn"
    with pytest.raises(AttributeError):
        ch.case_label = "other"



def _mutate_one_step(chain, kind, i):
    steps = list(chain.steps)
    i %= len(steps)
    category, name = steps[i]
    if kind == "delete":
        del steps[i]
    elif kind == "repeat":  # the same factor again, respelled
        steps.insert(i + 1, (category, f"  {name.upper()} "))
    elif kind == "blank":
        steps[i] = (category, " \t ")
    elif kind == "to_harm":
        steps[i] = (C.HARM, name)
    elif kind == "from_harm":
        steps[i] = (C.EFFECT, name) if category is C.HARM else (category, name)
    elif kind == "recategorize":
        steps[i] = (C.ACTION if category is not C.ACTION else C.NOISE_FACTOR, name)
    return FailureChain(chain.source_alert, chain.case_label, tuple(steps))


@given(
    failure_chains(),
    st.sampled_from(["keep", "delete", "repeat", "blank", "to_harm", "from_harm", "recategorize"]),
    st.integers(min_value=0, max_value=20),
)
@example(chain((C.COMPONENT, "plug"), (C.HARM, "burn")), "delete", 0)  # a lone harm
@example(chain((C.HARM, "burn"), (C.COMPONENT, "plug")), "keep", 0)  # one harm, not last
def test_validate_chain_accepts_exactly_the_chains_valid_by_rule(chain, kind, i):
    candidate = _mutate_one_step(chain, kind, i)
    assert (validate_chain(candidate) == []) == valid_by_rule(candidate)


def valid_by_rule(chain):
    """The five chain invariants, restated apart from model."""
    categories = [category for category, _ in chain.steps]
    keys = [(category, " ".join(name.split()).casefold()) for category, name in chain.steps]
    return (
        len(keys) >= 2  # TooShort
        and all(name for _, name in keys)  # EmptyName
        and categories[-1] is C.HARM  # MissingHarm
        and C.HARM not in categories[:-1]  # HarmNotTerminal
        and all(a != b for a, b in zip(keys, keys[1:]))  # SelfTransition
    )


def test_identity_table_starts_over_when_full(monkeypatch):
    table = model._Memo(model._IDENTITIES.compute)
    table.limit = 3
    monkeypatch.setattr(model, "_IDENTITIES", table)
    steps = ((C.COMPONENT, "A"), (C.EFFECT, "B"), (C.ACTION, "C"), (C.EFFECT, " b "), (C.HARM, "H"))
    for _ in range(2):
        assert validate_chain(chain(*steps)) == []
        assert 0 < len(model._IDENTITIES) <= 3
        assert all(ident == (step[0], normalize_name(step[1])) for step, ident in model._IDENTITIES.items())
    # After the table starts over, B and " b " are still one factor, so side by side they repeat.
    assert [v.rule for v in validate_chain(chain(*steps[:2], (C.EFFECT, " b "), steps[4]))] == [SELF_TRANSITION]


def test_a_rejected_chain_is_explained_without_normalizing_again(monkeypatch):
    monkeypatch.setattr(model, "_IDENTITIES", model._Memo(model._IDENTITIES.compute))
    calls = []
    normalize = model.normalize_name
    monkeypatch.setattr(model, "normalize_name", lambda raw: calls.append(raw) or normalize(raw))
    rejected = chain((C.COMPONENT, "Plug"), (C.COMPONENT, " plug "), (C.HARM, "burn"), (C.ACTION, "pull"))
    # The quick check normalizes each step once; the walk that explains the chain reads the table.
    for normalized in (["Plug", " plug ", "burn", "pull"], []):
        assert [v.rule for v in validate_chain(rejected)] == [SELF_TRANSITION, HARM_NOT_TERMINAL]
        assert calls == normalized
        calls.clear()
