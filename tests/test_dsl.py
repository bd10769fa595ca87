import random
import re
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from corpus import chain_sets, failure_chains, mutate_text, random_chain_set
from keyfactors import dsl
from keyfactors.diagnostics import _ESCAPES
from keyfactors.dsl import (
    _STEP_KEYWORDS,
    Diagnostic,
    Severity,
    _LineError,
    _classify,
    _escape_name,
    parse_document,
    serialize_document,
)
from keyfactors.model import (
    _UNWRITABLE,
    ChainSet,
    ChainValidationError,
    FactorCategory,
    FailureChain,
    Violation,
    _Memo,
    validate_chain,
)

C = FactorCategory

HAIR_DRYER_BURN = """\
alert: A12/02261/23
case: burn
component "hair dryer"
control "power I [A]"
effect "Joule-Lenz-Heating"
control "increasing temperature Q [J]"
action "operation without breaks"
harm "burn"
"""


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def test_parse_hair_dryer_burn_chain():
    chain_set, diagnostics = parse_document(HAIR_DRYER_BURN)
    assert diagnostics == []
    assert len(chain_set) == 1
    chain = chain_set.chains[0]
    assert chain.source_alert == "A12/02261/23"
    assert chain.case_label == "burn"
    assert chain.steps == (
        (C.COMPONENT, "hair dryer"),
        (C.CONTROL_FACTOR, "power I [A]"),
        (C.EFFECT, "Joule-Lenz-Heating"),
        (C.CONTROL_FACTOR, "increasing temperature Q [J]"),
        (C.ACTION, "operation without breaks"),
        (C.HARM, "burn"),
    )


def test_parse_empty_document():
    chain_set, diagnostics = parse_document("")
    assert len(chain_set) == 0
    assert diagnostics == []


def test_parse_comments_and_blank_lines_are_ignored():
    doc = "# heading\n\n" + HAIR_DRYER_BURN + "\n   # trailing comment\n"
    chain_set, diagnostics = parse_document(doc)
    assert len(chain_set) == 1
    assert diagnostics == []


def test_unknown_category_is_an_error():
    chain_set, diagnostics = parse_document('alert: a\ncase: c\ngizmo "x"\nharm "h"\n')
    assert len(chain_set) == 0
    errs = errors_of(diagnostics)
    assert len(errs) == 1
    assert "unknown category 'gizmo'" in errs[0].message
    assert (errs[0].line, errs[0].column) == (3, 1)


def test_unterminated_quote_is_an_error():
    _, diagnostics = parse_document('alert: a\ncase: c\ncomponent "plug\nharm "h"\n')
    assert any("unterminated quoted name" in d.message for d in errors_of(diagnostics))


def test_invalid_escape_is_an_error():
    _, diagnostics = parse_document('alert: a\ncase: c\ncomponent "pl\\qug"\nharm "h"\n')
    assert any("invalid escape" in d.message for d in errors_of(diagnostics))


def test_trailing_text_after_name_is_an_error():
    _, diagnostics = parse_document('alert: a\ncase: c\ncomponent "plug" extra\nharm "h"\n')
    assert any("unexpected text" in d.message for d in errors_of(diagnostics))


def test_missing_headers_are_errors():
    chain_set, diagnostics = parse_document('component "plug"\nharm "h"\n')
    assert len(chain_set) == 0
    messages = [d.message for d in errors_of(diagnostics)]
    assert any("'alert:'" in m for m in messages)
    assert any("'case:'" in m for m in messages)


def test_duplicate_header_is_an_error():
    _, diagnostics = parse_document('alert: a\nalert: b\ncase: c\ncomponent "x"\nharm "h"\n')
    assert any("duplicate header" in d.message for d in errors_of(diagnostics))


def test_header_after_step_is_an_error():
    _, diagnostics = parse_document('alert: a\ncomponent "x"\ncase: c\nharm "h"\n')
    assert any("header after the first step" in d.message for d in errors_of(diagnostics))


def test_invalid_chain_is_excluded_but_others_survive():
    doc = 'alert: a\ncase: c\nharm "h"\ncomponent "x"\n---\n' + HAIR_DRYER_BURN
    chain_set, diagnostics = parse_document(doc)
    assert len(chain_set) == 1
    assert chain_set.chains[0].case_label == "burn"
    assert any("HarmNotTerminal" in d.message for d in errors_of(diagnostics))


def test_empty_block_warns_but_does_not_exclude():
    doc = "---\n" + HAIR_DRYER_BURN
    chain_set, diagnostics = parse_document(doc)
    assert len(chain_set) == 1
    assert [d.severity for d in diagnostics] == [Severity.WARNING]


def test_trailing_separator_warns_about_the_empty_last_block():
    for doc, line in ((HAIR_DRYER_BURN + "---\n", 10), (HAIR_DRYER_BURN + "---", 9)):
        chain_set, diagnostics = parse_document(doc)
        assert len(chain_set) == 1
        assert diagnostics == [Diagnostic(Severity.WARNING, line, 1, "empty chain block")]


def test_validation_diagnostics_point_at_the_offending_step():
    doc = 'alert: a\ncase: c\ncomponent "x"\nharm "h"\naction "pull"\n'
    _, diagnostics = parse_document(doc)
    errs = errors_of(diagnostics)
    assert len(errs) == 1
    assert errs[0].line == 4  # the misplaced harm


def test_serialize_empty_set_is_empty_document():
    assert serialize_document(ChainSet()) == ""


def test_serialize_single_chain_round_trips():
    chain_set, _ = parse_document(HAIR_DRYER_BURN)
    assert serialize_document(chain_set) == HAIR_DRYER_BURN
    reparsed, diagnostics = parse_document(serialize_document(chain_set))
    assert diagnostics == []
    assert reparsed == chain_set


def test_serialize_refuses_invalid_chain():
    bad = ChainSet((FailureChain("a", "c", ((C.HARM, "h"), (C.ACTION, "x"))),))
    with pytest.raises(ChainValidationError):
        serialize_document(bad)


def test_serialize_refuses_multiline_header_text():
    bad = ChainSet(
        (FailureChain("a\nb", "c", ((C.COMPONENT, "x"), (C.HARM, "h"))),)
    )
    with pytest.raises(ValueError):
        serialize_document(bad)


@pytest.mark.parametrize("alert, case", [("", "c"), ("a", "   ")])
def test_serialize_refuses_a_header_with_no_text(alert, case):
    bad = ChainSet((FailureChain(alert, case, ((C.COMPONENT, "x"), (C.HARM, "h"))),))
    field_name = "alert" if not alert else "case"
    with pytest.raises(ValueError, match=f"chain 0: {field_name} header has no text"):
        serialize_document(bad)


def test_header_with_no_text_is_warned_about_and_the_chain_counts():
    doc = 'gizmo "x"\n---\n  alert:\n# note\nCASE:   \ncomponent "plug"\nharm "burn"\n'
    chain_set, diagnostics = parse_document(doc)
    assert chain_set == ChainSet((FailureChain("", "", ((C.COMPONENT, "plug"), (C.HARM, "burn"))),))
    assert diagnostics == [
        Diagnostic(Severity.ERROR, 1, 1, "unknown category 'gizmo'"),
        Diagnostic(Severity.ERROR, 1, 1, "missing required header 'alert:'"),
        Diagnostic(Severity.ERROR, 1, 1, "missing required header 'case:'"),
        Diagnostic(Severity.WARNING, 3, 3, "'alert:' header has no text"),
        Diagnostic(Severity.WARNING, 5, 1, "'case:' header has no text"),
    ]
    # A chain that breaks an invariant is excluded; its warning comes first, in line order.
    chain_set, diagnostics = parse_document('alert:\ncase: c\nharm "burn"\n')
    assert chain_set == ChainSet()
    assert [(d.severity, d.line) for d in diagnostics] == [(Severity.WARNING, 1), (Severity.ERROR, 3)]


def test_names_with_quotes_and_backslashes_round_trip():
    steps = ((C.COMPONENT, 'say "hi" \\ now'), (C.HARM, "tab\there"))
    original = ChainSet((FailureChain("a", "c", steps),))
    reparsed, diagnostics = parse_document(serialize_document(original))
    assert diagnostics == []
    assert reparsed == original


@given(chain_sets())
@example(ChainSet())
def test_round_trip_property(chain_set):
    text = serialize_document(chain_set)
    reparsed, diagnostics = parse_document(text)
    assert diagnostics == []
    assert reparsed == chain_set


@given(st.text(max_size=400))
def test_parser_is_total_on_arbitrary_text(text):
    chain_set, diagnostics = parse_document(text)
    assert isinstance(chain_set, ChainSet)
    assert isinstance(diagnostics, list)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**31))
def test_parser_is_total_on_mutated_documents(seed):
    rng = random.Random(seed)
    text = serialize_document(random_chain_set(rng, max_chains=5, max_len=6, max_pool=10))
    mutated = mutate_text(rng, text)
    chain_set, diagnostics = parse_document(mutated)
    assert isinstance(chain_set, ChainSet)
    assert isinstance(diagnostics, list)


def test_diagnostics_are_deterministic():
    doc = 'alert: a\ngizmo "x"\n---\n---\ncase: y\nharm "h\n'
    first = parse_document(doc)
    second = parse_document(doc)
    assert first == second


# Oracle for the reader's name pattern, independent of it: a scanner that
# reads a quoted name one character at a time and stops at its first fault.
_KEYWORD_RE = re.compile(r"[A-Za-z_]+")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _parse_quoted_name(rest: str, column: int) -> tuple[str, None] | tuple[None, _LineError]:
    offset = len(rest) - len(rest.lstrip())
    column += offset
    rest = rest.lstrip()
    if not rest.startswith('"'):
        return None, _LineError(column, "expected a quoted name after the category keyword")
    chars: list[str] = []
    i = 1
    while i < len(rest):
        ch = rest[i]
        if ch == "\\":
            if i + 1 >= len(rest):
                break
            replacement = _UNESCAPES.get(rest[i + 1])
            if replacement is None:
                return None, _LineError(
                    column + i,
                    f"invalid escape '\\{rest[i + 1]}' in quoted name",
                )
            chars.append(replacement)
            i += 2
            continue
        if ch == '"':
            trailing = rest[i + 1 :]
            if trailing.strip():
                return None, _LineError(
                    column + i + 1 + (len(trailing) - len(trailing.lstrip())),
                    f"unexpected text after the quoted name: {trailing.strip()[:20]!r}",
                )
            return "".join(chars), None
        if (ch < " " and ch != "\t") or "\x7f" <= ch <= "\x9f":
            return None, _LineError(
                column + i,
                f"control character U+{ord(ch):04X} in quoted name",
            )
        chars.append(ch)
        i += 1
    return None, _LineError(column, "unterminated quoted name")


# Names over quotes, backslashes, the letters of the escapes, blanks and non-ASCII text.
FAST_PATH_ALPHABET = '"\\nrtx \t\u00a0äß€漢'
# Characters str.strip removes besides space, tab and no-break space: controls
# a name cannot hold, and the line separator U+2028, which it can.
STRIPPED_CHARS = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028"
BLANKS = " \t\u00a0" + STRIPPED_CHARS


@given(
    st.text(alphabet=BLANKS, max_size=2),
    st.sampled_from([c.value for c in C] + ["HARM", "Effect", "gizmo", "case"]),
    st.text(alphabet=BLANKS, max_size=2),
    st.sampled_from(['"', ""]),
    st.text(alphabet=FAST_PATH_ALPHABET + STRIPPED_CHARS, max_size=16),
    st.sampled_from(['"', "", '" x', '"x"', '\\"', ' "\t', " ", "\x0b", " x"]),
    st.text(alphabet=FAST_PATH_ALPHABET + "\u2028", min_size=1, max_size=16).filter(lambda t: t.strip()),
)
def test_line_classifier_agrees_with_the_scanner(indent, keyword, gap, quote, body, ending, name):
    # Any line that starts with a keyword, with or without an opening quote:
    # the classifier reads a step exactly when the scanner does, with the
    # scanner's name, and otherwise gives its error at its column.
    line = f"{indent}{keyword}{gap}{quote}{body}{ending}"
    stripped = line.strip()
    column = len(line) - len(line.lstrip()) + 1
    word = _KEYWORD_RE.match(stripped)
    scanned_name, scanned_error = _parse_quoted_name(stripped[word.end() :], column + word.end())
    kind = _classify(line)
    category = _STEP_KEYWORDS.get(word[0].casefold())
    if category is None:
        assert type(kind) is _LineError
    elif scanned_error is None:
        assert type(kind) is tuple and kind == (category, scanned_name)
    else:
        assert kind == scanned_error
    # A line as the serializer writes it is always read as its step.
    if keyword.casefold() in _STEP_KEYWORDS:
        written = f'{indent}{keyword}{gap}"{_escape_name(name)}"'
        assert _classify(written) == (_STEP_KEYWORDS[keyword.casefold()], name)


INTAKE_DEFECTS = {
    "unterminated_quote": ('  component "plug\nharm "h"\n', 3, 13, "unterminated quoted name"),
    "bad_escape": ('  component "pl\\qug"\nharm "h"\n', 3, 16, "invalid escape '\\q' in quoted name"),
    "unknown_category": ('\tgizmo "x"\nharm "h"\n', 3, 2, "unknown category 'gizmo'"),
    "text_after_name": (
        'component  "plug"   extra\nharm "h"\n', 3, 21, "unexpected text after the quoted name: 'extra'"
    ),
    "harm_not_last": (
        'component "plug"\n  harm "burn"\naction "pull"\n',
        4,
        3,
        "HarmNotTerminal: harm 'burn' at step 2 is not the final step",
    ),
    "self_transition": (
        'component "Plug"\n   component " plug "\nharm "h"\n',
        4,
        4,
        "SelfTransition: step 2 repeats the preceding factor ' plug '",
    ),
    "missing_harm": (
        'component "plug"\n  action "pull"\n', 4, 3, "MissingHarm: final step must be a harm, got category 'action'"
    ),
    "too_short": (
        '    harm "burn"\n',
        3,
        5,
        "TooShort: chain has 1 step(s); at least one step must precede the terminal harm",
    ),
    "control_character": ('component "pl\x01ug"\nharm "h"\n', 3, 14, "control character U+0001 in quoted name"),
}


@pytest.mark.parametrize("kind", sorted(INTAKE_DEFECTS))
def test_each_intake_defect_keeps_its_exact_position(kind):
    body, line, column, message = INTAKE_DEFECTS[kind]
    chain_set, diagnostics = parse_document("alert: a\ncase: c\n" + body + "---\n" + HAIR_DRYER_BURN)
    assert [c.case_label for c in chain_set] == ["burn"]
    assert [(d.severity, d.line, d.column, d.message) for d in diagnostics] == [
        (Severity.ERROR, line, column, message)
    ]
    # The same defect after a well-formed block: the lines shift, the columns do not.
    shift = HAIR_DRYER_BURN.count("\n") + 1
    chain_set, diagnostics = parse_document(HAIR_DRYER_BURN + "---\nalert: a\ncase: c\n" + body)
    assert [c.case_label for c in chain_set] == ["burn"]
    assert diagnostics == [Diagnostic(Severity.ERROR, line + shift, column, message)]


def test_diagnostics_and_violations_are_immutable_values():
    diagnostic = Diagnostic(Severity.ERROR, 3, 1, "x")
    assert diagnostic == Diagnostic(Severity.ERROR, 3, 1, "x") != Diagnostic(Severity.ERROR, 3, 2, "x")
    assert repr(diagnostic) == "Diagnostic(severity=<Severity.ERROR: 'error'>, line=3, column=1, message='x')"
    violation = Violation("TooShort", 1, "m")
    assert repr(violation) == "Violation(rule='TooShort', step=1, message='m')"
    for value, field_name in ((diagnostic, "line"), (violation, "step")):
        with pytest.raises(AttributeError):
            setattr(value, field_name, 4)


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x1b", "\x1f", "\r", "\x7f", "\x85", "\x9f"])
@pytest.mark.parametrize("indent", ["", "  "])
def test_control_character_in_a_name_is_an_error_at_its_column(char, indent):
    # The line is classified once, from its own text, so its indent only shifts the column.
    doc = f'alert: a\ncase: c\n{indent}component "plug {char}x"\nharm "h"\n---\n' + HAIR_DRYER_BURN
    chain_set, diagnostics = parse_document(doc)
    assert [c.case_label for c in chain_set] == ["burn"]
    message = f"control character U+{ord(char):04X} in quoted name"
    assert diagnostics == [Diagnostic(Severity.ERROR, 3, len(indent) + 17, message)]


def test_a_name_holds_exactly_the_characters_the_format_can_write():
    # Every code point below U+3000, the line and paragraph separators
    # among them: one is read raw in a name unless it is a quote, a
    # backslash, LF, CR or a character model._UNWRITABLE lists.
    for point in range(0x3000):
        char = chr(point)
        kind = _classify(f'component "x{char}"')
        if char in '"\\\n\r' or re.search(_UNWRITABLE, char):
            assert type(kind) is _LineError, hex(point)
        else:
            assert kind == (C.COMPONENT, f"x{char}"), hex(point)
    # Each escape the writer uses reads back as its character.
    for char in _ESCAPES:
        assert _classify(f'component "x{_escape_name(char)}y"') == (C.COMPONENT, f"x{char}y")


def test_tab_and_escaped_control_characters_stay_valid():
    doc = 'alert: a\ncase: c\ncomponent "a\tb"\neffect "x\\n\\r\\ty"\nharm "h"\n'
    chain_set, diagnostics = parse_document(doc)
    assert diagnostics == []
    assert chain_set.chains[0].steps[:2] == ((C.COMPONENT, "a\tb"), (C.EFFECT, "x\n\r\ty"))
    assert parse_document(serialize_document(chain_set)) == (chain_set, [])


@pytest.mark.parametrize("char", ["\x00", "\x1b", "\x0b", "\x7f", "\x85"])
def test_serialize_refuses_a_name_with_a_control_character(char):
    bad = ChainSet((FailureChain("a", "c", ((C.COMPONENT, "ok"), (C.HARM, f"h{char}"))),))
    with pytest.raises(ValueError, match=f"chain 0: step 2 name holds control character U\\+{ord(char):04X}"):
        serialize_document(bad)


def test_each_distinct_line_is_classified_once(monkeypatch):
    # The second block repeats the first block's lines around a syntax error,
    # the third repeats them with the harm moved up; a second document
    # repeats the first document's lines once more.
    defective = HAIR_DRYER_BURN.replace('harm "burn"\n', '  gizmo "x"\nharm "burn"\n')
    misplaced = HAIR_DRYER_BURN.replace('harm "burn"\n', "").replace("case: burn\n", 'case: burn\nharm "burn"\n')
    doc = HAIR_DRYER_BURN + "---\n" + defective + "---\n" + misplaced
    other = "# another file\n" + HAIR_DRYER_BURN.replace("case: burn", "case: scald")
    classified = Counter()

    def counting(line):
        classified[line] += 1
        return _classify(line)

    monkeypatch.setattr(dsl, "_LINE_KINDS", _Memo(counting))
    chain_set, diagnostics = parse_document(doc)
    other_set, other_diagnostics = parse_document(other)
    assert classified == Counter(set(doc.split("\n")) | set(other.split("\n")))
    assert [c.case_label for c in chain_set] == ["burn"]
    assert diagnostics == [
        Diagnostic(Severity.ERROR, 17, 3, "unknown category 'gizmo'"),
        Diagnostic(Severity.ERROR, 22, 1, "HarmNotTerminal: harm 'burn' at step 1 is not the final step"),
    ]
    assert [c.case_label for c in other_set] == ["scald"] and other_diagnostics == []


def test_line_table_starts_over_when_full(monkeypatch):
    expected = parse_document(HAIR_DRYER_BURN)[0] * 2
    table = _Memo(_classify)
    table.limit = 3
    monkeypatch.setattr(dsl, "_LINE_KINDS", table)
    for _ in range(2):
        assert parse_document(HAIR_DRYER_BURN + "---\n" + HAIR_DRYER_BURN) == (expected, [])
        assert len(table) <= 3


REFERENCE_HEADER_RE = re.compile(r"^(alert|case):\s?(.*)$", re.IGNORECASE)


def reference_parse(source):
    """Oracle: each block read one stripped line at a time, every step line by the scanner."""
    blocks, starts = [[]], [1]
    for lineno, line in enumerate(source.split("\n"), start=1):
        stripped = line.strip()
        if stripped == "---":
            blocks.append([])
            starts.append(lineno + 1)
        elif stripped and stripped[0] != "#":
            blocks[-1].append((lineno, line, stripped))
    last_line = source.count("\n") + 1
    chains, diagnostics = [], []
    for start, content in zip(starts, blocks):
        if not content:
            if len(blocks) > 1:
                diagnostics.append(Diagnostic(Severity.WARNING, min(start, last_line), 1, "empty chain block"))
            continue
        errors, headers, steps, step_lines = [], {}, [], []
        for lineno, line, stripped in content:
            column = len(line) - len(line.lstrip()) + 1
            header = REFERENCE_HEADER_RE.match(stripped)
            if header:
                key = header.group(1).casefold()
                if steps:
                    message = f"'{key}:' header after the first step"
                elif key in headers:
                    message = f"duplicate header '{key}:'"
                else:
                    headers[key] = header.group(2).strip()
                    if not headers[key]:
                        errors.append(Diagnostic(Severity.WARNING, lineno, column, f"'{key}:' header has no text"))
                    continue
                errors.append(Diagnostic(Severity.ERROR, lineno, column, message))
                continue
            keyword = _KEYWORD_RE.match(stripped)
            if not keyword:
                message = f"expected a header or step line, got {stripped[:30]!r}"
                errors.append(Diagnostic(Severity.ERROR, lineno, column, message))
                continue
            category = _STEP_KEYWORDS.get(keyword[0].casefold())
            if category is None:
                if keyword[0].casefold() in ("alert", "case"):
                    message = f"header must be written '{keyword[0].casefold()}: <text>'"
                else:
                    message = f"unknown category '{keyword[0]}'"
                errors.append(Diagnostic(Severity.ERROR, lineno, column, message))
                continue
            name, error = _parse_quoted_name(stripped[keyword.end() :], column + keyword.end())
            if error is not None:
                errors.append(Diagnostic(Severity.ERROR, lineno, *error))
                continue
            steps.append((category, name))
            step_lines.append((lineno, column))
        for key in ("alert", "case"):
            if key not in headers:
                message = f"missing required header '{key}:'"
                errors.append(Diagnostic(Severity.ERROR, content[0][0], 1, message))
        if all(d.severity is Severity.WARNING for d in errors):
            chain = FailureChain(headers["alert"], headers["case"], tuple(steps))
            violations = validate_chain(chain)
            for violation in violations:
                if 1 <= violation.step <= len(steps):
                    lineno, column = step_lines[violation.step - 1]
                else:
                    lineno, column = content[0][0], 1
                errors.append(Diagnostic(Severity.ERROR, lineno, column, f"{violation.rule}: {violation.message}"))
            if not violations:
                chains.append(chain)
        diagnostics.extend(errors)
    return ChainSet(tuple(chains)), diagnostics


def _upper_keyword(line):
    return re.sub(r"^[a-z]+", lambda m: m[0].upper(), line)


# How a line may be written besides the serializer's form.
LINE_VARIANTS = {
    "crlf": lambda line: [line + "\r"],
    "indent": lambda line: ["  " + line],
    "upper": lambda line: [_upper_keyword(line)],
    "comment": lambda line: ['# was: effect "e"', line],
    "indented comment": lambda line: ["\t# note", line],
    "twice": lambda line: [line, line],
    "blank": lambda line: ["", line],
    "control": lambda line: [line.replace('"', '"\x07', 1)],
    "no text": lambda line: [re.sub(r"(?i)^(\s*(?:alert|case):).*", r"\1  ", line)],
}


# Variants that keep a block clean: no syntax error, no warning, no broken invariant.
CLEAN_VARIANTS = ["crlf", "indent", "upper", "comment", "indented comment", "blank"]


@st.composite
def chain_documents(draw, clean=False):
    """Valid, defective, step-less and empty blocks, each line kept or varied, joined by separators.

    A clean document holds one valid block or more, varied only in ways
    that keep it valid, and ends without a separator: the parser accepts
    it whole.
    """
    kinds = ["valid"] if clean else ["valid", "valid", "defect", "headers", "empty"]
    variants = CLEAN_VARIANTS if clean else sorted(LINE_VARIANTS)
    blocks = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=int(clean), max_size=4)):
        if kind == "empty":
            lines = draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=2))
        else:
            if kind == "headers":
                lines = ["alert: a", "case: c"]
            elif kind == "valid":
                chain_set = ChainSet((draw(failure_chains()),))
                lines = serialize_document(chain_set).splitlines()
            else:
                body = INTAKE_DEFECTS[draw(st.sampled_from(sorted(INTAKE_DEFECTS)))][0]
                lines = ["alert: a", "case: c", *body.splitlines()]
                if draw(st.booleans()):
                    lines = [line.strip() for line in lines]
            # A block keeps the serializer's form, or departs from it in a line or two.
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
                lines[i : i + 1] = LINE_VARIANTS[draw(st.sampled_from(variants))](lines[i])
        blocks.append("\n".join(lines))
    parts = []
    for block in blocks:
        parts += [block, draw(st.sampled_from(["---", "---", "  ---  ", "---\r"]))]
    endings = ["newline", "nothing"] if clean else ["separator, newline", "separator", "newline", "nothing"]
    ending = draw(st.sampled_from(endings))
    if ending in ("newline", "nothing"):
        parts = parts[:-1]
    text = "\n".join(parts)
    return text + "\n" if ending.endswith("newline") else text


@settings(max_examples=300)
@given(st.booleans().flatmap(lambda clean: st.tuples(st.just(clean), chain_documents(clean=clean))))
@example((False, 'case: c\nalert: a\ncomponent "x"\nharm "h"\n'))
@example((False, 'alert:\ncase: c\ncomponent "x"\nharm "h"\n'))
@example((False, 'alert: a\ncase: c\ncomponent "x"\nharm "h"\n---\n'))
@example((False, "# only\n\n  # comments\n"))
@example((False, 'alert: a\ncase: c\nharm "h"\n'))
@example((False, 'alert: a\ncase: c\ncase: d\ncomponent "x"\nharm "h"\n'))
@example((False, 'alert: a\nalert: b\ncomponent "x"\nharm "h"\n'))
@example((False, 'case: c\ncase: d\ncomponent "x"\nharm "h"\n'))
@example((False, HAIR_DRYER_BURN + "---\n# none\n---\n" + HAIR_DRYER_BURN))
# A structurally clean document whose name is blank: it is read block by block.
@example((False, 'alert: a\ncase: c\ncomponent "  "\nharm "h"\n'))
def test_parse_document_agrees_with_the_reference_reader(document):
    clean, text = document
    with mock.patch.object(dsl, "_read_block", wraps=dsl._read_block) as read_block:
        assert parse_document(text) == reference_parse(text)
    # A clean document is accepted whole, without reading a block.
    assert not (clean and read_block.called)


THREE_CLEAN_BLOCKS = (
    "# three chains\n\n"
    + HAIR_DRYER_BURN
    + "---\n"
    + HAIR_DRYER_BURN.replace("case: burn", "  CASE:  scald ").replace('harm "burn"', 'harm "scald"')
    + "\n---\n"
    + 'alert: A12/01100/23\ncase: poisoning\n# no action recorded\ncomponent "housing"\nharm "poisoning"\n'
)


def _count_calls(monkeypatch, *names):
    calls = Counter()
    for name in names:
        function = getattr(dsl, name)

        def counted(*args, name=name, function=function):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(dsl, name, counted)
    return calls


def test_a_clean_document_is_accepted_whole(monkeypatch):
    calls = _count_calls(monkeypatch, "_read_block", "validate_chain")
    chain_set, diagnostics = parse_document(THREE_CLEAN_BLOCKS)
    assert calls == Counter()
    assert (chain_set, diagnostics) == reference_parse(THREE_CLEAN_BLOCKS)
    assert [c.case_label for c in chain_set] == ["burn", "scald", "poisoning"] and diagnostics == []


def test_a_defect_in_a_clean_document_is_explained_block_by_block(monkeypatch):
    doc = THREE_CLEAN_BLOCKS.replace('component "housing"', 'component "housing"\nharm "poisoning"')
    calls = _count_calls(monkeypatch, "_read_block")
    chain_set, diagnostics = parse_document(doc)
    assert calls == Counter({"_read_block": 3})
    assert (chain_set, diagnostics) == reference_parse(doc)
    assert [c.case_label for c in chain_set] == ["burn", "scald"]
    assert diagnostics == [
        Diagnostic(Severity.ERROR, 26, 1, "HarmNotTerminal: harm 'poisoning' at step 2 is not the final step"),
        Diagnostic(Severity.ERROR, 27, 1, "SelfTransition: step 3 repeats the preceding factor 'poisoning'"),
    ]
