import csv
import io
import re
import tracemalloc
from operator import itemgetter
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import chain_sets, csv_row, failure_chains
from keyfactors.model import validate_chain
from keyfactors.matrix import (
    RelationshipMatrix,
    SumsTable,
    brute_force_sums,
    build_matrix,
    merge,
    sums,
)
from keyfactors.model import (
    _UNWRITABLE,
    EMPTY_NAME,
    HARM_NOT_TERMINAL,
    MISSING_HARM,
    SELF_TRANSITION,
    TOO_SHORT,
    ChainSet,
    ChainValidationError,
    Factor,
    FactorCategory,
    FailureChain,
    Identity,
    normalize_name,
)
from keyfactors.sums_table import SUMS_COLUMNS, parse_sums_table

C = FactorCategory


def chain(*steps, alert="A1", case="case"):
    return FailureChain(alert, case, tuple(steps))


ABH = chain((C.COMPONENT, "A"), (C.EFFECT, "B"), (C.HARM, "H"))


def cells_by_identity(m):
    """Nonzero cells keyed by factor identities, independent of ordering."""
    return {(m.factors[r].identity, m.factors[c].identity): n for (r, c), n in m.edges.items()}


def test_single_chain_counts():
    m = build_matrix(ChainSet((ABH,)))
    assert [f.display_name for f in m.factors] == ["A", "B", "H"]
    assert dict(m.edges) == {(0, 1): 1, (1, 2): 1}
    assert m.total() == 2


def test_repeated_transition_weights_to_two():
    first = chain((C.COMPONENT, "heating element"), (C.CONTROL_FACTOR, "increasing temperature"), (C.HARM, "burn"))
    second = chain((C.FUNCTION, "thermal cut-off"), (C.COMPONENT, "heating element"), (C.CONTROL_FACTOR, "increasing temperature"), (C.HARM, "burn"))
    m = build_matrix(ChainSet((first, second)))
    by_name = {f.display_name: f.id - 1 for f in m.factors}
    assert m.edges[by_name["heating element"], by_name["increasing temperature"]] == 2


def test_three_occurrences_weight_to_three():
    link = ((C.COMPONENT, "protective grille"), (C.FUNCTION, "preventing access to internal parts"))
    chains = ChainSet(
        tuple(
            chain(*link, (C.ACTION, f"user action {i}"), (C.HARM, "electrical shock"))
            for i in range(3)
        )
    )
    m = build_matrix(chains)
    by_name = {f.display_name: f.id - 1 for f in m.factors}
    assert m.edges[by_name["protective grille"], by_name["preventing access to internal parts"]] == 3


def test_factor_order_is_category_then_first_appearance():
    chains = ChainSet(
        (
            chain((C.EFFECT, "late effect"), (C.COMPONENT, "late component"), (C.HARM, "h")),
            chain((C.COMPONENT, "later component"), (C.NOISE_FACTOR, "dust"), (C.HARM, "h")),
        )
    )
    m = build_matrix(chains)
    assert [f.display_name for f in m.factors] == [
        "late component",
        "later component",
        "dust",
        "late effect",
        "h",
    ]
    assert [f.id for f in m.factors] == [1, 2, 3, 4, 5]


def test_mentions_merge_across_spellings_keeping_first_display():
    chains = ChainSet(
        (
            chain((C.COMPONENT, "Heating  Element"), (C.HARM, "burn")),
            chain((C.COMPONENT, "heating element"), (C.HARM, "burn")),
        )
    )
    m = build_matrix(chains)
    components = [f for f in m.factors if f.category is C.COMPONENT]
    assert len(components) == 1
    assert components[0].display_name == "Heating  Element"
    assert sums(m).active[components[0].id - 1] == 2


def test_harm_rows_and_diagonal_are_zero():
    chains = ChainSet((ABH, chain((C.EFFECT, "B"), (C.COMPONENT, "A"), (C.HARM, "H"))))
    m = build_matrix(chains)
    for r, c in m.edges:
        assert r != c
        assert m.factors[r].category is not C.HARM


def test_invalid_chain_is_rejected_with_violations():
    bad = chain((C.COMPONENT, "A"), (C.HARM, "H"), (C.ACTION, "X"))
    with pytest.raises(ChainValidationError) as exc_info:
        build_matrix(ChainSet((ABH, bad)))
    (index, violations), = exc_info.value.invalid
    assert index == 1
    assert violations[0].rule == "HarmNotTerminal"


def test_every_invalid_chain_is_reported_in_full():
    chains = ChainSet(
        (
            chain((C.HARM, "H")),
            ABH,
            chain((C.COMPONENT, "A"), (C.HARM, "H"), (C.ACTION, "X")),
            chain((C.COMPONENT, "A"), (C.ACTION, "X")),
            chain((C.COMPONENT, "A"), (C.COMPONENT, " a "), (C.HARM, "H")),
            chain((C.COMPONENT, "  "), (C.HARM, "H")),
            chain((C.HARM, "H"), (C.COMPONENT, " "), (C.ACTION, "x"), (C.ACTION, "X")),
        )
    )
    with pytest.raises(ChainValidationError) as exc_info:
        build_matrix(chains)
    invalid = exc_info.value.invalid
    assert invalid == tuple((i, tuple(validate_chain(c))) for i, c in enumerate(chains) if i != 1)
    assert [[v.rule for v in violations] for _, violations in invalid] == [
        [TOO_SHORT],
        [HARM_NOT_TERMINAL],
        [MISSING_HARM],
        [SELF_TRANSITION],
        [EMPTY_NAME],
        [HARM_NOT_TERMINAL, EMPTY_NAME, SELF_TRANSITION],
    ]


def test_a_bare_chain_set_is_checked_even_when_its_steps_are_known():
    a, respelled_a, b, h = (C.COMPONENT, "A"), (C.COMPONENT, " a "), (C.EFFECT, "B"), (C.HARM, "H")
    # Every step below is first seen in a valid chain, so its identity is known.
    build_matrix(ChainSet((chain(a, b, h), chain(respelled_a, b, h))))
    chains = ChainSet((chain(a, respelled_a, h), ABH, chain(h, a, h), chain(a, b)))
    with pytest.raises(ChainValidationError) as exc_info:
        build_matrix(chains)
    invalid = exc_info.value.invalid
    assert invalid == tuple((i, tuple(validate_chain(c))) for i, c in enumerate(chains) if i != 1)
    assert [[v.rule for v in violations] for _, violations in invalid] == [
        [SELF_TRANSITION],
        [HARM_NOT_TERMINAL],
        [MISSING_HARM],
    ]


def test_sums_single_chain():
    table = sums(build_matrix(ChainSet((ABH,))))
    assert table.active == (1, 1, 0)
    assert table.passive == (0, 1, 1)


def test_empty_chain_set_builds_empty_matrix():
    m = build_matrix(ChainSet())
    assert m.factors == ()
    table = sums(m)
    assert len(table) == 0
    assert brute_force_sums(ChainSet()) == sums(ChainSet()) == table


def test_merge_with_empty_is_identity():
    m = build_matrix(ChainSet((ABH,)))
    empty = build_matrix(ChainSet())
    assert merge(m, empty) == m
    assert merge(empty, m) == m


@given(chain_sets(), chain_sets())
@example(ChainSet(), ChainSet())
@example(ChainSet(), ChainSet((ABH,)))
def test_merge_equals_build_of_concatenation(s1, s2):
    merged = merge(build_matrix(s1), build_matrix(s2))
    combined = build_matrix(ChainSet(s1.chains + s2.chains))
    assert merged == combined


@given(chain_sets(), chain_sets())
@example(ChainSet(), ChainSet())
@example(ChainSet(), ChainSet((ABH,)))
def test_merge_total_is_additive_and_commutative_up_to_order(s1, s2):
    a, b = build_matrix(s1), build_matrix(s2)
    ab, ba = merge(a, b), merge(b, a)
    assert ab.total() == a.total() + b.total()
    assert cells_by_identity(ab) == cells_by_identity(ba)
    assert {f.identity for f in ab.factors} == {f.identity for f in ba.factors}


@given(chain_sets(), chain_sets(), chain_sets())
@example(ChainSet(), ChainSet(), ChainSet())
@example(ChainSet((ABH,)), ChainSet(), ChainSet((ABH,)))
def test_merge_is_associative_up_to_order(s1, s2, s3):
    a, b, c = (build_matrix(s) for s in (s1, s2, s3))
    left = merge(merge(a, b), c)
    right = merge(a, merge(b, c))
    assert cells_by_identity(left) == cells_by_identity(right)


@given(chain_sets())
@example(ChainSet())
def test_oracle_equivalence(chain_set):
    assert sums(chain_set) == sums(build_matrix(chain_set)) == brute_force_sums(chain_set)


@given(chain_sets())
@example(ChainSet())
def test_conservation(chain_set):
    table = sums(build_matrix(chain_set))
    expected = sum(len(chain) - 1 for chain in chain_set)
    assert sum(table.active) == expected
    assert sum(table.passive) == expected


@given(chain_sets())
@example(ChainSet())
def test_harm_factors_have_zero_active_sum(chain_set):
    table = sums(build_matrix(chain_set))
    for factor, active in zip(table.factors, table.active):
        if factor.category is C.HARM:
            assert active == 0


@given(chain_sets())
@example(ChainSet())
def test_appending_a_chain_never_decreases_cells(chain_set):
    base = cells_by_identity(build_matrix(chain_set))
    extended = cells_by_identity(build_matrix(ChainSet(chain_set.chains + (ABH,))))
    for cell, value in base.items():
        assert extended[cell] >= value


def test_matrix_shape_is_validated():
    factors = build_matrix(ChainSet((ABH,))).factors
    for edges in ({(0, 3): 1}, {(3, 0): 1}, {(-1, 0): 1}, {(0, 1): 0}, {(0, 1): -2}):
        with pytest.raises(ValueError):
            RelationshipMatrix(factors, edges)
    unordered = RelationshipMatrix(factors, {(1, 2): 1, (0, 1): 1})
    assert list(unordered.edges) == [(0, 1), (1, 2)]  # row-major, whatever the input order
    assert unordered == build_matrix(ChainSet((ABH,)))


def test_build_memory_grows_with_edges_not_factors_squared():
    # 4,000 factors, 2,000 transitions: a dense grid would hold 16M cells (~128 MB of pointers).
    chains = ChainSet(tuple(chain((C.COMPONENT, f"c{i}"), (C.HARM, f"h{i}")) for i in range(2000)))
    tracemalloc.start()
    try:
        m = build_matrix(chains)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.size, m.total()) == (4000, 2000)
    assert peak < 16 * 2**20


def _maybe_corrupt(chain, mode, previous=None):
    steps = list(chain.steps)
    if mode == 1 and len(steps) >= 2:  # move the harm off the end
        steps.insert(0, steps.pop())
    elif mode == 2:  # blank a step name
        steps[0] = (steps[0][0], "   ")
    elif mode == 3:  # drop everything but the harm
        steps = steps[-1:]
    elif mode == 4:  # start with the previous chain's last step (its harm), or with this chain's harm
        steps.insert(0, previous.steps[-1] if previous is not None and previous.steps else steps[-1])
    elif mode == 5:  # repeat the first step, respelled
        steps.insert(1, (steps[0][0], f" {steps[0][1]} "))
    elif mode == 6:  # no steps at all
        steps = []
    elif mode == 7:  # a second harm, before the last step
        steps.insert(1, steps[-1])
    elif mode == 8:  # swap the last two steps
        steps[-2], steps[-1] = steps[-1], steps[-2]
    return FailureChain(chain.source_alert, chain.case_label, tuple(steps))


@given(failure_chains(), st.integers(min_value=0, max_value=3))
def test_build_accepts_exactly_the_chains_validate_accepts(chain, mode):
    candidate = _maybe_corrupt(chain, mode)
    violations = validate_chain(candidate)
    if violations:
        with pytest.raises(ChainValidationError):
            build_matrix(ChainSet((candidate,)))
    else:
        build_matrix(ChainSet((candidate,)))


@pytest.mark.parametrize("mode", range(9))
@settings(max_examples=30)
@given(
    chain_sets(),
    st.integers(min_value=0, max_value=5),
    st.none() | st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=8)),
)
@example(chain_set=ChainSet(), index=0, other=None)
def test_the_whole_set_check_rejects_exactly_the_invalid_chains(mode, chain_set, index, other):
    # One chain is corrupted by ``mode``; ``other`` may corrupt a second one.
    # Each mode gets its own examples, so a set whose only bad chain is one
    # that a single clause of the check must catch is always tried. Indices
    # wrap around the set.
    modes = {}
    if chain_set:
        if other is not None:
            modes[other[0] % len(chain_set)] = other[1]
        modes[index % len(chain_set)] = mode
    chains = []
    for i, chain in enumerate(chain_set):
        chains.append(_maybe_corrupt(chain, modes.get(i, 0), chains[-1] if chains else None))
    candidate = ChainSet(chains)
    expected = tuple((i, tuple(validate_chain(c))) for i, c in enumerate(candidate) if validate_chain(c))
    for build in (build_matrix, sums):
        if expected:
            with pytest.raises(ChainValidationError) as exc_info:
                build(candidate)
            assert exc_info.value.invalid == expected
        else:
            build(candidate)
    if not expected:
        assert sums(candidate) == sums(build_matrix(candidate)) == brute_force_sums(candidate)


def reference_parse_sums_table(text):
    """Oracle: the row-at-a-time reader that parse_sums_table replaced; its header is the first row not blank."""
    reader = csv.reader(io.StringIO(text, newline=""))

    def read() -> Iterator[list[str]]:
        # The csv module's own errors, such as a cell over csv.field_size_limit(), become ValueErrors too.
        try:
            yield from reader
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None

    rows = read()
    warnings: list[str] = []
    header = []
    for cells in rows:
        if any(map(str.strip, cells)):
            header = [cell.strip() for cell in cells]
            break
        if cells:
            warnings.append(f"line {reader.line_num}: warning: empty row skipped")
    missing = [c for c in SUMS_COLUMNS if c not in header]
    if missing:
        hint = ""
        if set(SUMS_COLUMNS) <= {part.strip() for part in ",".join(header).split(";")}:
            hint = " (the file looks semicolon-delimited; sums tables must be comma-separated)"
        raise ValueError(f"missing columns: {', '.join(missing)}{hint}")
    for column in SUMS_COLUMNS:
        if header.count(column) > 1:
            raise ValueError(f"line {reader.line_num}: column {column!r} appears twice")
    pick = itemgetter(*map(header.index, SUMS_COLUMNS))
    unwritable = re.compile(_UNWRITABLE).search
    factors: list[Factor] = []
    active: list[int] = []
    passive: list[int] = []
    seen_ids: set[int] = set()
    seen_identities: set[Identity] = set()
    for cells in rows:
        where = f"line {reader.line_num}"
        if not any(map(str.strip, cells)):
            if cells:
                warnings.append(f"{where}: warning: empty row skipped")
            continue
        if len(cells) != len(header):
            raise ValueError(f"{where}: {len(cells)} cells, but the header has {len(header)}")
        id_text, category_text, name, active_text, passive_text = pick(cells)
        factor_id, active_sum, passive_sum = (
            _whole_number(where, column, cell)
            for column, cell in (("id", id_text), ("active_sum", active_text), ("passive_sum", passive_text))
        )
        if factor_id == 0:
            raise ValueError(f"{where}: id must be positive")
        control = unwritable(name)
        if control:
            raise ValueError(f"{where}: name holds control character U+{ord(control[0]):04X}")
        try:
            category = FactorCategory.parse(category_text)
            key = normalize_name(name)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if factor_id in seen_ids:
            raise ValueError(f"{where}: duplicate id {factor_id}")
        if (category, key) in seen_identities:
            raise ValueError(f"{where}: duplicate factor {name!r}")
        seen_ids.add(factor_id)
        seen_identities.add((category, key))
        if category is FactorCategory.HARM and active_sum:
            warnings.append(
                f"{where}: warning: harm {name.strip()!r} has active sum {active_sum}; a harm ends every chain"
            )
        factors.append(Factor(category, name.strip(), key, factor_id))
        active.append(active_sum)
        passive.append(passive_sum)
    if sum(active) != sum(passive):
        warnings.append(f"warning: total active sum {sum(active)} != total passive sum {sum(passive)}")
    return SumsTable(tuple(factors), tuple(active), tuple(passive)), warnings


def _whole_number(where: str, column: str, text: str) -> int:
    """A cell in ASCII digits, blanks around it stripped; int() alone would take 1_2 or other scripts' digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{where}: {column} {text!r} is not a whole number")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ValueError(f"{where}: {column} has {len(text)} digits, too many to read") from None


SUMS_HEADER = "id,category,name,active_sum,passive_sum\n"
TOO_LONG = "9" * 5000  # over the 4,300 digits int() reads by default
OVERSIZED = "x" * (csv.field_size_limit() + 1)

def _set(**cells):
    return lambda rows, i: rows[i].update(cells)


# Each mutation takes the rows (dicts of column: cell) and a row index, and changes that row.
SUMS_MUTATIONS = {
    **{f"{column} not a number": _set(**{column: " 1_2"}) for column in ("id", "active_sum", "passive_sum")},
    **{f"{column} too long": _set(**{column: TOO_LONG}) for column in ("id", "active_sum", "passive_sum")},
    "id 0": _set(id="0"),
    "control in name": lambda rows, i: rows[i].update(name=rows[i]["name"] + "\x01"),
    "blank name": _set(name=" \t "),
    "unknown category": _set(category="ctrl"),
    "duplicate id": lambda rows, i: rows[i].update(id=rows[i - 1]["id"]),
    "duplicate factor": lambda rows, i: rows[i].update(
        name=f" {rows[i - 1]['name'].swapcase()} ", category=rows[i - 1]["category"].upper()
    ),
    "a cell too many": _set(extra="x"),
    "a cell too few": _set(drop=True),
    "oversized cell": _set(name=OVERSIZED),
}

sums_name_texts = st.text(alphabet=st.sampled_from(["a", "B", " ", ",", '"', "\t", "\n", "\r", "\u00e4"]), max_size=5)


@st.composite
def sums_texts(draw):
    """Sums tables of 0-60 rows: columns in any order, padding, awkward names, CRLF, blank and empty rows, faults."""
    columns = draw(st.permutations(SUMS_COLUMNS + ["note"] * draw(st.booleans())))
    n = draw(st.integers(min_value=0, max_value=60))
    ids = draw(st.permutations(range(1, n + 1)))
    categories = draw(st.lists(st.sampled_from(["component", "Control Factor", " HARM ", "harm", "effect"]),
                               min_size=n, max_size=n))
    sums = draw(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=n, max_size=n))
    names = draw(st.lists(sums_name_texts, min_size=n, max_size=n))
    pad = draw(st.sampled_from(["", " ", "  "]))
    rows = [
        dict(id=f"{pad}{i}", category=category, name=f"{name}{k}", active_sum=str(a), passive_sum=f"{p}{pad}", note="n")
        for k, (i, category, name, (a, p)) in enumerate(zip(ids, categories, names, sums))
    ]
    for kind in draw(st.lists(st.sampled_from(sorted(SUMS_MUTATIONS)), max_size=3)):
        low = kind.startswith("duplicate")  # a duplicate copies the row above
        if n > low:
            SUMS_MUTATIONS[kind](rows, draw(st.integers(min_value=low, max_value=n - 1)))
    lines = [[f"{pad}{column}" for column in columns]] + [
        [row[column] for column in columns][: len(columns) - ("drop" in row)] + ["x"] * ("extra" in row)
        for row in rows
    ]
    # Empty rows and blank lines anywhere, the header's place included.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        empty = draw(st.sampled_from([[], [""] * len(columns), [" "] * len(columns), [""] * 2]))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), empty)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))  # a lone CR ends the rows of a classic Mac OS export
    return "".join(csv_row(line, end) for line in lines)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(sums_texts())
# An id too long for int() before an active sum that is not a number: the id is named.
@example(SUMS_HEADER + f"{TOO_LONG},component,a,x,0\n")
# A duplicate id before a later row's non-number.
@example(SUMS_HEADER + "1,component,a,1,0\n1,component,b,1,0\n2,component,c,1.5,0\n")
# A factor spelled differently twice.
@example(SUMS_HEADER + "1,component,Dry  Air,1,0\n2,Component, dry air ,1,0\n")
# A quoted name spanning lines, before an error: the error's line counts both lines of the name.
@example(SUMS_HEADER + '1,component,"a\nb",1,0\n2,ctrl,c,1,0\n')
# Rows ending in a lone CR or in LF, names holding a quoted CR or CRLF, then an error: each CR, LF or CRLF ends a line.
@example((SUMS_HEADER + '1,component,"a\rb",1,0\n2,component,"c\r\nd",1,0\n3,ctrl,e,1,0\n').replace("\n", "\r"))
@example(SUMS_HEADER + '1,component,"a\rb",1,0\n2,component,"c\r\nd",1,0\n3,ctrl,e,1,0\n')
# An oversized cell after an earlier bad row: the bad row is named, not the csv module's refusal.
@example(SUMS_HEADER + f"1,ctrl,a,1,0\n2,component,{OVERSIZED},1,0\n")
@example(SUMS_HEADER + f"1,component,a,1,1\n2,component,{OVERSIZED},1,0\n")
# Empty rows above the header are skipped with a warning.
@example(",,,,\n\n , ,,,\n" + SUMS_HEADER + "1,harm,a,2,2\n")
@example("")
def test_the_column_reader_agrees_with_the_row_reader(text):
    expected = outcome(reference_parse_sums_table, text)
    assert repr(outcome(parse_sums_table, text)) == repr(expected)
