"""Reader and writer for the line-oriented chain document format.

A ``.chains`` document holds one or more failure chains separated by a
line containing only ``---``. Each chain is two required header lines
followed by one step line per event::

    alert: A12/02261/23
    case: burn
    component "hair dryer"
    control "power I [A]"
    effect "Joule-Lenz-Heating"
    control "increasing temperature Q [J]"
    action "operation without breaks"
    harm "burn"

Step keywords are ``component``, ``function``, ``control``, ``noise``,
``action``, ``effect`` and ``harm``. Names are double-quoted with
``\\"``, ``\\\\``, ``\\n``, ``\\r`` and ``\\t`` escapes; a raw control
character (Unicode category Cc) other than tab is not allowed in a name
(model._ESCAPES and model._CONTROL, by which rapex writes names too).
A line whose first non-blank character is ``#`` is a comment; blank
lines are ignored. Documents are UTF-8 with LF line endings (a trailing
CR per line is tolerated on input).

Parsing is total: any input yields a (possibly empty) chain set plus a
deterministic list of diagnostics. A chain with a syntax error or a
broken chain invariant is excluded and reported with one error
diagnostic per problem; warnings never exclude anything. An ``alert:``
or ``case:`` header with no text gets a warning at its position.

A document is read in one pass. It is split at LF, and each distinct line
is classified once per process, from its own text, into what it holds: a
step (category, name), an ``alert:`` or ``case:`` header, a separator, a
comment or blank line, or a syntax error at its column. The table of line
kinds is shared by every document and starts over when full. One pattern
reads headers and well-formed step lines; on a step line it rejects, the
fault is placed where the same name pattern stops. The blocks between
separators are then read from those kinds.

A clean document, the common case, is accepted whole: no line is a
syntax error, every block is an ``alert:`` and a ``case:`` header with
text and then its steps, and the chains pass the chain set check the
matrix builder makes (model._all_valid), on the steps' identities. That
is checked in C-level passes over all the document's kinds, with no
Python step per line or per chain, and such a document has no
diagnostics. Any other document is read block by block, which explains
every rejection: the block walk adds each line's number, a block with
both headers and no error whose chain validate_chain accepts is kept,
with its warnings, and any other block is reported from the same kinds,
its broken invariants placed on their steps' lines after its line
diagnostics.
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter, itemgetter
from typing import NamedTuple, Union

from keyfactors import model
from keyfactors.model import (
    _CONTROL,
    _ESCAPES,
    _UNWRITABLE,
    ChainSet,
    ChainValidationError,
    Diagnostic,
    EmptyNameError,
    FactorCategory,
    FailureChain,
    Severity,
    Step,
    _Memo,
    _escape_name,
    validate_chain,
)


class _Header:
    # Built once per distinct header line, and most are distinct: a slotted
    # class is built in about half the time of a NamedTuple.
    __slots__ = ("key", "text", "column")

    def __init__(self, key: str, text: str, column: int) -> None:
        self.key, self.text, self.column = key, text, column


_KEY = attrgetter("key")
_TEXT = attrgetter("text")
_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


class _LineError(NamedTuple):
    column: int
    message: str


# What one line holds: a step, a header, a syntax error, _SEPARATOR, or
# None for a blank or comment line.
_Kind = Union[Step, _Header, _LineError, str, None]

_SEPARATOR = "---"
_STEP_KEYWORDS = {category.value: category for category in FactorCategory}
# The escapes are the writer's table, model._ESCAPES, read backwards.
_UNESCAPES = {escape[1]: char for char, escape in _ESCAPES.items()}
_ESCAPE_CLASS = f"[{re.escape(''.join(_UNESCAPES))}]"
# A quoted name's body: no quote, backslash, LF, CR or control character
# model._CONTROL lists, except in an escape.
_NAME_CHAR = rf'[^"\\\n\r{_CONTROL}]'
_NAME = rf"{_NAME_CHAR}*(?:\\{_ESCAPE_CLASS}{_NAME_CHAR}*)*"
# A header, or a well-formed step line (keyword, optional blanks, one
# quoted name), with the line's leading and trailing blanks.
_LINE_RE = re.compile(rf'\s*(?:((?i:alert|case)):(.*)|([A-Za-z_]+)\s*"({_NAME})"\s*)')
# A keyword, then as much of a quoted name as is well formed: on a stripped
# line _LINE_RE rejects, the fault is where this stops. re compiles it on
# the first rejected line and caches it.
_STEP_PREFIX = rf'([A-Za-z_]+)\s*("{_NAME})?'
_ESCAPE_RE = re.compile(rf"\\({_ESCAPE_CLASS})")


def parse_document(source: str) -> tuple[ChainSet, list[Diagnostic]]:
    """Parse a chain document; never raises on malformed input."""
    lines = source.split("\n")
    kinds = list(map(_LINE_KINDS.__getitem__, lines))
    # The search stops at the first syntax error, which only the block walk reports.
    if _LineError not in map(type, kinds):
        chains = _accept(kinds)
        if chains is not None:
            return chains, []
    # Only a document with a separator reports empty blocks.
    separated = _SEPARATOR in kinds
    diagnostics: list[Diagnostic] = []
    chains: list[FailureChain] = []
    start = 0
    while True:
        try:
            end = kinds.index(_SEPARATOR, start)
        except ValueError:
            end = len(kinds)
        chain, errors = _read_block(lines, kinds, start, end, separated)
        diagnostics += errors
        if chain is not None:
            chains.append(chain)
        if end == len(kinds):
            return ChainSet(chains), diagnostics
        start = end + 1


def _accept(kinds: list[_Kind]) -> ChainSet | None:
    """The chains of a document with no syntax error, if it is clean; None if it must be read block by block.

    With blank and comment lines dropped, a clean document is runs of
    one kind: two headers, ``alert:`` then ``case:``, both with text;
    the steps; a separator; two headers again, and so on, ending in
    steps. Its chains must pass model._all_valid on their identities. It
    is checked in C-level passes over the whole document, with no Python
    step per line or per chain.
    """
    # The runs of lines of one kind, blank and comment lines (None) dropped.
    runs = list(map(tuple, map(_SECOND, itertools.groupby(filter(None, kinds), type))))
    headers, step_lists, separators = runs[0::3], runs[1::3], runs[2::3]
    if (
        tuple(map(type, map(_FIRST, runs))) != ((_Header, tuple, str) * len(headers))[:-1]
        or {*map(len, headers)} != {2}
        or max(map(len, separators), default=1) > 1
    ):
        return None
    alerts = list(map(_FIRST, headers))
    cases = list(map(_SECOND, headers))
    if {*map(_KEY, alerts)} != {"alert"} or {*map(_KEY, cases)} != {"case"} or not all(map(_TEXT, alerts + cases)):
        return None
    steps = list(itertools.chain.from_iterable(step_lists))
    try:
        # Read through the module, so a replaced table (tests swap it) is the one used.
        identities = list(map(model._IDENTITIES.__getitem__, steps))
    except EmptyNameError:
        return None
    if not model._all_valid(step_lists, steps, identities):
        return None
    # The header texts are stripped and the steps a tuple, as FailureChain.__new__ would make them.
    return ChainSet(
        map(tuple.__new__, itertools.repeat(FailureChain), zip(map(_TEXT, alerts), map(_TEXT, cases), step_lists))
    )


def _classify(line: str) -> _Kind:
    """What one line holds, read from its text alone."""
    match = _LINE_RE.fullmatch(line)
    if match is not None:
        key, text, keyword, name = match.groups()
        if key is not None:
            return _Header(key.casefold(), text.strip(), match.start(1) + 1)
        category = _STEP_KEYWORDS.get(keyword.casefold())
        if category is not None:
            return category, _ESCAPE_RE.sub(_unescape, name) if "\\" in name else name
    stripped = line.strip()
    if not stripped or stripped[0] == "#":
        return None
    if stripped == _SEPARATOR:
        return _SEPARATOR
    column = _column(line)
    prefix = re.match(_STEP_PREFIX, stripped)
    if prefix is None:
        return _LineError(column, f"expected a header or step line, got {stripped[:30]!r}")
    keyword, quoted = prefix.groups()
    word = keyword.casefold()
    if word not in _STEP_KEYWORDS:
        if word in ("alert", "case"):
            return _LineError(column, f"header must be written '{word}: <text>'")
        return _LineError(column, f"unknown category '{keyword}'")
    end = prefix.end()
    if quoted is None:
        return _LineError(column + end, "expected a quoted name after the category keyword")
    # _LINE_RE reads every well-formed step, so the name stops at its fault.
    fault = stripped[end : end + 2]
    if fault in ("", "\\"):
        return _LineError(column + prefix.start(2), "unterminated quoted name")
    if fault[0] == "\\":
        return _LineError(column + end, f"invalid escape '{fault}' in quoted name")
    if fault[0] == '"':
        trailing = stripped[end + 1 :].lstrip()
        return _LineError(
            column + len(stripped) - len(trailing),
            f"unexpected text after the quoted name: {trailing[:20]!r}",
        )
    return _LineError(column + end, f"control character U+{ord(fault[0]):04X} in quoted name")


# What each distinct line holds, by the line's text, shared by every document.
_LINE_KINDS = _Memo(_classify)


def _read_block(
    lines: list[str], kinds: list[_Kind], start: int, end: int, separated: bool
) -> tuple[FailureChain | None, list[Diagnostic]]:
    """Read the block on kinds[start:end], which is lines start + 1 to end."""
    found: list[Diagnostic] = []  # the lines' diagnostics in line order, then missing headers
    headers: dict[str, str] = {}
    steps: list[Step] = []
    for lineno, kind in enumerate(kinds[start:end], start + 1):
        if type(kind) is tuple:
            steps.append(kind)
        elif kind is None:
            continue
        elif type(kind) is _Header:
            if steps:
                message = f"'{kind.key}:' header after the first step"
            elif kind.key in headers:
                message = f"duplicate header '{kind.key}:'"
            else:
                headers[kind.key] = kind.text
                if not kind.text:
                    message = f"'{kind.key}:' header has no text"
                    found.append(Diagnostic(Severity.WARNING, lineno, kind.column, message))
                continue
            found.append(Diagnostic(Severity.ERROR, lineno, kind.column, message))
        else:
            found.append(Diagnostic(Severity.ERROR, lineno, *kind))
    if not (steps or headers or found):
        if not separated:
            return None, []
        return None, [Diagnostic(Severity.WARNING, min(start + 1, len(kinds)), 1, "empty chain block")]
    first_line = start + 1
    while kinds[first_line - 1] is None:
        first_line += 1
    for key in ("alert", "case"):
        if key not in headers:
            found.append(Diagnostic(Severity.ERROR, first_line, 1, f"missing required header '{key}:'"))
    if any(d.severity is Severity.ERROR for d in found):
        return None, found
    chain = FailureChain(headers["alert"], headers["case"], tuple(steps))
    violations = validate_chain(chain)
    if not violations:
        return chain, found
    step_lines = [i for i in range(start, end) if type(kinds[i]) is tuple]
    for violation in violations:
        if violation.step <= len(step_lines):
            index = step_lines[violation.step - 1]
            lineno, column = index + 1, _column(lines[index])
        else:  # TooShort in a block with no steps
            lineno, column = first_line, 1
        found.append(Diagnostic(Severity.ERROR, lineno, column, f"{violation.rule}: {violation.message}"))
    return None, found


def _column(line: str) -> int:
    return len(line) - len(line.lstrip()) + 1


def _unescape(match: re.Match[str]) -> str:
    return _UNESCAPES[match[1]]


def serialize_document(chains: ChainSet) -> str:
    """Render a chain set in the document format.

    Round-trips exactly: parse_document(serialize_document(cs)) yields
    cs with no diagnostics. Refuses invalid chains with their violation
    list; a header text cannot be empty, which the reader warns about,
    nor span lines in a line-oriented format, and a name cannot hold a
    control character other than tab, LF or CR, the three that have
    escapes.
    """
    parts: list[str] = []
    for index, chain in enumerate(chains):
        violations = validate_chain(chain)
        if violations:
            raise ChainValidationError([(index, violations)])
        for field_name, value in (("alert", chain.source_alert), ("case", chain.case_label)):
            if not value:
                raise ValueError(f"chain {index}: {field_name} header has no text")
            if "\n" in value or "\r" in value:
                raise ValueError(f"chain {index}: {field_name} text cannot span lines")
        for number, (_, name) in enumerate(chain.steps, start=1):
            control = re.search(_UNWRITABLE, name)
            if control:
                raise ValueError(
                    f"chain {index}: step {number} name holds control character "
                    f"U+{ord(control[0]):04X}"
                )
        lines = [f"alert: {chain.source_alert}", f"case: {chain.case_label}"]
        lines.extend(f'{category.value} "{_escape_name(name)}"' for category, name in chain.steps)
        parts.append("\n".join(lines))
    if not parts:
        return ""
    return "\n---\n".join(parts) + "\n"
