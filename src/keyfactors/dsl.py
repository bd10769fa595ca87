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
character (Unicode category Cc) other than tab is not allowed in a name.
A line whose first non-blank character is ``#`` is a comment; blank
lines are ignored. Documents are UTF-8 with LF line endings (a trailing
CR per line is tolerated on input).

Parsing is total: any input yields a (possibly empty) chain set plus a
deterministic list of diagnostics. A chain with a syntax error or a
broken chain invariant is excluded and reported with one error
diagnostic per problem; warnings never exclude anything.

A document is read block by block. A block in the form serialize_document
writes is matched whole by one compiled pattern: optional ``#`` lines, the
``alert:`` and ``case:`` lines, then step lines (lower-case keyword, one
space, a quoted name) and ``#`` lines, every line ending in LF, up to a
``---`` line or the end of the document. The pattern has checked every
line, so the block is split at LF and each step line is looked up in a
table of the step lines seen in the document; step_identities' check
then accepts the chain, or its violations are placed on the block's own
lines. Any other block (blank or indented lines, CR, upper-case keywords,
a syntax error, no final LF) is read one stripped line at a time from
its first line. There, a step line found in the table costs one lookup,
a new well-formed one is read by one pattern, and the character scanner
runs only to place an error's column. Either way each diagnostic has
the same text and ``line:column``.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from keyfactors.model import (
    ChainSet,
    ChainValidationError,
    FactorCategory,
    FailureChain,
    Step,
    step_identities,
    validate_chain,
)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    """A parse or validation finding located in the source document."""

    severity: Severity
    line: int
    column: int
    message: str


_STEP_KEYWORDS = {category.value: category for category in FactorCategory}
_HEADER_RE = re.compile(r"^(alert|case):\s?(.*)$", re.IGNORECASE)
_KEYWORD_RE = re.compile(r"[A-Za-z_]+")
# A quoted name's body: no quote, backslash or control character but tab,
# except in the escapes of _UNESCAPES.
_NAME_CHAR = r'[^"\\\x00-\x08\n-\x1f\x7f-\x9f]'
_NAME = rf'{_NAME_CHAR}*(?:\\[\\"nrt]{_NAME_CHAR}*)*'
# A well-formed step line, stripped: keyword, optional blanks, then one
# quoted name that ends the line.
_STEP_RE = re.compile(rf'([A-Za-z_]+)\s*"({_NAME})"')
# A block as serialize_document writes it (groups: alert text, case text,
# step and comment lines, separator). Matching the lines in a lookahead and
# then the backreference \3 makes them atomic, as Python 3.10 has no
# possessive quantifier: a block that breaks off at some line fails at once
# instead of backtracking through every line before it.
_KEYWORDS = "|".join(_STEP_KEYWORDS)
_BLOCK_RE = re.compile(
    r"(?:#[^\n]*\n)*alert:([^\n]*)\n(?:#[^\n]*\n)*case:([^\n]*)\n"
    rf'(?=((?:(?:(?:{_KEYWORDS}) "{_NAME}"|#[^\n]*)\n)*))\3(?:(---)\n|\Z)'
)
_ESCAPE_RE = re.compile(r'\\([\\"nrt])')
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
# Control characters a name cannot hold, even escaped.
_UNWRITABLE_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")


def parse_document(source: str) -> tuple[ChainSet, list[Diagnostic]]:
    """Parse a chain document; never raises on malformed input."""
    diagnostics: list[Diagnostic] = []
    chains: list[FailureChain] = []
    last_line = source.count("\n") + 1
    table = _StepTable()
    pos, lineno, first_block = 0, 1, True
    while True:
        match = _BLOCK_RE.match(source, pos)
        if match is not None:
            chain, block_diagnostics = _canonical_block(source, pos, lineno, match, table)
            separated = match[4] is not None
            next_pos = match.end()
            next_line = lineno + source.count("\n", pos, next_pos)
        else:
            content, next_pos, next_line, separated = _block_lines(source, pos, lineno)
            if content:
                chain, block_diagnostics = _parse_block(content, table)
            else:
                chain, block_diagnostics = None, []
                if separated or not first_block:
                    # Only a document with a separator reports empty blocks.
                    block_diagnostics.append(
                        Diagnostic(Severity.WARNING, min(lineno, last_line), 1, "empty chain block")
                    )
        diagnostics.extend(block_diagnostics)
        if chain is not None:
            chains.append(chain)
        if not separated:
            return ChainSet(tuple(chains)), diagnostics
        pos, lineno, first_block = next_pos, next_line, False


class _StepTable(dict):
    """The step written on each step line seen in one document, by the line's text.

    Looking up a line of a block _BLOCK_RE matched reads its step; such a
    comment line maps to None and is not kept.
    """

    def __missing__(self, line: str) -> Step | None:
        if line[0] == "#":
            return None
        keyword, _, name = line[:-1].partition(' "')
        if "\\" in name:
            name = _ESCAPE_RE.sub(_unescape, name)
        step = self[line] = (_STEP_KEYWORDS[keyword], name)
        return step


def _canonical_block(
    source: str, pos: int, lineno: int, match: re.Match[str], table: _StepTable
) -> tuple[FailureChain | None, list[Diagnostic]]:
    """Read a block _BLOCK_RE matched at pos, whose first line is lineno."""
    # The pattern has checked every line, so splitting at LF is enough.
    lines = match[3].split("\n")
    lines.pop()
    chain = FailureChain(match[1], match[2], tuple(filter(None, map(table.__getitem__, lines))))
    if step_identities(chain) is not None:
        return chain, []
    body_line = lineno + source.count("\n", pos, match.start(3))
    step_lines = [(body_line + i, line) for i, line in enumerate(lines) if line[0] != "#"]
    first_line = lineno + source.count("\n", pos, match.start(1))
    return None, _violation_diagnostics(chain, step_lines, first_line)


def _block_lines(source: str, pos: int, lineno: int) -> tuple[list[tuple[int, str, str]], int, int, bool]:
    """Read the block at pos one line at a time, up to its separator or the end.

    Returns its header and step lines as (line number, line, stripped
    line), where the next block starts (position and line number), and
    whether a separator ended this one. Blank lines and comments are dropped.
    """
    content: list[tuple[int, str, str]] = []
    end = len(source)
    while True:
        newline = source.find("\n", pos)
        stop = end if newline < 0 else newline
        line = source[pos:stop]
        stripped = line.strip()
        if stripped == "---":
            return content, min(stop + 1, end), lineno + 1, True
        if stripped and stripped[0] != "#":
            content.append((lineno, line, stripped))
        if newline < 0:
            return content, end, lineno, False
        pos, lineno = newline + 1, lineno + 1


def _column(line: str) -> int:
    return len(line) - len(line.lstrip()) + 1


def _fast_step(stripped: str) -> Step | None:
    """The step on a well-formed step line; None leaves the line to the full path."""
    match = _STEP_RE.fullmatch(stripped)
    if match is None:
        return None
    category = _STEP_KEYWORDS.get(match[1].casefold())
    if category is None:
        return None
    name = match[2]
    if "\\" in name:
        name = _ESCAPE_RE.sub(_unescape, name)
    return category, name


def _unescape(match: re.Match[str]) -> str:
    return _UNESCAPES[match[1]]


def _parse_block(
    content: list[tuple[int, str, str]], table: _StepTable
) -> tuple[FailureChain | None, list[Diagnostic]]:
    errors: list[Diagnostic] = []
    headers: dict[str, str] = {}
    steps: list[Step] = []
    step_lines: list[tuple[int, str]] = []

    for lineno, line, stripped in content:
        step = table.get(stripped)
        if step is None:
            step = _fast_step(stripped)
            if step is not None:
                table[stripped] = step
        if step is not None:
            steps.append(step)
            step_lines.append((lineno, line))
            continue

        # Headers, unknown keywords and malformed names.
        column = _column(line)
        header = _HEADER_RE.match(stripped)
        if header:
            key = header.group(1).casefold()
            if steps:
                errors.append(
                    Diagnostic(
                        Severity.ERROR, lineno, column, f"'{key}:' header after the first step"
                    )
                )
            elif key in headers:
                errors.append(
                    Diagnostic(Severity.ERROR, lineno, column, f"duplicate header '{key}:'")
                )
            else:
                headers[key] = header.group(2).strip()
            continue

        keyword_match = _KEYWORD_RE.match(stripped)
        if not keyword_match:
            errors.append(
                Diagnostic(
                    Severity.ERROR,
                    lineno,
                    column,
                    f"expected a header or step line, got {stripped[:30]!r}",
                )
            )
            continue
        keyword = keyword_match.group(0)
        category = _STEP_KEYWORDS.get(keyword.casefold())
        if category is None:
            if keyword.casefold() in ("alert", "case"):
                message = f"header must be written '{keyword.casefold()}: <text>'"
            else:
                message = f"unknown category '{keyword}'"
            errors.append(Diagnostic(Severity.ERROR, lineno, column, message))
            continue
        name, error = _parse_quoted_name(
            stripped[keyword_match.end() :], lineno, column + keyword_match.end()
        )
        if error is not None:
            errors.append(error)
            continue
        steps.append((category, name))
        step_lines.append((lineno, line))

    first_line = content[0][0]
    for key in ("alert", "case"):
        if key not in headers:
            errors.append(
                Diagnostic(Severity.ERROR, first_line, 1, f"missing required header '{key}:'")
            )
    if errors:
        return None, errors

    chain = FailureChain(headers["alert"], headers["case"], tuple(steps))
    errors = _violation_diagnostics(chain, step_lines, first_line)
    if errors:
        return None, errors
    return chain, []


def _violation_diagnostics(
    chain: FailureChain, step_lines: list[tuple[int, str]], first_line: int
) -> list[Diagnostic]:
    """One error per broken invariant, at its step's (line number, line), else at first_line."""
    errors = []
    for violation in validate_chain(chain):
        if 1 <= violation.step <= len(step_lines):
            lineno, line = step_lines[violation.step - 1]
            column = _column(line)
        else:
            lineno, column = first_line, 1
        errors.append(
            Diagnostic(Severity.ERROR, lineno, column, f"{violation.rule}: {violation.message}")
        )
    return errors


def _parse_quoted_name(rest: str, lineno: int, column: int) -> tuple[str, None] | tuple[None, Diagnostic]:
    offset = len(rest) - len(rest.lstrip())
    column += offset
    rest = rest.lstrip()
    if not rest.startswith('"'):
        return None, Diagnostic(
            Severity.ERROR, lineno, column, 'expected a quoted name after the category keyword'
        )
    chars: list[str] = []
    i = 1
    while i < len(rest):
        ch = rest[i]
        if ch == "\\":
            if i + 1 >= len(rest):
                break
            replacement = _UNESCAPES.get(rest[i + 1])
            if replacement is None:
                return None, Diagnostic(
                    Severity.ERROR,
                    lineno,
                    column + i,
                    f"invalid escape '\\{rest[i + 1]}' in quoted name",
                )
            chars.append(replacement)
            i += 2
            continue
        if ch == '"':
            trailing = rest[i + 1 :]
            if trailing.strip():
                return None, Diagnostic(
                    Severity.ERROR,
                    lineno,
                    column + i + 1 + (len(trailing) - len(trailing.lstrip())),
                    f"unexpected text after the quoted name: {trailing.strip()[:20]!r}",
                )
            return "".join(chars), None
        if (ch < " " and ch != "\t") or "\x7f" <= ch <= "\x9f":
            return None, Diagnostic(
                Severity.ERROR,
                lineno,
                column + i,
                f"control character U+{ord(ch):04X} in quoted name",
            )
        chars.append(ch)
        i += 1
    return None, Diagnostic(Severity.ERROR, lineno, column, "unterminated quoted name")


def _escape_name(name: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in name)


def serialize_document(chains: ChainSet) -> str:
    """Render a chain set in the document format.

    Round-trips exactly: parse_document(serialize_document(cs)) yields
    cs with no diagnostics. Refuses invalid chains with their violation
    list; header texts cannot span lines in a line-oriented format, and
    a name cannot hold a control character other than tab, LF or CR,
    the three that have escapes.
    """
    parts: list[str] = []
    for index, chain in enumerate(chains):
        violations = validate_chain(chain)
        if violations:
            raise ChainValidationError([(index, violations)])
        for field_name, value in (("alert", chain.source_alert), ("case", chain.case_label)):
            if "\n" in value or "\r" in value:
                raise ValueError(f"chain {index}: {field_name} text cannot span lines")
        for number, (_, name) in enumerate(chain.steps, start=1):
            control = _UNWRITABLE_RE.search(name)
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
