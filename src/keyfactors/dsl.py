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
``\\"``, ``\\\\``, ``\\n``, ``\\r`` and ``\\t`` escapes. A line whose
first non-blank character is ``#`` is a comment; blank lines are
ignored. Documents are UTF-8 with LF line endings (a trailing CR per
line is tolerated on input).

Parsing is total: any input yields a (possibly empty) chain set plus a
deterministic list of diagnostics. A chain with a syntax error or a
broken chain invariant is excluded and reported with one error
diagnostic per problem; warnings never exclude anything.

Each line is stripped once. A well-formed step line is read by one
compiled pattern (keyword, then a quoted name with valid escapes only),
and its name is unescaped only if it holds a backslash. Every other
line (headers, unknown keywords, malformed names) takes the full path,
where the character scanner runs only to place an error's column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from keyfactors.model import (
    ChainSet,
    ChainValidationError,
    FactorCategory,
    FailureChain,
    Step,
    validate_chain,
)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """A parse or validation finding located in the source document."""

    severity: Severity
    line: int
    column: int
    message: str


_STEP_KEYWORDS = {category.value: category for category in FactorCategory}
_HEADER_RE = re.compile(r"^(alert|case):\s?(.*)$", re.IGNORECASE)
_KEYWORD_RE = re.compile(r"[A-Za-z_]+")
# A well-formed step line, stripped: keyword, optional blanks, then one
# quoted name that ends the line and whose only escapes are those of _UNESCAPES.
_STEP_RE = re.compile(r'([A-Za-z_]+)\s*"([^"\\]*(?:\\[\\"nrt][^"\\]*)*)"')
_ESCAPE_RE = re.compile(r'\\([\\"nrt])')
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def parse_document(source: str) -> tuple[ChainSet, list[Diagnostic]]:
    """Parse a chain document; never raises on malformed input."""
    lines = source.split("\n")
    diagnostics: list[Diagnostic] = []
    chains: list[FailureChain] = []

    # Each block keeps its header and step lines as (line number, line,
    # stripped line); separators, blank lines and comments are dropped.
    blocks: list[list[tuple[int, str, str]]] = [[]]
    block_starts = [1]
    has_separator = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped == "---":
            has_separator = True
            blocks.append([])
            block_starts.append(lineno + 1)
        elif stripped and stripped[0] != "#":
            blocks[-1].append((lineno, line, stripped))

    for start, content in zip(block_starts, blocks):
        if not content:
            if has_separator:
                diagnostics.append(
                    Diagnostic(Severity.WARNING, min(start, len(lines)), 1, "empty chain block")
                )
            continue
        chain, block_diagnostics = _parse_block(content)
        diagnostics.extend(block_diagnostics)
        if chain is not None:
            chains.append(chain)

    return ChainSet(tuple(chains)), diagnostics


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


def _parse_block(content: list[tuple[int, str, str]]) -> tuple[FailureChain | None, list[Diagnostic]]:
    errors: list[Diagnostic] = []
    headers: dict[str, str] = {}
    steps: list[Step] = []
    step_lines: list[tuple[int, str, str]] = []

    for entry in content:
        lineno, line, stripped = entry
        step = _fast_step(stripped)
        if step is not None:
            steps.append(step)
            step_lines.append(entry)
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
        step_lines.append(entry)

    first_line = content[0][0]
    for key in ("alert", "case"):
        if key not in headers:
            errors.append(
                Diagnostic(Severity.ERROR, first_line, 1, f"missing required header '{key}:'")
            )
    if errors:
        return None, errors

    chain = FailureChain(headers["alert"], headers["case"], tuple(steps))
    for violation in validate_chain(chain):
        if 1 <= violation.step <= len(step_lines):
            lineno, line, _ = step_lines[violation.step - 1]
            column = _column(line)
        else:
            lineno, column = first_line, 1
        errors.append(
            Diagnostic(Severity.ERROR, lineno, column, f"{violation.rule}: {violation.message}")
        )
    if errors:
        return None, errors
    return chain, []


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
        chars.append(ch)
        i += 1
    return None, Diagnostic(Severity.ERROR, lineno, column, "unterminated quoted name")


def _escape_name(name: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in name)


def serialize_document(chains: ChainSet) -> str:
    """Render a chain set in the document format.

    Round-trips exactly: parse_document(serialize_document(cs)) yields
    cs with no diagnostics. Refuses invalid chains with their violation
    list; header texts cannot span lines in a line-oriented format.
    """
    parts: list[str] = []
    for index, chain in enumerate(chains):
        violations = validate_chain(chain)
        if violations:
            raise ChainValidationError([(index, violations)])
        for field_name, value in (("alert", chain.source_alert), ("case", chain.case_label)):
            if "\n" in value or "\r" in value:
                raise ValueError(f"chain {index}: {field_name} text cannot span lines")
        lines = [f"alert: {chain.source_alert}", f"case: {chain.case_label}"]
        lines.extend(f'{category.value} "{_escape_name(name)}"' for category, name in chain.steps)
        parts.append("\n".join(lines))
    if not parts:
        return ""
    return "\n---\n".join(parts) + "\n"
