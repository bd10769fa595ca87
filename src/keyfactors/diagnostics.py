"""What the chain parser and the alert importer share: diagnostics and the name escape.

dsl reports a document's faults and rapex its duplicate alerts as
Diagnostics, and both write names quoted as the chain format reads them.
These live apart from dsl so that import-rapex does not load the parser.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    """A parse or validation finding located in the source document."""

    severity: Severity
    line: int
    column: int
    message: str


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_name(name: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in name)
