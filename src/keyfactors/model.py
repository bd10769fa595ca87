"""Domain model for failure sequence chains.

A failure chain is a linear, time-ordered sequence of typed influencing
factors (components, functions, control and noise factors, actions,
effects) that ends in exactly one harm. Factors are identified by their
category plus a whitespace- and case-normalized name, so different
spellings of the same factor merge across chains.

The value types are tuples (NamedTuples, and ChainSet a tuple of its
chains), so they are immutable, hash and compare by value, and compare
equal to plain tuples holding the same values.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence


class EmptyNameError(ValueError):
    """Raised when a factor name normalizes to the empty string."""


class FactorCategory(Enum):
    """The seven factor categories. HARM is the only terminal one.

    Member order is the presentation order for matrix rows/columns and
    reports. Values double as the step keywords of the chain document
    format and the category tokens of all CSV outputs.
    """

    COMPONENT = "component"
    FUNCTION = "function"
    CONTROL_FACTOR = "control"
    NOISE_FACTOR = "noise"
    ACTION = "action"
    EFFECT = "effect"
    HARM = "harm"

    # Members are singletons compared by identity; object.__hash__ runs in C,
    # where Enum.__hash__ is a Python call on every identity-keyed dict lookup.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, text: str) -> "FactorCategory":
        key = " ".join(text.split()).casefold()
        try:
            return _CATEGORY_ALIASES[key]
        except KeyError:
            raise ValueError(f"unknown category {text!r}") from None


_CATEGORY_ALIASES: dict[str, FactorCategory] = {}
for _cat in FactorCategory:
    _CATEGORY_ALIASES[_cat.value] = _cat
    _CATEGORY_ALIASES[_cat.name.casefold()] = _cat
    _CATEGORY_ALIASES[_cat.name.casefold().replace("_", " ")] = _cat
    _CATEGORY_ALIASES[_cat.name.casefold().replace("_", "")] = _cat

CATEGORY_ORDER: dict[FactorCategory, int] = {c: i for i, c in enumerate(FactorCategory)}


def normalize_name(raw: str) -> str:
    """Trim, collapse internal whitespace runs, and casefold a factor name.

    Idempotent; raises EmptyNameError if nothing remains.
    """
    key = " ".join(raw.split()).casefold()
    if not key:
        raise EmptyNameError(f"factor name {raw!r} is empty after normalization")
    return key


Identity = tuple[FactorCategory, str]

# Control characters a factor name cannot hold, since the chain format
# cannot write them, even escaped. The one place they are written: every
# reader of names refuses _UNWRITABLE, and the chain reader's name pattern
# excludes _CONTROL. A pattern string, compiled on first use.
_CONTROL = r"\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f"
_UNWRITABLE = f"[{_CONTROL}]"


class Factor(NamedTuple):
    """One influencing factor. Identity is (category, canonical_key)."""

    category: FactorCategory
    display_name: str
    canonical_key: str
    id: int

    @property
    def identity(self) -> Identity:
        return (self.category, self.canonical_key)

    @property
    def label(self) -> str:
        return f"{self.category.value}:{self.display_name}"


Step = tuple[FactorCategory, str]


class FailureChain(
    NamedTuple("FailureChain", [("source_alert", str), ("case_label", str), ("steps", tuple[Step, ...])])
):
    """One documented failure scenario; len() counts its steps.

    Construction is permissive so that malformed chains can still be
    inspected; invariants are enforced at the points of use: the parser
    and serialization check each chain with validate_chain, and the
    matrix builder checks a whole chain set at once on its factor
    numbers.
    """

    __slots__ = ()

    def __new__(cls, source_alert: str, case_label: str, steps: Iterable[Step]) -> FailureChain:
        return super().__new__(cls, source_alert.strip(), case_label.strip(), tuple(steps))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls _make: both run __new__

    def __len__(self) -> int:
        return len(self.steps)


class ChainSet(tuple):
    """An ordered collection of failure chains; duplicates are allowed."""

    __slots__ = ()

    def __new__(cls, chains: Iterable[FailureChain] = ()) -> ChainSet:
        return super().__new__(cls, chains)

    @property
    def chains(self) -> tuple[FailureChain, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"ChainSet(chains={self.chains!r})"


TOO_SHORT = "TooShort"
HARM_NOT_TERMINAL = "HarmNotTerminal"
MISSING_HARM = "MissingHarm"
SELF_TRANSITION = "SelfTransition"
EMPTY_NAME = "EmptyName"


class Violation(NamedTuple):
    """A broken chain invariant; step numbers are 1-based."""

    rule: str
    step: int
    message: str


class ChainValidationError(ValueError):
    """One or more chains violate the chain invariants."""

    def __init__(self, invalid: Sequence[tuple[int, Sequence[Violation]]]):
        self.invalid: tuple[tuple[int, tuple[Violation, ...]], ...] = tuple(
            (index, tuple(violations)) for index, violations in invalid
        )
        summary = "; ".join(
            f"chain {index}: " + ", ".join(v.rule for v in violations)
            for index, violations in self.invalid
        )
        super().__init__(f"invalid chains: {summary}")


class _Memo(dict):
    """Values by key, computed on first lookup; forgets all when it holds ``limit`` keys."""

    limit = 1 << 16

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        value = self[key] = self.compute(key)
        return value


_IDENTITIES = _Memo(lambda step: (step[0], normalize_name(step[1])))
_FIRST = operator.itemgetter(0)
_LAST = operator.itemgetter(-1)


def _all_valid(step_lists: Sequence[Sequence[Step]], steps: Sequence[Step], keys: Sequence) -> bool:
    """Whether every chain of a set is valid, checked on the whole set at once in C-level passes.

    ``steps`` are the steps of ``step_lists`` end to end and ``keys`` one
    value per step, equal exactly where the steps' identities are: the
    identities, or factor numbers. The caller has found every name to
    have an identity. The set is valid exactly when every chain has at
    least two steps and ends in a harm, the set holds as many harms as
    chains and no two adjacent keys are equal. In a valid set a harm is
    followed only by the next chain's first step, which is not a harm, so
    a chain boundary never shows a false repeat.
    """
    harm = FactorCategory.HARM
    return not (
        min(map(len, step_lists), default=2) < 2
        or operator.countOf(map(_FIRST, map(_LAST, step_lists)), harm) != len(step_lists)
        or operator.countOf(map(_FIRST, steps), harm) != len(step_lists)
        or any(map(operator.eq, keys, keys[1:]))
    )


def validate_chain(chain: FailureChain) -> list[Violation]:
    """Every broken chain invariant, in step order.

    An empty list means the chain is accepted by the matrix builder.
    Identities (category, normalized name) come from a table keyed by
    the step (category, raw name), so each distinct step is normalized
    once per process (until the table holds ``_Memo.limit`` steps and
    starts over). On the command-line path the parser's calls fill the
    table; build_matrix and sums then look each distinct raw step up in
    it once and check the whole chain set on the factor numbers, so a
    bare ChainSet is still validated in full. A valid chain is accepted
    by one cheap pass; only a broken one is walked step by step to say
    why. A blank name has no identity, so the steps around it are not
    adjacent. MissingHarm is reported only when no step is a harm.
    """
    steps = chain.steps
    try:
        idents = list(map(_IDENTITIES.__getitem__, steps))
    except EmptyNameError:
        pass
    else:
        if _all_valid((steps,), steps, idents):  # the set rule, on a set of one chain
            return []
    violations: list[Violation] = []
    n = len(steps)
    if n < 2:
        violations.append(
            Violation(TOO_SHORT, 1, f"chain has {n} step(s); at least one step must precede the terminal harm")
        )
    previous = None
    for i, step in enumerate(steps, start=1):
        category, name = step
        try:
            identity = _IDENTITIES[step]
        except EmptyNameError:
            identity = None
            violations.append(Violation(EMPTY_NAME, i, f"step {i} name {name!r} is empty after normalization"))
        if category is FactorCategory.HARM and i < n:
            violations.append(Violation(HARM_NOT_TERMINAL, i, f"harm {name!r} at step {i} is not the final step"))
        if identity is not None and identity == previous:
            violations.append(Violation(SELF_TRANSITION, i, f"step {i} repeats the preceding factor {name!r}"))
        previous = identity
    if steps and all(category is not FactorCategory.HARM for category, _ in steps):
        violations.append(
            Violation(MISSING_HARM, n, f"final step must be a harm, got category '{steps[-1][0].value}'")
        )
    return violations


# Record field holding each part of a safety alert, by role. The alert
# importer (rapex) reads records through this map; it lives here so that
# building the command-line parser, which offers one option per role, does
# not import the importer.
DEFAULT_FIELDS = {
    "alert": "alertNumber",
    "product": "product",
    "risk": "risk",
    "description": "description",
}
