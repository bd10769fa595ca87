"""Shared chain-set generators: hypothesis strategies for property tests
and a seeded random builder for the large acceptance corpora; and the CSV
row writer the oracles share."""

from __future__ import annotations

import csv
import io
import random

from hypothesis import strategies as st

from keyfactors.model import ChainSet, FactorCategory, FailureChain, normalize_name


def csv_row(cells, end="\n"):
    """One RFC 4180 row from csv.writer, ending in ``end``.

    The writer's terminator is CRLF and then replaced: a writer quotes a cell
    holding a character of its terminator on every Python, but one whose
    terminator is LF leaves a lone CR unquoted before Python 3.13.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + end


NON_HARM = [c for c in FactorCategory if c is not FactorCategory.HARM]

NAME_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " []()/.-_#\"'\\\t\n\räöüß"
)
HEADER_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789 /#.-"

name_texts = st.text(alphabet=NAME_CHARS, min_size=1, max_size=24).filter(lambda s: s.strip())
# Not blank: a header with no text gets a warning, which serialize_document refuses to write.
header_texts = st.text(alphabet=HEADER_CHARS, min_size=1, max_size=16).filter(lambda s: s.strip())


@st.composite
def factor_pools(draw):
    non_harm = draw(
        st.lists(
            st.tuples(st.sampled_from(NON_HARM), name_texts),
            min_size=2,
            max_size=10,
            unique_by=lambda t: (t[0], normalize_name(t[1])),
        )
    )
    harms = draw(st.lists(name_texts, min_size=1, max_size=3, unique_by=normalize_name))
    return non_harm, harms


@st.composite
def failure_chains(draw, pool=None):
    if pool is None:
        pool = draw(factor_pools())
    non_harm, harms = pool
    length = draw(st.integers(min_value=1, max_value=8))
    steps: list[tuple[FactorCategory, str]] = []
    previous = None
    for _ in range(length):
        category, name = draw(st.sampled_from(non_harm))
        identity = (category, normalize_name(name))
        if identity == previous:
            continue
        steps.append((category, name))
        previous = identity
    steps.append((FactorCategory.HARM, draw(st.sampled_from(harms))))
    return FailureChain(draw(header_texts), draw(header_texts), tuple(steps))


@st.composite
def chain_sets(draw, max_chains=6):
    pool = draw(factor_pools())
    # At least one chain: each property test names the empty set in an @example,
    # where an empty draw would otherwise take a third or more of its examples.
    chains = draw(st.lists(failure_chains(pool=pool), min_size=1, max_size=max_chains))
    return ChainSet(tuple(chains))


_RAND_NAME_CHARS = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 []()/-_.#\"'\\"
)


def random_name(rng: random.Random) -> str:
    while True:
        name = "".join(rng.choice(_RAND_NAME_CHARS) for _ in range(rng.randint(1, 18)))
        if name.strip():
            return name


def random_chain_set(
    rng: random.Random, max_chains: int = 100, max_len: int = 20, max_pool: int = 60
) -> ChainSet:
    """One randomized valid chain set within the acceptance corpus bounds."""
    pool_size = rng.randint(3, max_pool)
    harm_count = rng.randint(1, max(1, pool_size // 10))

    non_harm: list[tuple[FactorCategory, str]] = []
    seen: set = set()
    while len(non_harm) < pool_size - harm_count:
        category = rng.choice(NON_HARM)
        name = random_name(rng)
        identity = (category, normalize_name(name))
        if identity in seen:
            continue
        seen.add(identity)
        non_harm.append((category, name))

    harms: list[str] = []
    harm_keys: set[str] = set()
    while len(harms) < harm_count:
        name = random_name(rng)
        key = normalize_name(name)
        if key in harm_keys:
            continue
        harm_keys.add(key)
        harms.append(name)

    chains = []
    for _ in range(rng.randint(0, max_chains)):
        length = rng.randint(2, max_len)
        steps: list[tuple[FactorCategory, str]] = []
        previous = None
        while len(steps) < length - 1:
            category, name = non_harm[rng.randrange(len(non_harm))]
            identity = (category, normalize_name(name))
            if identity == previous:
                continue
            steps.append((category, name))
            previous = identity
        steps.append((FactorCategory.HARM, harms[rng.randrange(len(harms))]))
        chains.append(
            FailureChain(
                f"A12/{rng.randint(0, 99999):05d}/{rng.randint(20, 26)}",
                rng.choice(["burn", "electric shock", "fire", "poisoning", "cut"]),
                tuple(steps),
            )
        )
    return ChainSet(tuple(chains))


_MUTATION_CHARS = '"\\#-\n\t a:ß€'


def mutate_text(rng: random.Random, text: str) -> str:
    """Randomly corrupt a document for parser-totality checks."""
    chars = list(text)
    for _ in range(rng.randint(1, 6)):
        op = rng.randrange(3) if chars else 1
        if op == 0:
            del chars[rng.randrange(len(chars))]
        elif op == 1:
            chars.insert(rng.randint(0, len(chars)), rng.choice(_MUTATION_CHARS))
        else:
            chars[rng.randrange(len(chars))] = rng.choice(_MUTATION_CHARS)
    return "".join(chars)
