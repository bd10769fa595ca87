"""Output checks for the keyfactors benchmark.

Every check compares one CLI output with values the generator recorded
in ``expected.json`` and returns a list of problems (empty when the
output is right). Nothing here imports keyfactors, so a defect in the
program cannot also hide in its check. Standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

_DIAGNOSTIC_RE = re.compile(r"^(.+?):(\d+):(\d+): (error|warning): (.*)$")
_EDGE_RE = re.compile(r'^  f(\d+) -> f(\d+) \[label="(\d+)", penwidth=[0-9.]+\];$')
_NODE_RE = re.compile(r"^  f(\d+) \[label=")
_MARKER_RE = re.compile(r'<g class="marker" data-factor="(\d+)">')


def canonical(name: str) -> str:
    """The chain format's factor-name normalization, restated here."""
    return " ".join(name.split()).casefold()


def expected_sums(expected: dict) -> dict[tuple[str, str], tuple[int, int]]:
    return {(cat, key): (a, p) for cat, key, a, p in expected["sums"]}


def check_exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_repeats(digests: list[str]) -> list[str]:
    """Every repeat of a command must write the same bytes."""
    differing = sum(1 for d in digests if d != digests[0])
    return [f"{differing} of {len(digests)} repeats wrote different bytes"] if differing else []


def check_report(text: str, expected: dict) -> list[str]:
    """Report sums must equal the oracle sums; active and passive totals conserve."""
    rows = list(csv.DictReader(text.splitlines()))
    want = expected_sums(expected)
    problems = []
    if [row.get("id") for row in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        problems.append("report ids are not 1..n in order")
    got = {}
    for row in rows:
        try:
            got[(row["category"], canonical(row["name"]))] = (int(row["active_sum"]), int(row["passive_sum"]))
        except (KeyError, TypeError, ValueError):
            problems.append(f"unreadable report row {row!r:.80}")
    if got != want:
        wrong = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        problems.append(f"{len(wrong)} factors with wrong sums, e.g. {wrong[:3]}")
    transitions = expected["shape"]["transitions"]
    total_active = sum(a for a, _ in got.values())
    total_passive = sum(p for _, p in got.values())
    if not total_active == total_passive == transitions:
        problems.append(f"totals active {total_active}, passive {total_passive}, transitions {transitions}")
    return problems


def check_matrix_csv(path: Path, expected: dict) -> list[str]:
    """Nonzero cells must equal the generator's distinct consecutive pairs.

    Rows are streamed so that a wide matrix is never held in memory.
    Row sums, column sums and the sum columns must agree with the oracle.
    """
    want = expected_sums(expected)
    problems = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        n = len(header) - 3
        labels = header[1 : n + 1]
        identities = []
        for label in labels:
            category, _, name = label.partition(":")
            identities.append((category, canonical(name)))
        columns = [0] * n
        nonzero = total = 0
        for i in range(n):
            row = next(reader, None)
            if row is None or len(row) != n + 3 or row[0] != labels[i]:
                return problems + [f"matrix row {i + 1} is missing or malformed"]
            cells = row[1 : n + 1]
            row_sum = 0
            for j, cell in enumerate(cells):
                if cell:
                    value = int(cell)
                    nonzero += 1
                    row_sum += value
                    columns[j] += value
            total += row_sum
            if row_sum != int(row[n + 1]) or row_sum != want.get(identities[i], (None,))[0]:
                problems.append(f"matrix row {labels[i]!r} sums to {row_sum}, column says {row[n + 1]}")
        passive_row = next(reader, [])
        if n and [str(c) for c in columns] != passive_row[1 : n + 1]:
            problems.append("matrix passive_sum row differs from the column sums")
        if n and columns != [want.get(ident, (0, None))[1] for ident in identities]:
            problems.append("matrix column sums differ from the oracle passive sums")
    if len(identities) != len(want):
        problems.append(f"matrix has {len(identities)} factors, expected {len(want)}")
    if nonzero != expected["shape"]["nonzero_cells"]:
        problems.append(f"matrix has {nonzero} nonzero cells, expected {expected['shape']['nonzero_cells']}")
    if total != expected["shape"]["transitions"]:
        problems.append(f"matrix cells sum to {total}, expected {expected['shape']['transitions']}")
    return problems[:5]


def dot_edges(text: str) -> list[tuple[int, int, int]]:
    """(source id, target id, count) of every edge line of a DOT export."""
    return [tuple(int(g) for g in m.groups()) for m in map(_EDGE_RE.match, text.splitlines()) if m]


def check_dot(text: str, expected: dict) -> list[str]:
    """Edge count must equal the distinct pairs; edge labels must sum to the transitions."""
    shape = expected["shape"]
    nodes = sum(1 for line in text.splitlines() if _NODE_RE.match(line))
    found = dot_edges(text)
    edges, total = len(found), sum(count for _, _, count in found)
    problems = []
    if len({(s, t) for s, t, _ in found}) != edges:
        problems.append("DOT repeats an edge")
    if nodes != shape["factors"]:
        problems.append(f"DOT has {nodes} nodes, expected {shape['factors']}")
    if edges != shape["nonzero_cells"]:
        problems.append(f"DOT has {edges} edges, expected {shape['nonzero_cells']}")
    if total != shape["transitions"]:
        problems.append(f"DOT edge labels sum to {total}, expected {shape['transitions']}")
    return problems


def check_svg(text: str, expected: dict) -> list[str]:
    """One marker per factor, in id order."""
    ids = [int(m) for m in _MARKER_RE.findall(text)]
    if ids != list(range(1, expected["shape"]["factors"] + 1)) or not text.endswith("</svg>\n"):
        return [f"SVG has {len(ids)} markers, expected ids 1..{expected['shape']['factors']}"]
    return []


def check_validate(stderr: str, expected: dict) -> list[str]:
    """Diagnostics must fall exactly on the injected chains, each with its rule."""
    injected: dict[str, list] = {}
    for file_name, first, last, rule, marker in expected["injected"]:
        injected.setdefault(file_name, []).append([first, last, rule, marker, []])
    problems = []
    for line in stderr.splitlines():
        match = _DIAGNOSTIC_RE.match(line)
        if not match:
            problems.append(f"unreadable diagnostic {line!r:.80}")
            continue
        file_name, lineno, _, severity, message = match.groups()
        chain = next((c for c in injected.get(file_name, []) if c[0] <= int(lineno) <= c[1]), None)
        if chain is None or severity != "error":
            problems.append(f"{severity} outside the injected chains: {line!r:.80}")
            continue
        chain[4].append(message)
    for file_name, chains in injected.items():
        for first, _, rule, marker, messages in chains:
            if not any(marker in m for m in messages):
                problems.append(f"{file_name}:{first}: injected {rule} chain not reported as such")
    return problems[:5]


def check_skeletons(out_dir: Path, stdout: str, expected: dict) -> list[str]:
    """One skeleton file per distinct (alert, risk) pair, each naming its pair."""
    want = {tuple(pair) for pair in expected["alert_pairs"]}
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    got = set()
    for path in files:
        head = path.read_text(encoding="utf-8").split("\n", 2)
        if len(head) >= 2 and head[0].startswith("alert: ") and head[1].startswith("case: "):
            got.add((head[0][7:], head[1][6:]))
    problems = []
    if len(files) != len(want) or got != want:
        problems.append(f"{len(files)} skeletons with {len(got)} distinct pairs, expected {len(want)}")
    if len(stdout.splitlines()) != len(want):
        problems.append(f"stdout lists {len(stdout.splitlines())} files, expected {len(want)}")
    return problems


def digest(*paths: Path) -> str:
    """sha256 over files and directory trees, names included."""
    h = hashlib.sha256()
    for path in paths:
        members = sorted(path.rglob("*")) if path.is_dir() else [path] if path.exists() else []
        for member in members:
            h.update(member.name.encode() + b"\0")
            if member.is_file():
                h.update(member.read_bytes())
    return h.hexdigest()
