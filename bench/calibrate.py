"""Fixed calibration job: how fast this host runs a short Python process right now.

``run.py`` spawns it between every two timed commands. It starts a fresh
interpreter, imports the standard-library modules that ``keyfactors``
imports, and does a fixed amount of the same kind of work as the CLI:
tokenising quoted names with a regular expression, counting pairs in
dicts, building dataclass records and writing CSV and JSON. It imports
nothing from ``keyfactors``, so a change to the program cannot change
its time; only the host's speed can. Prints nothing and exits 0::

    python3 bench/calibrate.py
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import csv
import io
import json
import re
import tempfile  # noqa: F401
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from pathlib import Path  # noqa: F401


class Kind(Enum):
    COMPONENT = "component"
    HAZARD = "hazard"
    HARM = "harm"


@dataclass(frozen=True)
class Record:
    name: str
    kind: Kind
    active: int
    passive: int


NAME = re.compile(r'(component|hazard|harm) "((?:[^"\\]|\\.)*)"')


def main() -> None:
    lines = [
        f'component "part {i % 97}" -> hazard "energy {i % 41}" -> harm "injury {i % 13}"'
        for i in range(3_000)
    ]
    active: dict[str, int] = {}
    passive: dict[str, int] = {}
    kinds: dict[str, Kind] = {}
    for line in lines:
        steps = [(Kind(kind), name.strip().casefold()) for kind, name in NAME.findall(line)]
        for (_, a), (_, b) in zip(steps, steps[1:]):
            active[a] = active.get(a, 0) + 1
            passive[b] = passive.get(b, 0) + 1
        kinds.update((name, kind) for kind, name in steps)
    records = sorted(
        (Record(name, kind, active.get(name, 0), passive.get(name, 0)) for name, kind in kinds.items()),
        key=lambda r: (-r.active, r.name),
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for r in records:
        writer.writerow([r.name, r.kind.value, r.active, r.passive,
                         Decimal(r.active) / Decimal(max(1, r.passive))])
    json.dumps({r.name: [r.active, r.passive] for r in records})


if __name__ == "__main__":
    main()
