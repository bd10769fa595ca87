#!/usr/bin/env python3
"""Check that each given interpreter prints the committed output digests.

Usage::

    python3 scripts/check_pythons.py PYTHON...

For each interpreter PYTHON (a name on PATH or a path), it runs
``scripts/output_digests.py`` under that interpreter, so that every CLI
child runs under it too, on ``data`` and on ``tests/data/awkward``, and
compares the lines printed with ``tests/data/output_digests.txt`` and
``tests/data/awkward_digests.txt``. It also runs the module probe of
``scripts/module_probe.py`` under ``-S`` for every command, and compares
which modules each loads with what this script's own interpreter loads.
It prints one line per interpreter and check, ``ok`` or what differed,
and exits 1 if any check differed or could not run. Only the standard
library is needed, so an interpreter without pytest or hypothesis can be
checked.
"""

from __future__ import annotations

import argparse
import functools
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import module_probe

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "scripts" / "output_digests.py"
CHECKS = [
    ("data", ROOT / "data", ROOT / "tests" / "data" / "output_digests.txt"),
    ("awkward", ROOT / "tests" / "data" / "awkward", ROOT / "tests" / "data" / "awkward_digests.txt"),
]


def check(python: str, inputs: Path, committed: Path) -> str | None:
    """None when python prints the committed digests for inputs; otherwise what went wrong."""
    try:
        result = subprocess.run([python, str(DIGESTS), str(inputs)], capture_output=True, text=True)
    except OSError as exc:
        return f"cannot run: {exc}"
    if result.returncode:
        return f"exit {result.returncode}: {(result.stderr.strip().splitlines() or [''])[-1]}"
    expected = committed.read_text(encoding="utf-8").splitlines()
    differing = [pair for pair in zip_longest(result.stdout.splitlines(), expected) if pair[0] != pair[1]]
    if not differing:
        return None
    got, want = differing[0]
    label = " ".join((want or got).split(" ")[:2])  # the command and the stream or file
    return f"differs: {len(differing)} of {len(expected)} lines, first {label}"


@functools.cache
def probe(python: str) -> list[tuple[int, list[str]]]:
    """Each command's exit code and the probe's two lines of loaded modules, under python."""
    results = []
    for _, argv, _ in module_probe.COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            result = module_probe.run(python, argv, tmp)
        results.append((result.returncode, result.stdout.splitlines()[-2:]))
    return results


def check_modules(python: str) -> str | None:
    """None when each command loads under python the modules it loads under this script's interpreter."""
    try:
        got = probe(python)
    except OSError as exc:
        return f"cannot run: {exc}"
    names = [name for name, _, _ in module_probe.COMMANDS]
    differing = [name for name, mine, theirs in zip(names, got, probe(sys.executable)) if mine != theirs]
    return f"differs: {len(differing)} of {len(names)} commands, first {differing[0]}" if differing else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreter to check")
    args = parser.parse_args()
    failed = False
    for python in args.pythons:
        for name, inputs, committed in CHECKS:
            problem = check(python, inputs, committed)
            failed = failed or problem is not None
            print(f"{python} {name} {problem or 'ok'}", flush=True)
        problem = check_modules(python)
        failed = failed or problem is not None
        print(f"{python} modules {problem or 'ok'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
