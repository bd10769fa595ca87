#!/usr/bin/env python3
"""Print a sha256 digest of everything the CLI writes for a directory of inputs.

Usage::

    python3 scripts/output_digests.py DIR > digests.txt

Each command runs in a fresh child process of the running interpreter,
with the ``src/`` beside this script first on its import path:

- ``validate``, ``analyze``, ``matrix``, ``dot`` and ``plot`` on all
  ``*.chains`` files under DIR together, then on each file alone;
- ``analyze --from-sums`` and ``plot --from-sums`` on each sums ``*.csv``
  file under DIR;
- ``import-rapex`` on each alerts ``*alerts*.json`` file under DIR.

For every run it prints one ``command stream sha256`` line each for
stdout, stderr, the exit code (as decimal text) and each output file,
the skeletons of ``import-rapex`` included. The children run in a
scratch directory that reaches DIR through a link, so every path they
print is relative and the lines do not depend on where DIR or the
checkout lies. Two checkouts, or two interpreters, then compare with one
``diff`` of their lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHAIN_COMMANDS = ["validate", "analyze", "matrix", "dot", "plot"]
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "PYTHONDONTWRITEBYTECODE": "1",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(work: Path, label: str, argv: list[str], output: str | None = None) -> list[str]:
    """Run the CLI on argv in work; one line per stream and per file it wrote under output."""
    if output is not None:
        argv = [*argv, "-d" if argv[0] == "import-rapex" else "-o", output]
    result = subprocess.run([sys.executable, "-m", "keyfactors.cli", *argv], cwd=work, env=ENV, capture_output=True)
    lines = [
        f"{label} stdout {digest(result.stdout)}",
        f"{label} stderr {digest(result.stderr)}",
        f"{label} exit {digest(str(result.returncode).encode())}",
    ]
    if output is not None:
        path = work / output
        files = sorted(path.iterdir()) if path.is_dir() else [path] if path.exists() else []
        for file in files:
            lines.append(f"{label} {file.relative_to(work).as_posix()} {digest(file.read_bytes())}")
            file.unlink()
        if path.is_dir():
            path.rmdir()
    return lines


def digests(inputs: Path) -> list[str]:
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        (work / "in").symlink_to(inputs.resolve(), target_is_directory=True)

        def found(pattern: str) -> list[str]:
            return sorted(path.relative_to(inputs).as_posix() for path in inputs.rglob(pattern))

        chains = found("*.chains")
        groups = ([("*.chains", chains)] if len(chains) > 1 else []) + [(name, [name]) for name in chains]
        lines = []
        for label, names in groups:
            for command in CHAIN_COMMANDS:
                output = None if command == "validate" else "out"
                lines += run(work, f"{command}[{label}]", [command, *(f"in/{name}" for name in names)], output)
        for name in found("*.csv"):
            lines += run(work, f"from-sums[{name}]", ["analyze", "--from-sums", f"in/{name}"], "out")
            lines += run(work, f"plot-from-sums[{name}]", ["plot", "--from-sums", f"in/{name}"], "out")
        for name in found("*alerts*.json"):
            lines += run(work, f"import-rapex[{name}]", ["import-rapex", f"in/{name}"], "skeletons")
        return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", type=Path, metavar="DIR", help="directory holding the input files")
    args = parser.parse_args()
    if not args.inputs.is_dir():
        parser.error(f"not a directory: {args.inputs}")
    sys.stdout.write("".join(f"{line}\n" for line in digests(args.inputs)))


if __name__ == "__main__":
    main()
