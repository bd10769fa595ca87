"""Which modules each command loads: the probe that the tests and scripts/check_pythons.py share.

``PROBE`` is a program run as ``python -S -c PROBE ARGV...``. It runs the
CLI on ARGV in that process, then prints the keyfactors modules loaded
and which of the stdlib modules it watches were loaded, one line each.
It runs under ``-S``, so that modules which site's .pth files import
cannot hide one. ``COMMANDS`` holds one case per command: a name, the
argv (``{tmp}`` stands for a scratch directory) and the keyfactors
layers, besides ``cli`` and ``model``, that the command should load.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
CHAIN_FILES = [str(DATA / "chains" / name) for name in ("burn.chains", "shock.chains", "poisoning.chains")]
SUMS = str(DATA / "table1_as_printed.csv")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

PROBE = (
    "import sys\n"
    "from keyfactors.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(*sorted(m for m in sys.modules if m.startswith('keyfactors')))\n"
    "watched = ('csv', 'dataclasses', 'decimal', 'inspect', 'json', 'pathlib', 'tempfile')\n"
    "print('stdlib:', *sorted(m for m in watched if m in sys.modules))\n"
    "sys.exit(code)\n"
)

COMMANDS = [
    ("import-cli", [], []),
    ("validate", ["validate", *CHAIN_FILES], ["dsl"]),
    ("analyze", ["analyze", *CHAIN_FILES, "-o", "{tmp}/report.csv"], ["analysis", "dsl", "emit", "matrix"]),
    (
        "from-sums",
        ["analyze", "--from-sums", SUMS, "-o", "{tmp}/report.csv"],
        ["analysis", "emit", "matrix", "sums_table"],
    ),
    ("import-rapex", ["import-rapex", str(DATA / "alerts_sample.json"), "-d", "{tmp}/skeletons"], ["rapex"]),
    ("dot", ["dot", *CHAIN_FILES, "-o", "{tmp}/network.dot"], ["dsl", "emit", "matrix"]),
    ("matrix", ["matrix", *CHAIN_FILES, "-o", "{tmp}/matrix.csv"], ["dsl", "emit", "matrix"]),
    ("plot", ["plot", *CHAIN_FILES, "-o", "{tmp}/scatter.svg"], ["analysis", "dsl", "emit", "matrix"]),
    (
        "plot-from-sums",
        ["plot", "--from-sums", SUMS, "-o", "{tmp}/scatter.svg"],
        ["analysis", "emit", "matrix", "sums_table"],
    ),
    (
        "key-threshold",
        ["analyze", *CHAIN_FILES, "--key-threshold", "50", "-o", "{tmp}/report.csv"],
        ["analysis", "dsl", "emit", "matrix"],
    ),
]


def run(python: str, argv: list[str], tmp: str | os.PathLike) -> subprocess.CompletedProcess:
    """Run the probe on argv, with {tmp} filled in, under python -S and this checkout's src/."""
    argv = [arg.format(tmp=tmp) for arg in argv]
    return subprocess.run([python, "-S", "-c", PROBE, *argv], env=ENV, capture_output=True, text=True, timeout=300)
