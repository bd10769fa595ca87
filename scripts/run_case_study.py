#!/usr/bin/env python3
"""Run the bundled hair-dryer fixtures through the whole pipeline.

Produces, in the output directory:
  report_as_printed.csv        score report for the published sums table
  report_rank_consistent.csv   same, with the conservation-consistent passive sum
  scatter.svg                  active-passive sum diagram of the 46 factors
  demo_matrix.csv              relationship matrix of the demo chain files
  demo_network.dot             merged failure network of the demo chains
  skeletons/                   chain skeletons imported from the sample alerts
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# A fresh checkout runs without an install: the package is read from src/.
sys.path.insert(0, str(ROOT / "src"))

from keyfactors.cli import main as keyfactors  # noqa: E402


def run(argv: list[str]) -> None:
    print("$ keyfactors " + " ".join(argv))
    code = keyfactors(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="case_study_out", help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    chain_files = [str(DATA / "chains" / name) for name in ("burn.chains", "shock.chains", "poisoning.chains")]
    run(["validate", *chain_files])
    run(["matrix", *chain_files, "-o", str(out / "demo_matrix.csv")])
    run(["dot", *chain_files, "-o", str(out / "demo_network.dot")])
    run(["analyze", "--from-sums", str(DATA / "table1_as_printed.csv"),
         "-o", str(out / "report_as_printed.csv")])
    run(["analyze", "--from-sums", str(DATA / "table1_rank_consistent.csv"),
         "-o", str(out / "report_rank_consistent.csv")])
    run(["plot", "--from-sums", str(DATA / "table1_as_printed.csv"),
         "-o", str(out / "scatter.svg")])
    run(["import-rapex", str(DATA / "alerts_sample.json"), "-d", str(out / "skeletons")])
    print(f"\noutputs in {out.resolve()}")


if __name__ == "__main__":
    main()
