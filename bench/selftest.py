"""Self-test of the benchmark's output checks, at a tiny input size.

Runs every CLI command once per workload on tiny generated inputs and
requires every check to pass. Then it alters one output at a time (a
report sum, a DOT edge, an exit code, a matrix cell, an SVG marker, a
diagnostic, a skeleton file, a repeat's bytes) and requires the check
that guards it to fail, so that no check is vacuous. Takes a few
seconds::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run


def main() -> int:
    if not (run.SRC / "keyfactors" / "cli.py").is_file():
        print(f"error: no keyfactors sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import gen

    run.OUT.mkdir(exist_ok=True)
    root = run.OUT / f"selftest-{os.getpid()}"
    env = run.child_env()
    failures: list[str] = []
    caught = 0

    def expect_caught(label: str, problems: list[str]) -> None:
        nonlocal caught
        if problems:
            caught += 1
        else:
            failures.append(f"{label}: the altered output passed its check")

    try:
        for workload in gen.WORKLOADS:
            work = root / workload
            expected = json.loads(json.dumps(gen.generate(workload, 7, work, scale=0.02)))
            os.chdir(work)
            commands = {cmd.name: cmd for cmd in run.build_commands(expected, work)}
            for cmd in commands.values():
                for _ in range(2):
                    cmd.reset_outputs(work / "trash")
                    _, code, _ = run.spawn(["-c", run.CLI, *cmd.argv], cmd.stdout, cmd.stderr, env)
                    cmd.record(code)
            _, failed, problems = run.judge(list(commands.values()))
            if failed:
                failures.append(f"{workload}: unaltered outputs fail their checks: {problems}")
            label = workload + ": "

            for name in ("analyze", "from_sums"):
                lines = commands[name].outputs[0].read_text(encoding="utf-8").splitlines(keepends=True)
                cells = lines[1].split(",")
                cells[3] = str(int(cells[3]) + 1)  # active_sum of factor 1
                expect_caught(label + name + " sum +1", checks.check_report("".join([lines[0], ",".join(cells), *lines[2:]]), expected))

            dot = commands["dot"].outputs[0].read_text(encoding="utf-8")
            edge = next(line for line in dot.splitlines() if " -> " in line)
            expect_caught(label + "DOT edge dropped", checks.check_dot(dot.replace(edge + "\n", "", 1), expected))
            relabelled = edge.replace('label="', 'label="1', 1)
            expect_caught(label + "DOT edge count changed", checks.check_dot(dot.replace(edge, relabelled, 1), expected))

            matrix = commands["matrix"].outputs[0]
            text = matrix.read_text(encoding="utf-8").splitlines(keepends=True)
            row = text[1].split(",")
            j = next(i for i in range(1, len(row) - 2) if row[i])
            row[j] = ""
            altered = work / "altered.csv"
            altered.write_text("".join([text[0], ",".join(row), *text[2:]]), encoding="utf-8")
            expect_caught(label + "matrix cell blanked", checks.check_matrix_csv(altered, expected))

            svg = commands["plot"].outputs[0].read_text(encoding="utf-8")
            expect_caught(label + "SVG marker dropped",
                          checks.check_svg(svg.replace('<g class="marker" data-factor="1">', "<g>", 1), expected))

            validate = commands["validate"]
            stderr = validate.stderr.read_text(encoding="utf-8")
            if expected["injected"]:
                file_name, first, last = expected["injected"][0][:3]
                kept = "".join(line for line in stderr.splitlines(keepends=True)
                               if not (line.startswith(f"{file_name}:")
                                       and first <= int(line.split(":")[1]) <= last))
                expect_caught(label + "injected chain not excluded", checks.check_validate(kept, expected))
            stray = f"{expected['corpus_files'][0]}:999999:1: error: invented\n"
            expect_caught(label + "diagnostic outside the injected chains", checks.check_validate(stderr + stray, expected))

            skeletons = commands["import"].outputs[0]
            next(skeletons.iterdir()).unlink()
            expect_caught(label + "skeleton deleted",
                          checks.check_skeletons(skeletons, commands["import"].stdout.read_text(encoding="utf-8"), expected))

            validate.codes[0] = 1 - validate.want_code
            _, failed, _ = run.judge([validate])
            expect_caught(label + "validate exit code altered", ["caught"] if failed else [])
            validate.codes[0] = validate.want_code
            commands["analyze"].digests[1] = "0" * 64
            _, failed, _ = run.judge([commands["analyze"]])
            expect_caught(label + "repeat bytes differ", ["caught"] if failed else [])
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(root, ignore_errors=True)

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"selftest: {caught} alterations caught, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
