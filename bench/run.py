"""End-to-end and per-layer benchmark of the keyfactors CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload chains-large --seed 1 --seconds 40 --trace 0

The workload's inputs are generated from the seed by ``bench/gen.py`` in
a child process, so this process never holds a corpus. With
``--trace 0`` every CLI command runs as a fresh child process, one at a
time, in rounds until the time is up, with the fixed calibration job
``bench/calibrate.py`` spawned between every two timed children. Each
time is host-calibrated: the median over rounds of the child's wall time
divided by the mean of the two calibration times around it, times
``CALIBRATION_S``. ``peak_rss_mib`` is the largest child max-RSS read
with ``os.wait4``. With ``--trace 1`` the same commands run in this process
through ``keyfactors.cli.main``, once plain and once with the layers'
public functions wrapped in spans; the per-layer metrics come from the
spans. Every output is checked against the generator's expected values.
Readable lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results and
the spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import shutil
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_ROUNDS = {0: 3, 1: 2}
SETUP_SPAWNS_PER_ROUND = 2
# The shared host's speed swings by up to half within a second and drifts
# between minutes; raw median wall times of the same code spread by up to
# 0.2 of their median across ten runs (up to 0.47 with larger corpora). A
# child's wall time divided by the mean of the calibration job's times
# just before and just after it spread by under 0.08. The quotient is
# scaled to seconds at a calibration time of CALIBRATION_S, about the
# job's time on the 2-vCPU host where the benchmark was written.
CALIBRATION_S = 0.1
CLI = "import sys; from keyfactors.cli import main; sys.exit(main())"


@dataclass
class Command:
    """One CLI invocation of a workload and how its output is checked."""

    name: str
    argv: list[str]
    want_code: int
    outputs: list[Path]  # files or directories the command writes
    check: Callable[[str, str], list[str]]  # (stdout, stderr) -> problems
    stdout: Path = Path()
    stderr: Path = Path()
    walls: list[float] = field(default_factory=list)
    calibrated: list[float] = field(default_factory=list)  # wall / calibration around it
    traced_walls: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)

    def reset_outputs(self, trash: Path) -> None:
        """Move the last run's outputs aside, so no timed run replaces or deletes files.

        Freeing the blocks of files already written back costs the file
        system journal work that would land inside the next timed run.
        """
        for path in [*self.outputs, self.stdout, self.stderr]:
            if path.exists():
                path.rename(trash / f"{path.name}-{len(self.codes)}")

    def record(self, code: int) -> None:
        self.codes.append(code)
        self.digests.append(checks.digest(*self.outputs, self.stdout, self.stderr))


def build_commands(expected: dict, work: Path) -> list[Command]:
    """Every workload runs every command, so each reports every metric."""
    out = work / "out"
    streams = work / "streams"
    for directory in (out, streams, work / "trash"):
        directory.mkdir(exist_ok=True)
    corpus, accepted = expected["corpus_files"], expected["accepted_files"]
    report, matrix, dot, svg = out / "report.csv", out / "matrix.csv", out / "network.dot", out / "scatter.svg"
    from_sums, skeletons = out / "from_sums.csv", out / "skeletons"

    def text(path: Path) -> str:
        return path.read_text(encoding="utf-8") if path.exists() else ""

    commands = [
        Command("validate", ["validate", *corpus], 1 if expected["injected"] else 0, [],
                lambda so, se: checks.check_validate(se, expected)),
        Command("analyze", ["analyze", *accepted, "-o", str(report)], 0, [report],
                lambda so, se: checks.check_report(text(report), expected)),
        Command("matrix", ["matrix", *accepted, "-o", str(matrix)], 0, [matrix],
                lambda so, se: checks.check_matrix_csv(matrix, expected)),
        Command("dot", ["dot", *accepted, "-o", str(dot)], 0, [dot],
                lambda so, se: checks.check_dot(text(dot), expected)),
        Command("plot", ["plot", *accepted, "-o", str(svg)], 0, [svg],
                lambda so, se: checks.check_svg(text(svg), expected)),
        Command("from_sums", ["analyze", "--from-sums", "sums.csv", "-o", str(from_sums)], 0, [from_sums],
                lambda so, se: checks.check_report(text(from_sums), expected)),
        Command("import", ["import-rapex", "alerts.json", "-d", str(skeletons)], 0, [skeletons],
                lambda so, se: checks.check_skeletons(skeletons, so, expected)),
    ]
    for cmd in commands:
        cmd.stdout, cmd.stderr = streams / f"{cmd.name}.out", streams / f"{cmd.name}.err"
    return commands


def reference_loop() -> float:
    """A fixed pure-Python loop; its time shows the host's speed drift."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict[str, str]) -> tuple[float, int, int]:
    """Run one Python child to completion: (wall seconds, exit code, max RSS in KiB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def generate(workload: str, seed: int, work: Path, env: dict[str, str]) -> dict:
    _, code, _ = spawn([str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)],
                       work / "gen.out", work / "gen.err", env)
    if code != 0:
        raise SystemExit(f"input generation failed:\n{(work / 'gen.err').read_text(errors='replace')}")
    return json.loads((work / "expected.json").read_text(encoding="utf-8"))


def run_rounds(seconds: float, min_rounds: int, one_round) -> int:
    """Call one_round(k) until another round would overrun ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        one_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - round_start) > start + seconds:
            return rounds


def judge(commands: list[Command]) -> tuple[int, int, dict[str, list[str]]]:
    """Check each command's last output; count attempted and failed runs.

    A run fails on a wrong exit code or bytes that differ from the first
    repeat; a failed output check fails every run of its command.
    """
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for cmd in commands:
        found = cmd.check(cmd.stdout.read_text(encoding="utf-8"), cmd.stderr.read_text(encoding="utf-8"))
        bad_runs = [bool(found or checks.check_exit(code, cmd.want_code) or digest != cmd.digests[0])
                    for code, digest in zip(cmd.codes, cmd.digests)]
        found += checks.check_repeats(cmd.digests)
        found += sorted({p for code in cmd.codes for p in checks.check_exit(code, cmd.want_code)})
        attempted += len(bad_runs)
        failed += sum(bad_runs)
        if found:
            problems[cmd.name] = found
    return attempted, failed, problems


def untraced(seconds: float, expected: dict, commands: list[Command], work: Path) -> tuple[dict, dict]:
    """Each command as a fresh child process: the end-to-end metrics."""
    env = child_env()
    so, se = work / "probe.out", work / "probe.err"
    _, code, _ = spawn(["-c", "import sys, keyfactors.cli; sys.stdout.write(keyfactors.cli.__file__)"], so, se, env)
    origin = so.read_text(encoding="utf-8", errors="replace")
    if code != 0 or not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"keyfactors.cli does not import from {SRC}: {origin or se.read_text(errors='replace')}")

    setup, setup_calibrated, rss, ref, calibration = [], [], [], [], []
    codes = {"setup": [], "calibration": []}
    setup_at = {j * len(commands) // SETUP_SPAWNS_PER_ROUND for j in range(SETUP_SPAWNS_PER_ROUND)}

    def calibrate() -> float:
        wall, code, _ = spawn([str(BENCH / "calibrate.py")], so, se, env)
        calibration.append(wall)
        codes["calibration"].append(code)
        return wall

    def one_round(k: int) -> None:
        ref.append(reference_loop())
        before = calibrate()
        for i, cmd in enumerate(commands):
            if i in setup_at:
                wall, code, _ = spawn(["-c", "import keyfactors.cli"], so, se, env)
                after = calibrate()
                setup.append(wall)
                setup_calibrated.append(wall / ((before + after) / 2))
                codes["setup"].append(code)
                before = after
            cmd.reset_outputs(work / "trash")
            wall, code, maxrss = spawn(["-c", CLI, *cmd.argv], cmd.stdout, cmd.stderr, env)
            after = calibrate()
            cmd.walls.append(wall)
            cmd.calibrated.append(wall / ((before + after) / 2))
            rss.append(maxrss)
            cmd.record(code)
            before = after

    rounds = run_rounds(seconds, MIN_ROUNDS[0], one_round)
    attempted, failed, problems = judge(commands)
    for name, exits in codes.items():
        bad = sum(1 for code in exits if code != 0)
        if bad:
            problems[name] = [f"{bad} {name} spawns exited non-zero"]
        attempted += len(exits)
        failed += bad

    metrics = {"setup_s": (statistics.median(setup_calibrated) * CALIBRATION_S, "s")}
    for cmd in commands:
        metrics[f"{cmd.name}_s"] = (statistics.median(cmd.calibrated) * CALIBRATION_S, "s")
    metrics["analyze_tps"] = (expected["shape"]["transitions"] / metrics["analyze_s"][0], "1/s")
    metrics["peak_rss_mib"] = (max(rss) / 1024, "MiB")
    detail = {"rounds": rounds, "ref_loop_s": ref, "calibration_s": calibration,
              "samples_s": {cmd.name: cmd.walls for cmd in commands} | {"setup": setup},
              "calibrated": {cmd.name: cmd.calibrated for cmd in commands} | {"setup": setup_calibrated},
              "raw_median_s": {cmd.name: statistics.median(cmd.walls) for cmd in commands}
              | {"setup": statistics.median(setup)},
              "attempted": attempted, "failed": failed, "problems": problems}
    return metrics, detail


def traced(seconds: float, expected: dict, commands: list[Command], work: Path) -> tuple[dict, dict, list]:
    """Each command in this process, plain and with spans: the per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import tracemalloc

    import keyfactors
    from keyfactors import analysis, cli, dsl, emit, matrix, model, rapex

    import tracing

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"keyfactors.cli does not import from {SRC}: {cli.__file__}")
    layers = {"dsl": dsl, "model": model, "matrix": matrix, "analysis": analysis, "emit": emit, "rapex": rapex}
    tracer = tracing.Tracer()

    # Inputs of the library-only probes, built untimed.
    files = expected["accepted_files"]
    parts = [dsl.parse_document(Path(f).read_text(encoding="utf-8"))[0].chains for f in files]
    chains = model.ChainSet(tuple(c for part in parts for c in part))
    half = len(parts) // 2
    halves = [matrix.build_matrix(model.ChainSet(tuple(c for part in group for c in part)))
              for group in (parts[:half], parts[half:])]
    names = [name for chain in chains for _, name in chain.steps]
    ref = []

    def run_cli(cmd: Command, k: int, with_spans: bool) -> None:
        cmd.reset_outputs(work / "trash")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if with_spans:
                with tracing.instrumented(tracer, layers, [cli, keyfactors]):
                    with tracer.span("cli.main", run=f"{cmd.name}#{k}") as span:
                        code = cli.main(list(cmd.argv))
                cmd.traced_walls.append(span[5] - span[4])
            else:
                start = time.perf_counter()
                code = cli.main(list(cmd.argv))
                cmd.walls.append(time.perf_counter() - start)
        cmd.stdout.write_text(out.getvalue(), encoding="utf-8")
        cmd.stderr.write_text(err.getvalue(), encoding="utf-8")
        cmd.record(code)

    def one_round(k: int) -> None:
        ref.append(reference_loop())
        for cmd in commands:
            for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
                run_cli(cmd, k, with_spans)
        run = f"probe#{k}"
        with tracer.span("model.normalize_name", run=run, calls=len(names)):
            for name in names:
                model.normalize_name(name)
        with tracing.instrumented(tracer, layers, []), tracer.span("probe", run=run):
            dsl.serialize_document(chains)
            matrix.merge(*halves)

    rounds = run_rounds(seconds, MIN_ROUNDS[1], one_round)
    attempted, failed, problems = judge(commands)

    tracemalloc.start()
    built = matrix.build_matrix(chains)
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    cmd_of = {cmd.name: cmd for cmd in commands}
    nonzero = len(checks.dot_edges(cmd_of["dot"].outputs[0].read_text(encoding="utf-8")))
    if built.size != expected["shape"]["factors"] or built.total() != expected["shape"]["transitions"]:
        problems["probe"] = [f"build_matrix gave {built.size} factors and {built.total()} transitions"]
        failed += 1
    attempted += 1

    by_run = tracing.self_times(tracer.spans)

    def layer(run: str, *span_names: str) -> float:
        """Median over rounds of the summed self time of these spans in one pipeline."""
        return statistics.median(sum(by_run[f"{run}#{k}"][n] for n in span_names) for k in range(rounds))

    parse_s = layer("analyze", "dsl.parse_document")
    validated = tracing.counts(tracer.spans, "validate#0", "dsl.parse_document")
    analyze_wall = statistics.median(cmd_of["analyze"].traced_walls)
    shape = expected["shape"]
    m = {
        "host.ref_loop_s": (statistics.median(ref), "s"),
        "dsl.parse_s": (parse_s, "s"),
        "dsl.parse_mb_s": (shape["accepted_bytes"] / 1e6 / parse_s, "MB/s"),
        "dsl.chains_accepted": (validated.get("chains", 0), "count"),
        "dsl.chains_excluded": (shape["chains"] - validated.get("chains", 0), "count"),
        "dsl.diagnostics": (validated.get("diagnostics", 0), "count"),
        "dsl.accept_ratio": (validated.get("chains", 0) / shape["chains"], "ratio"),
        # In the probe runs only serialize_document calls validate_chain.
        "dsl.serialize_s": (layer("probe", "dsl.serialize_document", "model.validate_chain"), "s"),
        "model.validate_s": (layer("analyze", "model.validate_chain"), "s"),
        "model.normalize_s": (layer("probe", "model.normalize_name"), "s"),
        "model.steps": (len(names), "count"),
        "matrix.build_s": (layer("analyze", "matrix.build_matrix"), "s"),
        "matrix.sums_s": (layer("analyze", "matrix.sums"), "s"),
        "matrix.merge_s": (layer("probe", "matrix.merge"), "s"),
        "matrix.build_peak_mib": (build_peak / 2**20, "MiB"),
        "matrix.factors": (built.size, "count"),
        "matrix.nonzero_cells": (nonzero, "count"),
        "matrix.transitions": (built.total(), "count"),
        "matrix.density": (nonzero / built.size**2, "ratio"),
        "analysis.analyze_s": (layer("analyze", "analysis.analyze", "analysis.competition_rank"), "s"),
        "analysis.factors_scored": (tracing.counts(tracer.spans, "analyze#0", "analysis.analyze").get("factors", 0), "count"),
        "emit.report_csv_s": (layer("analyze", "emit.export_report_csv"), "s"),
        "emit.matrix_csv_s": (layer("matrix", "emit.export_matrix_csv"), "s"),
        "emit.dot_s": (layer("dot", "emit.export_dot"), "s"),
        "emit.svg_s": (layer("plot", "emit.render_scatter_svg"), "s"),
    }
    for cmd, name in (("analyze", "report_csv"), ("matrix", "matrix_csv"), ("dot", "dot"), ("plot", "svg")):
        m[f"emit.{name}_bytes"] = (cmd_of[cmd].outputs[0].stat().st_size, "bytes")
    m |= {
        "rapex.parse_records_s": (layer("import", "rapex.parse_alert_records"), "s"),
        "rapex.import_s": (layer("import", "rapex.import_rapex"), "s"),
        "rapex.records": (tracing.counts(tracer.spans, "import#0", "rapex.parse_alert_records").get("records", 0), "count"),
        "rapex.skeletons": (tracing.counts(tracer.spans, "import#0", "rapex.import_rapex").get("skeletons", 0), "count"),
    }
    for cmd in commands:
        m[f"cli.main_s.{cmd.name}"] = (statistics.median(cmd.walls), "s")
    for cmd in commands:
        m[f"cli.self_s.{cmd.name}"] = (layer(cmd.name, "cli.main"), "s")
    m |= {
        "share.analyze.parse": (parse_s / analyze_wall, "ratio"),
        "share.analyze.front_end": (
            (parse_s + m["model.validate_s"][0] + m["matrix.build_s"][0]) / analyze_wall, "ratio"),
        "share.analyze.matrix_emit": (
            (m["matrix.build_s"][0] + m["matrix.sums_s"][0] + m["emit.report_csv_s"][0]) / analyze_wall, "ratio"),
        "trace.overhead_s": (sum(statistics.median(c.traced_walls) - statistics.median(c.walls) for c in commands), "s"),
        "trace.spans_per_round": (len(tracer.spans) / rounds, "count"),
    }
    detail = {"rounds": rounds, "ref_loop_s": ref, "attempted": attempted, "failed": failed, "problems": problems,
              "samples_s": {c.name: {"plain": c.walls, "traced": c.traced_walls} for c in commands}}
    return m, detail, tracer.spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="keyfactors CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "keyfactors" / "cli.py").is_file():
        print(f"error: no keyfactors sources at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    started = time.perf_counter()
    try:
        expected = generate(args.workload, args.seed, work, child_env())
        setup_done = time.perf_counter()
        os.chdir(work)  # commands name their inputs relative to the work directory
        commands = build_commands(expected, work)
        if args.trace:
            metrics, detail, spans = traced(args.seconds, expected, commands, work)
        else:
            metrics, detail = untraced(args.seconds, expected, commands, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail |= {"workload": args.workload, "seed": args.seed, "trace": args.trace, "shape": expected["shape"],
               "generate_s": setup_done - started, "elapsed_s": time.perf_counter() - started,
               "error_rate": detail["failed"] / detail["attempted"],
               "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with gzip.open(OUT / f"{tag}-spans.json.gz", "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "run", "name", "start", "end", "counts"], "spans": spans}, handle)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {detail['rounds']} rounds, "
          f"{detail['elapsed_s']:.1f} s in all")
    print("shape " + " ".join(f"{k}={v}" for k, v in expected["shape"].items()))
    ref = detail["ref_loop_s"]
    print(f"host reference loop: median {statistics.median(ref):.4f} s, min {min(ref):.4f}, max {max(ref):.4f}")
    if "calibration_s" in detail:
        cal = detail["calibration_s"]
        print(f"host calibration job: median {statistics.median(cal):.4f} s, min {min(cal):.4f}, max {max(cal):.4f}; "
              f"times below are calibrated to {CALIBRATION_S} s per job")
        print("raw median wall times: " + " ".join(f"{k}={v:.4f}" for k, v in detail["raw_median_s"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:28} {value:14.6g} {unit}")
    print(f"{'error_rate':28} {detail['error_rate']:14.6g} ratio ({detail['failed']} of {detail['attempted']} runs)")
    for name, found in detail["problems"].items():
        for problem in found:
            print(f"FAILED {name}: {problem}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
