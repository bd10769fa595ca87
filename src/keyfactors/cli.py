"""Command-line front end for the failure-chain analysis pipeline.

Commands::

    keyfactors validate FILE...                 check chain documents
    keyfactors matrix FILE... [-o OUT]          relationship matrix CSV
    keyfactors analyze FILE... [-o OUT]         per-factor score report CSV
    keyfactors analyze --from-sums SUMS.csv     same, from published sums
    keyfactors plot FILE... | --from-sums ...   active-passive scatter SVG
    keyfactors dot FILE... [-o OUT]             failure network in DOT
    keyfactors import-rapex ALERTS.json -d DIR  skeleton .chains files

Exit codes: 0 success, 1 validation/content error, 2 IO/format error. A
standard output closed early (``keyfactors matrix ... | head``) ends the
run quietly with exit 2. Without -o, output goes to standard output;
file writes are atomic (temp file plus rename), so rerunning with
unchanged inputs rewrites identical bytes. A rewritten file keeps its
permission bits; a new one gets the mode open() would give it.

Each handler imports the layers it runs, so `validate` and `import-rapex`
never load the matrix, analysis or emit layers, and `matrix` and `dot`
never load analysis; only `import-rapex` loads pathlib.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import operator
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterable, TextIO

from keyfactors.model import DEFAULT_FIELDS, ChainSet, Factor, FactorCategory, normalize_name

if TYPE_CHECKING:
    from decimal import Decimal

    from keyfactors.analysis import AnalysisConfig, FactorScore
    from keyfactors.matrix import SumsTable

SUMS_COLUMNS = ["id", "category", "name", "active_sum", "passive_sum"]

# Lines per write of a diagnostics stream: few system calls, while only one
# chunk of a long stream is held as text at a time.
_LINES_PER_WRITE = 1000
# Characters per write of an output text, so that TextIOWrapper never
# encodes a whole multi-megabyte output into one bytes object.
_CHARS_PER_WRITE = 1 << 18


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. With stdout on devnull, the flush at
        # shutdown cannot fail again (Python docs, signal module, SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyfactors",
        description="Scenario-based failure analysis from failure chain documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check chain documents and print diagnostics")
    p_validate.add_argument("files", nargs="*", metavar="FILE")
    _add_strict(p_validate)
    p_validate.set_defaults(handler=_cmd_validate, parser=p_validate)

    p_matrix = sub.add_parser("matrix", help="write the relationship matrix CSV")
    p_matrix.add_argument("files", nargs="*", metavar="FILE")
    _add_strict(p_matrix)
    _add_output(p_matrix)
    p_matrix.set_defaults(handler=_cmd_matrix, parser=p_matrix)

    p_analyze = sub.add_parser("analyze", help="write the per-factor score report CSV")
    p_analyze.add_argument("files", nargs="*", metavar="FILE")
    p_analyze.add_argument("--from-sums", metavar="CSV", help="read precomputed sums instead of chains")
    _add_strict(p_analyze)
    _add_output(p_analyze)
    _add_analysis_overrides(p_analyze)
    p_analyze.set_defaults(handler=_cmd_analyze, parser=p_analyze)

    p_plot = sub.add_parser("plot", help="write the active-passive scatter SVG")
    p_plot.add_argument("files", nargs="*", metavar="FILE")
    p_plot.add_argument("--from-sums", metavar="CSV", help="read precomputed sums instead of chains")
    _add_strict(p_plot)
    _add_output(p_plot)
    _add_analysis_overrides(p_plot)
    p_plot.set_defaults(handler=_cmd_plot, parser=p_plot)

    p_dot = sub.add_parser("dot", help="write the failure network as a DOT graph")
    p_dot.add_argument("files", nargs="*", metavar="FILE")
    _add_strict(p_dot)
    _add_output(p_dot)
    p_dot.set_defaults(handler=_cmd_dot, parser=p_dot)

    p_import = sub.add_parser("import-rapex", help="turn alert records into skeleton chain files")
    p_import.add_argument("alerts", metavar="ALERTS_JSON")
    p_import.add_argument("-d", "--out-dir", required=True, metavar="DIR")
    _add_strict(p_import)
    for key, default in DEFAULT_FIELDS.items():
        p_import.add_argument(
            f"--field-{key}",
            dest=f"field_{key}",
            default=default,
            metavar="NAME",
            help=f"record field holding the {key} (default: {default})",
        )
    p_import.set_defaults(handler=_cmd_import_rapex, parser=p_import)

    return parser


def _add_strict(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strict", action="store_true", help="treat warnings as errors")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-o", "--output", metavar="OUT", help="output file (default: stdout)")


def _add_analysis_overrides(parser: argparse.ArgumentParser) -> None:
    # No defaults here: an option left out takes AnalysisConfig's.
    parser.add_argument("--dominant-ratio", type=_number, metavar="R")
    parser.add_argument("--reactive-ratio", type=_number, metavar="R")
    parser.add_argument("--key-threshold", type=_number, metavar="T")


def _number(text: str) -> Decimal:
    """A threshold exactly as written: 0.1 stays one tenth, where a float would not.

    A signaling NaN and a nonzero magnitude beyond a float's range are
    refused: 1e-999999999 would take gigabytes as an exact ratio.
    """
    from decimal import Decimal, InvalidOperation

    try:
        value = Decimal(text)
    except InvalidOperation:
        value = None
    if value is None or value.is_snan() or (value and abs(value.adjusted()) > 308):
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}")
    return value


def _cmd_validate(args: argparse.Namespace) -> int:
    return 1 if _load_chains(args) is None else 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from keyfactors.emit import export_matrix_csv
    from keyfactors.matrix import build_matrix

    chains = _load_chains(args)
    if chains is None:
        return 1
    _write_output(export_matrix_csv(build_matrix(chains)), args.output)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from keyfactors.emit import export_report_csv

    return _write_scores(args, lambda scores, _: export_report_csv(scores))


def _cmd_plot(args: argparse.Namespace) -> int:
    from keyfactors.emit import render_scatter_svg

    return _write_scores(args, render_scatter_svg)


def _cmd_dot(args: argparse.Namespace) -> int:
    from keyfactors.emit import export_dot
    from keyfactors.matrix import build_matrix

    chains = _load_chains(args)
    if chains is None:
        return 1
    _write_output(export_dot(build_matrix(chains)), args.output)
    return 0


def _cmd_import_rapex(args: argparse.Namespace) -> int:
    from pathlib import Path

    from keyfactors.rapex import MalformedRecordError, import_rapex, parse_alert_records

    text = _read_text(args.alerts)
    fields = {key: getattr(args, f"field_{key}") for key in DEFAULT_FIELDS}
    try:
        records = parse_alert_records(text, fields)
    except MalformedRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from None
    files, warnings = import_rapex(records)
    _write_lines(f"{args.alerts}:record {w.line}: warning: {w.message}\n" for w in warnings)
    if args.strict and warnings:
        return 1
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, document in files:
        path = str(out_dir / name)
        _write_atomic(path, document)
        print(path)
    return 0


def _write_scores(args: argparse.Namespace, render: Callable[[tuple[FactorScore, ...], AnalysisConfig], str]) -> int:
    """Score the chain files or the sums table, then write what render makes of the scores."""
    from keyfactors.analysis import AnalysisConfig, analyze

    try:
        cfg = AnalysisConfig(
            **{name: value for name in AnalysisConfig._fields if (value := getattr(args, name)) is not None}
        )
    except ValueError as exc:
        raise _InputError(f"error: {exc}") from None
    if args.from_sums and args.files:
        return _usage_error(args, "--from-sums cannot be combined with chain files", code=2)
    if args.from_sums:
        data, warnings = _read_sums_csv(args.from_sums)
        if data.total_active() != data.total_passive():
            warnings.append(
                f"{args.from_sums}: warning: total active sum {data.total_active()} "
                f"!= total passive sum {data.total_passive()}"
            )
        _write_lines(f"{warning}\n" for warning in warnings)
        if args.strict and warnings:
            return 1
    else:
        data = _load_chains(args)
        if data is None:
            return 1
    _write_output(render(analyze(data, cfg), cfg), args.output)
    return 0


def _load_chains(args: argparse.Namespace) -> ChainSet | None:
    """Parse every input file into one combined chain set.

    Prints diagnostics as they are found; returns None when any error
    (or, under --strict, any warning) occurred. A file given twice, by
    the same or another path, is read and counted twice, with a warning.
    """
    from keyfactors.dsl import Severity, parse_document

    if not args.files:
        _usage_error(args, "at least one chain file is required")
        return None
    failed = False
    combined: list = []
    first_paths: dict[tuple[int, int], str] = {}
    for path in args.files:
        text = _read_text(path)
        stat = os.stat(path)
        identity = (stat.st_dev, stat.st_ino)
        if identity in first_paths:
            print(f"{path}: warning: same file as {first_paths[identity]}; its chains count again", file=sys.stderr)
            failed |= args.strict
        else:
            first_paths[identity] = path
        chain_set, diagnostics = parse_document(text)
        _write_lines(f"{path}:{d.line}:{d.column}: {d.severity.value}: {d.message}\n" for d in diagnostics)
        if any(d.severity is Severity.ERROR for d in diagnostics):
            failed = True
        elif args.strict and diagnostics:
            failed = True
        combined.extend(chain_set)
    if failed:
        return None
    return ChainSet(combined)


def _write_lines(lines: Iterable[str]) -> None:
    """Write newline-terminated lines to stderr, _LINES_PER_WRITE at a time.

    stderr flushes at every newline, so print() costs a system call per
    line (two when unbuffered); joining every line at once would hold the
    whole stream in memory.
    """
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, _LINES_PER_WRITE)):
        sys.stderr.write(chunk)


def _usage_error(args: argparse.Namespace, message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(args.parser.format_usage(), end="", file=sys.stderr)
    return code


class _InputError(Exception):
    """An input file or option value the program cannot use: exit 2 after the message line."""


def _read_text(path: str) -> str:
    # utf-8-sig drops the byte order mark that spreadsheet exports write.
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except UnicodeDecodeError:
        # The decoder counts positions from the start of its chunk, so the
        # whole file is decoded once more to find the first bad byte.
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines as text mode reads them (universal newlines), columns in characters.
            text = data[: exc.start].decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
            line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
            raise _InputError(f"{path}:{line}:{column}: error: not UTF-8 (byte 0x{data[exc.start]:02X})") from None
        raise


def _read_sums_csv(path: str) -> tuple[SumsTable, list[str]]:
    """Load a published sums table (id, category, name, active_sum, passive_sum).

    Returns the table and its warnings: a row of empty cells, such as the
    ``,,,,`` a spreadsheet writes below its data, is skipped with one. A
    header that names one of the five columns twice is refused.
    """
    from keyfactors.matrix import SumsTable

    reader = csv.reader(io.StringIO(_read_text(path)))
    header = [cell.strip() for cell in next(filter(None, reader), [])]
    missing = [c for c in SUMS_COLUMNS if c not in header]
    if missing:
        hint = ""
        if set(SUMS_COLUMNS) <= set(",".join(header).split(";")):
            hint = " (the file looks semicolon-delimited; sums tables must be comma-separated)"
        raise _InputError(f"error: {path}: missing columns: {', '.join(missing)}{hint}")
    for column in SUMS_COLUMNS:
        if header.count(column) > 1:
            raise _InputError(f"error: {path}: line {reader.line_num}: column {column!r} appears twice")
    pick = operator.itemgetter(*map(header.index, SUMS_COLUMNS))
    warnings: list[str] = []
    factors: list[Factor] = []
    active: list[int] = []
    passive: list[int] = []
    seen_ids: set[int] = set()
    seen_identities: set[tuple[FactorCategory, str]] = set()
    for cells in reader:
        where = f"{path}: line {reader.line_num}"
        if not any(map(str.strip, cells)):
            if cells:
                warnings.append(f"{where}: warning: empty row skipped")
            continue
        if len(cells) != len(header):
            raise _InputError(f"error: {where}: {len(cells)} cells, but the header has {len(header)}")
        id_text, category_text, name, active_text, passive_text = pick(cells)
        factor_id, active_sum, passive_sum = (
            _whole_number(where, column, text)
            for column, text in (("id", id_text), ("active_sum", active_text), ("passive_sum", passive_text))
        )
        if factor_id == 0:
            raise _InputError(f"error: {where}: id must be positive")
        try:
            category = FactorCategory.parse(category_text)
            key = normalize_name(name)
        except ValueError as exc:
            raise _InputError(f"error: {where}: {exc}") from None
        if factor_id in seen_ids:
            raise _InputError(f"error: {where}: duplicate id {factor_id}")
        if (category, key) in seen_identities:
            raise _InputError(f"error: {where}: duplicate factor {name!r}")
        seen_ids.add(factor_id)
        seen_identities.add((category, key))
        factors.append(Factor(category, name.strip(), key, factor_id))
        active.append(active_sum)
        passive.append(passive_sum)
    return SumsTable(tuple(factors), tuple(active), tuple(passive)), warnings


def _whole_number(where: str, column: str, text: str) -> int:
    """A cell in ASCII digits, blanks around it stripped; int() alone would take 1_2 or other scripts' digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise _InputError(f"error: {where}: {column} {text!r} is not a whole number")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise _InputError(f"error: {where}: {column} has {len(text)} digits, too many to read") from None


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        _write_text(sys.stdout, text)
    else:
        _write_atomic(output, text)


def _write_text(handle: TextIO, text: str) -> None:
    for start in range(0, len(text), _CHARS_PER_WRITE):
        handle.write(text[start : start + _CHARS_PER_WRITE])


def _write_atomic(path: str, text: str) -> None:
    # O_EXCL on a random name follows no symlink and reuses no file; the
    # kernel applies the umask (or a default ACL) to 0o666, as open() does.
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            with contextlib.suppress(FileNotFoundError):  # a replaced file keeps its bits
                os.fchmod(fd, os.stat(path).st_mode & 0o777)
            _write_text(handle, text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
