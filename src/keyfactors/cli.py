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
run quietly with exit 2. Without -o, output goes to standard output,
as UTF-8 whatever its encoding; -o is opened before any input is read.
File writes are atomic (temp file plus rename), so rerunning with
unchanged inputs rewrites identical bytes. A rewritten file keeps its
permission bits; a new one gets the mode open() would give it. A FIFO or
device named by -o is written in place, not replaced. A failed
write names the -o path, not the temp file.

Each handler runs straight through (read, compute, render, write) and
returns nothing; a command that cannot go on raises _Exit(code, message).
Only main turns that into an exit code, after printing the message.

Each handler imports the layers it runs, so `validate` and `import-rapex`
never load the matrix, analysis or emit layers, `matrix` and `dot` never
load analysis, and `import-rapex` never loads the chain parser (dsl); only
`import-rapex` loads json, none loads pathlib, and only a threshold option
(read exactly, as a Decimal) loads decimal. Each reader has its own module
(dsl.parse_document, sums_table.parse_sums_table,
rapex.parse_alert_records) and this module reads files and reports what
they say, so csv is loaded only with sums_table, by --from-sums.

A command is a short run that leaves few garbage cycles, and the cyclic
garbage collector's walks over every live object, during the run and at
interpreter exit, took about a tenth of it. So main turns the collector
off while it runs, restoring the state it found on every way out, and
registers gc.freeze, once per process, to run at exit: the final
collections then skip the objects still alive. Reference counting still
frees most of them as the modules are torn down; those in cycles are left
to the end of the process, which Python allows for objects alive at exit.
An in-process caller of main gets that freeze at its own exit too.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import functools
import gc
import itertools
import os
import stat
import sys
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

from keyfactors.model import DEFAULT_FIELDS, ChainSet

if TYPE_CHECKING:
    from decimal import Decimal

    from keyfactors.analysis import AnalysisConfig, FactorScore
    from keyfactors.matrix import SumsTable

# Lines per write of a diagnostics stream: few system calls, while only one
# chunk of a long stream is held as text at a time.
_LINES_PER_WRITE = 1000
# Characters per write of an output text, so that a multi-megabyte output is
# never encoded into one bytes object.
_CHARS_PER_WRITE = 1 << 18
# Each threshold option and its metavar.
_THRESHOLDS = {"--dominant-ratio": "R", "--reactive-ratio": "R", "--key-threshold": "T"}


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


@functools.cache
def _freeze_at_exit() -> None:
    # Once per process, not unregister-then-register per call: atexit.unregister
    # leaves an empty slot behind, which every later register and unregister keeps.
    atexit.register(gc.freeze)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_thresholds(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone. With stdout on devnull, the flush at
        # shutdown cannot fail again (Python docs, signal module, SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except _Exit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyfactors",
        description="Scenario-based failure analysis from failure chain documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler, writes, scores in (
        ("validate", "check chain documents and print diagnostics", _cmd_validate, False, False),
        ("matrix", "write the relationship matrix CSV", _cmd_matrix, True, False),
        ("analyze", "write the per-factor score report CSV", _cmd_analyze, True, True),
        ("plot", "write the active-passive scatter SVG", _cmd_plot, True, True),
        ("dot", "write the failure network as a DOT graph", _cmd_dot, True, False),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("files", nargs="*", metavar="FILE")
        if scores:
            command.add_argument("--from-sums", metavar="CSV", help="read precomputed sums instead of chains")
        command.add_argument("--strict", action="store_true", help="treat warnings as errors")
        if writes:
            command.add_argument("-o", "--output", metavar="OUT", help="output file (default: stdout)")
        if scores:
            # No defaults here: an option left out takes AnalysisConfig's.
            for option, metavar in _THRESHOLDS.items():
                command.add_argument(option, type=_number, metavar=metavar)
        command.set_defaults(handler=handler, parser=command)

    p_import = sub.add_parser("import-rapex", help="turn alert records into skeleton chain files")
    p_import.add_argument("alerts", metavar="ALERTS_JSON")
    p_import.add_argument("-d", "--out-dir", required=True, metavar="DIR")
    p_import.add_argument("--strict", action="store_true", help="treat warnings as errors")
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


def _join_thresholds(argv: list[str]) -> list[str]:
    """argv with each threshold option, or its abbreviation, joined to the next token as OPTION=VALUE, up to any "--".

    argparse reads a separate -1e-3 as an option, by a private rule that differs between Python versions.
    """
    tokens, joined = iter(argv), []
    for token in tokens:
        if token == "--":
            return [*joined, token, *tokens]
        if len(token) > 2 and any(option.startswith(token) for option in _THRESHOLDS):
            token = "=".join([token, *itertools.islice(tokens, 1)])  # unchanged as the last token
        joined.append(token)
    return joined


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


def _cmd_validate(args: argparse.Namespace) -> None:
    _load_chains(args)


def _cmd_matrix(args: argparse.Namespace) -> None:
    from keyfactors.emit import export_matrix_csv
    from keyfactors.matrix import build_matrix

    with _output(args.output) as write:
        write(export_matrix_csv(build_matrix(_load_chains(args))))


def _cmd_analyze(args: argparse.Namespace) -> None:
    from keyfactors.emit import export_report_csv

    with _output(args.output) as write:
        write(export_report_csv(_scores(args)[0]))


def _cmd_plot(args: argparse.Namespace) -> None:
    from keyfactors.emit import render_scatter_svg

    with _output(args.output) as write:
        write(render_scatter_svg(*_scores(args)))


def _cmd_dot(args: argparse.Namespace) -> None:
    from keyfactors.emit import export_dot
    from keyfactors.matrix import build_matrix

    with _output(args.output) as write:
        write(export_dot(build_matrix(_load_chains(args))))


def _cmd_import_rapex(args: argparse.Namespace) -> None:
    from keyfactors.rapex import MalformedRecordError, import_rapex, parse_alert_records

    with contextlib.suppress(FileNotFoundError):  # -d is checked before the records are read, made after
        if not stat.S_ISDIR(os.stat(args.out_dir).st_mode):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out_dir)
    text = _read_text(args.alerts)
    fields = {key: getattr(args, f"field_{key}") for key in DEFAULT_FIELDS}
    try:
        records = parse_alert_records(text, fields)
    except ValueError as exc:
        raise _Exit(1 if isinstance(exc, MalformedRecordError) else 2, f"error: {exc}") from None
    files, warnings = import_rapex(records)
    _write_lines(f"{args.alerts}:record {w.line}: warning: {w.message}\n" for w in warnings)
    if args.strict and warnings:
        raise _Exit(1)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, document in files:
        path = os.path.join(args.out_dir, name)
        with _output(path) as write:
            write(document)
        print(path)


def _scores(args: argparse.Namespace) -> tuple[tuple[FactorScore, ...], AnalysisConfig]:
    """Score the chain files or the sums table; the scores and the thresholds they were scored with."""
    from keyfactors.analysis import AnalysisConfig, analyze

    try:
        cfg = AnalysisConfig(
            **{name: value for name in AnalysisConfig._fields if (value := getattr(args, name)) is not None}
        )
    except ValueError as exc:
        raise _Exit(2, f"error: {exc}") from None
    if args.from_sums and args.files:
        raise _usage_error(args, "--from-sums cannot be combined with chain files", code=2)
    return analyze(_read_sums(args) if args.from_sums else _load_chains(args), cfg), cfg


def _load_chains(args: argparse.Namespace) -> ChainSet:
    """Parse every input file into one combined chain set.

    Prints diagnostics as they are found; raises _Exit(1) when any error
    (or, under --strict, any warning) occurred. A file given twice, by
    the same or another path, is read and counted twice, with a warning.
    """
    from keyfactors.dsl import Severity, parse_document

    if not args.files:
        raise _usage_error(args, "at least one chain file is required")
    failed = False
    combined: list = []
    first_paths: dict[tuple[int, int], str] = {}
    for path in args.files:
        text = _read_text(path)
        info = os.stat(path)
        identity = (info.st_dev, info.st_ino)
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
        raise _Exit(1)
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


def _usage_error(args: argparse.Namespace, message: str, code: int = 1) -> _Exit:
    return _Exit(code, f"error: {message}\n{args.parser.format_usage()}".removesuffix("\n"))


class _Exit(Exception):
    """Ends a command with an exit code; main prints the message, if any, on stderr first."""

    def __init__(self, code: int, message: str = "") -> None:
        self.code, self.message = code, message


def _read_text(path: str, newline: str | None = None) -> str:
    # utf-8-sig drops the byte order mark that spreadsheet exports write.
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError:
        # The decoder counts positions from the start of its chunk, so the
        # whole file is decoded once more to find the first bad byte.
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines end at LF, CR or CRLF, as text mode reads them; columns count characters.
            text = data[: exc.start].decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
            line, column = text.count("\n") + 1, len(text) - text.rfind("\n")
            raise _Exit(2, f"{path}:{line}:{column}: error: not UTF-8 (byte 0x{data[exc.start]:02X})") from None
        raise


def _read_sums(args: argparse.Namespace) -> SumsTable:
    """Load the sums table that --from-sums names and print its warnings, which --strict refuses with _Exit(1)."""
    from keyfactors.sums_table import parse_sums_table

    path = args.from_sums
    text = _read_text(path, newline="")  # as written: a CR in a quoted name stays a CR
    try:
        table, warnings = parse_sums_table(text)
    except ValueError as exc:
        raise _Exit(2, f"error: {path}: {exc}") from None
    _write_lines(f"{path}: {warning}\n" for warning in warnings)
    if args.strict and warnings:
        raise _Exit(1)
    return table


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[Callable[[str], None]]:
    """Open an output before the work; yields write(text), which writes the text there as UTF-8.

    The output is stdout, whatever its encoding, or a new temp file beside
    path that write renames over path; the temp file goes if the block
    ends otherwise. A FIFO or device at path is written in place, not
    replaced, and a directory is refused at once. Errors name path.
    """
    if path is None:
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)  # a text-only stream (io.StringIO, say) takes the text
        yield sys.stdout.write if buffer is None else functools.partial(_write_text, buffer)
        return
    with _named(path):
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is None or stat.S_ISREG(mode):
            # O_EXCL on a random name follows no symlink and reuses no file; the
            # kernel applies the umask (or a default ACL) to 0o666, as open() does.
            tmp = f"{path}.{os.urandom(6).hex()}.tmp"
            handle = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        else:  # a FIFO or device, which a rename would replace; a directory fails to open
            tmp = None
            handle = open(path, "wb")
    try:
        if tmp is not None and mode is not None:  # a replaced file keeps its bits
            with _named(path):
                os.fchmod(handle.fileno(), mode & 0o777)

        def write(text: str) -> None:
            with _named(path):
                with handle:
                    _write_text(handle, text)
                if tmp is not None:
                    os.replace(tmp, path)

        yield write
    finally:
        handle.close()
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


@contextlib.contextmanager
def _named(path: str) -> Iterator[None]:
    """Report an OSError under path, the output asked for, not the temp file beside it."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_text(handle: BinaryIO, text: str) -> None:
    for start in range(0, len(text), _CHARS_PER_WRITE):
        handle.write(text[start : start + _CHARS_PER_WRITE].encode("utf-8"))


if __name__ == "__main__":
    sys.exit(main())
