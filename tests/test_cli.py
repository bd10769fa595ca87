import argparse
import collections
import csv
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from keyfactors import cli
from keyfactors.analysis import analyze
from keyfactors.cli import main
from keyfactors.emit import export_report_csv
from keyfactors.sums_table import parse_sums_table

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
CHAIN_FILES = [str(DATA / "chains" / name) for name in ("burn.chains", "shock.chains", "poisoning.chains")]

BAD_HARM_DOC = 'alert: a\ncase: c\ncomponent "plug"\nharm "burn"\naction "user pulls"\n'


class WriteLog(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


class ByteWriteLog(io.BytesIO):
    """A byte stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(len(data))
        return super().write(data)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_validate_ok_is_quiet(capsys):
    assert main(["validate", *CHAIN_FILES]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_validate_harm_not_terminal_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.chains", BAD_HARM_DOC)
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    error_lines = [line for line in captured.err.splitlines() if ": error:" in line]
    assert len(error_lines) == 1
    assert "HarmNotTerminal" in error_lines[0]
    assert error_lines[0].startswith(f"{path}:4:")


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.chains")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_strict_turns_warnings_into_failures(tmp_path, capsys):
    path = write(tmp_path, "warn.chains", "---\n" + (DATA / "chains" / "burn.chains").read_text())
    assert main(["validate", path]) == 0
    assert main(["validate", "--strict", path]) == 1
    assert "warning" in capsys.readouterr().err


def test_matrix_single_chain_file(tmp_path, capsys):
    out = tmp_path / "matrix.csv"
    assert main(["matrix", str(DATA / "chains" / "burn.chains"), "-o", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    n = len(rows[0]) - 3
    assert n == 6
    transitions = sum(int(cell or 0) for row in rows[1 : 1 + n] for cell in row[1 : 1 + n])
    assert transitions == 5


def test_matrix_three_step_chain_yields_two_transitions(tmp_path):
    path = write(tmp_path, "one.chains", 'alert: a\ncase: c\ncomponent "A"\neffect "B"\nharm "H"\n')
    out = tmp_path / "m.csv"
    assert main(["matrix", path, "-o", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    n = len(rows[0]) - 3
    transitions = sum(int(cell or 0) for row in rows[1 : 1 + n] for cell in row[1 : 1 + n])
    assert transitions == 2


def test_matrix_empty_input_list_exits_one_with_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage to the terminal's width
    assert main(["matrix"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: at least one chain file is required\n"
        "usage: keyfactors matrix [-h] [--strict] [-o OUT] [FILE ...]\n",
    )


def test_matrix_writes_to_stdout_without_output_flag(capsys):
    assert main(["matrix", str(DATA / "chains" / "burn.chains")]) == 0
    assert capsys.readouterr().out.startswith(",component:hair dryer,")


def test_matrix_rejects_invalid_chains(tmp_path, capsys):
    path = write(tmp_path, "bad.chains", BAD_HARM_DOC)
    assert main(["matrix", path, "-o", str(tmp_path / "m.csv")]) == 1
    assert not (tmp_path / "m.csv").exists()


def test_analyze_from_sums_reproduces_case_study_row(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["analyze", "--from-sums", str(DATA / "table1_as_printed.csv"), "-o", str(out)]) == 0
    rows = {row["id"]: row for row in csv.DictReader(io.StringIO(out.read_text(encoding="utf-8")))}
    assert len(rows) == 46
    row12 = rows["12"]
    assert [row12[k] for k in ("active_sum", "active_norm", "active_rank")] == ["14", "60.9", "4"]
    assert [row12[k] for k in ("passive_sum", "passive_norm", "passive_rank")] == ["9", "37.5", "12"]
    assert rows["46"]["key"] == "true"
    assert rows["46"]["region"] == "reactive"


def test_analyze_key_threshold_override(tmp_path):
    out = tmp_path / "report.csv"
    assert main([
        "analyze", "--from-sums", str(DATA / "table1_as_printed.csv"),
        "--key-threshold", "200", "-o", str(out),
    ]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert all(row["key"] == "false" for row in rows)


ANALYZE_USAGE = (
    "usage: keyfactors analyze [-h] [--from-sums CSV] [--strict] [-o OUT]\n"
    "                          [--dominant-ratio R] [--reactive-ratio R]\n"
    "                          [--key-threshold T]\n"
    "                          [FILE ...]\n"
)


def test_analyze_rejects_sums_plus_chain_files(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(["analyze", "--from-sums", str(DATA / "table1_as_printed.csv"), CHAIN_FILES[0]])
    assert code == 2
    assert capsys.readouterr() == ("", "error: --from-sums cannot be combined with chain files\n" + ANALYZE_USAGE)


def test_analyze_rejects_bad_ratio_combination(capsys):
    code = main([
        "analyze", "--from-sums", str(DATA / "table1_as_printed.csv"),
        "--dominant-ratio", "0.4",
    ])
    assert code == 2
    assert "reactive_ratio" in capsys.readouterr().err


def test_analyze_rejects_non_finite_ratios(capsys):
    for value in ("nan", "inf"):
        code = main([
            "analyze", "--from-sums", str(DATA / "table1_rank_consistent.csv"),
            "--dominant-ratio", value,
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err


def test_analyze_reads_ratios_exactly_as_written(tmp_path, capsys):
    # Factor 1's normalized ratio is (1/1) / (10/27) = 2.7 exactly; the float
    # 2.7 lies above it and the float quotient of the norms below it.
    sums_path = write(
        tmp_path, "sums.csv", "id,category,name,active_sum,passive_sum\n1,component,a,1,10\n2,harm,h,0,27\n"
    )
    assert main(["analyze", "--from-sums", sums_path, "--dominant-ratio", "2.7"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["region"] == "dominant"


def test_analyze_rejects_unreadable_and_out_of_range_numbers(capsys):
    sums_path = str(DATA / "table1_rank_consistent.csv")
    for value in ("abc", "1e-999999999", "1e400", "sNaN", "-sNaN"):
        # A value that starts with "-" is the option's, given with "=" or as the next argument.
        for option in ([f"--key-threshold={value}"], ["--key-threshold", value]):
            code = main(["analyze", "--from-sums", sums_path, *option])
            assert code == 2
            assert f"invalid number: '{value}'" in capsys.readouterr().err
    # A negative ratio with an exponent reaches the range check in every form.
    for option in (["--dominant-ratio", "-1e-3"], ["--dominant-ratio=-1e-3"], ["--dom", "-1e-3"]):
        assert main(["analyze", "--from-sums", sums_path, *option]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: ratios must be positive"
    # An option with no token after it, or a name after "--", is left to argparse.
    assert main(["analyze", "--from-sums", sums_path, "--key-threshold"]) == 2
    assert "argument --key-threshold: expected one argument" in capsys.readouterr().err
    assert main(["analyze", "--", "--key-threshold", "-1"]) == 2
    assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: '--key-threshold'\n"


def test_analyze_reads_a_zero_of_any_exponent_as_zero(capsys):
    reports = []
    for value in ("0", "0e-999999"):
        code = main([
            "analyze", "--from-sums", str(DATA / "table1_rank_consistent.csv"),
            "--key-threshold", value,
        ])
        assert code == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_analyze_from_sums_warns_when_totals_do_not_conserve(tmp_path, capsys):
    sums_path = str(DATA / "table1_as_printed.csv")
    out = tmp_path / "report.csv"
    assert main(["analyze", "--from-sums", sums_path, "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "278" in err and "275" in err
    assert main(["analyze", "--strict", "--from-sums", sums_path, "-o", str(tmp_path / "strict.csv")]) == 1
    assert not (tmp_path / "strict.csv").exists()


def test_analyze_from_sums_warns_of_a_harm_with_an_active_sum(tmp_path, capsys):
    # Chains end at a harm, so no table made from chains gives a harm an active sum.
    sums_path = write(
        tmp_path, "sums.csv", "id,category,name,active_sum,passive_sum\n1,harm,a,3,0\n2,component,b,0,3\n"
    )
    warning = f"{sums_path}: line 2: warning: harm 'a' has active sum 3; a harm ends every chain\n"
    assert main(["analyze", "--from-sums", sums_path, "-o", str(tmp_path / "report.csv")]) == 0
    assert capsys.readouterr().err == warning
    assert main(["analyze", "--strict", "--from-sums", sums_path, "-o", str(tmp_path / "strict.csv")]) == 1
    assert capsys.readouterr().err == warning
    assert not (tmp_path / "strict.csv").exists()


def test_analyze_reads_chain_file_with_byte_order_mark(tmp_path, capsys):
    text = Path(CHAIN_FILES[0]).read_text(encoding="utf-8")
    bom_path = write(tmp_path, "bom.chains", "\ufeff" + text)
    assert main(["analyze", CHAIN_FILES[0]]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", bom_path]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (plain, "")


def test_analyze_reads_sums_csv_with_byte_order_mark(tmp_path, capsys):
    sums_path = DATA / "table1_rank_consistent.csv"
    bom_path = write(tmp_path, "bom.csv", "\ufeff" + sums_path.read_text(encoding="utf-8"))
    assert main(["analyze", "--from-sums", str(sums_path)]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", "--from-sums", bom_path]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (plain, "")


def report_from_sums(tmp_path, capsys, data):
    """The report --from-sums prints for a table of these bytes, and the one of the same file read with newline=""."""
    path = tmp_path / "sums.csv"
    path.write_bytes(data)
    assert main(["analyze", "--from-sums", str(path)]) == 0
    with open(path, encoding="utf-8", newline="") as handle:
        table, _ = parse_sums_table(handle.read())
    return capsys.readouterr().out, export_report_csv(analyze(table))


@pytest.mark.parametrize(("terminator", "name"), [("\n", "a\rb"), ("\r\n", "a\r\nb"), ("\n", "a\r\nb")])
def test_a_quoted_sums_name_keeps_its_cr(tmp_path, capsys, terminator, name):
    rows = ["id,category,name,active_sum,passive_sum", f'1,component,"{name}",1,0', "2,harm,h,0,1", ""]
    printed, expected = report_from_sums(tmp_path, capsys, terminator.join(rows).encode())
    assert printed == expected
    assert f'\n1,component,"{name}",1,' in printed


def test_a_cr_only_sums_table_reads_as_its_lf_copy(tmp_path, capsys):
    # Spreadsheets on classic Mac end each row with a lone CR.
    lf = (DATA / "table1_as_printed.csv").read_bytes()
    assert b"\r" not in lf
    cr_only = report_from_sums(tmp_path, capsys, lf.replace(b"\n", b"\r"))
    assert cr_only == report_from_sums(tmp_path, capsys, lf)
    assert cr_only[0] == cr_only[1]


def test_output_file_mode_follows_umask(tmp_path):
    # Each new file follows the umask in force at its own write, within one process.
    previous = os.umask(0o022)
    try:
        assert main(["matrix", CHAIN_FILES[0], "-o", str(tmp_path / "m.csv")]) == 0
        os.umask(0o077)
        assert main(["matrix", CHAIN_FILES[0], "-o", str(tmp_path / "private.csv")]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "m.csv").stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "private.csv").stat().st_mode) == 0o600


def test_rewritten_output_file_keeps_its_permissions(tmp_path):
    previous = os.umask(0o022)
    try:
        out = tmp_path / "report.csv"
        assert main(["analyze", CHAIN_FILES[0], "-o", str(out)]) == 0
        out.chmod(0o600)
        assert main(["analyze", CHAIN_FILES[0], "-o", str(out)]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


def test_new_and_rewritten_output_files_make_no_umask_call(tmp_path, monkeypatch):
    def no_umask(mask):
        raise AssertionError("os.umask called")

    previous = os.umask(0o022)
    monkeypatch.setattr(os, "umask", no_umask)
    try:
        out = tmp_path / "m.csv"
        for _ in range(2):  # a new file, then the same file rewritten
            assert main(["matrix", CHAIN_FILES[0], "-o", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
    finally:
        monkeypatch.undo()
        os.umask(previous)
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_output_into_a_missing_directory_exits_two_and_writes_nothing(tmp_path, capsys):
    # The error names the output as given, not the temp file beside it.
    for output in (str(tmp_path / "newdir") + "/", str(tmp_path / "missing" / "m.csv")):
        assert main(["matrix", CHAIN_FILES[0], "-o", output]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{output}'\n"
        assert list(tmp_path.iterdir()) == []
    # An existing directory is refused before any input is read, and no temp file is made.
    directory = tmp_path / "d"
    directory.mkdir()
    assert main(["matrix", CHAIN_FILES[0], "-o", str(directory)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and list(directory.iterdir()) == []


def test_an_output_fifo_is_written_in_place(tmp_path, capsys):
    # A rename would put a regular file where the FIFO was, and its reader would get nothing.
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that the writer's open does not block
    try:
        assert main(["matrix", *CHAIN_FILES]) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        assert len(expected) < 1 << 16  # the whole output fits in the pipe, so the write does not block
        assert main(["matrix", *CHAIN_FILES, "-o", fifo]) == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.read(reader, 1 << 16) == expected
    finally:
        os.close(reader)
    assert os.listdir(tmp_path) == ["fifo"]


def test_a_bad_output_is_reported_before_any_input_is_read(tmp_path, capsys):
    # The input is not UTF-8, yet only the output's error is printed.
    path = tmp_path / "cp1252.chains"
    path.write_bytes('alert: a\ncase: c\ncomponent "Gerät"\nharm "burn"\n'.encode("cp1252"))
    directory = tmp_path / "d"
    directory.mkdir()
    missing = tmp_path / "missing" / "out"
    for command in ("matrix", "analyze", "plot", "dot"):
        assert main([command, str(path), "-o", str(directory)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{directory}'\n")
        assert main([command, str(path), "-o", str(missing)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{missing}'\n")
    # import-rapex checks -d, without making it, before it reads the records.
    alerts = write(tmp_path, "alerts.json", "{not json")
    assert main(["import-rapex", alerts, "-d", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{path}'\n")
    assert main(["import-rapex", alerts, "-d", str(path / "sub")]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 20] Not a directory: '{path / 'sub'}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alerts.json", "cp1252.chains", "d"]
    assert list(directory.iterdir()) == []


def test_analyze_rejects_malformed_sums_csv(tmp_path, capsys):
    path = write(tmp_path, "sums.csv", "id,category,name\n1,component,x\n")
    assert main(["analyze", "--from-sums", path]) == 2
    assert "missing columns" in capsys.readouterr().err


def test_sums_header_is_read_with_blanks_around_its_names(tmp_path, capsys):
    plain = write(tmp_path, "plain.csv", SUMS_TABLE)
    padded = write(tmp_path, "padded.csv", SUMS_TABLE.replace(",", ", ", 4).replace("id", " id", 1))
    assert main(["analyze", "--from-sums", plain]) == 0
    expected = capsys.readouterr()
    assert main(["analyze", "--from-sums", padded]) == 0
    assert capsys.readouterr() == expected
    twice = write(tmp_path, "twice.csv", SUMS_TABLE.replace("passive_sum\n", "passive_sum, id \n", 1))
    assert main(["analyze", "--from-sums", twice]) == 2
    assert capsys.readouterr().err == f"error: {twice}: line 1: column 'id' appears twice\n"


def test_sums_categories_are_read_in_any_documented_spelling(tmp_path, capsys):
    path = write(
        tmp_path, "sums.csv",
        "id,category,name,active_sum,passive_sum\n"
        "1,Control Factor,a,1,0\n2,controlfactor,b,1,0\n3,noise_factor,c,1,0\n4, HARM ,h,0,3\n",
    )
    assert main(["analyze", "--from-sums", path]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["category"] for row in rows] == ["control", "control", "noise", "harm"]


def test_analyze_without_any_input_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["analyze"]) == 1
    assert capsys.readouterr() == ("", "error: at least one chain file is required\n" + ANALYZE_USAGE)


def test_plot_from_sums_has_one_marker_per_factor(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["plot", "--from-sums", str(DATA / "table1_as_printed.csv"), "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count('class="marker"') == 46


def test_plot_empty_sums_is_axes_only(tmp_path):
    sums_path = write(tmp_path, "empty.csv", "id,category,name,active_sum,passive_sum\n")
    out = tmp_path / "plot.svg"
    assert main(["plot", "--from-sums", sums_path, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert 'class="marker"' not in text
    assert text.count('class="boundary"') == 2


def test_outputs_are_idempotent(tmp_path):
    for command, name in (("matrix", "m.csv"), ("analyze", "r.csv"), ("plot", "p.svg"), ("dot", "n.dot")):
        out = tmp_path / name
        argv = [command, *CHAIN_FILES, "-o", str(out)]
        if command in ("analyze", "plot"):
            argv += ["--key-threshold", "75"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


def test_dot_single_chain_has_two_edges(capsys):
    assert main(["dot", str(DATA / "chains" / "burn.chains")]) == 0
    assert capsys.readouterr().out.count("->") == 5


def test_dot_merged_fixtures_node_count_matches_oracle(capsys):
    from keyfactors.dsl import parse_document
    from keyfactors.matrix import brute_force_sums
    from keyfactors.model import ChainSet

    chains = []
    for path in CHAIN_FILES:
        chain_set, _ = parse_document(Path(path).read_text(encoding="utf-8"))
        chains.extend(chain_set.chains)
    expected = len(brute_force_sums(ChainSet(tuple(chains))))

    assert main(["dot", *CHAIN_FILES]) == 0
    text = capsys.readouterr().out
    node_lines = [line for line in text.splitlines() if "shape=" in line]
    assert len(node_lines) == expected


def test_dot_unreadable_file_exits_two(tmp_path):
    assert main(["dot", str(tmp_path / "missing.chains")]) == 2


def test_analyze_normalizes_each_distinct_step_once(tmp_path, monkeypatch):
    from keyfactors import model
    from keyfactors.dsl import parse_document

    steps = [
        step
        for path in CHAIN_FILES
        for chain in parse_document(Path(path).read_text(encoding="utf-8"))[0]
        for step in chain.steps
    ]
    assert len(set(steps)) < len(steps)
    calls = collections.Counter()
    normalize = model.normalize_name

    def counting(name):
        calls[name] += 1
        return normalize(name)

    monkeypatch.setattr(model, "normalize_name", counting)
    monkeypatch.setattr(model, "_IDENTITIES", model._Memo(model._IDENTITIES.compute))
    assert main(["analyze", *CHAIN_FILES, "-o", str(tmp_path / "report.csv")]) == 0
    # Parsing checks every chain; sums looks each distinct raw step up again, in the same table.
    assert calls == collections.Counter(name for _, name in set(steps))


@pytest.mark.parametrize("command", ["dot", "matrix"])
def test_control_character_in_a_name_is_reported_and_written_nowhere(tmp_path, capsys, command):
    path = write(tmp_path, "control.chains", 'alert: a\ncase: c\ncomponent "pl\x01ug"\nharm "h"\n')
    output = tmp_path / "out"
    assert main([command, path, "-o", str(output)]) == 1
    assert capsys.readouterr().err == f"{path}:3:14: error: control character U+0001 in quoted name\n"
    assert not output.exists()


def test_import_rapex_writes_one_file_per_risk(tmp_path, capsys):
    out_dir = tmp_path / "skeletons"
    assert main(["import-rapex", str(DATA / "alerts_sample.json"), "-d", str(out_dir)]) == 0
    written = sorted(p.name for p in out_dir.glob("*.chains"))
    assert len(written) == 5  # 3 risks + 1 single risk + 1 unspecified
    assert "A12_02261_23__burn.chains" in written
    assert "A12_09999_23__unspecified.chains" in written
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_import_rapex_empty_list(tmp_path, capsys):
    alerts = write(tmp_path, "alerts.json", "[]")
    out_dir = tmp_path / "skeletons"
    assert main(["import-rapex", alerts, "-d", str(out_dir)]) == 0
    assert list(out_dir.glob("*")) == []


def test_import_rapex_malformed_record_exits_one(tmp_path, capsys):
    alerts = write(tmp_path, "alerts.json", json.dumps([{"alertNumber": "A1"}, {"product": "x"}]))
    assert main(["import-rapex", alerts, "-d", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", "error: record 2: missing or empty field 'alertNumber'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["alerts.json"]


def test_import_rapex_lone_surrogate_exits_one_and_writes_nothing(tmp_path, capsys):
    alerts = write(tmp_path, "alerts.json", '[{"alertNumber": "A1", "risk": "burn\\ud800"}]')
    out_dir = tmp_path / "out"
    assert main(["import-rapex", alerts, "-d", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: record 1: ")
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


@pytest.mark.parametrize(("product_field", "argv"), [("product", []), ("name", ["--field-product", "name"])])
def test_import_rapex_refuses_a_product_that_is_not_text(tmp_path, capsys, product_field, argv):
    record = {"alertNumber": "A1", product_field: {"name": "dryer"}, "risk": "burn", "description": ["hot", "very"]}
    alerts = write(tmp_path, "alerts.json", json.dumps([record]))
    assert main(["import-rapex", alerts, "-d", str(tmp_path / "out"), *argv]) == 1
    assert capsys.readouterr() == ("", f"error: record 1: field {product_field!r} must be a string\n")
    assert [p.name for p in tmp_path.iterdir()] == ["alerts.json"]


def test_import_rapex_reads_a_null_product_as_no_product(tmp_path):
    records = [{"alertNumber": "A1", "risk": "burn"}, {"alertNumber": "A2", "description": "hot"}]
    skeletons = []
    for name, product in (("absent", {}), ("null", {"product": None})):
        alerts = write(tmp_path, f"{name}.json", json.dumps([{**record, **product} for record in records]))
        assert main(["import-rapex", alerts, "-d", str(tmp_path / name)]) == 0
        skeletons.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert skeletons[0] == skeletons[1] and len(skeletons[0]) == 2


def test_import_rapex_refuses_a_risk_with_a_control_character(tmp_path, capsys):
    alerts = write(tmp_path, "alerts.json", json.dumps([{"alertNumber": "A1", "risk": "bu\u0001rn"}]))
    assert main(["import-rapex", alerts, "-d", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: record 1: risk text holds control character U+0001\n"
    assert [p.name for p in tmp_path.iterdir()] == ["alerts.json"]


def test_write_atomic_removes_its_temp_file_on_any_error(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        with cli._output(str(tmp_path / "out.chains")) as write:
            write("burn\ud800")
    assert list(tmp_path.iterdir()) == []
    # The temp file opened before the work goes too when the work fails.
    with pytest.raises(KeyError):
        with cli._output(str(tmp_path / "out.chains")):
            raise KeyError
    assert list(tmp_path.iterdir()) == []


def test_import_rapex_invalid_json_exits_two(tmp_path, capsys):
    alerts = write(tmp_path, "alerts.json", "{not json")
    assert main(["import-rapex", alerts, "-d", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == (
        "",
        "error: alert file is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n",
    )
    assert [p.name for p in tmp_path.iterdir()] == ["alerts.json"]


def test_import_rapex_duplicate_pair_warns(tmp_path, capsys):
    alerts = write(
        tmp_path,
        "alerts.json",
        json.dumps([
            {"alertNumber": "A1", "risk": "burn"},
            {"alertNumber": "A1", "risk": ["burn"]},
        ]),
    )
    out_dir = tmp_path / "out"
    assert main(["import-rapex", alerts, "-d", str(out_dir)]) == 0
    assert "duplicate" in capsys.readouterr().err
    assert len(list(out_dir.glob("*.chains"))) == 1
    assert main(["import-rapex", "--strict", alerts, "-d", str(out_dir)]) == 1


def test_import_rapex_writes_thousands_of_warnings_in_chunks(tmp_path, monkeypatch):
    records = [{"alertNumber": "A1", "risk": "burn"}] * 2_501
    alerts = write(tmp_path, "alerts.json", json.dumps(records))
    expected = "".join(
        f"{alerts}:record {i}: warning: duplicate alert/risk pair ('A1', 'burn'); skipped\n"
        for i in range(2, 2_502)
    )
    for argv, code in ((["import-rapex"], 0), (["import-rapex", "--strict"], 1)):
        stderr = WriteLog()
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main([*argv, alerts, "-d", str(tmp_path / "out")]) == code
        assert stderr.getvalue() == expected
        assert len(stderr.writes) == 3


def test_outputs_are_written_in_slices_that_round_trip(tmp_path, monkeypatch):
    n = cli._CHARS_PER_WRITE
    # Non-ASCII characters on both sides of each slice boundary.
    text = "x" * (n - 1) + "é€" + "y" * (n - 2) + "😀ß\n" + "z" * 5
    assert (text[n - 1 : n + 1], text[2 * n - 1 : 2 * n + 1]) == ("é€", "😀ß")
    out = tmp_path / "out.csv"
    with cli._output(str(out)) as write:
        write(text)
    assert out.read_bytes() == text.encode("utf-8")
    stdout = ByteWriteLog()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(stdout, encoding="ascii"))
    with cli._output(None) as write:
        write(text)
    assert stdout.getvalue() == text.encode("utf-8")
    assert stdout.writes == [len(part.encode("utf-8")) for part in (text[:n], text[n : 2 * n], text[2 * n :])]
    # A stdout with no bytes under it, as under contextlib.redirect_stdout(io.StringIO()), takes the text.
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    with cli._output(None) as write:
        write(text)
    assert sys.stdout.getvalue() == text


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_carries_the_bytes_of_the_output_file_whatever_its_encoding(tmp_path, encoding):
    path = write(tmp_path, "u.chains", 'alert: a\ncase: c\ncomponent "Föhn"\nharm "burn"\n')
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONIOENCODING": encoding}
    for command in ("matrix", "analyze", "plot", "dot"):
        out = tmp_path / f"{command}.out"
        assert main([command, path, "-o", str(out)]) == 0
        result = subprocess.run([sys.executable, "-m", "keyfactors.cli", command, path], env=env, capture_output=True)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == out.read_bytes()


def test_import_rapex_custom_field_names(tmp_path):
    alerts = write(tmp_path, "alerts.json", json.dumps([{"ref": "A9", "risks": "cut"}]))
    out_dir = tmp_path / "out"
    assert main([
        "import-rapex", alerts, "-d", str(out_dir),
        "--field-alert", "ref", "--field-risk", "risks",
    ]) == 0
    assert (out_dir / "A9__cut.chains").exists()


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_readme_names_every_command_and_option():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    parser = cli._build_parser()
    (commands,) = (action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    names = set(commands.choices)
    for command in commands.choices.values():
        names.update(option for action in command._actions for option in action.option_strings)
    names -= {"-h", "--help"}
    # Whole words only: "-d" inside "--field-description" does not count.
    missing = sorted(name for name in names if not re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", readme))
    assert missing == []


def test_case_study_script_writes_every_documented_output(tmp_path):
    # From a fresh checkout: the script finds the package without an install or PYTHONPATH.
    out = tmp_path / "out"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_case_study.py"), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    for name in (
        "report_as_printed.csv", "report_rank_consistent.csv", "scatter.svg",
        "demo_matrix.csv", "demo_network.dot",
    ):
        assert (out / name).stat().st_size > 0, name
    assert list((out / "skeletons").glob("*.chains"))


def test_output_digests_script_prints_the_same_lines_twice():
    script = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), str(DATA)]
    runs = [subprocess.Popen(script, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(2)]
    (first, first_err), (second, second_err) = (run.communicate(timeout=300) for run in runs)
    assert [run.returncode for run in runs] == [0, 0], first_err + second_err
    assert first == second
    # Criterion 8 on the fixtures: a change that alters an output regenerates this file.
    assert first == (ROOT / "tests" / "data" / "output_digests.txt").read_text(encoding="utf-8")
    lines = [line.split(" ") for line in first.splitlines()]
    assert all(len(fields) == 3 and len(fields[2]) == 64 for fields in lines)
    commands = {label.split("[")[0] for label, _, _ in lines}
    assert commands == {"validate", "analyze", "matrix", "dot", "plot", "from-sums", "plot-from-sums", "import-rapex"}
    # Every chain command on all files together and on each alone, each output file and skeleton.
    assert ["plot[*.chains]", "out"] in [fields[:2] for fields in lines]
    assert ["plot-from-sums[table1_as_printed.csv]", "out"] in [fields[:2] for fields in lines]
    assert {label for label, _, _ in lines if label.startswith("dot[chains/")} == {
        f"dot[chains/{name}]" for name in ("burn.chains", "shock.chains", "poisoning.chains")
    }
    skeletons = [stream for label, stream, _ in lines if label == "import-rapex[alerts_sample.json]"][3:]
    assert skeletons and all(stream.startswith("skeletons/") for stream in skeletons)


def test_awkward_names_print_the_committed_digests():
    # Names holding CR, LF, quotes and commas, in a chain file and in a CRLF sums table:
    # every interpreter must print these same bytes, which the csv module's quoting did not.
    script = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), str(ROOT / "tests" / "data" / "awkward")]
    result = subprocess.run(script, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (ROOT / "tests" / "data" / "awkward_digests.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("workload", ["chains-large", "factors-wide", "intake"])
def test_generated_corpora_print_the_committed_digests(tmp_path, workload):
    # Criterion 8 beyond the fixtures, on three seed-11 corpora of the benchmark:
    # chains-large (1,400 chains), whose parse is the largest it runs,
    # factors-wide (1,456 factors), whose report rows are the widest it prints,
    # and intake, whose injected defects send every chain command down its
    # failure path, with diagnostics. Each also reads its sums.csv.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    gen = [sys.executable, str(ROOT / "bench" / "gen.py"), "--workload", workload, "--seed", "11"]
    subprocess.run([*gen, "--out", str(tmp_path)], env=env, check=True, capture_output=True, timeout=300)
    script = [sys.executable, str(ROOT / "scripts" / "output_digests.py"), str(tmp_path)]
    result = subprocess.run(script, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    digests = ROOT / "tests" / "data" / f"{workload.replace('-', '_')}_seed11_digests.txt"
    assert result.stdout == digests.read_text(encoding="utf-8")


# Prints the keyfactors modules loaded after running the CLI on its arguments,
# then which of the stdlib modules the probe watches were loaded. It runs
# under -S, so that modules which site's .pth files import cannot hide one.
MODULE_PROBE = (
    "import sys\n"
    "from keyfactors.cli import main\n"
    "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(*sorted(m for m in sys.modules if m.startswith('keyfactors')))\n"
    "watched = ('csv', 'dataclasses', 'decimal', 'inspect', 'json', 'pathlib', 'tempfile')\n"
    "print('stdlib:', *sorted(m for m in watched if m in sys.modules))\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    ("argv", "layers"),
    [
        ([], []),
        (["validate", *CHAIN_FILES], ["dsl"]),
        (["analyze", *CHAIN_FILES, "-o", "{tmp}/report.csv"], ["analysis", "dsl", "emit", "matrix"]),
        (
            ["analyze", "--from-sums", str(DATA / "table1_as_printed.csv"), "-o", "{tmp}/report.csv"],
            ["analysis", "emit", "matrix", "sums_table"],
        ),
        (["import-rapex", str(DATA / "alerts_sample.json"), "-d", "{tmp}/skeletons"], ["rapex"]),
        (["dot", *CHAIN_FILES, "-o", "{tmp}/network.dot"], ["dsl", "emit", "matrix"]),
        (["matrix", *CHAIN_FILES, "-o", "{tmp}/matrix.csv"], ["dsl", "emit", "matrix"]),
        (["plot", *CHAIN_FILES, "-o", "{tmp}/scatter.svg"], ["analysis", "dsl", "emit", "matrix"]),
        (
            ["plot", "--from-sums", str(DATA / "table1_as_printed.csv"), "-o", "{tmp}/scatter.svg"],
            ["analysis", "emit", "matrix", "sums_table"],
        ),
        (
            ["analyze", *CHAIN_FILES, "--key-threshold", "50", "-o", "{tmp}/report.csv"],
            ["analysis", "dsl", "emit", "matrix"],
        ),
    ],
    ids=[
        "import-cli",
        "validate",
        "analyze",
        "from-sums",
        "import-rapex",
        "dot",
        "matrix",
        "plot",
        "plot-from-sums",
        "key-threshold",
    ],
)
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, layers):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    result = subprocess.run([sys.executable, "-S", "-c", MODULE_PROBE, *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    *_, loaded, stdlib = result.stdout.splitlines()
    assert loaded.split() == sorted(["keyfactors", "keyfactors.cli", "keyfactors.model", *(f"keyfactors.{m}" for m in layers)])
    # No command imports dataclasses (which imports inspect) or tempfile; csv comes only
    # with the sums-table reader, which only --from-sums runs, only a threshold option,
    # read exactly, needs decimal, only import-rapex reads JSON, and none builds paths.
    thresholds = {"--dominant-ratio", "--reactive-ratio", "--key-threshold"}
    expected = [
        *(["csv"] if "sums_table" in layers else []),
        *(["decimal"] if thresholds & {*argv} else []),
        *(["json"] if "rapex" in layers else []),
    ]
    assert stdlib.split() == ["stdlib:", *expected]


SUMS_TABLE = "id,category,name,active_sum,passive_sum\n1,component,Gerät,2,0\n2,harm,burn,0,2\n"

# (argv with {path} for the input and {tmp} for the test directory, input file
# name, input bytes, first stderr line). The table is the catalogue of input
# that spreadsheets and Windows editors write.
CHAIN_DOC = 'alert: a\ncase: c\ncomponent "plug"\nharm "burn"\n'


def sums_row(cells):
    """SUMS_TABLE with its first data row replaced by the given cells."""
    header, _, rest = SUMS_TABLE.split("\n", 2)
    return f"{header}\n{cells}\n{rest}".encode("utf-8")


BAD_INPUTS = [
    (
        ["analyze", "{path}", "-o", "{tmp}/out.csv"],
        "cp1252.chains",
        'alert: a\ncase: c\ncomponent "Gerät"\nharm "burn"\n'.encode("cp1252"),
        2,
        "{path}:3:15: error: not UTF-8 (byte 0xE4)",
    ),
    (
        ["validate", "{path}"],
        "crlf.chains",
        'alert: a\r\ncase: c\r\n\r\n  action "Öffnen"\r\nharm "burn"\r\n'.encode("cp1252"),
        2,
        "{path}:4:11: error: not UTF-8 (byte 0xD6)",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "cp1252.csv",
        "\ufeff".encode("utf-8") + SUMS_TABLE.encode("cp1252"),
        2,
        "{path}:2:16: error: not UTF-8 (byte 0xE4)",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "cr-cp1252.csv",
        SUMS_TABLE.replace("\n", "\r").encode("cp1252"),
        2,
        "{path}:2:16: error: not UTF-8 (byte 0xE4)",
    ),
    (
        ["plot", "--from-sums", "{path}", "-o", "{tmp}/out.svg"],
        "utf16.csv",
        SUMS_TABLE.encode("utf-16"),
        2,
        "{path}:1:1: error: not UTF-8 (byte 0xFF)",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "semicolon.csv",
        SUMS_TABLE.replace(",", ";").encode("utf-8"),
        2,
        "error: {path}: missing columns: id, category, name, active_sum, passive_sum "
        "(the file looks semicolon-delimited; sums tables must be comma-separated)",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "semicolon-padded.csv",
        SUMS_TABLE.replace(",", "; ").encode("utf-8"),
        2,
        "error: {path}: missing columns: id, category, name, active_sum, passive_sum "
        "(the file looks semicolon-delimited; sums tables must be comma-separated)",
    ),
    (
        ["import-rapex", "{path}", "-d", "{tmp}/skeletons"],
        "alerts.json",
        '[{"alertNumber": "A1", "risk": "Verbrühung"}]'.encode("latin-1"),
        2,
        "{path}:1:38: error: not UTF-8 (byte 0xFC)",
    ),
    # int() would read these three as 12.
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "underscore.csv",
        sums_row("1,component,Gerät, 1_2 ,0"),
        2,
        "error: {path}: line 2: active_sum '1_2' is not a whole number",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "arabic-indic.csv",
        sums_row("1,component,Gerät,\u0661\u0662,0"),
        2,
        "error: {path}: line 2: active_sum '\u0661\u0662' is not a whole number",
    ),
    (
        ["plot", "--from-sums", "{path}", "-o", "{tmp}/out.svg"],
        "plus-sign.csv",
        sums_row("1,component,Gerät,2,+0"),
        2,
        "error: {path}: line 2: passive_sum '+0' is not a whole number",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "decimal.csv",
        sums_row("1,component,Gerät,12.0,0"),
        2,
        "error: {path}: line 2: active_sum '12.0' is not a whole number",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "unknown-category.csv",
        sums_row("1,ctrl,Gerät,2,0"),
        2,
        "error: {path}: line 2: unknown category 'ctrl'",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "negative.csv",
        sums_row("-1,component,Gerät,2,0"),
        2,
        "error: {path}: line 2: id '-1' is not a whole number",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "id-zero.csv",
        sums_row("0,component,Gerät,2,0"),
        2,
        "error: {path}: line 2: id must be positive",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "too-many-digits.csv",
        sums_row("1,component,Gerät," + "9" * 5000 + ",0"),
        2,
        "error: {path}: line 2: active_sum has 5000 digits, too many to read",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "sixth-cell.csv",
        sums_row("1,component,Gerät,2,0,note"),
        2,
        "error: {path}: line 2: 6 cells, but the header has 5",
    ),
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "fourth-cell.csv",
        sums_row("1,component,Gerät,2"),
        2,
        "error: {path}: line 2: 4 cells, but the header has 5",
    ),
    # Each row would otherwise be read with the later of the two cells.
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "column-twice.csv",
        b"\nid,category,name,active_sum,passive_sum,active_sum\n1,component,plug,5,0,7\n",
        2,
        "error: {path}: line 2: column 'active_sum' appears twice",
    ),
    # The csv module's own refusal: a cell over csv.field_size_limit().
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "oversized-cell.csv",
        sums_row("1,component," + "x" * 131073 + ",2,0"),
        2,
        "error: {path}: line 2: field larger than field limit (131072)",
    ),
    # A name no chain document can write, as the chain reader and import-rapex refuse it.
    (
        ["analyze", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "control-in-name.csv",
        sums_row("1,component,a\x01b,2,0"),
        2,
        "error: {path}: line 2: name holds control character U+0001",
    ),
    # A spreadsheet's trailing empty rows are skipped with a warning, which --strict refuses.
    (
        ["analyze", "--strict", "--from-sums", "{path}", "-o", "{tmp}/out.csv"],
        "empty-rows.csv",
        (SUMS_TABLE + "\n,,,,\n , ,,,\n").encode("utf-8"),
        1,
        "{path}: line 5: warning: empty row skipped",
    ),
    # JSON's decoder recurses once per nested array.
    (
        ["import-rapex", "{path}", "-d", "{tmp}/skeletons"],
        "deep.json",
        b"[" * 100000 + b"]" * 100000,
        2,
        "error: alert file is not valid JSON: maximum recursion depth exceeded while decoding a JSON array"
        " from a unicode string",
    ),
    (
        ["validate", "--strict", "{path}"],
        "no-text.chains",
        b'alert: a\n  case:   \ncomponent "plug"\nharm "burn"\n',
        1,
        "{path}:2:3: warning: 'case:' header has no text",
    ),
    (
        ["analyze", "--strict", "{path}", "{path}", "-o", "{tmp}/out.csv"],
        "twice.chains",
        CHAIN_DOC.encode("utf-8"),
        1,
        "{path}: warning: same file as {path}; its chains count again",
    ),
]


@pytest.mark.parametrize(
    ("argv", "name", "data", "code", "first_line"),
    BAD_INPUTS,
    ids=[
        "cp1252-chains", "crlf-chains", "cp1252-sums", "cr-cp1252-sums", "utf16-sums", "semicolon-sums", "semicolon-padded-sums",
        "latin1-alerts", "underscore-sum", "arabic-indic-sum", "plus-sign-sum", "decimal-sum", "unknown-category",
        "negative-id", "zero-id", "too-many-digits", "sixth-cell", "fourth-cell", "column-twice",
        "oversized-cell", "control-in-name", "empty-rows-strict", "deep-alerts", "no-text-strict",
        "same-file-twice-strict",
    ],
)
def test_bad_input_names_its_file_and_position(tmp_path, argv, name, data, code, first_line):
    path = tmp_path / name
    path.write_bytes(data)
    argv = [arg.format(path=path, tmp=tmp_path) for arg in argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "keyfactors.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (result.returncode, result.stderr.splitlines()[0]) == (code, first_line.format(path=path))
    assert result.stdout == ""
    # No output file, temp file or output directory is left behind.
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_empty_sums_rows_are_skipped_with_a_warning(tmp_path, capsys):
    plain = write(tmp_path, "plain.csv", SUMS_TABLE)
    padded = write(tmp_path, "padded.csv", "\n" + SUMS_TABLE.replace("\n1,", "\n\n,,,,\n1,") + ",,,,\n")
    assert main(["analyze", "--from-sums", plain, "-o", str(tmp_path / "plain.out")]) == 0
    assert main(["analyze", "--from-sums", padded, "-o", str(tmp_path / "padded.out")]) == 0
    # Blank lines are skipped quietly, as the csv module reads them; the lines are counted in the file.
    assert capsys.readouterr().err == (
        f"{padded}: line 4: warning: empty row skipped\n{padded}: line 7: warning: empty row skipped\n"
    )
    assert (tmp_path / "padded.out").read_bytes() == (tmp_path / "plain.out").read_bytes()


def test_empty_sums_rows_above_the_header_are_skipped_with_a_warning(tmp_path, capsys):
    plain = write(tmp_path, "plain.csv", SUMS_TABLE)
    above = write(tmp_path, "above.csv", ",,,,\n\n , ,,,\n" + SUMS_TABLE)
    assert main(["analyze", "--from-sums", plain, "-o", str(tmp_path / "plain.out")]) == 0
    assert main(["analyze", "--from-sums", above, "-o", str(tmp_path / "above.out")]) == 0
    # The header is the first row with a cell that is not blank.
    assert capsys.readouterr().err == (
        f"{above}: line 1: warning: empty row skipped\n{above}: line 3: warning: empty row skipped\n"
    )
    assert (tmp_path / "above.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
    assert main(["analyze", "--strict", "--from-sums", above, "-o", str(tmp_path / "strict.out")]) == 1
    assert not (tmp_path / "strict.out").exists()


def test_a_chain_file_given_twice_counts_twice_with_a_warning(tmp_path, capsys):
    path = write(tmp_path, "a.chains", CHAIN_DOC)
    link = tmp_path / "b.chains"
    os.link(path, link)
    other = write(tmp_path, "c.chains", CHAIN_DOC)
    for twice in (path, str(link)):
        assert main(["matrix", path, twice, "-o", str(tmp_path / "twice.csv")]) == 0
        assert capsys.readouterr().err == f"{twice}: warning: same file as {path}; its chains count again\n"
        # Repetition weighting: the repeated file counts as a copy of it would.
        assert main(["matrix", path, other, "-o", str(tmp_path / "copy.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "twice.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()
        assert main(["validate", "--strict", path, twice]) == 1
        assert "warning: same file" in capsys.readouterr().err


def test_closed_stdout_ends_quietly_with_exit_two(tmp_path):
    # 600 factors: a matrix CSV of about 400 KB, several times a pipe buffer.
    chains = "\n---\n".join(
        f'alert: a\ncase: c\ncomponent "part {i}"\neffect "effect {i}"\nharm "harm {i}"' for i in range(200)
    )
    path = write(tmp_path, "many.chains", chains + "\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with subprocess.Popen(
        [sys.executable, "-m", "keyfactors.cli", "matrix", path],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(10) == b",component"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (2, b"")
    assert main(["matrix", path, "-o", str(tmp_path / "m.csv")]) == 0
    assert (tmp_path / "m.csv").stat().st_size > 4 * 65536


def test_main_runs_no_collection():
    # A low gen-0 threshold makes a collecting run collect often: validate allocates thousands of objects.
    collections = []

    def count(phase, info):
        collections.append((phase, info["generation"]))

    threshold = gc.get_threshold()
    gc.set_threshold(10)
    gc.callbacks.append(count)
    try:
        assert gc.isenabled()
        assert main(["validate", *CHAIN_FILES]) == 0
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert collections == []


FREEZE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    "from keyfactors.cli import main\n"
    "main(sys.argv[1:])\n"
    "registered = atexit._ncallbacks()\n"
    "sys.exit(main(sys.argv[1:]) or atexit._ncallbacks() - registered)\n"
)


def test_the_exit_collections_skip_what_main_left_alive():
    # Atexit handlers run last in, first out, so the probe registered first sees the freeze.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, "validate", *CHAIN_FILES], env=env, capture_output=True, text=True
    )
    # Exit 0: the second run registered no second handler.
    assert result.returncode == 0, result.stderr
    label, count = result.stdout.split()
    assert label == "frozen" and int(count) > 0


class CollectorLog(io.StringIO):
    """A text stream that records whether the collector was on at every write."""

    def __init__(self):
        super().__init__()
        self.enabled = []

    def write(self, text):
        self.enabled.append(gc.isenabled())
        return super().write(text)


@pytest.mark.parametrize("enabled", [True, False], ids=["from-enabled", "from-disabled"])
@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["analyze", "--from-sums", str(DATA / "table1_as_printed.csv")], 0),
        (["validate", str(DATA / "chains" / "burn.chains"), "{tmp}/missing.chains"], 2),
        (["validate", "{bad}"], 1),
        (["validate", "--no-such-option"], 2),
        (["--help"], 0),
    ],
    ids=["success", "os-error", "exit-one", "usage-error", "help"],
)
def test_main_restores_the_collector_state_it_found(tmp_path, monkeypatch, enabled, argv, code):
    bad = write(tmp_path, "bad.chains", BAD_HARM_DOC)
    argv = [arg.format(tmp=tmp_path, bad=bad) for arg in argv]
    log = CollectorLog()
    monkeypatch.setattr(sys, "stdout", log)
    monkeypatch.setattr(sys, "stderr", log)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # Every run writes something, and the collector was off at each write.
    assert log.enabled and not any(log.enabled)
