"""Acceptance suite.

Fixture checks reproduce the published 46-factor case-study table
(normalized values, ranks, regions); property checks cover the
chain-to-matrix stage on large randomized corpora. Each criterion
prints one pass line; a failing criterion fails its test.

Run with: pytest tests/test_acceptance.py -v -s
"""

import csv
import io
import random
import time
from pathlib import Path

import pytest

from corpus import mutate_text, random_chain_set
from keyfactors.cli import main
from keyfactors.dsl import _escape_name, parse_document, serialize_document
from keyfactors.matrix import brute_force_sums, build_matrix, merge, sums
from keyfactors.model import ChainSet, FactorCategory

DATA = Path(__file__).resolve().parent.parent / "data"
PRINTED = Path(__file__).resolve().parent / "data" / "table1_printed.csv"
AS_PRINTED = DATA / "table1_as_printed.csv"
RANK_CONSISTENT = DATA / "table1_rank_consistent.csv"

CORPUS_SEED = 20260811
CORPUS_SIZE = 1000

DOMINANT_IDS = {1, 6, 8, 13, 21}
DYNAMIC_IDS = {12, 23, 24, 27, 38}
REACTIVE_IDS = {22, 44, 46}


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_chain_set(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def printed_rows():
    with open(PRINTED, encoding="utf-8") as handle:
        rows = {int(row["id"]): row for row in csv.DictReader(handle)}
    assert len(rows) == 46
    return rows


def _run_analysis(fixture: Path, tmp_path: Path) -> tuple[dict[int, dict], float]:
    out = tmp_path / "report.csv"
    start = time.perf_counter()
    code = main(["analyze", "--from-sums", str(fixture), "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out, encoding="utf-8") as handle:
        report = {int(row["id"]): row for row in csv.DictReader(handle)}
    return report, elapsed


def test_fixture_files_match_the_printed_table(printed_rows):
    """Transcription guard: the CLI fixtures agree with the printed table."""
    with open(AS_PRINTED, encoding="utf-8") as handle:
        as_printed = {int(row["id"]): row for row in csv.DictReader(handle)}
    with open(RANK_CONSISTENT, encoding="utf-8") as handle:
        consistent = {int(row["id"]): row for row in csv.DictReader(handle)}
    for factor_id, printed in printed_rows.items():
        for fixture in (as_printed, consistent):
            assert fixture[factor_id]["name"] == printed["name"]
            assert fixture[factor_id]["category"] == printed["category"]
            assert int(fixture[factor_id]["active_sum"]) == int(printed["active_sum"])
        assert int(as_printed[factor_id]["passive_sum"]) == int(printed["passive_sum"])
        expected_passive = 5 if factor_id == 18 else int(printed["passive_sum"])
        assert int(consistent[factor_id]["passive_sum"]) == expected_passive
    total_active = sum(int(r["active_sum"]) for r in printed_rows.values())
    total_passive = sum(int(r["passive_sum"]) for r in consistent.values())
    assert total_active == total_passive == 278  # the conservation argument for passive(18)=5


def test_criterion_1_table_normalization(printed_rows, tmp_path):
    report, elapsed = _run_analysis(AS_PRINTED, tmp_path)
    assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"
    checked = 0
    for factor_id, printed in printed_rows.items():
        for column in ("active_norm", "passive_norm"):
            computed = float(report[factor_id][column])
            expected = float(printed[column])
            assert abs(computed - expected) <= 0.05, (
                f"factor {factor_id} {column}: computed {computed}, printed {expected}"
            )
            checked += 1
    assert checked == 92
    _report(1, f"92 printed normalized values reproduced within 0.05 in {elapsed:.2f}s")


def test_criterion_2_table_ranking(printed_rows, tmp_path):
    report, elapsed = _run_analysis(RANK_CONSISTENT, tmp_path)
    assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"
    checked = 0
    for factor_id, printed in printed_rows.items():
        for column in ("active_rank", "passive_rank"):
            assert int(report[factor_id][column]) == int(printed[column]), (
                f"factor {factor_id} {column}"
            )
            checked += 1
    assert checked == 92
    # the named tie groups
    active_rank_of = {fid: int(row["active_rank"]) for fid, row in report.items()}
    active_sum_of = {fid: int(row["active_sum"]) for fid, row in report.items()}
    zeros = [fid for fid, value in active_sum_of.items() if value == 0]
    ones = [fid for fid, value in active_sum_of.items() if value == 1]
    assert len(zeros) == 3 and {active_rank_of[fid] for fid in zeros} == {44}
    assert len(ones) == 10 and {active_rank_of[fid] for fid in ones} == {34}
    passive_zeros = [fid for fid, row in report.items() if int(row["passive_sum"]) == 0]
    assert len(passive_zeros) == 6
    assert {int(report[fid]["passive_rank"]) for fid in passive_zeros} == {41}
    _report(2, f"92 rank values and all tie groups reproduced exactly in {elapsed:.2f}s")


def test_criterion_3_region_reproduction(tmp_path):
    for fixture in (AS_PRINTED, RANK_CONSISTENT):
        report, _ = _run_analysis(fixture, tmp_path)
        regions = {fid: row["region"] for fid, row in report.items()}
        dominant = {fid for fid, region in regions.items() if region == "dominant"}
        dynamic = {fid for fid, region in regions.items() if region == "dynamic"}
        reactive = {fid for fid, region in regions.items() if region == "reactive"}
        assert DOMINANT_IDS <= dominant, f"{fixture.name}: missing dominant factors"
        assert DYNAMIC_IDS <= dynamic, f"{fixture.name}: missing dynamic factors"
        assert REACTIVE_IDS <= reactive, f"{fixture.name}: missing reactive factors"
    _report(3, "all thirteen named region memberships hold with default thresholds")


def test_criterion_4_conservation(corpus):
    for chain_set in corpus:
        table = sums(build_matrix(chain_set))
        expected = sum(len(chain) - 1 for chain in chain_set)
        assert sum(table.active) == expected
        assert sum(table.passive) == expected
    _report(4, f"conservation holds exactly on {len(corpus)} randomized chain sets")


def test_criterion_5_oracle_and_merge_equivalence(corpus):
    for chain_set in (ChainSet(), *corpus):
        assert sums(chain_set) == sums(build_matrix(chain_set)) == brute_force_sums(chain_set)
        half = len(chain_set) // 2
        first = ChainSet(chain_set.chains[:half])
        second = ChainSet(chain_set.chains[half:])
        merged = merge(build_matrix(first), build_matrix(second))
        assert merged == build_matrix(chain_set)
    _report(5, f"matrix sums match the brute-force oracle and merge equals "
               f"the concatenated build on {len(corpus)} chain sets and the empty set")


def test_criterion_6_repetition_weighting():
    C = FactorCategory
    from keyfactors.model import FailureChain

    def chain(*steps):
        return FailureChain("a", "c", tuple(steps))

    shared = ((C.COMPONENT, "heating element"), (C.CONTROL_FACTOR, "increasing temperature Q [J]"))
    two = ChainSet((
        chain(*shared, (C.HARM, "burn")),
        chain((C.FUNCTION, "thermal cut-off"), *shared, (C.HARM, "burn")),
    ))
    m = build_matrix(two)
    ids = {f.display_name: f.id - 1 for f in m.factors}
    assert m.edges[ids["heating element"], ids["increasing temperature Q [J]"]] == 2

    grille = ((C.COMPONENT, "protective grille"), (C.FUNCTION, "preventing access to internal parts"))
    three = ChainSet(tuple(
        chain(*grille, (C.ACTION, f"contact {i}"), (C.HARM, "electrical shock")) for i in range(3)
    ))
    m3 = build_matrix(three)
    ids3 = {f.display_name: f.id - 1 for f in m3.factors}
    assert m3.edges[ids3["protective grille"], ids3["preventing access to internal parts"]] == 3
    _report(6, "repeated transitions weight to 2 and 3")


def test_criterion_7_round_trip_and_parser_totality(corpus):
    for chain_set in corpus:
        text = serialize_document(chain_set)
        reparsed, diagnostics = parse_document(text)
        assert diagnostics == []
        assert reparsed == chain_set
    rng = random.Random(CORPUS_SEED + 1)
    for _ in range(1000):
        base = serialize_document(random_chain_set(rng, max_chains=6, max_len=8, max_pool=12))
        chain_set, diagnostics = parse_document(mutate_text(rng, base))
        assert isinstance(chain_set, ChainSet)
        assert isinstance(diagnostics, list)
    _report(7, f"round-trip exact on {len(corpus)} chain sets; parser total on 1000 corrupted documents")


def test_criterion_8_deterministic_outputs(tmp_path):
    chain_files = [str(DATA / "chains" / name) for name in ("burn.chains", "shock.chains", "poisoning.chains")]
    commands = {
        "matrix.csv": ["matrix", *chain_files],
        "report.csv": ["analyze", "--from-sums", str(AS_PRINTED)],
        "plot.svg": ["plot", "--from-sums", str(AS_PRINTED)],
        "network.dot": ["dot", *chain_files],
    }
    for name, argv in commands.items():
        first = tmp_path / f"one_{name}"
        second = tmp_path / f"two_{name}"
        assert main([*argv, "-o", str(first)]) == 0
        assert main([*argv, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} not byte-identical"
    _report(8, "matrix CSV, report CSV, scatter SVG, and DOT are byte-identical across runs")


def test_criterion_9_harm_terminality(corpus, tmp_path):
    for chain_set in corpus:
        table = sums(build_matrix(chain_set))
        for factor, active in zip(table.factors, table.active):
            if factor.category is FactorCategory.HARM:
                assert active == 0
    # chains whose harm is not terminal are rejected with exit code 1
    rng = random.Random(CORPUS_SEED + 2)
    rejected = 0
    for index in range(20):
        chain_set = random_chain_set(rng, max_chains=4, max_len=8, max_pool=10)
        chains = [c for c in chain_set.chains if len(c) >= 2]
        if not chains:
            continue
        chain = chains[0]
        steps = list(chain.steps)
        steps.insert(rng.randrange(len(steps) - 1), steps.pop())  # move the harm inward
        lines = [f"alert: {chain.source_alert}", f"case: {chain.case_label}"]
        lines += [f'{cat.value} "{_escape_name(name)}"' for cat, name in steps]
        path = tmp_path / f"nonterminal_{index}.chains"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        rejected += 1
    assert rejected >= 10
    _report(9, f"harm factors always have active sum 0; {rejected} non-terminal-harm "
               "documents rejected with exit code 1")
