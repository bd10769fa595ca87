"""Seeded input generator for the keyfactors benchmark.

Writes one workload's inputs into a directory: ``.chains`` corpus files,
a published-sums CSV, an alert-record JSON file, and ``expected.json``
holding the corpus shape and every value the output checks compare
against. The expected values come from the generator's own bookkeeping
and from ``keyfactors.matrix.brute_force_sums`` (the library's
independent oracle), never from the CLI under test.

Usage::

    python3 bench/gen.py --workload chains-large --seed 1 --out DIR

The same workload and seed always give the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from checks import canonical
from keyfactors.matrix import brute_force_sums
from keyfactors.model import ChainSet, FactorCategory, FailureChain

NON_HARM = [c for c in FactorCategory if c is not FactorCategory.HARM]


@dataclass(frozen=True)
class Shape:
    """Generation parameters of one workload."""

    files: int
    chains: int
    min_steps: int
    max_steps: int
    pool: int  # distinct factors, harms included
    harms: int
    skew: float  # Zipf exponent of factor popularity; 0 is uniform
    defect_share: float  # share of chains that get one injected defect
    alert_records: int  # records for import-rapex, repeating...
    distinct_alerts: int  # ...this many alerts


WORKLOADS: dict[str, Shape] = {
    "chains-large": Shape(
        files=8, chains=1_400, min_steps=4, max_steps=18, pool=480, harms=24,
        skew=0.8, defect_share=0.0, alert_records=2_000, distinct_alerts=20,
    ),
    "factors-wide": Shape(
        files=4, chains=1_000, min_steps=2, max_steps=10, pool=1_500, harms=75,
        skew=0.0, defect_share=0.0, alert_records=2_000, distinct_alerts=20,
    ),
    "intake": Shape(
        files=8, chains=1_400, min_steps=4, max_steps=18, pool=480, harms=24,
        skew=0.8, defect_share=0.2, alert_records=6_000, distinct_alerts=60,
    ),
}

# Injected defects: the key is the rule recorded in the shape, the value
# the text every diagnostic for such a chain must contain.
DEFECTS = {
    "unterminated_quote": "unterminated quoted name",
    "bad_escape": "invalid escape",
    "unknown_category": "unknown category",
    "text_after_name": "unexpected text after the quoted name",
    "harm_not_last": "HarmNotTerminal:",
    "self_transition": "SelfTransition:",
    "missing_harm": "MissingHarm:",
    "too_short": "TooShort:",
}

_WORDS = {
    FactorCategory.COMPONENT: ["housing", "plug", "cable", "switch", "heating element", "fan",
                               "motor", "thermostat", "fuse", "battery", "valve", "gasket"],
    FactorCategory.FUNCTION: ["heat air", "insulate", "conduct current", "seal", "cool",
                              "hold charge", "limit temperature", "regulate flow"],
    FactorCategory.CONTROL_FACTOR: ["power I [A]", "voltage U [V]", "temperature Q [J]",
                                    "pressure p [bar]", "speed n [rpm]", "lead content [%]"],
    FactorCategory.NOISE_FACTOR: ["humidity", "ambient heat", "wear", "vibration", "dust",
                                  "ageing", "mains surge"],
    FactorCategory.ACTION: ["operation without breaks", "child mouths part", "drop on floor",
                            "cover vents", "use in bathroom", "open casing"],
    FactorCategory.EFFECT: ["Joule-Lenz-Heating", "creep", "arcing", "melting", "leaching",
                            "short circuit", "deformation"],
    FactorCategory.HARM: ["burn", "electric shock", "fire", "poisoning", "choking", "cuts"],
}

RISKS = ["burn", "electric shock", "fire", "choking", "injuries", "chemical", "poisoning",
         "suffocation", "strangulation", "cuts", "hearing damage", "damage to sight",
         "drowning", "environment", "microbiological"]


def escape(name: str) -> str:
    return name.replace("\\", "\\\\").replace('"', '\\"')


def _pool(rng: random.Random, shape: Shape) -> tuple[list, list]:
    """Distinct (category, name) factors: non-harm ones and harms."""
    def make(category: FactorCategory, i: int) -> tuple[FactorCategory, str]:
        word = rng.choice(_WORDS[category])
        if i % 37 == 5:
            return category, f'{word} "type {i}"'
        if i % 53 == 7:
            return category, f"{word} \\ variant {i}"
        return category, f"{word} {i}"

    non_harm = [make(NON_HARM[i % len(NON_HARM)], i) for i in range(shape.pool - shape.harms)]
    harms = [make(FactorCategory.HARM, shape.pool + i) for i in range(shape.harms)]
    return non_harm, harms


def _spelling(rng: random.Random, name: str) -> str:
    """One written form of a name; about one in ten is a variant spelling."""
    roll = rng.random()
    if roll < 0.04:
        return name.upper()
    if roll < 0.07:
        return name.replace(" ", "  ", 1)
    if roll < 0.10:
        return f" {name}"
    return name


def _cum_weights(n: int, skew: float) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += rank ** -skew
        out.append(total)
    return out


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the workload's inputs into ``out`` and return expected.json's content.

    ``scale`` below 1 shrinks the corpus and alert set, for the self-test.
    """
    shape = WORKLOADS[workload]
    if scale != 1.0:
        shape = replace(
            shape,
            chains=max(shape.files * 4, int(shape.chains * scale)),
            pool=max(40, int(shape.pool * scale)),
            harms=max(4, int(shape.harms * scale)),
            alert_records=max(20, int(shape.alert_records * scale)),
            distinct_alerts=max(5, int(shape.distinct_alerts * scale)),
        )
    rng = random.Random(f"{workload}/{seed}")
    non_harm, harms = _pool(rng, shape)
    rng.shuffle(non_harm)
    non_harm_cw = _cum_weights(len(non_harm), shape.skew)
    harm_cw = _cum_weights(len(harms), shape.skew)

    out.mkdir(parents=True, exist_ok=True)
    kinds = list(DEFECTS)
    injected_by_rule = {kind: 0 for kind in kinds}
    injected: list[list] = []  # [file name, first line, last line, rule, marker]
    accepted: list[FailureChain] = []
    own_sums: dict[tuple[str, str], list[int]] = {}  # identity -> [active, passive]
    pairs: set[tuple] = set()
    corpus_files, accepted_files = [], []
    corpus_bytes = accepted_bytes = steps_total = 0

    per_file = [shape.chains // shape.files + (i < shape.chains % shape.files) for i in range(shape.files)]
    chain_no = 0
    for file_index, count in enumerate(per_file):
        file_name = f"corpus-{file_index:02d}.chains"
        lines: list[str] = []
        clean_blocks: list[str] = []
        for _ in range(count):
            chain_no += 1
            n = rng.randint(shape.min_steps, shape.max_steps)
            steps: list[tuple[FactorCategory, str]] = []
            previous = None
            while len(steps) < n - 1:
                factor = rng.choices(non_harm, cum_weights=non_harm_cw)[0]
                if factor == previous:
                    continue
                steps.append(factor)
                previous = factor
            steps.append(rng.choices(harms, cum_weights=harm_cw)[0])
            written = [(c, _spelling(rng, name)) for c, name in steps]
            alert, case = f"A12/{chain_no:05d}/23", steps[-1][1]
            header = [f"alert: {alert}", f"case: {case}"]
            if rng.random() < 0.05:
                header.append("# transcribed from the alert text")
            body = [f'{c.value} "{escape(name)}"' for c, name in written]

            rule = None
            if rng.random() < shape.defect_share:
                rule = kinds[len(injected) % len(kinds)]
                body = _inject(rng, rule, body, written, harms)
            if lines:
                lines.append("---")
            first = len(lines) + 1
            lines.extend(header + body)
            if rule is not None:
                injected.append([file_name, first, len(lines), rule, DEFECTS[rule]])
                injected_by_rule[rule] += 1
                continue
            clean_blocks.append("\n".join(header + body))
            accepted.append(FailureChain(alert, case, tuple(written)))
            steps_total += len(steps)
            keys = [(c.value, canonical(name)) for c, name in steps]
            for key in keys:
                own_sums.setdefault(key, [0, 0])
            for source, target in zip(keys, keys[1:]):
                own_sums[source][0] += 1
                own_sums[target][1] += 1
            pairs.update(zip(keys, keys[1:]))

        text = "\n".join(lines) + "\n"
        (out / file_name).write_text(text, encoding="utf-8")
        corpus_files.append(file_name)
        corpus_bytes += len(text.encode())
        if shape.defect_share:
            text = "\n---\n".join(clean_blocks) + "\n"
            path = out / f"accepted-{file_index:02d}.chains"
            path.write_text(text, encoding="utf-8")
            accepted_files.append(path.name)
            accepted_bytes += len(text.encode())
    if not accepted_files:
        accepted_files, accepted_bytes = corpus_files, corpus_bytes

    table = brute_force_sums(ChainSet(tuple(accepted)))
    oracle = {(f.category.value, f.canonical_key): [a, p]
              for f, a, p in zip(table.factors, table.active, table.passive)}
    if oracle != own_sums:
        raise RuntimeError("brute_force_sums disagrees with the generator's own counts")
    transitions = steps_total - len(accepted)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "category", "name", "active_sum", "passive_sum"])
    writer.writerows([f.id, f.category.value, f.display_name, a, p]
                     for f, a, p in zip(table.factors, table.active, table.passive))
    (out / "sums.csv").write_text(buffer.getvalue(), encoding="utf-8")

    alert_pairs = _write_alerts(rng, shape.alert_records, shape.distinct_alerts, out / "alerts.json")

    factors = len(table)
    return {
        "workload": workload,
        "seed": seed,
        "corpus_files": corpus_files,
        "accepted_files": accepted_files,
        "shape": {
            "corpus_bytes": corpus_bytes,
            "accepted_bytes": accepted_bytes,
            "chains": shape.chains,
            "chains_accepted": len(accepted),
            "steps": steps_total,
            "transitions": transitions,
            "factors": factors,
            "nonzero_cells": len(pairs),
            "density": len(pairs) / factors**2 if factors else 0.0,
            "defects_by_rule": injected_by_rule,
            "alert_records": shape.alert_records,
            "distinct_alerts": shape.distinct_alerts,
            "skeletons": len(alert_pairs),
        },
        "injected": injected,
        "sums": [[*key, a, p] for key, (a, p) in oracle.items()],
        "alert_pairs": sorted(alert_pairs),
    }


def _inject(rng, rule, body, written, harms):
    """Return ``body`` with one defect of kind ``rule``."""
    body = list(body)
    i = rng.randrange(len(body) - 1)  # a non-harm step
    category, name = written[i]
    if rule == "unterminated_quote":
        body[i] = body[i][:-1]
    elif rule == "bad_escape":
        body[i] = f'{category.value} "{escape(name)}\\q"'
    elif rule == "unknown_category":
        body[i] = f'widget "{escape(name)}"'
    elif rule == "text_after_name":
        body[i] = body[i] + " extra"
    elif rule == "harm_not_last":
        harm = rng.choice(harms)[1]
        body.insert(i + 1, f'harm "{escape(harm)}"')
    elif rule == "self_transition":
        body.insert(i + 1, f'{category.value} "{escape(name.upper())}"')
    elif rule == "missing_harm":
        body.pop()
    elif rule == "too_short":
        body = body[-1:]
    return body


def _write_alerts(rng: random.Random, count: int, distinct: int, path: Path) -> set[tuple[str, str]]:
    """Write ``count`` records that repeat ``distinct`` alerts, as overlapping
    exports do; return the distinct (alert, case) pairs they hold."""
    alerts = []
    for i in range(distinct):
        # Fixed risk counts (1, 2, 3, ..., none for every 20th alert), so the
        # number of skeletons, and the import's work, is the same for every seed.
        risks = [] if i % 20 == 19 else rng.sample(RISKS, i % 3 + 1)
        alerts.append((f"A12/{i:05d}/23", risks))
    records, pairs = [], set()
    for i in range(count):
        alert, risks = rng.choice(alerts)
        shown = rng.sample(risks, len(risks))  # each export lists the risks in its own order
        records.append({
            "alertNumber": alert,
            "product": f"product {alert}",
            "risk": ", ".join(shown) if rng.random() < 0.3 else shown,
            "description": f"Export {i}: defect found in a sample.\nRecall ordered.",
        })
        pairs.update((alert, risk) for risk in (risks or ["unspecified"]))
    path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    expected = generate(args.workload, args.seed, args.out)
    (args.out / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
