"""In-memory spans around the public functions of keyfactors' layers.

A span is ``[id, parent id, run id, name, start, end, counts]``. The
spans of one command's pipeline share a run id. ``instrumented`` swaps
each layer function listed in ``LAYER_FUNCTIONS`` for a span-recording
wrapper in every module that binds it, so calls between layers are
recorded without changing the program; it puts the originals back on
exit. Hot per-step helpers such as ``normalize_name`` are left
unwrapped: a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from types import ModuleType

LAYER_FUNCTIONS = {
    "dsl": ["parse_document", "serialize_document"],
    "model": ["validate_chain"],
    "matrix": ["build_matrix", "sums", "merge"],
    "analysis": ["analyze", "competition_rank"],
    "emit": ["export_matrix_csv", "export_report_csv", "render_scatter_svg", "export_dot"],
    "rapex": ["parse_alert_records", "import_rapex"],
}

# Counts recorded at the boundary, from the wrapped call's result.
COUNTERS = {
    "dsl.parse_document": lambda r: {"chains": len(r[0]), "diagnostics": len(r[1])},
    "analysis.analyze": lambda r: {"factors": len(r)},
    "rapex.parse_alert_records": lambda r: {"records": len(r)},
    "rapex.import_rapex": lambda r: {"skeletons": len(r[0]), "warnings": len(r[1])},
}


class Tracer:
    """Collects spans in memory; callers write them out when done."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run: str | None = None

    def _open(self, name: str) -> list:
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.run, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, run: str | None = None, **counts):
        previous_run = self.run
        if run is not None:
            self.run = run
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)
            record[6] = counts or None
            self.run = previous_run

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count is not None:
                record[6] = count(result)
            return result

        return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer, layers: dict[str, ModuleType], others: list[ModuleType]):
    """Route every binding of a listed layer function through a span wrapper."""
    wrappers = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            fn = getattr(layers[layer], name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    patched = []
    for module in [*layers.values(), *others]:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per run id, the summed self time of each span name.

    A span's self time is its duration minus its direct children's
    durations (children of one span never overlap here).
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        out[span[2]][span[3]] += span[5] - span[4] - child_time[span[0]]
    return out


def counts(spans: list[list], run: str, name: str) -> dict[str, int]:
    """Summed counters of the spans called ``name`` in one run."""
    total: dict[str, int] = defaultdict(int)
    for span in spans:
        if span[2] == run and span[3] == name and span[6]:
            for key, value in span[6].items():
                total[key] += value
    return dict(total)
