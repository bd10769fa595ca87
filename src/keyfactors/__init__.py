"""Failure-chain key-factor analysis.

Parse analyst-authored failure sequence chains, aggregate them into a
weighted influence-factor relationship matrix, score every factor
(active/passive sums, normalized values, competition ranks, region,
key flag), and export reports, scatter diagrams, and network graphs.

Public names resolve on first use (PEP 562), so ``import keyfactors``
loads no submodule and a command pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "AlertRecord": "rapex",
    "AnalysisConfig": "analysis",
    "ChainSet": "model",
    "ChainValidationError": "model",
    "Diagnostic": "model",
    "EmptyNameError": "model",
    "Factor": "model",
    "FactorCategory": "model",
    "FactorScore": "analysis",
    "FailureChain": "model",
    "MalformedRecordError": "rapex",
    "Region": "analysis",
    "RelationshipMatrix": "matrix",
    "Severity": "model",
    "SumsTable": "matrix",
    "Violation": "model",
    "analyze": "analysis",
    "brute_force_sums": "matrix",
    "build_matrix": "matrix",
    "classify": "analysis",
    "competition_rank": "matrix",
    "export_dot": "emit",
    "export_matrix_csv": "emit",
    "export_report_csv": "emit",
    "import_rapex": "rapex",
    "merge": "matrix",
    "normalize_name": "model",
    "parse_alert_records": "rapex",
    "parse_document": "dsl",
    "render_scatter_svg": "emit",
    "serialize_document": "dsl",
    "sums": "matrix",
    "validate_chain": "model",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
