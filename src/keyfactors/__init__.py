"""Failure-chain key-factor analysis.

Parse analyst-authored failure sequence chains, aggregate them into a
weighted influence-factor relationship matrix, score every factor
(active/passive sums, normalized values, competition ranks, region,
key flag), and export reports, scatter diagrams, and network graphs.
"""

from keyfactors.analysis import (
    AnalysisConfig,
    FactorScore,
    Region,
    analyze,
    classify,
    competition_rank,
    format_display,
    normalize_sums,
)
from keyfactors.dsl import Diagnostic, Severity, parse_document, serialize_document
from keyfactors.emit import (
    PlotLayout,
    export_dot,
    export_matrix_csv,
    export_report_csv,
    render_scatter_svg,
)
from keyfactors.matrix import (
    RelationshipMatrix,
    SumsTable,
    brute_force_sums,
    build_matrix,
    merge,
    sums,
)
from keyfactors.model import (
    ChainSet,
    ChainValidationError,
    EmptyNameError,
    Factor,
    FactorCategory,
    FailureChain,
    Violation,
    normalize_name,
    validate_chain,
)
from keyfactors.rapex import (
    AlertRecord,
    MalformedRecordError,
    import_rapex,
    parse_alert_records,
)

__version__ = "0.1.0"

__all__ = [
    "AlertRecord",
    "AnalysisConfig",
    "ChainSet",
    "ChainValidationError",
    "Diagnostic",
    "EmptyNameError",
    "Factor",
    "FactorCategory",
    "FactorScore",
    "FailureChain",
    "MalformedRecordError",
    "PlotLayout",
    "Region",
    "RelationshipMatrix",
    "Severity",
    "SumsTable",
    "Violation",
    "analyze",
    "brute_force_sums",
    "build_matrix",
    "classify",
    "competition_rank",
    "export_dot",
    "export_matrix_csv",
    "export_report_csv",
    "format_display",
    "import_rapex",
    "merge",
    "normalize_name",
    "normalize_sums",
    "parse_alert_records",
    "parse_document",
    "render_scatter_svg",
    "serialize_document",
    "sums",
    "validate_chain",
]
