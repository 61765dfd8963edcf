"""Contrast set mining for classification, regression and survival data.

Contrast sets are conjunctions of attribute conditions that cover a large
share of one group of examples and few of the others. The miner runs
separate-and-conquer covering passes over a ladder of support levels and
penalizes reused attributes between passes, trading a little quality for
premise diversity.
"""

from .contrast import (
    Condition,
    ConfusionMatrix,
    ContrastSet,
    canonicalize,
    condition_mask,
    cover,
    is_duplicate,
    parse_conditions,
    render_conditions,
)
from .data import (
    ArffError,
    Attribute,
    DataSet,
    derive_groups_regression,
    derive_groups_survival,
    load_arff,
    parse_arff,
    write_arff,
)
from .diversity import (
    PenaltyState,
    attribute_penalty,
    modified_quality,
    premise_penalty,
    redundancy,
    reward,
    similarity,
)
from .induction import (
    AnnotatedContrastSet,
    MiningEvent,
    MiningParams,
    grow,
    mine_all,
    mine_group,
    prune,
)
from .quality import (
    KMCurve,
    correlation,
    km_estimate,
    log_rank,
    measure_for_task,
    regression_consistency,
    survival_consistency,
)
from .reports import (
    ReportMetrics,
    filter_redundancy,
    read_csv_report,
    read_json_report,
    summarize,
    write_csv_report,
    write_json_report,
)
from .synthetic import ClusterSpec, SyntheticSpec, default_spec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "ArffError",
    "Attribute",
    "DataSet",
    "derive_groups_regression",
    "derive_groups_survival",
    "load_arff",
    "parse_arff",
    "write_arff",
    "Condition",
    "ConfusionMatrix",
    "ContrastSet",
    "canonicalize",
    "condition_mask",
    "cover",
    "is_duplicate",
    "parse_conditions",
    "render_conditions",
    "KMCurve",
    "correlation",
    "km_estimate",
    "log_rank",
    "measure_for_task",
    "regression_consistency",
    "survival_consistency",
    "PenaltyState",
    "attribute_penalty",
    "premise_penalty",
    "reward",
    "modified_quality",
    "similarity",
    "redundancy",
    "AnnotatedContrastSet",
    "MiningEvent",
    "MiningParams",
    "grow",
    "prune",
    "mine_group",
    "mine_all",
    "ReportMetrics",
    "summarize",
    "filter_redundancy",
    "write_csv_report",
    "read_csv_report",
    "write_json_report",
    "read_json_report",
    "ClusterSpec",
    "SyntheticSpec",
    "default_spec",
    "generate_synthetic",
    "__version__",
]
