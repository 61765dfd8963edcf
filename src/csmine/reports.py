"""Result summaries and report serialization.

A mining run produces per-group lists of annotated contrast sets. This
module turns them into summary metrics (mean support and precision over
all sets, plus a histogram of how many own-group sets cover each example),
filters redundant sets, and reads and writes the CSV and JSON report
formats used by the command line tools.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .contrast import cover, parse_conditions, render_conditions
from .data import DataSet, _read_text, _write_text
from .induction import AnnotatedContrastSet, MiningParams

__all__ = [
    "ReportMetrics",
    "summarize",
    "filter_redundancy",
    "write_csv_report",
    "read_csv_report",
    "write_json_report",
    "read_json_report",
]

CSV_COLUMNS = (
    "group",
    "conditions",
    "pass",
    "minsupp_all",
    "p",
    "n",
    "p_new",
    "quality",
    "redundancy",
)
# what _read_set needs of a record: the CSV fields after the group, plus
# the group sizes, which a CSV reader takes from the dataset
_RECORD_KEYS = CSV_COLUMNS[1:] + ("P", "N")


@dataclass(frozen=True)
class ReportMetrics:
    """Pooled metrics over every emitted set of a run.

    ``coverage_counts[k]`` is the number of examples covered by exactly k
    of the sets mined for the example's own group.
    """

    n_sets: int
    mean_support: float
    mean_precision: float
    coverage_counts: dict[int, int]

    def covered_by(self, k: int) -> int:
        return self.coverage_counts.get(k, 0)

    def to_dict(self) -> dict:
        return {
            "sets": self.n_sets,
            "mean_support": self.mean_support,
            "mean_precision": self.mean_precision,
            "coverage_counts": {str(k): v for k, v in sorted(self.coverage_counts.items())},
        }


def summarize(results: dict[str, list[AnnotatedContrastSet]], ds: DataSet) -> ReportMetrics:
    """Support and precision means plus the own-group coverage histogram.

    Supports and precisions come from the statistics recorded at acceptance
    (so one-vs-one sets keep their mining-universe precision); the coverage
    histogram is recomputed against ``ds``.
    """
    all_sets = [a for sets in results.values() for a in sets]
    if all_sets:
        mean_support = sum(a.support for a in all_sets) / len(all_sets)
        mean_precision = sum(a.precision for a in all_sets) / len(all_sets)
    else:
        mean_support = 0.0
        mean_precision = 0.0
    per_example = np.zeros(ds.n_examples, dtype=np.int64)
    for g, sets in results.items():
        if not sets:
            continue
        gmask = ds.group_mask(g)
        depth = np.zeros(ds.n_examples, dtype=np.int64)
        for a in sets:
            depth += cover(a.contrast_set, ds)
        per_example[gmask] = depth[gmask]
    counts: dict[int, int] = {}
    in_scope = np.zeros(ds.n_examples, dtype=bool)
    for g in results:
        in_scope |= ds.group_mask(g)
    values, freq = np.unique(per_example[in_scope], return_counts=True)
    for v, f in zip(values, freq):
        counts[int(v)] = int(f)
    return ReportMetrics(
        n_sets=len(all_sets),
        mean_support=mean_support,
        mean_precision=mean_precision,
        coverage_counts=counts,
    )


def filter_redundancy(
    results: dict[str, list[AnnotatedContrastSet]] | list[AnnotatedContrastSet],
    threshold: float,
) -> dict[str, list[AnnotatedContrastSet]] | list[AnnotatedContrastSet]:
    """Keep sets whose recorded redundancy stays below the threshold, which must not be NaN."""
    if threshold != threshold:
        raise ValueError("redundancy threshold must not be NaN")
    if isinstance(results, dict):
        return {g: [a for a in sets if a.redundancy < threshold] for g, sets in results.items()}
    return [a for a in results if a.redundancy < threshold]


def _set_dict(a: AnnotatedContrastSet, ds: DataSet) -> dict:
    """The report record of one set: a JSON report's set object, and, after
    the group, the fields of a CSV row (``CSV_COLUMNS``)."""
    return {
        "conditions": render_conditions(a.contrast_set, ds),
        "pass": a.pass_index,
        "minsupp_all": a.minsupp_all,
        "p": a.p,
        "n": a.n,
        "p_new": a.p_new,
        "P": a.P,
        "N": a.N,
        "support": a.support,
        "precision": a.precision,
        "quality": a.quality,
        "redundancy": a.redundancy,
    }


def _read_set(rec, g: str, ds: DataSet, where: str = "", sizes: dict | None = None) -> AnnotatedContrastSet:
    """The annotated set of one report record of group ``g``; the inverse of
    :func:`_set_dict`. Support and precision are derived, not read.

    A CSV row has no group sizes: its reader passes ``sizes``, a per-group
    cache, and P and N come from the dataset. Raises ``ValueError`` naming
    the group, after ``where`` (the report line of a CSV row), when the
    dataset has no such group, or when the record is not a mapping of the
    fields this reads or holds a value of the wrong kind.
    """
    at = f"{where}group {g!r}"
    if g not in ds.groups:
        raise ValueError(f"{at}: the dataset has no such group")
    if sizes is not None:
        if g not in sizes:
            sizes[g] = int(np.count_nonzero(ds.group_mask(g)))
        rec["P"], rec["N"] = sizes[g], ds.n_examples - sizes[g]
    if not isinstance(rec, dict):
        raise ValueError(f"{at}: a set must be an object of fields, got {rec!r}")
    missing = [k for k in _RECORD_KEYS if k not in rec]
    if missing:
        raise ValueError(f"{at}: a set lacks the field {missing[0]!r}")
    if not isinstance(rec["conditions"], str):
        raise ValueError(f"{at}: conditions must be a string, got {rec['conditions']!r}")
    try:
        return AnnotatedContrastSet(
            contrast_set=parse_conditions(rec["conditions"], g, ds),
            group=g,
            pass_index=int(rec["pass"]),
            minsupp_all=float(rec["minsupp_all"]),
            p=int(rec["p"]),
            n=int(rec["n"]),
            p_new=int(rec["p_new"]),
            P=int(rec["P"]),
            N=int(rec["N"]),
            quality=float(rec["quality"]),
            redundancy=float(rec["redundancy"]),
            redundancy_with=None,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{at}: {exc}") from None


def write_csv_report(results: dict[str, list[AnnotatedContrastSet]], ds: DataSet, out=None) -> str:
    """One row per contrast set, groups in mining order."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for g, sets in results.items():
        for a in sets:
            rec = _set_dict(a, ds)
            writer.writerow([g] + [rec[k] for k in CSV_COLUMNS[1:]])
    return _write_text(buf.getvalue(), out)


def read_csv_report(source, ds: DataSet) -> dict[str, list[AnnotatedContrastSet]]:
    """Rebuild annotated sets from a CSV report; needs the dataset for the
    attribute bindings and group sizes.

    ``source`` is a readable stream, a ``Path``, or a string: a string
    without a newline is a path, any other string is the report text.
    """
    reader = csv.reader(io.StringIO(_read_text(source)), quoting=csv.QUOTE_NONNUMERIC)

    def rows():
        # the reader raises on a malformed line or on an unquoted cell that
        # is not a number; errors of the loop below are not caught here
        try:
            yield from reader
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None

    results: dict[str, list[AnnotatedContrastSet]] = {}
    sizes: dict[str, int] = {}
    lines = rows()
    header = next(lines, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise ValueError("unrecognized report header")
    for row in lines:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"line {reader.line_num}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
        rec = dict(zip(CSV_COLUMNS, row))
        g = rec["group"]
        results.setdefault(g, []).append(_read_set(rec, g, ds, f"line {reader.line_num}, ", sizes))
    return results


def write_json_report(
    results: dict[str, list[AnnotatedContrastSet]],
    ds: DataSet,
    params: MiningParams,
    out=None,
    redundancy_threshold: float | None = None,
) -> str:
    """Full run report. With a redundancy threshold the listed sets are the
    filtered ones and the unfiltered metrics ride along for comparison."""
    if redundancy_threshold is not None:
        kept = filter_redundancy(results, redundancy_threshold)
        metrics = summarize(kept, ds)
        before = summarize(results, ds)
    else:
        kept = results
        metrics = summarize(results, ds)
        before = None
    doc = {
        "dataset": {
            "relation": ds.relation,
            "examples": ds.n_examples,
            "attributes": [a.name for a in ds.attributes],
            "task": ds.task,
            "groups": {g: int(np.count_nonzero(ds.group_mask(g))) for g in results},
        },
        "params": asdict(params),
        "groups": {g: [_set_dict(a, ds) for a in sets] for g, sets in kept.items()},
        "metrics": metrics.to_dict(),
    }
    if redundancy_threshold is not None:
        doc["redundancy_threshold"] = redundancy_threshold
        doc["metrics_before_filter"] = before.to_dict()
    return _write_text(json.dumps(doc, indent=2) + "\n", out)


def read_json_report(source, ds: DataSet) -> dict[str, list[AnnotatedContrastSet]]:
    """Annotated sets from a JSON report, statistics taken at face value.

    ``source`` is read as for :func:`read_csv_report`: a readable stream, a
    ``Path``, a string without a newline as a path, any other string as
    the report text.
    """
    try:
        doc = json.loads(_read_text(source))
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise ValueError("a JSON report must not nest arrays or objects this deeply") from None
    groups = doc.get("groups") if isinstance(doc, dict) else None
    if not isinstance(groups, dict) or not all(isinstance(sets, list) for sets in groups.values()):
        raise ValueError('a JSON report must be an object whose "groups" maps each group to a list of sets')
    return {g: [_read_set(rec, g, ds) for rec in sets] for g, sets in groups.items()}
