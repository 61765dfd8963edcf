"""Metrics, redundancy filtering, CSV and JSON report round trips."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from csmine.contrast import Condition, ContrastSet, cover, render_conditions
from csmine.data import Attribute, DataSet
from csmine.induction import AnnotatedContrastSet, MiningParams, mine_all
from csmine.reports import (
    CSV_COLUMNS,
    ReportMetrics,
    filter_redundancy,
    read_csv_report,
    read_json_report,
    summarize,
    write_csv_report,
    write_json_report,
)
from csmine.synthetic import generate_synthetic


def tiny_ds():
    attrs = (Attribute("x", "numeric"),)
    return DataSet(attrs, [np.array([1.0, 2.0, 3.0, 4.0])], relation="tiny",
                   task="classification", group_names=("g1", "g2"),
                   group_codes=np.array([0, 0, 1, 1], dtype=np.int32))


def _annotated(cs, ds, **over):
    pos = ds.group_mask(cs.group)
    P = int(np.count_nonzero(pos))
    cov = cover(cs, ds)
    p = int(np.count_nonzero(cov & pos))
    base = dict(
        contrast_set=cs, group=cs.group, pass_index=1, minsupp_all=0.5,
        p=p, n=int(np.count_nonzero(cov)) - p, p_new=p, P=P, N=ds.n_examples - P,
        quality=0.5, redundancy=0.0, redundancy_with=None,
    )
    base.update(over)
    return AnnotatedContrastSet(**base)


def synthetic_run():
    ds = generate_synthetic()
    return ds, MiningParams(), mine_all(ds)


# ---------------------------------------------------------------------------
# summarize

def test_summarize_worked_example():
    ds = tiny_ds()
    a = _annotated(ContrastSet((Condition(0, "lt", 3.5),), "g1"), ds)  # covers 0,1,2
    b = _annotated(ContrastSet((Condition(0, "ge", 3.5),), "g2"), ds)  # covers 3
    metrics = summarize({"g1": [a], "g2": [b]}, ds)
    assert metrics.n_sets == 2
    assert metrics.mean_support == (1.0 + 0.5) / 2
    assert metrics.mean_precision == (2 / 3 + 1.0) / 2
    # own-group depth: examples 0,1 covered by a; 3 by b; 2 by nothing of g2's
    assert metrics.coverage_counts == {0: 1, 1: 3}
    assert metrics.covered_by(0) == 1
    assert metrics.covered_by(7) == 0


def test_summarize_scope_follows_result_groups():
    ds = tiny_ds()
    a = _annotated(ContrastSet((Condition(0, "lt", 3.5),), "g1"), ds)
    metrics = summarize({"g1": [a]}, ds)
    # only g1's two examples are in scope
    assert sum(metrics.coverage_counts.values()) == 2
    assert metrics.coverage_counts == {1: 2}


def test_summarize_empty():
    ds = tiny_ds()
    metrics = summarize({}, ds)
    assert metrics == ReportMetrics(0, 0.0, 0.0, {})
    # a mined group with no surviving sets is still in scope for the histogram
    metrics = summarize({"g1": []}, ds)
    assert metrics.n_sets == 0
    assert metrics.mean_support == 0.0
    assert metrics.coverage_counts == {0: 2}


def test_summarize_to_dict():
    ds = tiny_ds()
    a = _annotated(ContrastSet((Condition(0, "lt", 3.5),), "g1"), ds)
    d = summarize({"g1": [a]}, ds).to_dict()
    assert d["sets"] == 1
    assert d["coverage_counts"] == {"1": 2}


# ---------------------------------------------------------------------------
# redundancy filter

def test_filter_redundancy_is_strictly_below():
    ds = tiny_ds()
    lo = _annotated(ContrastSet((Condition(0, "lt", 3.5),), "g1"), ds, redundancy=0.49)
    at = _annotated(ContrastSet((Condition(0, "lt", 2.5),), "g1"), ds, redundancy=0.5)
    hi = _annotated(ContrastSet((Condition(0, "lt", 1.5),), "g1"), ds, redundancy=0.51)
    kept = filter_redundancy({"g1": [lo, at, hi]}, 0.5)
    assert kept == {"g1": [lo]}
    assert filter_redundancy([lo, at, hi], 0.5) == [lo]
    # idempotent
    assert filter_redundancy(kept, 0.5) == kept


# ---------------------------------------------------------------------------
# CSV report

def test_csv_header_and_quoting():
    ds, params, results = synthetic_run()
    text = write_csv_report(results, ds)
    lines = text.splitlines()
    assert lines[0] == '"group","conditions","pass","minsupp_all","p","n","p_new","quality","redundancy"'
    assert lines[1].startswith('"red","a3 != 3 AND a3 != 4",1,0.8,162,6,162,')
    assert len(lines) == 1 + sum(len(s) for s in results.values())


def test_csv_round_trip(tmp_path):
    ds, params, results = synthetic_run()
    path = tmp_path / "report.csv"
    write_csv_report(results, ds, out=path)
    back = read_csv_report(path, ds)
    assert set(back) == set(results)
    for g in results:
        want = [dataclasses.replace(a, redundancy_with=None) for a in results[g]]
        assert back[g] == want


def test_csv_round_trip_from_text_and_stream():
    import io
    ds, params, results = synthetic_run()
    text = write_csv_report(results, ds)
    assert read_csv_report(text, ds) == read_csv_report(io.StringIO(text), ds)


def test_readers_take_a_one_line_string_as_a_path(tmp_path):
    ds, params, results = synthetic_run()
    header = write_csv_report({}, ds)
    assert header.count("\n") == 1
    empty_doc = json.dumps({"groups": {}})
    for read, text in ((read_csv_report, header), (read_json_report, empty_doc)):
        one_line = text.rstrip("\n")
        with pytest.raises(FileNotFoundError) as info:
            read(one_line, ds)
        assert info.value.filename == one_line
        # with a newline the same string is the report text
        assert read(one_line + "\n", ds) == {}
    path = tmp_path / "report.csv"
    write_csv_report(results, ds, out=path)
    assert read_csv_report(str(path), ds) == read_csv_report(path, ds) == read_csv_report(path.read_text(), ds)
    write_json_report(results, ds, params, out=path)
    assert read_json_report(str(path), ds) == read_json_report(path, ds)


def test_csv_rejects_unknown_header():
    ds = tiny_ds()
    with pytest.raises(ValueError, match="unrecognized report header"):
        read_csv_report('"a","b"\n"1","2"\n', ds)


def test_csv_rows_are_self_consistent():
    """Every row's counts must be reproducible from its printed conditions."""
    ds, params, results = synthetic_run()
    back = read_csv_report(write_csv_report(results, ds), ds)
    for g, sets in back.items():
        pos = ds.group_mask(g)
        for a in sets:
            cov = cover(a.contrast_set, ds)
            assert np.count_nonzero(cov & pos) == a.p
            assert np.count_nonzero(cov) - a.p == a.n
            assert a.support == a.p / a.P
            assert a.precision == a.p / (a.p + a.n)


# ---------------------------------------------------------------------------
# JSON report

def test_json_report_document_shape():
    ds, params, results = synthetic_run()
    doc = json.loads(write_json_report(results, ds, params))
    assert doc["dataset"]["relation"] == "synthetic"
    assert doc["dataset"]["examples"] == 420
    assert doc["dataset"]["groups"] == {"red": 170, "blue": 250}
    assert doc["params"]["minsupps"] == [0.8, 0.5, 0.2, 0.1]
    assert set(doc["groups"]) == {"red", "blue"}
    assert doc["metrics"]["sets"] == len(results["red"]) + len(results["blue"])
    assert "redundancy_threshold" not in doc
    first = doc["groups"]["red"][0]
    assert first["conditions"] == "a3 != 3 AND a3 != 4"
    assert first["support"] == first["p"] / first["P"]


def test_json_report_with_threshold_lists_filtered_sets():
    ds, params, results = synthetic_run()
    doc = json.loads(write_json_report(results, ds, params, redundancy_threshold=0.5))
    kept = filter_redundancy(results, 0.5)
    assert {g: len(v) for g, v in doc["groups"].items()} == {g: len(v) for g, v in kept.items()}
    assert doc["redundancy_threshold"] == 0.5
    assert doc["metrics"] == summarize(kept, ds).to_dict()
    assert doc["metrics_before_filter"] == summarize(results, ds).to_dict()


def test_json_round_trip(tmp_path):
    ds, params, results = synthetic_run()
    path = tmp_path / "report.json"
    write_json_report(results, ds, params, out=path)
    back = read_json_report(path, ds)
    for g in results:
        want = [dataclasses.replace(a, redundancy_with=None) for a in results[g]]
        assert back[g] == want
    # text form parses the same way
    text = write_json_report(results, ds, params)
    assert read_json_report(text, ds) == back


# sha256 of the JSON report of the default synthetic run, without and with a
# 0.5 redundancy threshold. The benchmark's digests cover only the CSV report,
# so these keep a change to the JSON writer from drifting its bytes.
_JSON_REPORT_SHA256 = {
    None: "e3d2e575708b8f7c94f115546ce4f0e70f1dd7f65150b63428045a14e00cac70",
    0.5: "1850d1783cc72cf5b0e703d6dd22038be739375e0f4a018e6c57c13f7ef52545",
}


@pytest.mark.parametrize("threshold", [None, 0.5])
def test_json_report_bytes_are_pinned(threshold):
    ds, params, results = synthetic_run()
    text = write_json_report(results, ds, params, redundancy_threshold=threshold)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _JSON_REPORT_SHA256[threshold]


def test_report_outputs_are_reproducible():
    ds, params, results = synthetic_run()
    assert write_csv_report(results, ds) == write_csv_report(results, ds)
    assert write_json_report(results, ds, params) == write_json_report(results, ds, params)
