"""Seeded inputs, one timed iteration, and output digests per workload.

Each workload starts from a fixed base dataset and lets ``--seed`` reshape
it: rows are permuted, each numeric attribute and the survival times go
through a seed-drawn increasing affine map from their decimal grid onto
quarters, and nominal labels get a seed-drawn prefix. Every seed therefore poses the same
mining problem in different coordinates: the cost of an iteration does not
depend on the seed, while the bytes the program reads, computes and writes
do. Mining only looks at counts over value order, so every mined threshold
maps back to a base grid sum; ``normalize`` does that mapping on the
emitted CSV, and the digest of the result is the same for every seed.
``reference.json`` holds that digest per workload, plus the digest of the
emitted bytes themselves for a range of seeds.

The program is always reached through module attributes looked up at call
time (``induction.mine_all``, ``data.write_arff``, ``cli.main``), so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from csmine import cli, data, induction, reports, synthetic
from csmine.data import NOMINAL, NUMERIC, Attribute, DataSet

# Sizes below put one iteration at roughly 1-2 s on a 2-core x86 box.
CONT_ROWS, CONT_ATTRS = 110, 8
SURV_ROWS = 150
BATCH_CLS_SEEDS = (3, 5, 11, 12)
BATCH_REG_SEEDS = (0, 1, 2)
ARFF_ROWS, ARFF_ATTRS = 40_000, 12
PROBE_ROWS, PROBE_ATTRS = 10_000, 12

# Structure seed of every base dataset; --seed never changes it.
BASE_SEED = 2204


@dataclass
class Prepared:
    """One workload's generated inputs, ready to run."""

    run: Callable[[], object]              # the timed part of an iteration
    render: Callable[[object], list[str]]  # mined output as CSV report text, one per dataset
    inverses: list[dict]                   # per dataset: seed coordinates -> base coordinates


# ---------------------------------------------------------------------------
# base datasets


def continuous(seed: int, n: int, k: int) -> DataSet:
    """Two groups over k 2-decimal float attributes; the first three carry a
    planted shift of the first group."""
    rng = np.random.default_rng(seed)
    codes = (rng.random(n) < 0.5).astype(np.int32)
    cols = []
    for i in range(k):
        x = rng.normal(0.0, 1.0, n)
        if i < 3:
            x = x + 0.9 * (codes == 0)
        cols.append(np.round(x, 2))
    return DataSet(
        [Attribute(f"x{i}", NUMERIC) for i in range(k)], cols,
        relation="continuous", group_names=("A", "B"), group_codes=codes,
    )


def bimodal_survival(seed: int, n: int) -> DataSet:
    """Survival data with two prognosis regimes tied to the attributes.

    A risk score over biomarker and stage picks a short or a long
    exponential time; follow-up is cut off at 60, censoring the long tail.
    Groups are not derived here.
    """
    rng = np.random.default_rng(seed)
    biomarker = np.round(rng.normal(0.0, 1.0, n), 1)
    stage = rng.integers(0, 3, n)
    noise = np.round(rng.normal(0.0, 1.0, n), 1)
    risk = biomarker + 0.8 * (stage == 2) - 0.4 * (stage == 0) + 0.3 * rng.normal(size=n)
    times = np.where(risk > 0.2, rng.exponential(4.0, n), rng.exponential(40.0, n))
    times = np.round(times, 1) + 0.1
    status = (times <= 60.0).astype(np.int8)
    return DataSet(
        (
            Attribute("biomarker", NUMERIC),
            Attribute("noise", NUMERIC),
            Attribute("stage", NOMINAL, ("I", "II", "III")),
        ),
        [biomarker, noise, stage.astype(np.int32)],
        relation="prognosis", task="survival",
        times=np.minimum(times, 60.0), status=status,
    )


def random_classification(seed: int, n_max: int = 500, max_attrs: int = 10) -> DataSet:
    """2-4 groups, nominal and quantized numeric attributes, ~2% missing
    cells, a mild planted signal on the first group."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, n_max + 1))
    k_attrs = int(rng.integers(2, max_attrs + 1))
    g = int(rng.integers(2, 5))
    codes = np.concatenate([np.arange(g), rng.integers(0, g, n - g)]).astype(np.int32)
    rng.shuffle(codes)
    attrs, cols = [], []
    for i in range(k_attrs):
        bias = (codes == 0) & (rng.random(n) < 0.7)
        if rng.random() < 0.5:
            grid = np.unique(np.round(rng.uniform(-3, 3, int(rng.integers(3, 9))), 1))
            col = rng.choice(grid, n)
            col[bias] = rng.choice(grid[: max(1, grid.size // 2)], int(bias.sum()))
            col[rng.random(n) < 0.02] = np.nan
            attrs.append(Attribute(f"x{i}", NUMERIC))
        else:
            k = int(rng.integers(2, 5))
            col = rng.integers(0, k, n).astype(np.int32)
            col[bias] = 0
            col[rng.random(n) < 0.02] = -1
            attrs.append(Attribute(f"x{i}", NOMINAL, tuple(f"v{j}" for j in range(k))))
        cols.append(col)
    return DataSet(
        attrs, cols, relation=f"random{seed}",
        group_names=tuple(f"g{j}" for j in range(g)), group_codes=codes,
    )


def random_regression(seed: int) -> DataSet:
    """Two groups with integer labels shifted up for the first group."""
    base = random_classification(seed + 1000, n_max=160, max_attrs=5)
    codes = np.minimum(base.group_codes, 1)
    rng = np.random.default_rng(seed + 1000)
    labels = rng.integers(0, 10, base.n_examples) + 5 * (codes == 0)
    return DataSet(
        base.attributes, [base.column(i) for i in range(len(base.attributes))],
        relation=f"regression{seed}", task="regression",
        group_names=("g0", "g1"), group_codes=codes, labels=labels.astype(np.float64),
    )


# Labels that the ARFF writer has to quote: a space, a comma, a quote.
_ARFF_LABEL_FORMS = ("grade {}", "n,{}", "o'{}", "level{}")


def nominal_table(seed: int, n: int, k: int) -> DataSet:
    """n x k nominal attributes of 3-6 values each, ~2% missing cells; four
    attributes lean toward their first value in group ``pos``."""
    rng = np.random.default_rng(seed)
    codes = (rng.random(n) < 0.4).astype(np.int32)
    attrs, cols = [], []
    for i in range(k):
        m = int(rng.integers(3, 7))
        form = _ARFF_LABEL_FORMS[i % len(_ARFF_LABEL_FORMS)]
        col = rng.integers(0, m, n).astype(np.int32)
        if i < 4:
            col[(codes == 1) & (rng.random(n) < 0.5)] = 0
        col[rng.random(n) < 0.02] = -1
        attrs.append(Attribute(f"f{i}", NOMINAL, tuple(form.format(j) for j in range(m))))
        cols.append(col)
    return DataSet(
        attrs, cols, relation="pipeline",
        group_names=("neg", "pos"), group_codes=codes, group_attr="class",
    )


# ---------------------------------------------------------------------------
# seeding


def _affine(values: np.ndarray, rng: np.random.Generator, scale: int, low: int) -> tuple[np.ndarray, int, int]:
    """values on a 1/scale grid mapped to (m*k + c) / 4, where k = values*scale.

    m >= 1 and c are seed-drawn integers, so order, ties and NaN survive.
    Quarters are exact in binary, so every midpoint the miner forms is exact
    and compares with the data the same way for every seed; a midpoint that
    lands on a data value stays on it.
    """
    k = np.round(values * scale)
    fin = ~np.isnan(values)
    if np.abs(values[fin] * scale - k[fin]).max(initial=0.0) > 1e-6:
        raise ValueError(f"values are not on a 1/{scale} grid")
    m, c = int(rng.integers(1, 4)), int(rng.integers(low, low + 300))
    return (m * k + c) / 4.0, m, c


def reseed(ds: DataSet, seed: int) -> tuple[DataSet, dict]:
    """The base dataset in seed-drawn coordinates, plus the inverse map.

    The inverse map sends each numeric attribute name to its (m, c) affine
    pair from the 1/100 grid and each nominal one to a seed-label ->
    base-label dict.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n_examples)
    token = "".join(rng.choice(list(string.ascii_lowercase), 3))
    attrs, cols, inverse = [], [], {}
    for i, attr in enumerate(ds.attributes):
        col = ds.column(i)[perm]
        if attr.is_numeric:
            col, m, c = _affine(col, rng, 100, -300)
            inverse[attr.name] = (m, c)
            attrs.append(attr)
        else:
            labels = tuple(f"{token}_{v}" for v in attr.domain)
            inverse[attr.name] = dict(zip(labels, attr.domain))
            attrs.append(Attribute(attr.name, NOMINAL, labels))
        cols.append(col)
    times = None if ds.times is None else _affine(ds.times[perm], rng, 10, 0)[0]
    out = DataSet(
        attrs, cols,
        relation=ds.relation, task=ds.task,
        group_names=ds.group_names,
        group_codes=None if ds.group_codes is None else ds.group_codes[perm],
        labels=None if ds.labels is None else ds.labels[perm],
        times=times,
        status=None if ds.status is None else ds.status[perm],
        group_attr=ds.group_attr,
    )
    return out, inverse


# ---------------------------------------------------------------------------
# output digests

_INTERVAL = re.compile(r"^(?P<name>.+?) in (?P<lo>[\[(])(?P<a>[^,]+), (?P<b>[^)]+)\)$")
_NOMINAL = re.compile(r"^(?P<name>.+?) (?P<op>!?=) (?P<value>.+)$")


def _base_threshold(text: str, m: int, c: int) -> str:
    """A midpoint (w_i + w_j) / 2 as the base grid sum k_i + k_j."""
    if text in ("inf", "-inf"):
        return text
    t8 = float(text) * 8
    n = round(t8)
    if t8 != n or (n - 2 * c) % m:
        raise ValueError(f"threshold {text} is not a midpoint of the data")
    return f"{(n - 2 * c) // m}/200"


def _base_condition(part: str, inverse: dict) -> str:
    m = _INTERVAL.match(part)
    if m and isinstance(inverse.get(m.group("name")), tuple):
        a = _base_threshold(m.group("a").strip(), *inverse[m.group("name")])
        b = _base_threshold(m.group("b").strip(), *inverse[m.group("name")])
        return f"{m.group('name')} in {m.group('lo')}{a}, {b})"
    m = _NOMINAL.match(part)
    if m and isinstance(inverse.get(m.group("name")), dict):
        return f"{m.group('name')} {m.group('op')} {inverse[m.group('name')][m.group('value')]}"
    raise ValueError(f"cannot map condition {part!r}")


def normalize(report_csv: str, inverse: dict) -> list[list[str]]:
    """CSV report rows with every condition mapped to base coordinates."""
    rows = list(csv.reader(io.StringIO(report_csv)))
    for row in rows[1:]:
        if row[1]:
            row[1] = " AND ".join(_base_condition(p, inverse) for p in row[1].split(" AND "))
    return rows


def digests(texts: list[str], inverses: list[dict]) -> tuple[str, str]:
    """(raw, normalized) sha256 of one iteration's reports."""
    raw = hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()
    rows = [normalize(t, inv) for t, inv in zip(texts, inverses)]
    norm = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    return raw, norm


# ---------------------------------------------------------------------------
# workloads


def _mine_each(datasets: list[DataSet], inverses: list[dict]) -> Prepared:
    params = induction.MiningParams()
    return Prepared(
        run=lambda: [induction.mine_all(ds, params) for ds in datasets],
        render=lambda res: [reports.write_csv_report(r, ds) for r, ds in zip(res, datasets)],
        inverses=inverses,
    )


def cont_cls(seed: int, workdir: Path) -> Prepared:
    ds, inv = reseed(continuous(BASE_SEED, CONT_ROWS, CONT_ATTRS), seed)
    return _mine_each([ds], [inv])


def cont_cls_10k(seed: int, workdir: Path) -> Prepared:
    ds, inv = reseed(continuous(BASE_SEED, PROBE_ROWS, PROBE_ATTRS), seed)
    return _mine_each([ds], [inv])


def surv_logrank(seed: int, workdir: Path) -> Prepared:
    ds, inv = reseed(bimodal_survival(BASE_SEED, SURV_ROWS), seed)
    return _mine_each([data.derive_groups_survival(ds)], [inv])


def batch_mixed(seed: int, workdir: Path) -> Prepared:
    bases = [synthetic.generate_synthetic(synthetic.default_spec(), seed=BASE_SEED)]
    bases += [random_classification(s) for s in BATCH_CLS_SEEDS]
    bases += [random_regression(s) for s in BATCH_REG_SEEDS]
    pairs = [reseed(b, seed * 1000 + j) for j, b in enumerate(bases)]
    return _mine_each([p[0] for p in pairs], [p[1] for p in pairs])


def arff_pipeline(seed: int, workdir: Path) -> Prepared:
    ds, inv = reseed(nominal_table(BASE_SEED, ARFF_ROWS, ARFF_ATTRS), seed)
    arff, report = workdir / "pipeline.arff", workdir / "report.csv"
    conf = workdir / "run.conf"
    conf.write_text(
        f"input = {arff}\ngroup_column = class\nminsupps = 0.5\nmax_passes = 2\n"
        f"redundancy_threshold = 0.5\noutput_csv = {report}\n"
        f"output_json = {workdir / 'report.json'}\n",
        encoding="utf-8",
    )

    def run() -> None:
        report.unlink(missing_ok=True)  # a report left by an earlier iteration must not pass
        data.write_arff(ds, arff)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["mine", str(conf)])
        if code != 0:
            raise RuntimeError(f"csmine mine exited with {code}")

    return Prepared(
        run=run,
        render=lambda _: [report.read_text(encoding="utf-8")],
        inverses=[inv],
    )


WORKLOADS = {
    "cont_cls": cont_cls,
    "surv_logrank": surv_logrank,
    "batch_mixed": batch_mixed,
    "arff_pipeline": arff_pipeline,
}
# Run once by record.py as the known scaling defect; never a timed workload.
PROBES = {"cont_cls_10k": cont_cls_10k}
