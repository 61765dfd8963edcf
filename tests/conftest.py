"""Shared generators and reference implementations for the test suite.

The references here are deliberately slow and literal: rows are read one
example at a time through a row view and tested condition by condition,
growing enumerates every candidate condition one by one, pruning
re-evaluates every removal from scratch, redundancy compares Python sets of
row indices one pair at a time, ARFF fields are split one character at a
time and ARFF data one line at a time, and the survival statistics are
redone in exact Fraction arithmetic.
Production code must agree with them bitwise for classification, exactly
for integer-label regression, and to 1e-9 for survival scores.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from csmine.contrast import EQ, GE, LT, NE, Condition, ConfusionMatrix, condition_mask
from csmine.data import (
    ArffError,
    Attribute,
    DataSet,
    _field_text,
    _observed_groups,
    _parse_attribute_line,
    _quote_if_needed,
    _raw_fields,
    _rule_error,
    derive_groups_survival,
)
from csmine.diversity import MULTIPLIER_FLOOR, PenaltyState
from csmine.induction import _Grown, _raw_quality
from csmine import quality
from csmine.quality import _correlation, _counts as _survival_counts, _LogRankScorer, measure_for_task


# ---------------------------------------------------------------------------
# row view: one example at a time

class _Missing:
    """Singleton marker for an absent cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


@dataclass(frozen=True)
class Example:
    """Row view: conditional values (float, category index, or MISSING)
    plus the bound special values."""

    values: tuple
    group: str | None = None
    label: float | None = None
    survival_time: float | None = None
    survival_status: int | None = None


def group_of(ds: DataSet, i: int) -> str | None:
    if ds.group_codes is None:
        return None
    return ds.group_names[int(ds.group_codes[i])]


def example(ds: DataSet, i: int) -> Example:
    values = []
    for ai, attr in enumerate(ds.attributes):
        col = ds.column(ai)
        if attr.is_numeric:
            v = float(col[i])
            values.append(MISSING if np.isnan(v) else v)
        else:
            c = int(col[i])
            values.append(MISSING if c < 0 else c)
    return Example(
        values=tuple(values),
        group=group_of(ds, i),
        label=None if ds.labels is None else float(ds.labels[i]),
        survival_time=None if ds.times is None else float(ds.times[i]),
        survival_status=None if ds.status is None else int(ds.status[i]),
    )


def examples(ds: DataSet) -> Iterator[Example]:
    for i in range(ds.n_examples):
        yield example(ds, i)


def satisfies(example: Example, condition: Condition) -> bool:
    """Whether a single example satisfies the condition. MISSING fails."""
    v = example.values[condition.attr_index]
    if v is MISSING:
        return False
    if condition.op == LT:
        return v < condition.value
    if condition.op == GE:
        return v >= condition.value
    if condition.op == EQ:
        return v == condition.value
    return v != condition.value


def count_confusion(coverage, positives, uncovered_positives=None) -> ConfusionMatrix:
    """Counts of a coverage mask against a group mask; every other row is negative."""
    p = int(np.count_nonzero(coverage & positives))
    n = int(np.count_nonzero(coverage & ~positives))
    p_new = 0 if uncovered_positives is None else int(np.count_nonzero(coverage & uncovered_positives))
    P = int(np.count_nonzero(positives))
    return ConfusionMatrix(p=p, n=n, P=P, N=positives.size - P, p_new=p_new)


# ---------------------------------------------------------------------------
# ARFF field splitting, one character at a time

def split_csv_reference(text: str, line_no: int) -> list[str]:
    """Split a comma-separated ARFF record honoring single or double quotes.

    Whitespace around a field is dropped; quoted text is kept verbatim.
    """
    fields: list[str] = []
    buf: list[str] = []
    quote: str | None = None
    lo = hi = -1  # the span of buf read inside quotes
    for ch in text + ",":  # the extra comma ends the last field
        if quote is not None:
            if ch == quote:
                quote = None
                hi = len(buf)
            else:
                buf.append(ch)
        elif ch in "'\"":
            quote = ch
            if lo < 0:
                lo = len(buf)
        elif ch == ",":
            field = "".join(buf)
            if lo < 0:
                fields.append(field.strip())
            else:
                fields.append(field[:lo].lstrip() + field[lo:hi] + field[hi:].rstrip())
                lo = -1
            buf = []
        else:
            buf.append(ch)
    if quote is not None:
        raise ArffError(line_no, "unterminated quote")
    return fields


# ---------------------------------------------------------------------------
# ARFF parsing one @data line at a time

# This is the parser that the one-scan @data reader replaced, kept literal:
# each @data line is stripped, skipped when blank or a comment, split with
# its own _FIELDS.findall, and its raw fields kept as a row. Columns are
# gathered from the rows and decoded whole field by whole field.

def decode_column_reference(
    fields: Sequence[str],
    lines: Sequence[int],
    name: str,
    lookup: dict[str, int] | None,
    missing: str | None,
) -> np.ndarray:
    """The raw ``fields`` of column ``name`` as codes into ``lookup`` or,
    without one, as numbers.

    Only a bare ``?`` is a missing cell, read as -1 or NaN; a quoted ``'?'``
    is the text ``?``. Where ``missing`` is given, a missing cell (or a
    ``nan``) raises it instead. Each distinct raw field is decoded once, in
    order of first appearance, so a bad one raises ArffError at the first
    line that holds it.
    """

    def decode(raw: str) -> float:
        text = None if raw.strip() == "?" else _field_text(raw)
        if lookup is not None:
            if text is not None and text not in lookup:
                raise ValueError(f"value {text!r} not in declared domain of {name!r}")
            value = -1 if text is None else lookup[text]
        else:
            try:
                value = np.nan if text is None else float(text)
            except ValueError:
                raise ValueError(f"non-numeric value {text!r} in column {name!r}") from None
        if missing and (text is None or value != value):
            raise ValueError(missing)
        return value

    table = {}
    for raw in dict.fromkeys(fields):
        try:
            table[raw] = decode(raw)
        except ValueError as exc:
            raise ArffError(lines[fields.index(raw)], str(exc)) from None
    dtype = np.float64 if lookup is None else np.int32
    return np.fromiter(map(table.__getitem__, fields), dtype, len(fields))


def parse_arff_reference(
    source,
    *,
    group: str | None = None,
    label: str | None = None,
    time: str | None = None,
    status: str | None = None,
    task: str | None = None,
) -> DataSet:
    """Parse an ARFF character stream into a DataSet.

    Recognizes ``@relation``, ``@attribute name numeric|real|integer`` or an
    explicit nominal domain, and dense ``@data`` rows with a bare ``?`` for
    missing cells. ``%`` lines are comments. The named columns are pulled out of the
    conditional attribute list and bound as group / label / time / status.
    Malformed input raises :class:`ArffError` with the offending line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    relation = "data"
    attributes: list[Attribute] = []
    rows: list[list[str]] = []  # raw fields
    row_lines: list[int] = []
    in_data = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not in_data:
            lower = line.lower()
            if lower.startswith("@relation"):
                rest = line[len("@relation") :].strip()
                if rest[:1] in "'\"" and rest[-1:] == rest[:1] and len(rest) >= 2:
                    rest = rest[1:-1]
                relation = rest or relation
            elif lower.startswith("@attribute"):
                attributes.append(_parse_attribute_line(line[len("@attribute") :], line_no))
            elif lower.startswith("@data"):
                if not attributes:
                    raise ArffError(line_no, "@data before any @attribute")
                in_data = True
            else:
                raise ArffError(line_no, f"unrecognized header line {line.split()[0]!r}")
        else:
            if line.startswith("{"):
                raise ArffError(line_no, "sparse data rows are not supported")
            fields = _raw_fields(line, line_no)
            if len(fields) != len(attributes):
                raise ArffError(
                    line_no,
                    f"expected {len(attributes)} values, found {len(fields)}",
                )
            rows.append(fields)
            row_lines.append(line_no)
    if not in_data:
        raise ArffError(1, "missing @data section")

    all_names = [a.name for a in attributes]
    if len(set(all_names)) != len(all_names):
        dupe = next(n for n in all_names if all_names.count(n) > 1)
        raise ArffError(1, f"duplicate attribute name {dupe!r}")

    special = {}
    for role, name in (("group", group), ("label", label), ("time", time), ("status", status)):
        if name is None:
            continue
        if name not in all_names:
            raise ArffError(1, f"{role} column {name!r} not declared")
        special[role] = all_names.index(name)
    if len(set(special.values())) != len(special):
        raise ArffError(1, "group/label/time/status columns must be distinct")

    if task is None:
        if time is not None or status is not None:
            task = "survival"
        elif label is not None:
            task = "regression"
        else:
            task = "classification"
    if task == "survival" and ("time" not in special or "status" not in special):
        raise ArffError(1, "survival task needs both time and status columns")
    if task == "regression" and "label" not in special:
        raise ArffError(1, "regression task needs a label column")

    roles = {i: role for role, i in special.items()}
    cond_idx = [i for i in range(len(attributes)) if i not in roles]
    columns: dict[int, np.ndarray] = {}
    # conditional columns first, then the bound ones in role order; one
    # column of raw fields at a time, so peak memory stays that of the rows
    for i in cond_idx + list(special.values()):
        attr, role = attributes[i], roles.get(i)
        if role == "group" and attr.is_numeric:
            raise ArffError(1, f"group column {attr.name!r} must be nominal")
        # nominal-declared label, time and status columns are read as numbers
        codes = role == "group" or (role is None and not attr.is_numeric)
        missing = {
            "group": f"missing group value in column {attr.name!r}",
            "label": "missing label value" if task == "regression" else None,
            "time": "missing survival time value" if task == "survival" else None,
            "status": "missing survival status value",
        }.get(role)
        columns[i] = decode_column_reference(
            list(map(itemgetter(i), rows)), row_lines, attr.name,
            {v: k for k, v in enumerate(attr.domain)} if codes else None, missing,
        )
        # the values DataSet refuses, found here so the error names their line
        error = _rule_error(role, columns[i], task)
        if error:
            raise ArffError(row_lines[error[0]], error[1])

    group_names, group_codes = (), None
    if "group" in special:
        gi = special["group"]
        group_names, group_codes = _observed_groups(attributes[gi].domain, columns[gi])
    try:
        return DataSet(
            [attributes[i] for i in cond_idx],
            [columns[i] for i in cond_idx],
            relation=relation,
            task=task,
            group_names=group_names,
            group_codes=group_codes,
            labels=columns.get(special.get("label")),
            times=columns.get(special.get("time")),
            status=columns.get(special.get("status")),
            group_attr=group,
            label_attr=label,
            time_attr=time,
            status_attr=status,
        )
    except ValueError as exc:
        raise ArffError(1, str(exc)) from None


def write_arff_reference(ds: DataSet) -> str:
    """The ARFF text of ``ds`` as the per-row writer that the chunked one
    replaced made it, kept literal: every cell's string, then one joined
    string per row, all held at once."""
    columns = [
        (a.name, None if a.is_numeric else tuple(map(_quote_if_needed, a.domain)), col)
        for a, col in zip(ds.attributes, ds._columns)
    ]
    if ds.group_codes is not None:
        columns.append(
            (ds.group_attr or "group", tuple(map(_quote_if_needed, ds.group_names)), ds.group_codes)
        )
    for name, arr in ((ds.label_attr or "label", ds.labels), (ds.time_attr or "time", ds.times),
                      (ds.status_attr or "status", ds.status)):
        if arr is not None:
            columns.append((name, None, arr))
    names = [name for name, _, _ in columns]
    if not names:
        raise ValueError("cannot write a dataset without columns")
    if len(set(names)) != len(names):
        raise ValueError(f"cannot write duplicate column names {names!r}")
    buf = io.StringIO()
    buf.write(f"@relation {_quote_if_needed(ds.relation)}\n\n")
    for name, domain, _ in columns:
        kind = "numeric" if domain is None else "{" + ",".join(domain) + "}"
        buf.write(f"@attribute {_quote_if_needed(name)} {kind}\n")
    buf.write("\n@data\n")
    cells = [
        ["?" if x != x else repr(x) for x in arr.tolist()] if domain is None
        else list(map((domain + ("?",)).__getitem__, arr.tolist()))
        for _, domain, arr in columns
    ]
    buf.writelines(",".join(row) + "\n" for row in zip(*cells))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# candidate enumeration, independent of the engine's sweep

def numeric_split_points(values: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct finite values, ascending.

    Midpoints that round down onto the lower value cannot separate anything
    and are dropped.
    """
    vals = np.asarray(values, dtype=np.float64)
    vals = np.unique(vals[~np.isnan(vals)])
    if vals.size < 2:
        return np.empty(0, dtype=np.float64)
    mids = midpoints(vals[:-1], vals[1:])
    return mids[mids > vals[:-1]]


def midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(lo + hi) / 2, or lo / 2 + hi / 2 where two finite values' sum overflows,
    0.0 between -inf and +inf, or -DBL_MAX between -inf and a finite value."""
    with np.errstate(over="ignore", invalid="ignore"):
        mids = (lo + hi) / 2.0
    over = np.isinf(mids) & np.isfinite(lo) & np.isfinite(hi)
    mids[over] = lo[over] / 2.0 + hi[over] / 2.0
    mids[(lo == -np.inf) & (hi == np.inf)] = 0.0
    mids[(lo == -np.inf) & np.isfinite(hi)] = np.finfo(np.float64).min
    return mids


def possible_conditions(covered: np.ndarray, ds: DataSet) -> Iterator[Condition]:
    """Candidate conditions over the currently covered region (a bool mask).

    Numeric attributes yield ``< m`` then ``>= m`` for each midpoint between
    consecutive distinct covered values; nominal attributes yield ``= v``
    then ``!= v`` for each value observed among covered examples. Candidates
    come out in deterministic order: attribute declaration order, ascending
    threshold or category, ``<`` before ``>=``, ``=`` before ``!=``.
    """
    idx = np.flatnonzero(covered)
    for ai, attr in enumerate(ds.attributes):
        col = ds.column(ai)[idx]
        if attr.is_numeric:
            for m in numeric_split_points(col):
                yield Condition(ai, LT, float(m))
                yield Condition(ai, GE, float(m))
        else:
            observed = np.unique(col[col >= 0])
            for v in observed:
                yield Condition(ai, EQ, int(v))
                yield Condition(ai, NE, int(v))


def _sides(first, total):
    out = np.empty(2 * first.size, dtype=first.dtype)
    out[0::2] = first
    out[1::2] = total - first
    return out


def _reference_counts(ctx, cov_idx, out, rows, side_sums, first, total):
    """Fill ``out`` with the per-candidate counts, ``valid`` and label ``sums``."""
    out["p"], out["p_new_pass"], out["p_new_reward"] = (
        side_sums(x).astype(np.int64) for x in (ctx.pos[rows], ctx.d_u[rows], ctx.r_u[rows])
    )
    out["covc"] = _sides(first.astype(np.int64), total)
    out["n"] = out["covc"] - out["p"]
    out["valid"] = (
        (out["p"] / ctx.P >= ctx.minsupp_all)
        & (out["p_new_pass"] / ctx.P >= ctx.params.minsupp_new)
        & (out["covc"] < cov_idx.size)
    )
    if ctx.labels is not None:
        out["sums"] = side_sums(ctx.labels[rows])
    return out


def numeric_sweep_reference(ctx, ai: int, cov_idx: np.ndarray) -> dict | None:
    """One numeric attribute's candidate arrays, swept on its own.

    This is the per-attribute sweep that the engine's presorted block
    replaced, kept literal: argsort the covered rows that have a value, cut
    between runs of equal values, drop midpoints that round onto the lower
    value, and read 1-D running sums at the cuts. None when the attribute
    has no split. Otherwise per-split ``attrs`` and ``values``, and the
    per-candidate counts, ``valid`` and (with labels) label ``sums``, each
    interleaved as (first side, second side) per split.
    """
    col = ctx.ds.column(ai)[cov_idx]
    known = np.flatnonzero(~np.isnan(col))
    if known.size == 0:
        return None
    known = known[np.argsort(col[known], kind="stable")]
    key = col[known]
    bnd = np.flatnonzero(key[1:] != key[:-1])
    mids = midpoints(key[bnd], key[bnd + 1])
    keep = mids > key[bnd]
    last, values = bnd[keep], mids[keep]
    if last.size == 0:
        return None

    def side_sums(x):
        run = x.cumsum()
        return _sides(run[last], run[-1])

    out = {"attrs": np.full(last.size, ai), "values": values}
    return _reference_counts(ctx, cov_idx, out, cov_idx[known], side_sums, last + 1, known.size)


def nominal_sweep_reference(ctx, ai: int, cov_idx: np.ndarray) -> dict | None:
    """One nominal attribute's candidate arrays, swept on its own.

    This is the per-attribute sweep that the engine's stacked nominal block
    replaced, kept literal: drop the covered rows with a missing cell, then
    one per-category bincount per counter; a first side is its category's
    bin and a total is the bincount's sum. None when no covered row has a
    value. Otherwise the same arrays as ``numeric_sweep_reference``, with
    category codes as ``values``.
    """
    col = ctx.ds.column(ai)[cov_idx]
    have = np.flatnonzero(col >= 0)
    if have.size == 0:
        return None
    domain = len(ctx.ds.attributes[ai].domain)
    codes = col[have].astype(np.intp)
    size = np.bincount(codes, minlength=domain)
    values = np.flatnonzero(size)

    def side_sums(x):
        per = np.bincount(codes, weights=x, minlength=domain)
        return _sides(per[values], per.sum())

    out = {"attrs": np.full(values.size, ai), "values": values}
    return _reference_counts(ctx, cov_idx, out, cov_idx[have], side_sums, size[values], have.size)


# ---------------------------------------------------------------------------
# dataset generators

def random_classification(seed, n_min=40, n_max=240, max_attrs=6, n_groups=None,
                          missing_rate=0.02):
    """Random mixed-attribute dataset with a mild planted signal on group 0.

    Numeric values come from small quantized grids so candidate counts stay
    bounded and cross-seed structure is comparable.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    k_attrs = int(rng.integers(2, max_attrs + 1))
    g = int(n_groups if n_groups is not None else rng.integers(2, 5))
    codes = np.concatenate([np.arange(g), rng.integers(0, g, n - g)]).astype(np.int32)
    rng.shuffle(codes)
    attrs, cols = [], []
    for i in range(k_attrs):
        bias = (codes == 0) & (rng.random(n) < 0.7)
        if rng.random() < 0.5:
            grid = np.unique(np.round(rng.uniform(-3, 3, int(rng.integers(3, 9))), 1))
            col = rng.choice(grid, n)
            col[bias] = rng.choice(grid[: max(1, grid.size // 2)], int(bias.sum()))
            if missing_rate:
                col[rng.random(n) < missing_rate] = np.nan
            attrs.append(Attribute(f"x{i}", "numeric"))
        else:
            k = int(rng.integers(2, 5))
            col = rng.integers(0, k, n).astype(np.int32)
            col[bias] = 0
            if missing_rate:
                col[rng.random(n) < missing_rate] = -1
            attrs.append(Attribute(f"x{i}", "nominal", tuple(f"v{j}" for j in range(k))))
        cols.append(col)
    return DataSet(
        attrs, cols,
        relation=f"random{seed}",
        task="classification",
        group_names=tuple(f"g{j}" for j in range(g)),
        group_codes=codes,
    )


def random_regression(seed, n_min=40, n_max=160, max_attrs=5):
    """Two-group dataset with integer labels, so label sums are exact."""
    base = random_classification(seed + 1000, n_min, n_max, max_attrs, n_groups=2)
    rng = np.random.default_rng(seed + 1000)
    n = base.n_examples
    labels = rng.integers(0, 10, n) + 5 * (base.group_codes == 0)
    return DataSet(
        base.attributes,
        [base.column(i) for i in range(len(base.attributes))],
        relation=base.relation,
        task="regression",
        group_names=base.group_names,
        group_codes=base.group_codes,
        labels=labels.astype(np.float64),
    )


def random_survival(seed, n_min=40, n_max=160, max_attrs=5):
    """Two-group dataset with integer event times and ~30% censoring."""
    base = random_classification(seed + 2000, n_min, n_max, max_attrs, n_groups=2)
    rng = np.random.default_rng(seed + 2000)
    n = base.n_examples
    times = rng.integers(1, 40, n).astype(np.float64)
    times[base.group_codes == 0] = rng.integers(1, 15, int((base.group_codes == 0).sum()))
    status = (rng.random(n) < 0.7).astype(np.int8)
    return DataSet(
        base.attributes,
        [base.column(i) for i in range(len(base.attributes))],
        relation=base.relation,
        task="survival",
        group_names=base.group_names,
        group_codes=base.group_codes,
        times=times,
        status=status,
    )


def continuous(seed, n, k, task="classification"):
    """Two groups over k 2-decimal normal attributes; the first three carry a
    shift of group 0, so premises grown at a low support run long.

    Regression labels are integers, so label sums are exact; survival times
    are integers with ~30% censoring, shorter in group 0.
    """
    rng = np.random.default_rng(seed)
    codes = (rng.random(n) < 0.5).astype(np.int32)
    cols = [np.round(rng.normal(0.0, 1.0, n) + 0.9 * (codes == 0) * (i < 3), 2) for i in range(k)]
    extra = {}
    if task == "regression":
        extra["labels"] = (rng.integers(0, 20, n) + 6 * (codes == 0)).astype(np.float64)
    elif task == "survival":
        extra["times"] = np.ceil(rng.exponential(np.where(codes == 0, 10.0, 25.0)))
        extra["status"] = (rng.random(n) < 0.7).astype(np.int8)
    return DataSet(
        [Attribute(f"x{i}", "numeric") for i in range(k)], cols,
        relation=f"continuous{seed}",
        task=task,
        group_names=("A", "B"),
        group_codes=codes,
        **extra,
    )


def with_status(ds, status):
    """Copy of a survival dataset with its event statuses replaced."""
    return DataSet(
        ds.attributes,
        [ds.column(i) for i in range(len(ds.attributes))],
        relation=ds.relation,
        task="survival",
        group_names=ds.group_names,
        group_codes=ds.group_codes,
        times=ds.times,
        status=np.asarray(status, dtype=np.int8),
    )


def bimodal_survival(seed=7, n=260):
    """Survival data with two prognosis regimes tied to the attributes.

    A risk score over biomarker and stage decides whether an observation
    draws its time from a short or a long exponential; follow-up is cut off
    administratively, censoring the long tail. Groups are then derived from
    the median observation time, giving an early-event group against a
    long-survivor group.
    """
    rng = np.random.default_rng(seed)
    biomarker = np.round(rng.normal(0.0, 1.0, n), 1)
    stage = rng.integers(0, 3, n)
    noise = np.round(rng.normal(0.0, 1.0, n), 1)
    risk = biomarker + 0.8 * (stage == 2) - 0.4 * (stage == 0) + 0.3 * rng.normal(size=n)
    poor = risk > 0.2
    times = np.where(poor, rng.exponential(4.0, n), rng.exponential(40.0, n))
    times = np.round(times, 1) + 0.1
    cutoff = 60.0
    status = (times <= cutoff).astype(np.int8)
    times = np.minimum(times, cutoff)
    attrs = (
        Attribute("biomarker", "numeric"),
        Attribute("noise", "numeric"),
        Attribute("stage", "nominal", ("I", "II", "III")),
    )
    ds = DataSet(
        attrs,
        [biomarker, noise, stage.astype(np.int32)],
        relation="prognosis",
        task="survival",
        times=times,
        status=status,
    )
    return derive_groups_survival(ds)


# ---------------------------------------------------------------------------
# exact survival oracles

def km_oracle(pairs):
    """Kaplan-Meier table in Fraction arithmetic, one row per event time.

    Computed by direct counting per event time rather than a removal sweep,
    so it shares no structure with the production estimator.
    """
    pairs = [(float(t), int(s)) for t, s in pairs]
    rows = []
    surv = Fraction(1)
    for t in sorted({t for t, s in pairs if s == 1}):
        n_at = sum(1 for ti, _ in pairs if ti >= t)
        d = sum(1 for ti, si in pairs if ti == t and si == 1)
        surv *= 1 - Fraction(d, n_at)
        rows.append((t, surv, n_at, d))
    return rows


def log_rank_oracle(a, b):
    """Two-sample log-rank chi-square as an exact Fraction."""
    a = [(float(t), int(s)) for t, s in a]
    b = [(float(t), int(s)) for t, s in b]
    observed = Fraction(0)
    expected = Fraction(0)
    variance = Fraction(0)
    for t in sorted({t for t, s in a + b if s == 1}):
        n1 = sum(1 for ti, _ in a if ti >= t)
        n2 = sum(1 for ti, _ in b if ti >= t)
        d1 = sum(1 for ti, si in a if ti == t and si == 1)
        d2 = sum(1 for ti, si in b if ti == t and si == 1)
        n, d = n1 + n2, d1 + d2
        if n == 0 or d == 0:
            continue
        observed += d1
        expected += Fraction(n1 * d, n)
        if n > 1:
            variance += Fraction(n1 * n2 * d * (n - d), n * n * (n - 1))
    if variance <= 0:
        return Fraction(0)
    return (observed - expected) ** 2 / variance


def log_rank_float_reference(a_times, a_status, b_times, b_status, grid):
    """Log-rank chi-square in float64, with the arithmetic mining pins.

    Counts per grid time are found by direct comparison. The observed,
    expected and variance sums are 1-D numpy sums over the usable grid
    times in grid order, each term formed left to right as written below,
    so mining's scores must equal this bit for bit.
    """
    def counts(times, status):
        at = times[None, :] == grid[:, None]
        at_risk = (times[None, :] >= grid[:, None]).sum(axis=1)
        return at_risk, (at & (status[None, :] == 1)).sum(axis=1).astype(np.float64)

    n1, d1 = counts(a_times, a_status)
    n2, d2 = counts(b_times, b_status)
    nj = n1 + n2
    d = d1 + d2
    use = (d > 0) & (nj > 0)
    if not use.any():
        return 0.0
    observed = float(d1[use].sum())
    expected = float((n1[use] * d[use] / nj[use]).sum())
    v = use & (nj > 1)
    variance = float((n1[v] * n2[v] * d[v] * (nj[v] - d[v]) / (nj[v] * nj[v] * (nj[v] - 1.0))).sum())
    if variance <= 0.0:
        return 0.0
    diff = observed - expected
    return (diff * diff) / variance


def log_rank_rows_reference(n1, d1, n2, d2):
    """``quality._log_rank_rows`` one row at a time.

    This is the per-row loop the engine's one-``reduceat`` kernel replaced,
    kept literal: each row's expected and variance terms are summed by
    their own 1-D ``.sum()``, so the kernel must equal it bit for bit.
    """
    nj = n1 + n2
    d = d1 + d2
    use = (d > 0) & (nj > 0)
    var_use = use & (nj > 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = n1 * d / nj
        variance = n1 * n2 * d * (nj - d) / (nj * nj * (nj - 1.0))
    observed = np.where(use, d1, 0.0).sum(axis=1)
    stats = np.zeros(n1.shape[0], dtype=np.float64)
    for i in range(n1.shape[0]):
        var = float(variance[i][var_use[i]].sum())
        if var > 0.0:
            diff = float(observed[i]) - float(expected[i][use[i]].sum())
            stats[i] = (diff * diff) / var
    return stats


def split_scores_reference(scorer, rows, seg, want, cumulative):
    """Statistics of the wanted sides of k >= 1 two-way splits of ``rows``,
    one attribute at a time: the block scan that the step scorer replaced.

    ``seg`` gives each row its segment in 0..k-1, nondecreasing; rows with
    a segment of k or more belong to none. Split j's first side is segment
    j, or with ``cumulative`` segments 0..j; its second side is the rest of
    ``rows``. ``want`` is a (k, 2) bool array; the result holds the
    statistic of every wanted side in row-major order. Counts are built a
    block of ``quality._BLOCK_ELEMENTS // g`` splits at a time, carried
    across blocks.
    """
    g = scorer.grid.size
    k = want.shape[0]
    r = scorer.rank[rows]
    ev = scorer.events[rows]
    n_all, d_all = _survival_counts(r, ev, (g,))
    carry_n = np.zeros(g, dtype=np.int64)
    carry_d = np.zeros(g, dtype=np.float64)
    step = max(1, quality._BLOCK_ELEMENTS // g)
    out = []
    for j0 in range(0, k, step):
        j1 = min(j0 + step, k)
        lo, hi = np.searchsorted(seg, (j0, j1))
        # at-risk counts add up over segments like any other count
        n1, d1 = _survival_counts((seg[lo:hi] - j0) * g + r[lo:hi], ev[lo:hi], (j1 - j0, g))
        if cumulative:
            n1 = np.cumsum(n1, axis=0) + carry_n
            d1 = np.cumsum(d1, axis=0) + carry_d
            carry_n, carry_d = n1[-1], d1[-1]
        sel = want[j0:j1].ravel()
        n1 = np.stack((n1, n_all - n1), axis=1).reshape(-1, g)[sel]
        d1 = np.stack((d1, d_all - d1), axis=1).reshape(-1, g)[sel]
        out.append(quality._log_rank_rows(n1, d1, scorer.n2, scorer.d2))
    return np.concatenate(out)


def survival_scores_reference(scorer, cand):
    """Negated statistic of each valid candidate of one swept block, one
    attribute at a time through ``split_scores_reference``: the per-attribute
    scan that the step scorer replaced. A nominal block's layout sorts each
    attribute's covered rows by category."""
    q = np.full(cand.p.size, -np.inf)
    want = cand.valid.reshape(-1, 2)  # (first side, second side) per split
    layout = cand.rows if cand.numeric else cand.rows[np.argsort(cand.keys, axis=1, kind="stable")]
    # each row of the layout holds one attribute's splits, a run of the split order
    bounds = np.searchsorted(cand.row, np.arange(cand.known.size + 1))
    for r, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        w = want[lo:hi]
        if not w.any():
            continue
        # an unneeded numeric prefix folds into the next needed one; category
        # runs are disjoint, so every run stays a segment of its own
        need = np.flatnonzero(w.any(axis=1)) if cand.numeric else np.arange(hi - lo)
        rows = layout[r, : cand.known[r]]
        ends = cand.last[lo:hi][need] - r * layout.shape[1]
        seg = np.searchsorted(ends, np.arange(rows.size))
        scores = split_scores_reference(scorer, rows, seg, w[need], cumulative=cand.numeric)
        q[2 * lo : 2 * hi][w.ravel()] = -scores
    return q[cand.valid]


# ---------------------------------------------------------------------------
# literal redundancy reference

def redundancy_oracle(cs, predecessors, positives, ds):
    """(value, predecessor index) of the most similar earlier set.

    Similarity is the Jaccard index of the attribute sets times the Jaccard
    index of the covered positive rows, each a Python set found example by
    example. The earliest maximum wins; no predecessors gives (0.0, None).
    """
    rows_view = list(examples(ds))
    pos_rows = set(np.flatnonzero(positives).tolist())

    def rows(s):
        return {i for i in pos_rows if all(satisfies(rows_view[i], c) for c in s.conditions)}

    def jaccard(a, b):
        return len(a & b) / len(a | b) if a | b else 0.0

    target = rows(cs)
    best, best_i = 0.0, None
    for i, prev in enumerate(predecessors):
        sim = jaccard(set(cs.attribute_indices), set(prev.attribute_indices))
        if sim > 0.0:
            sim *= jaccard(target, rows(prev))
        if best_i is None or sim > best:
            best, best_i = sim, i
    return best, best_i


# ---------------------------------------------------------------------------
# literal grow / prune references

def _naive_modifier(s, b, pi, p, rew):
    spi = s * pi
    if spi >= 1.0:
        return MULTIPLIER_FLOOR
    x = rew / p if p > 0 else 0.0
    slope = 1.0 / (1.0 - spi) - 1.0
    phi = 1.0 if x <= b else 1.0 + ((x - b) / (1.0 - b)) * slope
    m = (1.0 - spi) * phi
    return m if m > MULTIPLIER_FLOOR else MULTIPLIER_FLOOR


def _naive_raw_quality(ds, params, pos, P, N):
    """Per-coverage raw quality function for the reference implementations.

    Survival scoring reuses the production rank-grid scorer on purpose: its
    correctness is pinned separately against log_rank, and sharing it keeps
    the grow/prune comparison exact instead of within-tolerance.
    """
    measure = params.measure or measure_for_task(ds.task)
    if measure == "correlation":
        def raw_q(mask, p, n):
            fp, fn, fP, fN = float(p), float(n), float(P), float(N)
            den_sq = fP * fN * (fp + fn) * (fP - fp + fN - fn)
            if den_sq > 0:
                return (fp * fN - fP * fn) / math.sqrt(den_sq)
            return 0.0
        return raw_q
    if measure == "regression":
        labels = ds.labels
        pos_mean = float(np.mean(labels[pos]))

        def raw_q(mask, p, n):
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return float("-inf")
            return -abs(float(labels[idx].sum()) / idx.size - pos_mean)
        return raw_q
    scorer = _LogRankScorer(ds, pos)

    def raw_q(mask, p, n):
        return -scorer.score(np.flatnonzero(mask))
    return raw_q


def naive_grow(ds, group, params, uncovered, reward_uncovered=None, penalty=None,
               minsupp_all=None):
    """Candidate-by-candidate replication of the growing loop.

    Returns the grown condition list, or None when growing fails either
    support gate at the start or the final negative-to-positive ceiling.
    """
    pos = ds.group_mask(group)
    neg = ~pos
    P = int(np.count_nonzero(pos))
    N = int(np.count_nonzero(neg))
    d_u = np.asarray(uncovered, dtype=bool)
    r_u = d_u if reward_uncovered is None else np.asarray(reward_uncovered, dtype=bool)
    penalty = penalty if penalty is not None else PenaltyState(len(ds.attributes))
    minsupp_all = params.minsupps[0] if minsupp_all is None else minsupp_all
    raw_q = _naive_raw_quality(ds, params, pos, P, N)
    s, b = params.penalty_strength, params.reward_saturation

    if np.count_nonzero(d_u) / P < params.minsupp_new:
        return None
    cov = np.ones(ds.n_examples, dtype=bool)
    conditions = []
    attr_set = set()
    while True:
        cov_count = int(np.count_nonzero(cov))
        best_q = best_cov = best_cond = None
        for cond in possible_conditions(cov, ds):
            cmask = cov & condition_mask(cond, ds)
            covc = int(np.count_nonzero(cmask))
            if covc >= cov_count:
                continue
            p = int(np.count_nonzero(cmask & pos))
            if p / P < minsupp_all:
                continue
            p_new = int(np.count_nonzero(cmask & d_u))
            if p_new / P < params.minsupp_new:
                continue
            n = int(np.count_nonzero(cmask & neg))
            rew = int(np.count_nonzero(cmask & r_u))
            pi = penalty.premise_penalty(attr_set | {cond.attr_index})
            q = raw_q(cmask, p, n)
            m = _naive_modifier(s, b, pi, p, rew)
            qmod = q * m if q >= 0 else q / m
            if qmod != qmod:  # a NaN score never wins
                continue
            if best_q is None or qmod > best_q or (qmod == best_q and covc > best_cov):
                best_q, best_cov, best_cond = qmod, covc, cond
        if best_cond is None:
            break
        cov = cov & condition_mask(best_cond, ds)
        conditions.append(best_cond)
        attr_set.add(best_cond.attr_index)
    if not conditions:
        return None
    p = int(np.count_nonzero(cov & pos))
    n = int(np.count_nonzero(cov & neg))
    if ConfusionMatrix(p, n, P, N).neg2pos > params.max_neg2pos:
        return None
    return conditions


def naive_prune(ds, group, conditions, params, uncovered=None, reward_uncovered=None,
                penalty=None):
    """From-scratch replication of the pruning rounds."""
    pos = ds.group_mask(group)
    neg = ~pos
    P = int(np.count_nonzero(pos))
    N = int(np.count_nonzero(neg))
    unc = pos if uncovered is None else np.asarray(uncovered, dtype=bool)
    r_u = unc if reward_uncovered is None else np.asarray(reward_uncovered, dtype=bool)
    penalty = penalty if penalty is not None else PenaltyState(len(ds.attributes))
    raw_q = _naive_raw_quality(ds, params, pos, P, N)
    s, b = params.penalty_strength, params.reward_saturation

    conditions = list(conditions)
    masks = [condition_mask(c, ds) for c in conditions]

    def cov_of(mks):
        m = np.ones(ds.n_examples, dtype=bool)
        for msk in mks:
            m = m & msk
        return m

    def modq(mask, attrs):
        p = int(np.count_nonzero(mask & pos))
        n = int(np.count_nonzero(mask & neg))
        q = raw_q(mask, p, n)
        pi = penalty.premise_penalty(attrs)
        rew = int(np.count_nonzero(mask & r_u))
        m = _naive_modifier(s, b, pi, p, rew)
        return q * m if q >= 0 else q / m

    while len(conditions) > 1:
        q_best = modq(cov_of(masks), set(c.attr_index for c in conditions))
        remove = -1
        for i in range(len(conditions)):
            cov_i = cov_of(masks[:i] + masks[i + 1:])
            p = int(np.count_nonzero(cov_i & pos))
            n = int(np.count_nonzero(cov_i & neg))
            if ConfusionMatrix(p, n, P, N).neg2pos > params.max_neg2pos:
                continue
            attrs = set(c.attr_index for j, c in enumerate(conditions) if j != i)
            qmod = modq(cov_i, attrs)
            if qmod >= q_best:
                remove = i
                q_best = qmod
        if remove < 0:
            break
        del conditions[remove]
        del masks[remove]
    return conditions


def _spi_reference(ctx, attrs):
    """s * pi with pi the exact rational sum of counts over ``set(attrs)``
    per total, rounded once by ``Fraction``; 0 before any usage."""
    penalty = ctx.penalty
    if penalty.total == 0:
        return 0.0
    pi = Fraction(sum(penalty.counts[ai] for ai in set(attrs)), penalty.total)
    return ctx.params.penalty_strength * float(pi)


def _modified_reference(ctx, q, p, p_new_reward, spi):
    """The diversity multiplier as it was before its unguarded path: always
    the masked divide, float errors silenced, and 1 - s*pi formed twice."""
    b = ctx.params.reward_saturation
    p = np.asarray(p, dtype=np.float64)
    spi = np.asarray(spi, dtype=np.float64)
    x = np.divide(np.asarray(p_new_reward, dtype=np.float64), p, out=np.zeros(p.shape), where=p > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = 1.0 / (1.0 - spi) - 1.0
        grown = 1.0 + ((x - b) / (1.0 - b)) * slope
    phi = np.where((spi >= 1.0) | (x <= b), 1.0, grown)
    m = np.maximum((1.0 - spi) * phi, MULTIPLIER_FLOOR)
    q = np.asarray(q, dtype=np.float64)
    return np.where(q >= 0, q * m, q / m)


def prune_rounds_reference(ctx, grown):
    """Prune rounds that recount the premise every round.

    This is the round that the engine's carried premise replaced, kept
    literal: the premise's counts, reward rows and raw quality are counted
    afresh each round, the ratio gate is one ``ConfusionMatrix`` per
    removal that adds rows, correlation scores only those removals, the
    first-use removals' attribute sets come from a generator, and the
    coverage is rebuilt every round. Returns a ``_Grown``.
    """
    if len(grown.conditions) <= 1:
        return grown
    conditions = list(grown.conditions)
    ids = np.arange(len(conditions))
    fails = np.zeros(ctx.ds.n_examples, dtype=np.int32)
    id_sum = np.zeros(ctx.ds.n_examples, dtype=np.int32)
    for c, cond in enumerate(conditions):
        miss = ~condition_mask(cond, ctx.ds)
        fails += miss
        id_sum += miss * np.int32(c)
    cov = grown.cov
    params = ctx.params
    while len(conditions) > 1:
        attrs = [c.attr_index for c in conditions]
        cm = count_confusion(cov, ctx.pos, ctx.d_u)
        rew = int(np.count_nonzero(cov & ctx.r_u))
        q = _raw_quality(ctx, cov, cm)
        q_best = float(_modified_reference(ctx, q, cm.p, rew, _spi_reference(ctx, attrs)))
        single = np.flatnonzero(fails == 1)
        sid = id_sum[single]
        key = sid * 4 + ctx.pos[single] * 2 + ctx.r_u[single]
        per = np.bincount(key, minlength=4 * len(grown.conditions)).reshape(-1, 2, 2)[ids]
        added, add_p, add_rew = per.sum(axis=(1, 2)), per[:, 1].sum(axis=1), per[:, :, 1].sum(axis=1)
        p, n = cm.p + add_p, cm.n + (added - add_p)
        q_rm = np.full(ids.size, q)
        ok = np.full(ids.size, not cm.neg2pos > params.max_neg2pos)
        grew = np.flatnonzero(added)
        for i in grew:
            cm_i = ConfusionMatrix(int(p[i]), int(n[i]), ctx.P, ctx.N)
            ok[i] = not cm_i.neg2pos > params.max_neg2pos
            if ok[i] and ctx.measure != "correlation":
                cov_i = cov.copy()
                cov_i[single[sid == ids[i]]] = True
                q_rm[i] = _raw_quality(ctx, cov_i, cm_i)
        if ctx.measure == "correlation":
            q_rm[grew] = _correlation(p[grew], n[grew], ctx.P, ctx.N)
        spi = np.full(ids.size, _spi_reference(ctx, set(attrs)))
        first: dict[int, int] = {}
        for i, a in enumerate(attrs):
            first.setdefault(a, i)
        for i in first.values():
            if ok[i]:
                spi[i] = _spi_reference(ctx, set(a for j, a in enumerate(attrs) if j != i))
        el = np.flatnonzero(ok)
        qmod = _modified_reference(ctx, q_rm[el], p[el], rew + add_rew[el], spi[el])
        reach = qmod >= q_best
        if not reach.any():
            break
        remove = int(el[np.flatnonzero(reach & (qmod == qmod[reach].max()))[-1]])
        miss = ~condition_mask(conditions[remove], ctx.ds)
        fails -= miss
        id_sum -= miss * np.int32(ids[remove])
        ids = np.delete(ids, remove)
        del conditions[remove]
        cov = fails == 0
    return _Grown(conditions, cov)


def condition_tuples(conditions):
    """Comparable view of a premise: (attr, op, value) with exact values."""
    return [(c.attr_index, c.op, c.value) for c in conditions]
