"""Tabular datasets with group membership, ARFF input and output.

A dataset holds the conditional attributes (the ones rules may test),
column-major, plus the bound special columns: the group identifier and,
depending on the task, a regression label or a survival time/status pair.
Group membership can come straight from a nominal column or be derived
from the label or survival time median.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Attribute",
    "DataSet",
    "ArffError",
    "parse_arff",
    "load_arff",
    "write_arff",
    "derive_groups_regression",
    "derive_groups_survival",
]

NUMERIC = "numeric"
NOMINAL = "nominal"

TASKS = ("classification", "regression", "survival")


@dataclass(frozen=True)
class Attribute:
    """A conditional attribute: a name plus either a numeric kind or a
    nominal kind with an ordered value domain."""

    name: str
    kind: str
    domain: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, NOMINAL):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NOMINAL:
            if not self.domain:
                raise ValueError(f"nominal attribute {self.name!r} needs a non-empty domain")
            if len(set(self.domain)) != len(self.domain):
                raise ValueError(f"nominal attribute {self.name!r} has duplicate domain values")
        elif self.domain:
            raise ValueError(f"numeric attribute {self.name!r} cannot declare a domain")

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC


class DataSet:
    """Column-major dataset: conditional attributes plus bound specials.

    Numeric columns are float64 with NaN for missing cells; nominal columns
    are int32 category indices with -1 for missing. Group membership, when
    present, is an index into ``group_names``.
    """

    def __init__(
        self,
        attributes: Sequence[Attribute],
        columns: Sequence[np.ndarray],
        *,
        relation: str = "data",
        task: str = "classification",
        group_names: Sequence[str] = (),
        group_codes: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        times: np.ndarray | None = None,
        status: np.ndarray | None = None,
        group_attr: str | None = None,
        label_attr: str | None = None,
        time_attr: str | None = None,
        status_attr: str | None = None,
    ):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names")
        if len(columns) != len(attributes):
            raise ValueError("one column per attribute required")
        sizes = {len(c) for c in columns}
        if group_codes is not None:
            sizes.add(len(group_codes))
        if labels is not None:
            sizes.add(len(labels))
        if times is not None:
            sizes.add(len(times))
        if status is not None:
            sizes.add(len(status))
        if len(sizes) > 1:
            raise ValueError("column lengths disagree")
        self._n = sizes.pop() if sizes else 0
        self.attributes = tuple(attributes)
        self.relation = relation
        self.task = task
        self._columns = []
        for attr, col in zip(self.attributes, columns):
            if attr.is_numeric:
                arr = np.asarray(col, dtype=np.float64)
            else:
                arr = np.asarray(col, dtype=np.int32)
                if arr.size and (arr.max() >= len(attr.domain) or arr.min() < -1):
                    raise ValueError(f"category index out of range for {attr.name!r}")
            arr = arr.copy()
            arr.setflags(write=False)
            self._columns.append(arr)
        self.group_names = tuple(group_names)
        if len(set(self.group_names)) != len(self.group_names):
            raise ValueError("duplicate group names")
        if group_codes is not None:
            gc = np.asarray(group_codes, dtype=np.int32).copy()
            if gc.size and (gc.min() < 0 or gc.max() >= max(len(self.group_names), 1)):
                raise ValueError("group code out of range")
            gc.setflags(write=False)
            self.group_codes: np.ndarray | None = gc
        else:
            self.group_codes = None
        self.labels = None if labels is None else np.asarray(labels, dtype=np.float64).copy()
        self.times = None if times is None else np.asarray(times, dtype=np.float64).copy()
        self.status = None if status is None else np.asarray(status, dtype=np.int8).copy()
        for arr in (self.labels, self.times, self.status):
            if arr is not None:
                arr.setflags(write=False)
        self.group_attr = group_attr
        self.label_attr = label_attr
        self.time_attr = time_attr
        self.status_attr = status_attr
        if self.status is not None and not np.isin(self.status, (0, 1)).all():
            raise ValueError("survival status values must be 0 or 1")
        if self.task == "regression":
            if self.labels is None:
                raise ValueError("regression task requires a bound label column")
            if np.isnan(self.labels).any():
                raise ValueError("regression labels contain missing values")
        if self.task == "survival":
            if self.times is None or self.status is None:
                raise ValueError("survival task requires bound time and status columns")
            if np.isnan(self.times).any():
                raise ValueError("survival times contain missing values")
            if (self.times < 0).any():
                raise ValueError("survival times must be non-negative")

    @property
    def n_examples(self) -> int:
        return self._n

    @property
    def groups(self) -> tuple[str, ...]:
        return self.group_names

    def column(self, key: int | str) -> np.ndarray:
        return self._columns[self.attr_index(key)]

    def attr_index(self, key: int | str) -> int:
        if isinstance(key, int):
            return key
        for i, a in enumerate(self.attributes):
            if a.name == key:
                return i
        raise KeyError(f"no attribute named {key!r}")

    def group_mask(self, group: str) -> np.ndarray:
        """Read-only bool mask of the examples in ``group``."""
        if self.group_codes is None:
            raise ValueError("dataset has no group assignment")
        try:
            gi = self.group_names.index(group)
        except ValueError:
            raise KeyError(f"no group named {group!r}") from None
        mask = self.group_codes == gi
        mask.setflags(write=False)
        return mask

    def subset(self, selector) -> "DataSet":
        """New dataset restricted to the selected rows (mask or indices).

        Observed groups are recomputed, preserving the parent order.
        """
        sel = np.asarray(selector)
        if sel.dtype == bool:
            idx = np.flatnonzero(sel)
        else:
            idx = sel.astype(np.intp)
        names, codes = (), None
        if self.group_codes is not None:
            names, codes = _observed_groups(self.group_names, self.group_codes[idx])
        return self._replace(
            columns=[col[idx] for col in self._columns],
            group_names=names,
            group_codes=codes,
            labels=None if self.labels is None else self.labels[idx],
            times=None if self.times is None else self.times[idx],
            status=None if self.status is None else self.status[idx],
        )

    def with_groups(
        self, group_names: Sequence[str], group_codes: np.ndarray, group_attr: str | None = None
    ) -> "DataSet":
        return self._replace(
            group_names=group_names,
            group_codes=group_codes,
            group_attr=group_attr if group_attr is not None else self.group_attr,
        )

    def _replace(self, **changes) -> "DataSet":
        """A new dataset from this one's constructor arguments with ``changes`` applied."""
        args = {"attributes": self.attributes, "columns": self._columns}
        # every keyword-only constructor argument is kept under its own name
        args.update((name, getattr(self, name)) for name in DataSet.__init__.__kwdefaults__)
        args.update(changes)
        return DataSet(**args)

    def __repr__(self) -> str:
        return (
            f"DataSet({self.relation!r}, n={self.n_examples}, "
            f"attrs={len(self.attributes)}, groups={list(self.group_names)}, task={self.task!r})"
        )


def _check_mask(mask, ds: DataSet, name: str) -> np.ndarray:
    """``mask`` as a coverage of ``ds``: a 1-D bool array with one entry per example.

    Anything else raises ValueError naming the argument ``name``.
    """
    arr = np.asarray(mask)
    if arr.dtype != bool or arr.shape != (ds.n_examples,):
        raise ValueError(
            f"{name} must be a 1-D bool mask of length {ds.n_examples}, "
            f"got {arr.dtype} array of shape {arr.shape}"
        )
    return arr


def _observed_groups(names: Sequence[str], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """Keep the groups that occur in ``codes``, in declaration order, and renumber."""
    seen = np.unique(codes)
    return tuple(names[k] for k in seen), np.searchsorted(seen, codes).astype(np.int32)


class ArffError(ValueError):
    """Malformed ARFF input; carries the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _split_csv(text: str, line_no: int) -> list[str]:
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


def _parse_attribute_line(rest: str, line_no: int) -> Attribute:
    rest = rest.strip()
    if not rest:
        raise ArffError(line_no, "@attribute needs a name and a type")
    if rest[0] in "'\"":
        quote = rest[0]
        end = rest.find(quote, 1)
        if end < 0:
            raise ArffError(line_no, "unterminated attribute name quote")
        name = rest[1:end]
        type_part = rest[end + 1 :].strip()
    else:
        parts = rest.split(None, 1)
        if len(parts) < 2:
            raise ArffError(line_no, "@attribute needs a name and a type")
        name, type_part = parts[0], parts[1].strip()
    if not name:
        raise ArffError(line_no, "empty attribute name")
    if type_part.startswith("{"):
        if not type_part.endswith("}"):
            raise ArffError(line_no, "unterminated nominal domain")
        values = _split_csv(type_part[1:-1], line_no)
        if any(v == "" for v in values):
            raise ArffError(line_no, f"empty value in nominal domain of {name!r}")
        try:
            return Attribute(name, NOMINAL, tuple(values))
        except ValueError as exc:
            raise ArffError(line_no, str(exc)) from None
    kind = type_part.lower()
    if kind in ("numeric", "real", "integer"):
        return Attribute(name, NUMERIC)
    raise ArffError(line_no, f"unsupported attribute type {type_part!r} for {name!r}")


def parse_arff(
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
    explicit nominal domain, and dense ``@data`` rows with ``?`` for missing
    cells. ``%`` lines are comments. The named columns are pulled out of the
    conditional attribute list and bound as group / label / time / status.
    Malformed input raises :class:`ArffError` with the offending line number.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    relation = "data"
    attributes: list[Attribute] = []
    rows: list[list[str]] = []
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
            fields = _split_csv(line, line_no)
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

    special_idx = set(special.values())
    cond_attrs = [a for i, a in enumerate(attributes) if i not in special_idx]
    n = len(rows)

    def numeric_cell(raw_value: str, line_no_hint: int, col_name: str) -> float:
        if raw_value == "?":
            return float("nan")
        try:
            return float(raw_value)
        except ValueError:
            raise ArffError(
                line_no_hint, f"non-numeric value {raw_value!r} in column {col_name!r}"
            ) from None

    def numeric_column(ci: int) -> np.ndarray:
        # nominal-declared special columns are read as numbers too
        name = attributes[ci].name
        col = np.empty(n, dtype=np.float64)
        for r, fields in enumerate(rows):
            col[r] = numeric_cell(fields[ci], row_lines[r], name)
        return col

    columns: list[np.ndarray] = []
    for i, attr in enumerate(attributes):
        if i in special_idx:
            columns.append(None)  # placeholder; handled below
            continue
        if attr.is_numeric:
            col = numeric_column(i)
        else:
            lookup = {v: k for k, v in enumerate(attr.domain)}
            col = np.empty(n, dtype=np.int32)
            for r, fields in enumerate(rows):
                v = fields[i]
                if v == "?":
                    col[r] = -1
                elif v in lookup:
                    col[r] = lookup[v]
                else:
                    raise ArffError(
                        row_lines[r],
                        f"value {v!r} not in declared domain of {attr.name!r}",
                    )
        columns.append(col)

    group_names: tuple[str, ...] = ()
    group_codes = None
    if "group" in special:
        gi = special["group"]
        gattr = attributes[gi]
        if gattr.is_numeric:
            raise ArffError(1, f"group column {gattr.name!r} must be nominal")
        lookup = {v: k for k, v in enumerate(gattr.domain)}
        raw_codes = np.empty(n, dtype=np.int32)
        for r, fields in enumerate(rows):
            v = fields[gi]
            if v == "?":
                raise ArffError(row_lines[r], f"missing group value in column {gattr.name!r}")
            if v not in lookup:
                raise ArffError(row_lines[r], f"value {v!r} not in declared domain of {gattr.name!r}")
            raw_codes[r] = lookup[v]
        group_names, group_codes = _observed_groups(gattr.domain, raw_codes)

    def special_numeric(role: str) -> np.ndarray | None:
        return numeric_column(special[role]) if role in special else None

    labels_arr = special_numeric("label")
    times_arr = special_numeric("time")
    status_f = special_numeric("status")
    status_arr = None
    if status_f is not None:
        if np.isnan(status_f).any():
            bad = int(np.flatnonzero(np.isnan(status_f))[0])
            raise ArffError(row_lines[bad], "missing survival status value")
        ok = np.isin(status_f, (0.0, 1.0))
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            raise ArffError(row_lines[bad], "survival status must be 0 or 1")
        status_arr = status_f.astype(np.int8)
    if task == "regression" and labels_arr is not None and np.isnan(labels_arr).any():
        bad = int(np.flatnonzero(np.isnan(labels_arr))[0])
        raise ArffError(row_lines[bad], "missing label value")
    if task == "survival" and times_arr is not None and np.isnan(times_arr).any():
        bad = int(np.flatnonzero(np.isnan(times_arr))[0])
        raise ArffError(row_lines[bad], "missing survival time value")

    cond_columns = [c for i, c in enumerate(columns) if i not in special_idx]
    try:
        return DataSet(
            cond_attrs,
            cond_columns,
            relation=relation,
            task=task,
            group_names=group_names,
            group_codes=group_codes,
            labels=labels_arr,
            times=times_arr,
            status=status_arr,
            group_attr=group,
            label_attr=label,
            time_attr=time,
            status_attr=status,
        )
    except ValueError as exc:
        raise ArffError(1, str(exc)) from None


def load_arff(path, **bindings) -> DataSet:
    """Read and parse an ARFF file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_arff(fh, **bindings)


def _format_value(x: float) -> str:
    return repr(float(x))


_NEEDS_QUOTES = re.compile(r"[,'\"{}%\s]")


def _quote_if_needed(value: str) -> str:
    if value == "" or "\n" in value or "\r" in value:
        raise ValueError(f"cannot write {value!r}: ARFF has no empty or multi-line names and values")
    if _NEEDS_QUOTES.search(value):
        # the reader treats either quote char as literal inside the other
        if "'" not in value:
            return f"'{value}'"
        if '"' not in value:
            return f'"{value}"'
        raise ValueError(f"cannot quote {value!r}: it mixes both quote characters")
    return value


def _quoted_domain(domain: Sequence[str]) -> tuple[str, ...]:
    if "?" in domain:
        raise ValueError("cannot write the nominal value '?': ARFF reads it as a missing cell")
    return tuple(_quote_if_needed(v) for v in domain)


def write_arff(ds: DataSet, out=None) -> str:
    """Serialize a dataset back to ARFF, bound columns included.

    The special columns are appended after the conditional attributes under
    their stored names, so ``parse_arff(write_arff(ds), ...)`` with the same
    bindings round-trips the dataset. A dataset ARFF cannot hold (no
    columns, duplicate column names, an empty or multi-line name or value, a
    value mixing both quote characters, or the nominal value ``?``) raises
    ValueError.
    """
    # (name, quoted domain or None for numeric, values) per column
    columns = [
        (a.name, None if a.is_numeric else _quoted_domain(a.domain), col)
        for a, col in zip(ds.attributes, ds._columns)
    ]
    if ds.group_codes is not None:
        columns.append((ds.group_attr or "group", _quoted_domain(ds.group_names), ds.group_codes))
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
    for i in range(ds.n_examples):
        fields: list[str] = []
        for _, domain, arr in columns:
            if domain is not None:
                c = int(arr[i])
                fields.append("?" if c < 0 else domain[c])
            elif arr is ds.status:
                fields.append(str(int(arr[i])))
            else:
                v = arr[i]
                fields.append("?" if np.isnan(v) else _format_value(v))
        buf.write(",".join(fields) + "\n")
    return _write_text(buf.getvalue(), out)


def _read_text(source) -> str:
    """Text of a readable stream, of a file, or the string ``source`` itself.

    A ``Path``, or a string without a newline, names a file; any other
    string is the text.
    """
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source):
        return Path(source).read_text(encoding="utf-8")
    return source


def _write_text(text: str, out) -> str:
    """Write ``text`` to a writable stream or a path (none when ``out`` is None)."""
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            Path(out).write_text(text, encoding="utf-8")
    return text


def _median(values: np.ndarray) -> float:
    """Median as the mean of the two central order statistics for even counts."""
    return float(np.median(values))


def derive_groups_regression(ds: DataSet, label: str | None = None) -> DataSet:
    """Split examples into groups G1 (label below the median) and G2 (at or
    above). The label stays bound as the regression target.

    ``label`` may name a conditional attribute to bind first; by default the
    already-bound label column is used.
    """
    if label is not None:
        ds = _bind_numeric(ds, label, "label")
    if ds.labels is None:
        raise ValueError("no label column bound")
    if np.isnan(ds.labels).any():
        raise ValueError("labels contain missing values")
    med = _median(ds.labels)
    below = ds.labels < med
    if not below.any() or below.all():
        raise ValueError("cannot split on the label median: one group would be empty")
    codes = np.where(below, 0, 1).astype(np.int32)
    return ds.with_groups(("G1", "G2"), codes, group_attr="group")


def derive_groups_survival(
    ds: DataSet, time: str | None = None, status: str | None = None
) -> DataSet:
    """Split survival data on the median observation time.

    G1 holds examples with an event before the median; G2 holds examples
    observed at or beyond the median (events and censored alike). Censored
    examples below the median carry no usable outcome and are dropped. The
    median is taken over all examples before any removal.
    """
    if time is not None:
        ds = _bind_numeric(ds, time, "time")
    if status is not None:
        ds = _bind_numeric(ds, status, "status")
    if ds.times is None or ds.status is None:
        raise ValueError("no time/status columns bound")
    med = _median(ds.times)
    event = ds.status == 1
    g1 = event & (ds.times < med)
    g2 = ds.times >= med
    keep = g1 | g2
    if not g1.any() or not g2.any():
        raise ValueError("cannot split on the time median: one group would be empty")
    sub = ds.subset(keep)
    codes = np.where(g1[keep], 0, 1).astype(np.int32)
    return sub.with_groups(("G1", "G2"), codes, group_attr="group")


def _bind_numeric(ds: DataSet, name: str, role: str) -> DataSet:
    """Move a conditional numeric attribute into a special-column role."""
    idx = ds.attr_index(name)
    attr = ds.attributes[idx]
    col = ds.column(idx)
    if not attr.is_numeric:
        raise ValueError(f"{role} column {name!r} must be numeric")
    changes = dict(
        attributes=[a for i, a in enumerate(ds.attributes) if i != idx],
        columns=[c for i, c in enumerate(ds._columns) if i != idx],
    )
    if role == "label":
        changes.update(labels=col, label_attr=name)
        if ds.task == "classification":
            changes["task"] = "regression"
    elif role == "time":
        changes.update(times=col, time_attr=name)
    elif role == "status":
        if np.isnan(col).any() or not np.isin(col, (0.0, 1.0)).all():
            raise ValueError(f"status column {name!r} must hold only 0 and 1")
        changes.update(status=col.astype(np.int8), status_attr=name)
    if changes.get("times", ds.times) is not None and changes.get("status", ds.status) is not None:
        changes["task"] = "survival"
    return ds._replace(**changes)
