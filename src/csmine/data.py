"""Tabular datasets with group membership, ARFF input and output.

A dataset holds the conditional attributes (the ones rules may test),
column-major, plus the bound special columns: the group identifier and,
depending on the task, a regression label or a survival time/status pair.
Group membership can come straight from a nominal column or be derived
from the label or survival time median.
"""

from __future__ import annotations

import contextlib
import itertools
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

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

# The values a bound column may hold: (role, task the rule holds in or None
# for every task, test of the valid values, message). Each row is tested
# against its role's rules in this order.
_RULES = (
    ("label", "regression", np.isfinite,
     "regression labels must be finite: no missing or infinite values"),
    ("time", "survival", np.isfinite, "survival times must be finite: no missing or infinite values"),
    ("time", "survival", lambda v: v >= 0, "survival times must be non-negative"),
    ("status", None, lambda v: (v == 0) | (v == 1), "survival status must be 0 or 1"),
)


def _rule_error(role: str | None, values: np.ndarray, task: str) -> tuple[int, str] | None:
    """The first row of the float column ``values``, bound as ``role``, that
    breaks a rule of ``task``, with that rule's message; None if none does."""
    errors = []
    for r, t, test, message in _RULES:
        if r == role and t in (None, task):
            ok = test(values)
            if not ok.all():
                errors.append((int(np.argmin(ok)), message))
    return min(errors, key=itemgetter(0), default=None)


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
        if task == "regression" and labels is None:
            raise ValueError("regression task requires a bound label column")
        if task == "survival" and (times is None or status is None):
            raise ValueError("survival task requires bound time and status columns")
        # the rules see the values as given, so a status of 0.5 or NaN is refused, not cast
        labels, times, status = (
            None if v is None else np.array(v, dtype=np.float64) for v in (labels, times, status)
        )
        for role, values in (("label", labels), ("time", times), ("status", status)):
            error = values is not None and _rule_error(role, values, task)
            if error:
                raise ValueError(error[1])
        self.labels, self.times = labels, times
        self.status = None if status is None else status.astype(np.int8)
        for arr in (self.labels, self.times, self.status):
            if arr is not None:
                arr.setflags(write=False)
        self.group_attr = group_attr
        self.label_attr = label_attr
        self.time_attr = time_attr
        self.status_attr = status_attr

    @property
    def n_examples(self) -> int:
        return self._n

    @property
    def groups(self) -> tuple[str, ...]:
        return self.group_names

    def column(self, key: int | str) -> np.ndarray:
        return self._columns[self.attr_index(key)]

    def attr_index(self, key: int | str) -> int:
        """The position of the attribute named or at position ``key``, a
        Python or numpy integer but not a bool; KeyError where there is none."""
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
            if 0 <= key < len(self.attributes):
                return int(key)
            raise KeyError(f"no attribute at position {key}")
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


# A field is a run of unquoted characters other than a comma and of quoted
# runs, which may hold commas and the other quote character; unrolled as
# normal* (quoted normal*)*, so a failed match backtracks in linear time.
_FIELD = r"""[^,'"]*(?:(?:'[^']*'|"[^"]*")[^,'"]*)*"""
_FIELDS = re.compile(f"({_FIELD}),")
# A token of the @data section: a field kept on its line (a newline joins
# every excluded class) and what ends it, a comma, a newline or the end of
# the text. With no group, findall returns the tokens whole.
_TOKENS = re.compile(_FIELD.replace("]", r"\n]") + r"(?:,|\n|\Z)")
_LINE = re.compile(r"[^\n]*\n|[^\n]+")  # one line and its newline
# A @data line that holds no row (blank, whitespace only or a % comment), or
# a sparse row (group 1). \s is str.strip's whitespace. Anchored on the
# newline before the line, which sre finds faster than a MULTILINE ^.
_ODD_LINE = re.compile(r"\n[^\S\n]*(?:(\{)|(?:%[^\n]*)?(?=\n|\Z))")
_QUOTED_RUN = re.compile(r"""'([^']*)'|"([^"]*)\"""")
_QUOTED_SPAN = re.compile(r"""['"].*['"]""", re.S)  # first quote to last
# The @data section is read by one token scan per chunk of about this many
# characters, cut after a newline, so the parse holds the columns plus one
# chunk's tokens, never a string per cell of the file.
_CHUNK_CHARS = 1 << 18
# write_arff formats the rows this many cells at a time.
_WRITE_CELLS = 1 << 14


def _raw_fields(text: str, line_no: int) -> list[str]:
    """The raw fields of a comma-separated ARFF record, quotes and all."""
    text += ","  # the extra comma ends the last field
    fields = _FIELDS.findall(text)
    # findall skips over an unterminated quote, so the fields then fall
    # short of covering the whole record
    if sum(map(len, fields)) + len(fields) != len(text):
        raise ArffError(line_no, "unterminated quote")
    return fields


def _field_text(raw: str) -> str:
    """The text of a raw field: whitespace around it is dropped, and quoted
    text is kept verbatim without its quotes."""
    span = _QUOTED_SPAN.search(raw)
    if span is None:
        return raw.strip()
    lo, hi = span.span()
    # split keeps the text between quoted runs and each run's groups; the
    # group a run did not match is None, so filtering drops it and empty runs
    inner = "".join(filter(None, _QUOTED_RUN.split(raw[lo:hi])))
    return raw[:lo].lstrip() + inner + raw[hi:].rstrip()


class _Section:
    """The ``@data`` section that starts at ``text[start]``, on line
    ``first``, of rows of ``k`` fields, read a chunk of rows at a time.

    Blank, whitespace-only and ``%`` lines are skipped; ``starts`` and
    ``ends`` hold their spans, and ``n`` counts the rows. A malformed row,
    wherever it is, makes the section walk its lines from the start to raise
    the error of the first bad one; only a malformed section is walked.
    """

    def __init__(self, text: str, start: int, first: int, k: int):
        self.text, self.start, self.first, self.k = text, start, first, k
        # a skipped line's span, newline included: a match starts at the
        # newline before its line and ends before the line's own
        self.starts, self.ends = array("q"), array("q")
        for m in _ODD_LINE.finditer(text, start - 1):
            if m.group(1):
                self.raise_first_bad_row()
            elif m.start() < len(text) - 1:  # not the empty text after a final newline
                self.starts.append(m.start() + 1)
                self.ends.append(m.end() + 1)
        lines = text.count("\n", start) + (len(text) > start and text[-1] != "\n")
        self.n = lines - len(self.starts)

    def chunks(self) -> Iterator[tuple[list[str], int]]:
        """The rows, a chunk of about ``_CHUNK_CHARS`` characters at a time:
        (tokens, first row), ``k`` tokens a row, each a raw field plus one
        separator character, a comma or, at the end of a row, a newline.

        A chunk that holds skipped lines is scanned as one copy of the rows
        between them, so skipped lines cost no scan of their own.
        """
        text, starts, ends, k = self.text, self.starts, self.ends, self.k
        pos, row, i = self.start, 0, 0
        while pos < len(text):
            # no token holds a newline but at its end, so a cut after one
            # splits no field, and a skipped line ends at or before the cut
            cut = text.find("\n", min(pos + _CHUNK_CHARS, len(text)) - 1) + 1 or len(text)
            j = bisect_left(starts, cut, i)
            # the rows from pos or a skipped line's end to the next skipped line or the cut
            rows = "".join(text[a:b] for a, b in zip([pos, *ends[i:j]], [*starts[i:j], cut]))
            pos, i = cut, j
            if not rows:
                continue
            tokens = _TOKENS.findall(rows)
            # findall steps over an unterminated quote, so its tokens then
            # fall short of covering the rows
            if sum(map(len, tokens)) != len(rows):
                self.raise_first_bad_row()
            # the scan ends in an empty match at the end, a last empty field
            # only after a comma; a last line without a newline gets one
            if len(tokens) < 2 or tokens[-2][-1] != ",":
                tokens.pop()
            if tokens[-1][-1:] != "\n":
                tokens[-1] += "\n"
            n = rows.count("\n") + (rows[-1] != "\n")
            # each token holds at most one newline, at its end, so these n
            # rows of k fields are n * k tokens with a newline ending every
            # k-th one
            if len(tokens) != n * k or any(t[-1] != "\n" for t in dict.fromkeys(tokens[k - 1 :: k])):
                self.raise_first_bad_row()
            yield tokens, row
            row += n

    def line(self, row: int) -> int:
        """The line of the ``row``-th row: the skipped lines before it are
        counted off the rows between them."""
        line, pos = self.first + row, self.start
        for start, end in zip(self.starts, self.ends):
            row -= self.text.count("\n", pos, start)
            if row < 0:
                break
            line, pos = line + 1, end
        return line

    def fail(self, line: int, message: str) -> NoReturn:
        """Raise ``ArffError(line, message)``, unless a row is malformed: the
        first bad row's error comes first."""
        for _ in self.chunks():
            pass
        raise ArffError(line, message)

    def raise_first_bad_row(self) -> NoReturn:
        """Raise the error of the section's first malformed row, walking it
        line by line."""
        for line_no, raw in enumerate(self.text[self.start :].split("\n"), start=self.first):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if line.startswith("{"):
                raise ArffError(line_no, "sparse data rows are not supported")
            fields = _raw_fields(line, line_no)
            if len(fields) != self.k:
                raise ArffError(line_no, f"expected {self.k} values, found {len(fields)}")
        raise AssertionError("the @data scan failed on a section whose every row is well formed")


class _Column:
    """One ``@data`` column, decoded a chunk at a time into ``values``:
    codes into ``lookup`` or, without one, numbers.

    Only a bare ``?`` is a missing cell, read as -1 or NaN; a quoted ``'?'``
    is the text ``?``. Where ``missing`` is given, a missing cell (or a
    ``nan``) is an error instead. The table of token values lasts across
    chunks, so each distinct token is decoded once, in order of first
    appearance. The first that fails ends the decoding, and ``error`` keeps
    the first row that holds it, with the message.
    """

    def __init__(self, n: int, name: str, lookup: dict[str, int] | None, missing: str | None):
        self.values = np.empty(n, np.float64 if lookup is None else np.int32)
        self.error: tuple[int, str] | None = None
        self.name, self.lookup, self.missing = name, lookup, missing
        self.table: dict[str, float] = {}

    def decode(self, token: str) -> float:
        """The value of a token, a raw field plus its separator."""
        raw = token[:-1]
        text = None if raw.strip() == "?" else _field_text(raw)
        if self.lookup is not None:
            if text is not None and text not in self.lookup:
                raise ValueError(f"value {text!r} not in declared domain of {self.name!r}")
            value = -1 if text is None else self.lookup[text]
        else:
            try:
                value = np.nan if text is None else float(text)
            except ValueError:
                raise ValueError(f"non-numeric value {text!r} in column {self.name!r}") from None
        if self.missing and (text is None or value != value):
            raise ValueError(self.missing)
        return value

    def read(self, tokens: list[str], row: int) -> None:
        """Decode the column's ``tokens`` of a chunk whose first row is ``row``."""
        if self.error is not None:
            return
        table, m = self.table, len(tokens)
        try:
            values = np.fromiter(map(table.__getitem__, tokens), self.values.dtype, m)
        except KeyError:  # a token first seen in this chunk
            for token in dict.fromkeys(tokens):
                if token not in table:
                    try:
                        table[token] = self.decode(token)
                    except ValueError as exc:
                        self.error = row + tokens.index(token), str(exc)
                        return
            values = np.fromiter(map(table.__getitem__, tokens), self.values.dtype, m)
        self.values[row : row + m] = values


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
        values = [_field_text(f) for f in _raw_fields(type_part[1:-1], line_no)]
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
    # the header's lines, read in place: a StringIO would copy the whole text
    for line_no, match in enumerate(_LINE.finditer(text), start=1):
        line = match.group().strip()
        if not line or line.startswith("%"):
            continue
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
            break
        else:
            raise ArffError(line_no, f"unrecognized header line {line.split()[0]!r}")
    else:
        raise ArffError(1, "missing @data section")
    k = len(attributes)
    section = _Section(text, match.end(), line_no + 1, k)

    all_names = [a.name for a in attributes]
    if len(set(all_names)) != len(all_names):
        dupe = next(n for n in all_names if all_names.count(n) > 1)
        section.fail(1, f"duplicate attribute name {dupe!r}")

    special = {}
    for role, name in (("group", group), ("label", label), ("time", time), ("status", status)):
        if name is None:
            continue
        if name not in all_names:
            section.fail(1, f"{role} column {name!r} not declared")
        special[role] = all_names.index(name)
    if len(set(special.values())) != len(special):
        section.fail(1, "group/label/time/status columns must be distinct")

    if task is None:
        if time is not None or status is not None:
            task = "survival"
        elif label is not None:
            task = "regression"
        else:
            task = "classification"
    if task == "survival" and ("time" not in special or "status" not in special):
        section.fail(1, "survival task needs both time and status columns")
    if task == "regression" and "label" not in special:
        section.fail(1, "regression task needs a label column")

    roles = {i: role for role, i in special.items()}
    cond_idx = [i for i in range(len(attributes)) if i not in roles]
    readers: dict[int, _Column] = {}
    # conditional columns first, then the bound ones in role order
    for i in cond_idx + list(special.values()):
        attr, role = attributes[i], roles.get(i)
        # nominal-declared label, time and status columns are read as numbers
        codes = role == "group" or (role is None and not attr.is_numeric)
        missing = {
            "group": f"missing group value in column {attr.name!r}",
            "label": "missing label value" if task == "regression" else None,
            "time": "missing survival time value" if task == "survival" else None,
            "status": "missing survival status value",
        }.get(role)
        readers[i] = _Column(
            section.n, attr.name, {v: c for c, v in enumerate(attr.domain)} if codes else None, missing
        )
    for tokens, row in section.chunks():
        for i, reader in readers.items():
            reader.read(tokens[i::k], row)
    # in the same column order: each column's first bad cell, then the
    # values DataSet refuses, found here so the error names their line
    columns: dict[int, np.ndarray] = {}
    for i, reader in readers.items():
        attr, role = attributes[i], roles.get(i)
        if role == "group" and attr.is_numeric:
            raise ArffError(1, f"group column {attr.name!r} must be nominal")
        error = reader.error or _rule_error(role, reader.values, task)
        if error:
            raise ArffError(section.line(error[0]), error[1])
        columns[i] = reader.values

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


def load_arff(path, **bindings) -> DataSet:
    """Read and parse a UTF-8 ARFF file from disk; a file that is not UTF-8
    raises ArffError at the line of its first bad byte."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_arff(fh, **bindings)
        except UnicodeDecodeError as exc:
            error = exc
    # the text reader may decode a buffer at a time, so the error's offset
    # need not be the file's: decode the bytes whole to find it
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as the text reader ends them: at \r\n, \r or \n
        before = raw[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ArffError(line, f"not UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})") from None
    raise error  # the file changed between the two reads


_NEEDS_QUOTES = re.compile(r"[,'\"{}%\s]")


def _quote_if_needed(value: str) -> str:
    if value == "" or "\n" in value or "\r" in value:
        raise ValueError(f"cannot write {value!r}: ARFF has no empty or multi-line names and values")
    if _NEEDS_QUOTES.search(value) or value == "?":  # a bare ? is a missing cell
        # the reader treats either quote char as literal inside the other
        if "'" not in value:
            return f"'{value}'"
        if '"' not in value:
            return f'"{value}"'
        raise ValueError(f"cannot quote {value!r}: it mixes both quote characters")
    return value


def write_arff(ds: DataSet, out=None) -> str:
    """Serialize a dataset back to ARFF, bound columns included.

    The special columns are appended after the conditional attributes under
    their stored names, so ``parse_arff(write_arff(ds), ...)`` with the same
    bindings round-trips the dataset. A dataset ARFF cannot hold (no
    columns, duplicate column names, an empty or multi-line name or value, or
    a value mixing both quote characters) raises ValueError, before anything
    is written.

    The text is returned and, when ``out`` (a writable stream or a path) is
    given, written to it: the header, then the rows a chunk of about
    ``_WRITE_CELLS`` cells at a time, each formatted a column at a time and
    joined once, with no string per row. The returned text grows by each
    chunk in place (CPython extends a str that nothing else refers to), and
    ``out`` takes each chunk as it comes, so the writer holds the text and
    one chunk, never a copy of the whole text.
    """
    # (name, quoted domain or None for numeric, values) per column
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
    header = [f"@relation {_quote_if_needed(ds.relation)}\n\n"]
    for name, domain, _ in columns:
        kind = "numeric" if domain is None else "{" + ",".join(domain) + "}"
        header.append(f"@attribute {_quote_if_needed(name)} {kind}\n")
    header.append("\n@data\n")
    text = ""
    with contextlib.ExitStack() as stack:
        if out is not None and not hasattr(out, "write"):
            out = stack.enter_context(open(out, "w", encoding="utf-8"))
        for chunk in itertools.chain(header, _data_chunks(columns, ds.n_examples)):
            if out is not None:
                out.write(chunk)
            text += chunk
    return text


def _data_chunks(columns, n: int) -> Iterator[str]:
    """The ``@data`` rows of ``columns``, ``(name, quoted domain or None,
    values)`` each, as text of at most ``_WRITE_CELLS`` cells a chunk.

    A cell carries its separator, a comma or, after a row's last cell, a
    newline, so a chunk is one join of its cells in row order. A missing
    cell, NaN or code -1, is a bare ``?``; status ints print as they read back.
    """
    k = len(columns)
    seps = [","] * (k - 1) + ["\n"]
    # code -1 picks the "?" after the domain
    tables = [None if domain is None else tuple(v + sep for v in domain + ("?",))
              for (_, domain, _), sep in zip(columns, seps)]
    step = max(1, _WRITE_CELLS // k)
    for lo in range(0, n, step):
        cells = [""] * (min(step, n - lo) * k)
        for c, ((_, _, arr), table, sep) in enumerate(zip(columns, tables, seps)):
            values = arr[lo : lo + step].tolist()
            if table is None:
                missing = "?" + sep
                cells[c::k] = [missing if x != x else repr(x) + sep for x in values]
            else:
                cells[c::k] = map(table.__getitem__, values)
        yield "".join(cells)


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
        changes.update(status=col, status_attr=name)
    if changes.get("times", ds.times) is not None and changes.get("status", ds.status) is not None:
        changes["task"] = "survival"
    return ds._replace(**changes)
