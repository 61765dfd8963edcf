"""Conditions, contrast sets, coverage, and the printable condition grammar.

A contrast set is a conjunction of attribute tests tied to one group of
interest. Numeric tests are strict ``<`` or inclusive ``>=`` against a
threshold; nominal tests are ``=`` or ``!=`` against a category. A missing
cell satisfies no test.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .data import DataSet

__all__ = [
    "LT",
    "GE",
    "EQ",
    "NE",
    "Condition",
    "ContrastSet",
    "ConfusionMatrix",
    "condition_mask",
    "cover",
    "canonicalize",
    "is_duplicate",
    "render_condition",
    "render_conditions",
    "parse_conditions",
]

LT = "lt"
GE = "ge"
EQ = "eq"
NE = "ne"

_NUMERIC_OPS = (LT, GE)
_NOMINAL_OPS = (EQ, NE)
# Candidate enumeration order within one threshold or category.
_OP_RANK = {LT: 0, GE: 1, EQ: 0, NE: 1}


@dataclass(frozen=True)
class Condition:
    """One attribute test. ``value`` is a float threshold for numeric ops
    and a category index for nominal ops."""

    attr_index: int
    op: str
    value: float | int

    def __post_init__(self) -> None:
        if self.op not in _OP_RANK:
            raise ValueError(f"unknown operator {self.op!r}")

    @property
    def is_numeric(self) -> bool:
        return self.op in _NUMERIC_OPS

    def sort_key(self) -> tuple:
        return (self.attr_index, _OP_RANK[self.op], self.value)


@dataclass(frozen=True)
class ContrastSet:
    """A conjunction of conditions describing one group of interest."""

    conditions: tuple[Condition, ...]
    group: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(self.conditions))

    def __len__(self) -> int:
        return len(self.conditions)

    @property
    def attribute_indices(self) -> frozenset[int]:
        return frozenset(c.attr_index for c in self.conditions)

    def key(self) -> tuple[str, frozenset[Condition]]:
        return (self.group, frozenset(self.conditions))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Coverage counts of one contrast set: positives covered (p) out of P,
    negatives covered (n) out of N, and previously uncovered positives
    covered (p_new)."""

    p: int
    n: int
    P: int
    N: int
    p_new: int = 0

    @property
    def support(self) -> float:
        return self.p / self.P if self.P else 0.0

    @property
    def precision(self) -> float:
        covered = self.p + self.n
        return self.p / covered if covered else 0.0

    @property
    def neg2pos(self) -> float:
        """(n/N) / (p/P); infinite when p = 0 so thresholds reject it."""
        if self.p == 0:
            return math.inf
        if self.N == 0:
            return 0.0
        return (self.n * self.P) / (self.p * self.N)


def condition_mask(condition: Condition, ds: DataSet) -> np.ndarray:
    """Boolean mask of the examples satisfying one condition."""
    col = ds.column(condition.attr_index)
    attr = ds.attributes[condition.attr_index]
    if condition.op in _NUMERIC_OPS:
        if not attr.is_numeric:
            raise ValueError(f"numeric test on nominal attribute {attr.name!r}")
        # NaN compares false on both sides, which is the missing-cell rule.
        if condition.op == LT:
            return col < condition.value
        return col >= condition.value
    if attr.is_numeric:
        raise ValueError(f"nominal test on numeric attribute {attr.name!r}")
    if condition.op == EQ:
        return col == condition.value
    return (col != condition.value) & (col >= 0)


def cover(cs: ContrastSet, ds: DataSet) -> np.ndarray:
    """Fresh bool mask of the examples covered by the conjunction.

    An empty premise covers every example.
    """
    mask = np.ones(ds.n_examples, dtype=bool)
    for cond in cs.conditions:
        mask = mask & condition_mask(cond, ds)
    return mask


def canonicalize(cs: ContrastSet) -> ContrastSet:
    """Collapse the premise to its minimal equivalent form.

    Per numeric attribute only the tightest lower (``>=``) and upper (``<``)
    bound survive; duplicate nominal tests are dropped. Contradictory
    premises (empty intervals, clashing ``=`` tests) are preserved as
    written; they simply cover nothing. Coverage is unchanged. Conditions
    come out sorted by attribute, lower bound before upper, ``=`` before
    ``!=``.
    """
    by_attr: dict[int, dict] = {}
    order: list[int] = []
    for cond in cs.conditions:
        slot = by_attr.get(cond.attr_index)
        if slot is None:
            slot = {"lo": None, "hi": None, "nominal": []}
            by_attr[cond.attr_index] = slot
            order.append(cond.attr_index)
        if cond.op == GE:
            if slot["lo"] is None or cond.value > slot["lo"]:
                slot["lo"] = cond.value
        elif cond.op == LT:
            if slot["hi"] is None or cond.value < slot["hi"]:
                slot["hi"] = cond.value
        else:
            if cond not in slot["nominal"]:
                slot["nominal"].append(cond)
    out: list[Condition] = []
    for ai in sorted(order):
        slot = by_attr[ai]
        if slot["lo"] is not None:
            out.append(Condition(ai, GE, slot["lo"]))
        if slot["hi"] is not None:
            out.append(Condition(ai, LT, slot["hi"]))
        out.extend(sorted(slot["nominal"], key=Condition.sort_key))
    return ContrastSet(tuple(out), cs.group)


def is_duplicate(a: ContrastSet, b: ContrastSet) -> bool:
    """Same group and identical canonical condition sets.

    Both arguments are expected in canonical form; re-canonicalizing here
    keeps the check safe for raw premises too.
    """
    return canonicalize(a).key() == canonicalize(b).key()


def _format_threshold(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def render_condition(cond: Condition, ds: DataSet) -> str:
    attr = ds.attributes[ds.attr_index(cond.attr_index)]
    if cond.op == EQ:
        return f"{attr.name} = {attr.domain[int(cond.value)]}"
    if cond.op == NE:
        return f"{attr.name} != {attr.domain[int(cond.value)]}"
    if cond.op == GE:
        return f"{attr.name} in [{_format_threshold(cond.value)}, inf)"
    return f"{attr.name} in (-inf, {_format_threshold(cond.value)})"


def render_conditions(cs: ContrastSet, ds: DataSet) -> str:
    """Printable form of a canonical premise.

    Numeric bounds on one attribute merge into interval notation:
    ``attr in [lo, hi)``, half-open on the right; one-sided bounds use
    ``inf``. Nominal tests print as ``attr = v`` and ``attr != v``. Parts
    join with `` AND ``.
    """
    canon = canonicalize(cs)
    parts: list[str] = []
    i = 0
    conds = canon.conditions
    while i < len(conds):
        c = conds[i]
        if (
            c.op == GE
            and i + 1 < len(conds)
            and conds[i + 1].op == LT
            and conds[i + 1].attr_index == c.attr_index
        ):
            name = ds.attributes[ds.attr_index(c.attr_index)].name
            parts.append(
                f"{name} in [{_format_threshold(c.value)}, "
                f"{_format_threshold(conds[i + 1].value)})"
            )
            i += 2
            continue
        parts.append(render_condition(c, ds))
        i += 1
    return " AND ".join(parts)


_INTERVAL = re.compile(r"[\[(](?P<a>[^,]+), (?P<b>[^)]+)\)")


def _read_part(part: str, ds: DataSet) -> list[Condition]:
    """The conditions of the first reading of ``part`` that ``ds`` accepts,
    else the first reading's error. A reading cuts the part at an `` in ``
    before an interval, then a `` != ``, then a `` = ``, leftmost first."""
    error = None
    for sep in (" in ", " != ", " = "):
        at = part.find(sep)
        while at != -1:
            name, test, at = part[:at], part[at + len(sep) :], part.find(sep, at + 1)
            interval = _INTERVAL.fullmatch(test) if sep == " in " else None
            if sep == " in " and not interval:  # an in-cut reads only an interval
                continue
            try:
                ai = ds.attr_index(name)
                attr = ds.attributes[ai]
                if interval and not attr.is_numeric:
                    raise ValueError(f"numeric test on nominal attribute {name!r}")
                if interval:
                    bounds = (GE, interval["a"].strip(), "-inf"), (LT, interval["b"].strip(), "inf")
                    return [Condition(ai, op, float(x)) for op, x, none in bounds if x != none]
                if test not in attr.domain:
                    raise ValueError(f"attribute {name!r} has no value {test!r}")
                return [Condition(ai, NE if sep == " != " else EQ, attr.domain.index(test))]
            except (KeyError, ValueError) as exc:  # KeyError: no attribute of that name
                error = error or ValueError(exc.args[0])
    raise error or ValueError(f"cannot parse condition {part!r}")


def parse_conditions(text: str, group: str, ds: DataSet) -> ContrastSet:
    """Inverse of :func:`render_conditions`; raises ``ValueError`` naming a
    part, attribute or value it cannot read.

    A name or value may hold `` AND ``, `` = ``, `` != `` or `` in ``, so
    every way to cut the text into parts at `` AND `` is tried, and the
    first reading the dataset accepts is kept, shortest parts first. Where
    none is, the first `` AND ``-separated piece that reads as no test raises.
    """
    text = text.strip()
    cuts = [m.start() for m in re.finditer("(?= AND )", text)]  # overlapping ones too
    starts, stops = ([0] + [c + 5 for c in cuts], cuts + [len(text)]) if text else ([], [])
    most = max((a.name.count("AND") + max((v.count("AND") for v in a.domain), default=0)
                for a in ds.attributes), default=0)
    # read[i]: the first accepted reading from starts[i] on: the next part's start, this part's conditions
    read: list = [None] * len(starts) + [(len(starts), [])]
    for i in reversed(range(len(starts))):
        # each cut a part spans holds an AND of its name or value
        for j in range(i, min(i + 1 + most, len(starts))):
            if read[j + 1] is not None:
                try:
                    read[i] = j + 1, _read_part(text[starts[i] : stops[j]].strip(), ds)
                    break
                except ValueError:
                    pass
    if read[0] is None:
        for piece in text.split(" AND "):
            _read_part(piece.strip(), ds)
    conditions, i = [], 0
    while i < len(starts):
        i, conds = read[i]
        conditions += conds
    return ContrastSet(tuple(conditions), group)
